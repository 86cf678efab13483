//! `online_storm`: refine an offline-bootstrapped TPC-CH advisor against
//! measured runtimes on a sampled, fault-stormed PgXL-like cluster.
//!
//! Chosen because the simulator executor, lazy repartitioning, the runtime
//! cache and the fault/retry path (`lpa-cluster`, `lpa-advisor::online`) do
//! about half of the work here and the NN the other half: an executor or
//! cache change shows on this workload and must not show on
//! `offline_train`, which runs the same agent against the cost model.
//!
//! Every input of an online refinement decides its trajectory (which layouts
//! are visited, so which queries run, fail and are retried), so all of them
//! are seeded by `TRAJECTORY_SEED` and `--seed` decides nothing here.

use crate::harness::{mix_str, Checks, Pass, RunCfg, Workload, FNV_OFFSET, TRAJECTORY_SEED};
use crate::offline_train::{
    cost_params, profile_begin, ratio, train, training_layer_metrics, untrained_advisor,
};
use crate::trace::Tracer;
use lpa_advisor::{
    shared_cache, shared_cluster, Advisor, OnlineBackend, OnlineOptimizations, RetryPolicy,
    SharedCluster,
};
use lpa_cluster::{
    direct_deploy, Cluster, ClusterConfig, EngineProfile, FaultPlan, HardwareProfile,
};
use lpa_costmodel::NetworkCostModel;
use lpa_par::derive_stream;
use lpa_partition::Partitioning;
use lpa_rl::DqnConfig;
use std::time::Instant;

const SALT_AGENT: u64 = 0x0511_0001;
const SALT_CLUSTER: u64 = 0x0511_0002;
const SALT_STORM: u64 = 0x0511_0003;

const SAMPLE_FRACTION: f64 = 0.25;
const TMAX: usize = 32;

/// Simulated cluster seconds the online phase consumed at full size when
/// this benchmark was defined (`advisor.online_sim_cluster_s`, the paper's
/// Table 2 quantity). It repeats exactly, so any rise is a regression and a
/// failed check; a change that lowers it passes, and a later correction of
/// the benchmark lowers the constant with it.
const SIM_CLUSTER_S_CEILING: f64 = 39.175_197_052_295_73;

pub struct OnlineStorm;

pub struct State {
    advisor: Advisor,
    backend: OnlineBackend,
    /// Healthy full-size cluster: judges the final advice.
    full: Cluster,
    sample: SharedCluster,
    online_episodes: usize,
}

impl Workload for OnlineStorm {
    type State = State;

    fn name(&self) -> &'static str {
        "online_storm"
    }

    /// Offline bootstrap, full + sampled cluster, scale factors measured in
    /// clear weather, then the storm is installed on the sample.
    fn setup(&self, cfg: &RunCfg, _traced: bool) -> State {
        let bootstrap_episodes = cfg.pick(25, 2);
        let online_episodes = cfg.pick(20, 2);
        let hw = HardwareProfile::standard();

        let schema =
            lpa_schema::tpcch::schema(cfg.pick(0.002, 0.0005)).expect("TPC-CH schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("TPC-CH workload builds");
        let dqn = DqnConfig::simulation(bootstrap_episodes, TMAX)
            .with_seed(derive_stream(TRAJECTORY_SEED, SALT_AGENT));
        let mut advisor = untrained_advisor(schema.clone(), workload.clone(), dqn);
        advisor.train_episodes(bootstrap_episodes, |_| {});

        let mut full = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::pgxl(), hw)
                .with_seed(derive_stream(TRAJECTORY_SEED, SALT_CLUSTER)),
        );
        let mut sample = full.sampled(SAMPLE_FRACTION);
        let uniform = workload.uniform_frequencies();
        let p_offline = advisor.suggest(&uniform).partitioning;
        let scale =
            OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p_offline);
        sample.set_fault_plan(FaultPlan::storm(derive_stream(TRAJECTORY_SEED, SALT_STORM)));
        let sample = shared_cluster(sample);
        let backend = OnlineBackend::new(
            sample.clone(),
            shared_cache(),
            scale,
            OnlineOptimizations::default(),
        )
        .with_retry_policy(RetryPolicy::default())
        .with_fallback(NetworkCostModel::new(cost_params(hw)), schema);
        State {
            advisor,
            backend,
            full,
            sample,
            online_episodes,
        }
    }

    fn run(&self, cfg: &RunCfg, state: State, mut tracer: Option<&mut Tracer>) -> Pass {
        let State {
            mut advisor,
            backend,
            mut full,
            sample,
            online_episodes,
        } = state;
        let mut checks = Checks::default();

        if tracer.is_some() {
            profile_begin();
        }
        let t0 = Instant::now();
        advisor.begin_online_refinement(backend);
        let trained = train(
            &mut advisor,
            online_episodes,
            "advisor.online_step",
            tracer.as_deref_mut(),
        );
        let train_s = t0.elapsed().as_secs_f64();
        checks.ops(online_episodes as u64);

        let acct = advisor
            .online_accounting()
            .expect("online backend is installed");
        let faults = advisor
            .online_fault_accounting()
            .expect("online backend is installed");
        let sim_cluster_s = acct.actual_query_seconds + acct.lazy_repartition_seconds;
        let ceiling = cfg.pick(SIM_CLUSTER_S_CEILING, f64::INFINITY);
        checks.require(
            sim_cluster_s <= ceiling,
            format!("online_sim_cluster_s {sim_cluster_s} rose above {ceiling}"),
        );
        let mut fp = vec![
            trained.xor,
            advisor.weight_fingerprint(),
            sim_cluster_s.to_bits(),
            acct.queries_executed,
            acct.queries_cached,
            faults.retries,
            faults.fallbacks,
        ];
        let mut layer = Vec::new();
        if let Some(tr) = tracer.as_deref() {
            training_layer_metrics(tr, train_s, &mut layer);
            layer.push((
                "advisor.online_step_us",
                tr.mean_s("advisor.online_step") * 1e6,
            ));
            layer.push((
                "advisor.step_share",
                tr.self_s("advisor.online_step") / train_s.max(1e-9),
            ));
            layer.push((
                "advisor.runtime_cache_hit_ratio",
                ratio(acct.queries_cached, acct.queries_executed),
            ));
            layer.push(("advisor.retries", faults.retries as f64));
            layer.push(("advisor.fallbacks", faults.fallbacks as f64));
            layer.push(("advisor.timeouts_hit", acct.timeouts_hit as f64));
            layer.push(("advisor.online_sim_cluster_s", sim_cluster_s));
            layer.push((
                "cluster.queries_executed",
                sample.lock().queries_executed() as f64,
            ));
            layer.push(("cluster.queries_failed", faults.queries_failed as f64));
            layer.push(("cluster.failovers", faults.failovers as f64));
        }

        // What the storm cost the advice, not the measurements: judge the
        // final layout by measured runtime on the healthy full cluster.
        let uniform = advisor.env.workload.uniform_frequencies();
        let advised = advisor.suggest(&uniform).partitioning;
        checks.ops(1);
        let initial = Partitioning::initial(&advisor.env.schema);
        let mut runtime = |p: &Partitioning| {
            direct_deploy(&mut full, p);
            full.run_workload(&advisor.env.workload, &uniform)
        };
        let cost_ratio = runtime(&advised) / runtime(&initial);
        fp.push(mix_str(FNV_OFFSET, &format!("{advised:?}")));

        Pass {
            ops: trained.steps,
            ops_s: train_s,
            // One sample per online episode: the first ones run against a
            // cold runtime cache (executor, retries), the later ones mostly
            // against a warm one (NN).
            latencies_ms: trained.episode_ms,
            cost_ratio,
            fingerprint: fp,
            checks,
            layer,
        }
    }
}
