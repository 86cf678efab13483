//! `fleet_durable`: a checkpointed multi-tenant fleet — training rounds, then
//! advice-only rounds, then whole-fleet resume from disk.
//!
//! Chosen because `lpa-service::fleet`, the round-robin scheduler, the
//! guardrail's baseline/canary runs, first-touch data materialisation and
//! `lpa-store` (codec, fsync, manifest, journal) do nearly all of the work
//! here; tenant nets are 16-8, so `lpa-nn` does almost none. The store is
//! used three ways — written (throughput), read (resume latency) and sized
//! (`store.ckpt_bytes_per_tenant`) — so a gain for one that costs another
//! shows.

use crate::harness::{
    mean, mix, out_dir, percentile, rss_mb, Checks, Pass, RunCfg, Workload, FNV_OFFSET,
    TRAJECTORY_SEED,
};
use crate::offline_train::{profile_begin, profile_end};
use crate::trace::Tracer;
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_par::derive_stream;
use lpa_partition::Partitioning;
use lpa_service::{Benchmark, Fleet, FleetConfig, TenantSpec};
use lpa_store::CheckpointedFleet;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SALT_FLEET: u64 = 0xF1EE_0001;
const SALT_TENANT: u64 = 0xF1EE_0002;

/// Every round ends with a checkpoint: the issue's cadence of 4 rounds,
/// scaled like the round count.
const CHECKPOINT_EVERY: u64 = 1;
/// Bytes on disk under the fleet root ÷ tenants at full size when this
/// benchmark was defined (`store.ckpt_bytes_per_tenant`). It repeats
/// exactly, so any rise is a regression and a failed check; a change that
/// lowers it passes, and a later correction of the benchmark lowers the
/// constant with it.
const CKPT_BYTES_PER_TENANT_CEILING: f64 = 74_294.687_5;
/// A cadence that never lands: the traced pass calls `checkpoint_now`
/// itself so rounds and checkpoints are separate spans.
const NEVER: u64 = 1 << 40;

struct Sizes {
    tenants: usize,
    /// Rounds in which every tenant still trains; as many advice-only
    /// rounds follow.
    train_rounds: usize,
    resumes: usize,
}

fn sizes(cfg: &RunCfg) -> Sizes {
    cfg.pick(
        Sizes {
            tenants: 32,
            train_rounds: 3,
            resumes: 20,
        },
        Sizes {
            tenants: 4,
            train_rounds: 4,
            resumes: 4,
        },
    )
}

fn fleet_config(tenants: usize) -> FleetConfig {
    FleetConfig {
        seed: derive_stream(TRAJECTORY_SEED, SALT_FLEET),
        max_tenants: tenants,
        ..FleetConfig::default()
    }
}

fn specs(cfg: &RunCfg, sz: &Sizes) -> Vec<TenantSpec> {
    (0..sz.tenants)
        .map(|i| {
            let bench = if i % 2 == 0 {
                Benchmark::Ssb
            } else {
                Benchmark::TpcCh
            };
            let seed = derive_stream(derive_stream(TRAJECTORY_SEED, SALT_TENANT), i as u64);
            // The tenant's name is the only thing `--seed` decides here.
            let name = format!(
                "tenant-{i:03}-{:08x}",
                derive_stream(cfg.seed, i as u64) >> 32
            );
            let mut spec = TenantSpec::new(name, bench, 0.001, seed);
            spec.episodes = sz.train_rounds;
            spec
        })
        .collect()
}

fn weight_fingerprints(fleet: &Fleet) -> Vec<u64> {
    (0..fleet.tenant_count())
        .map(|t| fleet.tenant_weight_fingerprint(t).unwrap_or(0))
        .collect()
}

fn bytes_under(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => bytes_under(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Mean over tenants of cost-model cost of the deployed layout ÷ cost of the
/// initial one, uniform mix, under the fleet's cost-model convention.
fn fleet_cost_ratio(fleet: &Fleet) -> f64 {
    let model = NetworkCostModel::new(CostParams::standard());
    let mut sum = 0.0;
    for t in 0..fleet.tenant_count() {
        let (Ok(schema), Ok(workload), Ok(cluster)) = (
            fleet.tenant_schema(t),
            fleet.tenant_workload(t),
            fleet.tenant_cluster(t),
        ) else {
            return f64::NAN;
        };
        let uniform = workload.uniform_frequencies();
        let cost = |p: &Partitioning| model.workload_cost(schema, workload, &uniform, p);
        sum += cost(cluster.deployed()) / cost(&Partitioning::initial(schema));
    }
    sum / fleet.tenant_count().max(1) as f64
}

pub struct FleetDurable;

pub struct State {
    fleet: CheckpointedFleet,
    dir: PathBuf,
    sz: Sizes,
    admit_ms_per_tenant: f64,
    rss_after_admission_mb: f64,
}

impl Workload for FleetDurable {
    type State = State;

    fn name(&self) -> &'static str {
        "fleet_durable"
    }

    /// A fresh fleet root on disk and every tenant admitted (schema,
    /// workload, simulated cluster and advisor built per tenant).
    fn setup(&self, cfg: &RunCfg, traced: bool) -> State {
        let sz = sizes(cfg);
        // One pass at a time per process, and `run` removes the directory.
        let dir = out_dir().join(format!("fleet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let every = if traced { NEVER } else { CHECKPOINT_EVERY };
        let mut fleet = CheckpointedFleet::create(fleet_config(sz.tenants), &dir, every)
            .expect("fleet root is writable");
        let t = Instant::now();
        for spec in specs(cfg, &sz) {
            fleet.admit(spec).expect("tenant is admitted");
        }
        let admit_ms_per_tenant = t.elapsed().as_secs_f64() * 1e3 / sz.tenants as f64;
        State {
            fleet,
            dir,
            sz,
            admit_ms_per_tenant,
            rss_after_admission_mb: rss_mb(),
        }
    }

    fn run(&self, cfg: &RunCfg, state: State, mut tracer: Option<&mut Tracer>) -> Pass {
        let State {
            mut fleet,
            dir,
            sz,
            admit_ms_per_tenant,
            rss_after_admission_mb,
        } = state;
        let rounds = 2 * sz.train_rounds as u64;
        let mut checks = Checks::default();

        if tracer.is_some() {
            profile_begin();
        }
        let t0 = Instant::now();
        let mut round_ms = Vec::with_capacity(rounds as usize);
        for round in 1..=rounds {
            let t = Instant::now();
            match tracer.as_deref_mut() {
                None => fleet.run_round(),
                Some(tr) => {
                    tr.span("fleet.run_round", round, None, || fleet.run_round());
                    tr.span("store.checkpoint_round", round, None, || {
                        fleet.checkpoint_now()
                    });
                }
            }
            round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let rounds_s = t0.elapsed().as_secs_f64();
        let mut layer = Vec::new();
        if tracer.is_some() {
            profile_end(rounds_s, &mut layer);
        }
        let rss_after_rounds_mb = rss_mb();
        let slices = rounds * sz.tenants as u64;
        checks.ops(slices + rounds);

        let report = fleet.report();
        let reference = weight_fingerprints(fleet.fleet());
        let journal_records = fleet.journal().map_or(0, |j| j.records_on_disk());
        let cost_ratio = fleet_cost_ratio(fleet.fleet());
        let queries_executed: u64 = (0..sz.tenants)
            .filter_map(|t| fleet.fleet().tenant_cluster(t).ok())
            .map(|c| c.queries_executed())
            .sum();
        checks.require(
            report.quarantined == 0,
            format!("{} tenants quarantined", report.quarantined),
        );
        checks.fail(
            report.store.write_failures,
            format!("{} checkpoint writes failed", report.store.write_failures),
        );
        checks.require(
            report.store.checkpoints_written == slices,
            format!(
                "{} checkpoints written, expected {}",
                report.store.checkpoints_written, slices
            ),
        );
        drop(fleet);
        let disk_bytes = bytes_under(&dir);
        let bytes_per_tenant = disk_bytes as f64 / sz.tenants as f64;
        let ceiling = cfg.pick(CKPT_BYTES_PER_TENANT_CEILING, f64::INFINITY);
        checks.require(
            bytes_per_tenant <= ceiling,
            format!("ckpt_bytes_per_tenant {bytes_per_tenant} rose above {ceiling}"),
        );

        // Whole-fleet resume from the directory the run left behind. It only
        // reads, so every resume does the same work.
        let mut latencies_ms = Vec::with_capacity(sz.resumes);
        let mut restores = 0u64;
        let mut fallbacks = 0u64;
        for i in 0..sz.resumes {
            let t = Instant::now();
            let resume = || {
                CheckpointedFleet::resume_or(
                    fleet_config(sz.tenants),
                    specs(cfg, &sz),
                    &dir,
                    CHECKPOINT_EVERY,
                )
            };
            let resumed = match tracer.as_deref_mut() {
                None => resume(),
                Some(tr) => tr.span("store.resume", i as u64, None, resume),
            };
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            checks.ops(1);
            match resumed {
                Ok(resumed) => {
                    checks.require(
                        resumed.fleet().round() == rounds,
                        format!("resume landed on round {}", resumed.fleet().round()),
                    );
                    checks.require(
                        weight_fingerprints(resumed.fleet()) == reference,
                        "a resumed tenant's weights differ from the pre-drop fleet's",
                    );
                    let store = resumed.report().store;
                    restores = store.restores;
                    fallbacks = store.fallbacks;
                }
                Err(e) => checks.fail(1, format!("resume failed: {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        let g = report.guardrail;
        let mut fingerprint = reference;
        fingerprint.extend([
            journal_records,
            disk_bytes,
            g.canaries_started,
            g.commits,
            g.rollbacks(),
            g.kept_current,
            queries_executed,
        ]);
        fingerprint.push(
            report
                .per_tenant
                .iter()
                .fold(FNV_OFFSET, |h, t| mix(h, t.counters.deployments)),
        );

        if let Some(tr) = tracer.as_deref() {
            let (run, skipped) = report.per_tenant.iter().fold((0, 0), |(r, s), t| {
                (r + t.counters.slices_run, s + t.counters.slices_skipped)
            });
            let warm = &round_ms[sz.train_rounds..];
            layer.push(("fleet.round_ms_p50", percentile(&round_ms, 0.5)));
            layer.push(("fleet.round_ms_max", percentile(&round_ms, 1.0)));
            layer.push(("fleet.warm_round_ms", mean(warm)));
            layer.push(("fleet.admit_ms_per_tenant", admit_ms_per_tenant));
            layer.push(("fleet.slices_run", run as f64));
            layer.push(("fleet.slices_skipped", skipped as f64));
            layer.push((
                "cluster.rss_mb_per_tenant",
                (rss_after_rounds_mb - rss_after_admission_mb) / sz.tenants as f64,
            ));
            layer.push(("cluster.queries_executed", queries_executed as f64));
            layer.push(("guardrail.canaries_started", g.canaries_started as f64));
            layer.push(("guardrail.commits", g.commits as f64));
            layer.push(("guardrail.rollbacks", g.rollbacks() as f64));
            layer.push((
                "store.checkpoint_round_ms",
                tr.mean_s("store.checkpoint_round") * 1e3,
            ));
            layer.push(("store.resume_ms", tr.mean_s("store.resume") * 1e3));
            layer.push((
                "store.checkpoints_written",
                report.store.checkpoints_written as f64,
            ));
            layer.push(("store.ckpt_bytes_per_tenant", bytes_per_tenant));
            layer.push(("store.write_failures", report.store.write_failures as f64));
            layer.push(("store.restores", restores as f64));
            layer.push(("store.fallbacks", fallbacks as f64));
        }

        Pass {
            ops: slices,
            ops_s: rounds_s,
            latencies_ms,
            cost_ratio,
            fingerprint,
            checks,
            layer,
        }
    }
}
