//! `offline_train`: bootstrap two advisors against the cost model, then ask
//! the second one for advice.
//!
//! Chosen because `lpa-nn` + `lpa-rl` do almost all of the work here
//! (batch-32 training and batch-1 greedy inference) while `lpa-cluster`,
//! `lpa-store` and `lpa-sql` do none: a kernel, encoder or replay change
//! shows on this workload, an executor or codec change must not.

use crate::harness::{mix, mix_str, Checks, Pass, RunCfg, Workload, FNV_OFFSET, TRAJECTORY_SEED};
use crate::trace::Tracer;
use lpa_advisor::{Advisor, AdvisorEnv, RewardBackend};
use lpa_cluster::HardwareProfile;
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_par::derive_stream;
use lpa_partition::Partitioning;
use lpa_rl::{DqnConfig, QEnvironment, Transition};
use lpa_schema::Schema;
use lpa_workload::{FrequencyVector, MixSampler, Workload as QueryWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SALT_SSB: u64 = 0x0FF1_0001;
const SALT_TPCCH: u64 = 0x0FF1_0002;
const SALT_MIXES: u64 = 0x0FF1_0003;

/// Cost-model parameters matching a hardware profile (the convention of
/// the experiment harness).
pub fn cost_params(hw: HardwareProfile) -> CostParams {
    CostParams {
        nodes: hw.nodes,
        net_bandwidth: hw.net_bandwidth,
        scan_bandwidth: hw.mem_scan_bandwidth,
        cpu_tuple_cost: hw.cpu_tuple_cost,
        ..CostParams::standard()
    }
}

/// An untrained advisor over the cost-model backend, uniform mix sampling.
pub fn untrained_advisor(schema: Schema, workload: QueryWorkload, cfg: DqnConfig) -> Advisor {
    let model = NetworkCostModel::new(cost_params(HardwareProfile::standard()));
    let sampler = MixSampler::uniform(&workload);
    let seed = cfg.seed;
    let env = AdvisorEnv::new(
        schema,
        workload,
        RewardBackend::cost_model(model),
        sampler,
        true,
        seed,
    );
    Advisor::untrained(env, cfg)
}

/// Seeded random workload mixes (skewed: a few hot queries per mix).
fn random_mixes(seed: u64, slots: usize, queries: usize, n: usize) -> Vec<FrequencyVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let counts: Vec<f64> = (0..queries)
                .map(|_| {
                    let u: f64 = rng.gen();
                    1.0 + 99.0 * u * u * u
                })
                .collect();
            FrequencyVector::from_counts(&counts, slots)
        })
        .collect()
}

/// Cost-model cost of the advisor's greedy layout under the uniform mix ÷
/// cost of the initial layout.
fn advice_cost_ratio(advisor: &mut Advisor) -> (f64, Partitioning) {
    let uniform = advisor.env.workload.uniform_frequencies();
    let advised = advisor.suggest(&uniform).partitioning;
    let initial = Partitioning::initial(&advisor.env.schema);
    let ratio = advisor.cost_of(&advised, &uniform) / advisor.cost_of(&initial, &uniform);
    (ratio, advised)
}

/// XOR of per-episode reward bits, rotated by episode so order matters.
fn fold_reward(acc: u64, episode: usize, total_reward: f64) -> u64 {
    acc ^ total_reward.to_bits().rotate_left((episode % 63) as u32)
}

/// What a training run produced.
pub struct Trained {
    /// XOR of per-episode reward bits.
    pub xor: u64,
    /// Environment steps taken.
    pub steps: u64,
    /// Wall time of each episode, in ms.
    pub episode_ms: Vec<f64>,
}

/// The library's training loop, opened: the same calls in the same order as
/// `lpa_rl::train`, with a span around each.
fn train_opened(
    advisor: &mut Advisor,
    episodes: usize,
    step_span: &'static str,
    tracer: &mut Tracer,
) -> Trained {
    let tmax = advisor.config().tmax;
    let train_every = advisor.config().train_every.max(1);
    let (agent, env) = advisor.agent_env_mut();
    let mut out = Trained {
        xor: 0,
        steps: 0,
        episode_ms: Vec::with_capacity(episodes),
    };
    for episode in 0..episodes {
        let started = Instant::now();
        let op = episode as u64;
        let ep = tracer.begin("train.episode", op, None);
        let mut state = env.reset();
        let mut total_reward = 0.0;
        for t in 0..tmax {
            let action = tracer.span("rl.select_action", op, Some(ep), || {
                agent.select_action(env, &state, true)
            });
            let (next, reward) = tracer.span(step_span, op, Some(ep), || env.step(&state, &action));
            out.steps += 1;
            total_reward += reward;
            agent.remember(Transition {
                state: state.clone(),
                action,
                reward,
                next_state: next.clone(),
            });
            if t % train_every == 0 {
                tracer.span("rl.train_step", op, Some(ep), || {
                    let _ = agent.train_step(env);
                });
            }
            state = next;
        }
        agent.decay_epsilon();
        tracer.end(ep);
        out.xor = fold_reward(out.xor, episode, total_reward);
        out.episode_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    out
}

/// Start the library's phase timers for a traced pass.
pub fn profile_begin() {
    lpa_rl::profile::set_enabled(true);
    lpa_rl::profile::reset();
}

/// Stop the phase timers; reports the NN's busy seconds and its share of
/// `wall_s`, and returns the whole snapshot.
pub fn profile_end(
    wall_s: f64,
    layer: &mut Vec<(&'static str, f64)>,
) -> lpa_rl::profile::PhaseNanos {
    let p = lpa_rl::profile::snapshot();
    lpa_rl::profile::set_enabled(false);
    let nn_s = p.nn_ns as f64 * 1e-9;
    layer.push(("nn.busy_s", nn_s));
    layer.push(("nn.share", nn_s / wall_s.max(1e-9)));
    p
}

/// Train `episodes` episodes: through the library's loop when untraced
/// (episodes timed from its per-episode callback), through the opened loop
/// when traced.
pub fn train(
    advisor: &mut Advisor,
    episodes: usize,
    step_span: &'static str,
    tracer: Option<&mut Tracer>,
) -> Trained {
    match tracer {
        Some(tr) => train_opened(advisor, episodes, step_span, tr),
        None => {
            let mut out = Trained {
                xor: 0,
                steps: 0,
                episode_ms: Vec::with_capacity(episodes),
            };
            let mut started = Instant::now();
            advisor.train_episodes(episodes, |s| {
                out.xor = fold_reward(out.xor, s.episode, s.total_reward);
                out.steps += s.steps as u64;
                out.episode_ms.push(started.elapsed().as_secs_f64() * 1e3);
                started = Instant::now();
            });
            out
        }
    }
}

/// One timed `suggest` per mix, in order: latencies in ms and a hash of the
/// advice (layouts and reward bits).
fn timed_suggests(
    advisor: &mut Advisor,
    mixes: &[FrequencyVector],
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
) -> (Vec<f64>, u64) {
    let mut latencies_ms = Vec::new();
    let mut advice = FNV_OFFSET;
    for (i, mix_vec) in mixes.iter().enumerate() {
        let t = Instant::now();
        let s = match tracer.as_deref_mut() {
            None => advisor.suggest(mix_vec),
            Some(tr) => tr.span("advisor.suggest", i as u64, None, || {
                advisor.suggest(mix_vec)
            }),
        };
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        advice = mix_str(advice, &format!("{:?}", s.partitioning));
        advice = mix(advice, s.reward.to_bits());
        checks.require(s.reward.is_finite(), "suggest returned a non-finite reward");
    }
    checks.ops(latencies_ms.len() as u64);
    (latencies_ms, advice)
}

/// Per-layer values every training workload derives the same way from the
/// profile snapshot and the spans of one traced pass.
pub fn training_layer_metrics(
    tracer: &Tracer,
    train_wall_s: f64,
    layer: &mut Vec<(&'static str, f64)>,
) {
    let p = profile_end(train_wall_s, layer);
    layer.push(("rl.encode_s", p.encode_ns as f64 * 1e-9));
    layer.push(("rl.env_s", p.env_ns as f64 * 1e-9));
    layer.push(("rl.replay_s", p.replay_ns as f64 * 1e-9));
    layer.push((
        "rl.select_action_us",
        tracer.mean_s("rl.select_action") * 1e6,
    ));
    layer.push(("rl.train_step_ms", tracer.mean_s("rl.train_step") * 1e3));
}

pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub struct OfflineTrain;

pub struct State {
    ssb: Advisor,
    tpcch: Advisor,
    mixes: Vec<FrequencyVector>,
    ssb_episodes: usize,
    tpcch_episodes: usize,
}

impl Workload for OfflineTrain {
    type State = State;

    fn name(&self) -> &'static str {
        "offline_train"
    }

    fn setup(&self, cfg: &RunCfg, _traced: bool) -> State {
        let ssb_episodes = cfg.pick(75, 3);
        let tpcch_episodes = cfg.pick(25, 2);
        let suggests = cfg.pick(100, 12);

        let schema = lpa_schema::ssb::schema(0.01).expect("SSB schema builds");
        let workload = lpa_workload::ssb::workload(&schema).expect("SSB workload builds");
        let dqn = DqnConfig::simulation(ssb_episodes, 24)
            .with_seed(derive_stream(TRAJECTORY_SEED, SALT_SSB));
        let ssb = untrained_advisor(schema, workload, dqn);

        let schema = lpa_schema::tpcch::schema(0.002).expect("TPC-CH schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("TPC-CH workload builds");
        let mixes = random_mixes(
            derive_stream(cfg.seed, SALT_MIXES),
            workload.slots(),
            workload.queries().len(),
            suggests,
        );
        let dqn = DqnConfig::simulation(tpcch_episodes, 32)
            .with_seed(derive_stream(TRAJECTORY_SEED, SALT_TPCCH));
        let tpcch = untrained_advisor(schema, workload, dqn);
        State {
            ssb,
            tpcch,
            mixes,
            ssb_episodes,
            tpcch_episodes,
        }
    }

    fn run(&self, _cfg: &RunCfg, state: State, mut tracer: Option<&mut Tracer>) -> Pass {
        let State {
            mut ssb,
            mut tpcch,
            mixes,
            ssb_episodes,
            tpcch_episodes,
        } = state;
        let mut checks = Checks::default();
        let mut fp = vec![];
        let mut steps = 0u64;

        if tracer.is_some() {
            profile_begin();
        }
        let t0 = Instant::now();
        for (advisor, episodes) in [(&mut ssb, ssb_episodes), (&mut tpcch, tpcch_episodes)] {
            let trained = train(advisor, episodes, "advisor.env_step", tracer.as_deref_mut());
            steps += trained.steps;
            fp.push(trained.xor);
            fp.push(advisor.weight_fingerprint());
            checks.ops(episodes as u64);
        }
        let train_s = t0.elapsed().as_secs_f64();
        let mut layer = Vec::new();
        if let Some(tr) = tracer.as_deref() {
            training_layer_metrics(tr, train_s, &mut layer);
            let a = ssb.env.counters();
            let b = tpcch.env.counters();
            layer.push(("advisor.env_step_us", tr.mean_s("advisor.env_step") * 1e6));
            layer.push((
                "advisor.step_share",
                tr.self_s("advisor.env_step") / train_s.max(1e-9),
            ));
            layer.push((
                "partition.action_cache_hit_ratio",
                ratio(
                    a.action_cache_hits + b.action_cache_hits,
                    a.action_cache_misses + b.action_cache_misses,
                ),
            ));
            layer.push((
                "advisor.reward_cache_hit_ratio",
                ratio(
                    a.reward_cache_hits + b.reward_cache_hits,
                    a.reward_cache_misses + b.reward_cache_misses,
                ),
            ));
            layer.push((
                "advisor.queries_recosted_per_step",
                (a.queries_recosted + b.queries_recosted) as f64 / steps.max(1) as f64,
            ));
        }

        let (latencies_ms, advice) = timed_suggests(&mut tpcch, &mixes, tracer, &mut checks);
        fp.push(advice);

        let (cost_ratio, advised) = advice_cost_ratio(&mut tpcch);
        fp.push(mix_str(FNV_OFFSET, &format!("{advised:?}")));

        Pass {
            ops: steps,
            ops_s: train_s,
            latencies_ms,
            cost_ratio,
            fingerprint: fp,
            checks,
            layer,
        }
    }
}
