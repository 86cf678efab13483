//! Differential equivalence suite for the incremental step engine.
//!
//! The delta-reward backend, the interned cost cache, the action-set cache
//! and the batched encoder are pure optimizations: every observable value
//! — rewards, Q-values, selected actions, trained weights — must be
//! **bit-identical** to the full recompute they replace, which is
//! `reference_reward`: every query costed afresh, no memo. These tests pin
//! that contract on TPC-CH and SSB, including across `reset()` and
//! `set_backend` boundaries.

use lpa::advisor::{reference_reward, EnvState};
use lpa::costmodel::{CostParams, NetworkCostModel};
use lpa::partition::{valid_actions, Action};
use lpa::prelude::*;
use lpa::rl::{rollout, train, DqnAgent, QEnvironment};
use lpa::schema::Schema;
use lpa::workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench(name: &str) -> (Schema, Workload) {
    match name {
        "tpcch" => {
            let s = lpa::schema::tpcch::schema(0.001).unwrap();
            let w = lpa::workload::tpcch::workload(&s).unwrap();
            (s, w)
        }
        "ssb" => {
            let s = lpa::schema::ssb::schema(0.001).unwrap();
            let w = lpa::workload::ssb::workload(&s).unwrap();
            (s, w)
        }
        other => panic!("unknown bench {other}"),
    }
}

fn model() -> NetworkCostModel {
    NetworkCostModel::new(CostParams::standard())
}

fn env(name: &str, seed: u64) -> AdvisorEnv {
    let (schema, workload) = bench(name);
    AdvisorEnv::new(
        schema.clone(),
        workload.clone(),
        RewardBackend::cost_model(model()),
        MixSampler::uniform(&workload),
        true,
        seed,
    )
}

/// `reference_reward` of `p` under `freqs` on `env`'s schema and workload.
fn reference(env: &AdvisorEnv, p: &Partitioning, freqs: &FrequencyVector) -> f64 {
    reference_reward(&model(), &env.schema, &env.workload, p, freqs)
}

/// The normalization `env` must have derived: the initial layout's
/// reference cost under a uniform mix.
fn reference_scale(env: &AdvisorEnv) -> f64 {
    let uniform = env.workload.uniform_frequencies();
    reference(env, env.initial_partitioning(), &uniform).abs()
}

/// One step of `env`, asserting its reward against the reference.
fn checked_step(env: &mut AdvisorEnv, s: &EnvState, a: &Action, at: &str) -> EnvState {
    let (next, r) = env.step(s, a);
    let want = reference(env, &next.partitioning, &s.freqs) / env.reward_scale();
    assert_eq!(r.to_bits(), want.to_bits(), "{at}: {r} against {want}");
    next
}

/// 200-step seeded random walk; the delta env's reward equals the
/// reference at every step, with an episode reset every 20 steps.
fn random_walk_equiv(name: &str, seed: u64) {
    let mut delta = env(name, seed);
    assert_eq!(
        delta.reward_scale().to_bits(),
        reference_scale(&delta).to_bits()
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11A);
    let mut sd = delta.reset();
    for step in 0..200 {
        if step % 20 == 19 {
            sd = delta.reset();
            continue;
        }
        let actions = delta.actions(&sd);
        // The cached set must equal a fresh enumeration (compound keys
        // allowed, so no filtering applies here).
        assert_eq!(
            actions,
            valid_actions(&delta.schema, &sd.partitioning),
            "step {step}: cached action set differs from fresh enumeration"
        );
        let a = actions[rng.gen_range(0..actions.len())];
        sd = checked_step(&mut delta, &sd, &a, &format!("step {step}"));
    }
    let c = delta.counters();
    assert!(c.delta_recosts > 0, "delta path never exercised");
    assert!(
        c.queries_recosted < c.rewards_evaluated * delta.workload.queries().len() as u64,
        "delta must re-cost fewer queries than a full recompute per reward"
    );
}

#[test]
fn tpcch_200_step_walk_bitwise_equal() {
    random_walk_equiv("tpcch", 41);
}

#[test]
fn ssb_200_step_walk_bitwise_equal() {
    random_walk_equiv("ssb", 42);
}

/// Swapping the backend mid-walk for a fresh engine (caches dropped, scale
/// re-derived, nothing tracked) keeps the rewards on the reference — the
/// engine carries no hidden state that survives `set_backend` incorrectly.
#[test]
fn set_backend_boundary_stays_bitwise_equal() {
    let mut delta = env("tpcch", 9);
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut sd = delta.reset();
    for step in 0..60 {
        if step == 30 {
            delta.set_backend(RewardBackend::cost_model(model()));
            assert_eq!(
                delta.reward_scale().to_bits(),
                reference_scale(&delta).to_bits(),
                "re-derived scale diverged"
            );
        }
        let actions = delta.actions(&sd);
        let a = actions[rng.gen_range(0..actions.len())];
        sd = checked_step(&mut delta, &sd, &a, &format!("step {step}"));
    }
}

/// The agent-level differential for the grouped first layer: `q_values`
/// (batched encoding, state prefix evaluated once, exact zeros skipped)
/// bitwise equals encoding row by row and running the dense
/// `predict_batch` — on the initial layout and along a walk away from it.
#[test]
fn q_values_match_per_row_encoding_bitwise() {
    for name in ["ssb", "tpcch"] {
        let mut env = env(name, 3);
        let cfg = DqnConfig::quick_test().with_seed(12);
        let agent: DqnAgent<AdvisorEnv> = DqnAgent::new(env.input_dim(), cfg);
        assert!(env.state_prefix_len() > 0, "the advisor shares its state");
        let mut s = env.reset();
        for step in 0..6 {
            let actions = env.actions(&s);
            let batched = agent.q_values(&env, &s, &actions);
            // Reference: encode rows one by one and run the same network.
            let dim = env.input_dim();
            let mut reference = lpa::nn::Matrix::zeros(actions.len(), dim);
            for (i, a) in actions.iter().enumerate() {
                env.encode(&s, a, reference.row_mut(i));
            }
            let expected = agent.q_network().predict_batch(&reference);
            assert_eq!(batched.len(), expected.len());
            for (i, (b, e)) in batched.iter().zip(&expected).enumerate() {
                assert_eq!(b.to_bits(), e.to_bits(), "{name} step {step} row {i}");
            }
            s = env.step(&s, &actions[(step * 5 + 1) % actions.len()]).0;
        }
    }
}

/// [`AdvisorEnv`] with every reward recomputed by [`reference_reward`]:
/// the full-recompute environment the delta env must train exactly like.
struct ReferenceEnv(AdvisorEnv);

impl QEnvironment for ReferenceEnv {
    type State = EnvState;
    type Action = Action;

    fn input_dim(&self) -> usize {
        self.0.input_dim()
    }

    fn state_prefix_len(&self) -> usize {
        self.0.state_prefix_len()
    }

    fn reset(&mut self) -> EnvState {
        self.0.reset()
    }

    fn actions(&self, s: &EnvState) -> Vec<Action> {
        self.0.actions(s)
    }

    fn encode(&self, s: &EnvState, a: &Action, out: &mut [f32]) {
        self.0.encode(s, a, out)
    }

    fn encode_batch(&self, s: &EnvState, actions: &[Action], out: &mut [f32]) {
        self.0.encode_batch(s, actions, out)
    }

    fn encode_overwrites_fully(&self) -> bool {
        self.0.encode_overwrites_fully()
    }

    fn step(&mut self, s: &EnvState, a: &Action) -> (EnvState, f64) {
        let env = &self.0;
        let next = a
            .apply(&env.schema, &s.partitioning)
            .unwrap_or_else(|_| s.partitioning.clone());
        let r = reference(env, &next, &s.freqs) / reference_scale(env);
        let freqs = s.freqs.clone();
        (
            EnvState {
                partitioning: next,
                freqs,
            },
            r,
        )
    }
}

/// Full offline training on the delta env and on the reference env:
/// identical per-episode stats, network weights and greedy rollouts.
#[test]
fn training_on_delta_env_reproduces_full_env_bitwise() {
    use lpa::nn::reference::mlp_bits;
    let mut delta = env("tpcch", 23);
    let mut full = ReferenceEnv(env("tpcch", 23));
    let cfg = DqnConfig::simulation(12, 12).with_seed(23);
    let mut agent_d: DqnAgent<AdvisorEnv> = DqnAgent::new(delta.input_dim(), cfg.clone());
    let mut agent_f: DqnAgent<ReferenceEnv> = DqnAgent::new(full.input_dim(), cfg.clone());
    let mut stats_d = Vec::new();
    let mut stats_f = Vec::new();
    train(&mut agent_d, &mut delta, cfg.episodes, |s| {
        stats_d.push((s.total_reward.to_bits(), s.mean_loss.to_bits(), s.steps))
    });
    train(&mut agent_f, &mut full, cfg.episodes, |s| {
        stats_f.push((s.total_reward.to_bits(), s.mean_loss.to_bits(), s.steps))
    });
    assert_eq!(stats_d, stats_f, "per-episode stats diverged");
    let snap_d = agent_d.snapshot();
    let snap_f = agent_f.snapshot();
    assert_eq!(mlp_bits(&snap_d.q), mlp_bits(&snap_f.q), "Q nets diverged");
    assert_eq!(
        mlp_bits(&snap_d.target),
        mlp_bits(&snap_f.target),
        "target nets diverged"
    );
    let traj_d = rollout(&mut agent_d, &mut delta, 10);
    let traj_f = rollout(&mut agent_f, &mut full, 10);
    let bits = |t: &lpa::rl::Trajectory<EnvState>| {
        t.rewards.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(bits(&traj_d), bits(&traj_f), "rollout rewards diverged");
    assert_eq!(
        traj_d.best_state().partitioning,
        traj_f.best_state().partitioning
    );
}

/// The workload can grow (reserved slots); the delta engine must rebuild
/// its indexes and stay on the reference afterwards.
#[test]
fn workload_growth_keeps_delta_equal_to_reference() {
    let schema = lpa::schema::microbench::schema(0.01).unwrap();
    let workload = lpa::workload::microbench::workload(&schema)
        .unwrap()
        .with_reserved_slots(2);
    let mut delta = AdvisorEnv::new(
        schema.clone(),
        workload.clone(),
        RewardBackend::cost_model(model()),
        MixSampler::uniform(&workload),
        true,
        5,
    );
    let mut rng = StdRng::seed_from_u64(77);
    let mut sd = delta.reset();
    for phase in 0..2 {
        for step in 0..15 {
            let actions = delta.actions(&sd);
            let a = actions[rng.gen_range(0..actions.len())];
            sd = checked_step(&mut delta, &sd, &a, &format!("phase {phase} step {step}"));
        }
        if phase == 0 {
            let q = lpa::workload::QueryBuilder::new(&delta.schema, "grown")
                .scan("b")
                .finish()
                .unwrap();
            delta.workload.add_query(q).expect("slot reserved");
            sd = delta.reset();
        }
    }
}
