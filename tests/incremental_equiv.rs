//! Differential equivalence suite for the incremental step engine.
//!
//! The delta-reward backend, the interned cost cache, the action-set cache
//! and the batched encoder are pure optimizations: every observable value
//! — rewards, Q-values, selected actions, trained weights — must be
//! **bit-identical** to the full-recompute path they replace. These tests
//! pin that contract on TPC-CH and SSB, including across `reset()` and
//! `set_backend` boundaries.

use lpa::costmodel::{CostParams, NetworkCostModel};
use lpa::partition::valid_actions;
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

fn env_pair(name: &str, seed: u64) -> (AdvisorEnv, AdvisorEnv) {
    let (schema, workload) = bench(name);
    let mk = |backend| {
        AdvisorEnv::new(
            schema.clone(),
            workload.clone(),
            backend,
            MixSampler::uniform(&workload),
            true,
            seed,
        )
    };
    (
        mk(RewardBackend::cost_model(model())),
        mk(RewardBackend::cost_model_full(model())),
    )
}

/// 200-step seeded random walk; delta and full rewards bitwise equal at
/// every step, with an episode reset every 20 steps.
fn random_walk_equiv(name: &str, seed: u64) {
    let (mut delta, mut full) = env_pair(name, seed);
    assert_eq!(
        delta.reward_scale().to_bits(),
        full.reward_scale().to_bits()
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11A);
    let mut sd = delta.reset();
    let mut sf = full.reset();
    assert_eq!(sd.freqs, sf.freqs);
    for step in 0..200 {
        if step % 20 == 19 {
            sd = delta.reset();
            sf = full.reset();
            assert_eq!(sd.freqs, sf.freqs, "step {step}: resets diverged");
            continue;
        }
        let actions = delta.actions(&sd);
        assert_eq!(
            actions,
            full.actions(&sf),
            "step {step}: action sets diverged"
        );
        // The cached set must equal a fresh enumeration (compound keys
        // allowed, so no filtering applies here).
        assert_eq!(
            actions,
            valid_actions(&delta.schema, &sd.partitioning),
            "step {step}: cached action set differs from fresh enumeration"
        );
        let a = actions[rng.gen_range(0..actions.len())];
        let (nd, rd) = delta.step(&sd, &a);
        let (nf, rf) = full.step(&sf, &a);
        assert_eq!(
            rd.to_bits(),
            rf.to_bits(),
            "step {step}: rewards diverged ({rd} vs {rf})"
        );
        assert_eq!(nd.partitioning, nf.partitioning);
        sd = nd;
        sf = nf;
    }
    let c = delta.counters();
    assert!(c.delta_recosts > 0, "delta path never exercised");
    assert!(
        c.reward_cache_misses <= full.counters().reward_cache_misses,
        "delta must not cost more queries than full recompute"
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

/// Swapping the backend mid-walk (fresh engines, re-derived reward scale)
/// keeps both modes bitwise aligned — the engine carries no hidden state
/// that survives `set_backend` incorrectly.
#[test]
fn set_backend_boundary_stays_bitwise_equal() {
    let (mut delta, mut full) = env_pair("tpcch", 9);
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut sd = delta.reset();
    let mut sf = full.reset();
    for step in 0..60 {
        if step == 30 {
            // Fresh engines of the same modes: caches drop, scales
            // re-derive; equivalence must survive.
            delta.set_backend(RewardBackend::cost_model(model()));
            full.set_backend(RewardBackend::cost_model_full(model()));
            assert_eq!(
                delta.reward_scale().to_bits(),
                full.reward_scale().to_bits(),
                "re-derived scales diverged"
            );
        }
        let actions = delta.actions(&sd);
        let a = actions[rng.gen_range(0..actions.len())];
        let (nd, rd) = delta.step(&sd, &a);
        let (nf, rf) = full.step(&sf, &a);
        assert_eq!(rd.to_bits(), rf.to_bits(), "step {step}: diverged");
        sd = nd;
        sf = nf;
    }
}

/// Crossing the modes themselves: a delta env switched to a *full* backend
/// (and vice versa) continues to produce the same rewards.
#[test]
fn mode_swap_mid_walk_stays_bitwise_equal() {
    let (mut a_env, mut b_env) = env_pair("ssb", 17);
    let mut rng = StdRng::seed_from_u64(0xC0C);
    let mut sa = a_env.reset();
    let mut sb = b_env.reset();
    for step in 0..40 {
        if step == 20 {
            // a: delta → full, b: full → delta.
            a_env.set_backend(RewardBackend::cost_model_full(model()));
            b_env.set_backend(RewardBackend::cost_model(model()));
        }
        let actions = a_env.actions(&sa);
        let act = actions[rng.gen_range(0..actions.len())];
        let (na, ra) = a_env.step(&sa, &act);
        let (nb, rb) = b_env.step(&sb, &act);
        assert_eq!(ra.to_bits(), rb.to_bits(), "step {step}: diverged");
        sa = na;
        sb = nb;
    }
}

/// The agent-level differential for the grouped first layer: `q_values`
/// (batched encoding, state prefix evaluated once, exact zeros skipped)
/// bitwise equals encoding row by row and running the dense
/// `predict_batch` — on the initial layout and along a walk away from it.
#[test]
fn q_values_match_per_row_encoding_bitwise() {
    for name in ["ssb", "tpcch"] {
        let (mut env, _) = env_pair(name, 3);
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

/// Full offline training on both modes: identical network weights and
/// identical greedy rollouts at the end.
#[test]
fn training_on_delta_env_reproduces_full_env_bitwise() {
    use lpa::nn::reference::mlp_bits;
    let (mut delta, mut full) = env_pair("tpcch", 23);
    let cfg = DqnConfig::simulation(12, 12).with_seed(23);
    let mut agent_d: DqnAgent<AdvisorEnv> = DqnAgent::new(delta.input_dim(), cfg.clone());
    let mut agent_f: DqnAgent<AdvisorEnv> = DqnAgent::new(full.input_dim(), cfg.clone());
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
    let bits = |t: &lpa::rl::Trajectory<lpa::advisor::EnvState>| {
        t.rewards.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(bits(&traj_d), bits(&traj_f), "rollout rewards diverged");
    assert_eq!(
        traj_d.best_state().partitioning,
        traj_f.best_state().partitioning
    );
}

/// The workload can grow (reserved slots); the delta engine must rebuild
/// its indexes and stay bitwise equal afterwards.
#[test]
fn workload_growth_keeps_modes_equal() {
    let schema = lpa::schema::microbench::schema(0.01).unwrap();
    let workload = lpa::workload::microbench::workload(&schema)
        .unwrap()
        .with_reserved_slots(2);
    let mk = |backend| {
        AdvisorEnv::new(
            schema.clone(),
            workload.clone(),
            backend,
            MixSampler::uniform(&workload),
            true,
            5,
        )
    };
    let mut delta = mk(RewardBackend::cost_model(model()));
    let mut full = mk(RewardBackend::cost_model_full(model()));
    let mut rng = StdRng::seed_from_u64(77);
    let mut sd = delta.reset();
    let mut sf = full.reset();
    for phase in 0..2 {
        for step in 0..15 {
            let actions = delta.actions(&sd);
            let a = actions[rng.gen_range(0..actions.len())];
            let (nd, rd) = delta.step(&sd, &a);
            let (nf, rf) = full.step(&sf, &a);
            assert_eq!(rd.to_bits(), rf.to_bits(), "phase {phase} step {step}");
            sd = nd;
            sf = nf;
        }
        if phase == 0 {
            for env in [&mut delta, &mut full] {
                let q = lpa::workload::QueryBuilder::new(&env.schema, "grown")
                    .scan("b")
                    .finish()
                    .unwrap();
                env.workload.add_query(q).expect("slot reserved");
            }
            // Mixes after growth still align (same sampler state).
            sd = delta.reset();
            sf = full.reset();
            assert_eq!(sd.freqs, sf.freqs);
        }
    }
}
