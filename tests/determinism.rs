//! Differential serial-equivalence tests for the deterministic parallel
//! execution layer (`lpa-par`).
//!
//! Everything the advisor learns from — simulated runtimes, committee
//! expert weights — must be **bit-identical** whether the pool runs on one
//! thread or eight. Each test runs the same pipeline under
//! `lpa::par::with_threads(1 | 2 | 8)` (the scoped equivalent of setting
//! `LPA_THREADS`, safe to use from parallel test harnesses) and compares
//! raw bit patterns, not approximate values.

use lpa::cluster::{direct_deploy, QueryOutcome};
use lpa::nn::Mlp;
use lpa::partition::valid_actions;
use lpa::prelude::*;
use lpa::rl::AgentSnapshot;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

// Every weight and bias of a network as raw f32 bit patterns.
use lpa::nn::reference::mlp_bits;

/// Bit-level fingerprint of a trained agent.
fn snapshot_bits(s: &AgentSnapshot) -> (Vec<u32>, Vec<u32>, u64) {
    (mlp_bits(&s.q), mlp_bits(&s.target), s.epsilon.to_bits())
}

/// Walk to a deterministic non-trivial partitioning by applying valid
/// actions chosen by a fixed index sequence.
fn partitioning_from_choices(schema: &lpa::schema::Schema, choices: &[usize]) -> Partitioning {
    let mut p = Partitioning::initial(schema);
    for &c in choices {
        let actions = valid_actions(schema, &p);
        p = actions[c % actions.len()].apply(schema, &p).unwrap();
    }
    p
}

#[test]
fn executor_runtimes_are_bit_identical_across_thread_counts() {
    // Scale large enough that layout, histogram, and per-node join paths
    // all see real work across several deployed layouts and both engines.
    let run = |threads: usize| -> Vec<(u64, u64)> {
        lpa::par::with_threads(threads, || {
            let schema = lpa::schema::microbench::schema(0.05).unwrap();
            let workload = lpa::workload::microbench::workload(&schema).unwrap();
            let mut results = Vec::new();
            for (engine, seed) in [
                (EngineProfile::pgxl(), 3usize),
                (EngineProfile::system_x(), 8),
            ] {
                let mut cluster = Cluster::new(
                    schema.clone(),
                    ClusterConfig::new(engine, HardwareProfile::standard()),
                );
                let p = partitioning_from_choices(&schema, &[seed, seed * 7 + 1, seed * 13 + 2]);
                direct_deploy(&mut cluster, &p);
                for q in workload.queries() {
                    match cluster.run_query(q, None) {
                        QueryOutcome::Completed {
                            seconds,
                            output_rows,
                            degraded,
                        } => {
                            assert!(!degraded, "no fault plan installed");
                            results.push((seconds.to_bits(), output_rows));
                        }
                        QueryOutcome::TimedOut { .. } => panic!("unexpected timeout"),
                        QueryOutcome::Failed { .. } => panic!("unexpected failure"),
                    }
                }
            }
            results
        })
    };
    let reference = run(THREAD_COUNTS[0]);
    assert!(!reference.is_empty());
    for &threads in &THREAD_COUNTS[1..] {
        assert_eq!(run(threads), reference, "threads={threads}");
    }
}

#[test]
fn committee_training_is_bit_identical_across_thread_counts() {
    // Naive offline training, then committee expert training — the full
    // Section 5 pipeline. Expert RNG streams derive from (seed, expert_id),
    // so concurrency cannot reorder any expert's draws.
    let cfg = DqnConfig {
        episodes: 12,
        tmax: 5,
        batch_size: 8,
        hidden: vec![16],
        epsilon_decay: 0.9,
        learning_rate: 2e-3,
        tau: 0.05,
        ..DqnConfig::paper()
    }
    .with_seed(23);

    let run = |threads: usize| -> Vec<(Vec<u32>, Vec<u32>, u64)> {
        lpa::par::with_threads(threads, || {
            let schema = lpa::schema::microbench::schema(1.0).unwrap();
            let workload = lpa::workload::microbench::workload(&schema).unwrap();
            let mut naive = Advisor::train_offline(
                schema.clone(),
                workload.clone(),
                NetworkCostModel::new(CostParams::standard()),
                MixSampler::uniform(&workload),
                cfg.clone(),
                true,
            );
            let mk_schema = schema.clone();
            let mk_workload = workload.clone();
            let committee = Committee::train(&mut naive, cfg.clone(), move || {
                AdvisorEnv::new(
                    mk_schema.clone(),
                    mk_workload.clone(),
                    RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
                    MixSampler::uniform(&mk_workload),
                    true,
                    99,
                )
            });
            committee
                .experts
                .iter()
                .map(|e| snapshot_bits(&e.snapshot()))
                .collect()
        })
    };
    let reference = run(THREAD_COUNTS[0]);
    assert!(!reference.is_empty(), "committee must have experts");
    for &threads in &THREAD_COUNTS[1..] {
        let got = run(threads);
        assert_eq!(got.len(), reference.len(), "threads={threads}");
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g, r, "expert {i} diverged at threads={threads}");
        }
    }
}

#[test]
fn nn_training_is_bit_identical_across_thread_counts() {
    // Batched forward/backward through the blocked matmul at a size that
    // crosses the parallelism threshold.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let run = |threads: usize| -> Vec<u32> {
        lpa::par::with_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(41);
            let mut net = Mlp::new(&[64, 128, 64, 1], &mut rng);
            let mut adam = lpa::nn::Adam::new(1e-3, net.layers());
            for _ in 0..5 {
                let x: Vec<f32> = (0..64 * 64)
                    .map(|_| rng.gen_range(-1.0f64..1.0) as f32)
                    .collect();
                let xm = lpa::nn::Matrix::from_vec(64, 64, x);
                let y: Vec<f32> = (0..64)
                    .map(|_| rng.gen_range(-1.0f64..1.0) as f32)
                    .collect();
                net.train_mse(&xm, &y, &mut adam);
            }
            mlp_bits(&net)
        })
    };
    let reference = run(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        assert_eq!(run(threads), reference, "threads={threads}");
    }
}

/// `tests/golden/oracle_runs.txt`'s lines under `key`, newline-terminated.
fn oracle_lines(key: &str) -> String {
    include_str!("golden/oracle_runs.txt")
        .lines()
        .filter(|l| l.split(' ').next() == Some(key))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The tentpole differential for the fast NN kernels: a **full offline
/// training run** on the blocked/fused/batched fast path must produce
/// bit-identical trained weights (Q and target nets, down to every f32
/// bit) to the same run with all kernels on the naive serial triple loop —
/// at one and at eight threads. That run's fingerprint is the
/// `fast_kernels_train` line of `tests/golden/oracle_runs.txt`, rendered by
/// the naive arm before it was deleted; `lpa-nn`'s per-call differentials
/// against `lpa_nn::reference` carry the same proof kernel by kernel. The
/// fast kernels are only allowed to re-block and fuse *around* each output
/// cell's fixed summation order, never inside it.
#[test]
fn fast_kernels_train_bit_identical_to_naive_kernels() {
    use lpa::nn::reference::mlp_fingerprint;
    let cfg = DqnConfig {
        episodes: 10,
        tmax: 6,
        batch_size: 8,
        hidden: vec![32, 16],
        epsilon_decay: 0.9,
        learning_rate: 2e-3,
        tau: 0.05,
        ..DqnConfig::paper()
    }
    .with_seed(77);
    let run = || -> String {
        let schema = lpa::schema::microbench::schema(1.0).unwrap();
        let workload = lpa::workload::microbench::workload(&schema).unwrap();
        let mut advisor = Advisor::train_offline(
            schema,
            workload.clone(),
            NetworkCostModel::new(CostParams::standard()),
            MixSampler::uniform(&workload),
            cfg.clone(),
            true,
        );
        let mix = workload.uniform_frequencies();
        let suggestion = advisor.suggest(&mix);
        let s = advisor.snapshot();
        format!(
            "fast_kernels_train q {:016x} target {:016x} epsilon {:016x} advice {:016x} reward {:016x}\n",
            mlp_fingerprint(&s.q),
            mlp_fingerprint(&s.target),
            s.epsilon.to_bits(),
            lpa::partition::fingerprint64(&suggestion.partitioning),
            suggestion.reward.to_bits(),
        )
    };
    let golden = oracle_lines("fast_kernels_train");
    for threads in [1usize, 8] {
        let fast = lpa::par::with_threads(threads, run);
        assert_eq!(
            fast, golden,
            "fast kernels diverged from naive at threads={threads}"
        );
    }
}
