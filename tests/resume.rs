//! Keystone differential for crash-safe checkpointing (`lpa-store`):
//! a training run killed at an episode boundary and restored from its
//! checkpoint must finish **bit-identical** to the run that was never
//! interrupted — same Q/target weights, same rewards, same advice — under
//! `LPA_THREADS={1,8}` and even when the newest checkpoint on disk is
//! corrupted (falling back to the previous one just means resuming from an
//! earlier boundary of the *same* deterministic trajectory).
//!
//! CI's `thread-matrix` job runs this file at `LPA_THREADS={1,8}` on the
//! default corruption seed (`LPA_RESUME_SEED` overrides it), and
//! additionally restores a checkpoint written by the chaos test binary
//! (`LPA_CKPT_HANDOFF_DIR`) to prove the format round-trips across
//! processes, not just within one.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa::advisor::{shared_cache, shared_cluster, Advisor, OnlineBackend};
use lpa::cluster::FaultPlan;
use lpa::prelude::*;
use lpa::rl::QEnvironment;
use lpa::store::{
    restore_offline, restore_online, train_checkpointed, CheckpointStore, OfflineTemplate,
    OnlineTemplate,
};
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 2] = [1, 8];
const EPISODES: usize = 12;
const EVERY: usize = 3;
/// The interrupted run dies after this many episodes (mid-interval, so the
/// newest checkpoint is strictly older than the crash point).
const CRASH_AFTER: usize = 8;

/// Corruption seed: the pseudo-random byte/bit choice stays reproducible
/// for any value.
fn resume_seed() -> u64 {
    std::env::var("LPA_RESUME_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5E5_0E5D)
}

fn test_dir(name: &str, threads: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lpa-resume-{name}-{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_cfg() -> DqnConfig {
    DqnConfig {
        batch_size: 8,
        hidden: vec![16, 8],
        ..DqnConfig::simulation(EPISODES, 4)
    }
    .with_seed(31)
}

fn micro(sf: f64) -> (Schema, Workload) {
    let schema = lpa::schema::microbench::schema(sf).unwrap();
    let workload = lpa::workload::microbench::workload(&schema).unwrap();
    (schema, workload)
}

fn offline_template(sf: f64) -> OfflineTemplate {
    let (schema, workload) = micro(sf);
    OfflineTemplate {
        schema,
        workload,
        model: NetworkCostModel::new(CostParams::standard()),
    }
}

fn fresh_offline(t: &OfflineTemplate) -> Advisor {
    let env = AdvisorEnv::new(
        t.schema.clone(),
        t.workload.clone(),
        RewardBackend::cost_model(t.model.clone()),
        MixSampler::uniform(&t.workload),
        true,
        quick_cfg().seed,
    );
    Advisor::untrained(env, quick_cfg())
}

use lpa::nn::reference::mlp_bits;

/// Everything the user can observe from a finished session, as raw bits:
/// weights, ε, per-episode rewards, and the final advice.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    q: Vec<u32>,
    target: Vec<u32>,
    epsilon: u64,
    episode_rewards: Vec<u64>,
    advice: Partitioning,
    advice_reward: u64,
}

fn finish_and_fingerprint(
    mut advisor: Advisor,
    store: &mut CheckpointStore,
    start: usize,
    every: usize,
    mix: &FrequencyVector,
) -> Fingerprint {
    let mut episode_rewards = Vec::new();
    let report = train_checkpointed(&mut advisor, store, start, EPISODES, every, |s| {
        episode_rewards.push(s.total_reward.to_bits());
    });
    assert_eq!(report.write_failures, 0, "{:?}", report.last_error);
    let s = advisor.snapshot();
    let suggestion = advisor.suggest(mix);
    Fingerprint {
        q: mlp_bits(&s.q),
        target: mlp_bits(&s.target),
        epsilon: s.epsilon.to_bits(),
        episode_rewards,
        advice: suggestion.partitioning,
        advice_reward: suggestion.reward.to_bits(),
    }
}

/// Offline differential: uninterrupted vs. killed-at-episode-k + restored.
/// `corrupt_newest` additionally destroys the newest checkpoint before the
/// restore, forcing the last-good fallback onto an earlier boundary.
fn offline_differential(threads: usize, corrupt_newest: bool) {
    lpa::par::with_threads(threads, || {
        let template = offline_template(0.05);
        let mix = template.workload.uniform_frequencies();

        // Reference: never interrupted. (Checkpointing stays ON — writing a
        // checkpoint must not perturb training.)
        let tag = if corrupt_newest { "corrupt" } else { "kill" };
        let dir_ref = test_dir(&format!("ref-{tag}"), threads);
        let mut store_ref = CheckpointStore::open(&dir_ref).unwrap();
        let reference =
            finish_and_fingerprint(fresh_offline(&template), &mut store_ref, 0, EVERY, &mix);

        // The cadence is invisible to training: never checkpointing and
        // checkpointing once, after the last episode, end on the same bits.
        for (every, written) in [(0, 0), (EPISODES, 1)] {
            let dir = test_dir(&format!("every-{every}-{tag}"), threads);
            let mut store = CheckpointStore::open(&dir).unwrap();
            let got = finish_and_fingerprint(fresh_offline(&template), &mut store, 0, every, &mix);
            assert_eq!(got, reference, "every={every} (threads={threads})");
            assert_eq!(store.counters().checkpoints_written, written);
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Interrupted: train to the crash point, then drop the advisor.
        let dir = test_dir(tag, threads);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut victim_rewards = Vec::new();
        {
            let mut victim = fresh_offline(&template);
            train_checkpointed(&mut victim, &mut store, 0, CRASH_AFTER, EVERY, |s| {
                victim_rewards.push(s.total_reward.to_bits());
            });
            // Checkpoint counters must surface through the environment.
            let c = victim.env.counters();
            assert_eq!(c.checkpoints_written, (CRASH_AFTER / EVERY) as u64);
        } // <- crash

        if corrupt_newest {
            let (_, newest) = store.list().into_iter().next_back().unwrap();
            let mut bytes = std::fs::read(&newest).unwrap();
            let seed = resume_seed();
            let byte = (seed % bytes.len() as u64) as usize;
            let bit = (seed / 7) % 8;
            bytes[byte] ^= 1 << bit;
            std::fs::write(&newest, &bytes).unwrap();
        }

        // Restore in a fresh store (fresh process in real life).
        let mut store2 = CheckpointStore::open(&dir).unwrap();
        let (seq, ck) = store2.load_latest(&template.schema).unwrap().unwrap();
        let expected_seq = if corrupt_newest { 2 } else { 5 };
        assert_eq!(seq, expected_seq, "threads={threads}");
        if corrupt_newest {
            assert_eq!(store2.counters().checkpoint_corruptions_detected, 1);
            assert_eq!(store2.counters().checkpoint_fallbacks, 1);
        }
        let snap = ck.into_session().unwrap();
        assert_eq!(snap.episode, seq);
        let resumed = restore_offline(snap, &template).unwrap();
        let mut got = finish_and_fingerprint(resumed, &mut store2, seq as usize + 1, EVERY, &mix);

        // The resumed run only observed episodes seq+1.. — prepend the
        // victim's pre-crash rewards up to the restored boundary.
        let mut rewards = victim_rewards[..=seq as usize].to_vec();
        rewards.append(&mut got.episode_rewards);
        got.episode_rewards = rewards;

        assert_eq!(
            got, reference,
            "resume must be bit-identical (threads={threads}, corrupt={corrupt_newest})"
        );
        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn offline_resume_is_bit_identical() {
    for &threads in &THREAD_COUNTS {
        offline_differential(threads, false);
    }
}

#[test]
fn offline_resume_survives_a_corrupt_newest_checkpoint() {
    for &threads in &THREAD_COUNTS {
        offline_differential(threads, true);
    }
}

#[test]
fn checkpoint_written_at_one_thread_count_resumes_at_another() {
    // Write the checkpoint under threads=1, resume under threads=8 (and
    // vice versa): the file must carry no trace of the thread count.
    let template = offline_template(0.05);
    let mix = template.workload.uniform_frequencies();
    let dir_ref = test_dir("xref", 0);
    let mut store_ref = CheckpointStore::open(&dir_ref).unwrap();
    let reference = lpa::par::with_threads(1, || {
        finish_and_fingerprint(fresh_offline(&template), &mut store_ref, 0, EVERY, &mix)
    });
    for (write_threads, resume_threads) in [(1usize, 8usize), (8, 1)] {
        let dir = test_dir("xthread", write_threads);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut pre = Vec::new();
        lpa::par::with_threads(write_threads, || {
            let mut victim = fresh_offline(&template);
            train_checkpointed(&mut victim, &mut store, 0, CRASH_AFTER, EVERY, |s| {
                pre.push(s.total_reward.to_bits());
            });
        });
        let got = lpa::par::with_threads(resume_threads, || {
            let mut store2 = CheckpointStore::open(&dir).unwrap();
            let (seq, ck) = store2.load_latest(&template.schema).unwrap().unwrap();
            let resumed = restore_offline(ck.into_session().unwrap(), &template).unwrap();
            let mut got =
                finish_and_fingerprint(resumed, &mut store2, seq as usize + 1, EVERY, &mix);
            let mut rewards = pre[..=seq as usize].to_vec();
            rewards.append(&mut got.episode_rewards);
            got.episode_rewards = rewards;
            got
        });
        assert_eq!(
            got, reference,
            "write at {write_threads} threads, resume at {resume_threads}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
}

/// Online phase: offline bootstrap, then measured-runtime refinement under
/// a seeded fault storm — killed mid-refinement and restored onto a freshly
/// built cluster. Covers the cluster resume state (clock, growth, deployed
/// layout, fault schedule, accounting) and the runtime cache.
fn online_run(
    threads: usize,
    interrupt: bool,
) -> (Vec<u32>, Vec<u32>, u64, Vec<u64>, Partitioning, u64) {
    lpa::par::with_threads(threads, || {
        let (schema, workload) = micro(0.02);
        let storm = FaultPlan::storm(resume_seed()).rescaled(0.25);
        let mk_advisor = || {
            let mut advisor = Advisor::train_offline(
                schema.clone(),
                workload.clone(),
                NetworkCostModel::new(CostParams::standard()),
                MixSampler::uniform(&workload),
                quick_cfg(),
                true,
            );
            let mut full = Cluster::new(
                schema.clone(),
                ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
            );
            let mut sample = full.sampled(0.25);
            let mix = workload.uniform_frequencies();
            let p_off = advisor.suggest(&mix).partitioning;
            let scale =
                OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p_off);
            sample.set_fault_plan(storm);
            let backend = OnlineBackend::new(
                shared_cluster(sample),
                shared_cache(),
                scale,
                OnlineOptimizations::default(),
            )
            .with_fallback(
                NetworkCostModel::new(CostParams::standard()),
                schema.clone(),
            );
            advisor.begin_online_refinement(backend);
            advisor
        };
        let mix = workload.uniform_frequencies();
        let dir = test_dir(
            if interrupt {
                "online-kill"
            } else {
                "online-ref"
            },
            threads,
        );
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut rewards = Vec::new();
        let (advisor, start) = if interrupt {
            {
                let mut victim = mk_advisor();
                train_checkpointed(&mut victim, &mut store, 0, CRASH_AFTER, EVERY, |s| {
                    rewards.push(s.total_reward.to_bits());
                });
            } // <- crash
            let mut store2 = CheckpointStore::open(&dir).unwrap();
            let (seq, ck) = store2.load_latest(&schema).unwrap().unwrap();
            rewards.truncate(seq as usize + 1);
            // A freshly built sample cluster, exactly as the original was
            // first constructed — mutable state comes from the snapshot.
            let full = Cluster::new(
                schema.clone(),
                ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
            );
            let template = OnlineTemplate {
                schema: schema.clone(),
                workload: workload.clone(),
                cluster: full.sampled(0.25),
                fallback: Some(NetworkCostModel::new(CostParams::standard())),
                fault_plan_override: None,
            };
            let resumed = restore_online(ck.into_session().unwrap(), template).unwrap();
            store = store2;
            (resumed, seq as usize + 1)
        } else {
            (mk_advisor(), 0)
        };
        let mut advisor = advisor;
        train_checkpointed(&mut advisor, &mut store, start, EPISODES, EVERY, |s| {
            rewards.push(s.total_reward.to_bits());
        });
        let s = advisor.snapshot();
        let suggestion = advisor.suggest(&mix);
        let _ = std::fs::remove_dir_all(&dir);
        (
            mlp_bits(&s.q),
            mlp_bits(&s.target),
            s.epsilon.to_bits(),
            rewards,
            suggestion.partitioning,
            suggestion.reward.to_bits(),
        )
    })
}

#[test]
fn online_resume_under_fault_storm_is_bit_identical() {
    for &threads in &THREAD_COUNTS {
        let reference = online_run(threads, false);
        let resumed = online_run(threads, true);
        assert_eq!(resumed, reference, "threads={threads}");
    }
}

/// Cross-process handoff: the chaos test binary writes a checkpoint into
/// `LPA_CKPT_HANDOFF_DIR` (see `tests/chaos.rs`); this one — a separate
/// process, possibly a different thread count — restores it and reproduces
/// the uninterrupted trajectory bit-for-bit from the config the checkpoint
/// itself carries.
#[test]
fn handoff_checkpoint_from_chaos_leg_resumes_bitwise() {
    let Ok(dir) = std::env::var("LPA_CKPT_HANDOFF_DIR") else {
        return; // only meaningful with a handoff directory
    };
    let template = offline_template(0.05);
    let mut store = CheckpointStore::open(&dir).unwrap();
    let Some((seq, ck)) = store.load_latest(&template.schema).unwrap() else {
        panic!("handoff dir {dir} holds no valid checkpoint");
    };
    let snap = ck.into_session().unwrap();
    let cfg = snap.cfg.clone();
    let mix = template.workload.uniform_frequencies();

    // Uninterrupted reference, reconstructed purely from the checkpoint's
    // own config (the writer used the same fixed schema + workload).
    let env = AdvisorEnv::new(
        template.schema.clone(),
        template.workload.clone(),
        RewardBackend::cost_model(template.model.clone()),
        MixSampler::uniform(&template.workload),
        true,
        cfg.seed,
    );
    let mut reference = Advisor::untrained(env, cfg.clone());
    reference.train_episodes(cfg.episodes, |_| {});
    let ref_snap = reference.snapshot();
    let ref_advice = reference.suggest(&mix);

    let mut resumed = restore_offline(snap, &template).unwrap();
    resumed.train_episodes_from(seq as usize + 1, cfg.episodes, |_| {}, |_, _, _| {});
    let got_snap = resumed.snapshot();
    let got_advice = resumed.suggest(&mix);

    assert_eq!(mlp_bits(&got_snap.q), mlp_bits(&ref_snap.q));
    assert_eq!(mlp_bits(&got_snap.target), mlp_bits(&ref_snap.target));
    assert_eq!(got_snap.epsilon.to_bits(), ref_snap.epsilon.to_bits());
    assert_eq!(got_advice.partitioning, ref_advice.partitioning);
    assert_eq!(got_advice.reward.to_bits(), ref_advice.reward.to_bits());
}

/// Fast-vs-naive differential **across a checkpoint/resume boundary**:
/// a run on the naive serial kernels that is never interrupted must match,
/// bit for bit, a fast-kernel run that is killed mid-training and restored
/// from its checkpoint at eight threads. Ties the kernel determinism
/// contract to the lpa-store resume contract in one assertion.
#[test]
fn naive_kernels_match_fast_kernels_across_resume_boundary() {
    let template = offline_template(0.05);
    let mix = template.workload.uniform_frequencies();

    // Reference: naive kernels, uninterrupted (checkpointing stays on).
    let reference = lpa::nn::with_naive_kernels(|| {
        let dir = test_dir("naive-ref", 0);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let fp = finish_and_fingerprint(fresh_offline(&template), &mut store, 0, EVERY, &mix);
        let _ = std::fs::remove_dir_all(&dir);
        fp
    });

    // Fast kernels at 8 threads: killed at CRASH_AFTER, restored, finished.
    let got = lpa::par::with_threads(8, || {
        let dir = test_dir("fast-kill", 8);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut victim_rewards = Vec::new();
        {
            let mut victim = fresh_offline(&template);
            train_checkpointed(&mut victim, &mut store, 0, CRASH_AFTER, EVERY, |s| {
                victim_rewards.push(s.total_reward.to_bits());
            });
        } // <- crash
        let mut store2 = CheckpointStore::open(&dir).unwrap();
        let (seq, ck) = store2.load_latest(&template.schema).unwrap().unwrap();
        let resumed = restore_offline(ck.into_session().unwrap(), &template).unwrap();
        let mut fp = finish_and_fingerprint(resumed, &mut store2, seq as usize + 1, EVERY, &mix);
        let mut rewards = victim_rewards[..=seq as usize].to_vec();
        rewards.append(&mut fp.episode_rewards);
        fp.episode_rewards = rewards;
        let _ = std::fs::remove_dir_all(&dir);
        fp
    });

    assert_eq!(
        got, reference,
        "fast kernels + resume boundary diverged from uninterrupted naive kernels"
    );
}

/// Everything observable from a guarded end-to-end session: the offline
/// fingerprint plus the simulated runtimes of the advised layout deployed
/// on a cluster (which exercises the columnar executor).
#[derive(PartialEq, Debug)]
struct ComposedFingerprint {
    offline: Fingerprint,
    runtimes: Vec<(u64, u64)>,
}

/// Train (with checkpointing), optionally crash + restore, then deploy the
/// advice and run every workload query on a fresh cluster. The cluster leg
/// routes through the columnar executor accounting, so the
/// `with_naive_executor` guard is genuinely load-bearing here.
fn composed_session(
    template: &OfflineTemplate,
    mix: &FrequencyVector,
    dir_tag: &str,
    crash: bool,
) -> ComposedFingerprint {
    let dir = test_dir(dir_tag, 0);
    let mut store = CheckpointStore::open(&dir).unwrap();
    let offline = if crash {
        let mut victim_rewards = Vec::new();
        {
            let mut victim = fresh_offline(template);
            train_checkpointed(&mut victim, &mut store, 0, CRASH_AFTER, EVERY, |s| {
                victim_rewards.push(s.total_reward.to_bits());
            });
        } // <- crash
        let mut store2 = CheckpointStore::open(&dir).unwrap();
        let (seq, ck) = store2.load_latest(&template.schema).unwrap().unwrap();
        let resumed = restore_offline(ck.into_session().unwrap(), template).unwrap();
        let mut fp = finish_and_fingerprint(resumed, &mut store2, seq as usize + 1, EVERY, mix);
        let mut rewards = victim_rewards[..=seq as usize].to_vec();
        rewards.append(&mut fp.episode_rewards);
        fp.episode_rewards = rewards;
        fp
    } else {
        finish_and_fingerprint(fresh_offline(template), &mut store, 0, EVERY, mix)
    };
    let _ = std::fs::remove_dir_all(&dir);

    let mut cluster = Cluster::new(
        template.schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    cluster.deploy(&offline.advice);
    let mut runtimes = Vec::new();
    for q in template.workload.queries() {
        match cluster.run_query(q, None) {
            QueryOutcome::Completed {
                seconds,
                output_rows,
                ..
            } => runtimes.push((seconds.to_bits(), output_rows)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    ComposedFingerprint { offline, runtimes }
}

/// The capstone differential for this PR's three fast paths. Reference: all
/// three guards composed — naive NN kernels × full state re-encode × naive
/// executor — over an uninterrupted training run plus a deployed-cluster
/// query sweep, on one thread. Candidates: every fast path enabled, killed
/// mid-training and restored from checkpoint, at one and eight threads, on
/// SSB *and* TPC-CH. Bitwise equality of weights, rewards, advice, and
/// simulated runtimes proves the fused/batched/incremental paths change
/// nothing observable, even across a crash/resume boundary.
#[test]
fn composed_guards_match_fast_paths_across_resume_boundary() {
    for bench in ["ssb", "tpcch"] {
        let (schema, workload) = match bench {
            "ssb" => {
                let s = lpa::schema::ssb::schema(0.001).unwrap();
                let w = lpa::workload::ssb::workload(&s).unwrap();
                (s, w)
            }
            _ => {
                let s = lpa::schema::tpcch::schema(0.001).unwrap();
                let w = lpa::workload::tpcch::workload(&s).unwrap();
                (s, w)
            }
        };
        let template = OfflineTemplate {
            schema,
            workload,
            model: NetworkCostModel::new(CostParams::standard()),
        };
        let mix = template.workload.uniform_frequencies();
        let reference = lpa::par::with_threads(1, || {
            lpa::nn::with_naive_kernels(|| {
                lpa::partition::with_full_encode(|| {
                    lpa::cluster::with_naive_executor(|| {
                        composed_session(&template, &mix, &format!("oracle-{bench}"), false)
                    })
                })
            })
        });
        for &threads in &THREAD_COUNTS {
            let got = lpa::par::with_threads(threads, || {
                composed_session(&template, &mix, &format!("fast-{bench}-{threads}"), true)
            });
            assert_eq!(
                got, reference,
                "{bench}: fast paths + resume diverged from composed oracle at threads={threads}"
            );
        }
    }
}
