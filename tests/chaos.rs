//! Chaos differential suite for the deterministic fault-injection layer.
//!
//! Two contracts, in the style of `tests/determinism.rs`:
//!
//! 1. **Neutrality** — a cluster under the inert `FaultPlan::none()` is
//!    bit-identical to a cluster with no plan at all: every runtime, every
//!    reward, every trained weight. The fault layer multiplies charges by
//!    per-node factors that are exactly 1.0 when nothing is scheduled, and
//!    `x * 1.0` is an exact identity for finite doubles, so enabling the
//!    layer without faults must change *nothing*.
//! 2. **Robustness** — under a seeded fault storm, a full online training
//!    run completes with zero panics, exercises failover, retry and
//!    cost-model fallback (asserted via `FaultAccounting`), and the final
//!    suggestion still beats the initial partitioning on a healthy
//!    cluster. The storm itself is a pure function of (seed, simulated
//!    clock), so the whole stormy training run is bit-identical across
//!    thread counts.
//!
//! CI's `thread-matrix` job runs this file at `LPA_THREADS={1,8}` on the
//! default storm seed (`LPA_CHAOS_SEED` overrides it).

use lpa::advisor::{shared_cache, shared_cluster, OnlineBackend, RetryPolicy, SharedCluster};
use lpa::cluster::{direct_deploy, FailReason, FaultPlan, QueryOutcome};
use lpa::prelude::*;
use lpa::rl::AgentSnapshot;
use lpa::schema::TableId;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Storm seed: overridable so a run can probe a different schedule while
/// staying reproducible.
fn storm_seed() -> u64 {
    std::env::var("LPA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC4A0_5EED)
}

fn quick_cfg(episodes: usize, tmax: usize) -> DqnConfig {
    DqnConfig {
        batch_size: 16,
        hidden: vec![48, 24],
        ..DqnConfig::simulation(episodes, tmax)
    }
    .with_seed(99)
}

use lpa::nn::reference::mlp_bits;

fn snapshot_bits(s: &AgentSnapshot) -> (Vec<u32>, Vec<u32>, u64) {
    (mlp_bits(&s.q), mlp_bits(&s.target), s.epsilon.to_bits())
}

fn micro_cluster(sf: f64) -> (Schema, Workload, Cluster) {
    let schema = lpa::schema::microbench::schema(sf).unwrap();
    let workload = lpa::workload::microbench::workload(&schema).unwrap();
    let cluster = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    (schema, workload, cluster)
}

/// Bit patterns of every query runtime over a couple of layouts.
fn runtime_bits(cluster: &mut Cluster, schema: &Schema, workload: &Workload) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let b = schema.table_by_name("b").unwrap();
    let replicate_b = Action::Replicate { table: b }
        .apply(schema, &Partitioning::initial(schema))
        .unwrap();
    for p in [Partitioning::initial(schema), replicate_b] {
        direct_deploy(cluster, &p);
        for q in workload.queries() {
            match cluster.run_query(q, None) {
                QueryOutcome::Completed {
                    seconds,
                    output_rows,
                    degraded,
                } => {
                    assert!(!degraded, "no fault may fire under an inert plan");
                    out.push((seconds.to_bits(), output_rows));
                }
                QueryOutcome::TimedOut { .. } => panic!("no budget set"),
                QueryOutcome::Failed { .. } => panic!("inert plan must not fail queries"),
            }
        }
    }
    out
}

#[test]
fn empty_fault_plan_runtimes_are_bit_identical() {
    for &threads in &THREAD_COUNTS {
        lpa::par::with_threads(threads, || {
            let (schema, workload, mut plain) = micro_cluster(0.05);
            let (_, _, chaos) = micro_cluster(0.05);
            let mut chaos = chaos.with_faults(FaultPlan::none());
            let a = runtime_bits(&mut plain, &schema, &workload);
            let b = runtime_bits(&mut chaos, &schema, &workload);
            assert!(!a.is_empty());
            assert_eq!(a, b, "threads={threads}");
            assert_eq!(plain.clock().to_bits(), chaos.clock().to_bits());
        });
    }
}

/// Full online pipeline (offline training → scale factors → online
/// refinement) returning the refined policy and the final rewards.
fn online_training_run(inert_chaos_layer: bool) -> (AgentSnapshot, u64, u64) {
    let (schema, workload, mut full) = micro_cluster(0.02);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        quick_cfg(40, 6),
        true,
    );
    let mut sample = full.sampled(0.25);
    if inert_chaos_layer {
        // Explicitly engage the whole chaos surface with a plan that never
        // fires: inert schedule, retry policy armed, fallback wired.
        sample.set_fault_plan(FaultPlan::none());
    }
    let mix = workload.uniform_frequencies();
    let p_off = advisor.suggest(&mix).partitioning;
    let scale = OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p_off);
    let mut backend = OnlineBackend::new(
        shared_cluster(sample),
        shared_cache(),
        scale,
        OnlineOptimizations::default(),
    );
    if inert_chaos_layer {
        backend = backend
            .with_retry_policy(RetryPolicy::default())
            .with_fallback(
                NetworkCostModel::new(CostParams::standard()),
                schema.clone(),
            );
    }
    advisor.refine_online(backend, 12);
    let fa = advisor.online_fault_accounting().unwrap();
    assert_eq!(fa.queries_failed, 0, "inert plan must never fail a query");
    assert_eq!(fa.retries, 0);
    assert_eq!(fa.fallbacks, 0);
    let r_initial = advisor.reward_of(&Partitioning::initial(&schema), &mix);
    let r_suggested = advisor.suggest(&mix).reward;
    (
        advisor.snapshot(),
        r_initial.to_bits(),
        r_suggested.to_bits(),
    )
}

#[test]
fn empty_fault_plan_training_is_bit_identical() {
    for &threads in &THREAD_COUNTS {
        lpa::par::with_threads(threads, || {
            let (plain_snap, plain_r0, plain_rs) = online_training_run(false);
            let (chaos_snap, chaos_r0, chaos_rs) = online_training_run(true);
            assert_eq!(
                snapshot_bits(&plain_snap),
                snapshot_bits(&chaos_snap),
                "trained weights must not feel the inert chaos layer (threads={threads})"
            );
            assert_eq!(plain_r0, chaos_r0, "rewards bit-identical");
            assert_eq!(plain_rs, chaos_rs, "rewards bit-identical");
        });
    }
}

/// Deploy a fully replicated layout on the storm cluster and keep issuing
/// the first workload query until one completes inside a node-down window:
/// the replica-aware failover path. Hashed layouts fail in those windows
/// (see `replicated_tables_survive_node_loss_partitioned_fail` in
/// lpa-cluster); replicated ones must not.
fn failover_drill(storm_cluster: &SharedCluster, schema: &Schema, workload: &Workload) {
    let mut cluster = storm_cluster.lock();
    let mut all_replicated = Partitioning::initial(schema);
    for t in 0..schema.tables().len() {
        all_replicated = Action::Replicate { table: TableId(t) }
            .apply(schema, &all_replicated)
            .unwrap_or(all_replicated);
    }
    direct_deploy(&mut cluster, &all_replicated);
    let window = cluster.fault_plan().window_seconds;
    let q = &workload.queries()[0];
    for _ in 0..256 {
        if cluster.fault_state().nodes_down() == 0 {
            // Clear skies: wait (in simulated time) for the next squall.
            cluster.advance_clock(window);
            continue;
        }
        match cluster.run_query(q, None) {
            QueryOutcome::Completed { degraded, .. } => {
                assert!(degraded, "completion during a down window must be flagged");
                return;
            }
            QueryOutcome::Failed {
                reason: FailReason::Transient,
                ..
            } => continue,
            out => panic!("replicated layout must survive node loss, got {out:?}"),
        }
    }
    panic!("storm never produced a node-down window with a completion");
}

/// Online refinement under a seeded fault storm. Returns the refined
/// policy, the fault counters, and the final/initial workload costs
/// measured on a *healthy* full-size cluster.
fn storm_training_run(seed: u64) -> (AgentSnapshot, FaultAccounting, f64, f64) {
    let (schema, workload, mut full) = micro_cluster(0.02);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        quick_cfg(40, 6),
        true,
    );
    let mut sample = full.sampled(0.25);
    let mix = workload.uniform_frequencies();
    let p_off = advisor.suggest(&mix).partitioning;
    // Scale factors are measured while the weather is still clear; the
    // storm starts when online refinement does.
    let scale = OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p_off);
    sample.set_fault_plan(FaultPlan::storm(seed));
    let storm_cluster = shared_cluster(sample);
    let backend = OnlineBackend::new(
        storm_cluster.clone(),
        shared_cache(),
        scale,
        OnlineOptimizations::default(),
    )
    .with_retry_policy(RetryPolicy::default())
    .with_fallback(
        NetworkCostModel::new(CostParams::standard()),
        schema.clone(),
    );
    advisor.refine_online(backend, 12);
    let p_final = advisor.suggest(&mix).partitioning;
    // Replica-aware failover drill under the same storm: a fully
    // replicated layout must keep answering queries while nodes are down.
    failover_drill(&storm_cluster, &schema, &workload);
    let fa = advisor.online_fault_accounting().unwrap();

    // Judge the result on healthy full-size clusters (fresh, so the final
    // layout's cost is not polluted by the training history).
    let (_, _, mut judge_initial) = micro_cluster(0.02);
    let initial_cost = judge_initial.run_workload(&workload, &mix);
    let (_, _, mut judge_final) = micro_cluster(0.02);
    direct_deploy(&mut judge_final, &p_final);
    let final_cost = judge_final.run_workload(&workload, &mix);
    (advisor.snapshot(), fa, final_cost, initial_cost)
}

#[test]
fn fault_storm_training_completes_and_still_improves() {
    let (_, fa, final_cost, initial_cost) = storm_training_run(storm_seed());
    // The storm actually happened… (The counter floors below need a storm
    // violent enough to exhaust the retry budget at least once; the default
    // seed and the seeds pinned in CI are chosen to guarantee that. Milder
    // seeds can ride out every squall with retries alone.)
    assert!(fa.queries_failed >= 1, "storm produced no failures: {fa:?}");
    assert!(fa.retries >= 1, "no retry exercised: {fa:?}");
    assert!(
        fa.fallbacks >= 1,
        "no cost-model fallback exercised: {fa:?}"
    );
    assert!(fa.failovers >= 1, "no replica failover exercised: {fa:?}");
    assert!(
        fa.degraded_completions >= 1,
        "no degraded epoch seen: {fa:?}"
    );
    // …and the advisor still learned something useful.
    assert!(
        final_cost < initial_cost,
        "stormy training must still beat the initial partitioning: \
         final {final_cost} vs initial {initial_cost}"
    );
}

#[test]
fn fault_storm_training_is_bit_identical_across_thread_counts() {
    let seed = storm_seed();
    let run = |threads: usize| lpa::par::with_threads(threads, || storm_training_run(seed));
    let (ref_snap, ref_fa, ref_final, ref_initial) = run(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let (snap, fa, final_cost, initial_cost) = run(threads);
        assert_eq!(
            snapshot_bits(&snap),
            snapshot_bits(&ref_snap),
            "storm-trained weights diverged at threads={threads}"
        );
        assert_eq!(fa, ref_fa, "fault counters diverged at threads={threads}");
        assert_eq!(final_cost.to_bits(), ref_final.to_bits());
        assert_eq!(initial_cost.to_bits(), ref_initial.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Satellite: exhaustive QueryOutcome accessor coverage + FaultPlan schedule
// properties.
// ---------------------------------------------------------------------------

#[test]
fn query_outcome_accessors_cover_every_variant() {
    let completed = QueryOutcome::Completed {
        seconds: 1.5,
        output_rows: 10,
        degraded: false,
    };
    let degraded = QueryOutcome::Completed {
        seconds: 2.5,
        output_rows: 10,
        degraded: true,
    };
    let timed_out = QueryOutcome::TimedOut { limit: 0.5 };
    let failed = QueryOutcome::Failed {
        reason: FailReason::NodeDown { node: 2 },
        seconds: 0.01,
    };
    let transient = QueryOutcome::Failed {
        reason: FailReason::Transient,
        seconds: 0.02,
    };

    assert_eq!(completed.seconds(), 1.5);
    assert_eq!(degraded.seconds(), 2.5);
    assert_eq!(timed_out.seconds(), 0.5);
    assert_eq!(failed.seconds(), 0.01);
    assert_eq!(transient.seconds(), 0.02);

    assert_eq!(completed.completed(), Some(1.5));
    assert_eq!(degraded.completed(), Some(2.5));
    assert_eq!(timed_out.completed(), None);
    assert_eq!(failed.completed(), None);
    assert_eq!(transient.completed(), None);

    assert!(completed.is_clean());
    assert!(!degraded.is_clean());
    assert!(!timed_out.is_clean());
    assert!(!failed.is_clean());

    assert_eq!(completed.failure(), None);
    assert_eq!(timed_out.failure(), None);
    assert_eq!(failed.failure(), Some(FailReason::NodeDown { node: 2 }));
    assert_eq!(transient.failure(), Some(FailReason::Transient));
}

#[test]
fn fault_plan_schedules_follow_their_seed() {
    // Property sweep: identical seeds ⇒ identical schedules; distinct
    // seeds (derived with the same SplitMix64 stream-splitting the pool
    // uses, `lpa::par::derive_stream`) ⇒ schedules that diverge.
    let nodes = 4;
    for case in 0..24u64 {
        let seed = lpa::par::derive_stream(0x5EED_CA5E, case);
        let a = FaultPlan::storm(seed);
        let b = FaultPlan::storm(seed);
        let other = FaultPlan::storm(lpa::par::derive_stream(seed, 1));
        let mut diverged = false;
        for w in 0..64u64 {
            let clock = w as f64 * a.window_seconds + 1e-3;
            assert_eq!(
                a.state_at(clock, nodes),
                b.state_at(clock, nodes),
                "same seed must give the same window (case {case}, window {w})"
            );
            assert_eq!(a.transient_failure(clock, w), b.transient_failure(clock, w));
            diverged |= a.state_at(clock, nodes) != other.state_at(clock, nodes);
        }
        assert!(
            diverged,
            "seeds {seed:#x} vs derived sibling produced identical schedules"
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpointing under faults (lpa-store integration).
// ---------------------------------------------------------------------------

/// A plan that is *always* degrading (every node straggles in every
/// window): any runtime measured under it is tagged degraded, and
/// `FaultState::any_fault()` is true at every clock — the "snapshot taken
/// mid-outage" fixture.
fn permanent_outage(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        straggle_rate: 1.0,
        straggle_factor: 2.0,
        ..FaultPlan::none()
    }
}

/// Online advisor refined entirely inside a permanent outage, so its
/// runtime cache holds degraded-tagged entries and the fault is still
/// active at capture time.
fn mid_outage_advisor() -> (Schema, Workload, Advisor) {
    let (schema, workload, mut full) = micro_cluster(0.02);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        quick_cfg(12, 4),
        true,
    );
    let mut sample = full.sampled(0.25);
    let mix = workload.uniform_frequencies();
    let p_off = advisor.suggest(&mix).partitioning;
    let scale = OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p_off);
    sample.set_fault_plan(permanent_outage(storm_seed()));
    let backend = OnlineBackend::new(
        shared_cluster(sample),
        shared_cache(),
        scale,
        OnlineOptimizations::default(),
    );
    advisor.refine_online(backend, 6);
    (schema, workload, advisor)
}

fn degraded_entries_of(advisor: &Advisor) -> usize {
    match advisor.env.backend() {
        RewardBackend::Cluster(b) => b.cache().lock().unwrap().degraded_entries(),
        RewardBackend::CostModel(_) => panic!("online advisor expected"),
    }
}

/// Regression for the degraded-entry invalidation gap: the lookup path only
/// drops a degraded cache entry when it observes a recovery *event* (a
/// lookup while the fault state is healthy). A snapshot taken mid-outage
/// and restored after the outage was resolved out-of-band (the fault plan
/// replaced) never sees that event — restore itself must drop the entries,
/// and count them as invalidations.
#[test]
fn restore_after_outage_resolution_drops_degraded_cache_entries() {
    use lpa::store::{capture_advisor, restore_online, OnlineTemplate};
    let (schema, workload, advisor) = mid_outage_advisor();
    let degraded_before = degraded_entries_of(&advisor);
    assert!(
        degraded_before > 0,
        "fixture must cache degraded measurements"
    );
    let invalidations_before = advisor
        .online_fault_accounting()
        .unwrap()
        .cache_invalidations;

    let template = |plan: Option<FaultPlan>| {
        let (_, _, full) = micro_cluster(0.02);
        OnlineTemplate {
            schema: schema.clone(),
            workload: workload.clone(),
            cluster: full.sampled(0.25),
            fallback: None,
            fault_plan_override: plan,
        }
    };

    // Outage resolved while the trainer was down: override with the inert
    // plan. Every degraded entry must be gone and accounted for.
    let resolved = restore_online(
        capture_advisor(5, &advisor),
        template(Some(FaultPlan::none())),
    )
    .unwrap();
    assert_eq!(degraded_entries_of(&resolved), 0);
    assert_eq!(
        resolved
            .online_fault_accounting()
            .unwrap()
            .cache_invalidations,
        invalidations_before + degraded_before as u64,
        "dropped entries must be counted as invalidations"
    );

    // Outage still ongoing (no override): mid-outage resume keeps the
    // entries — they are still valid under the active fault, and dropping
    // them would break bit-identical resume.
    let still_down = restore_online(capture_advisor(5, &advisor), template(None)).unwrap();
    assert_eq!(degraded_entries_of(&still_down), degraded_before);
    assert_eq!(
        still_down
            .online_fault_accounting()
            .unwrap()
            .cache_invalidations,
        invalidations_before
    );
}

/// Cross-process handoff writer: when CI's `thread-matrix` job sets
/// `LPA_CKPT_HANDOFF_DIR`, write a partially trained offline session into
/// it. `tests/resume.rs::handoff_checkpoint_from_chaos_leg_resumes_bitwise`
/// restores it in a separate process and checks bitwise reproduction.
#[test]
fn chaos_leg_writes_handoff_checkpoint() {
    use lpa::store::{train_checkpointed, CheckpointStore};
    let Ok(dir) = std::env::var("LPA_CKPT_HANDOFF_DIR") else {
        return; // only meaningful with a handoff directory
    };
    let schema = lpa::schema::microbench::schema(0.05).unwrap();
    let workload = lpa::workload::microbench::workload(&schema).unwrap();
    let cfg = DqnConfig {
        batch_size: 8,
        hidden: vec![16, 8],
        ..DqnConfig::simulation(12, 4)
    }
    .with_seed(lpa::par::derive_stream(storm_seed(), 7));
    let env = AdvisorEnv::new(
        schema.clone(),
        workload.clone(),
        RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
        MixSampler::uniform(&workload),
        true,
        cfg.seed,
    );
    let mut advisor = Advisor::untrained(env, cfg);
    let mut store = CheckpointStore::open(&dir).unwrap();
    let report = train_checkpointed(&mut advisor, &mut store, 0, 8, 3, |_| {});
    assert_eq!(
        report.written, 2,
        "expected checkpoints at episodes 2 and 5"
    );
    assert_eq!(report.write_failures, 0);
}
