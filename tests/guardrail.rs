//! Keystone differential for the deployment guardrail
//! (`lpa-cluster::guardrail` + `lpa-service::fleet` + `lpa-store`'s
//! deployment journal): a fleet where selected tenants receive
//! **adversarially poisoned advice** — a salted stream forcing known-bad
//! layouts with fabricated predicted benefit — must
//!
//! 1. roll back **every** poisoned deploy from *observed* canary
//!    runtimes (the fabricated paper numbers sail through the economic
//!    gate; only observation catches the lie), committing none,
//! 2. keep healthy tenants' training trajectories bitwise identical to a
//!    guardrail-inert control (the guardrail is observation-side only),
//!    with **zero rollbacks** in an unpoisoned guarded control,
//! 3. advance bit-identically at `LPA_THREADS={1,8}` and across a
//!    whole-process kill/resume placed **inside an open canary window**,
//!    with the replayed deployment journal of the interrupted run equal
//!    to the uninterrupted one.
//!
//! CI's `thread-matrix` job runs this file at `LPA_THREADS={1,8}` on the
//! default guard seed (`LPA_GUARD_SEED` overrides it).

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa::cluster::{GuardrailAccounting, GuardrailConfig, GuardrailEvent};
use lpa::partition::Partitioning;
use lpa::prelude::*;
use lpa::service::{JournalRecord, TenantCounters};
use lpa::store::CheckpointedFleet;
use lpa_bench::SeededChaos;
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 2] = [1, 8];
const TENANTS: usize = 8;
const ROUNDS: u64 = 8;
/// Checkpoint cadence in rounds.
const EVERY: u64 = 2;
/// The victim dies after this many rounds — one past the round-4
/// checkpoint, so the restored state has the poisoned tenants' round-3
/// canaries **open** (verdict pending) and round 4 is re-executed on
/// resume, exercising the journal's duplicate-frame dedup.
const KILL_AFTER: u64 = 5;
/// The checkpoint the resume restores from.
const RESUME_AT: u64 = 4;
/// Tenants fed poisoned advice, and the round the poison starts.
const POISONED: [usize; 2] = [2, 6];
/// Rounds 0..POISON_FROM are genuine: the advisor deploys (and the
/// canary commits) real improvements at round 1, so the poison later
/// regresses a *good* layout — scrambling the bootstrap layout would be
/// undetectable because the bootstrap is already near-pessimal.
/// Timeline per poisoned tenant (canary_windows=1, cooldown_windows=1):
/// genuine stage r0 / commit r1 / converged r2; poison stage r3 /
/// rollback r4 / cool-down r5; poison stage r6 (open across the round-4
/// checkpoint geometry is r3's canary) / rollback r7.
const POISON_FROM: u64 = 3;

fn guard_seed() -> u64 {
    std::env::var("LPA_GUARD_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x6A7D)
}

fn test_dir(name: &str, threads: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lpa-guard-{name}-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One verdict per observed window, a short cool-down, and budgets wide
/// enough that the poison keeps getting restaged — every round is either
/// a stage, a verdict or a cool-down, so rollback latency is exactly one
/// window and the canary cycle has period 3. The 5% threshold sits well
/// under the ≥15% regressions the poison inflicts on a converged layout
/// and well over the zero drift of this deterministic simulator.
fn guarded() -> GuardrailConfig {
    GuardrailConfig {
        canary_windows: 1,
        regression_threshold: 0.05,
        cooldown_windows: 1,
        budget_window: 4,
        budget_deploys: 100,
        ..GuardrailConfig::default()
    }
}

fn keystone_cfg(guardrail: GuardrailConfig) -> FleetConfig {
    FleetConfig {
        seed: guard_seed(),
        max_tenants: TENANTS,
        episodes_per_slice: 1,
        probe_queries: 1,
        window_seconds: 1.0,
        hidden: vec![16, 8],
        batch_size: 8,
        tmax: 3,
        guardrail,
        ..FleetConfig::default()
    }
}

/// All-SSB population (joins everywhere, so a scrambled co-partitioning
/// actually hurts).
fn keystone_specs() -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| TenantSpec {
            episodes: 2,
            ..TenantSpec::new(
                format!("guard-{i:02}"),
                Benchmark::Ssb,
                0.001,
                400 + i as u64,
            )
        })
        .collect()
}

/// Poisoned advice on the `POISONED` set from `POISON_FROM` on. Pure in
/// `(seed, tenant, round, deployed layout)` and not checkpointed, so a
/// resumed fleet gets the same hook installed again.
fn keystone_poison() -> Box<SeededChaos> {
    Box::new(
        POISONED
            .iter()
            .fold(SeededChaos::new(guard_seed()), |chaos, &tenant| {
                chaos.poison(tenant, POISON_FROM)
            }),
    )
}

/// Everything observable about one tenant, as raw bits.
#[derive(Clone, Debug, PartialEq)]
struct TenantFp {
    weights: u64,
    episode: usize,
    clock: u64,
    deployed: Partitioning,
    counters: TenantCounters,
    guardrail: GuardrailAccounting,
}

fn fingerprints(fleet: &Fleet) -> Vec<TenantFp> {
    (0..fleet.tenant_count())
        .map(|t| TenantFp {
            weights: fleet.tenant_weight_fingerprint(t).unwrap(),
            episode: fleet.tenant_episode(t).unwrap(),
            clock: fleet.tenant_cluster(t).unwrap().clock().to_bits(),
            deployed: fleet.tenant_cluster(t).unwrap().deployed().clone(),
            counters: fleet.tenant_counters(t).unwrap(),
            guardrail: fleet.tenant_service(t).unwrap().guardrail().accounting(),
        })
        .collect()
}

fn admit_all(fleet: &mut Fleet, specs: Vec<TenantSpec>) {
    for spec in specs {
        fleet.admit(spec).unwrap();
    }
}

/// One full keystone protocol at a fixed thread count; returns the
/// reference fingerprints + the deduplicated journal so the caller can
/// compare across thread counts.
fn keystone_at(threads: usize) -> (Vec<TenantFp>, Vec<JournalRecord>) {
    lpa::par::with_threads(threads, || {
        // Reference: uninterrupted guarded fleet with poisoned tenants,
        // journal on disk.
        let dir_ref = test_dir("ref", threads);
        let mut reference =
            CheckpointedFleet::create(keystone_cfg(guarded()), &dir_ref, EVERY).unwrap();
        reference.fleet_mut().set_hook(keystone_poison());
        for spec in keystone_specs() {
            reference.admit(spec).unwrap();
        }
        reference.run_rounds(ROUNDS);
        let fp_ref = fingerprints(reference.fleet());
        let journal_ref = reference.journal().unwrap().replay().unwrap();

        // (1) Every poisoned deploy was rolled back from observed
        // evidence; nothing poisoned was ever committed. The genuine
        // phase (rounds < POISON_FROM) must have committed a real
        // improvement first — that is the premise that makes the poison
        // observable at all.
        for &i in &POISONED {
            let g = &fp_ref[i].guardrail;
            assert!(
                g.canaries_started >= 3,
                "tenant {i}: poison was never staged (threads={threads}): {g:?}"
            );
            assert!(
                g.rollbacks_regression >= 2,
                "tenant {i}: rollbacks were not observation-driven: {g:?}"
            );
            assert_eq!(
                g.commits + g.rollbacks_regression + g.rollbacks_degraded,
                g.canaries_started
                    - u64::from(
                        reference
                            .fleet()
                            .tenant_service(i)
                            .unwrap()
                            .guardrail()
                            .canary_open()
                    ),
                "tenant {i}: a closed canary reached no verdict: {g:?}"
            );
            assert!(g.rollback_seconds > 0.0, "rollback migration was free");
            let genuine_commits = journal_ref
                .iter()
                .filter(|r| {
                    r.tenant == i as u64
                        && r.round < POISON_FROM
                        && matches!(r.event, GuardrailEvent::Committed { .. })
                })
                .count();
            assert!(
                genuine_commits >= 1,
                "tenant {i}: the genuine phase never converged to a better layout, \
                 so the poison had nothing to regress"
            );
        }
        // Journal phase audit: once the poison starts, nothing commits,
        // and every rollback lands exactly `canary_windows` (= 1) windows
        // after its stage.
        for &i in &POISONED {
            let mut open: Option<u64> = None;
            for rec in journal_ref.iter().filter(|r| r.tenant == i as u64) {
                match rec.event {
                    GuardrailEvent::CanaryStarted { window, .. } => open = Some(window),
                    GuardrailEvent::RolledBack { window, .. } => {
                        let staged = open.take().expect("rollback without a stage");
                        assert_eq!(
                            window,
                            staged + 1,
                            "tenant {i}: rollback latency exceeded the canary window"
                        );
                    }
                    GuardrailEvent::Committed { .. } => {
                        assert!(
                            rec.round < POISON_FROM,
                            "tenant {i}: poisoned commit at round {} in the journal",
                            rec.round
                        );
                        open = None;
                    }
                    _ => {}
                }
            }
        }

        // (2a) Unpoisoned guarded control: genuine advice never triggers
        // a rollback, and nobody's canary protocol misfires.
        let mut unpoisoned = Fleet::new(keystone_cfg(guarded()));
        admit_all(&mut unpoisoned, keystone_specs());
        unpoisoned.run_rounds(ROUNDS);
        let fp_unp = fingerprints(&unpoisoned);
        let report_unp = unpoisoned.report();
        assert_eq!(
            report_unp.guardrail.rollbacks_regression + report_unp.guardrail.rollbacks_degraded,
            0,
            "genuine advice was rolled back in the unpoisoned control (threads={threads})"
        );
        // Healthy tenants see identical advice in both fleets: poison is
        // tenant-local.
        for i in 0..TENANTS {
            if POISONED.contains(&i) {
                continue;
            }
            assert_eq!(
                fp_unp[i], fp_ref[i],
                "tenant {i}: poison in another tenant leaked into this one (threads={threads})"
            );
        }

        // (2b) Guardrail-inert control: deploy-on-predicted-improvement,
        // no canaries. The guardrail must be observation-side only —
        // healthy tenants' *training trajectories* (weights, episodes)
        // are bitwise unchanged by guarding.
        let mut inert = Fleet::new(keystone_cfg(GuardrailConfig::inert()));
        admit_all(&mut inert, keystone_specs());
        inert.run_rounds(ROUNDS);
        let fp_inert = fingerprints(&inert);
        for i in 0..TENANTS {
            if POISONED.contains(&i) {
                continue;
            }
            assert_eq!(
                fp_inert[i].weights, fp_ref[i].weights,
                "tenant {i}: guarding changed the learned weights (threads={threads})"
            );
            assert_eq!(fp_inert[i].episode, fp_ref[i].episode);
        }
        assert_eq!(
            inert.report().guardrail.canaries_started,
            inert.report().guardrail.commits,
            "the inert guardrail must commit every stage immediately"
        );

        // (3) Kill mid-canary, resume, finish: bit-identical to the
        // uninterrupted reference, and the journal replays equal.
        let dir_kill = test_dir("kill", threads);
        {
            let mut victim =
                CheckpointedFleet::create(keystone_cfg(guarded()), &dir_kill, EVERY).unwrap();
            victim.fleet_mut().set_hook(keystone_poison());
            for spec in keystone_specs() {
                victim.admit(spec).unwrap();
            }
            victim.run_rounds(RESUME_AT);
            // The checkpoint the resume will restore from must actually
            // sit inside an open canary window, or this test is not
            // exercising what it claims.
            for &i in &POISONED {
                assert!(
                    victim
                        .fleet()
                        .tenant_service(i)
                        .unwrap()
                        .guardrail()
                        .canary_open(),
                    "tenant {i}: no canary open at the round-{RESUME_AT} checkpoint"
                );
            }
            victim.run_rounds(KILL_AFTER - RESUME_AT);
        } // <- process dies; round 4's work outlives only the journal

        let mut resumed = CheckpointedFleet::resume_or(
            keystone_cfg(guarded()),
            keystone_specs(),
            &dir_kill,
            EVERY,
        )
        .unwrap();
        resumed.fleet_mut().set_hook(keystone_poison());
        assert_eq!(resumed.fleet().round(), RESUME_AT);
        for &i in &POISONED {
            assert!(
                resumed
                    .fleet()
                    .tenant_service(i)
                    .unwrap()
                    .guardrail()
                    .canary_open(),
                "tenant {i}: the open canary did not survive the kill"
            );
        }
        resumed.run_rounds(ROUNDS - RESUME_AT);
        let fp_res = fingerprints(resumed.fleet());
        for i in 0..TENANTS {
            assert_eq!(
                fp_res[i], fp_ref[i],
                "tenant {i} diverged across the mid-canary kill/resume (threads={threads})"
            );
        }
        // The journal holds a byte-identical re-execution echo for the
        // rounds after the last checkpoint; replay dedups it away.
        let journal_res = resumed.journal().unwrap().replay().unwrap();
        assert_eq!(
            journal_res, journal_ref,
            "interrupted journal replay diverged from the uninterrupted run (threads={threads})"
        );
        assert!(
            resumed.journal().unwrap().records_on_disk() > journal_res.len() as u64,
            "the resume should have appended duplicate frames for re-executed rounds"
        );

        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir_kill);
        (fp_ref, journal_ref)
    })
}

#[test]
fn keystone_poisoned_advice_rolled_back_bit_identical_across_threads() {
    let reference = keystone_at(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let got = keystone_at(threads);
        assert_eq!(
            got, reference,
            "guardrail keystone diverged between {} and {threads} threads",
            THREAD_COUNTS[0]
        );
    }
}

// ---------------------------------------------------------------------------
// Fleet-wide aggregate budget (cheap Micro fleets).

#[test]
fn fleet_budget_caps_concurrent_canaries_across_tenants() {
    // Two tenants, both poisoned from round 0 (fabricated benefit always
    // passes the economic gate), but the whole fleet may only hold one
    // stage per budget window.
    let mut fleet = Fleet::new(FleetConfig {
        seed: guard_seed(),
        max_tenants: 2,
        guardrail: GuardrailConfig {
            canary_windows: 1,
            regression_threshold: -1.0, // everything observed is a regression
            cooldown_windows: 0,
            budget_window: 1,
            budget_deploys: 100,
            ..GuardrailConfig::default()
        },
        fleet_budget_deploys: 1,
        ..FleetConfig::default()
    });
    fleet.set_hook(Box::new(
        SeededChaos::new(guard_seed()).poison(0, 0).poison(1, 0),
    ));
    for i in 0..2 {
        fleet
            .admit(TenantSpec {
                episodes: 1,
                ..TenantSpec::new(format!("b{i}"), Benchmark::Micro, 0.01, 70 + i as u64)
            })
            .unwrap();
    }
    fleet.run_rounds(6);
    let merged = fleet.report().guardrail;
    assert!(
        merged.rejected_fleet_budget > 0,
        "the aggregate cap never rejected a stage: {merged:?}"
    );
    // The budget defers, it does not starve: both tenants still staged.
    for t in 0..2 {
        assert!(
            fleet
                .tenant_service(t)
                .unwrap()
                .guardrail()
                .accounting()
                .canaries_started
                > 0,
            "tenant {t} was starved by the fleet budget"
        );
    }
    // The cap held every round: stages within one budget window never
    // exceed the cap.
    assert!(fleet.stage_rounds().len() as u64 <= 1);
}

/// Diagnostic, not a check: dump the keystone fleet's journal (minus the
/// per-window observations) to retune the timeline constants above.
/// `cargo test --test guardrail debug_poison -- --ignored --nocapture`
#[test]
#[ignore]
fn debug_poison_dynamics() {
    let mut fleet = Fleet::new(keystone_cfg(guarded()));
    fleet.set_hook(keystone_poison());
    admit_all(&mut fleet, keystone_specs());
    for _ in 0..ROUNDS {
        fleet.run_round();
        for rec in fleet.drain_journal() {
            if !matches!(rec.event, GuardrailEvent::CanaryObserved { .. }) {
                println!("{rec:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: verdict purity and hysteresis, over randomized configs
// and candidate streams (seed-indexed loops, matching the repo's
// `property_based.rs` idiom — no proptest dependency).

use lpa::cluster::{Cluster, ClusterConfig, EngineProfile, Guardrail, HardwareProfile};
use lpa::store::codec::{ByteReader, ByteWriter};
use lpa::store::snapshot::{put_guardrail_state, take_guardrail_state};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn prop_cluster(schema: &lpa::schema::Schema) -> Cluster {
    Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    )
}

fn random_guarded(rng: &mut StdRng) -> GuardrailConfig {
    GuardrailConfig {
        canary_windows: rng.gen_range(1..=3),
        regression_threshold: rng.gen_range(-0.5..0.5),
        max_degraded_fraction: rng.gen_range(0.0..1.0),
        max_extensions: rng.gen_range(0..=2),
        cooldown_windows: rng.gen_range(0..=3),
        budget_window: rng.gen_range(1..=6),
        budget_deploys: rng.gen_range(1..=3),
        ..GuardrailConfig::default()
    }
}

/// Random candidate a few valid actions away from the deployed layout,
/// with a benefit that is sometimes honest, sometimes fabricated,
/// sometimes non-positive (exercising every gate).
fn random_candidate(
    rng: &mut StdRng,
    schema: &lpa::schema::Schema,
    deployed: &Partitioning,
) -> Option<lpa::cluster::CandidateDeploy> {
    if rng.gen_bool(0.3) {
        return None;
    }
    let mut p = deployed.clone();
    for _ in 0..rng.gen_range(1..=3) {
        let actions = lpa::partition::valid_actions(schema, &p);
        if actions.is_empty() {
            break;
        }
        let a = actions[rng.gen_range(0..actions.len())];
        p = a.apply(schema, &p).expect("valid action applies");
    }
    let benefit_per_run = if rng.gen_bool(0.2) {
        1e9 // fabricated: sails through economics, only observation judges
    } else {
        rng.gen_range(-0.01..0.02)
    };
    Some(lpa::cluster::CandidateDeploy {
        partitioning: p,
        benefit_per_run,
    })
}

/// Drive one guardrail for `windows` decision windows, optionally pushing
/// its entire mutable state through the `lpa-store` codec between every
/// window (the checkpoint/restore boundary a crash recovery crosses).
fn drive(
    seed: u64,
    cfg: GuardrailConfig,
    windows: u64,
    serialize_each_window: bool,
) -> (Vec<GuardrailEvent>, GuardrailAccounting) {
    let schema = lpa::schema::microbench::schema(0.01).expect("schema builds");
    let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
    let mix = workload.uniform_frequencies();
    let mut cluster = prop_cluster(&schema);
    let mut guard = Guardrail::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for _ in 0..windows {
        let cand = random_candidate(&mut rng, &schema, cluster.deployed());
        let fleet_ok = rng.gen_bool(0.9);
        events.extend(guard.end_window(&mut cluster, &workload, &mix, cand, fleet_ok));
        cluster.advance_clock(1.0);
        if serialize_each_window {
            let mut w = ByteWriter::new();
            put_guardrail_state(&mut w, &guard.resume_state());
            let mut r = ByteReader::new(w.bytes());
            let state = take_guardrail_state(&mut r, &schema).expect("state decodes");
            r.finish().expect("no trailing bytes");
            guard = Guardrail::restore(cfg, state);
        }
    }
    (events, guard.accounting())
}

/// Canary verdicts are a pure function of (seed, observed stats): the
/// event stream is bit-identical across thread counts and across a
/// codec round-trip of the guardrail state at *every* window boundary —
/// the worst-case checkpoint/restore schedule a crash could produce.
#[test]
fn verdicts_pure_across_threads_and_serialization_boundaries() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x9A7D_0000 + case);
        let cfg = random_guarded(&mut rng);
        let seed = rng.gen();
        let baseline = drive(seed, cfg, 24, false);
        let through_codec = drive(seed, cfg, 24, true);
        assert_eq!(
            baseline, through_codec,
            "case {case}: a codec round-trip changed a verdict ({cfg:?})"
        );
        for &threads in &THREAD_COUNTS {
            let at = lpa::par::with_threads(threads, || drive(seed, cfg, 24, true));
            assert_eq!(
                baseline, at,
                "case {case}: verdicts depend on the thread count ({cfg:?})"
            );
        }
    }
}

/// Hysteresis and budgets, as properties of the event stream: after any
/// verdict at window `w`, no canary starts at a window `≤ w + cooldown`;
/// and no `budget_window`-long span ever contains more than
/// `budget_deploys` stages.
#[test]
fn hysteresis_never_permits_two_stages_within_cooldown() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x9A7D_1000 + case);
        let cfg = random_guarded(&mut rng);
        let (events, accounting) = drive(rng.gen(), cfg, 40, case % 2 == 0);
        let mut stages = Vec::new();
        let mut last_verdict: Option<u64> = None;
        for event in &events {
            match *event {
                GuardrailEvent::CanaryStarted { window, .. } => {
                    if let Some(v) = last_verdict {
                        assert!(
                            window > v + cfg.cooldown_windows,
                            "case {case}: stage at window {window} inside the \
                             cool-down after the verdict at {v} ({cfg:?})"
                        );
                    }
                    stages.push(window);
                }
                GuardrailEvent::Committed { window, .. }
                | GuardrailEvent::RolledBack { window, .. } => last_verdict = Some(window),
                _ => {}
            }
        }
        for (i, &w) in stages.iter().enumerate() {
            let in_span = stages[i..]
                .iter()
                .take_while(|s| **s < w + cfg.budget_window)
                .count() as u64;
            assert!(
                in_span <= u64::from(cfg.budget_deploys),
                "case {case}: {in_span} stages within a {}-window span \
                 exceeds the budget of {} ({cfg:?})",
                cfg.budget_window,
                cfg.budget_deploys
            );
        }
        assert_eq!(
            accounting.canaries_started,
            stages.len() as u64,
            "case {case}: ledger and event stream disagree on stages"
        );
    }
}
