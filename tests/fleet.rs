//! Keystone differential for the multi-tenant fleet (`lpa-service::fleet`
//! plus `lpa-store` manifest recovery): a 100+ tenant fleet — mixed SSB
//! and TPC-CH, several tenants under seeded fault storms, a few with
//! deliberately corrupted checkpoints — must
//!
//! 1. advance **bit-identically** at `LPA_THREADS={1,8}`,
//! 2. survive a whole-process kill-and-resume bit-identical to the
//!    uninterrupted run (healthy tenants), with corrupt-checkpoint
//!    tenants quarantined — never panicking, never perturbing others,
//! 3. contain tenant-local chaos: healthy tenants' final weights are
//!    bitwise unchanged vs a storm-free control fleet.
//!
//! CI's `thread-matrix` job runs this file at `LPA_THREADS={1,8}` on the
//! default fleet seed (`LPA_FLEET_SEED` overrides it).

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa::cluster::{FaultPlan, GuardrailConfig};
use lpa::partition::Partitioning;
use lpa::prelude::*;
use lpa::service::{TenantCounters, TenantErrorKind};
use lpa::store::{load_manifest, CheckpointStore, CheckpointedFleet, MANIFEST_FILE};
use lpa_bench::SeededChaos;
use std::path::{Path, PathBuf};

const THREAD_COUNTS: [usize; 2] = [1, 8];
const TENANTS: usize = 104;
const ROUNDS: u64 = 6;
/// Checkpoint cadence in rounds.
const EVERY: u64 = 2;
/// The victim process dies after this many rounds (a cadence boundary).
const KILL_AFTER: u64 = 4;
/// Tenants under seeded fault storms + injected step errors.
const STORM: [usize; 4] = [3, 10, 47, 90];
/// Tenants whose newest checkpoint is corrupted before the resume.
const CORRUPT: [usize; 2] = [5, 60];

fn fleet_seed() -> u64 {
    std::env::var("LPA_FLEET_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xF1EE7D)
}

fn test_dir(name: &str, threads: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lpa-fleet-{name}-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn keystone_cfg() -> FleetConfig {
    FleetConfig {
        seed: fleet_seed(),
        max_tenants: TENANTS,
        episodes_per_slice: 1,
        probe_queries: 2,
        window_seconds: 1.0,
        quarantine: QuarantinePolicy {
            max_errors: 0,
            cooldown_rounds: 1,
        },
        hidden: vec![16, 8],
        batch_size: 8,
        tmax: 3,
        // This keystone exercises fault containment and crash recovery,
        // not canary staging: the inert guardrail reproduces the legacy
        // deploy-on-predicted-improvement path. tests/guardrail.rs is the
        // keystone for the guarded path.
        guardrail: GuardrailConfig::inert(),
        fleet_budget_deploys: u64::MAX,
    }
}

/// The keystone population: alternating SSB/TPC-CH tenants, with storms
/// (cluster chaos + injected step errors) on the `STORM` set when
/// `storms` is true. The control fleet uses `storms = false` and is
/// otherwise identical.
fn keystone_specs(storms: bool) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let benchmark = if i % 2 == 0 {
                Benchmark::Ssb
            } else {
                Benchmark::TpcCh
            };
            let mut spec = TenantSpec {
                episodes: 4,
                ..TenantSpec::new(format!("tenant-{i:03}"), benchmark, 0.001, 1_000 + i as u64)
            };
            if storms && STORM.contains(&i) {
                spec.fault_plan = FaultPlan::storm(7_700 + i as u64);
            }
            spec
        })
        .collect()
}

/// The other half of a storm: injected step errors on the `STORM` set's
/// slices. Pure in `(seed, tenant, round)` and not checkpointed, so a
/// resumed fleet gets the same hook installed again.
fn keystone_chaos() -> Box<SeededChaos> {
    Box::new(
        STORM
            .iter()
            .fold(SeededChaos::new(fleet_seed()), |chaos, &tenant| {
                chaos.step_errors(tenant, 0.5)
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
    status: TenantStatus,
    counters: TenantCounters,
}

fn fingerprints(fleet: &Fleet) -> Vec<TenantFp> {
    (0..fleet.tenant_count())
        .map(|t| TenantFp {
            weights: fleet.tenant_weight_fingerprint(t).unwrap(),
            episode: fleet.tenant_episode(t).unwrap(),
            clock: fleet.tenant_cluster(t).unwrap().clock().to_bits(),
            deployed: fleet.tenant_cluster(t).unwrap().deployed().clone(),
            status: fleet.tenant_status(t).unwrap(),
            counters: fleet.tenant_counters(t).unwrap(),
        })
        .collect()
}

fn admit_all(fleet: &mut CheckpointedFleet, specs: Vec<TenantSpec>) {
    for spec in specs {
        fleet.admit(spec).unwrap();
    }
    // One admission past the budget: must be rejected and counted, and
    // must not disturb the admitted population.
    let overflow = fleet.admit(TenantSpec::new("overflow", Benchmark::Micro, 0.01, 9_999));
    assert!(matches!(
        overflow,
        Err(lpa::service::FleetError::AdmissionRejected { .. })
    ));
}

/// Flip one pseudo-random bit in the newest checkpoint of `tenant`'s
/// lineage under `root`.
fn corrupt_newest(root: &Path, tenant: usize, salt: u64) {
    let dir = root.join(format!("tenant-{tenant:04}"));
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            name.starts_with("ckpt-") && name.ends_with(".lpa")
        })
        .max_by_key(|e| e.file_name())
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&newest).unwrap();
    let seed = fleet_seed().wrapping_add(salt);
    let byte = (seed % bytes.len() as u64) as usize;
    let bit = (seed / 7) % 8;
    bytes[byte] ^= 1 << bit;
    std::fs::write(&newest, &bytes).unwrap();
}

/// One full keystone protocol at a fixed thread count; returns the
/// reference (uninterrupted) fingerprints so the caller can compare
/// across thread counts.
fn keystone_at(threads: usize) -> Vec<TenantFp> {
    lpa::par::with_threads(threads, || {
        // Reference: uninterrupted, checkpointing on (writing checkpoints
        // must not perturb the fleet).
        let dir_ref = test_dir("ref", threads);
        let mut reference = CheckpointedFleet::create(keystone_cfg(), &dir_ref, EVERY).unwrap();
        reference.fleet_mut().set_hook(keystone_chaos());
        admit_all(&mut reference, keystone_specs(true));
        reference.run_rounds(ROUNDS);
        let fp_ref = fingerprints(reference.fleet());
        let report_ref = reference.report();
        assert_eq!(report_ref.rejected_admissions, 1);
        assert!(report_ref.store.checkpoints_written >= TENANTS as u64 * (ROUNDS / EVERY));
        assert_eq!(report_ref.store.write_failures, 0);

        // Durability is invisible: the same fleet never checkpointed, and
        // checkpointed after every round, lands on the reference's bits —
        // storm tenants included.
        let mut plain = Fleet::new(keystone_cfg());
        plain.set_hook(keystone_chaos());
        for spec in keystone_specs(true) {
            plain.admit(spec).unwrap();
        }
        plain.run_rounds(ROUNDS);
        assert_eq!(
            fingerprints(&plain),
            fp_ref,
            "plain fleet (threads={threads})"
        );
        let dir_dense = test_dir("dense", threads);
        let mut dense = CheckpointedFleet::create(keystone_cfg(), &dir_dense, 1).unwrap();
        dense.fleet_mut().set_hook(keystone_chaos());
        admit_all(&mut dense, keystone_specs(true));
        dense.run_rounds(ROUNDS);
        assert_eq!(
            fingerprints(dense.fleet()),
            fp_ref,
            "every=1 (threads={threads})"
        );
        assert_eq!(dense.report().store.write_failures, 0);
        let _ = std::fs::remove_dir_all(&dir_dense);

        // Storm tenants must actually have lived through the machinery:
        // injected failures, quarantines, and at least one rejoin.
        let storm_counters: Vec<TenantCounters> =
            STORM.iter().map(|&i| fp_ref[i].counters).collect();
        assert!(storm_counters.iter().map(|c| c.step_errors).sum::<u64>() > 0);
        assert!(storm_counters.iter().map(|c| c.quarantines).sum::<u64>() > 0);
        assert!(
            storm_counters.iter().map(|c| c.rejoins).sum::<u64>() > 0,
            "no storm tenant ever recovered and rejoined"
        );
        // Chaos stayed where it was configured.
        for (i, fp) in fp_ref.iter().enumerate() {
            if !STORM.contains(&i) {
                assert_eq!(fp.counters.step_errors, 0, "tenant {i} caught stray errors");
                assert_eq!(fp.counters.quarantines, 0);
            }
        }

        // Victim: same fleet, killed at a cadence boundary.
        let dir_kill = test_dir("kill", threads);
        {
            let mut victim = CheckpointedFleet::create(keystone_cfg(), &dir_kill, EVERY).unwrap();
            victim.fleet_mut().set_hook(keystone_chaos());
            admit_all(&mut victim, keystone_specs(true));
            victim.run_rounds(KILL_AFTER);
        } // <- process dies

        // A few tenants lose their newest checkpoint to corruption.
        for (k, &tenant) in CORRUPT.iter().enumerate() {
            corrupt_newest(&dir_kill, tenant, k as u64);
        }

        // Resume the whole fleet from the manifest and finish the run.
        let mut resumed =
            CheckpointedFleet::resume_or(keystone_cfg(), keystone_specs(true), &dir_kill, EVERY)
                .unwrap();
        resumed.fleet_mut().set_hook(keystone_chaos());
        assert_eq!(resumed.fleet().round(), KILL_AFTER);
        resumed.run_rounds(ROUNDS - KILL_AFTER);
        let fp_res = fingerprints(resumed.fleet());
        let report_res = resumed.report();

        // Healthy tenants: kill-and-resume is bit-identical to never
        // having crashed — weights, episodes, clocks, deployments,
        // statuses, counters.
        for i in 0..TENANTS {
            if CORRUPT.contains(&i) {
                continue;
            }
            assert_eq!(
                fp_res[i], fp_ref[i],
                "tenant {i} diverged across the kill/resume boundary (threads={threads})"
            );
        }
        // Corrupted tenants: contained, quarantined, counted — and only
        // them.
        for &i in &CORRUPT {
            assert!(
                fp_res[i].counters.restore_errors >= 1,
                "tenant {i} lost its newest checkpoint but recorded no restore error"
            );
            assert!(fp_res[i].counters.quarantines >= 1);
            assert!(matches!(fp_res[i].status, TenantStatus::Quarantined { .. }));
        }
        assert_eq!(report_res.rejected_admissions, 1);
        assert!(report_res.store.corruptions_detected >= CORRUPT.len() as u64);
        assert!(report_res.store.fallbacks >= CORRUPT.len() as u64);
        assert!(report_res.store.restores >= (TENANTS - CORRUPT.len()) as u64);
        assert_eq!(report_res.store.manifest_fallbacks, 0);

        // Control: the identical fleet with no storms anywhere. Healthy
        // tenants must be bitwise indistinguishable — chaos in tenant i is
        // bit-neutral for tenant j.
        let mut control = Fleet::new(keystone_cfg());
        for spec in keystone_specs(false) {
            control.admit(spec).unwrap();
        }
        control.run_rounds(ROUNDS);
        let fp_ctl = fingerprints(&control);
        for i in 0..TENANTS {
            if STORM.contains(&i) {
                continue;
            }
            assert_eq!(
                fp_ctl[i], fp_ref[i],
                "tenant {i}: a storm in another tenant leaked into this one (threads={threads})"
            );
        }
        // ... while the storm set itself visibly lived through chaos.
        assert!(
            STORM.iter().any(|&i| fp_ctl[i] != fp_ref[i]),
            "storms were configured but changed nothing anywhere"
        );

        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir_kill);
        fp_ref
    })
}

#[test]
fn keystone_fleet_chaos_resume_bit_identical_across_threads() {
    let reference = keystone_at(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let got = keystone_at(threads);
        assert_eq!(
            got, reference,
            "fleet diverged between {} and {threads} threads",
            THREAD_COUNTS[0]
        );
    }
}

// ---------------------------------------------------------------------------
// QuarantinePolicy edge cases (cheap Micro fleets).

fn micro_fleet(policy: QuarantinePolicy, step_error_rate: f64) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig {
        seed: fleet_seed(),
        max_tenants: 2,
        quarantine: policy,
        ..FleetConfig::default()
    });
    fleet
        .admit(TenantSpec {
            episodes: 3,
            ..TenantSpec::new("edge", Benchmark::Micro, 0.01, 42)
        })
        .unwrap();
    fleet.set_hook(Box::new(
        SeededChaos::new(fleet_seed()).step_errors(0, step_error_rate),
    ));
    fleet
}

#[test]
fn threshold_zero_quarantines_on_first_error() {
    // max_errors = 0 tolerates nothing: the first error quarantines.
    let mut fleet = micro_fleet(
        QuarantinePolicy {
            max_errors: 0,
            cooldown_rounds: 2,
        },
        1.0,
    );
    fleet.run_rounds(6);
    let c = fleet.tenant_counters(0).unwrap();
    // Round 0 errors → quarantined until round 3; rounds 1–2 skipped;
    // round 3 rejoins and errors again → quarantined until round 6.
    assert_eq!(c.step_errors, 2);
    assert_eq!(c.quarantines, 2, "rejoining must re-arm the policy");
    assert_eq!(c.rejoins, 1);
    assert_eq!(c.slices_skipped, 4);
    assert_eq!(c.slices_run, 0);
}

#[test]
fn never_policy_counts_errors_but_never_quarantines() {
    let mut fleet = micro_fleet(QuarantinePolicy::never(), 1.0);
    fleet.run_rounds(6);
    let c = fleet.tenant_counters(0).unwrap();
    assert_eq!(c.step_errors, 6);
    assert_eq!(c.quarantines, 0);
    assert_eq!(fleet.tenant_status(0).unwrap(), TenantStatus::Active);
}

#[test]
fn cooldown_expires_exactly_on_the_round_boundary() {
    let mut fleet = micro_fleet(
        QuarantinePolicy {
            max_errors: 0,
            cooldown_rounds: 1,
        },
        0.0,
    );
    // Error recorded at round 0 → quarantined until exactly round 2.
    let status = fleet.record_tenant_error(0, TenantErrorKind::Step).unwrap();
    assert_eq!(status, TenantStatus::Quarantined { until_round: 2 });
    fleet.run_rounds(2);
    // Rounds 0 and 1 were inside the cool-down: skipped.
    let c = fleet.tenant_counters(0).unwrap();
    assert_eq!(c.slices_skipped, 2);
    assert_eq!(c.slices_run, 0);
    // The slice *at* the boundary round runs.
    fleet.run_rounds(1);
    let c = fleet.tenant_counters(0).unwrap();
    assert_eq!(c.rejoins, 1);
    assert_eq!(c.slices_run, 1);
    assert_eq!(fleet.tenant_status(0).unwrap(), TenantStatus::Active);
    assert_eq!(fleet.tenant_errors_since_rejoin(0).unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Manifest-level recovery edge cases (cheap Micro fleets).

fn micro_specs(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec {
            episodes: 3,
            ..TenantSpec::new(format!("m{i}"), Benchmark::Micro, 0.01, 500 + i as u64)
        })
        .collect()
}

fn micro_cfg() -> FleetConfig {
    FleetConfig {
        seed: fleet_seed(),
        max_tenants: 3,
        quarantine: QuarantinePolicy {
            max_errors: 0,
            cooldown_rounds: 1,
        },
        ..FleetConfig::default()
    }
}

#[test]
fn all_corrupt_lineage_restores_fresh_and_quarantines_only_that_tenant() {
    let dir = test_dir("allcorrupt", 0);
    {
        let mut fleet = CheckpointedFleet::create(micro_cfg(), &dir, 1).unwrap();
        for spec in micro_specs(3) {
            fleet.admit(spec).unwrap();
        }
        fleet.run_rounds(2); // checkpoints at rounds 1 and 2
    }
    // Destroy tenant 1's *entire* lineage.
    let lineage = dir.join("tenant-0001");
    for entry in std::fs::read_dir(&lineage).unwrap().flatten() {
        let mut bytes = std::fs::read(entry.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(entry.path(), &bytes).unwrap();
    }
    // The all-corrupt lineage yields a clean `None` at the store level...
    let mut probe = CheckpointStore::open(&lineage).unwrap();
    let schema = lpa::schema::microbench::schema(0.01).unwrap();
    assert!(probe.load_latest(&schema).unwrap().is_none());
    assert_eq!(probe.counters().checkpoint_corruptions_detected, 2);

    // ...and the manifest-driven resume degrades that tenant to a fresh
    // start plus a restore error, leaving the other tenants bit-restored.
    let resumed = CheckpointedFleet::resume_or(micro_cfg(), micro_specs(3), &dir, 1).unwrap();
    let report = resumed.report();
    assert_eq!(resumed.fleet().round(), 2);
    assert_eq!(resumed.fleet().tenant_episode(1).unwrap(), 0, "fresh");
    assert_eq!(report.per_tenant[1].counters.restore_errors, 1);
    assert!(matches!(
        report.per_tenant[1].status,
        TenantStatus::Quarantined { .. }
    ));
    for t in [0usize, 2] {
        assert_eq!(resumed.fleet().tenant_episode(t).unwrap(), 2);
        assert_eq!(report.per_tenant[t].counters.restore_errors, 0);
        assert_eq!(report.per_tenant[t].status, TenantStatus::Active);
    }
    assert!(report.store.corruptions_detected >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_falls_back_to_per_tenant_scans() {
    let dir = test_dir("badmanifest", 0);
    {
        let mut fleet = CheckpointedFleet::create(micro_cfg(), &dir, 1).unwrap();
        for spec in micro_specs(3) {
            fleet.admit(spec).unwrap();
        }
        fleet.run_rounds(2);
    }
    let path = dir.join(MANIFEST_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(load_manifest(&dir).is_err(), "corruption must be detected");

    let mut resumed = CheckpointedFleet::resume_or(micro_cfg(), micro_specs(3), &dir, 1).unwrap();
    let report = resumed.report();
    assert_eq!(report.store.manifest_fallbacks, 1);
    // The scheduler round degrades to the newest checkpointed round, and
    // every tenant still restores from its own directory scan.
    assert_eq!(resumed.fleet().round(), 2);
    for t in 0..3 {
        assert_eq!(resumed.fleet().tenant_episode(t).unwrap(), 2);
        assert_eq!(report.per_tenant[t].counters.restore_errors, 0);
    }
    assert!(report.store.restores >= 3);
    // The fleet keeps going, and the next cadence rewrites a good
    // manifest.
    resumed.run_rounds(1);
    assert!(load_manifest(&dir).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fleet-level health aggregation: the quarantine-aware roll-up vs the
// legacy any-fault tenant count.

/// A mixed fleet — one tenant under a fault storm, one healthy, one
/// driven straight into quarantine — rolls up exactly as documented:
/// quarantined tenants are excluded from the active split and contribute
/// zero degraded measurements, while `degraded_tenants()` keeps its
/// legacy include-everything semantics.
#[test]
fn health_rollup_splits_active_tenants_and_excludes_quarantined() {
    let mut fleet = Fleet::new(FleetConfig {
        seed: fleet_seed(),
        max_tenants: 3,
        quarantine: QuarantinePolicy {
            max_errors: 0,
            cooldown_rounds: 100, // quarantined for the whole test
        },
        ..FleetConfig::default()
    });
    fleet
        .admit(TenantSpec {
            episodes: 2,
            fault_plan: FaultPlan::storm(0x57024),
            ..TenantSpec::new("stormy", Benchmark::Micro, 0.01, 11)
        })
        .unwrap();
    fleet
        .admit(TenantSpec {
            episodes: 2,
            ..TenantSpec::new("healthy", Benchmark::Micro, 0.01, 12)
        })
        .unwrap();
    let doomed = fleet
        .admit(TenantSpec {
            episodes: 2,
            ..TenantSpec::new("doomed", Benchmark::Micro, 0.01, 13)
        })
        .unwrap();
    fleet.set_hook(Box::new(
        SeededChaos::new(fleet_seed()).step_errors(doomed, 1.0),
    ));
    fleet.run_rounds(6);

    let report = fleet.report();
    assert_eq!(report.per_tenant[2].counters.quarantines, 1);
    let rollup = report.health_rollup();
    assert_eq!(rollup.quarantined, 1, "the doomed tenant is excluded");
    assert_eq!(
        rollup.active_healthy + rollup.active_degraded,
        2,
        "active split covers exactly the scheduled tenants"
    );
    assert_eq!(
        rollup.active_healthy, 1,
        "the calm tenant reports fault-free: {rollup:?}"
    );
    assert_eq!(
        rollup.active_degraded, 1,
        "the storm tenant reports fault activity: {rollup:?}"
    );
    assert!(
        rollup.degraded_measurements > 0,
        "a storm without degraded measurements measured nothing"
    );
    // Quarantine contributes nothing: the roll-up is unchanged by the
    // doomed tenant's (stale, error-ridden) cluster state.
    let without_doomed: u64 = report
        .per_tenant
        .iter()
        .take(2)
        .map(|t| t.health.degraded_measurements())
        .sum();
    assert_eq!(rollup.degraded_measurements, without_doomed);
    // Legacy view for contrast: `degraded_tenants()` ignores scheduling
    // status, so it may also count the quarantined tenant.
    assert!(report.degraded_tenants() >= rollup.active_degraded);
}

// ---------------------------------------------------------------------------
// Admission leaves no residue.

#[test]
fn refused_admissions_leave_no_directory_and_ids_stay_indices() {
    let dir = test_dir("admit", 0);
    let mut fleet = CheckpointedFleet::create(
        FleetConfig {
            max_tenants: 2,
            ..micro_cfg()
        },
        &dir,
        1,
    )
    .unwrap();
    let lineage = |t: usize| dir.join(format!("tenant-{t:04}"));
    assert_eq!(fleet.admit(micro_specs(1).remove(0)).unwrap(), 0);
    // A spec that cannot be built is refused before anything is created...
    let unbuildable = TenantSpec::new("bad", Benchmark::Micro, 0.0, 1);
    assert!(matches!(
        fleet.admit(unbuildable),
        Err(lpa::service::FleetError::TenantBuild { .. })
    ));
    assert!(!lineage(1).exists(), "a refused spec left a lineage behind");
    // ...so the next successful admission gets the id equal to its index
    // (and the directory of that index).
    let id = fleet.admit(micro_specs(2).remove(1)).unwrap();
    assert_eq!(id, fleet.fleet().tenant_count() - 1);
    assert!(lineage(id).is_dir());
    // Admission control rejects past the budget without touching the disk.
    assert!(matches!(
        fleet.admit(micro_specs(3).remove(2)),
        Err(lpa::service::FleetError::AdmissionRejected { .. })
    ));
    assert!(!lineage(2).exists(), "a rejected admission left a lineage");
    fleet.run_rounds(1);
    assert_eq!(fleet.report().store.checkpoints_written, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// One production loop: a fleet tenant *is* a `PartitioningService`.

use lpa::cluster::{Cluster, ClusterConfig, EngineProfile, GuardrailEvent, HardwareProfile};
use lpa::service::fleet::{SALT_AGENT, SALT_FAULTS};
use lpa::service::{Observation, ServiceEvent};
use lpa::store::{capture_tenant, encode_checkpoint, Checkpoint};

const LO_DATE: &str = "l.lo_orderdate = d.d_datekey";
const LO_SUPP: &str = "l.lo_suppkey = s.s_suppkey";
const LO_CUST: &str = "l.lo_custkey = c.c_custkey";

/// Window `w`'s SQL for an SSB tenant: flights 1 and 3 only, flight 1
/// dominating — a mix skewed onto a subset of the 13 known queries. The
/// literals move with `w` (same selectivity buckets, different text).
fn skewed_window(w: u64) -> Vec<String> {
    let year = 1992 + w % 7;
    let flight1 = format!(
        "SELECT sum(l.lo_orderkey) FROM lineorder l, date d WHERE {LO_DATE} \
         AND d.d_year = {year} AND l.lo_orderkey < {}",
        500 + w
    );
    let flight3 = format!(
        "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, \
         supplier s, date d WHERE {LO_CUST} AND {LO_SUPP} AND {LO_DATE} \
         AND c.c_nation = {n} AND s.s_nation = {n} AND d.d_year IN (1992, 1993, 1994, 1995, 1996, 1997)",
        n = w % 25
    );
    let mut sql = vec![flight1; 6];
    sql.extend(vec![flight3; 2]);
    sql
}

fn sql_spec() -> TenantSpec {
    TenantSpec {
        episodes: 6,
        ..TenantSpec::new("sql", Benchmark::Ssb, 0.001, 4_242)
    }
}

/// The standalone service `Fleet::admit` would build for `spec` in slot 0
/// — same derived seeds, same substrate, same config.
fn standalone_twin(cfg: &FleetConfig, spec: &TenantSpec) -> PartitioningService {
    let schema = lpa::schema::ssb::schema(spec.scale).unwrap();
    let workload = lpa::workload::ssb::workload(&schema).unwrap();
    let dqn = DqnConfig {
        batch_size: cfg.batch_size,
        hidden: cfg.hidden.clone(),
        ..DqnConfig::simulation(spec.episodes, cfg.tmax)
    }
    .with_seed(lpa::par::derive_stream3(
        cfg.seed ^ spec.seed,
        0,
        SALT_AGENT,
    ));
    let sampler = MixSampler::uniform(&workload);
    let env = AdvisorEnv::new(
        schema.clone(),
        workload,
        RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
        sampler,
        true,
        dqn.seed,
    );
    let mut cluster = Cluster::new(
        schema,
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    cluster.set_fault_plan(spec.fault_plan.salted(lpa::par::derive_stream3(
        cfg.seed,
        0,
        SALT_FAULTS,
    )));
    PartitioningService::new(
        Advisor::untrained(env, dqn),
        cluster,
        ServiceConfig {
            guardrail: cfg.guardrail,
            ..ServiceConfig::default()
        },
    )
}

/// The one-loop proof: a fleet of one (no hook) and a standalone service
/// built from the same seed and config, fed the same SQL every window and
/// driven by the same train/probe/clock calls, make the same decisions.
#[test]
fn fleet_of_one_decides_exactly_like_a_standalone_service() {
    const WINDOWS: u64 = 10;
    let cfg = FleetConfig {
        seed: fleet_seed(),
        max_tenants: 1,
        ..FleetConfig::default()
    };
    let spec = sql_spec();
    let mut service = standalone_twin(&cfg, &spec);
    let mut fleet = Fleet::new(cfg.clone());
    fleet.admit(spec.clone()).unwrap();

    let mut fleet_events = Vec::new();
    let mut service_events = Vec::new();
    for w in 0..WINDOWS {
        for sql in skewed_window(w) {
            let seen = fleet.observe_sql(0, &sql).unwrap();
            assert!(matches!(seen, Observation::Known(_)), "{sql}: {seen:?}");
            assert_eq!(service.observe_sql(&sql), seen);
        }
        fleet.run_round();
        fleet_events.extend(fleet.drain_journal().into_iter().map(|r| r.event));

        let episode = w as usize * cfg.episodes_per_slice;
        if episode < spec.episodes {
            let end = (episode + cfg.episodes_per_slice).min(spec.episodes);
            service
                .advisor_mut()
                .train_episodes_from(episode, end, |_| {}, |_, _, _| {});
        }
        let report = service.end_window();
        assert_ne!(
            report.mix_used.unwrap(),
            service.advisor().env.workload.uniform_frequencies(),
            "the window closed on the observed mix"
        );
        service_events.extend(report.events.into_iter().map(|e| match e {
            ServiceEvent::Guardrail(event) => event,
            other => panic!("a busy window produced {other:?}"),
        }));
        service.probe(cfg.probe_queries);
        service.cluster_mut().advance_clock(cfg.window_seconds);
    }
    assert_eq!(fleet_events, service_events);
    assert!(
        fleet_events
            .iter()
            .any(|e| matches!(e, GuardrailEvent::CanaryStarted { .. })),
        "ten skewed windows never staged a candidate — the comparison is vacuous"
    );
    let tenant = fleet.tenant_service(0).unwrap();
    assert_eq!(
        tenant.cluster().deployed().physical_key(),
        service.cluster().deployed().physical_key()
    );
    assert_eq!(
        tenant.advisor().weight_fingerprint(),
        service.advisor().weight_fingerprint()
    );
    assert_eq!(
        tenant.cluster().clock().to_bits(),
        service.cluster().clock().to_bits()
    );
    assert_eq!(
        tenant.guardrail().accounting(),
        service.guardrail().accounting()
    );
}

/// Everything the SQL path can move, as raw bits, for both tenants of
/// [`sql_fleet`].
fn sql_fingerprint(fleet: &Fleet) -> Vec<(TenantFp, Vec<u64>, Vec<u64>, u64)> {
    fingerprints(fleet)
        .into_iter()
        .enumerate()
        .map(|(t, fp)| {
            let service = fleet.tenant_service(t).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let forecaster = service.forecaster();
            (
                fp,
                bits(forecaster.level()),
                bits(forecaster.trend()),
                service.guardrail().accounting().windows,
            )
        })
        .collect()
}

const SQL_ROUNDS: u64 = 8;
/// The victim dies in the middle of this round's window.
const SQL_KILL_ROUND: u64 = 5;
/// A join shape SSB does not have: with no reserved slot and the default
/// threshold of two it stays quarantined forever — pending state that has
/// to survive the checkpoint too.
const UNKNOWN_SQL: &str = "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city";

/// What tenant 0 observes in window `w`: the skewed known traffic plus one
/// statement of the unknown shape.
fn window_sql(w: u64) -> Vec<String> {
    let mut sql = skewed_window(w);
    sql.insert(1, UNKNOWN_SQL.to_string());
    sql
}

/// Tenant 0 sees SQL, tenant 1 (same benchmark) never does.
fn sql_specs() -> Vec<TenantSpec> {
    vec![
        sql_spec(),
        TenantSpec {
            name: "quiet".into(),
            seed: 4_243,
            ..sql_spec()
        },
    ]
}

fn sql_fleet(dir: &Path) -> CheckpointedFleet {
    let cfg = FleetConfig {
        seed: fleet_seed(),
        max_tenants: 2,
        ..FleetConfig::default()
    };
    // No cadence checkpoints: the only one is the victim's, mid-window.
    let mut fleet = CheckpointedFleet::create(cfg, dir, u64::MAX).unwrap();
    for spec in sql_specs() {
        fleet.admit(spec).unwrap();
    }
    fleet
}

fn feed(fleet: &mut CheckpointedFleet, sql: &[String]) {
    for statement in sql {
        fleet.fleet_mut().observe_sql(0, statement).unwrap();
    }
}

fn sql_path_at(threads: usize) -> Vec<(TenantFp, Vec<u64>, Vec<u64>, u64)> {
    lpa::par::with_threads(threads, || {
        let dir_ref = test_dir("sql-ref", threads);
        let mut reference = sql_fleet(&dir_ref);
        for w in 0..SQL_ROUNDS {
            feed(&mut reference, &window_sql(w));
            reference.run_round();
        }
        let fp_ref = sql_fingerprint(reference.fleet());

        // The SQL tenant decided on what it observed, the quiet one on the
        // uniform mix — which never went through its forecaster.
        let horizon = ServiceConfig::default().forecast_horizon;
        let seen = reference.fleet().tenant_service(0).unwrap();
        assert_eq!(seen.forecaster().windows_seen(), SQL_ROUNDS);
        let mix = seen.forecaster().forecast(horizon).unwrap();
        let uniform = seen.advisor().env.workload.uniform_frequencies();
        assert_ne!(mix, uniform);
        assert_eq!(
            mix.as_slice().iter().filter(|f| **f > 0.0).count(),
            2,
            "two of thirteen queries carry the whole mix: {mix:?}"
        );
        let quiet = reference.fleet().tenant_service(1).unwrap();
        assert_eq!(quiet.forecaster().windows_seen(), 0);
        assert_ne!(
            fp_ref[0].0.weights, fp_ref[1].0.weights,
            "different seeds, different tenants"
        );

        // Victim: killed mid-window, after half of round 5's statements.
        let dir_kill = test_dir("sql-kill", threads);
        let mut half_window = window_sql(SQL_KILL_ROUND);
        let rest = half_window.split_off(4);
        {
            let mut victim = sql_fleet(&dir_kill);
            for w in 0..SQL_KILL_ROUND {
                feed(&mut victim, &window_sql(w));
                victim.run_round();
            }
            feed(&mut victim, &half_window);
            victim.checkpoint_now();
        } // <- process dies with the window open

        let cfg = reference.fleet().config().clone();
        let mut resumed =
            CheckpointedFleet::resume_or(cfg, sql_specs(), &dir_kill, u64::MAX).unwrap();
        assert_eq!(resumed.fleet().round(), SQL_KILL_ROUND);
        let monitor = resumed.fleet().tenant_service(0).unwrap().monitor();
        assert_eq!(monitor.window_total(), half_window.len() as u64);
        assert_eq!(
            monitor
                .pending()
                .iter()
                .map(|(_, n)| *n)
                .collect::<Vec<_>>(),
            vec![SQL_KILL_ROUND + 1],
            "the quarantined query and its count survived"
        );
        feed(&mut resumed, &rest);
        resumed.run_round();
        for w in SQL_KILL_ROUND + 1..SQL_ROUNDS {
            feed(&mut resumed, &window_sql(w));
            resumed.run_round();
        }
        assert_eq!(
            sql_fingerprint(resumed.fleet()),
            fp_ref,
            "the mid-window kill/resume diverged (threads={threads})"
        );
        assert_eq!(resumed.report().store.restores, 2);

        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir_kill);
        fp_ref
    })
}

/// A tenant fed SQL closes its windows on the observed mix, bit-identically
/// at `LPA_THREADS={1,8}` and across a kill/resume taken mid-window.
#[test]
fn sql_fed_tenant_is_bit_identical_across_threads_and_mid_window_resume() {
    let reference = sql_path_at(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            sql_path_at(threads),
            reference,
            "SQL path diverged between {} and {threads} threads",
            THREAD_COUNTS[0]
        );
    }
}

// ---------------------------------------------------------------------------
// Pinned-fleet golden: the slice loop's observable output, captured at the
// commit before fleet tenants became `PartitioningService`s.

/// SSB + TPC-CH tenants, default `FleetConfig`, 8 rounds. Every input is a
/// constant; regenerate (only with a change that explains the drift) via
/// `LPA_UPDATE_GOLDEN=1 cargo test --test fleet pinned_fleet`.
fn pinned_fleet() -> Fleet {
    let mut fleet = Fleet::new(FleetConfig::default());
    for (i, benchmark) in [Benchmark::Ssb, Benchmark::TpcCh].into_iter().enumerate() {
        let spec = TenantSpec::new(format!("pinned-{i}"), benchmark, 0.001, 77 + i as u64);
        fleet.admit(spec).unwrap();
    }
    fleet.run_rounds(8);
    fleet
}

#[test]
fn pinned_fleet_matches_golden() {
    let mut fleet = pinned_fleet();
    let report = fleet.report();
    let g = report.guardrail;
    let mut rendered = String::new();
    for t in 0..fleet.tenant_count() {
        let fp = fleet.tenant_weight_fingerprint(t).unwrap();
        rendered.push_str(&format!("tenant {t} weights {fp:016x}\n"));
    }
    rendered.push_str(&format!(
        "guardrail {g:?}\ndeploy_seconds_bits {:016x}\nrollback_seconds_bits {:016x}\n",
        g.deploy_seconds.to_bits(),
        g.rollback_seconds.to_bits()
    ));
    rendered.push_str(&format!(
        "journal_records {}\n",
        fleet.drain_journal().len()
    ));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pinned_fleet.txt");
    if std::env::var_os("LPA_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{} missing — run with LPA_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "pinned fleet drifted — regenerate with LPA_UPDATE_GOLDEN=1 only \
         together with the change that explains it"
    );
}

/// A tenant that never saw SQL pays for being a service with the monitor
/// and forecaster vectors (88 + 24 bytes per workload slot) and nothing
/// else — and format v3 packs table states into `u32` words, which more
/// than pays for them: the encoded checkpoint must not outgrow what the
/// same tenants encoded to at the parent commit (format v2, measured there
/// on this very fleet at round 8; `lpa-perf`'s `fleet_durable` fails on any
/// rise in bytes on disk), let alone by the 2 % the merge was allowed.
#[test]
fn sql_less_tenant_checkpoint_does_not_outgrow_format_v2() {
    const PARENT_BYTES: [usize; 2] = [30_342, 61_854];
    let fleet = pinned_fleet();
    for (tenant, parent) in PARENT_BYTES.into_iter().enumerate() {
        let snapshot = capture_tenant(&fleet, tenant, fleet.round()).unwrap();
        let bytes = encode_checkpoint(&Checkpoint::Tenant(snapshot)).len();
        assert!(
            bytes <= parent && bytes * 100 >= parent * 95,
            "tenant {tenant}: {bytes} bytes vs {parent} at the parent commit"
        );
    }
}

// ---------------------------------------------------------------------------
// Shared substrate (DESIGN.md §16): same-spec tenants hold one generated
// database and one clean-execution memo. Sharing must be invisible to every
// tenant, a tenant whose data grows must leave alone, and nothing of it may
// outlive the fleet.

use lpa::cluster::{GuardrailAccounting, SubstrateStats};
use lpa::service::JournalRecord;
use lpa::store::restore_tenant;
use std::sync::Arc;

const SHARED_ROUNDS: u64 = 6;

fn ssb_tenant(i: usize) -> TenantSpec {
    TenantSpec {
        episodes: 4,
        ..TenantSpec::new(format!("shared-{i}"), Benchmark::Ssb, 0.001, 310 + i as u64)
    }
}

/// Tenant 0 plus three neighbours on its database, one of them in a storm.
fn sharing_specs() -> Vec<TenantSpec> {
    let mut specs: Vec<TenantSpec> = (0..4).map(ssb_tenant).collect();
    specs[2].fault_plan = FaultPlan::storm(0x5700);
    specs
}

/// Tenant 0 alone on its database: no neighbour has its `(benchmark, scale)`.
fn solitary_specs() -> Vec<TenantSpec> {
    let mut specs = sharing_specs();
    specs[1].benchmark = Benchmark::TpcCh;
    specs[2].scale = 0.002;
    specs[3] = TenantSpec {
        episodes: 4,
        ..TenantSpec::new("shared-3", Benchmark::Micro, 0.01, 313)
    };
    specs
}

fn shared_cfg() -> FleetConfig {
    FleetConfig {
        seed: fleet_seed(),
        ..FleetConfig::default()
    }
}

fn shared_fleet(specs: Vec<TenantSpec>) -> Fleet {
    let mut fleet = Fleet::new(shared_cfg());
    for spec in specs {
        fleet.admit(spec).unwrap();
    }
    fleet
}

/// Everything a neighbour could perturb in one tenant, as raw bits.
type Observed = (TenantFp, u64, GuardrailAccounting, Vec<JournalRecord>);

fn observed(fleet: &Fleet, journal: &[JournalRecord], tenant: usize) -> Observed {
    let service = fleet.tenant_service(tenant).unwrap();
    (
        fingerprints(fleet).swap_remove(tenant),
        service.cluster().queries_executed(),
        service.guardrail().accounting(),
        journal
            .iter()
            .filter(|r| r.tenant == tenant as u64)
            .cloned()
            .collect(),
    )
}

fn pool_stats(fleet: &Fleet) -> Vec<SubstrateStats> {
    fleet.substrates().iter().map(|row| row.stats).collect()
}

/// The pool of a [`sharing_specs`] fleet that has not executed anything:
/// one database, four clusters on it, SSB's five tables laid out once on
/// their initial keys, an empty memo and arenas that never grew.
fn cold_pool() -> [SubstrateStats; 1] {
    [SubstrateStats {
        clusters_attached: 4,
        layout_entries: 5,
        ..SubstrateStats::default()
    }]
}

#[test]
fn sharing_a_substrate_is_invisible_to_the_tenant() {
    let mut sharing = shared_fleet(sharing_specs());
    let mut solitary = shared_fleet(solitary_specs());
    let attached = |fleet: &Fleet| -> Vec<usize> {
        pool_stats(fleet)
            .iter()
            .map(|s| s.clusters_attached)
            .collect()
    };
    assert_eq!(attached(&sharing), [4], "one database, generated once");
    assert_eq!(attached(&solitary), [1, 1, 1, 1]);
    let substrate =
        |fleet: &Fleet, t: usize| Arc::clone(fleet.tenant_cluster(t).unwrap().substrate());
    for t in 1..4 {
        assert!(Arc::ptr_eq(
            &substrate(&sharing, 0),
            &substrate(&sharing, t)
        ));
        assert!(!Arc::ptr_eq(
            &substrate(&solitary, 0),
            &substrate(&solitary, t)
        ));
    }

    sharing.run_rounds(SHARED_ROUNDS);
    solitary.run_rounds(SHARED_ROUNDS);
    let (journal, journal_alone) = (sharing.drain_journal(), solitary.drain_journal());
    let got = observed(&sharing, &journal, 0);
    let want = observed(&solitary, &journal_alone, 0);
    assert_eq!(
        got, want,
        "three neighbours on tenant 0's substrate, one of them in a storm, changed what it did"
    );
    assert!(
        got.2.canaries_started > 0 && !got.3.is_empty(),
        "tenant 0 never staged a canary — the comparison skips the guardrail's windows"
    );
    // ... while the neighbours did answer each other's executions.
    let shared = pool_stats(&sharing)[0];
    let alone = pool_stats(&solitary)[0];
    assert!(
        shared.memo_hits > alone.memo_hits && shared.memo_entries >= alone.memo_entries,
        "sharing removed no execution: {shared:?} vs {alone:?}"
    );
}

/// Run `query` of the tenant's workload on a fresh observer cluster attached
/// to `substrate` under the initial layout; the runtime as bits.
fn observer_runtime(fleet: &Fleet, substrate: &Arc<lpa::cluster::Substrate>, query: usize) -> u64 {
    let mut observer = Cluster::on_substrate(Arc::clone(substrate));
    let query = &fleet.tenant_workload(0).unwrap().queries()[query];
    observer.run_query(query, None).seconds().to_bits()
}

#[test]
fn a_tenant_whose_data_grows_leaves_the_shared_substrate_alone() {
    const GROW_AT: u64 = 3;
    const GROWN: usize = 1;
    let mut control = shared_fleet(sharing_specs());
    let mut fleet = shared_fleet(sharing_specs());
    control.run_rounds(SHARED_ROUNDS);
    fleet.run_rounds(GROW_AT);

    let pooled = Arc::clone(fleet.tenant_cluster(0).unwrap().substrate());
    let before = observer_runtime(&fleet, &pooled, 0);

    // A bulk update on a cluster of the pooled substrate moves that
    // cluster, and nobody else, onto a private one.
    let mut loader = Cluster::on_substrate(Arc::clone(&pooled));
    assert_eq!(pooled.stats().clusters_attached, 5);
    loader.bulk_update(0.25);
    assert!(!Arc::ptr_eq(loader.substrate(), &pooled));
    assert_eq!(pooled.stats().clusters_attached, 4);
    assert_eq!(loader.substrate().stats().memo_entries, 0);

    // The fleet's way to the same place: a tenant restored from a
    // checkpoint taken after its data grew.
    let mut snapshot = capture_tenant(&fleet, GROWN, fleet.round()).unwrap();
    for g in &mut snapshot.service.cluster.growth {
        *g += 0.25;
    }
    snapshot.service.cluster.stats_epoch += 1;
    restore_tenant(&mut fleet, snapshot).unwrap();
    assert_eq!(pooled.stats().clusters_attached, 3);
    for t in 0..4 {
        let substrate = fleet.tenant_cluster(t).unwrap().substrate();
        assert_eq!(Arc::ptr_eq(substrate, &pooled), t != GROWN, "tenant {t}");
    }
    let grown = fleet.tenant_cluster(GROWN).unwrap();
    assert!(
        grown.schema().table(lpa::schema::TableId(0)).rows
            > pooled.schema().table(lpa::schema::TableId(0)).rows
    );
    assert_eq!(grown.substrate().stats().clusters_attached, 1);
    assert_eq!(
        observer_runtime(&fleet, &pooled, 0),
        before,
        "the pooled data moved under the tenants that stayed"
    );

    fleet.run_rounds(SHARED_ROUNDS - GROW_AT);
    let (journal, journal_ctl) = (fleet.drain_journal(), control.drain_journal());
    for t in 0..4 {
        let same = observed(&fleet, &journal, t) == observed(&control, &journal_ctl, t);
        assert_eq!(
            same,
            t != GROWN,
            "tenant {t} vs the fleet where nothing grew"
        );
    }
}

#[test]
fn nothing_of_the_memo_outlives_its_fleet() {
    let run = || {
        let mut fleet = shared_fleet(sharing_specs());
        let cold = pool_stats(&fleet);
        fleet.run_rounds(2);
        (cold, pool_stats(&fleet))
    };
    let (cold, warm) = run();
    assert_eq!(cold, cold_pool());
    assert!(warm[0].memo_hits > 0 && warm[0].memo_misses > 0, "{warm:?}");
    // The same fleet again, same process: it starts as cold as the first
    // and has to execute exactly as much.
    assert_eq!(run(), (cold, warm));
}

/// ISSUE 19: the executor arenas keep their high-water mark, and that mark
/// stays below what the widest join alone used to pin — one provenance id
/// per query table for every row of its result.
#[test]
fn executor_arenas_stay_below_one_full_width_join_result() {
    let mut fleet = Fleet::new(shared_cfg());
    let spec = TenantSpec {
        episodes: 4,
        ..TenantSpec::new("wide", Benchmark::TpcCh, 0.001, 319)
    };
    fleet.admit(spec).unwrap();
    assert_eq!(pool_stats(&fleet)[0].scratch_bytes, 0, "nothing ran yet");
    fleet.run_rounds(1);
    let held = pool_stats(&fleet)[0].scratch_bytes;

    // Join results are placement independent, so a private observer on
    // the initial layout sees the sizes the tenant's round produced.
    let cluster = fleet.tenant_cluster(0).unwrap();
    let mut observer = Cluster::new(cluster.schema().clone(), *cluster.config());
    let full_width = (fleet.tenant_workload(0).unwrap().queries().iter())
        .map(|q| match observer.run_query(q, None) {
            QueryOutcome::Completed { output_rows, .. } => {
                output_rows as usize * q.tables.len() * std::mem::size_of::<u32>()
            }
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => 0,
        })
        .max()
        .unwrap();
    assert!(
        0 < held && held < full_width,
        "arenas hold {held} B, the widest join result alone is {full_width} B"
    );
    // The mark only moves up, and a repeat of the same work leaves it alone.
    fleet.run_rounds(1);
    assert!(pool_stats(&fleet)[0].scratch_bytes >= held);
}

/// Kill inside an open canary window: the resumed fleet rebuilds the pool
/// from the specs with its memo cold, and still finishes bit-identical to
/// the fleet that never died with its memo warm.
#[test]
fn mid_canary_resume_with_a_cold_memo_is_bit_identical() {
    let start = |dir: &Path| {
        let mut fleet = CheckpointedFleet::create(shared_cfg(), dir, 1).unwrap();
        for spec in sharing_specs() {
            fleet.admit(spec).unwrap();
        }
        fleet
    };
    let canaries_open = |fleet: &Fleet| {
        (0..fleet.tenant_count())
            .filter(|&t| fleet.tenant_service(t).unwrap().guardrail().canary_open())
            .count()
    };
    let dir_ref = test_dir("memo-ref", 0);
    let mut reference = start(&dir_ref);
    reference.run_rounds(SHARED_ROUNDS);

    let dir_kill = test_dir("memo-kill", 0);
    let mut victim = start(&dir_kill);
    let mut killed_at = 0;
    while canaries_open(victim.fleet()) == 0 {
        assert!(killed_at < SHARED_ROUNDS, "no canary ever opened");
        victim.run_round();
        killed_at += 1;
    }
    assert!(pool_stats(victim.fleet())[0].memo_entries > 0);
    drop(victim); // <- process dies, the pool and its memo with it

    let mut resumed =
        CheckpointedFleet::resume_or(shared_cfg(), sharing_specs(), &dir_kill, 1).unwrap();
    assert_eq!(resumed.fleet().round(), killed_at);
    assert!(
        canaries_open(resumed.fleet()) > 0,
        "the open canary did not survive"
    );
    // A tenant restored mid-canary may sit on a layout the initial
    // deployment never computed; everything else is as cold as day one.
    let restored = pool_stats(resumed.fleet())[0];
    assert!(restored.layout_entries >= 5, "{restored:?}");
    assert_eq!(
        [SubstrateStats {
            layout_entries: 5,
            ..restored
        }],
        cold_pool(),
        "one database generated for four restored tenants, nothing executed yet"
    );
    resumed.run_rounds(SHARED_ROUNDS - killed_at);
    assert_eq!(
        fingerprints(resumed.fleet()),
        fingerprints(reference.fleet())
    );
    assert_eq!(
        resumed.journal().unwrap().replay().unwrap(),
        reference.journal().unwrap().replay().unwrap()
    );

    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_kill);
}
