//! Multi-tenant fleet demo: one process advising many databases.
//!
//! Builds a durable [`CheckpointedFleet`] with seven tenant specs under a
//! six-tenant admission budget (the seventh is rejected), one of them a
//! "storm" tenant whose cluster runs a seeded fault storm *and* whose
//! slices fail with injected step errors — it gets quarantined, cools
//! down, and rejoins without ever touching its neighbours. Halfway
//! through, the process "crashes" (the fleet is dropped) and
//! [`CheckpointedFleet::resume_or`] rebuilds everything from the manifest
//! and the segment file it commits, bit-identical, to finish the run.
//!
//! Run with: `cargo run --release --example fleet_demo`

use lpa::prelude::*;
use lpa::store::CheckpointedFleet;
use lpa_bench::SeededChaos;

/// Seven specs against a budget of six: admission control rejects the last.
fn specs() -> Vec<TenantSpec> {
    (0..7)
        .map(|i| {
            let bench = if i % 2 == 0 {
                Benchmark::Ssb
            } else {
                Benchmark::TpcCh
            };
            let mut spec = TenantSpec::new(format!("tenant-{i}"), bench, 0.001, 1000 + i);
            spec.episodes = 4;
            if i == 2 {
                // The problem tenant: seeded fault storm on its cluster
                // (plus injected step errors on its slices, see `chaos`).
                // Its chaos is salted per tenant, so it is bit-neutral for
                // everyone else.
                spec.fault_plan = FaultPlan::storm(0xBAD_5EED);
            }
            spec
        })
        .collect()
}

fn config() -> FleetConfig {
    FleetConfig {
        seed: 0xF1EE7D,
        max_tenants: 6,
        quarantine: QuarantinePolicy {
            max_errors: 0, // quarantine on the first error
            cooldown_rounds: 1,
        },
        ..FleetConfig::default()
    }
}

/// Injected step errors on the problem tenant's slices. The hook is pure
/// in `(seed, tenant, round)` and not checkpointed: the resumed fleet gets
/// the same one installed again.
fn chaos() -> Box<SeededChaos> {
    Box::new(SeededChaos::new(config().seed).step_errors(2, 0.5))
}

fn report_fingerprints(report: &FleetReport) -> Vec<u64> {
    report
        .per_tenant
        .iter()
        .map(|t| t.weight_fingerprint)
        .collect()
}

fn print_report(when: &str, report: &FleetReport) {
    println!(
        "\n[{when}] round {}, {} tenant(s), {} quarantined, {} admission(s) rejected",
        report.round,
        report.per_tenant.len(),
        report.quarantined,
        report.rejected_admissions
    );
    for t in &report.per_tenant {
        let status = match t.status {
            TenantStatus::Active => "active".to_string(),
            TenantStatus::Quarantined { until_round } => {
                format!("quarantined until round {until_round}")
            }
        };
        println!(
            "  {:>9}  ep {}/4  slices {:>2} run / {} skipped  errors {}  quarantines {} (rejoins {})  deploys {}  weights {:016x}  [{status}]",
            t.name,
            t.episode,
            t.counters.slices_run,
            t.counters.slices_skipped,
            t.counters.step_errors,
            t.counters.quarantines,
            t.counters.rejoins,
            t.counters.deployments,
            t.weight_fingerprint,
        );
    }
    let s = &report.store;
    println!(
        "  store: {} checkpoint(s) written, {} corruption(s) detected, {} restore(s), {} manifest fallback(s)",
        s.checkpoints_written, s.corruptions_detected, s.restores, s.manifest_fallbacks
    );
}

/// One line per distinct tenant database: how many clusters share it, how
/// many executions its memo answered instead of the executor, how many
/// skipped the memo and why, how many hashed layouts it computed and the
/// most one execution held in an executor arena.
fn print_substrates(fleet: &Fleet) {
    for row in fleet.substrates() {
        let s = row.stats;
        println!(
            "  substrate {:?} @ {}: {} cluster(s) attached, {} of {} clean executions answered by the memo ({} entries), {} degraded and {} timed executions past it, {} layouts, at most {} KiB of executor arenas per execution",
            row.benchmark,
            row.scale,
            s.clusters_attached,
            s.memo_hits,
            s.memo_hits + s.memo_misses,
            s.memo_entries,
            s.bypassed_degraded,
            s.bypassed_timed,
            s.layout_entries,
            s.scratch_bytes / 1024,
        );
    }
}

fn main() {
    let root = std::env::temp_dir().join(format!("lpa-fleet-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Phase 1: admit and run the first half, checkpointing every 2 rounds.
    let mut fleet = CheckpointedFleet::create(config(), &root, 2).expect("fleet root");
    fleet.fleet_mut().set_hook(chaos());
    for spec in specs() {
        match fleet.admit(spec) {
            Ok(id) => println!("admitted tenant {id}"),
            Err(e) => println!("admission rejected: {e}"),
        }
    }
    fleet.run_rounds(4);
    print_report("before crash", &fleet.report());
    print_substrates(fleet.fleet());
    let fingerprints = report_fingerprints(&fleet.report());
    drop(fleet); // the "crash": nothing survives but the files under `root`

    // Phase 2: a fresh process resumes the whole fleet from disk —
    // scheduler round, admission counters, every tenant's training state —
    // and finishes the run.
    let mut fleet = CheckpointedFleet::resume_or(config(), specs(), &root, 2).expect("resume");
    fleet.fleet_mut().set_hook(chaos());
    assert_eq!(
        report_fingerprints(&fleet.report()),
        fingerprints,
        "resume restores every tenant's weights bit-identically"
    );
    println!(
        "\nresumed at round {} — weights bit-identical",
        fleet.fleet().round()
    );
    fleet.run_rounds(4);
    print_report("after resume", &fleet.report());
    // The pool is rebuilt from the specs on resume, so these counts start
    // at the resumed round.
    print_substrates(fleet.fleet());

    let _ = std::fs::remove_dir_all(&root);
}
