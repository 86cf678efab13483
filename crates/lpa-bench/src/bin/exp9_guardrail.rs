//! Experiment 9 — safe-deployment guardrails (`lpa-cluster::guardrail`).
//!
//! What does guarding a deploy cost, and how fast does it undo a bad one?
//! Two identical fleets run side by side: one guarded (canary windows,
//! observed-regression rollback, budgets), one with the inert guardrail
//! (the legacy deploy-on-predicted-improvement control). A subset of
//! tenants is fed adversarially poisoned advice with fabricated predicted
//! benefit. Reported:
//!
//! - **rollback latency** — windows from `CanaryStarted` to `RolledBack`
//!   per poisoned deploy, from the deployment journal (the guardrail's
//!   reaction time to a regression it can only see in observed runtimes);
//! - **poison containment** — how many poisoned deploys each arm ends up
//!   committing (the inert arm commits them all, by construction);
//! - **deploy-budget overhead** — the extra *simulated* seconds the
//!   guarded arm's canary observations charge.
//!
//! Everything reported is simulated-clock data, so the result file is
//! byte-reproducible; the wall-clock price of a canary window is
//! `lpa-perf`'s `guardrail.observe_window_ms` and
//! `service.canary_{close_ms,window_share}`.

use lpa_bench::{bar, figure, save_json, SeededChaos};
use lpa_cluster::{GuardrailAccounting, GuardrailConfig, GuardrailEvent};
use lpa_service::{Benchmark, Fleet, FleetConfig, JournalRecord, TenantSpec};
use serde_json::json;

const TENANTS: usize = 32;
const ROUNDS: u64 = 12;
/// Every fourth tenant turns adversarial after its genuine phase.
const POISON_STRIDE: usize = 4;
const POISON_FROM: u64 = 3;

fn guard_seed() -> u64 {
    std::env::var("LPA_GUARD_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x6A7D)
}

fn cfg(guardrail: GuardrailConfig) -> FleetConfig {
    FleetConfig {
        seed: guard_seed(),
        max_tenants: TENANTS,
        guardrail,
        ..FleetConfig::default()
    }
}

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

fn specs() -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let mut spec = TenantSpec::new(
                format!("tenant-{i:03}"),
                Benchmark::Ssb,
                0.001,
                900 + i as u64,
            );
            spec.episodes = 2;
            spec
        })
        .collect()
}

/// Every `POISON_STRIDE`-th tenant is fed poisoned advice from
/// `POISON_FROM` on.
fn poison() -> SeededChaos {
    (0..TENANTS)
        .step_by(POISON_STRIDE)
        .fold(SeededChaos::new(guard_seed()), |chaos, tenant| {
            chaos.poison(tenant, POISON_FROM)
        })
}

/// Run one arm to completion, returning (merged ledger, journal, total
/// simulated seconds across tenant clusters).
fn run_arm(guardrail: GuardrailConfig) -> (GuardrailAccounting, Vec<JournalRecord>, f64) {
    let mut fleet = Fleet::new(cfg(guardrail));
    fleet.set_hook(Box::new(poison()));
    for spec in specs() {
        fleet.admit(spec).unwrap();
    }
    fleet.run_rounds(ROUNDS);
    let journal = fleet.drain_journal();
    let simulated: f64 = (0..fleet.tenant_count())
        .map(|t| fleet.tenant_cluster(t).unwrap().clock())
        .sum();
    (fleet.report().guardrail, journal, simulated)
}

/// Per-poisoned-deploy latency (windows from stage to rollback), total
/// poison-phase commits, and — the guardrail's contract — how many of
/// those commits were *observed regressions* past `threshold` (must be
/// zero in the guarded arm; a poison that does not actually slow the
/// workload down is allowed to commit).
fn poison_outcomes(journal: &[JournalRecord], threshold: f64) -> (Vec<u64>, u64, u64) {
    let mut latencies = Vec::new();
    let mut committed = 0u64;
    let mut regressions_committed = 0u64;
    for tenant in (0..TENANTS).step_by(POISON_STRIDE) {
        let mut open = None;
        for rec in journal
            .iter()
            .filter(|r| r.tenant == tenant as u64 && r.round >= POISON_FROM)
        {
            match rec.event {
                GuardrailEvent::CanaryStarted { window, .. } => open = Some(window),
                GuardrailEvent::RolledBack { window, .. } => {
                    if let Some(staged) = open.take() {
                        latencies.push(window - staged);
                    }
                }
                GuardrailEvent::Committed {
                    mean_observed,
                    baseline_seconds,
                    ..
                } => {
                    committed += 1;
                    if baseline_seconds > 0.0
                        && mean_observed > baseline_seconds * (1.0 + threshold)
                    {
                        regressions_committed += 1;
                    }
                }
                _ => {}
            }
        }
    }
    (latencies, committed, regressions_committed)
}

fn main() {
    figure(
        "Exp. 9",
        "safe-deployment guardrails — rollback latency, poison containment, budget overhead",
    );

    let (inert_ledger, inert_journal, inert_sim) = run_arm(GuardrailConfig::inert());
    let (guard_ledger, guard_journal, guard_sim) = run_arm(guarded());

    let threshold = guarded().regression_threshold;
    let (latencies, guarded_commits, guarded_regression_commits) =
        poison_outcomes(&guard_journal, threshold);
    let (_, inert_commits, _) = poison_outcomes(&inert_journal, threshold);
    let mean_latency = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let max_latency = latencies.iter().copied().max().unwrap_or(0);

    assert!(
        guard_ledger.rollbacks_regression > 0,
        "the poison never tripped an observed-regression rollback"
    );
    assert_eq!(
        guarded_regression_commits, 0,
        "the guarded arm committed an observed regression"
    );
    assert!(
        inert_commits > 0,
        "the inert arm should commit the poison it cannot observe"
    );

    bar("rollback latency (mean)", mean_latency, "windows");
    bar("rollback latency (max)", max_latency as f64, "windows");
    bar(
        "poisoned deploys rolled back",
        latencies.len() as f64,
        "deploys",
    );
    bar(
        "poisoned deploys committed (inert arm)",
        inert_commits as f64,
        "deploys",
    );
    let sim_overhead_pct = (guard_sim / inert_sim - 1.0) * 100.0;
    bar(
        "guarded simulated-clock overhead",
        sim_overhead_pct,
        "% vs inert",
    );

    save_json(
        "exp9_guardrail",
        &json!({
            "tenants": TENANTS,
            "rounds": ROUNDS,
            "seed": guard_seed(),
            "poisoned_tenants": TENANTS / POISON_STRIDE,
            "rollback_latency_windows": json!({
                "mean": mean_latency,
                "max": max_latency,
                "samples": latencies,
            }),
            "guarded": json!({
                "canaries_started": guard_ledger.canaries_started,
                "commits": guard_ledger.commits,
                "rollbacks_regression": guard_ledger.rollbacks_regression,
                "rollbacks_degraded": guard_ledger.rollbacks_degraded,
                "rejected_cooldown": guard_ledger.rejected_cooldown,
                "rejected_budget": guard_ledger.rejected_budget,
                "poison_commits": guarded_commits,
                "poison_regression_commits": guarded_regression_commits,
                "simulated_seconds": guard_sim,
            }),
            "inert": json!({
                "canaries_started": inert_ledger.canaries_started,
                "commits": inert_ledger.commits,
                "poison_commits": inert_commits,
                "simulated_seconds": inert_sim,
            }),
            "simulated_overhead_pct": sim_overhead_pct,
        }),
    );
}
