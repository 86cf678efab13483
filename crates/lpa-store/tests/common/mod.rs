//! Constructions shared by the corruption harness and the golden-byte
//! tests: the two-tenant micro fleet and one journal record of every event
//! shape.

use lpa_cluster::{GuardrailEvent, LayoutDigest, RejectReason, RollbackReason, WindowObservation};
use lpa_service::{Benchmark, FleetConfig, JournalRecord, TenantSpec};

/// A fleet of two Micro tenants. The v2–v4 tenant fixtures were captured
/// from a tenant shaped like the first.
pub fn micro_cfg() -> FleetConfig {
    FleetConfig {
        max_tenants: 2,
        ..FleetConfig::default()
    }
}

pub fn micro_specs() -> Vec<TenantSpec> {
    ["fixture", "neighbour"]
        .into_iter()
        .zip([7, 8])
        .map(|(name, seed)| TenantSpec {
            episodes: 2,
            ..TenantSpec::new(name, Benchmark::Micro, 0.01, seed)
        })
        .collect()
}

/// One record of every event shape the journal codec knows.
pub fn journal_records() -> Vec<JournalRecord> {
    let digest = |tables: &[u64], edges: &[bool]| LayoutDigest {
        tables: tables.to_vec(),
        edges: edges.to_vec(),
    };
    let events = vec![
        GuardrailEvent::KeptCurrent {
            window: 1,
            benefit_per_run: 0.1,
            repartition_cost: 9.0,
        },
        GuardrailEvent::StageRejected {
            window: 2,
            reason: RejectReason::FleetBudget,
        },
        GuardrailEvent::CanaryStarted {
            window: 3,
            candidate: digest(&[0, 2, 1], &[true, false]),
            previous: digest(&[1, 0, 1], &[false, false]),
            baseline_seconds: 1.5,
            benefit_per_run: 0.25,
            repartition_cost: 3.0,
        },
        GuardrailEvent::CanaryObserved {
            window: 4,
            observed: WindowObservation {
                weighted_seconds: 2.25,
                clean: 7,
                degraded: 1,
                failed: 0,
            },
        },
        GuardrailEvent::CanaryExtended {
            window: 5,
            inconclusive: 2,
        },
        GuardrailEvent::Committed {
            window: 6,
            mean_observed: 1.0,
            baseline_seconds: 1.25,
        },
        GuardrailEvent::RolledBack {
            window: 7,
            reason: RollbackReason::ObservedRegression,
            mean_observed: 4.0,
            baseline_seconds: 1.0,
            rollback_seconds: 2.5,
            restored: digest(&[3, 0], &[true]),
        },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| JournalRecord {
            tenant: i as u64 % 3,
            round: 1 + i as u64 / 2,
            event,
        })
        .collect()
}
