//! Corruption-injection harness: every way a checkpoint file can go bad on
//! disk must be *detected* (CRC / length / tag checks), *rejected* (a
//! `StoreError`, never a panic — this is the recovery path, lint L001
//! applies to the library code behind it), and *recovered from* (the store
//! falls back to the last good file, and says so in its counters).
//!
//! Faults injected: truncation at every prefix length and a bit flip at
//! every bit — of a checkpoint file *and* of the deployment journal —, a
//! torn rename (stray `*.tmp` left mid-write), a corrupt newest checkpoint
//! with a healthy predecessor, checkpoints written by earlier format
//! versions, and a CRC-valid checkpoint whose payload spells a malformed
//! query.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa_advisor::Advisor;
use lpa_cluster::{GuardrailEvent, LayoutDigest, RejectReason, RollbackReason, WindowObservation};
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_rl::DqnConfig;
use lpa_service::{Benchmark, FleetConfig, JournalRecord, TenantSpec, TenantStatus};
use lpa_store::{
    capture_advisor, decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointStore,
    CheckpointedFleet, DeploymentJournal, StoreError, JOURNAL_FILE,
};
use lpa_workload::MixSampler;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lpa-store-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but real checkpoint: trained weights, replay transitions, memo
/// entries — enough structure that every decoder runs.
fn fixture() -> (lpa_schema::Schema, Vec<u8>, Checkpoint) {
    let schema = lpa_schema::microbench::schema(0.05).unwrap();
    let workload = lpa_workload::microbench::workload(&schema).unwrap();
    let cfg = DqnConfig {
        batch_size: 8,
        hidden: vec![12],
        ..DqnConfig::simulation(4, 3)
    }
    .with_seed(11);
    let advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );
    let ck = Checkpoint::Session(capture_advisor(3, &advisor));
    let bytes = encode_checkpoint(&ck);
    (schema, bytes, ck)
}

/// One record of every event shape the journal codec knows.
fn journal_records() -> Vec<JournalRecord> {
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

/// One durable file under the bit-flip / truncation harness: its clean
/// bytes, how many units (checkpoints, journal records) they hold, and the
/// library's way of reading such a file back — which returns how many units
/// survived and panics if a unit it *does* return differs from what was
/// written.
struct Subject {
    name: &'static str,
    bytes: Vec<u8>,
    units: usize,
    read: Reader,
}

type Reader = Box<dyn Fn(&[u8]) -> Result<usize, StoreError>>;

impl Subject {
    /// Damage is detected when the reader refuses the file or hands back
    /// strictly less than was written (an append-only log legitimately
    /// reads as its clean prefix) — never more, never altered, never an I/O
    /// error, never a panic.
    fn assert_detected(&self, damaged: &[u8], what: &str) {
        match (self.read)(damaged) {
            Err(StoreError::Corrupt(_)) | Err(StoreError::Incompatible(_)) => {}
            Err(StoreError::Io(e)) => panic!("{}: {what} surfaced as io: {e}", self.name),
            Ok(units) => assert!(
                units < self.units,
                "{}: {what} went undetected ({units} of {} units read back)",
                self.name,
                self.units
            ),
        }
    }
}

/// `tag` keeps concurrently running tests out of each other's scratch file.
fn subjects(tag: &str) -> Vec<Subject> {
    let (schema, bytes, _) = fixture();
    let checkpoint = Subject {
        name: "checkpoint",
        bytes,
        units: 1,
        read: Box::new(move |bytes| decode_checkpoint(bytes, &schema).map(|_| 1)),
    };

    let records = journal_records();
    let path = test_dir(&format!("journal-{tag}")).join(JOURNAL_FILE);
    DeploymentJournal::open(&path)
        .unwrap()
        .append(&records)
        .unwrap();
    let journal = Subject {
        name: "journal",
        bytes: std::fs::read(&path).unwrap(),
        units: records.len(),
        read: Box::new(move |bytes| {
            std::fs::write(&path, bytes).unwrap();
            let replayed = DeploymentJournal::open(&path)?.replay()?;
            assert_eq!(
                replayed,
                records[..replayed.len().min(records.len())],
                "the journal replayed a record that was never written"
            );
            Ok(replayed.len())
        }),
    };
    vec![checkpoint, journal]
}

#[test]
fn truncation_at_every_length_is_detected() {
    for subject in subjects("truncation") {
        assert_eq!(
            (subject.read)(&subject.bytes).unwrap(),
            subject.units,
            "{} fixture valid",
            subject.name
        );
        for len in 0..subject.bytes.len() {
            subject.assert_detected(&subject.bytes[..len], &format!("truncation at {len}"));
        }
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    for subject in subjects("bit-flip") {
        for byte in 0..subject.bytes.len() {
            for bit in 0..8 {
                let mut evil = subject.bytes.clone();
                evil[byte] ^= 1 << bit;
                subject.assert_detected(&evil, &format!("flip of byte {byte} bit {bit}"));
            }
        }
    }
}

#[test]
fn appended_garbage_is_detected() {
    let (schema, mut bytes, _) = fixture();
    bytes.push(0);
    assert!(decode_checkpoint(&bytes, &schema).is_err());
}

#[test]
fn torn_rename_leaves_the_store_usable() {
    let (schema, bytes, ck) = fixture();
    let dir = test_dir("torn");
    let mut store = CheckpointStore::open(&dir).unwrap();
    store.save(&ck).unwrap();
    // Simulate a crash mid-`atomic_write`: a later checkpoint's temp file
    // exists (partially written) but was never renamed into place.
    std::fs::write(dir.join("ckpt-00000009.lpa.tmp"), &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(store.list().len(), 1, "stray .tmp must not be listed");
    let (seq, loaded) = store.load_latest(&schema).unwrap().unwrap();
    assert_eq!(seq, 3);
    assert_eq!(loaded.kind_name(), "session");
    let c = store.counters();
    assert_eq!(c.checkpoint_corruptions_detected, 0);
    assert_eq!(c.checkpoint_restores, 1);
    assert_eq!(c.checkpoint_fallbacks, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_falls_back_to_last_good() {
    let (schema, _, ck) = fixture();
    let dir = test_dir("fallback");
    let mut store = CheckpointStore::open(&dir).unwrap();
    let good = store.save(&ck).unwrap();
    // A "later" checkpoint that got hit by a bit flip on disk.
    let mut evil = encode_checkpoint(&ck);
    let mid = evil.len() / 2;
    evil[mid] ^= 0x10;
    lpa_store::atomic_write(&dir.join("ckpt-00000007.lpa"), &evil).unwrap();
    assert_eq!(store.list().len(), 2);

    let (seq, loaded) = store.load_latest(&schema).unwrap().unwrap();
    assert_eq!(seq, 3, "must fall back past the corrupt seq 7");
    assert_eq!(loaded.kind_name(), "session");
    assert_eq!(good, dir.join("ckpt-00000003.lpa"));
    let c = store.counters();
    assert_eq!(c.checkpoint_corruptions_detected, 1);
    assert_eq!(c.checkpoint_restores, 1);
    assert_eq!(c.checkpoint_fallbacks, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_checkpoints_corrupt_means_clean_none() {
    let (schema, bytes, _) = fixture();
    let dir = test_dir("allbad");
    let mut store = CheckpointStore::open(&dir).unwrap();
    for seq in [1u64, 2] {
        let mut evil = bytes.clone();
        evil[10] ^= 0xFF;
        lpa_store::atomic_write(&dir.join(format!("ckpt-{seq:08}.lpa")), &evil).unwrap();
    }
    let loaded = store.load_latest(&schema).unwrap();
    assert!(
        loaded.is_none(),
        "no valid checkpoint must mean None, not a panic"
    );
    assert_eq!(store.counters().checkpoint_corruptions_detected, 2);
    assert_eq!(store.counters().checkpoint_restores, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_prunes_oldest_but_keeps_a_fallback() {
    let (schema, _, _) = fixture();
    let schema2 = schema.clone();
    let workload = lpa_workload::microbench::workload(&schema2).unwrap();
    let cfg = DqnConfig {
        batch_size: 8,
        hidden: vec![12],
        ..DqnConfig::simulation(2, 2)
    }
    .with_seed(13);
    let advisor = Advisor::train_offline(
        schema2.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );
    let dir = test_dir("retention");
    let mut store = CheckpointStore::open(&dir).unwrap().with_keep(2);
    for seq in 0..5u64 {
        store
            .save(&Checkpoint::Session(capture_advisor(seq, &advisor)))
            .unwrap();
    }
    let listed: Vec<u64> = store.list().into_iter().map(|(s, _)| s).collect();
    assert_eq!(listed, vec![3, 4], "keep=2 retains exactly the newest two");
    assert_eq!(store.counters().checkpoints_written, 5);
    assert!(store.load_latest(&schema).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tenant checkpoints written by earlier builds: format version 2 (the
/// pre-service tenant layout) and version 3 (queries tunnelled as JSON).
/// This build must say so — `Incompatible`, never a panic, whatever prefix
/// of the file survived — and a fleet resuming over such a lineage charges
/// one restore error to that tenant and to nobody else.
#[test]
fn older_format_tenant_checkpoints_are_refused_and_cost_only_their_tenant() {
    const OLD: [(&str, &[u8]); 2] = [
        ("v2", include_bytes!("fixtures/tenant_v2.lpa")),
        ("v3", include_bytes!("fixtures/tenant_v3.lpa")),
    ];
    let schema = lpa_schema::microbench::schema(0.01).unwrap();
    // The fleet the fixtures were captured from, plus a neighbour.
    let cfg = || FleetConfig {
        hidden: vec![4],
        batch_size: 2,
        tmax: 2,
        max_tenants: 2,
        ..FleetConfig::default()
    };
    let specs = || -> Vec<TenantSpec> {
        ["fixture", "neighbour"]
            .into_iter()
            .zip([7, 8])
            .map(|(name, seed)| TenantSpec {
                episodes: 2,
                ..TenantSpec::new(name, Benchmark::Micro, 0.01, seed)
            })
            .collect()
    };
    for (version, old) in OLD {
        assert!(
            matches!(
                decode_checkpoint(old, &schema),
                Err(StoreError::Incompatible(_))
            ),
            "{version}"
        );
        for len in 0..old.len() {
            assert!(decode_checkpoint(&old[..len], &schema).is_err());
        }

        let dir = test_dir(&format!("{version}-lineage"));
        {
            let mut fleet = CheckpointedFleet::create(cfg(), &dir, 2).unwrap();
            for spec in specs() {
                fleet.admit(spec).unwrap();
            }
            fleet.run_rounds(2); // one checkpoint each, at round 2
        }
        // Tenant 0's lineage is what the earlier build left behind.
        lpa_store::atomic_write(&dir.join("tenant-0000/ckpt-00000002.lpa"), old).unwrap();

        let resumed = CheckpointedFleet::resume_or(cfg(), specs(), &dir, 2).unwrap();
        let report = resumed.report();
        assert_eq!(report.round, 2);
        let stale = &report.per_tenant[0];
        assert_eq!(stale.counters.restore_errors, 1, "{version}");
        assert_eq!(
            stale.episode, 0,
            "an unreadable lineage restarts the tenant"
        );
        let neighbour = &report.per_tenant[1];
        assert_eq!(neighbour.counters.restore_errors, 0);
        assert_eq!(neighbour.episode, 2);
        assert_eq!(neighbour.status, TenantStatus::Active);
        assert_eq!(report.store.restores, 1);
        assert_eq!(report.store.corruptions_detected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A query whose shape would make `Query::validate`'s callees index out of
/// bounds — a join with no attribute pair, selectivities not parallel to
/// the tables, a CPU factor no cost model can multiply by — is `Corrupt`
/// at decode time even inside a perfectly framed, CRC-valid current-version
/// service checkpoint, whether it sits among the absorbed or the pending
/// queries.
#[test]
fn malformed_query_in_a_well_framed_service_checkpoint_is_corrupt() {
    use lpa_cluster::{Cluster, ClusterConfig, EngineProfile, HardwareProfile};
    use lpa_service::{PartitioningService, ServiceConfig};
    use lpa_store::{capture_service, ServiceSnapshot};
    use lpa_workload::{Query, QueryBuilder};

    let schema = lpa_schema::microbench::schema(0.01).unwrap();
    let workload = lpa_workload::microbench::workload(&schema)
        .unwrap()
        .with_reserved_slots(1);
    let cfg = DqnConfig {
        batch_size: 2,
        hidden: vec![4],
        ..DqnConfig::simulation(2, 2)
    }
    .with_seed(3);
    let snapshot = || -> ServiceSnapshot {
        let advisor = Advisor::train_offline(
            schema.clone(),
            workload.clone(),
            NetworkCostModel::new(CostParams::standard()),
            MixSampler::uniform(&workload),
            cfg.clone(),
            true,
        );
        let cluster = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        let service = PartitioningService::new(advisor, cluster, ServiceConfig::default());
        capture_service(0, &service).unwrap()
    };
    let good = QueryBuilder::new(&schema, "ab")
        .join(("a", "a_b_key"), ("b", "b_key"))
        .finish()
        .unwrap();
    let framed = |absorbed: Vec<Query>, pending: Vec<(Query, u64)>| {
        let mut snap = snapshot();
        snap.absorbed_queries = absorbed;
        snap.monitor_pending = pending;
        decode_checkpoint(&encode_checkpoint(&Checkpoint::Service(snap)), &schema)
    };
    assert!(
        framed(vec![good.clone()], vec![(good.clone(), 2)]).is_ok(),
        "the harness itself must frame a readable checkpoint"
    );

    type Edit = fn(&mut Query);
    let malformed: [(&str, Edit); 6] = [
        ("zero-pair join", |q| q.joins[0].pairs.clear()),
        ("missing selectivity", |q| q.selectivity.truncate(1)),
        ("surplus selectivity", |q| q.selectivity.push(0.5)),
        ("zero cpu factor", |q| q.cpu_factor = 0.0),
        ("NaN cpu factor", |q| q.cpu_factor = f64::NAN),
        ("infinite cpu factor", |q| q.cpu_factor = f64::INFINITY),
    ];
    for (what, edit) in malformed {
        let mut bad = good.clone();
        edit(&mut bad);
        for (place, result) in [
            ("absorbed", framed(vec![bad.clone()], Vec::new())),
            ("pending", framed(Vec::new(), vec![(bad.clone(), 1)])),
        ] {
            assert!(
                matches!(result, Err(StoreError::Corrupt(_))),
                "{what} among the {place} queries: {result:?}"
            );
        }
    }
}
