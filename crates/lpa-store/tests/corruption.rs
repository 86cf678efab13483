//! Corruption-injection harness: every way a checkpoint file can go bad on
//! disk must be *detected* (CRC / length / tag checks), *rejected* (a
//! `StoreError`, never a panic — this is the recovery path, lint L001
//! applies to the library code behind it), and *recovered from* (the store
//! falls back to the last good file, and says so in its counters).
//!
//! Faults injected: truncation at every prefix length and a bit flip at
//! every bit — of a checkpoint file, of a fleet segment (where damage must
//! cost exactly the tenants whose checkpoints it touches) and of the
//! deployment journal —, a torn rename (stray `*.tmp` left mid-write), a
//! corrupt newest checkpoint with a healthy predecessor, checkpoints and
//! manifests written by earlier format versions, and CRC-valid checkpoints
//! whose payload spells a malformed query or a retired recost mode.

mod common;

use common::{journal_records, micro_cfg, micro_specs};
use lpa_advisor::Advisor;
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_rl::DqnConfig;
use lpa_service::TenantStatus;
use lpa_store::{
    capture_advisor, decode_checkpoint, encode_checkpoint, read_segment, Checkpoint,
    CheckpointStore, CheckpointedFleet, DeploymentJournal, StoreError, JOURNAL_FILE,
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

/// Run the micro fleet under `dir` to round 2 with a cadence of 2, so
/// `segment-00000002.lpa` is its one segment, and return that segment.
fn micro_segment(dir: &std::path::Path) -> Vec<u8> {
    let mut fleet = CheckpointedFleet::create(micro_cfg(), dir, 2).unwrap();
    for spec in micro_specs() {
        fleet.admit(spec).unwrap();
    }
    fleet.run_rounds(2);
    std::fs::read(dir.join("segment-00000002.lpa")).unwrap()
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

    // A segment of the micro fleet's two tenants. Besides detecting damage,
    // its reader checks that damage costs exactly the tenants whose
    // checkpoints it touches: every checkpoint whose bytes are intact and in
    // place reads back (and decodes to what was written, as the clean
    // segment shows), every other one does not.
    let dir = test_dir(&format!("segment-{tag}"));
    let clean = micro_segment(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let schema = lpa_schema::microbench::schema(0.01).unwrap();
    let (snaps, corrupt) = read_segment(&clean, |_| Some(&schema));
    assert_eq!(corrupt, 0);
    let frames: Vec<Vec<u8>> = snaps
        .into_iter()
        .map(|snap| encode_checkpoint(&Checkpoint::Tenant(snap)))
        .collect();
    assert_eq!(frames.len(), 2);
    assert_eq!(
        frames.concat(),
        clean,
        "a segment is its checkpoints back to back"
    );
    let ranges: Vec<std::ops::Range<usize>> = frames
        .iter()
        .scan(0, |at, frame| {
            *at += frame.len();
            Some(*at - frame.len()..*at)
        })
        .collect();
    let segment = Subject {
        name: "segment",
        bytes: clean.clone(),
        units: frames.len(),
        read: Box::new(move |bytes| {
            let (snaps, _) = read_segment(bytes, |_| Some(&schema));
            let read: Vec<u64> = snaps.iter().map(|s| s.tenant).collect();
            let intact: Vec<u64> = (0..frames.len() as u64)
                .filter(|&t| {
                    bytes.get(ranges[t as usize].clone()) == clean.get(ranges[t as usize].clone())
                })
                .collect();
            assert_eq!(
                read, intact,
                "damage cost a tenant it did not touch, or none"
            );
            Ok(read.len())
        }),
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
    vec![checkpoint, segment, journal]
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
    let mut store = CheckpointStore::open(&dir).unwrap();
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
/// pre-service tenant layout), version 3 (queries tunnelled as JSON) and
/// version 4 (the DQN config with its loss tag, double-DQN flag, replay
/// capacity and ε start/floor).
/// This build must say so — `Incompatible`, never a panic, whatever prefix
/// of the file survived — and a fleet resuming over a segment holding such
/// a checkpoint charges one restore error to that tenant and to nobody
/// else.
#[test]
fn older_format_tenant_checkpoints_are_refused_and_cost_only_their_tenant() {
    const OLD: [(&str, &[u8]); 3] = [
        ("v2", include_bytes!("fixtures/tenant_v2.lpa")),
        ("v3", include_bytes!("fixtures/tenant_v3.lpa")),
        ("v4", include_bytes!("fixtures/tenant_v4.lpa")),
    ];
    let schema = lpa_schema::microbench::schema(0.01).unwrap();
    // A fleet of the fixture's tenant plus a neighbour. The fixtures were
    // captured from tenants with a 4-wide network, batch 2 and horizon 2;
    // today's tenants all use `TENANT_HIDDEN`, `TENANT_BATCH_SIZE` and
    // `TENANT_TMAX`, and the checkpoint is refused on its format version
    // before any shape is compared.
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

        // One checkpoint each, at round 2. Tenant 0's is what the earlier
        // build left behind.
        let dir = test_dir(&format!("{version}-lineage"));
        let segment = micro_segment(&dir);
        let (mut snaps, _) = read_segment(&segment, |_| Some(&schema));
        let first = encode_checkpoint(&Checkpoint::Tenant(snaps.remove(0)));
        let spliced = [old, &segment[first.len()..]].concat();
        lpa_store::atomic_write(&dir.join("segment-00000002.lpa"), &spliced).unwrap();

        let resumed = CheckpointedFleet::resume_or(micro_cfg(), micro_specs(), &dir, 2).unwrap();
        let report = resumed.report();
        assert_eq!(report.round, 2);
        let stale = &report.per_tenant[0];
        assert_eq!(stale.counters.restore_errors, 1, "{version}");
        assert_eq!(
            stale.episode, 0,
            "an unreadable checkpoint restarts the tenant"
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

/// A manifest of version 2 names checkpoints in per-tenant `tenant-NNNN/`
/// directories, a layout this build no longer reads: resuming over it is
/// `Incompatible`, not a fleet whose every tenant is quarantined.
#[test]
fn an_older_manifest_is_incompatible() {
    use lpa_store::codec::{seal, ByteWriter, Wire};
    use lpa_store::MANIFEST_MAGIC;

    let dir = test_dir("manifest-v2");
    std::fs::create_dir_all(dir.join("tenant-0000")).unwrap();
    lpa_store::atomic_write(
        &dir.join("tenant-0000/ckpt-00000002.lpa"),
        include_bytes!("fixtures/tenant_v4.lpa"),
    )
    .unwrap();
    let mut payload = ByteWriter::new();
    2u64.put(&mut payload); // round
    0u64.put(&mut payload); // rejected admissions
    Vec::<u64>::new().put(&mut payload); // stage rounds
    payload.put_usize(1);
    0u64.put(&mut payload); // tenant 0 ...
    2u64.put(&mut payload); // ... at sequence 2
    let v2 = seal(&MANIFEST_MAGIC, 2, &[], payload.bytes());
    lpa_store::atomic_write(&dir.join(lpa_store::MANIFEST_FILE), &v2).unwrap();

    let resumed = CheckpointedFleet::resume_or(micro_cfg(), micro_specs(), &dir, 2);
    assert!(
        matches!(resumed, Err(StoreError::Incompatible(_))),
        "{:?}",
        resumed.map(|f| f.report().round)
    );
    // A damaged manifest of any version still falls back to the segments.
    let mut damaged = v2;
    damaged[9] ^= 0x01;
    lpa_store::atomic_write(&dir.join(lpa_store::MANIFEST_FILE), &damaged).unwrap();
    let resumed = CheckpointedFleet::resume_or(micro_cfg(), micro_specs(), &dir, 2).unwrap();
    assert_eq!(resumed.report().store.manifest_fallbacks, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash inside a segment's `atomic_write` leaves a stray
/// `segment-*.lpa.tmp`: resume ignores it, the next cadence's write
/// replaces it, and retention keeps the two newest segments.
#[test]
fn a_stray_segment_tmp_is_ignored() {
    let dir = test_dir("segment-tmp");
    let segment = micro_segment(&dir);
    let stray = dir.join("segment-00000004.lpa.tmp");
    std::fs::write(&stray, &segment[..segment.len() / 2]).unwrap();

    let mut resumed = CheckpointedFleet::resume_or(micro_cfg(), micro_specs(), &dir, 2).unwrap();
    let report = resumed.report();
    assert_eq!(report.round, 2);
    assert_eq!(report.store.restores, 2);
    assert_eq!(report.store.corruptions_detected, 0);
    assert!(report
        .per_tenant
        .iter()
        .all(|t| t.counters.restore_errors == 0));
    resumed.run_rounds(4);
    assert_eq!(resumed.report().store.write_failures, 0);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            JOURNAL_FILE,
            lpa_store::MANIFEST_FILE,
            "segment-00000004.lpa",
            "segment-00000006.lpa"
        ],
        "the stray temp file was replaced, and segment 2 pruned"
    );
    let _ = std::fs::remove_dir_all(&dir);
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

/// A cycling sampler with no vector to cycle through is `Corrupt`, not a
/// sampler whose first draw indexes out of bounds.
#[test]
fn a_cycling_sampler_without_vectors_is_corrupt() {
    use lpa_store::codec::{ByteReader, ByteWriter, Wire};

    let mut w = ByteWriter::new();
    3u8.put(&mut w);
    w.put_usize(0);
    w.put_usize(0);
    let bytes = w.into_inner();
    let decoded = MixSampler::take(&mut ByteReader::new(&bytes));
    assert!(
        matches!(decoded, Err(StoreError::Corrupt(_))),
        "{decoded:?}"
    );
}

/// Format v5 gives an offline session's recost mode one byte. Its tag 0
/// named a full-recompute mode that is gone: a CRC-valid file that spells
/// it decodes as `Corrupt`, never as a snapshot an engine is built from.
#[test]
fn a_retired_recost_mode_byte_is_corrupt() {
    use lpa_store::codec::{seal, ByteWriter, Wire};
    use lpa_store::{FORMAT_VERSION, MAGIC};

    let (schema, bytes, ck) = fixture();
    let Checkpoint::Session(snap) = &ck else {
        panic!("the fixture is a session checkpoint");
    };
    // The backend's bytes start with tag 0 (offline), then the mode byte.
    let mut w = ByteWriter::new();
    snap.backend.put(&mut w);
    let backend = w.into_inner();
    assert_eq!(backend[..2], [0, 1]);
    // The payload sits between the 21-byte header and the 4-byte CRC.
    let payload = &bytes[21..bytes.len() - 4];
    let found = |w: &[u8]| w == backend.as_slice();
    let at = payload.windows(backend.len()).position(found).unwrap();
    assert_eq!(payload.windows(backend.len()).rposition(found), Some(at));
    let reseal = |mode: u8| {
        let mut payload = payload.to_vec();
        payload[at + 1] = mode;
        seal(&MAGIC, FORMAT_VERSION, &[1], &payload)
    };
    assert_eq!(
        reseal(1),
        bytes,
        "resealing the payload unchanged is the file"
    );
    let decoded = decode_checkpoint(&reseal(0), &schema);
    assert!(
        matches!(decoded, Err(StoreError::Corrupt(_))),
        "{:?}",
        decoded.map(|ck| ck.kind_name())
    );
}
