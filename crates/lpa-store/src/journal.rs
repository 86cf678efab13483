//! The deployment journal: a crash-safe, append-only audit log of every
//! guardrail decision the fleet makes.
//!
//! Checkpoints answer "where do I resume?"; the journal answers "what did
//! the guardrail *do*?" — which layouts were staged, what baseline they
//! were judged against, which canaries committed and which rolled back,
//! and why. Operators (and the keystone tests) read it back to audit
//! rollback latency and budget pressure without re-running the fleet.
//!
//! Framing: a fixed header (`LPAJRNL\x01` + version), then one frame per
//! record — `[payload len: u32][CRC-32 of payload: u32][payload]`. Every
//! append is flushed and fsynced, so a kill can tear at most the frame
//! being written. Readers stop at the first torn or corrupt frame and
//! report how many clean records precede it; the append path truncates
//! such a tail before writing more, so the file never accumulates
//! garbage in the middle.
//!
//! Recovery discipline: a resumed fleet re-executes the rounds since the
//! last checkpoint boundary bit-identically, so those rounds' records are
//! appended a second time as *byte-identical* duplicates. Guardrail events
//! carry the tenant's monotonically increasing window counter, so a
//! byte-identical frame can only be a re-execution echo — [`
//! DeploymentJournal::replay`] deduplicates them, and the replayed log of
//! an interrupted run equals the log of the uninterrupted one.

use crate::codec::{crc32, ByteReader, ByteWriter};
use crate::snapshot::{put_window_observation, take_window_observation};
use crate::StoreError;
use lpa_cluster::{GuardrailEvent, LayoutDigest, RejectReason, RollbackReason};
use lpa_service::JournalRecord;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First bytes of a journal file (distinct from checkpoint and manifest
/// magics).
pub const JOURNAL_MAGIC: [u8; 8] = *b"LPAJRNL\x01";
/// Journal format version; bumped on any layout change.
pub const JOURNAL_VERSION: u32 = 1;
/// File name of the deployment journal inside a fleet root directory.
pub const JOURNAL_FILE: &str = "journal.lpa";

const HEADER_LEN: usize = 8 + 4;
const FRAME_HEADER_LEN: usize = 4 + 4;

// ---------------------------------------------------------------------------
// Record codec.

fn put_digest(w: &mut ByteWriter, d: &LayoutDigest) {
    w.put_u64s(&d.tables);
    w.put_bools(&d.edges);
}

fn take_digest(r: &mut ByteReader) -> Result<LayoutDigest, StoreError> {
    Ok(LayoutDigest {
        tables: r.take_u64s()?,
        edges: r.take_bools()?,
    })
}

fn reject_tag(r: RejectReason) -> u8 {
    match r {
        RejectReason::CoolDown => 0,
        RejectReason::TenantBudget => 1,
        RejectReason::FleetBudget => 2,
        RejectReason::DegradedBaseline => 3,
    }
}

fn reject_from_tag(t: u8) -> Result<RejectReason, StoreError> {
    match t {
        0 => Ok(RejectReason::CoolDown),
        1 => Ok(RejectReason::TenantBudget),
        2 => Ok(RejectReason::FleetBudget),
        3 => Ok(RejectReason::DegradedBaseline),
        t => Err(StoreError::Corrupt(format!(
            "journal reject reason tag {t}"
        ))),
    }
}

fn rollback_tag(r: RollbackReason) -> u8 {
    match r {
        RollbackReason::ObservedRegression => 0,
        RollbackReason::DegradedEvidence => 1,
    }
}

fn rollback_from_tag(t: u8) -> Result<RollbackReason, StoreError> {
    match t {
        0 => Ok(RollbackReason::ObservedRegression),
        1 => Ok(RollbackReason::DegradedEvidence),
        t => Err(StoreError::Corrupt(format!(
            "journal rollback reason tag {t}"
        ))),
    }
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(rec.tenant);
    w.put_u64(rec.round);
    match &rec.event {
        GuardrailEvent::KeptCurrent {
            window,
            benefit_per_run,
            repartition_cost,
        } => {
            w.put_u8(0);
            w.put_u64(*window);
            w.put_f64(*benefit_per_run);
            w.put_f64(*repartition_cost);
        }
        GuardrailEvent::StageRejected { window, reason } => {
            w.put_u8(1);
            w.put_u64(*window);
            w.put_u8(reject_tag(*reason));
        }
        GuardrailEvent::CanaryStarted {
            window,
            candidate,
            previous,
            baseline_seconds,
            benefit_per_run,
            repartition_cost,
        } => {
            w.put_u8(2);
            w.put_u64(*window);
            put_digest(&mut w, candidate);
            put_digest(&mut w, previous);
            w.put_f64(*baseline_seconds);
            w.put_f64(*benefit_per_run);
            w.put_f64(*repartition_cost);
        }
        GuardrailEvent::CanaryObserved { window, observed } => {
            w.put_u8(3);
            w.put_u64(*window);
            put_window_observation(&mut w, observed);
        }
        GuardrailEvent::CanaryExtended {
            window,
            inconclusive,
        } => {
            w.put_u8(4);
            w.put_u64(*window);
            w.put_u32(*inconclusive);
        }
        GuardrailEvent::Committed {
            window,
            mean_observed,
            baseline_seconds,
        } => {
            w.put_u8(5);
            w.put_u64(*window);
            w.put_f64(*mean_observed);
            w.put_f64(*baseline_seconds);
        }
        GuardrailEvent::RolledBack {
            window,
            reason,
            mean_observed,
            baseline_seconds,
            rollback_seconds,
            restored,
        } => {
            w.put_u8(6);
            w.put_u64(*window);
            w.put_u8(rollback_tag(*reason));
            w.put_f64(*mean_observed);
            w.put_f64(*baseline_seconds);
            w.put_f64(*rollback_seconds);
            put_digest(&mut w, restored);
        }
    }
    w.into_inner()
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, StoreError> {
    let mut r = ByteReader::new(payload);
    let tenant = r.take_u64()?;
    let round = r.take_u64()?;
    let event = match r.take_u8()? {
        0 => GuardrailEvent::KeptCurrent {
            window: r.take_u64()?,
            benefit_per_run: r.take_f64()?,
            repartition_cost: r.take_f64()?,
        },
        1 => GuardrailEvent::StageRejected {
            window: r.take_u64()?,
            reason: reject_from_tag(r.take_u8()?)?,
        },
        2 => GuardrailEvent::CanaryStarted {
            window: r.take_u64()?,
            candidate: take_digest(&mut r)?,
            previous: take_digest(&mut r)?,
            baseline_seconds: r.take_f64()?,
            benefit_per_run: r.take_f64()?,
            repartition_cost: r.take_f64()?,
        },
        3 => GuardrailEvent::CanaryObserved {
            window: r.take_u64()?,
            observed: take_window_observation(&mut r)?,
        },
        4 => GuardrailEvent::CanaryExtended {
            window: r.take_u64()?,
            inconclusive: r.take_u32()?,
        },
        5 => GuardrailEvent::Committed {
            window: r.take_u64()?,
            mean_observed: r.take_f64()?,
            baseline_seconds: r.take_f64()?,
        },
        6 => GuardrailEvent::RolledBack {
            window: r.take_u64()?,
            reason: rollback_from_tag(r.take_u8()?)?,
            mean_observed: r.take_f64()?,
            baseline_seconds: r.take_f64()?,
            rollback_seconds: r.take_f64()?,
            restored: take_digest(&mut r)?,
        },
        t => return Err(StoreError::Corrupt(format!("journal event tag {t}"))),
    };
    r.finish()?;
    Ok(JournalRecord {
        tenant,
        round,
        event,
    })
}

// ---------------------------------------------------------------------------
// The journal file.

/// How far a journal scan got and what it found.
#[derive(Debug, Default)]
struct Scan {
    /// Byte offset just past the last clean frame (where appends go).
    clean_len: u64,
    /// Frames that passed length + CRC checks, in file order.
    frames: Vec<Vec<u8>>,
    /// Whether a torn or corrupt tail was found past `clean_len`.
    torn: bool,
}

fn scan(bytes: &[u8]) -> Result<Scan, StoreError> {
    if bytes.is_empty() {
        return Ok(Scan::default());
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Corrupt(format!(
            "journal of {} bytes is shorter than its {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != JOURNAL_MAGIC {
        return Err(StoreError::Corrupt("bad journal magic".to_string()));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != JOURNAL_VERSION {
        return Err(StoreError::Incompatible(format!(
            "journal version {version}, this build reads {JOURNAL_VERSION}"
        )));
    }
    let mut out = Scan {
        clean_len: HEADER_LEN as u64,
        ..Scan::default()
    };
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        if bytes.len() - at < FRAME_HEADER_LEN {
            out.torn = true;
            break;
        }
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let stored =
            u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        let start = at + FRAME_HEADER_LEN;
        if bytes.len() - start < len {
            out.torn = true;
            break;
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != stored {
            out.torn = true;
            break;
        }
        out.frames.push(payload.to_vec());
        at = start + len;
        out.clean_len = at as u64;
    }
    Ok(out)
}

/// The append-only deployment journal of one fleet root.
#[derive(Debug)]
pub struct DeploymentJournal {
    path: PathBuf,
    /// Clean records currently on disk (appends extend this).
    records_on_disk: u64,
    /// Torn tails truncated across the journal's lifetime in this process.
    torn_tails_truncated: u64,
}

impl DeploymentJournal {
    /// Open (creating if absent) the journal at `path`. An existing file
    /// is scanned; a torn tail from a previous kill is truncated away so
    /// the next append lands on a clean frame boundary. A file with a bad
    /// header is an error — the journal never silently overwrites foreign
    /// bytes.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut me = Self {
            path,
            records_on_disk: 0,
            torn_tails_truncated: 0,
        };
        match std::fs::read(&me.path) {
            Ok(bytes) => {
                let s = scan(&bytes)?;
                if bytes.is_empty() {
                    me.write_header()?;
                } else if s.torn {
                    let f = std::fs::OpenOptions::new().write(true).open(&me.path)?;
                    f.set_len(s.clean_len)?;
                    f.sync_all()?;
                    me.torn_tails_truncated += 1;
                }
                me.records_on_disk = s.frames.len() as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => me.write_header()?,
            Err(e) => return Err(StoreError::Io(e)),
        }
        Ok(me)
    }

    fn write_header(&self) -> Result<(), StoreError> {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        f.write_all(&header)?;
        f.sync_all()?;
        Ok(())
    }

    /// Append `records` as framed entries and fsync. One syscall batch per
    /// call — callers hand over a whole round's drain at once.
    pub fn append(&mut self, records: &[JournalRecord]) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for rec in records {
            let payload = encode_record(rec);
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
        let mut f = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        self.records_on_disk += records.len() as u64;
        Ok(())
    }

    /// Read the journal back: every clean frame up to the first torn or
    /// corrupt one, decoded, with byte-identical duplicate frames (the
    /// echo of re-executed rounds after a crash recovery) removed. First
    /// occurrence order is preserved.
    pub fn replay(&self) -> Result<Vec<JournalRecord>, StoreError> {
        let bytes = std::fs::read(&self.path)?;
        let s = scan(&bytes)?;
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for payload in &s.frames {
            if seen.insert(payload.clone()) {
                out.push(decode_record(payload)?);
            }
        }
        Ok(out)
    }

    /// Clean records currently on disk (duplicates included).
    pub fn records_on_disk(&self) -> u64 {
        self.records_on_disk
    }

    /// Torn tails truncated by [`DeploymentJournal::open`] in this
    /// process.
    pub fn torn_tails_truncated(&self) -> u64 {
        self.torn_tails_truncated
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_cluster::WindowObservation;

    fn rec(tenant: u64, round: u64, window: u64) -> JournalRecord {
        JournalRecord {
            tenant,
            round,
            event: GuardrailEvent::CanaryStarted {
                window,
                candidate: LayoutDigest {
                    tables: vec![0, 2, 1],
                    edges: vec![true, false],
                },
                previous: LayoutDigest {
                    tables: vec![1, 0, 1],
                    edges: vec![false, false],
                },
                baseline_seconds: 1.5,
                benefit_per_run: 0.25,
                repartition_cost: 3.0,
            },
        }
    }

    fn all_event_shapes() -> Vec<JournalRecord> {
        let digest = LayoutDigest {
            tables: vec![3, 0],
            edges: vec![true],
        };
        let obs = WindowObservation {
            weighted_seconds: 2.25,
            clean: 7,
            degraded: 1,
            failed: 0,
        };
        vec![
            JournalRecord {
                tenant: 0,
                round: 1,
                event: GuardrailEvent::KeptCurrent {
                    window: 1,
                    benefit_per_run: 0.1,
                    repartition_cost: 9.0,
                },
            },
            JournalRecord {
                tenant: 1,
                round: 1,
                event: GuardrailEvent::StageRejected {
                    window: 2,
                    reason: RejectReason::FleetBudget,
                },
            },
            rec(2, 1, 3),
            JournalRecord {
                tenant: 2,
                round: 2,
                event: GuardrailEvent::CanaryObserved {
                    window: 4,
                    observed: obs,
                },
            },
            JournalRecord {
                tenant: 2,
                round: 3,
                event: GuardrailEvent::CanaryExtended {
                    window: 5,
                    inconclusive: 2,
                },
            },
            JournalRecord {
                tenant: 2,
                round: 4,
                event: GuardrailEvent::Committed {
                    window: 6,
                    mean_observed: 1.0,
                    baseline_seconds: 1.25,
                },
            },
            JournalRecord {
                tenant: 3,
                round: 4,
                event: GuardrailEvent::RolledBack {
                    window: 7,
                    reason: RollbackReason::ObservedRegression,
                    mean_observed: 4.0,
                    baseline_seconds: 1.0,
                    rollback_seconds: 2.5,
                    restored: digest,
                },
            },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lpa-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(JOURNAL_FILE)
    }

    #[test]
    fn every_event_shape_round_trips() {
        let path = tmp("shapes");
        let records = all_event_shapes();
        let mut j = DeploymentJournal::open(&path).unwrap();
        j.append(&records).unwrap();
        assert_eq!(j.records_on_disk(), records.len() as u64);
        // Reopen: the count survives the process boundary.
        let j = DeploymentJournal::open(&path).unwrap();
        assert_eq!(j.records_on_disk(), records.len() as u64);
        assert_eq!(j.replay().unwrap(), records);
    }

    #[test]
    fn replay_dedups_byte_identical_reexecution_echo() {
        let path = tmp("dedup");
        let mut j = DeploymentJournal::open(&path).unwrap();
        j.append(&[rec(0, 1, 1), rec(0, 2, 2)]).unwrap();
        // A resumed process re-executes round 2 bit-identically.
        j.append(&[rec(0, 2, 2), rec(0, 3, 3)]).unwrap();
        assert_eq!(j.records_on_disk(), 4);
        assert_eq!(
            j.replay().unwrap(),
            vec![rec(0, 1, 1), rec(0, 2, 2), rec(0, 3, 3)]
        );
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_ignored_on_replay() {
        let path = tmp("torn");
        let mut j = DeploymentJournal::open(&path).unwrap();
        j.append(&[rec(0, 1, 1), rec(0, 2, 2)]).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Tear mid-frame: keep the header + first frame + part of the second.
        let torn_at = good.len() - 5;
        std::fs::write(&path, &good[..torn_at]).unwrap();
        // Replay (read-only) skips the torn tail.
        assert_eq!(j.replay().unwrap(), vec![rec(0, 1, 1)]);
        // Reopen truncates it, then appends land cleanly.
        let mut j = DeploymentJournal::open(&path).unwrap();
        assert_eq!(j.torn_tails_truncated(), 1);
        assert_eq!(j.records_on_disk(), 1);
        j.append(&[rec(0, 2, 2)]).unwrap();
        assert_eq!(j.replay().unwrap(), vec![rec(0, 1, 1), rec(0, 2, 2)]);
    }

    #[test]
    fn corrupt_frame_hides_everything_after_it() {
        let path = tmp("corrupt");
        let mut j = DeploymentJournal::open(&path).unwrap();
        j.append(&[rec(0, 1, 1), rec(0, 2, 2), rec(0, 3, 3)])
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte in the middle frame.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = j.replay().unwrap();
        assert_eq!(replayed, vec![rec(0, 1, 1)]);
    }

    #[test]
    fn bad_magic_is_an_error_not_an_overwrite() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAJOURNALFILE!").unwrap();
        assert!(DeploymentJournal::open(&path).is_err());
        // The foreign bytes are untouched.
        assert_eq!(std::fs::read(&path).unwrap(), b"NOTAJOURNALFILE!");
    }
}
