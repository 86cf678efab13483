//! Durable checkpoint files: framing, atomic writes and a last-good
//! fallback store.
//!
//! ## File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "LPACKPT\x01"
//! 8       4     format version (little-endian u32, [`FORMAT_VERSION`] = 5)
//! 12      1     kind tag (1 = session, 2 = service, 4 = tenant; 3 is reserved)
//! 13      8     payload length (little-endian u64)
//! 21      n     payload (see snapshot module)
//! 21+n    4     CRC-32 over bytes [0, 21+n)
//! ```
//!
//! The envelope is [`crate::codec::seal`] / [`crate::codec::open`], shared
//! with the fleet manifest. The CRC covers the header too, so a bit flip
//! anywhere — magic, version, kind, length or payload — fails
//! verification, and so does a truncated file.
//!
//! ## Crash consistency
//!
//! [`atomic_write`] never exposes a partially written file: bytes go to a
//! sibling `*.tmp`, are fsynced, and only then renamed over the final name
//! (rename within a directory is atomic on POSIX); the directory is
//! fsynced afterwards so the rename itself survives a crash. A crash
//! before the rename leaves only a stray `*.tmp` the store ignores; a
//! crash after leaves the complete new file. Combined with the store
//! keeping the previous checkpoint until a newer one lands, some valid
//! checkpoint always survives.

use crate::codec::{open, seal, ByteWriter};
use crate::snapshot::Checkpoint;
use crate::StoreError;
use lpa_rl::EnvCounters;
use lpa_schema::Schema;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"LPACKPT\x01";
/// Current format version; bumped on any layout change. Version 2 added
/// the deployment-guardrail state to service and tenant snapshots; version
/// 3 made a tenant snapshot *scheduling fields + a service snapshot* and
/// cut the service snapshot's embedded workload down to the absorbed
/// queries; version 4 stores those queries (and the monitor's pending
/// ones) as packed words instead of embedded JSON; version 5 drops the DQN
/// config's loss tag, double-DQN flag, replay capacity and ε start/floor,
/// which are constants now. Older files answer [`StoreError::Incompatible`].
pub const FORMAT_VERSION: u32 = 5;

/// Encode a checkpoint into the framed, CRC-guarded file format.
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    ck.encode_payload(&mut payload);
    seal(&MAGIC, FORMAT_VERSION, &[ck.kind_tag()], payload.bytes())
}

/// Parse and verify a checkpoint file. Rejects truncation, bad magic,
/// length mismatches and any CRC failure with [`StoreError::Corrupt`], an
/// intact file of another format version with
/// [`StoreError::Incompatible`] — and never panics: this runs on the
/// recovery path.
#[expect(
    clippy::indexing_slicing,
    reason = "open returns a tag of the one byte requested"
)]
pub fn decode_checkpoint(bytes: &[u8], schema: &Schema) -> Result<Checkpoint, StoreError> {
    let (tag, r) = open(bytes, &MAGIC, FORMAT_VERSION, 1)?;
    let mut r = r.with_schema(schema);
    let ck = Checkpoint::decode_payload(tag[0], &mut r)?;
    r.finish()?;
    Ok(ck)
}

/// Write `bytes` to `path` atomically: sibling temp file, fsync, rename,
/// directory fsync. A crash at any point leaves either the old file, the
/// new file, or a stray `*.tmp` — never a torn target.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    atomic_write_with(path, |f| f.write_all(bytes))
}

/// [`atomic_write`] of whatever `write` puts into the temp file, so a
/// large file can be produced piece by piece instead of in memory first.
#[expect(
    clippy::disallowed_methods,
    reason = "L008 exemption: this is the temp-file + fsync + rename writer every durable write goes through"
)]
pub(crate) fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            // Persist the rename itself. Best-effort: some filesystems
            // refuse directory handles, and the data is already safe.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Files named `<prefix>NNNNNNNN.lpa` in `dir`, as `(number, path)`
/// sorted ascending. Stray temp files and foreign names are ignored.
pub(crate) fn numbered_files(dir: &Path, prefix: &str) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(".lpa"))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    out
}

/// Checkpoints a [`CheckpointStore`] retains: the newest, and one good
/// predecessor a corrupt newest file falls back to.
const KEEP: usize = 2;

/// A directory of numbered checkpoint files (`ckpt-NNNNNNNN.lpa`) with
/// retention and last-good fallback on load.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    counters: EnvCounters,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory. Keeps the last
    /// two checkpoints so a corrupt newest file still leaves a good
    /// predecessor.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            counters: EnvCounters::default(),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint activity so far: writes, detected corruptions, restores
    /// and last-good fallbacks — the same counter type environments expose,
    /// so training loops can fold these into their reported totals.
    pub fn counters(&self) -> EnvCounters {
        self.counters
    }

    fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:08}.lpa"))
    }

    /// Checkpoint files present, as `(sequence, path)` sorted ascending.
    /// Stray temp files and foreign names are ignored.
    pub fn list(&self) -> Vec<(u64, PathBuf)> {
        numbered_files(&self.dir, "ckpt-")
    }

    /// Durably write one checkpoint under its sequence number, then prune
    /// checkpoints beyond the retention count (oldest first).
    #[expect(
        clippy::indexing_slicing,
        reason = "the prefix is taken only when files.len() > KEEP"
    )]
    pub fn save(&mut self, ck: &Checkpoint) -> Result<PathBuf, StoreError> {
        let bytes = encode_checkpoint(ck);
        let path = self.path_for(ck.sequence());
        atomic_write(&path, &bytes)?;
        self.counters.checkpoints_written += 1;
        let files = self.list();
        if files.len() > KEEP {
            for (_, old) in &files[..files.len() - KEEP] {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Load the newest valid checkpoint, skipping (and counting) corrupt
    /// ones, falling back to older files until one verifies. `Ok(None)`
    /// when no checkpoint survives at all.
    pub fn load_latest(
        &mut self,
        schema: &Schema,
    ) -> Result<Option<(u64, Checkpoint)>, StoreError> {
        let mut skipped = 0u64;
        for (seq, path) in self.list().into_iter().rev() {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(_) => {
                    self.counters.checkpoint_corruptions_detected += 1;
                    skipped += 1;
                    continue;
                }
            };
            match decode_checkpoint(&bytes, schema) {
                Ok(ck) => {
                    self.counters.checkpoint_restores += 1;
                    if skipped > 0 {
                        self.counters.checkpoint_fallbacks += 1;
                    }
                    return Ok(Some((seq, ck)));
                }
                Err(_) => {
                    self.counters.checkpoint_corruptions_detected += 1;
                    skipped += 1;
                }
            }
        }
        Ok(None)
    }
}
