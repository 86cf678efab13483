//! The fleet's global checkpoint manifest.
//!
//! One file (`manifest.lpa`) at the fleet root maps every tenant to the
//! sequence of its latest-good checkpoint and records the scheduler
//! position and admission counters, so a kill of the whole process
//! restores the entire fleet from a single read. The manifest is framed
//! by the same [`seal`] / [`open`] envelope as `ckpt-*.lpa` files (with no
//! kind tag) and written with [`atomic_write`], so a torn write leaves the
//! previous manifest intact.
//!
//! The manifest is an *accelerator with a fallback*, never a single point
//! of failure: a corrupt or missing manifest degrades to per-tenant
//! directory scans (each tenant's `CheckpointStore` already knows how to
//! find its own latest-good file), which loses the recorded scheduler
//! round but not a byte of tenant state.

use crate::codec::{open, seal, ByteWriter};
use crate::store::atomic_write;
use crate::StoreError;
use std::path::Path;

/// First bytes of a manifest file (distinct from checkpoint `MAGIC`).
pub const MANIFEST_MAGIC: [u8; 8] = *b"LPAMANI\x01";
/// Manifest format version; bumped on any layout change. Version 2 added
/// the fleet-wide deployment-budget history (`stage_rounds`).
pub const MANIFEST_VERSION: u32 = 2;
/// File name of the manifest inside a fleet root directory.
pub const MANIFEST_FILE: &str = "manifest.lpa";

/// One tenant's entry: where its latest-good checkpoint lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Tenant id (slot index) in the fleet.
    pub tenant: u64,
    /// Sequence number of the tenant's latest-good checkpoint in its own
    /// `CheckpointStore` (the fleet round it was taken at).
    pub sequence: u64,
}

/// The whole-fleet recovery record, written atomically after every
/// checkpoint cadence boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetManifest {
    /// Rounds completed when the manifest was written; a resumed fleet
    /// continues with this round.
    pub round: u64,
    /// Admission-control counter carried across restarts.
    pub rejected_admissions: u64,
    /// Rounds at which any tenant staged a canary — the fleet-wide
    /// deployment-budget history. Must survive a restart or a resumed
    /// fleet would forget recent deploys and overshoot the aggregate cap.
    pub stage_rounds: Vec<u64>,
    pub entries: Vec<ManifestEntry>,
}

impl FleetManifest {
    fn encode(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.put_u64(self.round);
        payload.put_u64(self.rejected_admissions);
        payload.put_u64s(&self.stage_rounds);
        payload.put_usize(self.entries.len());
        for e in &self.entries {
            payload.put_u64(e.tenant);
            payload.put_u64(e.sequence);
        }
        seal(&MANIFEST_MAGIC, MANIFEST_VERSION, &[], payload.bytes())
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let (_, mut r) = open(bytes, &MANIFEST_MAGIC, MANIFEST_VERSION, 0)?;
        let round = r.take_u64()?;
        let rejected_admissions = r.take_u64()?;
        let stage_rounds = r.take_u64s()?;
        let n = r.take_len(16)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(ManifestEntry {
                tenant: r.take_u64()?,
                sequence: r.take_u64()?,
            });
        }
        r.finish()?;
        Ok(Self {
            round,
            rejected_admissions,
            stage_rounds,
            entries,
        })
    }

    /// The recorded sequence for `tenant`, if present.
    pub fn sequence_of(&self, tenant: u64) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.tenant == tenant)
            .map(|e| e.sequence)
    }
}

/// Atomically write the manifest into `root` (created if needed).
pub fn save_manifest(root: &Path, manifest: &FleetManifest) -> Result<(), StoreError> {
    std::fs::create_dir_all(root)?;
    atomic_write(&root.join(MANIFEST_FILE), &manifest.encode())
}

/// Read and verify the manifest in `root`. `Ok(None)` when no manifest
/// exists (a fresh fleet root); `Err(Corrupt)` when a manifest exists but
/// fails verification — the caller falls back to per-tenant scans.
pub fn load_manifest(root: &Path) -> Result<Option<FleetManifest>, StoreError> {
    let path = root.join(MANIFEST_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    FleetManifest::decode(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetManifest {
        FleetManifest {
            round: 6,
            rejected_admissions: 3,
            stage_rounds: vec![2, 5, 6],
            entries: (0..5)
                .map(|t| ManifestEntry {
                    tenant: t,
                    sequence: 6,
                })
                .collect(),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lpa-manifest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_bitwise() {
        let dir = tmp("roundtrip");
        let m = sample();
        save_manifest(&dir, &m).unwrap();
        assert_eq!(load_manifest(&dir).unwrap().unwrap(), m);
        assert_eq!(m.sequence_of(3), Some(6));
        assert_eq!(m.sequence_of(99), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_none_not_error() {
        let dir = tmp("missing");
        assert!(load_manifest(&dir).unwrap().is_none());
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let dir = tmp("bitflip");
        save_manifest(&dir, &sample()).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let good = std::fs::read(&path).unwrap();
        for byte in [0usize, 9, 13, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                load_manifest(&dir).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected() {
        let dir = tmp("trunc");
        save_manifest(&dir, &sample()).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        assert!(load_manifest(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
