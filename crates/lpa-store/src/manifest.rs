//! The fleet's global checkpoint manifest: the commit point of a
//! checkpoint cadence.
//!
//! One file (`manifest.lpa`) at the fleet root maps every tenant to the
//! segment (`segment-NNNNNNNN.lpa`, numbered by round) holding its
//! latest-good checkpoint and records the scheduler position and admission
//! counters, so a kill of the whole process restores the entire fleet from
//! a single read. The manifest is framed by the same [`seal`] / [`open`]
//! envelope as checkpoint files (with no kind tag) and written with
//! [`atomic_write`] after the segment it commits, so a torn write leaves
//! the previous manifest intact, and a segment newer than the manifest was
//! never committed.
//!
//! The manifest is an *accelerator with a fallback*, never a single point
//! of failure: a corrupt manifest degrades to a scan of the newest segment
//! (each checkpoint in it carries its own tenant id, length and CRC), which
//! loses the recorded scheduler round but not a byte of tenant state. An
//! intact manifest of another version names another layout and answers
//! [`StoreError::Incompatible`].

use crate::codec::{open, seal, ByteWriter, Wire};
use crate::store::atomic_write;
use crate::{wire_record, StoreError};
use std::path::Path;

/// First bytes of a manifest file (distinct from checkpoint `MAGIC`).
pub const MANIFEST_MAGIC: [u8; 8] = *b"LPAMANI\x01";
/// Manifest format version; bumped on any layout change. Version 2 added
/// the fleet-wide deployment-budget history (`stage_rounds`); version 3
/// has the same bytes, but an entry's sequence names a segment instead of
/// a file in a per-tenant `tenant-NNNN/` directory.
pub const MANIFEST_VERSION: u32 = 3;
/// File name of the manifest inside a fleet root directory.
pub const MANIFEST_FILE: &str = "manifest.lpa";

/// One tenant's entry: which segment holds its latest-good checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Tenant id (slot index) in the fleet.
    pub tenant: u64,
    /// The segment holding the tenant's latest-good checkpoint, named by
    /// the fleet round it was written at.
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

wire_record! {
    ManifestEntry {
        tenant: u64,
        sequence: u64,
    }
}

wire_record! {
    FleetManifest {
        round: u64,
        rejected_admissions: u64,
        stage_rounds: Vec<u64>,
        entries: Vec<ManifestEntry>,
    }
}

impl FleetManifest {
    fn encode(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        self.put(&mut payload);
        seal(&MANIFEST_MAGIC, MANIFEST_VERSION, &[], payload.bytes())
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let (_, mut r) = open(bytes, &MANIFEST_MAGIC, MANIFEST_VERSION, 0)?;
        let manifest = Self::take(&mut r)?;
        r.finish()?;
        Ok(manifest)
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
/// fails verification — the caller falls back to a scan of the newest
/// segment; `Err(Incompatible)` for an intact manifest of another version.
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
