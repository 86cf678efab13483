//! Crash-safe durable state for the partitioning advisor (`lpa-store`).
//!
//! Training an advisor is hours of cluster time; a crash that loses the
//! replay buffer, the optimizer moments or an RNG stream either throws
//! that work away or — worse — resumes *almost* where it left off and
//! silently diverges from the uninterrupted run. This crate makes resume
//! exact:
//!
//! - a hand-rolled, versioned, length-prefixed binary codec ([`codec`])
//!   with a CRC-32 over every file — the workspace's one on-disk format
//!   for state: no reflection-based serializer anywhere below the bench
//!   harness, every float stored by bit pattern so round trips are
//!   bit-identical;
//! - snapshots ([`snapshot`]) of the *complete* session: Q/target
//!   networks, Adam moments, replay transitions, ε and both RNG streams,
//!   the workload-mix sampler cursor, the offline delta engine's memo or
//!   the online backend's cluster + runtime cache (including degraded
//!   tags and fault accounting), and the service's window state with the
//!   queries it absorbed from SQL (as packed words, validated on decode);
//! - atomic writes and a retention-managed store ([`store`]): temp file +
//!   fsync + rename + directory fsync, keeping the previous checkpoint so
//!   a corrupt newest file falls back to the last good one — detected by
//!   CRC/length checks, counted, never a panic;
//! - capture/restore drivers ([`session`], [`service`], [`fleet`]) that
//!   plug into the training loop's episode boundaries, the service's
//!   window boundaries and the fleet's round boundaries.
//!
//! Everything else in the workspace is forbidden from raw filesystem
//! writes by lint L008: durable state goes through this crate or not at
//! all.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod codec;
pub mod fleet;
pub mod journal;
pub mod manifest;
pub mod service;
pub mod session;
pub mod snapshot;
pub mod store;

pub use fleet::{capture_tenant, restore_tenant, CheckpointedFleet};
pub use journal::{DeploymentJournal, JOURNAL_FILE, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use manifest::{
    load_manifest, save_manifest, FleetManifest, ManifestEntry, MANIFEST_FILE, MANIFEST_MAGIC,
    MANIFEST_VERSION,
};
pub use service::{capture_service, restore_service};
pub use session::{
    capture_advisor, restore_offline, restore_online, train_checkpointed, CheckpointingReport,
    OfflineTemplate, OnlineTemplate,
};
pub use snapshot::{BackendState, Checkpoint, ServiceSnapshot, SessionSnapshot, TenantSnapshot};
pub use store::{
    atomic_write, decode_checkpoint, encode_checkpoint, CheckpointStore, FORMAT_VERSION, MAGIC,
};

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// The bytes fail verification: truncation, bad magic, CRC mismatch,
    /// malformed lengths, or payloads the domain constructors reject.
    Corrupt(String),
    /// The checkpoint is valid but cannot be applied here: wrong format
    /// version, wrong checkpoint kind, or state that does not fit the
    /// provided template.
    Incompatible(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io: {e}"),
            Self::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            Self::Incompatible(m) => write!(f, "incompatible checkpoint: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Corrupt(_) | Self::Incompatible(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
