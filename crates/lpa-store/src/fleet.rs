//! Fleet-wide crash recovery: per-tenant checkpoint lineages plus the
//! global manifest.
//!
//! [`CheckpointedFleet`] wraps an in-memory [`Fleet`] with one
//! [`CheckpointStore`] per tenant (`<root>/tenant-NNNN/ckpt-*.lpa`) and a
//! [`FleetManifest`] at `<root>/manifest.lpa`. At every checkpoint cadence
//! boundary it snapshots *every* tenant (quarantined ones included —
//! capture is read-only), then atomically rewrites the manifest, so a
//! process kill at any moment restores the whole fleet from the last
//! cadence boundary, bit-identical to the uninterrupted run.
//!
//! Failure philosophy: durability failures are counted, attributed to the failing tenant
//! through the fleet's quarantine funnel, and never fatal — one tenant's
//! corrupt checkpoint quarantines *that tenant*; a corrupt manifest falls
//! back to per-tenant directory scans; an all-corrupt tenant lineage
//! degrades to a fresh tenant (plus a restore error), never a panic.

use crate::journal::{DeploymentJournal, JOURNAL_FILE};
use crate::manifest::{load_manifest, save_manifest, FleetManifest, ManifestEntry};
use crate::service::{capture_service, restore_parts};
use crate::session::OfflineTemplate;
use crate::snapshot::{Checkpoint, TenantSnapshot};
use crate::store::CheckpointStore;
use crate::StoreError;
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_service::{
    Fleet, FleetConfig, FleetError, FleetReport, FleetStoreCounters, TenantErrorKind, TenantSpec,
};
use std::path::{Path, PathBuf};

/// Capture one tenant's complete resumable state: the fleet's scheduling
/// fields around [`capture_service`] of the tenant's service. Read-only;
/// safe for quarantined tenants.
pub fn capture_tenant(
    fleet: &Fleet,
    tenant: usize,
    round: u64,
) -> Result<TenantSnapshot, FleetError> {
    let service =
        capture_service(round, fleet.tenant_service(tenant)?).map_err(|e| FleetError::Storage {
            reason: e.to_string(),
        })?;
    Ok(TenantSnapshot {
        tenant: tenant as u64,
        round,
        episode: fleet.tenant_episode(tenant)? as u64,
        status: fleet.tenant_status(tenant)?,
        errors_since_rejoin: fleet.tenant_errors_since_rejoin(tenant)?,
        counters: fleet.tenant_counters(tenant)?,
        service,
    })
}

/// Apply a tenant snapshot to an already-admitted tenant slot. The
/// advisor's environment is rebuilt from the tenant's schema and workload
/// (pure functions of the spec — fleet tenants are built without reserved
/// slots, so the live workload *is* the spec's) under the fleet's
/// cost-model convention (`CostParams::standard()`).
pub fn restore_tenant(fleet: &mut Fleet, snap: TenantSnapshot) -> Result<(), StoreError> {
    let tenant = snap.tenant as usize;
    let to_store = |e: FleetError| StoreError::Incompatible(e.to_string());
    let template = OfflineTemplate {
        schema: fleet.tenant_schema(tenant).map_err(to_store)?.clone(),
        workload: fleet.tenant_workload(tenant).map_err(to_store)?.clone(),
        model: NetworkCostModel::new(CostParams::standard()),
    };
    let (advisor, service) = restore_parts(snap.service, template)?;
    fleet
        .restore_tenant(
            tenant,
            advisor,
            service,
            snap.episode as usize,
            snap.status,
            snap.errors_since_rejoin,
            snap.counters,
        )
        .map_err(to_store)
}

fn tenant_dir(root: &Path, tenant: usize) -> PathBuf {
    root.join(format!("tenant-{tenant:04}"))
}

/// A [`Fleet`] that checkpoints every tenant on a round cadence and
/// restores the whole fleet — scheduler position, admission counters,
/// every tenant's training state — after a process kill.
#[derive(Debug)]
pub struct CheckpointedFleet {
    fleet: Fleet,
    root: PathBuf,
    /// Checkpoint cadence: snapshot the fleet after every `every` rounds.
    every: u64,
    /// One lineage per tenant; `None` when its directory could not be
    /// opened (counted as a write failure, never fatal — every checkpoint
    /// of that tenant then fails and is counted in turn).
    stores: Vec<Option<CheckpointStore>>,
    /// Last sequence durably written per tenant (kept in the manifest even
    /// when a newer write fails).
    last_good: Vec<Option<u64>>,
    /// Deployment audit log at `<root>/journal.lpa`; `None` when the file
    /// could not be opened (counted as a write failure, never fatal).
    journal: Option<DeploymentJournal>,
    write_failures: u64,
    manifest_fallbacks: u64,
}

impl CheckpointedFleet {
    /// A fresh checkpointed fleet rooted at `root` (created if needed).
    pub fn create(
        cfg: FleetConfig,
        root: impl Into<PathBuf>,
        every: u64,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let mut write_failures = 0;
        let journal = match DeploymentJournal::open(root.join(JOURNAL_FILE)) {
            Ok(j) => Some(j),
            Err(_) => {
                write_failures += 1;
                None
            }
        };
        Ok(Self {
            fleet: Fleet::new(cfg),
            root,
            every: every.max(1),
            stores: Vec::new(),
            last_good: Vec::new(),
            journal,
            write_failures,
            manifest_fallbacks: 0,
        })
    }

    /// Admit a tenant, then open its checkpoint lineage. Admission control
    /// goes first, so a rejected (or unbuildable) spec leaves no
    /// `tenant-NNNN/` directory behind.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<usize, FleetError> {
        let id = self.fleet.admit(spec)?;
        let store = CheckpointStore::open(tenant_dir(&self.root, id)).ok();
        if store.is_none() {
            self.write_failures += 1;
        }
        self.stores.push(store);
        self.last_good.push(None);
        Ok(id)
    }

    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// The on-disk deployment journal, if it opened cleanly.
    pub fn journal(&self) -> Option<&DeploymentJournal> {
        self.journal.as_ref()
    }

    /// Run one round, drain the round's guardrail events into the on-disk
    /// deployment journal, and checkpoint the whole fleet when the cadence
    /// lands.
    pub fn run_round(&mut self) {
        self.fleet.run_round();
        let events = self.fleet.drain_journal();
        if let Some(journal) = &mut self.journal {
            if journal.append(&events).is_err() {
                self.write_failures += 1;
            }
        }
        if self.fleet.round().is_multiple_of(self.every) {
            self.checkpoint_now();
        }
    }

    /// Advance the fleet by `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// Snapshot every tenant, then atomically rewrite the manifest.
    /// Failures are counted and routed through the quarantine funnel,
    /// never propagated — a lost checkpoint costs recovery granularity,
    /// not fleet progress.
    #[expect(
        clippy::indexing_slicing,
        reason = "tenant indices are below the tenant count that sized stores and last_good"
    )]
    pub fn checkpoint_now(&mut self) {
        let round = self.fleet.round();
        for tenant in 0..self.fleet.tenant_count() {
            let written = match capture_tenant(&self.fleet, tenant, round) {
                Ok(snap) => self.stores[tenant]
                    .as_mut()
                    .is_some_and(|store| store.save(&Checkpoint::Tenant(snap)).is_ok()),
                Err(_) => false,
            };
            if written {
                self.last_good[tenant] = Some(round);
            } else {
                self.write_failures += 1;
                // The slot exists, so the funnel cannot reject it.
                let _ = self
                    .fleet
                    .record_tenant_error(tenant, TenantErrorKind::Checkpoint);
            }
        }
        let manifest = FleetManifest {
            round,
            rejected_admissions: self.fleet.report().rejected_admissions,
            stage_rounds: self.fleet.stage_rounds().to_vec(),
            entries: self
                .last_good
                .iter()
                .enumerate()
                .filter_map(|(tenant, seq)| {
                    seq.map(|sequence| ManifestEntry {
                        tenant: tenant as u64,
                        sequence,
                    })
                })
                .collect(),
        };
        if save_manifest(&self.root, &manifest).is_err() {
            self.write_failures += 1;
        }
    }

    /// Rebuild a fleet from `specs` and restore whatever `root` holds —
    /// the whole-process recovery path. A valid manifest drives the
    /// restore (scheduler round, admission counters, tenant → latest-good
    /// sequence); a corrupt manifest is counted and degrades to per-tenant
    /// directory scans; a missing manifest means a fresh fleet. Per-tenant
    /// restore failures (corrupt lineage, template mismatch) leave that
    /// tenant fresh and are recorded as restore errors, so the quarantine
    /// policy contains the blast radius to the tenant that lost state.
    #[expect(
        clippy::indexing_slicing,
        reason = "tenant indices are below the tenant count that sized stores and last_good"
    )]
    pub fn resume_or(
        cfg: FleetConfig,
        specs: Vec<TenantSpec>,
        root: impl Into<PathBuf>,
        every: u64,
    ) -> Result<Self, StoreError> {
        let mut me = Self::create(cfg, root, every)?;
        for spec in specs {
            match me.admit(spec) {
                Ok(_) => {}
                // Over-budget specs are rejected here exactly as they were
                // in the original process; the counter is restored below.
                Err(FleetError::AdmissionRejected { .. }) => {}
                Err(e) => return Err(StoreError::Incompatible(e.to_string())),
            }
        }
        let manifest = match load_manifest(&me.root) {
            Ok(m) => m,
            Err(_) => {
                me.manifest_fallbacks += 1;
                None
            }
        };
        // Phase 1: pull the newest valid snapshot out of every tenant's
        // lineage (corruptions and fallbacks are counted by the stores).
        let mut loaded: Vec<Option<(u64, TenantSnapshot)>> = Vec::new();
        for tenant in 0..me.fleet.tenant_count() {
            let schema = match me.fleet.tenant_schema(tenant) {
                Ok(s) => s.clone(),
                Err(_) => {
                    loaded.push(None);
                    continue;
                }
            };
            let snap = match me.stores[tenant]
                .as_mut()
                .map(|store| store.load_latest(&schema))
            {
                Some(Ok(Some((seq, ck)))) => ck.into_tenant().ok().map(|s| (seq, s)),
                Some(Ok(None)) | Some(Err(_)) | None => None,
            };
            loaded.push(snap);
        }
        // Phase 2: position the scheduler *before* applying snapshots, so
        // quarantine decisions made for restore failures are relative to
        // the resumed round. Without a manifest the round degrades to the
        // newest round any tenant checkpointed.
        let resume_round = match &manifest {
            Some(m) => m.round,
            None => loaded
                .iter()
                .flatten()
                .map(|(_, s)| s.round)
                .max()
                .unwrap_or(0),
        };
        me.fleet.restore_scheduler(0, resume_round);
        if let Some(m) = &manifest {
            me.fleet.restore_rejected_admissions(m.rejected_admissions);
            me.fleet.restore_stage_rounds(m.stage_rounds.clone());
        }
        for (tenant, entry) in loaded.into_iter().enumerate() {
            let expected = manifest.as_ref().and_then(|m| m.sequence_of(tenant as u64));
            let mut failed = false;
            match entry {
                Some((seq, snap)) => {
                    me.last_good[tenant] = Some(seq);
                    // Restoring an older boundary than the manifest
                    // promised means this tenant lost its newest state
                    // (corrupt newest file): it is out of lockstep with
                    // the fleet and must answer to the quarantine policy.
                    if expected.is_some_and(|e| e != seq) {
                        failed = true;
                    }
                    if restore_tenant(&mut me.fleet, snap).is_err() {
                        failed = true;
                    }
                }
                None => {
                    // No usable snapshot. Only an error if the manifest
                    // (or leftover files) say there should have been one —
                    // a genuinely new tenant starts fresh silently.
                    let leftovers = me.stores[tenant]
                        .as_ref()
                        .is_some_and(|store| !store.list().is_empty());
                    if expected.is_some() || leftovers {
                        failed = true;
                    }
                }
            }
            if failed {
                let _ = me
                    .fleet
                    .record_tenant_error(tenant, TenantErrorKind::Restore);
            }
        }
        Ok(me)
    }

    /// Fleet report with the durable-store counters filled in (the fleet
    /// alone reports zeros there): checkpoints written, corruptions
    /// detected, restores, last-good fallbacks, write failures, manifest
    /// fallbacks — aggregated across every tenant's lineage.
    pub fn report(&self) -> FleetReport {
        let mut report = self.fleet.report();
        let mut store = FleetStoreCounters {
            write_failures: self.write_failures,
            manifest_fallbacks: self.manifest_fallbacks,
            ..FleetStoreCounters::default()
        };
        for s in self.stores.iter().flatten() {
            let c = s.counters();
            store.checkpoints_written += c.checkpoints_written;
            store.corruptions_detected += c.checkpoint_corruptions_detected;
            store.restores += c.checkpoint_restores;
            store.fallbacks += c.checkpoint_fallbacks;
        }
        report.store = store;
        report
    }
}
