//! Fleet-wide crash recovery: one segment file per checkpoint cadence plus
//! the global manifest that commits it.
//!
//! [`CheckpointedFleet`] wraps an in-memory [`Fleet`]. At every checkpoint
//! cadence boundary it captures *every* tenant (quarantined ones included —
//! capture is read-only) and writes their sealed checkpoints back to back,
//! in tenant order, as one segment `<root>/segment-NNNNNNNN.lpa` (numbered
//! by round) with one atomic write, each checkpoint streamed into the temp
//! file as it is encoded. Then it atomically rewrites the
//! [`FleetManifest`] at `<root>/manifest.lpa`, which is the commit point: a
//! segment newer than the manifest was never committed, and resume ignores
//! it. So a process kill at any moment restores the whole fleet from the
//! last committed boundary, bit-identical to the uninterrupted run. The two
//! newest committed segments are kept, plus any older one a manifest entry
//! still names; the rest are pruned once the manifest has landed.
//!
//! Failure philosophy: durability failures are counted, attributed to the failing tenant
//! through the fleet's quarantine funnel, and never fatal. Each checkpoint
//! in a segment carries its own length and CRC, so a damaged byte costs
//! only the tenant whose checkpoint holds it: that tenant falls back to the
//! previous segment and is quarantined. A corrupt manifest falls back to a
//! scan of the newest segment; an intact manifest of another version is
//! [`StoreError::Incompatible`]; a tenant with no readable checkpoint
//! restarts fresh with a restore error, never a panic.

use crate::codec::{open, sealed_len, ByteReader, Wire};
use crate::journal::{DeploymentJournal, JOURNAL_FILE};
use crate::manifest::{load_manifest, save_manifest, FleetManifest, ManifestEntry};
use crate::service::{capture_service, restore_parts};
use crate::session::OfflineTemplate;
use crate::snapshot::{Checkpoint, TenantSnapshot};
use crate::store::{atomic_write_with, encode_checkpoint, numbered_files, FORMAT_VERSION, MAGIC};
use crate::StoreError;
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_par::Pool;
use lpa_schema::Schema;
use lpa_service::{
    Benchmark, Fleet, FleetConfig, FleetError, FleetReport, FleetStoreCounters, TenantErrorKind,
    TenantRestore, TenantSpec,
};
use lpa_workload::Workload;
use std::io::Write;
use std::path::PathBuf;

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

/// Decode a tenant snapshot into the state its tenant is rebuilt from.
/// The advisor's environment is built over `schema` and `workload` (pure
/// functions of the spec — fleet tenants are built without reserved slots,
/// so the live workload *is* the spec's), moved in, under the fleet's
/// cost-model convention (`CostParams::standard()`).
fn tenant_restore(
    snap: TenantSnapshot,
    schema: Schema,
    workload: Workload,
) -> Result<TenantRestore, StoreError> {
    let template = OfflineTemplate {
        schema,
        workload,
        model: NetworkCostModel::new(CostParams::standard()),
    };
    let (advisor, service) = restore_parts(snap.service, template)?;
    Ok(TenantRestore {
        advisor,
        service,
        episode: snap.episode as usize,
        status: snap.status,
        errors_since_rejoin: snap.errors_since_rejoin,
        counters: snap.counters,
    })
}

/// Apply a tenant snapshot to an already-admitted tenant slot, all or
/// nothing (see [`Fleet::restore_tenant`]).
pub fn restore_tenant(fleet: &mut Fleet, snap: TenantSnapshot) -> Result<(), StoreError> {
    let tenant = snap.tenant as usize;
    let to_store = |e: FleetError| StoreError::Incompatible(e.to_string());
    let schema = fleet.tenant_schema(tenant).map_err(to_store)?.clone();
    let workload = fleet.tenant_workload(tenant).map_err(to_store)?.clone();
    let restore = tenant_restore(snap, schema, workload)?;
    fleet.restore_tenant(tenant, restore).map_err(to_store)
}

const SEGMENT_PREFIX: &str = "segment-";

/// Walk one segment file by its checkpoints' sealed lengths. A checkpoint
/// that fails verification is counted and skipped by scanning forward for
/// the next [`MAGIC`], so damage costs only the tenant whose checkpoint it
/// hits. A checkpoint is decoded only when `schema_of` knows its tenant
/// (the payload's first `u64`, trusted once the CRC holds); others are
/// verified and passed over. The walk and its CRC checks are serial; the
/// checkpoints it keeps are decoded as tasks on `lpa-par`'s pool, and one
/// that fails to decode counts as failed too. Returns the decoded
/// snapshots in segment order and the number of checkpoints that failed.
/// Never panics.
pub fn read_segment<'s>(
    bytes: &'s [u8],
    schema_of: impl Fn(u64) -> Option<&'s Schema>,
) -> (Vec<TenantSnapshot>, u64) {
    let (mut wanted, mut corrupt, mut pos) = (Vec::new(), 0, 0);
    while pos < bytes.len() {
        let rest = bytes.get(pos..).unwrap_or_default();
        let frame = sealed_len(rest, 1).and_then(|len| rest.get(..len));
        let open_frame = |frame: &'s [u8]| -> Result<(u8, ByteReader<'s>, u64), StoreError> {
            let (tag, r) = open(frame, &MAGIC, FORMAT_VERSION, 1)?;
            let tenant = u64::take(&mut r.clone())?;
            Ok((tag.first().copied().unwrap_or(0), r, tenant))
        };
        match frame.map(|f| (f.len(), open_frame(f))) {
            Some((len, Ok((tag, r, tenant)))) => {
                if let Some(schema) = schema_of(tenant) {
                    wanted.push((tag, r.with_schema(schema)));
                }
                pos += len;
            }
            Some((_, Err(_))) | None => {
                corrupt += 1;
                pos = bytes
                    .get(pos + 1..)
                    .and_then(|rest| rest.windows(MAGIC.len()).position(|w| w == MAGIC))
                    .map_or(bytes.len(), |at| pos + 1 + at);
            }
        }
    }
    let decoded = Pool::current().par_map(&wanted, |_, (tag, r)| {
        let mut r = r.clone();
        let ck = Checkpoint::decode_payload(*tag, &mut r)?;
        r.finish()?;
        ck.into_tenant()
    });
    let mut snaps = Vec::with_capacity(decoded.len());
    for snap in decoded {
        match snap {
            Ok(snap) => snaps.push(snap),
            Err(_) => corrupt += 1,
        }
    }
    (snaps, corrupt)
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
    /// The segment holding each tenant's last durably written checkpoint
    /// (kept in the manifest even when a newer write fails).
    last_good: Vec<Option<u64>>,
    /// Deployment audit log at `<root>/journal.lpa`; `None` when the file
    /// could not be opened (counted as a write failure, never fatal).
    journal: Option<DeploymentJournal>,
    store: FleetStoreCounters,
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
        let journal = DeploymentJournal::open(root.join(JOURNAL_FILE)).ok();
        Ok(Self {
            fleet: Fleet::new(cfg),
            root,
            every: every.max(1),
            last_good: Vec::new(),
            store: FleetStoreCounters {
                write_failures: u64::from(journal.is_none()),
                ..FleetStoreCounters::default()
            },
            journal,
        })
    }

    /// Admit a tenant. Nothing is written until the next cadence, so a
    /// rejected (or unbuildable) spec leaves nothing behind on disk.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<usize, FleetError> {
        let id = self.fleet.admit(spec)?;
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
                self.store.write_failures += 1;
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

    /// Write every tenant's checkpoint as one segment, then commit it by
    /// atomically rewriting the manifest, then prune segments nothing needs.
    /// Failures are counted and routed through the quarantine funnel,
    /// never propagated — a lost checkpoint costs recovery granularity,
    /// not fleet progress.
    #[expect(
        clippy::indexing_slicing,
        reason = "tenant indices are below the tenant count that sized last_good"
    )]
    pub fn checkpoint_now(&mut self) {
        let round = self.fleet.round();
        let path = self.root.join(format!("{SEGMENT_PREFIX}{round:08}.lpa"));
        // Each checkpoint goes to the file as it is encoded: memory holds
        // one tenant's bytes at a time, never the whole segment.
        let mut captured = vec![false; self.fleet.tenant_count()];
        let written = atomic_write_with(&path, |f| {
            for (tenant, captured) in captured.iter_mut().enumerate() {
                if let Ok(snap) = capture_tenant(&self.fleet, tenant, round) {
                    f.write_all(&encode_checkpoint(&Checkpoint::Tenant(snap)))?;
                    *captured = true;
                }
            }
            Ok(())
        })
        .is_ok();
        for (tenant, captured) in captured.into_iter().enumerate() {
            if captured && written {
                self.store.checkpoints_written += 1;
                self.last_good[tenant] = Some(round);
            } else {
                self.store.write_failures += 1;
                // The slot exists, so the funnel cannot reject it.
                let _ = self
                    .fleet
                    .record_tenant_error(tenant, TenantErrorKind::Checkpoint);
            }
        }
        let manifest = FleetManifest {
            round,
            rejected_admissions: self.fleet.rejected_admissions(),
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
            self.store.write_failures += 1;
            return;
        }
        // Keep the two newest committed segments and any the manifest names.
        let segments = numbered_files(&self.root, SEGMENT_PREFIX);
        let committed = segments.iter().filter(|(seq, _)| *seq <= round).count();
        for (i, (seq, path)) in segments.iter().enumerate() {
            if *seq > round
                || (i + 2 < committed && manifest.entries.iter().all(|e| e.sequence != *seq))
            {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Rebuild a fleet from `specs` and restore whatever `root` holds —
    /// the whole-process recovery path. A valid manifest drives the
    /// restore (scheduler round, admission counters, tenant → segment of its
    /// latest-good checkpoint), and segments newer than it are ignored as
    /// never committed; no manifest means nothing was committed, so a fresh
    /// fleet. A corrupt manifest is counted and degrades to the newest
    /// segment on disk; an intact manifest of another version is
    /// `Incompatible`. Each segment is read at most once, newest first. A
    /// tenant missing or corrupt in the segment it expects falls back to an
    /// older one; a tenant with no readable checkpoint, or whose checkpoint
    /// is refused, starts fresh with a restore error, so the quarantine
    /// policy contains the blast radius to the tenant that lost state.
    ///
    /// Every tenant is built once: straight from its checkpoint, or fresh
    /// when it has none ([`Fleet::admit_batch`]). Checkpoints are decoded,
    /// and tenants built, as tasks on `lpa-par`'s pool; the segment walk,
    /// the scheduler and the restore errors are serial, in tenant order.
    #[expect(
        clippy::indexing_slicing,
        reason = "tenant indices are below the count that sized found and want"
    )]
    pub fn resume_or(
        cfg: FleetConfig,
        specs: Vec<TenantSpec>,
        root: impl Into<PathBuf>,
        every: u64,
    ) -> Result<Self, StoreError> {
        let mut me = Self::create(cfg, root, every)?;
        let (committed, manifest) = match load_manifest(&me.root) {
            Ok(m) => (m.as_ref().map(|m| m.round), m),
            Err(e @ StoreError::Incompatible(_)) => return Err(e),
            Err(StoreError::Corrupt(_) | StoreError::Io(_)) => {
                me.store.manifest_fallbacks += 1;
                (Some(u64::MAX), None)
            }
        };
        let mut segments = numbered_files(&me.root, SEGMENT_PREFIX);
        segments.retain(|(seq, _)| committed.is_some_and(|c| *seq <= c));
        let newest = segments.last().map(|(seq, _)| *seq);
        // Admission takes the specs in order up to the budget, so tenant
        // `t` is spec `t`.
        let n = specs.len().min(me.fleet.config().max_tenants);
        let want: Vec<Option<u64>> = (0..n as u64)
            .map(|t| manifest.as_ref().map_or(newest, |m| m.sequence_of(t)))
            .collect();
        // A checkpoint decodes against its spec's schema, built once per
        // distinct database; a spec without one fails its admission below.
        let database = |spec: &TenantSpec| (spec.benchmark, spec.scale.to_bits());
        let mut schemas: Vec<((Benchmark, u64), Schema)> = Vec::new();
        for spec in specs.iter().take(n) {
            if schemas.iter().all(|(db, _)| *db != database(spec)) {
                if let Ok(schema) = spec.schema() {
                    schemas.push((database(spec), schema));
                }
            }
        }
        let schema_of = |t: usize| {
            let db = database(specs.get(t)?);
            schemas
                .iter()
                .find(|(d, _)| *d == db)
                .map(|(_, schema)| schema)
        };
        // Phase 1: walk segments newest first, each only while some tenant
        // still looks for a checkpoint at or below it.
        let mut found: Vec<Option<(u64, TenantSnapshot)>> = (0..n).map(|_| None).collect();
        for (seq, path) in segments.iter().rev() {
            let looking = |t: usize| found[t].is_none() && want[t].is_some_and(|w| w >= *seq);
            if !(0..n).any(looking) {
                continue;
            }
            let Ok(bytes) = std::fs::read(path) else {
                me.store.corruptions_detected += 1;
                continue;
            };
            let (snaps, corrupt) = read_segment(&bytes, |t| {
                usize::try_from(t)
                    .ok()
                    .filter(|&t| t < n && looking(t))
                    .and_then(schema_of)
            });
            me.store.corruptions_detected += corrupt;
            for snap in snaps {
                let tenant = snap.tenant as usize;
                found[tenant] = Some((*seq, snap));
            }
        }
        // Phase 2: build every tenant once, from its snapshot if it has one.
        let seqs: Vec<Option<u64>> = found.iter().map(|f| f.as_ref().map(|f| f.0)).collect();
        let states = found
            .into_iter()
            .map(|f| f.map(|f| f.1))
            .chain(std::iter::repeat_with(|| None));
        let refused = me
            .fleet
            .admit_batch(
                specs.into_iter().zip(states).collect(),
                |_, snap, schema, workload| {
                    tenant_restore(snap, schema, workload).map_err(|e| e.to_string())
                },
            )
            .map_err(|e| StoreError::Incompatible(e.to_string()))?;
        let mut refused_at = vec![false; n];
        for e in refused {
            if let FleetError::RestoreFailed { tenant, .. } = e {
                refused_at[tenant] = true;
            }
        }
        me.last_good = vec![None; me.fleet.tenant_count()];
        // Phase 3: position the scheduler *before* recording restore
        // errors, so their quarantine decisions are relative to the resumed
        // round. Without a manifest the round degrades to the newest
        // segment's.
        let resume_round = manifest.as_ref().map_or(newest.unwrap_or(0), |m| m.round);
        me.fleet.restore_scheduler(0, resume_round);
        if let Some(m) = &manifest {
            me.fleet.restore_rejected_admissions(m.rejected_admissions);
            me.fleet.restore_stage_rounds(m.stage_rounds.clone());
        }
        for (tenant, (seq, want)) in seqs.into_iter().zip(want).enumerate() {
            // No usable snapshot is an error only where one was expected —
            // a genuinely new tenant starts fresh silently.
            let mut failed = want.is_some();
            if let Some(seq) = seq {
                me.store.restores += 1;
                me.last_good[tenant] = Some(seq);
                // Restoring an older boundary than expected means this
                // tenant lost its newest state: it is out of lockstep with
                // the fleet and must answer to the quarantine policy.
                failed = want != Some(seq);
                me.store.fallbacks += u64::from(failed);
                failed |= refused_at[tenant];
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
    /// detected, restores, fallbacks to an older segment, write failures,
    /// manifest fallbacks.
    pub fn report(&self) -> FleetReport {
        let mut report = self.fleet.report();
        report.store = self.store;
        report
    }
}
