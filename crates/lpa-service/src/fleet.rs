//! The multi-tenant advisor **fleet** — one process, many databases.
//!
//! The paper trains one advisor per deployment; the production control
//! plane serves thousands of tenant databases from a single process. Each
//! tenant *is* a [`PartitioningService`] — advisor, cluster, SQL monitor,
//! forecaster and deployment guardrail, closing its windows through the
//! same [`PartitioningService::close_window`] a standalone service uses;
//! the [`Fleet`] adds only scheduling, admission, quarantine and budgets,
//! interleaving per-tenant training/advice *slices* under a fixed
//! [`RoundRobin`] schedule (admissions fold in only at round
//! boundaries), so the whole fleet advances bit-identically at any
//! `LPA_THREADS` — parallelism lives *inside* a slice (the NN kernels),
//! never in the slice order.
//!
//! Robustness contract (the reason this module exists):
//!
//! * **Per-tenant error domains.** Every tenant-facing API returns
//!   `Result`; a tenant's failure is recorded in its own counters and can
//!   never panic or stall the scheduler loop.
//! * **Quarantine.** A tenant whose errors exceed its
//!   [`QuarantinePolicy`] budget is quarantined: its slices are issued by
//!   the scheduler but *skipped* (so every other tenant's slice sequence
//!   is unchanged — the isolation argument), counted, and the tenant
//!   rejoins automatically after a cool-down measured in rounds (the
//!   fleet's simulated clock: one round = one decision window).
//! * **Admission control.** Admissions beyond [`FleetConfig::max_tenants`]
//!   are rejected and counted; admissions inside the budget are *deferred*
//!   by the scheduler to the next round boundary so an in-flight round is
//!   never reordered.
//! * **Salted randomness.** Every per-tenant random stream — agent seed,
//!   fault plan, the chaos a [`SliceHook`] injects — is derived via
//!   [`lpa_par::derive_stream3`] from `(fleet seed, tenant id, purpose)`,
//!   so chaos configured for tenant *i* is bit-neutral for tenant *j*.
//!
//! Tenant internals ([`TenantSlot`]) are reachable only through the
//! fleet's accessors — lint rule L014 forbids reaching into another
//! tenant's state from outside this module.

use crate::hook::{NoHook, SliceHook};
use crate::monitor::Observation;
use crate::service::{
    PartitioningService, ServiceConfig, ServiceEvent, ServiceResumeState, WindowReport,
};
use lpa_advisor::{Advisor, AdvisorEnv, RewardBackend};
use lpa_cluster::{
    Cluster, ClusterConfig, ClusterHealth, EngineProfile, FaultPlan, GuardrailAccounting,
    GuardrailConfig, GuardrailEvent, HardwareProfile, Substrate, SubstrateStats,
};
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_par::derive_stream3;
use lpa_par::schedule::RoundRobin;
use lpa_rl::DqnConfig;
use lpa_schema::Schema;
use lpa_workload::{MixSampler, Workload};
use std::sync::Arc;

/// Purpose salts for [`derive_stream3`] — one per independent per-tenant
/// random stream. Distinctness of the resulting streams over
/// (tenant, purpose) is property-tested by the salt-collision audit.
pub const SALT_AGENT: u64 = 0xA6E7_0001;
/// Salt for the tenant's cluster fault plan.
pub const SALT_FAULTS: u64 = 0xFA17_0002;
/// Salt for injected per-slice step errors.
pub const SALT_STEP_ERR: u64 = 0x57E9_0003;
/// Salt for adversarially poisoned advice (guardrail keystone tests).
pub const SALT_POISON: u64 = 0xB015_0004;

/// In-memory deployment-journal buffer cap. The durable layer drains the
/// buffer every round; a fleet running without one drops the oldest
/// records past this bound (counted) instead of growing without limit.
const JOURNAL_BUFFER_CAP: usize = 1 << 16;

/// Benchmark family a tenant's schema + workload are generated from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Benchmark {
    /// Star Schema Benchmark.
    Ssb,
    /// TPC-CH (TPC-C schema, TPC-H-style queries).
    TpcCh,
    /// The two-table microbenchmark (cheapest; test fleets).
    Micro,
}

/// Everything needed to (re)build a tenant deterministically. Admission
/// with the same spec into the same fleet seed + slot always produces the
/// bitwise-same tenant — the property crash recovery leans on.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    pub name: String,
    pub benchmark: Benchmark,
    /// Schema scale factor.
    pub scale: f64,
    /// Tenant-private seed, mixed with the fleet seed and tenant id.
    pub seed: u64,
    /// Total training budget in episodes; once reached, slices only serve
    /// advice and probe queries.
    pub episodes: usize,
    /// Base fault plan; salted per tenant before it touches the cluster.
    pub fault_plan: FaultPlan,
}

impl TenantSpec {
    /// A healthy tenant: no faults.
    pub fn new(name: impl Into<String>, benchmark: Benchmark, scale: f64, seed: u64) -> Self {
        Self {
            name: name.into(),
            benchmark,
            scale,
            seed,
            episodes: 12,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// When to quarantine a failing tenant and when to let it back in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Errors tolerated since admission/rejoin before quarantine: the
    /// `max_errors + 1`-th error triggers it, so `0` means *quarantine on
    /// the first error*. Use [`QuarantinePolicy::never`] to disable.
    pub max_errors: u64,
    /// Full rounds the tenant sits out. `0` still skips the remainder of
    /// nothing — the tenant rejoins at its very next slice.
    pub cooldown_rounds: u64,
}

impl QuarantinePolicy {
    /// Quarantine never fires, no matter how many errors accumulate.
    pub fn never() -> Self {
        Self {
            max_errors: u64::MAX,
            cooldown_rounds: 0,
        }
    }
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        Self {
            max_errors: 2,
            cooldown_rounds: 2,
        }
    }
}

/// Fleet-wide knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Root seed; every per-tenant stream derives from it.
    pub seed: u64,
    /// Admission budget; admissions beyond it are rejected.
    pub max_tenants: usize,
    /// Training episodes per slice (the cooperative step budget).
    pub episodes_per_slice: usize,
    /// Probe queries run against the tenant's cluster each slice — they
    /// exercise the fault layer so `ClusterHealth` reflects real traffic.
    pub probe_queries: usize,
    /// Simulated seconds a slice advances the tenant's cluster clock.
    pub window_seconds: f64,
    pub quarantine: QuarantinePolicy,
    /// Hidden layer widths for every tenant's Q-network.
    pub hidden: Vec<usize>,
    pub batch_size: usize,
    /// Episode horizon (steps per episode) for tenant DQN configs.
    pub tmax: usize,
    /// Per-tenant safe-deployment policy. [`GuardrailConfig::inert`]
    /// reproduces the legacy deploy-on-predicted-improvement path (the
    /// guardrail experiments' control arm).
    pub guardrail: GuardrailConfig,
    /// Fleet-wide aggregate deploy budget: at most this many canaries may
    /// start across *all* tenants within any `guardrail.budget_window`
    /// consecutive rounds. `u64::MAX` disables the aggregate cap.
    pub fleet_budget_deploys: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            seed: 0xF1EE7,
            max_tenants: 128,
            episodes_per_slice: 1,
            probe_queries: 2,
            window_seconds: 1.0,
            quarantine: QuarantinePolicy::default(),
            hidden: vec![16, 8],
            batch_size: 8,
            tmax: 3,
            guardrail: GuardrailConfig::default(),
            fleet_budget_deploys: u64::MAX,
        }
    }
}

/// Why a fleet call failed. Tenant-local failures carry the tenant id so
/// callers can attribute them without touching tenant state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// Admission rejected: the fleet is at its configured budget.
    AdmissionRejected { budget: usize },
    /// The tenant id does not name an admitted tenant.
    UnknownTenant(usize),
    /// Building the tenant's schema/workload failed.
    TenantBuild { name: String, reason: String },
    /// Restoring tenant state from a checkpoint failed.
    RestoreFailed { tenant: usize, reason: String },
    /// The durable layer (checkpoint store, manifest) failed.
    Storage { reason: String },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::AdmissionRejected { budget } => {
                write!(f, "admission rejected: fleet at budget ({budget} tenants)")
            }
            Self::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            Self::TenantBuild { name, reason } => {
                write!(f, "building tenant {name:?} failed: {reason}")
            }
            Self::RestoreFailed { tenant, reason } => {
                write!(f, "restoring tenant {tenant} failed: {reason}")
            }
            Self::Storage { reason } => write!(f, "fleet storage failed: {reason}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Where a tenant error came from — each source counts separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantErrorKind {
    /// A training/advice slice failed.
    Step,
    /// Restoring the tenant from its checkpoint lineage failed.
    Restore,
    /// Writing the tenant's checkpoint failed.
    Checkpoint,
}

/// Scheduling state of a tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantStatus {
    Active,
    /// Skipped until the scheduler reaches `until_round`; the slice *at*
    /// `until_round` runs (cool-down expires exactly on that boundary).
    Quarantined {
        until_round: u64,
    },
}

/// Per-tenant fairness and robustness counters. Cumulative over the
/// tenant's lifetime; they survive checkpoint/restore.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Slices the scheduler issued to this tenant.
    pub slices_issued: u64,
    /// Slices actually run (issued − skipped-in-quarantine − failed).
    pub slices_run: u64,
    /// Slices skipped because the tenant was quarantined.
    pub slices_skipped: u64,
    pub step_errors: u64,
    pub restore_errors: u64,
    pub checkpoint_errors: u64,
    /// Times the tenant entered quarantine.
    pub quarantines: u64,
    /// Times the tenant rejoined after cool-down.
    pub rejoins: u64,
    /// Partitionings deployed to the tenant's cluster.
    pub deployments: u64,
    /// Windows that closed with any active fault or degraded measurement.
    pub degraded_windows: u64,
}

/// One tenant: scheduling state plus the service that does the work.
/// Private by design: everything outside this module goes through
/// [`Fleet`] accessors (lint rule L014), so one tenant's code path can
/// never reach into another tenant's state.
#[derive(Debug)]
struct TenantSlot {
    spec: TenantSpec,
    /// Next training episode (== episodes completed).
    episode: usize,
    status: TenantStatus,
    /// Errors since admission or the last rejoin — the quarantine budget.
    errors_since_rejoin: u64,
    counters: TenantCounters,
    /// Advisor, cluster, monitor, forecaster and guardrail — the only path
    /// to the tenant's cluster deploys.
    service: PartitioningService,
}

/// One deployment-journal record: which tenant, which fleet round, what
/// the guardrail decided. Drained by the durable layer (`lpa-store`) into
/// the CRC-framed on-disk journal.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    pub tenant: u64,
    pub round: u64,
    pub event: GuardrailEvent,
}

/// Report for one tenant inside a [`FleetReport`].
#[derive(Clone, Debug)]
pub struct TenantReport {
    pub tenant: usize,
    pub name: String,
    pub status: TenantStatus,
    pub episode: usize,
    pub counters: TenantCounters,
    /// The tenant cluster's health at report time — the fleet-level
    /// aggregation of what `WindowReport.health` exposes per window.
    pub health: ClusterHealth,
    /// Stable fingerprint of the tenant's learned weights.
    pub weight_fingerprint: u64,
    /// The tenant's cumulative guardrail ledger.
    pub guardrail: GuardrailAccounting,
}

/// Durable-store activity, aggregated fleet-wide. Filled in by the
/// checkpointing layer (`lpa-store`); an in-memory fleet reports zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStoreCounters {
    pub checkpoints_written: u64,
    pub corruptions_detected: u64,
    pub restores: u64,
    pub fallbacks: u64,
    /// Checkpoint writes that failed (counted, never fatal).
    pub write_failures: u64,
    /// Whole-manifest reads that fell back to per-tenant directory scans.
    pub manifest_fallbacks: u64,
}

/// Fleet-wide health summary: per-tenant reports plus admission-control
/// and durable-store counters.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Round the next slice belongs to.
    pub round: u64,
    pub per_tenant: Vec<TenantReport>,
    pub rejected_admissions: u64,
    /// Tenants currently quarantined.
    pub quarantined: usize,
    pub store: FleetStoreCounters,
    /// Guardrail ledger summed over every tenant.
    pub guardrail: GuardrailAccounting,
    /// Journal records dropped because the in-memory buffer overflowed
    /// (no durable layer was draining it).
    pub journal_dropped: u64,
}

/// Fleet-level roll-up of per-tenant `WindowReport.health`-style evidence.
/// Quarantined tenants contribute nothing: their slices are skipped, so
/// their stale cluster state says nothing about the current window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthRollup {
    /// Active tenants whose cluster closed the round fault-free.
    pub active_healthy: usize,
    /// Active tenants with any fault activity at report time.
    pub active_degraded: usize,
    /// Tenants excluded from the roll-up (quarantined).
    pub quarantined: usize,
    /// Cumulative degraded/failed measurements across *active* tenants.
    pub degraded_measurements: u64,
}

impl FleetReport {
    /// Tenants whose cluster closed the window with any fault activity,
    /// regardless of scheduling status (includes quarantined tenants —
    /// see [`Self::health_rollup`] for the quarantine-aware view).
    pub fn degraded_tenants(&self) -> usize {
        self.per_tenant
            .iter()
            .filter(|t| !t.health.healthy())
            .count()
    }

    /// Aggregate per-tenant health into the fleet-level summary.
    pub fn health_rollup(&self) -> HealthRollup {
        let mut rollup = HealthRollup::default();
        for t in &self.per_tenant {
            if matches!(t.status, TenantStatus::Quarantined { .. }) {
                rollup.quarantined += 1;
                continue;
            }
            if t.health.healthy() {
                rollup.active_healthy += 1;
            } else {
                rollup.active_degraded += 1;
            }
            rollup.degraded_measurements += t.health.degraded_measurements();
        }
        rollup
    }
}

/// One generated database in the fleet's pool: what determines the data
/// (benchmark, scale, and the cluster config's data seed, engine and
/// hardware) and the substrate every tenant with that spec attaches to.
#[derive(Debug)]
struct PooledSubstrate {
    benchmark: Benchmark,
    scale_bits: u64,
    substrate: Arc<Substrate>,
}

/// One row of [`Fleet::substrates`]: a distinct tenant database, how many
/// clusters share it and how many executions its memo answered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubstrateReport {
    pub benchmark: Benchmark,
    pub scale: f64,
    pub stats: SubstrateStats,
}

/// The fleet: tenants, scheduler, admission control.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    scheduler: RoundRobin,
    tenants: Vec<TenantSlot>,
    /// Each distinct tenant database, generated once. Owned by the fleet
    /// and dropped with it; never checkpointed (a resumed fleet rebuilds
    /// it from the specs, its memo cold).
    substrates: Vec<PooledSubstrate>,
    rejected_admissions: u64,
    /// Rounds in which any tenant started a canary, pruned to the budget
    /// horizon — the fleet-wide aggregate deploy budget's working set.
    /// Checkpointed via the manifest so a resumed fleet enforces the same
    /// budget the killed process would have.
    stage_rounds: Vec<u64>,
    /// Guardrail events awaiting the durable layer (drained every round by
    /// `lpa-store`'s deployment journal).
    journal: Vec<JournalRecord>,
    journal_dropped: u64,
    /// Fault-injection seam; [`NoHook`] unless a test or experiment
    /// installs one. Not checkpointed — hooks are pure, so a resumed fleet
    /// gets the same one installed again.
    hook: Box<dyn SliceHook>,
}

impl Fleet {
    pub fn new(cfg: FleetConfig) -> Self {
        Self {
            cfg,
            scheduler: RoundRobin::new(0),
            tenants: Vec::new(),
            substrates: Vec::new(),
            rejected_admissions: 0,
            stage_rounds: Vec::new(),
            journal: Vec::new(),
            journal_dropped: 0,
            hook: Box::new(NoHook),
        }
    }

    /// Install the fault-injection hook the slice loop consults.
    pub fn set_hook(&mut self, hook: Box<dyn SliceHook>) {
        self.hook = hook;
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The round the next issued slice belongs to.
    pub fn round(&self) -> u64 {
        self.scheduler.round()
    }

    /// Restore the scheduler position (crash recovery).
    pub fn restore_scheduler(&mut self, cursor: usize, round: u64) {
        self.scheduler = RoundRobin::from_parts(self.tenants.len(), cursor, round);
    }

    /// Restore the admission-control counter (crash recovery).
    pub fn restore_rejected_admissions(&mut self, rejected: u64) {
        self.rejected_admissions = rejected;
    }

    /// Admit a tenant. Rejected (and counted) beyond the configured
    /// budget; otherwise the tenant is built deterministically from
    /// `(fleet seed, tenant id, spec)` and receives its first slice in the
    /// round after the current one completes — mid-round admissions are
    /// *deferred*, never reordering an in-flight round.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<usize, FleetError> {
        if self.tenants.len() >= self.cfg.max_tenants {
            self.rejected_admissions += 1;
            return Err(FleetError::AdmissionRejected {
                budget: self.cfg.max_tenants,
            });
        }
        // Build first: a spec that fails to build must not leave a
        // scheduler slot without a tenant behind it.
        let slot = self.build_tenant(self.tenants.len(), spec)?;
        let id = self.scheduler.admit();
        debug_assert_eq!(id, self.tenants.len());
        self.tenants.push(slot);
        Ok(id)
    }

    /// Deterministic tenant construction — pure in
    /// `(cfg.seed, id, spec)`. The cost model is always
    /// `CostParams::standard()`; checkpointing layers rebuild templates
    /// under the same convention.
    fn build_tenant(&mut self, id: usize, spec: TenantSpec) -> Result<TenantSlot, FleetError> {
        let build_err = |reason: String| FleetError::TenantBuild {
            name: spec.name.clone(),
            reason,
        };
        // The schema builders assert on this; a spec is operator input and
        // must fail its own admission, not the process.
        if !(spec.scale.is_finite() && spec.scale > 0.0) {
            return Err(build_err(format!(
                "scale factor {} is not positive",
                spec.scale
            )));
        }
        let (schema, workload) = match spec.benchmark {
            Benchmark::Ssb => {
                let s =
                    lpa_schema::ssb::schema(spec.scale).map_err(|e| build_err(e.to_string()))?;
                let w = lpa_workload::ssb::workload(&s).map_err(|e| build_err(format!("{e:?}")))?;
                (s, w)
            }
            Benchmark::TpcCh => {
                let s =
                    lpa_schema::tpcch::schema(spec.scale).map_err(|e| build_err(e.to_string()))?;
                let w =
                    lpa_workload::tpcch::workload(&s).map_err(|e| build_err(format!("{e:?}")))?;
                (s, w)
            }
            Benchmark::Micro => {
                let s = lpa_schema::microbench::schema(spec.scale)
                    .map_err(|e| build_err(e.to_string()))?;
                let w = lpa_workload::microbench::workload(&s)
                    .map_err(|e| build_err(format!("{e:?}")))?;
                (s, w)
            }
        };
        let agent_seed = derive_stream3(self.cfg.seed ^ spec.seed, id as u64, SALT_AGENT);
        let cfg = DqnConfig {
            batch_size: self.cfg.batch_size,
            hidden: self.cfg.hidden.clone(),
            ..DqnConfig::simulation(spec.episodes.max(1), self.cfg.tmax)
        }
        .with_seed(agent_seed);
        let sampler = MixSampler::uniform(&workload);
        let env = AdvisorEnv::new(
            schema.clone(),
            workload,
            RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
            sampler,
            true,
            cfg.seed,
        );
        let advisor = Advisor::untrained(env, cfg);
        let cluster_cfg =
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard());
        let mut cluster = Cluster::on_substrate(self.pooled_substrate(
            spec.benchmark,
            spec.scale,
            schema,
            cluster_cfg,
        ));
        cluster.set_fault_plan(spec.fault_plan.salted(derive_stream3(
            self.cfg.seed,
            id as u64,
            SALT_FAULTS,
        )));
        let service = PartitioningService::new(
            advisor,
            cluster,
            ServiceConfig {
                guardrail: self.cfg.guardrail,
                ..ServiceConfig::default()
            },
        );
        Ok(TenantSlot {
            spec,
            episode: 0,
            status: TenantStatus::Active,
            errors_since_rejoin: 0,
            counters: TenantCounters::default(),
            service,
        })
    }

    /// The pool's substrate for this database, generated on first use.
    fn pooled_substrate(
        &mut self,
        benchmark: Benchmark,
        scale: f64,
        schema: Schema,
        cfg: ClusterConfig,
    ) -> Arc<Substrate> {
        let scale_bits = scale.to_bits();
        let pooled = self.substrates.iter().find(|p| {
            p.benchmark == benchmark && p.scale_bits == scale_bits && *p.substrate.config() == cfg
        });
        if let Some(p) = pooled {
            return Arc::clone(&p.substrate);
        }
        let substrate = Arc::new(Substrate::new(schema, cfg));
        self.substrates.push(PooledSubstrate {
            benchmark,
            scale_bits,
            substrate: Arc::clone(&substrate),
        });
        substrate
    }

    /// One row per distinct tenant database in the pool. A tenant that
    /// grew its data (bulk update) has left for a private substrate and is
    /// no longer counted in its row.
    pub fn substrates(&self) -> Vec<SubstrateReport> {
        self.substrates
            .iter()
            .map(|p| SubstrateReport {
                benchmark: p.benchmark,
                scale: f64::from_bits(p.scale_bits),
                stats: p.substrate.stats(),
            })
            .collect()
    }

    fn slot(&self, tenant: usize) -> Result<&TenantSlot, FleetError> {
        self.tenants
            .get(tenant)
            .ok_or(FleetError::UnknownTenant(tenant))
    }

    fn slot_mut(&mut self, tenant: usize) -> Result<&mut TenantSlot, FleetError> {
        self.tenants
            .get_mut(tenant)
            .ok_or(FleetError::UnknownTenant(tenant))
    }

    /// Record a tenant error and apply the quarantine policy. Returns the
    /// tenant's status after the error. The fleet never panics on a
    /// tenant error — this is the single funnel every error source
    /// (hook-injected step errors, store restore/checkpoint failures) goes
    /// through.
    pub fn record_tenant_error(
        &mut self,
        tenant: usize,
        kind: TenantErrorKind,
    ) -> Result<TenantStatus, FleetError> {
        let round = self.scheduler.round();
        let policy = self.cfg.quarantine;
        let slot = self.slot_mut(tenant)?;
        match kind {
            TenantErrorKind::Step => slot.counters.step_errors += 1,
            TenantErrorKind::Restore => slot.counters.restore_errors += 1,
            TenantErrorKind::Checkpoint => slot.counters.checkpoint_errors += 1,
        }
        slot.errors_since_rejoin += 1;
        if slot.status == TenantStatus::Active && slot.errors_since_rejoin > policy.max_errors {
            slot.status = TenantStatus::Quarantined {
                until_round: round + 1 + policy.cooldown_rounds,
            };
            slot.counters.quarantines += 1;
        }
        Ok(slot.status)
    }

    /// Run one full scheduling round: every tenant gets exactly one slice,
    /// in fixed index order. Quarantined tenants' slices are issued and
    /// skipped; a tenant whose slice fails does no work that round. This
    /// never returns a tenant-local error — those land in counters — and
    /// never panics.
    pub fn run_round(&mut self) {
        let slices = self.scheduler.finish_round();
        for slice in slices {
            self.run_slice(slice.slot, slice.round);
        }
    }

    /// Advance the fleet by `rounds` full rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    fn run_slice(&mut self, tenant: usize, round: u64) {
        {
            let Some(slot) = self.tenants.get_mut(tenant) else {
                return;
            };
            slot.counters.slices_issued += 1;
            match slot.status {
                TenantStatus::Quarantined { until_round } if round < until_round => {
                    slot.counters.slices_skipped += 1;
                    return;
                }
                TenantStatus::Quarantined { .. } => {
                    slot.status = TenantStatus::Active;
                    slot.errors_since_rejoin = 0;
                    slot.counters.rejoins += 1;
                }
                TenantStatus::Active => {}
            }
        }
        if self.hook.step_error(tenant, round) {
            // The slice fails before any work: training, advice and the
            // cluster clock are untouched, so the failure is invisible to
            // every other round of this tenant — and to every other
            // tenant. `record_tenant_error` cannot fail for a slot the
            // scheduler just issued.
            let _ = self.record_tenant_error(tenant, TenantErrorKind::Step);
            return;
        }
        // Fleet-wide aggregate deploy budget: canaries started inside the
        // budget horizon, across all tenants.
        let budget_window = self.cfg.guardrail.budget_window;
        self.stage_rounds.retain(|r| *r + budget_window > round);
        let fleet_budget_ok = (self.stage_rounds.len() as u64) < self.cfg.fleet_budget_deploys;
        let Some(slot) = self.tenants.get_mut(tenant) else {
            return;
        };
        slot.counters.slices_run += 1;
        let injected = if slot.service.guardrail().canary_open() {
            None
        } else {
            let advisor = slot.service.advisor();
            let deployed = slot.service.cluster().deployed();
            self.hook
                .candidate(tenant, round, &advisor.env.schema, deployed)
        };
        // Training slice, budgeted. Past the spec's horizon the tenant is
        // fully trained and slices become advice-only.
        if slot.episode < slot.spec.episodes {
            let end = (slot.episode + self.cfg.episodes_per_slice).min(slot.spec.episodes);
            slot.service
                .advisor_mut()
                .train_episodes_from(slot.episode, end, |_| {}, |_, _, _| {});
            slot.episode = end;
        }
        // The decision is the service's: the same monitor → forecast →
        // advise → guardrail path a standalone service runs. A tenant that
        // saw no SQL decides on the uniform mix over its workload.
        let idle_mix = slot.service.advisor().env.workload.uniform_frequencies();
        let WindowReport { events, .. } =
            slot.service
                .close_window(Some(idle_mix), fleet_budget_ok, injected);
        slot.service.probe(self.cfg.probe_queries);
        slot.service
            .cluster_mut()
            .advance_clock(self.cfg.window_seconds);
        if !slot.service.cluster().health().healthy() {
            slot.counters.degraded_windows += 1;
        }
        // Only guardrail decisions are journaled; what the monitor absorbed
        // or dropped stays in the service's own window report.
        let events: Vec<GuardrailEvent> = events
            .into_iter()
            .filter_map(|event| match event {
                ServiceEvent::Guardrail(event) => Some(event),
                ServiceEvent::NoTraffic | ServiceEvent::IncrementallyTrained { .. } => None,
            })
            .collect();
        for event in &events {
            match event {
                GuardrailEvent::CanaryStarted { .. } => {
                    self.stage_rounds.push(round);
                    slot.counters.deployments += 1;
                }
                // A rollback migrates the previous layout back in.
                GuardrailEvent::RolledBack { .. } => slot.counters.deployments += 1,
                _ => {}
            }
        }
        if self.journal.len() + events.len() > JOURNAL_BUFFER_CAP {
            let drop = (self.journal.len() + events.len()) - JOURNAL_BUFFER_CAP;
            let drop = drop.min(self.journal.len());
            self.journal.drain(..drop);
            self.journal_dropped += drop as u64;
        }
        self.journal
            .extend(events.into_iter().map(|event| JournalRecord {
                tenant: tenant as u64,
                round,
                event,
            }));
    }

    /// Feed one observed SQL statement to a tenant's workload monitor. A
    /// tenant that sees SQL closes its windows on the observed (forecast)
    /// mix instead of the uniform one.
    pub fn observe_sql(&mut self, tenant: usize, sql: &str) -> Result<Observation, FleetError> {
        Ok(self.slot_mut(tenant)?.service.observe_sql(sql))
    }

    /// Fleet-wide report: per-tenant fairness counters, health, weight
    /// fingerprints, admission-control totals. Store counters are zero
    /// here; the checkpointing layer fills them in.
    pub fn report(&self) -> FleetReport {
        let per_tenant: Vec<TenantReport> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(id, slot)| TenantReport {
                tenant: id,
                name: slot.spec.name.clone(),
                status: slot.status,
                episode: slot.episode,
                counters: slot.counters,
                health: slot.service.cluster().health(),
                weight_fingerprint: slot.service.advisor().weight_fingerprint(),
                guardrail: slot.service.guardrail().accounting(),
            })
            .collect();
        let mut guardrail = GuardrailAccounting::default();
        for t in &per_tenant {
            guardrail.merge(&t.guardrail);
        }
        FleetReport {
            round: self.scheduler.round(),
            per_tenant,
            rejected_admissions: self.rejected_admissions,
            quarantined: self
                .tenants
                .iter()
                .filter(|t| matches!(t.status, TenantStatus::Quarantined { .. }))
                .count(),
            store: FleetStoreCounters::default(),
            guardrail,
            journal_dropped: self.journal_dropped,
        }
    }

    // ---- per-tenant accessors (the only sanctioned way to tenant state;
    // ---- lint rule L014 forbids bypassing them outside this module) ----

    /// The tenant's service, read-only: advisor, monitor, forecaster and
    /// guardrail (decisions run inside the slice).
    pub fn tenant_service(&self, tenant: usize) -> Result<&PartitioningService, FleetError> {
        Ok(&self.slot(tenant)?.service)
    }

    pub fn tenant_schema(&self, tenant: usize) -> Result<&Schema, FleetError> {
        Ok(&self.tenant_service(tenant)?.advisor().env.schema)
    }

    pub fn tenant_workload(&self, tenant: usize) -> Result<&Workload, FleetError> {
        Ok(&self.tenant_service(tenant)?.advisor().env.workload)
    }

    pub fn tenant_cluster(&self, tenant: usize) -> Result<&Cluster, FleetError> {
        Ok(self.tenant_service(tenant)?.cluster())
    }

    pub fn tenant_episode(&self, tenant: usize) -> Result<usize, FleetError> {
        Ok(self.slot(tenant)?.episode)
    }

    pub fn tenant_status(&self, tenant: usize) -> Result<TenantStatus, FleetError> {
        Ok(self.slot(tenant)?.status)
    }

    pub fn tenant_counters(&self, tenant: usize) -> Result<TenantCounters, FleetError> {
        Ok(self.slot(tenant)?.counters)
    }

    pub fn tenant_errors_since_rejoin(&self, tenant: usize) -> Result<u64, FleetError> {
        Ok(self.slot(tenant)?.errors_since_rejoin)
    }

    /// Stable fingerprint of the tenant's learned weights (the isolation
    /// tests' currency).
    pub fn tenant_weight_fingerprint(&self, tenant: usize) -> Result<u64, FleetError> {
        Ok(self.tenant_service(tenant)?.advisor().weight_fingerprint())
    }

    /// Drain the buffered deployment-journal records (the durable layer's
    /// per-round pickup).
    pub fn drain_journal(&mut self) -> Vec<JournalRecord> {
        std::mem::take(&mut self.journal)
    }

    /// Rounds with a canary start inside the current budget horizon — the
    /// fleet-wide budget state, checkpointed via the manifest.
    pub fn stage_rounds(&self) -> &[u64] {
        &self.stage_rounds
    }

    /// Restore the fleet-wide budget state (crash recovery).
    pub fn restore_stage_rounds(&mut self, stage_rounds: Vec<u64>) {
        self.stage_rounds = stage_rounds;
    }

    /// Replace a tenant's live state from checkpointed parts — the crash
    /// recovery path. The tenant must already be admitted (fleets are
    /// rebuilt from specs, then restored tenant-by-tenant): the restored
    /// advisor and service state move into the tenant's existing service,
    /// which keeps its generated cluster data and the fleet's config.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_tenant(
        &mut self,
        tenant: usize,
        advisor: Advisor,
        service: ServiceResumeState,
        episode: usize,
        status: TenantStatus,
        errors_since_rejoin: u64,
        counters: TenantCounters,
    ) -> Result<(), FleetError> {
        let slot = self.slot_mut(tenant)?;
        *slot.service.advisor_mut() = advisor;
        slot.service
            .restore_resume_state(service)
            .map_err(|reason| FleetError::RestoreFailed { tenant, reason })?;
        slot.episode = episode;
        slot.status = status;
        slot.errors_since_rejoin = errors_since_rejoin;
        slot.counters = counters;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_spec(name: &str, seed: u64) -> TenantSpec {
        TenantSpec {
            episodes: 3,
            ..TenantSpec::new(name, Benchmark::Micro, 0.01, seed)
        }
    }

    fn quick_cfg(max_tenants: usize) -> FleetConfig {
        FleetConfig {
            max_tenants,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn admission_rejects_past_budget_and_counts() {
        let mut fleet = Fleet::new(quick_cfg(2));
        fleet.admit(micro_spec("a", 1)).unwrap();
        fleet.admit(micro_spec("b", 2)).unwrap();
        let err = fleet.admit(micro_spec("c", 3)).unwrap_err();
        assert_eq!(err, FleetError::AdmissionRejected { budget: 2 });
        assert_eq!(fleet.report().rejected_admissions, 1);
        assert_eq!(fleet.tenant_count(), 2);
    }

    #[test]
    fn rounds_advance_every_active_tenant() {
        let mut fleet = Fleet::new(quick_cfg(4));
        for i in 0..3 {
            fleet.admit(micro_spec(&format!("t{i}"), i)).unwrap();
        }
        fleet.run_rounds(2);
        let report = fleet.report();
        assert_eq!(report.round, 2);
        for t in &report.per_tenant {
            assert_eq!(t.counters.slices_issued, 2);
            assert_eq!(t.counters.slices_run, 2);
            assert_eq!(t.episode, 2);
        }
    }

    #[test]
    fn step_errors_quarantine_and_rejoin() {
        let mut fleet = Fleet::new(FleetConfig {
            max_tenants: 2,
            quarantine: QuarantinePolicy {
                max_errors: 0,
                cooldown_rounds: 1,
            },
            ..FleetConfig::default()
        });
        #[derive(Debug)]
        struct FailTenant(usize);
        impl SliceHook for FailTenant {
            fn step_error(&self, tenant: usize, _round: u64) -> bool {
                tenant == self.0
            }
        }
        let sick = fleet.admit(micro_spec("sick", 7)).unwrap();
        fleet.set_hook(Box::new(FailTenant(sick)));
        let healthy = fleet.admit(micro_spec("healthy", 8)).unwrap();
        fleet.run_rounds(4);
        let c = fleet.tenant_counters(sick).unwrap();
        assert!(c.step_errors >= 1);
        assert!(c.quarantines >= 1);
        assert!(c.slices_skipped >= 1);
        assert!(c.rejoins >= 1, "cool-down must expire and readmit");
        // The healthy tenant never noticed.
        let h = fleet.tenant_counters(healthy).unwrap();
        assert_eq!(h.slices_run, 4);
        assert_eq!(h.step_errors, 0);
    }

    #[test]
    fn unknown_tenant_is_an_error_not_a_panic() {
        let mut fleet = Fleet::new(quick_cfg(1));
        assert_eq!(
            fleet.tenant_status(99).unwrap_err(),
            FleetError::UnknownTenant(99)
        );
        assert_eq!(
            fleet
                .record_tenant_error(99, TenantErrorKind::Step)
                .unwrap_err(),
            FleetError::UnknownTenant(99)
        );
    }

    #[test]
    fn same_seed_same_fleet() {
        let build = || {
            let mut fleet = Fleet::new(quick_cfg(3));
            for i in 0..2 {
                fleet.admit(micro_spec(&format!("t{i}"), 100 + i)).unwrap();
            }
            fleet.run_rounds(3);
            (0..2)
                .map(|t| fleet.tenant_weight_fingerprint(t).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
