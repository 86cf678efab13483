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
//! `LPA_THREADS`. A round runs its slices as tasks on `lpa-par`'s pool —
//! tenants share nothing a slice writes except the substrate memo, whose
//! values are exact — and then commits what they staged and journaled
//! serially, in slice order. A round the fleet-wide deploy budget could
//! bind runs its slices one after another instead, each seeing the stages
//! of the slices before it (see [`Fleet::run_round`]). Crash recovery
//! rebuilds a whole fleet with [`Fleet::admit_batch`]: admission settled
//! serially in spec order, then each tenant built once on the pool,
//! straight from its checkpoint when it has one.
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
//! fleet's accessors: the slot type and [`Fleet`]'s tenant list are
//! private, so reaching into another tenant's state from outside this
//! module does not compile (the `compile_fail` examples on [`Fleet`]).

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
use lpa_par::schedule::RoundRobin;
use lpa_par::{derive_stream3, Pool};
use lpa_rl::DqnConfig;
use lpa_schema::Schema;
use lpa_workload::{MixSampler, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
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

    fn build_err(&self, reason: String) -> FleetError {
        FleetError::TenantBuild {
            name: self.name.clone(),
            reason,
        }
    }

    /// The tenant's schema: a pure function of benchmark and scale.
    pub fn schema(&self) -> Result<Schema, FleetError> {
        // The schema builders assert on this; a spec is operator input and
        // must fail its own admission, not the process.
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(self.build_err(format!("scale factor {} is not positive", self.scale)));
        }
        match self.benchmark {
            Benchmark::Ssb => lpa_schema::ssb::schema(self.scale),
            Benchmark::TpcCh => lpa_schema::tpcch::schema(self.scale),
            Benchmark::Micro => lpa_schema::microbench::schema(self.scale),
        }
        .map_err(|e| self.build_err(e.to_string()))
    }

    /// The tenant's schema and workload.
    fn generate(&self) -> Result<(Schema, Workload), FleetError> {
        let schema = self.schema()?;
        let workload = match self.benchmark {
            Benchmark::Ssb => lpa_workload::ssb::workload(&schema),
            Benchmark::TpcCh => lpa_workload::tpcch::workload(&schema),
            Benchmark::Micro => lpa_workload::microbench::workload(&schema),
        }
        .map_err(|e| self.build_err(format!("{e:?}")))?;
        Ok((schema, workload))
    }
}

/// When to quarantine a failing tenant and when to let it back in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Errors tolerated since admission/rejoin before quarantine: the
    /// `max_errors + 1`-th error triggers it, so `0` means *quarantine on
    /// the first error*. Use [`QuarantinePolicy::never`] to disable.
    pub max_errors: u64,
    /// Rounds the tenant sits out past the round the scheduler is at when
    /// the error is recorded: it is quarantined until round
    /// `now + 1 + cooldown_rounds`. A slice's error is recorded while its
    /// round runs, when the scheduler has already moved on to the next
    /// round, so a tenant whose slice of round `r` fails skips rounds
    /// `r + 1 ..= r + 1 + cooldown_rounds` and rejoins at the one after.
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

/// Training episodes a tenant runs per slice (the cooperative step
/// budget).
pub const EPISODES_PER_SLICE: usize = 1;

/// Simulated seconds a slice advances the tenant's cluster clock.
pub const WINDOW_SECONDS: f64 = 1.0;

/// Hidden layer widths of every tenant's Q-network.
pub const TENANT_HIDDEN: &[usize] = &[16, 8];

/// Minibatch size of every tenant's DQN.
pub const TENANT_BATCH_SIZE: usize = 8;

/// Episode horizon (steps per episode) of every tenant's DQN.
pub const TENANT_TMAX: usize = 3;

/// Fleet-wide knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Root seed; every per-tenant stream derives from it.
    pub seed: u64,
    /// Admission budget; admissions beyond it are rejected.
    pub max_tenants: usize,
    /// Probe queries run against the tenant's cluster each slice — they
    /// exercise the fault layer so `ClusterHealth` reflects real traffic.
    pub probe_queries: usize,
    pub quarantine: QuarantinePolicy,
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
            probe_queries: 2,
            quarantine: QuarantinePolicy::default(),
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
    /// Restoring the tenant from its checkpoints failed.
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
/// [`Fleet`] accessors (privacy makes any other path a compile error), so
/// one tenant's code path can never reach into another tenant's state.
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

impl TenantSlot {
    /// Count an error of `kind` and apply the quarantine policy, with the
    /// scheduler at round `now` (see [`QuarantinePolicy::cooldown_rounds`]).
    /// Returns the tenant's status after the error.
    fn record_error(
        &mut self,
        kind: TenantErrorKind,
        policy: QuarantinePolicy,
        now: u64,
    ) -> TenantStatus {
        match kind {
            TenantErrorKind::Step => self.counters.step_errors += 1,
            TenantErrorKind::Restore => self.counters.restore_errors += 1,
            TenantErrorKind::Checkpoint => self.counters.checkpoint_errors += 1,
        }
        self.errors_since_rejoin += 1;
        if self.status == TenantStatus::Active && self.errors_since_rejoin > policy.max_errors {
            self.status = TenantStatus::Quarantined {
                until_round: now + 1 + policy.cooldown_rounds,
            };
            self.counters.quarantines += 1;
        }
        self.status
    }

    /// The tenant's slice of `ctx.round`: the quarantine gate, the hook's
    /// step error, a training budget, the service's window, the probe
    /// queries and the clock. Touches nothing but this tenant (and the
    /// substrate memo, whose values are exact) and `ctx.staged`.
    fn run_slice(&mut self, tenant: usize, ctx: &RoundCtx<'_>) -> SliceOutcome {
        let round = ctx.round;
        let mut outcome = SliceOutcome::default();
        self.counters.slices_issued += 1;
        match self.status {
            TenantStatus::Quarantined { until_round } if round < until_round => {
                self.counters.slices_skipped += 1;
                return outcome;
            }
            TenantStatus::Quarantined { .. } => {
                self.status = TenantStatus::Active;
                self.errors_since_rejoin = 0;
                self.counters.rejoins += 1;
            }
            TenantStatus::Active => {}
        }
        if ctx.hook.step_error(tenant, round) {
            // The slice fails before any work: training, advice and the
            // cluster clock are untouched, so the failure is invisible to
            // every other round of this tenant — and to every other tenant.
            self.record_error(TenantErrorKind::Step, ctx.quarantine, ctx.now);
            return outcome;
        }
        outcome.reached_budget = true;
        let fleet_budget_ok = ctx.staged.load(Ordering::Relaxed) < ctx.budget_deploys;
        self.counters.slices_run += 1;
        let injected = if self.service.guardrail().canary_open() {
            None
        } else {
            let advisor = self.service.advisor();
            let deployed = self.service.cluster().deployed();
            ctx.hook
                .candidate(tenant, round, &advisor.env.schema, deployed)
        };
        // Training slice, budgeted. Past the spec's horizon the tenant is
        // fully trained and slices become advice-only.
        if self.episode < self.spec.episodes {
            let end = (self.episode + EPISODES_PER_SLICE).min(self.spec.episodes);
            self.service
                .advisor_mut()
                .train_episodes_from(self.episode, end, |_| {}, |_, _, _| {});
            self.episode = end;
        }
        // The decision is the service's: the same monitor → forecast →
        // advise → guardrail path a standalone service runs. A tenant that
        // saw no SQL decides on the uniform mix over its workload.
        let idle_mix = self.service.advisor().env.workload.uniform_frequencies();
        let WindowReport { events, .. } =
            self.service
                .close_window(Some(idle_mix), fleet_budget_ok, injected);
        self.service.probe(ctx.probe_queries);
        self.service.cluster_mut().advance_clock(WINDOW_SECONDS);
        if !self.service.cluster().health().healthy() {
            self.counters.degraded_windows += 1;
        }
        // Only guardrail decisions are journaled; what the monitor absorbed
        // or dropped stays in the service's own window report.
        for event in events {
            let event = match event {
                ServiceEvent::Guardrail(event) => event,
                ServiceEvent::NoTraffic | ServiceEvent::IncrementallyTrained { .. } => continue,
            };
            match &event {
                GuardrailEvent::CanaryStarted { .. } => {
                    if ctx.stages_count {
                        ctx.staged.fetch_add(1, Ordering::Relaxed);
                    }
                    self.counters.deployments += 1;
                }
                // A rollback migrates the previous layout back in.
                GuardrailEvent::RolledBack { .. } => self.counters.deployments += 1,
                GuardrailEvent::KeptCurrent { .. }
                | GuardrailEvent::StageRejected { .. }
                | GuardrailEvent::CanaryObserved { .. }
                | GuardrailEvent::CanaryExtended { .. }
                | GuardrailEvent::Committed { .. } => {}
            }
            outcome.events.push(event);
        }
        outcome
    }
}

/// A tenant's checkpointed state, decoded: what [`Fleet::restore_tenant`]
/// puts into an admitted tenant and [`Fleet::admit_batch`] builds one from.
#[derive(Debug)]
pub struct TenantRestore {
    /// The restored advisor, over the tenant's schema and workload.
    pub advisor: Advisor,
    pub service: ServiceResumeState,
    pub episode: usize,
    pub status: TenantStatus,
    pub errors_since_rejoin: u64,
    pub counters: TenantCounters,
}

/// What admission builds before it knows whether the tenant starts fresh
/// or from a checkpoint: its schema, its workload and a cluster on its
/// pooled database. Pure in `(fleet seed, id, spec)`.
#[derive(Debug)]
struct TenantBase {
    id: usize,
    spec: TenantSpec,
    schema: Schema,
    workload: Workload,
    cluster: Cluster,
}

impl TenantBase {
    /// A cluster on `substrate` under the spec's fault plan, salted for
    /// tenant `id`.
    fn cluster(
        cfg: &FleetConfig,
        id: usize,
        spec: &TenantSpec,
        substrate: Arc<Substrate>,
    ) -> Cluster {
        let mut cluster = Cluster::on_substrate(substrate);
        cluster.set_fault_plan(spec.fault_plan.salted(derive_stream3(
            cfg.seed,
            id as u64,
            SALT_FAULTS,
        )));
        cluster
    }

    /// The freshly admitted tenant: an untrained advisor over the base.
    /// The cost model is always `CostParams::standard()`; checkpointing
    /// layers rebuild templates under the same convention.
    fn fresh(self, cfg: &FleetConfig) -> TenantSlot {
        let Self {
            id,
            spec,
            schema,
            workload,
            cluster,
        } = self;
        let agent_seed = derive_stream3(cfg.seed ^ spec.seed, id as u64, SALT_AGENT);
        let dqn = DqnConfig {
            batch_size: TENANT_BATCH_SIZE,
            hidden: TENANT_HIDDEN.to_vec(),
            ..DqnConfig::simulation(spec.episodes.max(1), TENANT_TMAX)
        }
        .with_seed(agent_seed);
        let sampler = MixSampler::uniform(&workload);
        let env = AdvisorEnv::new(
            schema,
            workload,
            RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
            sampler,
            true,
            dqn.seed,
        );
        let service = PartitioningService::new(
            Advisor::untrained(env, dqn),
            cluster,
            ServiceConfig {
                guardrail: cfg.guardrail,
            },
        );
        TenantSlot {
            spec,
            episode: 0,
            status: TenantStatus::Active,
            errors_since_rejoin: 0,
            counters: TenantCounters::default(),
            service,
        }
    }

    /// The tenant built straight from its checkpoint: `restore` rebuilds
    /// the advisor from `state` over the base's schema and workload (moved
    /// in, not cloned), and the service is assembled around it once. A
    /// refused checkpoint yields the fresh tenant, base regenerated from
    /// the spec, and the reason.
    fn restored<S>(
        self,
        cfg: &FleetConfig,
        state: S,
        restore: &(impl Fn(usize, S, Schema, Workload) -> Result<TenantRestore, String> + Sync),
    ) -> Result<(TenantSlot, Option<String>), FleetError> {
        let Self {
            id,
            spec,
            schema,
            workload,
            cluster,
        } = self;
        let substrate = Arc::clone(cluster.substrate());
        let service_cfg = ServiceConfig {
            guardrail: cfg.guardrail,
        };
        let reason = match restore(id, state, schema, workload) {
            Ok(r) => {
                match PartitioningService::restored(r.advisor, cluster, service_cfg, r.service) {
                    Ok(service) => {
                        let slot = TenantSlot {
                            spec,
                            episode: r.episode,
                            status: r.status,
                            errors_since_rejoin: r.errors_since_rejoin,
                            counters: r.counters,
                            service,
                        };
                        return Ok((slot, None));
                    }
                    Err(reason) => reason,
                }
            }
            Err(reason) => reason,
        };
        let (schema, workload) = spec.generate()?;
        let cluster = Self::cluster(cfg, id, &spec, substrate);
        let base = Self {
            id,
            spec,
            schema,
            workload,
            cluster,
        };
        Ok((base.fresh(cfg), Some(reason)))
    }
}

/// What every slice of one round reads besides its own tenant.
struct RoundCtx<'a> {
    round: u64,
    /// The scheduler's round while the slices run (already past `round`):
    /// quarantine cool-downs count from it.
    now: u64,
    hook: &'a dyn SliceHook,
    quarantine: QuarantinePolicy,
    probe_queries: usize,
    /// The fleet-wide cap on canaries started inside the budget horizon.
    budget_deploys: u64,
    /// Canaries inside the horizon: those of earlier rounds, plus the ones
    /// this round's slices started so far when `stages_count`.
    staged: AtomicU64,
    /// Whether a canary started in `round` is still inside the horizon at
    /// `round` (false only for a zero-round horizon).
    stages_count: bool,
}

/// What a slice hands the round's serial commit.
#[derive(Debug, Default)]
struct SliceOutcome {
    /// The slice passed the quarantine gate and the hook and ran.
    reached_budget: bool,
    /// Guardrail decisions to journal, in the order the service made them.
    events: Vec<GuardrailEvent>,
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
    /// Whole-manifest reads that fell back to a scan of the newest segment.
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
///
/// Tenant state is private to the fleet module, so code outside it cannot
/// bypass the accessors. Naming a tenant slot does not compile:
///
/// ```compile_fail
/// let _slot: Option<lpa_service::fleet::TenantSlot> = None;
/// ```
///
/// and neither does reading the tenant list:
///
/// ```compile_fail
/// let fleet = lpa_service::Fleet::new(lpa_service::FleetConfig::default());
/// let _ = fleet.tenants.len();
/// ```
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

    /// Admissions refused by admission control so far.
    pub fn rejected_admissions(&self) -> u64 {
        self.rejected_admissions
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
        let slot = self.build_base(self.tenants.len(), spec)?.fresh(&self.cfg);
        let id = self.scheduler.admit();
        debug_assert_eq!(id, self.tenants.len());
        self.tenants.push(slot);
        Ok(id)
    }

    /// Admit `specs` in order, each tenant built straight from its state
    /// when it has one — the whole-fleet recovery path. Exactly
    /// [`Self::admit`] spec by spec (same ids, rejections past the budget,
    /// pooled databases generated in spec order), except that a tenant
    /// with `Some(state)` has its advisor rebuilt by `restore` from the
    /// state, its base's schema and workload, and its service assembled
    /// around that advisor once. A tenant whose state `restore` or the
    /// service refuses comes up as `admit` builds it, and is reported as
    /// `RestoreFailed` in the returned list, in tenant order.
    ///
    /// Ids, rejections and pooled databases are settled serially; the
    /// tenants are then built as tasks on `lpa-par`'s pool, one per tenant
    /// (each touches only its own base and the layout cache of its
    /// database, whose values are exact). A spec that fails to build fails
    /// the batch: no tenant of it is admitted, though the rejections
    /// counted and databases generated before it stay.
    pub fn admit_batch<S: Send>(
        &mut self,
        specs: Vec<(TenantSpec, Option<S>)>,
        restore: impl Fn(usize, S, Schema, Workload) -> Result<TenantRestore, String> + Sync,
    ) -> Result<Vec<FleetError>, FleetError> {
        let mut bases = Vec::new();
        for (spec, state) in specs {
            if self.tenants.len() + bases.len() >= self.cfg.max_tenants {
                self.rejected_admissions += 1;
                continue;
            }
            bases.push((
                self.build_base(self.tenants.len() + bases.len(), spec)?,
                state,
            ));
        }
        let cfg = &self.cfg;
        let slots = Pool::current()
            .par_map_owned(bases, |_, (base, state)| match state {
                None => Ok((base.fresh(cfg), None)),
                Some(state) => base.restored(cfg, state, &restore),
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let mut refused = Vec::new();
        for (slot, refusal) in slots {
            let tenant = self.scheduler.admit();
            if let Some(reason) = refusal {
                refused.push(FleetError::RestoreFailed { tenant, reason });
            }
            self.tenants.push(slot);
        }
        Ok(refused)
    }

    /// The tenant's base: schema, workload and a cluster on the pool's
    /// database for its spec, generated on first use.
    fn build_base(&mut self, id: usize, spec: TenantSpec) -> Result<TenantBase, FleetError> {
        let (schema, workload) = spec.generate()?;
        let cluster_cfg =
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard());
        let substrate = self.pooled_substrate(spec.benchmark, spec.scale, &schema, cluster_cfg);
        let cluster = TenantBase::cluster(&self.cfg, id, &spec, substrate);
        Ok(TenantBase {
            id,
            spec,
            schema,
            workload,
            cluster,
        })
    }

    /// The pool's substrate for this database, generated on first use.
    fn pooled_substrate(
        &mut self,
        benchmark: Benchmark,
        scale: f64,
        schema: &Schema,
        cfg: ClusterConfig,
    ) -> Arc<Substrate> {
        let scale_bits = scale.to_bits();
        let pooled = self.substrates.iter().find(|p| {
            p.benchmark == benchmark && p.scale_bits == scale_bits && *p.substrate.config() == cfg
        });
        if let Some(p) = pooled {
            return Arc::clone(&p.substrate);
        }
        let substrate = Arc::new(Substrate::new(schema.clone(), cfg));
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
    /// tenant error — this and the slice's own step errors go through the
    /// same slot-level funnel, [`TenantSlot::record_error`], which every
    /// error source (hook-injected step errors, store restore/checkpoint
    /// failures) reaches.
    pub fn record_tenant_error(
        &mut self,
        tenant: usize,
        kind: TenantErrorKind,
    ) -> Result<TenantStatus, FleetError> {
        let now = self.scheduler.round();
        let policy = self.cfg.quarantine;
        Ok(self.slot_mut(tenant)?.record_error(kind, policy, now))
    }

    /// Run one full scheduling round: every tenant gets exactly one slice.
    /// Quarantined tenants' slices are issued and skipped; a tenant whose
    /// slice fails does no work that round. This never returns a
    /// tenant-local error — those land in counters — and never panics.
    ///
    /// The slices run as tasks on `lpa-par`'s pool, then a serial commit
    /// records their stages and journal records in slice order. The one
    /// thing a slice reads that another slice of the same round writes is
    /// the fleet-wide deploy budget; when what is left of it covers a
    /// canary from every slice, no slice can see it refuse, so the order
    /// is immaterial. Otherwise the round runs on a one-thread pool, whose
    /// tasks run in index order, and each slice sees the canaries of the
    /// slices before it — exactly the serial loop.
    pub fn run_round(&mut self) {
        let slices = self.scheduler.finish_round();
        let Some(round) = slices.first().map(|s| s.round) else {
            return;
        };
        let window = self.cfg.guardrail.budget_window;
        let live = |r: u64| r + window > round;
        let in_window = self.stage_rounds.iter().filter(|&&r| live(r)).count() as u64;
        let ctx = RoundCtx {
            round,
            now: self.scheduler.round(),
            hook: &*self.hook,
            quarantine: self.cfg.quarantine,
            probe_queries: self.cfg.probe_queries,
            budget_deploys: self.cfg.fleet_budget_deploys,
            staged: AtomicU64::new(in_window),
            stages_count: live(round),
        };
        // `finish_round` issues slots in index order.
        let mut issued = slices.iter().peekable();
        let mut runs: Vec<(usize, &mut TenantSlot, SliceOutcome)> = Vec::new();
        for (tenant, slot) in self.tenants.iter_mut().enumerate() {
            if issued.next_if(|s| s.slot == tenant).is_some() {
                runs.push((tenant, slot, SliceOutcome::default()));
            }
        }
        let unbound = ctx.budget_deploys.saturating_sub(in_window) >= runs.len() as u64;
        let pool = if unbound {
            Pool::current()
        } else {
            Pool::with_threads(1)
        };
        pool.par_chunks_mut(&mut runs, 1, |_, chunk| {
            for (tenant, slot, outcome) in chunk {
                *outcome = slot.run_slice(*tenant, &ctx);
            }
        });
        let outcomes: Vec<(usize, SliceOutcome)> = runs
            .into_iter()
            .map(|(t, _, outcome)| (t, outcome))
            .collect();
        for (tenant, outcome) in outcomes {
            self.commit_slice(tenant, round, outcome);
        }
    }

    /// Advance the fleet by `rounds` full rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// Apply one slice's fleet-wide effects, in slice order: prune the
    /// budget horizon (a slice that ran read it), record its canaries and
    /// buffer its journal records.
    fn commit_slice(&mut self, tenant: usize, round: u64, outcome: SliceOutcome) {
        let SliceOutcome {
            reached_budget,
            events,
        } = outcome;
        if reached_budget {
            let window = self.cfg.guardrail.budget_window;
            self.stage_rounds.retain(|r| *r + window > round);
        }
        for event in &events {
            if matches!(event, GuardrailEvent::CanaryStarted { .. }) {
                self.stage_rounds.push(round);
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

    // ---- per-tenant accessors (the only way to tenant state outside this
    // ---- module: `TenantSlot` and `tenants` are private) ----

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

    /// Replace an admitted tenant's live state from checkpointed parts:
    /// the restored advisor and service state move into the tenant's
    /// service, which keeps its generated cluster data and the fleet's
    /// config. All or nothing: a state the service refuses leaves the
    /// tenant exactly as it was.
    pub fn restore_tenant(
        &mut self,
        tenant: usize,
        restore: TenantRestore,
    ) -> Result<(), FleetError> {
        let slot = self.slot_mut(tenant)?;
        // The service checks its state against the advisor it will run, so
        // the restored advisor goes in first and back out on refusal.
        let previous = std::mem::replace(slot.service.advisor_mut(), restore.advisor);
        if let Err(reason) = slot.service.restore_resume_state(restore.service) {
            *slot.service.advisor_mut() = previous;
            return Err(FleetError::RestoreFailed { tenant, reason });
        }
        slot.episode = restore.episode;
        slot.status = restore.status;
        slot.errors_since_rejoin = restore.errors_since_rejoin;
        slot.counters = restore.counters;
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

    /// Tenant 2's slice of round 1 fails, and only that one. The scheduler
    /// is at round 2 while round 1 runs, so with one round of cool-down the
    /// tenant is quarantined until round 4: it skips rounds 2 and 3 and
    /// rejoins at round 4 — whether the round's slices run on one thread or
    /// on eight.
    #[test]
    fn a_failed_slice_skips_exactly_its_cooldown_rounds_at_any_thread_count() {
        #[derive(Debug)]
        struct FailOnce;
        impl SliceHook for FailOnce {
            fn step_error(&self, tenant: usize, round: u64) -> bool {
                (tenant, round) == (2, 1)
            }
        }
        let quarantined = TenantStatus::Quarantined { until_round: 4 };
        let active = TenantStatus::Active;
        // (status, slices run, slices skipped, rejoins) after each round.
        let expected = vec![
            (active, 1, 0, 0),
            (quarantined, 1, 0, 0),
            (quarantined, 1, 1, 0),
            (quarantined, 1, 2, 0),
            (active, 2, 2, 1),
            (active, 3, 2, 1),
        ];
        for threads in [1, 8] {
            let timeline = lpa_par::with_threads(threads, || {
                let mut fleet = Fleet::new(FleetConfig {
                    max_tenants: 4,
                    quarantine: QuarantinePolicy {
                        max_errors: 0,
                        cooldown_rounds: 1,
                    },
                    ..FleetConfig::default()
                });
                for i in 0..4 {
                    fleet.admit(micro_spec(&format!("t{i}"), 40 + i)).unwrap();
                }
                fleet.set_hook(Box::new(FailOnce));
                (0..6)
                    .map(|_| {
                        fleet.run_round();
                        let c = fleet.tenant_counters(2).unwrap();
                        let status = fleet.tenant_status(2).unwrap();
                        (status, c.slices_run, c.slices_skipped, c.rejoins)
                    })
                    .collect::<Vec<_>>()
            });
            assert_eq!(timeline, expected, "threads={threads}");
        }
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
