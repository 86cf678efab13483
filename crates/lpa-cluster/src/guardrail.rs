//! Safe-deployment guardrails: canary windows, observed-regression
//! rollback, repartitioning budgets.
//!
//! The advisor deploys whenever its *learned model predicts* improvement —
//! a circular trust (the model judging its own suggestion) that Hilprecht
//! et al. flag as the core risk of DRL advisors. This module breaks the
//! circle with *observed* evidence: every suggested partitioning is staged
//! through a canary window whose measured, fault-aware runtimes are
//! compared against a pre-deploy baseline, and the deployment is rolled
//! back — migration cost charged on the simulated clock like any
//! repartitioning — the moment observation contradicts prediction.
//!
//! The state machine (DESIGN.md §15):
//!
//! ```text
//! Baseline ──stage──▶ Canary ──clean windows, no regression──▶ Committed ─▶ Baseline
//!    ▲                  │ │
//!    │                  │ └──inconclusive (faults) ──▶ extend (bounded)
//!    └──────rollback────┴──observed regression / evidence exhausted
//! ```
//!
//! Decisions are pure functions of `(config, baseline stats, observed
//! stats)` — no wall clocks, no unseeded randomness — so a canary
//! interrupted by a crash and resumed from a checkpoint reaches the same
//! verdict as an uninterrupted run, bit for bit.
//!
//! This module owns **all** calls to [`Cluster::deploy`]: lint rule L015
//! rejects `.deploy(` anywhere else in library code, so the only paths
//! that can change a production layout are [`Guardrail::end_window`] (the
//! guarded control loop) and [`direct_deploy`] (the auditable bootstrap /
//! evaluation bypass below).

use crate::cluster::{Cluster, QueryOutcome};
use lpa_partition::{Partitioning, TableState};
use lpa_workload::{FrequencyVector, Workload};

/// Guardrail knobs. `Copy` on purpose: configs travel into checkpoints and
/// per-tenant fleet state by value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardrailConfig {
    /// Clean (conclusive) observation windows a canary must survive before
    /// the verdict. `0` disables canarying entirely — suggestions that
    /// pass the economic gates deploy and commit immediately, reproducing
    /// the unguarded legacy behavior (the experiment control).
    pub canary_windows: u32,
    /// Commit only if `mean observed ≤ baseline × (1 + threshold)`;
    /// anything slower is an observed regression and rolls back.
    pub regression_threshold: f64,
    /// A window is *conclusive* only if no query failed and at most this
    /// fraction of measurements was fault-degraded. The default `0.0`
    /// accepts only storm-free evidence.
    pub max_degraded_fraction: f64,
    /// Inconclusive (fault-degraded) canary windows tolerated before the
    /// guardrail stops waiting for clean evidence and rolls back.
    pub max_extensions: u32,
    /// Hysteresis: after a verdict (commit *or* rollback) no new canary
    /// may start for this many windows, so flapping workloads cannot
    /// trigger repartitioning storms.
    pub cooldown_windows: u64,
    /// Budget horizon: at most [`Self::budget_deploys`] canaries may start
    /// within any `budget_window` consecutive windows.
    pub budget_window: u64,
    /// Max canaries started per tenant per [`Self::budget_window`].
    pub budget_deploys: u32,
    /// Full-workload executions a deploy has to pay for itself over: stage
    /// only if `benefit_per_run × amortized_runs > repartitioning cost`
    /// (the paper's "does repartitioning pay off in the long run"). The
    /// default 80 is 20 runs per window over 4 windows, and replaces those
    /// two factors bit-identically: ×4 is exact, so `(b·20)·4 = b·80` for
    /// every positive normal `b`; the inert `b·1·∞ = b·∞`.
    pub amortized_runs: f64,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        Self {
            canary_windows: 2,
            regression_threshold: 0.05,
            max_degraded_fraction: 0.0,
            max_extensions: 4,
            cooldown_windows: 2,
            budget_window: 16,
            budget_deploys: 2,
            amortized_runs: 80.0,
        }
    }
}

impl GuardrailConfig {
    /// A guardrail that guards nothing: any predicted improvement deploys
    /// immediately, no canary, no cool-down, no budget — the legacy deploy
    /// path, kept callable as the control arm of guardrail experiments.
    pub fn inert() -> Self {
        Self {
            canary_windows: 0,
            regression_threshold: f64::INFINITY,
            max_degraded_fraction: 1.0,
            max_extensions: 0,
            cooldown_windows: 0,
            budget_window: 1,
            budget_deploys: u32::MAX,
            amortized_runs: f64::INFINITY,
        }
    }
}

/// Schema-free summary of a [`Partitioning`] — what journal entries carry,
/// so a deployment journal can be replayed without the tenant's schema.
/// `tables[i]` is `0` for a replicated table, `attr index + 1` for a
/// hash-partitioned one; `edges` are the co-partitioning flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayoutDigest {
    pub tables: Vec<u64>,
    pub edges: Vec<bool>,
}

impl LayoutDigest {
    pub fn of(p: &Partitioning) -> Self {
        Self {
            tables: p
                .table_states()
                .iter()
                .map(|s| match s {
                    TableState::Replicated => 0,
                    TableState::PartitionedBy(a) => a.0 as u64 + 1,
                })
                .collect(),
            edges: p.edge_flags().to_vec(),
        }
    }
}

/// Fault-aware runtime evidence from one observation window: the
/// frequency-weighted runtime of every completed query plus how much of
/// the window the fault layer touched.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowObservation {
    /// `Σ_j f_j · c(P, q_j)` over completed queries.
    pub weighted_seconds: f64,
    /// Completions with no active fault (representative measurements).
    pub clean: u64,
    /// Completions measured while a fault was active.
    pub degraded: u64,
    /// Queries the fault layer (or a timeout) aborted.
    pub failed: u64,
}

impl WindowObservation {
    pub fn total(&self) -> u64 {
        self.clean + self.degraded + self.failed
    }

    /// Whether this window is usable evidence: nothing failed and the
    /// degraded fraction stays within the configured tolerance.
    pub fn conclusive(&self, max_degraded_fraction: f64) -> bool {
        self.failed == 0
            && (self.total() == 0
                || self.degraded as f64 <= max_degraded_fraction * self.total() as f64)
    }
}

/// Run every query with a positive frequency once, charging the simulated
/// clock, and fold the outcomes into a [`WindowObservation`].
pub fn observe_window(
    cluster: &mut Cluster,
    workload: &Workload,
    freqs: &FrequencyVector,
) -> WindowObservation {
    let mut obs = WindowObservation::default();
    for (i, query) in workload.queries().iter().enumerate() {
        let f = freqs.as_slice().get(i).copied().unwrap_or(0.0);
        if f == 0.0 {
            continue;
        }
        match cluster.run_query(query, None) {
            QueryOutcome::Completed {
                seconds, degraded, ..
            } => {
                obs.weighted_seconds += f * seconds;
                if degraded {
                    obs.degraded += 1;
                } else {
                    obs.clean += 1;
                }
            }
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => obs.failed += 1,
        }
    }
    obs
}

/// Why a canary was rolled back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollbackReason {
    /// Observed mean runtime exceeded the baseline by more than the
    /// regression threshold.
    ObservedRegression,
    /// The fault layer degraded too many windows: the extension budget ran
    /// out before enough clean evidence accumulated, and an unproven
    /// layout is not kept on faith.
    DegradedEvidence,
}

/// Why a candidate was not staged this window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Hysteresis: a verdict landed less than `cooldown_windows` ago.
    CoolDown,
    /// The tenant spent its `budget_deploys` for the current horizon.
    TenantBudget,
    /// The fleet-wide aggregate deploy budget is exhausted.
    FleetBudget,
    /// The pre-deploy baseline window itself was fault-degraded — staging
    /// deferred until the evidence would mean something.
    DegradedBaseline,
}

/// One entry of the deployment audit trail. Everything in here is plain
/// data (layouts as [`LayoutDigest`]) so `lpa-store` can frame, persist
/// and replay events without schema access.
#[derive(Clone, Debug, PartialEq)]
pub enum GuardrailEvent {
    /// The candidate did not pay for its own migration (or predicted no
    /// improvement); nothing staged.
    KeptCurrent {
        window: u64,
        benefit_per_run: f64,
        repartition_cost: f64,
    },
    /// The candidate paid off on paper but a guardrail said no.
    StageRejected { window: u64, reason: RejectReason },
    /// Candidate deployed, canary opened (baseline measured on the old
    /// layout immediately before the deploy).
    CanaryStarted {
        window: u64,
        candidate: LayoutDigest,
        previous: LayoutDigest,
        baseline_seconds: f64,
        benefit_per_run: f64,
        repartition_cost: f64,
    },
    /// One canary observation window closed.
    CanaryObserved {
        window: u64,
        observed: WindowObservation,
    },
    /// The window was inconclusive; the canary waits for cleaner evidence.
    CanaryExtended { window: u64, inconclusive: u32 },
    /// Observed evidence confirmed the prediction; the layout stays.
    Committed {
        window: u64,
        mean_observed: f64,
        baseline_seconds: f64,
    },
    /// Observed evidence contradicted the prediction; the previous layout
    /// was restored, migration cost charged.
    RolledBack {
        window: u64,
        reason: RollbackReason,
        mean_observed: f64,
        baseline_seconds: f64,
        rollback_seconds: f64,
        restored: LayoutDigest,
    },
}

impl GuardrailEvent {
    /// The decision window the event belongs to.
    pub fn window(&self) -> u64 {
        match self {
            Self::KeptCurrent { window, .. }
            | Self::StageRejected { window, .. }
            | Self::CanaryStarted { window, .. }
            | Self::CanaryObserved { window, .. }
            | Self::CanaryExtended { window, .. }
            | Self::Committed { window, .. }
            | Self::RolledBack { window, .. } => *window,
        }
    }
}

/// The guardrail ledger: every decision counted, flowing into
/// `WindowReport` / `FleetReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GuardrailAccounting {
    /// Decision windows the guardrail closed.
    pub windows: u64,
    pub canaries_started: u64,
    pub commits: u64,
    pub rollbacks_regression: u64,
    pub rollbacks_degraded: u64,
    /// Inconclusive canary windows that extended the canary.
    pub extensions: u64,
    /// Candidates that failed the economic (amortization) gate.
    pub kept_current: u64,
    pub rejected_cooldown: u64,
    pub rejected_budget: u64,
    pub rejected_fleet_budget: u64,
    /// Stages deferred because the baseline window itself was degraded.
    pub deferred_degraded_baseline: u64,
    /// Simulated seconds spent migrating *to* candidates.
    pub deploy_seconds: f64,
    /// Simulated seconds spent migrating *back* after rollbacks.
    pub rollback_seconds: f64,
}

impl GuardrailAccounting {
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks_regression + self.rollbacks_degraded
    }

    /// Fold another ledger into this one (fleet-wide aggregation).
    pub fn merge(&mut self, other: &Self) {
        self.windows += other.windows;
        self.canaries_started += other.canaries_started;
        self.commits += other.commits;
        self.rollbacks_regression += other.rollbacks_regression;
        self.rollbacks_degraded += other.rollbacks_degraded;
        self.extensions += other.extensions;
        self.kept_current += other.kept_current;
        self.rejected_cooldown += other.rejected_cooldown;
        self.rejected_budget += other.rejected_budget;
        self.rejected_fleet_budget += other.rejected_fleet_budget;
        self.deferred_degraded_baseline += other.deferred_degraded_baseline;
        self.deploy_seconds += other.deploy_seconds;
        self.rollback_seconds += other.rollback_seconds;
    }
}

/// An open canary: the candidate is deployed, the old layout and the
/// pre-deploy baseline are retained, evidence accumulates.
#[derive(Clone, Debug, PartialEq)]
pub struct CanaryState {
    /// Layout to restore on rollback.
    pub previous: Partitioning,
    pub candidate: Partitioning,
    /// Mix pinned at stage time: the canary re-measures the workload the
    /// baseline measured, so mix drift cannot masquerade as regression.
    pub pinned_mix: FrequencyVector,
    pub baseline: WindowObservation,
    pub benefit_per_run: f64,
    pub repartition_cost: f64,
    pub opened_window: u64,
    pub clean_windows: u32,
    pub observed_sum: f64,
    pub inconclusive_windows: u32,
}

/// What one more observation window does to an open canary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CanaryStep {
    /// Inconclusive window absorbed; the canary extends.
    Extended,
    /// Clean window absorbed; more evidence still required.
    AwaitMore,
    Verdict(CanaryVerdict),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CanaryVerdict {
    Commit {
        mean_observed: f64,
    },
    Rollback {
        reason: RollbackReason,
        mean_observed: f64,
    },
}

impl CanaryState {
    fn mean_observed(&self) -> f64 {
        if self.clean_windows == 0 {
            0.0
        } else {
            self.observed_sum / self.clean_windows as f64
        }
    }

    /// Absorb one observation window. **Pure** in `(cfg, prior state,
    /// obs)`: no clocks, no randomness, no cluster access — the property
    /// the resume-bit-identity argument rests on, and what the verdict
    /// property tests drive directly.
    pub fn absorb(&mut self, cfg: &GuardrailConfig, obs: WindowObservation) -> CanaryStep {
        if !obs.conclusive(cfg.max_degraded_fraction) {
            self.inconclusive_windows += 1;
            if self.inconclusive_windows > cfg.max_extensions {
                return CanaryStep::Verdict(CanaryVerdict::Rollback {
                    reason: RollbackReason::DegradedEvidence,
                    mean_observed: self.mean_observed(),
                });
            }
            return CanaryStep::Extended;
        }
        self.clean_windows += 1;
        self.observed_sum += obs.weighted_seconds;
        if self.clean_windows < cfg.canary_windows {
            return CanaryStep::AwaitMore;
        }
        let mean = self.mean_observed();
        if mean > self.baseline.weighted_seconds * (1.0 + cfg.regression_threshold) {
            CanaryStep::Verdict(CanaryVerdict::Rollback {
                reason: RollbackReason::ObservedRegression,
                mean_observed: mean,
            })
        } else {
            CanaryStep::Verdict(CanaryVerdict::Commit {
                mean_observed: mean,
            })
        }
    }
}

/// A candidate the advisor wants deployed, with its predicted per-run
/// benefit (current predicted cost − suggested predicted cost).
#[derive(Clone, Debug)]
pub struct CandidateDeploy {
    pub partitioning: Partitioning,
    pub benefit_per_run: f64,
}

/// Checkpointable guardrail state (everything except the config, which the
/// owning service/fleet carries) — captured into snapshots so a resumed
/// canary continues bit-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GuardrailResumeState {
    pub window: u64,
    pub cooldown_until: u64,
    pub recent_stages: Vec<u64>,
    pub canary: Option<CanaryState>,
    pub accounting: GuardrailAccounting,
}

/// The guardrail: one per production cluster (one per tenant in a fleet).
/// Owns the deploy decision end to end.
#[derive(Debug)]
pub struct Guardrail {
    cfg: GuardrailConfig,
    /// Decision windows closed so far (1-based after the first).
    window: u64,
    /// New canaries allowed only when `window > cooldown_until`.
    cooldown_until: u64,
    /// Windows of canaries started inside the current budget horizon.
    recent_stages: Vec<u64>,
    canary: Option<CanaryState>,
    accounting: GuardrailAccounting,
}

impl Guardrail {
    pub fn new(cfg: GuardrailConfig) -> Self {
        Self {
            cfg,
            window: 0,
            cooldown_until: 0,
            recent_stages: Vec::new(),
            canary: None,
            accounting: GuardrailAccounting::default(),
        }
    }

    pub fn config(&self) -> &GuardrailConfig {
        &self.cfg
    }

    pub fn accounting(&self) -> GuardrailAccounting {
        self.accounting
    }

    pub fn canary_open(&self) -> bool {
        self.canary.is_some()
    }

    pub fn canary(&self) -> Option<&CanaryState> {
        self.canary.as_ref()
    }

    /// Decision windows closed so far.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Capture the checkpointable state (crash recovery).
    pub fn resume_state(&self) -> GuardrailResumeState {
        GuardrailResumeState {
            window: self.window,
            cooldown_until: self.cooldown_until,
            recent_stages: self.recent_stages.clone(),
            canary: self.canary.clone(),
            accounting: self.accounting,
        }
    }

    /// Rebuild from a checkpoint; the config comes from the owning
    /// service/fleet config (it is not part of the mutable state).
    pub fn restore(cfg: GuardrailConfig, state: GuardrailResumeState) -> Self {
        Self {
            cfg,
            window: state.window,
            cooldown_until: state.cooldown_until,
            recent_stages: state.recent_stages,
            canary: state.canary,
            accounting: state.accounting,
        }
    }

    /// Close one decision window: judge an open canary against fresh
    /// observations, or consider staging `candidate` through the full
    /// gate sequence (economics → hysteresis → tenant budget → fleet
    /// budget → clean baseline). `fleet_budget_ok` is the fleet-wide
    /// aggregate budget verdict; standalone services pass `true`.
    ///
    /// This method (plus the rollback inside it) is the only production
    /// path to [`Cluster::deploy`].
    pub fn end_window(
        &mut self,
        cluster: &mut Cluster,
        workload: &Workload,
        mix: &FrequencyVector,
        candidate: Option<CandidateDeploy>,
        fleet_budget_ok: bool,
    ) -> Vec<GuardrailEvent> {
        self.window += 1;
        let window = self.window;
        self.accounting.windows += 1;
        let mut events = Vec::new();
        if self.canary.is_some() {
            self.judge_open_canary(cluster, workload, window, &mut events);
        } else if let Some(cand) = candidate {
            self.consider(
                cluster,
                workload,
                mix,
                window,
                cand,
                fleet_budget_ok,
                &mut events,
            );
        }
        events
    }

    fn judge_open_canary(
        &mut self,
        cluster: &mut Cluster,
        workload: &Workload,
        window: u64,
        events: &mut Vec<GuardrailEvent>,
    ) {
        let Some(mut state) = self.canary.take() else {
            return;
        };
        let obs = observe_window(cluster, workload, &state.pinned_mix);
        events.push(GuardrailEvent::CanaryObserved {
            window,
            observed: obs,
        });
        match state.absorb(&self.cfg, obs) {
            CanaryStep::Extended => {
                self.accounting.extensions += 1;
                events.push(GuardrailEvent::CanaryExtended {
                    window,
                    inconclusive: state.inconclusive_windows,
                });
                self.canary = Some(state);
            }
            CanaryStep::AwaitMore => self.canary = Some(state),
            CanaryStep::Verdict(CanaryVerdict::Commit { mean_observed }) => {
                self.accounting.commits += 1;
                self.cooldown_until = window + self.cfg.cooldown_windows;
                events.push(GuardrailEvent::Committed {
                    window,
                    mean_observed,
                    baseline_seconds: state.baseline.weighted_seconds,
                });
            }
            CanaryStep::Verdict(CanaryVerdict::Rollback {
                reason,
                mean_observed,
            }) => {
                let rollback_seconds = cluster.deploy(&state.previous);
                self.accounting.rollback_seconds += rollback_seconds;
                match reason {
                    RollbackReason::ObservedRegression => {
                        self.accounting.rollbacks_regression += 1;
                    }
                    RollbackReason::DegradedEvidence => self.accounting.rollbacks_degraded += 1,
                }
                self.cooldown_until = window + self.cfg.cooldown_windows;
                events.push(GuardrailEvent::RolledBack {
                    window,
                    reason,
                    mean_observed,
                    baseline_seconds: state.baseline.weighted_seconds,
                    rollback_seconds,
                    restored: LayoutDigest::of(&state.previous),
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn consider(
        &mut self,
        cluster: &mut Cluster,
        workload: &Workload,
        mix: &FrequencyVector,
        window: u64,
        cand: CandidateDeploy,
        fleet_budget_ok: bool,
        events: &mut Vec<GuardrailEvent>,
    ) {
        let current = cluster.deployed().clone();
        let repartition_cost = cluster.repartition_cost(&current, &cand.partitioning);
        let benefit = cand.benefit_per_run;
        if benefit <= 0.0 || benefit * self.cfg.amortized_runs <= repartition_cost {
            self.accounting.kept_current += 1;
            events.push(GuardrailEvent::KeptCurrent {
                window,
                benefit_per_run: benefit,
                repartition_cost,
            });
            return;
        }
        if window <= self.cooldown_until {
            self.accounting.rejected_cooldown += 1;
            events.push(GuardrailEvent::StageRejected {
                window,
                reason: RejectReason::CoolDown,
            });
            return;
        }
        self.recent_stages
            .retain(|w| *w + self.cfg.budget_window > window);
        if self.recent_stages.len() as u64 >= self.cfg.budget_deploys as u64 {
            self.accounting.rejected_budget += 1;
            events.push(GuardrailEvent::StageRejected {
                window,
                reason: RejectReason::TenantBudget,
            });
            return;
        }
        if !fleet_budget_ok {
            self.accounting.rejected_fleet_budget += 1;
            events.push(GuardrailEvent::StageRejected {
                window,
                reason: RejectReason::FleetBudget,
            });
            return;
        }
        if self.cfg.canary_windows == 0 {
            // Inert mode: deploy-and-commit without observed evidence —
            // the legacy behavior, kept as the experiment control arm.
            let deploy_seconds = cluster.deploy(&cand.partitioning);
            self.accounting.deploy_seconds += deploy_seconds;
            self.accounting.canaries_started += 1;
            self.accounting.commits += 1;
            self.recent_stages.push(window);
            self.cooldown_until = window + self.cfg.cooldown_windows;
            events.push(GuardrailEvent::CanaryStarted {
                window,
                candidate: LayoutDigest::of(&cand.partitioning),
                previous: LayoutDigest::of(&current),
                baseline_seconds: 0.0,
                benefit_per_run: benefit,
                repartition_cost,
            });
            events.push(GuardrailEvent::Committed {
                window,
                mean_observed: 0.0,
                baseline_seconds: 0.0,
            });
            return;
        }
        // Baseline on the *old* layout, measured right before the deploy
        // so the comparison is apples to apples on the same fault schedule
        // neighborhood. A degraded baseline defers the stage: evidence
        // gathered against a stormy baseline would be meaningless.
        let baseline = observe_window(cluster, workload, mix);
        if !baseline.conclusive(self.cfg.max_degraded_fraction) {
            self.accounting.deferred_degraded_baseline += 1;
            events.push(GuardrailEvent::StageRejected {
                window,
                reason: RejectReason::DegradedBaseline,
            });
            return;
        }
        let deploy_seconds = cluster.deploy(&cand.partitioning);
        self.accounting.deploy_seconds += deploy_seconds;
        self.accounting.canaries_started += 1;
        self.recent_stages.push(window);
        events.push(GuardrailEvent::CanaryStarted {
            window,
            candidate: LayoutDigest::of(&cand.partitioning),
            previous: LayoutDigest::of(&current),
            baseline_seconds: baseline.weighted_seconds,
            benefit_per_run: benefit,
            repartition_cost,
        });
        self.canary = Some(CanaryState {
            previous: current,
            candidate: cand.partitioning,
            pinned_mix: mix.clone(),
            baseline,
            benefit_per_run: benefit,
            repartition_cost,
            opened_window: window,
            clean_windows: 0,
            observed_sum: 0.0,
            inconclusive_windows: 0,
        });
    }
}

/// The single sanctioned guardrail bypass: deploy without canary
/// protection, returning the seconds charged. For simulator bootstrap and
/// evaluation harnesses that sweep candidate layouts *outside* any
/// production control loop (offline scale-factor calibration, benchmark
/// candidate evaluation) — contexts where there is no traffic to canary
/// against and nothing to roll back to. Production paths go through
/// [`Guardrail::end_window`]; lint rule L015 forbids `.deploy(` anywhere
/// else, so every bypass in the tree is auditable from this one function's
/// callers.
pub fn direct_deploy(cluster: &mut Cluster, target: &Partitioning) -> f64 {
    cluster.deploy(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::engine::EngineProfile;
    use crate::hardware::HardwareProfile;

    fn micro() -> (Cluster, Workload, FrequencyVector) {
        let schema = lpa_schema::microbench::schema(0.01).unwrap();
        let workload = lpa_workload::microbench::workload(&schema).unwrap();
        let cluster = Cluster::new(
            schema,
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        let mix = workload.uniform_frequencies();
        (cluster, workload, mix)
    }

    /// A layout that differs from the deployed one: flip the first
    /// partitioned table to replicated (or vice versa).
    fn flipped(cluster: &Cluster) -> Partitioning {
        let deployed = cluster.deployed();
        let mut tables = deployed.table_states().to_vec();
        tables[0] = match tables[0] {
            TableState::Replicated => TableState::PartitionedBy(lpa_schema::AttrId(0)),
            TableState::PartitionedBy(_) => TableState::Replicated,
        };
        Partitioning::from_states(cluster.schema(), tables)
    }

    fn stage(g: &mut Guardrail, cluster: &mut Cluster, w: &Workload, mix: &FrequencyVector) {
        let cand = CandidateDeploy {
            partitioning: flipped(cluster),
            benefit_per_run: 1e6, // forces the economic gate open
        };
        let events = g.end_window(cluster, w, mix, Some(cand), true);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, GuardrailEvent::CanaryStarted { .. })),
            "stage must open a canary: {events:?}"
        );
    }

    #[test]
    fn clean_canary_commits_and_keeps_candidate() {
        let (mut cluster, workload, mix) = micro();
        let mut g = Guardrail::new(GuardrailConfig {
            canary_windows: 2,
            regression_threshold: f64::INFINITY, // evidence can't regress
            ..GuardrailConfig::default()
        });
        let candidate = flipped(&cluster);
        stage(&mut g, &mut cluster, &workload, &mix);
        assert!(g.canary_open());
        let e1 = g.end_window(&mut cluster, &workload, &mix, None, true);
        assert!(g.canary_open(), "one clean window is not enough: {e1:?}");
        let e2 = g.end_window(&mut cluster, &workload, &mix, None, true);
        assert!(
            e2.iter()
                .any(|e| matches!(e, GuardrailEvent::Committed { .. })),
            "{e2:?}"
        );
        assert!(!g.canary_open());
        assert_eq!(cluster.deployed(), &candidate, "commit keeps the candidate");
        assert_eq!(g.accounting().commits, 1);
        assert_eq!(g.accounting().rollbacks(), 0);
    }

    #[test]
    fn observed_regression_rolls_back_and_charges_the_clock() {
        let (mut cluster, workload, mix) = micro();
        let mut g = Guardrail::new(GuardrailConfig {
            canary_windows: 1,
            regression_threshold: -1.0, // any observed runtime reads as regression
            ..GuardrailConfig::default()
        });
        let before = cluster.deployed().clone();
        stage(&mut g, &mut cluster, &workload, &mix);
        let clock_before_verdict = cluster.clock();
        let events = g.end_window(&mut cluster, &workload, &mix, None, true);
        let rolled = events
            .iter()
            .find_map(|e| match e {
                GuardrailEvent::RolledBack {
                    reason,
                    rollback_seconds,
                    ..
                } => Some((*reason, *rollback_seconds)),
                _ => None,
            })
            .expect("verdict window must roll back");
        assert_eq!(rolled.0, RollbackReason::ObservedRegression);
        assert!(rolled.1 > 0.0, "rollback migration must cost time");
        assert_eq!(cluster.deployed(), &before, "previous layout restored");
        assert!(cluster.clock() > clock_before_verdict + rolled.1 - 1e-9);
        assert_eq!(g.accounting().rollbacks_regression, 1);
    }

    #[test]
    fn degraded_evidence_extends_then_rolls_back_bounded() {
        let (mut cluster, workload, mix) = micro();
        // A permanent storm: every window is inconclusive.
        let mut plan = crate::faults::FaultPlan::storm(7);
        plan.crash_rate = 1.0;
        let mut g = Guardrail::new(GuardrailConfig {
            canary_windows: 1,
            max_extensions: 2,
            ..GuardrailConfig::default()
        });
        let before = cluster.deployed().clone();
        stage(&mut g, &mut cluster, &workload, &mix);
        cluster.set_fault_plan(plan); // storm starts after the stage
        let mut rolled = None;
        for _ in 0..8 {
            for e in g.end_window(&mut cluster, &workload, &mix, None, true) {
                if let GuardrailEvent::RolledBack { reason, .. } = e {
                    rolled = Some(reason);
                }
            }
            if rolled.is_some() {
                break;
            }
        }
        assert_eq!(rolled, Some(RollbackReason::DegradedEvidence));
        assert_eq!(g.accounting().extensions, 2, "extensions are bounded");
        assert_eq!(cluster.deployed(), &before);
    }

    #[test]
    fn cooldown_and_budget_reject_stages() {
        let (mut cluster, workload, mix) = micro();
        let mut g = Guardrail::new(GuardrailConfig {
            canary_windows: 0, // verdicts land instantly
            cooldown_windows: 3,
            budget_window: 100,
            budget_deploys: 2,
            ..GuardrailConfig::inert()
        });
        let cand = CandidateDeploy {
            partitioning: flipped(&cluster),
            benefit_per_run: 1e6,
        };
        let first = g.end_window(&mut cluster, &workload, &mix, Some(cand), true);
        assert!(first
            .iter()
            .any(|e| matches!(e, GuardrailEvent::Committed { .. })));
        // Inside the cool-down: rejected with the right reason.
        let cand = CandidateDeploy {
            partitioning: flipped(&cluster),
            benefit_per_run: 1e6,
        };
        let second = g.end_window(&mut cluster, &workload, &mix, Some(cand), true);
        assert_eq!(
            second,
            vec![GuardrailEvent::StageRejected {
                window: 2,
                reason: RejectReason::CoolDown
            }]
        );
        // Drain the cool-down, stage again (2nd of 2 budgeted), then the
        // 3rd attempt hits the tenant budget.
        for _ in 0..3 {
            g.end_window(&mut cluster, &workload, &mix, None, true);
        }
        let cand = CandidateDeploy {
            partitioning: flipped(&cluster),
            benefit_per_run: 1e6,
        };
        let third = g.end_window(&mut cluster, &workload, &mix, Some(cand), true);
        assert!(third
            .iter()
            .any(|e| matches!(e, GuardrailEvent::Committed { .. })));
        for _ in 0..3 {
            g.end_window(&mut cluster, &workload, &mix, None, true);
        }
        let cand = CandidateDeploy {
            partitioning: flipped(&cluster),
            benefit_per_run: 1e6,
        };
        let fourth = g.end_window(&mut cluster, &workload, &mix, Some(cand), true);
        assert!(
            fourth.iter().any(|e| matches!(
                e,
                GuardrailEvent::StageRejected {
                    reason: RejectReason::TenantBudget,
                    ..
                }
            )),
            "{fourth:?}"
        );
        assert_eq!(g.accounting().rejected_cooldown, 1);
        assert_eq!(g.accounting().rejected_budget, 1);
    }

    #[test]
    fn fleet_budget_rejection_is_counted() {
        let (mut cluster, workload, mix) = micro();
        let mut g = Guardrail::new(GuardrailConfig::inert());
        let cand = CandidateDeploy {
            partitioning: flipped(&cluster),
            benefit_per_run: 1e6,
        };
        let events = g.end_window(&mut cluster, &workload, &mix, Some(cand), false);
        assert_eq!(
            events,
            vec![GuardrailEvent::StageRejected {
                window: 1,
                reason: RejectReason::FleetBudget
            }]
        );
        assert_eq!(g.accounting().rejected_fleet_budget, 1);
    }

    #[test]
    fn resume_state_round_trips_mid_canary() {
        let (mut cluster, workload, mix) = micro();
        let mut g = Guardrail::new(GuardrailConfig {
            canary_windows: 3,
            regression_threshold: f64::INFINITY,
            ..GuardrailConfig::default()
        });
        stage(&mut g, &mut cluster, &workload, &mix);
        g.end_window(&mut cluster, &workload, &mix, None, true);
        let state = g.resume_state();
        assert!(state.canary.is_some(), "canary must be open at capture");
        let mut restored = Guardrail::restore(*g.config(), state.clone());
        assert_eq!(restored.resume_state(), state);
        // Both finish the canary over bit-identical clusters → same verdict.
        let mut cluster2 = {
            let (mut c, _, _) = micro();
            c.restore_resume_state(cluster.resume_state()).unwrap();
            c
        };
        let a = g.end_window(&mut cluster, &workload, &mix, None, true);
        let b = restored.end_window(&mut cluster2, &workload, &mix, None, true);
        assert_eq!(a, b);
        let a = g.end_window(&mut cluster, &workload, &mix, None, true);
        let b = restored.end_window(&mut cluster2, &workload, &mix, None, true);
        assert_eq!(a, b, "verdict window must agree after restore");
        assert_eq!(g.accounting(), restored.accounting());
    }

    #[test]
    fn inert_guardrail_reproduces_legacy_deploy_on_predicted_improvement() {
        let (mut cluster, workload, mix) = micro();
        let mut g = Guardrail::new(GuardrailConfig::inert());
        let candidate = flipped(&cluster);
        let cand = CandidateDeploy {
            partitioning: candidate.clone(),
            benefit_per_run: 1e-12, // any positive predicted benefit deploys
        };
        g.end_window(&mut cluster, &workload, &mix, Some(cand), true);
        assert_eq!(cluster.deployed(), &candidate);
        assert_eq!(g.accounting().commits, 1);
        // Zero/negative predicted benefit never deploys.
        let cand = CandidateDeploy {
            partitioning: flipped(&cluster),
            benefit_per_run: 0.0,
        };
        let events = g.end_window(&mut cluster, &workload, &mix, Some(cand), true);
        assert!(matches!(events[0], GuardrailEvent::KeptCurrent { .. }));
        assert_eq!(cluster.deployed(), &candidate);
    }
}
