//! Deterministic fault injection: the chaos layer of the simulated cluster.
//!
//! A [`FaultPlan`] is a *pure function* of a seed and the simulated clock —
//! no wall time, no hidden state (lint L003 applies to this file). Time is
//! divided into fixed-width windows; for every `(window, node)` pair the
//! plan derives, from [`lpa_par::derive_stream`]-mixed hashes, whether the
//! node is crashed, straggling (a work multiplier ≥ 1), or behind a
//! degraded link (a receive-time multiplier ≥ 1), and whether query
//! executions inside the window may fail transiently. Because the decision
//! depends only on `(seed, window, node)`, replaying the same simulated
//! history produces the same faults — the chaos differential suite relies
//! on this to compare training runs bit-for-bit.
//!
//! The neutral plan ([`FaultPlan::none`]) derives nothing: every query of a
//! fault-free cluster takes the exact code path it took before the chaos
//! layer existed, so runtimes, rewards, and trained weights stay
//! bit-identical (see `tests/chaos.rs`).

use lpa_par::derive_stream;

/// Why a query execution failed (see [`crate::QueryOutcome::Failed`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailReason {
    /// A node holding an unreplicated shard of a scanned table is down and
    /// no replica can serve the data.
    NodeDown { node: usize },
    /// A transient error (lost connection, killed backend) aborted the
    /// execution; an immediate retry may succeed.
    Transient,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NodeDown { node } => write!(f, "node {node} down"),
            Self::Transient => write!(f, "transient error"),
        }
    }
}

/// Salts separating the per-fault-type hash streams.
const SALT_CRASH: u64 = 0xC4A5_0001;
const SALT_STRAGGLE: u64 = 0x57A6_0002;
const SALT_LINK: u64 = 0x11F0_0003;
const SALT_TRANSIENT: u64 = 0x7E4A_0004;

/// A deterministic schedule of cluster faults.
///
/// All rates are probabilities in `[0, 1]` evaluated independently per
/// `(window, node)` — except `transient_rate`, which is evaluated per query
/// execution. A plan with every rate at zero is *inert*: it never allocates
/// a fault state and the cluster behaves exactly as if no plan existed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultPlan {
    /// Root seed; all fault streams derive from it.
    pub seed: u64,
    /// Width of one schedule window in simulated seconds.
    pub window_seconds: f64,
    /// Per-(window, node) probability of the node being crashed.
    pub crash_rate: f64,
    /// Per-(window, node) probability of a straggler slowdown.
    pub straggle_rate: f64,
    /// Work multiplier of a straggling node (≥ 1).
    pub straggle_factor: f64,
    /// Per-(window, node) probability of a degraded network link.
    pub link_degrade_rate: f64,
    /// Receive-time multiplier of a degraded link (≥ 1).
    pub link_degrade_factor: f64,
    /// Per-execution probability of a transient query error while any
    /// window of the plan is active.
    pub transient_rate: f64,
}

impl FaultPlan {
    /// The inert plan: no faults, ever. A cluster under this plan is
    /// bit-identical to one constructed before the chaos layer existed.
    pub fn none() -> Self {
        Self {
            seed: 0,
            window_seconds: 1.0,
            crash_rate: 0.0,
            straggle_rate: 0.0,
            straggle_factor: 1.0,
            link_degrade_rate: 0.0,
            link_degrade_factor: 1.0,
            transient_rate: 0.0,
        }
    }

    /// The standard fault storm used by the chaos CI leg: frequent
    /// crashes, stragglers, degraded links, and transient errors.
    pub fn storm(seed: u64) -> Self {
        Self {
            seed,
            window_seconds: 0.05,
            crash_rate: 0.35,
            straggle_rate: 0.3,
            straggle_factor: 3.0,
            link_degrade_rate: 0.25,
            link_degrade_factor: 4.0,
            transient_rate: 0.08,
        }
    }

    /// The same plan with its root seed re-derived through `stream` — the
    /// fleet's per-tenant salt. Two tenants handed `plan.salted(i)` and
    /// `plan.salted(j)` draw from decorrelated fault schedules, so chaos
    /// landing on tenant *i* is bit-neutral for tenant *j* even though
    /// both were configured from the same storm template. Inert plans stay
    /// inert (seed is irrelevant when every rate is zero).
    pub fn salted(&self, stream: u64) -> Self {
        Self {
            seed: derive_stream(self.seed, stream),
            ..*self
        }
    }

    /// True when the plan can never produce a fault.
    pub fn is_inert(&self) -> bool {
        self.crash_rate == 0.0
            && self.straggle_rate == 0.0
            && self.link_degrade_rate == 0.0
            && self.transient_rate == 0.0
    }

    /// The same plan rescaled to a cluster whose simulated clock runs
    /// `fraction` times as fast (e.g. a [`crate::Cluster::sampled`]
    /// sample): window widths shrink proportionally so the *per-query*
    /// fault density is preserved.
    pub fn rescaled(&self, fraction: f64) -> Self {
        let fraction = if fraction > 0.0 { fraction } else { 1.0 };
        Self {
            window_seconds: (self.window_seconds * fraction).max(f64::MIN_POSITIVE),
            ..*self
        }
    }

    /// Schedule window covering simulated second `clock`.
    pub fn window_of(&self, clock: f64) -> u64 {
        if self.window_seconds <= 0.0 || !clock.is_finite() || clock <= 0.0 {
            return 0;
        }
        (clock / self.window_seconds) as u64
    }

    /// Uniform draw in `[0, 1)` from the plan's stream for a fault type
    /// (`salt`), window, and entity (node or query sequence number).
    fn draw(&self, salt: u64, window: u64, entity: u64) -> f64 {
        let stream = derive_stream(self.seed ^ salt, window);
        let h = derive_stream(stream, entity);
        // 53 high-quality mantissa bits → exact double in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The active fault state at simulated second `clock` on an
    /// `nodes`-node cluster. Inert plans return the nominal state.
    #[expect(
        clippy::indexing_slicing,
        reason = "FaultState::nominal(nodes) sizes every per-node vector to nodes; node and window % nodes are below it"
    )]
    pub fn state_at(&self, clock: f64, nodes: usize) -> FaultState {
        let mut state = FaultState::nominal(nodes);
        if self.is_inert() {
            return state;
        }
        let window = self.window_of(clock);
        state.window = window;
        state.transient_rate = self.transient_rate;
        for node in 0..nodes {
            if self.draw(SALT_CRASH, window, node as u64) < self.crash_rate {
                state.down[node] = true;
            }
            if self.draw(SALT_STRAGGLE, window, node as u64) < self.straggle_rate {
                state.work_mult[node] = self.straggle_factor.max(1.0);
            }
            if self.draw(SALT_LINK, window, node as u64) < self.link_degrade_rate {
                state.net_mult[node] = self.link_degrade_factor.max(1.0);
            }
        }
        // Never take the whole cluster down: a deterministic survivor
        // (rotating with the window) keeps replicated data reachable.
        if state.down.iter().all(|d| *d) && nodes > 0 {
            state.down[(window % nodes as u64) as usize] = false;
        }
        state
    }

    /// Whether query execution number `sequence` fails transiently at
    /// `clock`. Pure in `(seed, window, sequence)`, so a *retry* — which
    /// advances the clock past backoff and bumps the sequence number —
    /// re-rolls deterministically.
    pub fn transient_failure(&self, clock: f64, sequence: u64) -> bool {
        if self.transient_rate <= 0.0 {
            return false;
        }
        self.draw(SALT_TRANSIENT, self.window_of(clock), sequence) < self.transient_rate
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// The faults active at one instant of simulated time.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultState {
    /// Per-node crash flags.
    pub down: Vec<bool>,
    /// Per-node work multipliers (CPU + scan; ≥ 1, 1 = nominal).
    pub work_mult: Vec<f64>,
    /// Per-node network receive-time multipliers (≥ 1, 1 = nominal).
    pub net_mult: Vec<f64>,
    /// Transient-error probability per execution in this window.
    pub transient_rate: f64,
    /// The schedule window this state was derived for.
    pub window: u64,
}

impl FaultState {
    /// The healthy state: nothing down, all multipliers 1.
    pub fn nominal(nodes: usize) -> Self {
        Self {
            down: vec![false; nodes],
            work_mult: vec![1.0; nodes],
            net_mult: vec![1.0; nodes],
            transient_rate: 0.0,
            window: 0,
        }
    }

    /// Any fault active — a degraded epoch for measurement purposes.
    pub fn any_fault(&self) -> bool {
        self.down.iter().any(|d| *d)
            || self.work_mult.iter().any(|m| *m != 1.0)
            || self.net_mult.iter().any(|m| *m != 1.0)
    }

    pub fn nodes_down(&self) -> usize {
        self.down.iter().filter(|d| **d).count()
    }

    pub fn stragglers(&self) -> usize {
        self.work_mult.iter().filter(|m| **m > 1.0).count()
    }

    pub fn degraded_links(&self) -> usize {
        self.net_mult.iter().filter(|m| **m > 1.0).count()
    }

    /// First node that is up — the survivor replicated work fails over to.
    /// Falls back to node 0 if everything is down (the plan prevents this,
    /// but a hand-built state must not panic, L001).
    pub fn first_up(&self) -> usize {
        self.down.iter().position(|d| !*d).unwrap_or(0)
    }
}

/// Wall-less counters of fault-layer activity. The cluster fills the
/// execution-side counters; the online reward backend adds the
/// training-side ones (retries, fallbacks, invalidations) and merges both
/// views for `EpisodeStats` and `WindowReport` consumers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultAccounting {
    /// Query executions that returned [`crate::QueryOutcome::Failed`].
    pub queries_failed: u64,
    /// Failures caused by an unreachable unreplicated shard.
    pub node_down_failures: u64,
    /// Failures caused by transient errors.
    pub transient_failures: u64,
    /// Completions that survived node loss by reading replicas.
    pub failovers: u64,
    /// Completions measured while any fault was active (degraded epochs).
    pub degraded_completions: u64,
    /// Queries cut off by a caller-supplied timeout (cluster-level view;
    /// the online backend's ledger additionally tracks reward-bound
    /// timeouts).
    pub timeouts: u64,
    /// Measurement retries issued by the online backend.
    pub retries: u64,
    /// Measurements that ultimately fell back to the cost model.
    pub fallbacks: u64,
    /// Degraded cache entries invalidated after recovery.
    pub cache_invalidations: u64,
}

impl FaultAccounting {
    /// Field-wise sum of two accounting views (cluster + backend).
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            queries_failed: self.queries_failed + other.queries_failed,
            node_down_failures: self.node_down_failures + other.node_down_failures,
            transient_failures: self.transient_failures + other.transient_failures,
            failovers: self.failovers + other.failovers,
            degraded_completions: self.degraded_completions + other.degraded_completions,
            timeouts: self.timeouts + other.timeouts,
            retries: self.retries + other.retries,
            fallbacks: self.fallbacks + other.fallbacks,
            cache_invalidations: self.cache_invalidations + other.cache_invalidations,
        }
    }
}

/// A snapshot of cluster health for service-level reporting.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusterHealth {
    pub nodes: usize,
    pub nodes_down: usize,
    pub stragglers: usize,
    pub degraded_links: usize,
    /// Cumulative fault-layer counters of the cluster.
    pub accounting: FaultAccounting,
}

impl ClusterHealth {
    /// No fault currently active (historical counters may be non-zero).
    pub fn healthy(&self) -> bool {
        self.nodes_down == 0 && self.stragglers == 0 && self.degraded_links == 0
    }

    /// Completions whose measurements were taken under active faults —
    /// the count a service operator should treat as suspect.
    pub fn degraded_measurements(&self) -> u64 {
        self.accounting.degraded_completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        for clock in [0.0, 1.0, 17.3, 1e6] {
            let s = plan.state_at(clock, 4);
            assert_eq!(s, FaultState::nominal(4));
            assert!(!s.any_fault());
            assert!(!plan.transient_failure(clock, 42));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::storm(77);
        let b = FaultPlan::storm(77);
        for w in 0..200 {
            let clock = w as f64 * a.window_seconds + 1e-3;
            assert_eq!(a.state_at(clock, 4), b.state_at(clock, 4));
            assert_eq!(
                a.transient_failure(clock, w as u64),
                b.transient_failure(clock, w as u64)
            );
        }
    }

    #[test]
    fn salted_plans_diverge_per_stream_but_stay_pure() {
        let base = FaultPlan::storm(0xF1EE7);
        let a = base.salted(3);
        let b = base.salted(4);
        assert_eq!(a, base.salted(3), "salting must be pure in the stream");
        let diverged = (0..200).any(|w| {
            let clock = w as f64 * base.window_seconds + 1e-3;
            a.state_at(clock, 4) != b.state_at(clock, 4)
        });
        assert!(diverged, "distinct salts must yield distinct schedules");
        assert!(FaultPlan::none().salted(9).is_inert());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::storm(1);
        let b = FaultPlan::storm(2);
        let diverged = (0..200).any(|w| {
            let clock = w as f64 * a.window_seconds + 1e-3;
            a.state_at(clock, 4) != b.state_at(clock, 4)
        });
        assert!(diverged, "distinct seeds must yield distinct schedules");
    }

    #[test]
    fn storm_produces_every_fault_type() {
        let plan = FaultPlan::storm(0xC405);
        let mut crashes = 0;
        let mut stragglers = 0;
        let mut links = 0;
        let mut transients = 0;
        for w in 0..400u64 {
            let clock = w as f64 * plan.window_seconds + 1e-3;
            let s = plan.state_at(clock, 4);
            crashes += s.nodes_down();
            stragglers += s.stragglers();
            links += s.degraded_links();
            transients += usize::from(plan.transient_failure(clock, w));
        }
        assert!(crashes > 0, "no crashes scheduled");
        assert!(stragglers > 0, "no stragglers scheduled");
        assert!(links > 0, "no degraded links scheduled");
        assert!(transients > 0, "no transient errors scheduled");
    }

    #[test]
    fn one_node_always_survives() {
        let mut plan = FaultPlan::storm(9);
        plan.crash_rate = 1.0; // every node crashes every window
        for w in 0..50u64 {
            let clock = w as f64 * plan.window_seconds + 1e-3;
            let s = plan.state_at(clock, 4);
            assert!(s.nodes_down() < 4, "window {w} lost the whole cluster");
            assert!(!s.down[s.first_up()]);
        }
    }

    #[test]
    fn rescaled_preserves_rates_and_shrinks_windows() {
        let plan = FaultPlan::storm(3);
        let sampled = plan.rescaled(0.25);
        assert_eq!(sampled.crash_rate, plan.crash_rate);
        assert_eq!(sampled.transient_rate, plan.transient_rate);
        assert!((sampled.window_seconds - plan.window_seconds * 0.25).abs() < 1e-15);
        // Inert plans stay inert.
        assert!(FaultPlan::none().rescaled(0.25).is_inert());
    }

    #[test]
    fn accounting_merges_fieldwise() {
        let a = FaultAccounting {
            queries_failed: 2,
            retries: 5,
            ..FaultAccounting::default()
        };
        let b = FaultAccounting {
            queries_failed: 1,
            fallbacks: 3,
            ..FaultAccounting::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.queries_failed, 3);
        assert_eq!(m.retries, 5);
        assert_eq!(m.fallbacks, 3);
    }

    #[test]
    fn health_summarizes_state() {
        let h = ClusterHealth {
            nodes: 4,
            nodes_down: 1,
            stragglers: 0,
            degraded_links: 2,
            accounting: FaultAccounting {
                degraded_completions: 7,
                ..FaultAccounting::default()
            },
        };
        assert!(!h.healthy());
        assert_eq!(h.degraded_measurements(), 7);
    }
}
