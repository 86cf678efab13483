//! The online reward backend: measured runtimes on a sampled cluster with
//! the Section 4.2 optimizations (sampling + scale factors, query-runtime
//! caching, lazy repartitioning, timeouts).

use crate::accounting::CostAccounting;
use crate::cache::{CachedRuntime, SharedRuntimeCache};
use lpa_cluster::{direct_deploy, Cluster, FaultAccounting, QueryOutcome};
use lpa_costmodel::NetworkCostModel;
use lpa_partition::Partitioning;
use lpa_schema::Schema;
use lpa_workload::{FrequencyVector, Query, Workload};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared mutable cluster handle: the naive agent and the committee
/// experts train against the same sampled database.
#[derive(Clone, Debug)]
pub struct SharedCluster(Arc<Mutex<Cluster>>);

impl SharedCluster {
    /// Lock the cluster. Never fails: a holder that panicked leaves the
    /// cluster to the next one as it was.
    pub fn lock(&self) -> MutexGuard<'_, Cluster> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Wrap a cluster for sharing.
pub fn shared_cluster(cluster: Cluster) -> SharedCluster {
    SharedCluster(Arc::new(Mutex::new(cluster)))
}

/// Toggles for the Table 2 ablation; production use enables all.
#[derive(Clone, Copy, Debug)]
pub struct OnlineOptimizations {
    pub runtime_cache: bool,
    pub lazy_repartitioning: bool,
    pub timeouts: bool,
}

impl Default for OnlineOptimizations {
    fn default() -> Self {
        Self {
            runtime_cache: true,
            lazy_repartitioning: true,
            timeouts: true,
        }
    }
}

/// Bounded-retry policy for failed measurements. Backoff is charged in
/// *simulated* seconds via [`Cluster::advance_clock`] — no wall time — so
/// waiting out a fault window genuinely moves the schedule forward.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt.
    pub max_retries: u32,
    /// Simulated seconds waited before the first retry.
    pub backoff_seconds: f64,
    /// Backoff growth per retry (exponential).
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_seconds: 0.05,
            backoff_multiplier: 2.0,
        }
    }
}

/// Cost-model stand-in used when a measurement ultimately fails: the
/// model's full-scale estimate replaces `S_j · c_sample` in the reward sum,
/// so one dead query cannot poison a whole episode.
#[derive(Debug)]
struct CostModelFallback {
    model: NetworkCostModel,
    schema: Schema,
}

/// The checkpointable portion of an [`OnlineBackend`]: everything mutable
/// except the shared cluster and cache (captured separately) and the
/// cost-model fallback (pure configuration, re-attached on restore).
#[derive(Clone, Debug)]
pub struct OnlineResumeState {
    pub scale: Vec<f64>,
    pub opts: OnlineOptimizations,
    pub accounting: CostAccounting,
    pub best_reward: f64,
    pub eager_shadow: Option<Partitioning>,
    pub retry: RetryPolicy,
    pub faults: FaultAccounting,
}

/// Rewards from actual execution on the sampled cluster.
#[derive(Debug)]
pub struct OnlineBackend {
    cluster: SharedCluster,
    cache: SharedRuntimeCache,
    /// Per-query scale factors `S_i = c_full(q_i) / c_sample(q_i)`
    /// (Section 4.2, Sampling).
    scale: Vec<f64>,
    opts: OnlineOptimizations,
    pub accounting: CostAccounting,
    /// Best reward seen so far; bounds the per-query timeout.
    best_reward: f64,
    /// Ledger-only shadow of what eager deployment would have done.
    eager_shadow: Option<Partitioning>,
    retry: RetryPolicy,
    fallback: Option<CostModelFallback>,
    /// Training-side fault counters (retries, fallbacks, invalidations);
    /// [`Self::fault_accounting`] merges them with the cluster's view.
    faults: FaultAccounting,
}

impl OnlineBackend {
    pub fn new(
        cluster: SharedCluster,
        cache: SharedRuntimeCache,
        scale: Vec<f64>,
        opts: OnlineOptimizations,
    ) -> Self {
        Self {
            cluster,
            cache,
            scale,
            opts,
            accounting: CostAccounting::default(),
            best_reward: f64::NEG_INFINITY,
            eager_shadow: None,
            retry: RetryPolicy::default(),
            fallback: None,
            faults: FaultAccounting::default(),
        }
    }

    /// Override the retry policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Provide a cost model (with the *full* cluster's schema) to estimate
    /// rewards for queries whose measurement keeps failing. Without one, a
    /// dead query is charged at its timeout bound instead.
    pub fn with_fallback(mut self, model: NetworkCostModel, schema: Schema) -> Self {
        self.fallback = Some(CostModelFallback { model, schema });
        self
    }

    /// Fault-layer counters: the backend's own (retries, fallbacks, cache
    /// invalidations) merged with the cluster's execution-side view.
    pub fn fault_accounting(&self) -> FaultAccounting {
        self.faults.merged(&self.cluster.lock().fault_accounting())
    }

    /// Measure the per-query scale factors: run the whole workload once on
    /// the full cluster and once on the sample, both under `p_offline`
    /// (the partitioning the offline phase suggested).
    pub fn compute_scale_factors(
        full: &mut Cluster,
        sample: &mut Cluster,
        workload: &Workload,
        p_offline: &Partitioning,
    ) -> Vec<f64> {
        direct_deploy(full, p_offline);
        direct_deploy(sample, p_offline);
        workload
            .queries()
            .iter()
            .map(|q| {
                let cf = full.run_query(q, None).seconds();
                let cs = sample.run_query(q, None).seconds().max(1e-12);
                (cf / cs).max(1e-6)
            })
            .collect()
    }

    /// Capture the backend's own mutable state for checkpointing. The
    /// backend-side fault ledger is included *unmerged* (the cluster's view
    /// is checkpointed with the cluster).
    pub fn resume_state(&self) -> OnlineResumeState {
        OnlineResumeState {
            scale: self.scale.clone(),
            opts: self.opts,
            accounting: self.accounting,
            best_reward: self.best_reward,
            eager_shadow: self.eager_shadow.clone(),
            retry: self.retry,
            faults: self.faults,
        }
    }

    /// Re-apply checkpointed state (the cluster/cache handles and any
    /// fallback are supplied by the caller, who rebuilt them).
    pub fn restore_resume_state(&mut self, st: OnlineResumeState) {
        self.scale = st.scale;
        self.opts = st.opts;
        self.accounting = st.accounting;
        self.best_reward = st.best_reward;
        self.eager_shadow = st.eager_shadow;
        self.retry = st.retry;
        self.faults = st.faults;
    }

    pub fn cache(&self) -> SharedRuntimeCache {
        Arc::clone(&self.cache)
    }

    pub fn cluster(&self) -> SharedCluster {
        self.cluster.clone()
    }

    pub fn scale_factors(&self) -> &[f64] {
        &self.scale
    }

    pub fn optimizations(&self) -> OnlineOptimizations {
        self.opts
    }

    /// The reward `-Σ_j f_j · S_j · c_sample(P, q_j)` for a candidate
    /// partitioning under a workload mix, executing only what the cache
    /// does not already know.
    #[expect(
        clippy::indexing_slicing,
        reason = "states holds one slot per table of the cluster's schema, which the query was resolved against"
    )]
    pub fn reward(
        &mut self,
        workload: &Workload,
        partitioning: &Partitioning,
        freqs: &FrequencyVector,
    ) -> f64 {
        let mut cluster = self.cluster.lock();

        // Ledger: what eager deployment of every state change would cost.
        match &self.eager_shadow {
            Some(prev) => {
                self.accounting.full_repartition_seconds +=
                    cluster.repartition_cost(prev, partitioning);
            }
            None => {
                self.accounting.full_repartition_seconds +=
                    cluster.repartition_cost(cluster.deployed(), partitioning);
            }
        }
        self.eager_shadow = Some(partitioning.clone());

        let mut total = 0.0;
        for (j, q) in workload.queries().iter().enumerate() {
            let f = freqs.as_slice().get(j).copied().unwrap_or(0.0);
            if f == 0.0 {
                continue;
            }
            let s = self.scale.get(j).copied().unwrap_or(1.0);

            if self.opts.runtime_cache {
                let hit = self
                    .cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .lookup(j, partitioning, &q.tables);
                match hit {
                    // A degraded-epoch entry is only trusted while the
                    // cluster is still unhealthy; once it recovers, drop
                    // the entry and re-measure under clean conditions.
                    Some(entry) if entry.degraded && !cluster.fault_state().any_fault() => {
                        self.cache
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .invalidate(j, partitioning, &q.tables);
                        self.faults.cache_invalidations += 1;
                    }
                    Some(entry) => {
                        self.accounting.cached_query_seconds += entry.seconds;
                        self.accounting.queries_cached += 1;
                        total += f * s * entry.seconds;
                        continue;
                    }
                    None => {}
                }
            }

            // Deploy what this query needs (lazy) or the full target.
            let target = if self.opts.lazy_repartitioning {
                let mut states = cluster.deployed().table_states().to_vec();
                for &t in &q.tables {
                    states[t.0] = partitioning.table_state(t);
                }
                Partitioning::from_states(cluster.schema(), states)
            } else {
                partitioning.clone()
            };
            self.accounting.lazy_repartition_seconds += direct_deploy(&mut cluster, &target);

            // Execute fully to learn the true runtime, retrying failed
            // attempts with deterministic simulated-time backoff; apply
            // the timeout bound to the *charged* time (Section 4.2,
            // Timeouts: a query exceeding -r*/(S_i·f_i) cannot belong to
            // an optimal partitioning, so a real system would abort it
            // there).
            let limit = if self.opts.timeouts && self.best_reward.is_finite() {
                -self.best_reward / (s * f)
            } else {
                f64::INFINITY
            };
            let outcome = Self::measure_with_retries(self.retry, &mut self.faults, &mut cluster, q);
            match outcome {
                QueryOutcome::Completed {
                    seconds: t,
                    degraded,
                    ..
                } => {
                    self.accounting.queries_executed += 1;
                    self.accounting.executed_query_seconds_full += t;
                    if t > limit {
                        self.accounting.timeout_saved_seconds += t - limit;
                        self.accounting.timeouts_hit += 1;
                        self.accounting.actual_query_seconds += limit;
                    } else {
                        self.accounting.actual_query_seconds += t;
                    }
                    // Record unconditionally: with caching disabled the
                    // entry is never read for rewards, but
                    // committee/inference probes and the ledger still use
                    // it. Degraded epochs are tagged for invalidation on
                    // recovery.
                    self.cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .store_tagged(
                            j,
                            partitioning,
                            &q.tables,
                            CachedRuntime {
                                seconds: t,
                                degraded,
                            },
                        );
                    total += f * s * t;
                }
                QueryOutcome::TimedOut { limit: spent } => {
                    // Unreachable with an unlimited budget, but handled
                    // for completeness: charge what was spent, cache
                    // nothing (the full runtime is unknown).
                    self.accounting.queries_executed += 1;
                    self.accounting.actual_query_seconds += spent;
                    total += f * s * spent;
                }
                QueryOutcome::Failed { .. } => {
                    // Retries exhausted: fall back to the cost model's
                    // full-scale estimate (replacing S_j · c_sample), or —
                    // without a model — charge the timeout bound as a
                    // pessimistic stand-in. Nothing is cached; the next
                    // visit re-measures.
                    self.faults.fallbacks += 1;
                    match &self.fallback {
                        Some(fb) => {
                            total += f * fb.model.query_cost(&fb.schema, q, partitioning);
                        }
                        None => {
                            let bound = if limit.is_finite() { limit } else { 0.0 };
                            total += f * s * bound;
                        }
                    }
                }
            }
        }
        let r = -total;
        if r > self.best_reward {
            self.best_reward = r;
        }
        r
    }

    /// Run one query, retrying failures up to the policy's bound. Backoff
    /// advances the *simulated* clock, so the fault schedule moves to later
    /// windows and a transient storm can genuinely pass. On a fault-free
    /// cluster the first attempt always completes and this is exactly one
    /// `run_query` call — bit-identical to the unhardened path.
    fn measure_with_retries(
        retry: RetryPolicy,
        faults: &mut FaultAccounting,
        cluster: &mut Cluster,
        q: &Query,
    ) -> QueryOutcome {
        let mut backoff = retry.backoff_seconds.max(0.0);
        let mut attempts_left = retry.max_retries;
        loop {
            let out = cluster.run_query(q, None);
            match out {
                QueryOutcome::Completed { .. } | QueryOutcome::TimedOut { .. } => return out,
                QueryOutcome::Failed { .. } => {
                    if attempts_left == 0 {
                        return out;
                    }
                    attempts_left -= 1;
                    faults.retries += 1;
                    cluster.advance_clock(backoff);
                    backoff *= retry.backoff_multiplier.max(1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::shared_cache;
    use lpa_cluster::{ClusterConfig, EngineProfile, HardwareProfile};

    fn setup() -> (SharedCluster, Workload) {
        let schema = lpa_schema::microbench::schema(0.002).expect("schema builds");
        let w = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let c = Cluster::new(
            schema,
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        (shared_cluster(c), w)
    }

    #[test]
    fn cache_prevents_reexecution() {
        let (cluster, w) = setup();
        let p = {
            let c = cluster.lock();
            Partitioning::initial(c.schema())
        };
        let mut backend = OnlineBackend::new(
            cluster.clone(),
            shared_cache(),
            vec![1.0; w.queries().len()],
            OnlineOptimizations::default(),
        );
        let f = FrequencyVector::uniform(w.slots());
        let r1 = backend.reward(&w, &p, &f);
        let executed_after_first = cluster.lock().queries_executed();
        let r2 = backend.reward(&w, &p, &f);
        let executed_after_second = cluster.lock().queries_executed();
        assert_eq!(executed_after_first, executed_after_second, "all cached");
        assert!((r1 - r2).abs() < 1e-12, "cached reward identical");
        assert_eq!(backend.accounting.queries_cached, 2);
    }

    #[test]
    fn rewards_are_negative_costs_and_scale_applies() {
        let (cluster, w) = setup();
        let p = {
            let c = cluster.lock();
            Partitioning::initial(c.schema())
        };
        let mut b1 = OnlineBackend::new(
            cluster.clone(),
            shared_cache(),
            vec![1.0; 2],
            OnlineOptimizations::default(),
        );
        let mut b2 = OnlineBackend::new(
            cluster.clone(),
            shared_cache(),
            vec![10.0; 2],
            OnlineOptimizations::default(),
        );
        let f = FrequencyVector::uniform(w.slots());
        let r1 = b1.reward(&w, &p, &f);
        let r2 = b2.reward(&w, &p, &f);
        assert!(r1 < 0.0);
        assert!((r2 - 10.0 * r1).abs() < 1e-9 * r1.abs().max(1.0));
    }

    #[test]
    fn ledger_orders_rows() {
        let (cluster, w) = setup();
        let schema = cluster.lock().schema().clone();
        let mut backend = OnlineBackend::new(
            cluster,
            shared_cache(),
            vec![1.0; 2],
            OnlineOptimizations::default(),
        );
        let f = FrequencyVector::uniform(w.slots());
        // Visit a few states, revisiting the first.
        let p0 = Partitioning::initial(&schema);
        let b = schema.table_by_name("b").unwrap();
        let p1 = lpa_partition::Action::Replicate { table: b }
            .apply(&schema, &p0)
            .unwrap();
        for p in [&p0, &p1, &p0, &p1, &p0] {
            backend.reward(&w, p, &f);
        }
        let acc = backend.accounting;
        assert!(acc.queries_cached > 0, "revisits must hit the cache");
        assert!(acc.row_none() >= acc.row_cache());
        assert!(acc.row_cache() >= acc.row_lazy());
        assert!(acc.row_lazy() >= acc.row_timeouts());
    }

    #[test]
    fn scale_factors_reflect_sample_ratio() {
        let schema = lpa_schema::microbench::schema(0.004).expect("schema builds");
        let w = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let mut full = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        let mut sample = full.sampled(0.25);
        let p = Partitioning::initial(&schema);
        let s = OnlineBackend::compute_scale_factors(&mut full, &mut sample, &w, &p);
        assert_eq!(s.len(), 2);
        for v in s {
            assert!(v > 1.0, "full must be slower than the sample: {v}");
        }
    }
}
