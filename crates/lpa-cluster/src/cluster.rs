//! The cluster façade: deployment, query execution, the simulated clock,
//! sampling and bulk updates.

use crate::columnar::ExecScratch;
use crate::engine::EngineProfile;
use crate::executor::{Executor, Layout};
use crate::faults::{ClusterHealth, FailReason, FaultAccounting, FaultPlan, FaultState};
use crate::hardware::HardwareProfile;
use crate::optimizer::OptimizerEstimator;
use crate::substrate::Substrate;
use lpa_partition::Partitioning;
use lpa_schema::{Schema, TableId};
use lpa_workload::{FrequencyVector, Query, Workload};
use std::sync::Arc;

/// Configuration of one simulated deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    pub engine: EngineProfile,
    pub hardware: HardwareProfile,
    /// Data-generation seed.
    pub seed: u64,
}

impl ClusterConfig {
    pub fn new(engine: EngineProfile, hardware: HardwareProfile) -> Self {
        Self {
            engine,
            hardware,
            seed: 0x5EED,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of one query execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryOutcome {
    Completed {
        seconds: f64,
        output_rows: u64,
        /// True when any fault was active during execution — the measured
        /// runtime is real but not representative of a healthy cluster.
        degraded: bool,
    },
    /// Aborted by the caller-supplied timeout; `limit` seconds were spent.
    TimedOut { limit: f64 },
    /// Aborted by the fault layer; `seconds` were spent before the failure
    /// was detected.
    Failed { reason: FailReason, seconds: f64 },
}

impl QueryOutcome {
    /// Seconds charged to the clock.
    pub fn seconds(&self) -> f64 {
        match self {
            Self::Completed { seconds, .. } => *seconds,
            Self::TimedOut { limit } => *limit,
            Self::Failed { seconds, .. } => *seconds,
        }
    }

    pub fn completed(&self) -> Option<f64> {
        match self {
            Self::Completed { seconds, .. } => Some(*seconds),
            Self::TimedOut { .. } => None,
            Self::Failed { .. } => None,
        }
    }

    /// True when the execution produced a healthy, representative
    /// measurement (completed with no active fault).
    pub fn is_clean(&self) -> bool {
        match self {
            Self::Completed { degraded, .. } => !degraded,
            Self::TimedOut { .. } => false,
            Self::Failed { .. } => false,
        }
    }

    /// The failure reason, when the fault layer aborted the execution.
    pub fn failure(&self) -> Option<FailReason> {
        match self {
            Self::Completed { .. } => None,
            Self::TimedOut { .. } => None,
            Self::Failed { reason, .. } => Some(*reason),
        }
    }
}

/// The checkpointable portion of a [`Cluster`]: captured by
/// [`Cluster::resume_state`] and re-applied by
/// [`Cluster::restore_resume_state`] onto a cluster rebuilt from the same
/// base schema + config.
#[derive(Clone, Debug)]
pub struct ClusterResumeState {
    pub deployed: Partitioning,
    pub clock_seconds: f64,
    pub stats_epoch: u64,
    pub growth: Vec<f64>,
    pub queries_executed: u64,
    pub tables_repartitioned: u64,
    pub faults: FaultPlan,
    pub fault_accounting: FaultAccounting,
}

/// A simulated distributed database cluster: generated data (the shared,
/// immutable [`Substrate`]) sharded by the currently deployed partitioning.
#[derive(Debug)]
pub struct Cluster {
    /// Schema, config, rows, the clean-execution memo and the executor
    /// arenas. Replaced, never mutated, when a bulk update grows the data.
    substrate: Arc<Substrate>,
    deployed: Partitioning,
    layouts: Vec<Layout>,
    optimizer: OptimizerEstimator,
    clock_seconds: f64,
    stats_epoch: u64,
    queries_executed: u64,
    tables_repartitioned: u64,
    /// Deterministic fault schedule (inert by default).
    faults: FaultPlan,
    fault_accounting: FaultAccounting,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.substrate.detach();
    }
}

impl Cluster {
    /// Generate data for `schema` and deploy the initial partitioning.
    pub fn new(schema: Schema, config: ClusterConfig) -> Self {
        Self::on_substrate(Arc::new(Substrate::new(schema, config)))
    }

    /// A cluster over already generated data, with the initial
    /// partitioning deployed. Clusters sharing a substrate share its rows
    /// and its clean-execution memo, nothing else.
    pub fn on_substrate(substrate: Arc<Substrate>) -> Self {
        let deployed = Partitioning::initial(substrate.schema());
        let layouts = Self::compute_layouts(&substrate, &deployed);
        let config = substrate.config();
        let optimizer = OptimizerEstimator::new(config.engine, config.hardware);
        substrate.attach();
        Self {
            substrate,
            deployed,
            layouts,
            optimizer,
            clock_seconds: 0.0,
            stats_epoch: 0,
            queries_executed: 0,
            tables_repartitioned: 0,
            faults: FaultPlan::none(),
            fault_accounting: FaultAccounting::default(),
        }
    }

    /// The generated data this cluster runs on.
    pub fn substrate(&self) -> &Arc<Substrate> {
        &self.substrate
    }

    /// Move onto a private substrate at `growth` (copy-on-growth): the
    /// clusters sharing the old one keep it untouched.
    fn regrow(&mut self, growth: Vec<f64>) {
        let grown = Arc::new(self.substrate.grown(growth));
        grown.attach();
        self.substrate.detach();
        self.substrate = grown;
        self.layouts = Self::compute_layouts(&self.substrate, &self.deployed);
    }

    /// The same cluster under a fault schedule (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Install a fault schedule on a running cluster.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The fault state active at the current simulated clock.
    pub fn fault_state(&self) -> FaultState {
        self.faults
            .state_at(self.clock_seconds, self.config().hardware.nodes)
    }

    /// Cumulative fault-layer counters (execution-side view).
    pub fn fault_accounting(&self) -> FaultAccounting {
        self.fault_accounting
    }

    /// Snapshot of cluster health at the current simulated clock.
    pub fn health(&self) -> ClusterHealth {
        let state = self.fault_state();
        ClusterHealth {
            nodes: self.config().hardware.nodes,
            nodes_down: state.nodes_down(),
            stragglers: state.stragglers(),
            degraded_links: state.degraded_links(),
            accounting: self.fault_accounting,
        }
    }

    fn compute_layouts(substrate: &Substrate, p: &Partitioning) -> Vec<Layout> {
        (0..substrate.schema().tables().len())
            .map(|t| substrate.layout(TableId(t), p.table_state(TableId(t))))
            .collect()
    }

    pub fn schema(&self) -> &Schema {
        self.substrate.schema()
    }

    pub fn config(&self) -> &ClusterConfig {
        self.substrate.config()
    }

    pub fn engine(&self) -> &EngineProfile {
        &self.config().engine
    }

    pub fn deployed(&self) -> &Partitioning {
        &self.deployed
    }

    /// Simulated wall-clock seconds spent so far (queries + repartitioning).
    pub fn clock(&self) -> f64 {
        self.clock_seconds
    }

    /// Charge extra simulated time (e.g. coordination overhead in training
    /// loops).
    pub fn advance_clock(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.clock_seconds += seconds;
    }

    /// Number of queries actually executed (the runtime cache avoids most).
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed
    }

    /// Number of single-table repartitionings performed.
    pub fn tables_repartitioned(&self) -> u64 {
        self.tables_repartitioned
    }

    /// Statistics epoch (bumped by bulk updates; plans can change).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Deploy a new partitioning: repartition every table whose physical
    /// state changes, charging the movement time. Returns seconds spent.
    pub fn deploy(&mut self, target: &Partitioning) -> f64 {
        let changed = self.deployed.diff_tables(target);
        let mut seconds = 0.0;
        for t in changed {
            seconds += self.repartition_time(t, target);
            self.layouts[t.0] = self.substrate.layout(t, target.table_state(t));
            self.tables_repartitioned += 1;
        }
        self.deployed = target.clone();
        self.clock_seconds += seconds;
        seconds
    }

    /// Estimated cost of repartitioning from one partitioning to another
    /// without performing it (used by training-time ledgers).
    pub fn repartition_cost(&self, from: &Partitioning, to: &Partitioning) -> f64 {
        from.diff_tables(to)
            .into_iter()
            .map(|t| self.repartition_time(t, to))
            .sum()
    }

    fn repartition_time(&self, t: TableId, target: &Partitioning) -> f64 {
        let config = self.config();
        let bytes = self.schema().table(t).bytes() as f64;
        let n = config.hardware.nodes as f64;
        let move_factor = match target.table_state(t) {
            lpa_partition::TableState::Replicated => n - 1.0,
            lpa_partition::TableState::PartitionedBy(_) => (n - 1.0) / n,
        };
        let transfer = bytes * move_factor / config.hardware.aggregate_net();
        // Disk-based engines rewrite the table on both ends.
        let rewrite = bytes * config.engine.repartition_penalty
            / if config.engine.disk_based {
                config.hardware.disk_scan_bandwidth
            } else {
                config.hardware.mem_scan_bandwidth
            };
        transfer + rewrite / n
    }

    /// Execute one query against the deployed partitioning, charging the
    /// clock. With a timeout, execution aborts once the budget is spent.
    /// Faults scheduled for the current simulated instant apply: transient
    /// errors and unreachable unreplicated shards abort with
    /// [`QueryOutcome::Failed`]; stragglers and degraded links inflate the
    /// charged time and mark the completion degraded.
    pub fn run_query(&mut self, query: &Query, timeout: Option<f64>) -> QueryOutcome {
        let faults = self.fault_state();
        self.queries_executed += 1;

        // Transient error: the connection dies before any real work; only
        // the per-query overhead is charged. Deterministic in (seed,
        // window, execution number), so a retry after backoff re-rolls.
        if self
            .faults
            .transient_failure(self.clock_seconds, self.queries_executed)
        {
            let seconds = self.config().engine.query_overhead;
            self.clock_seconds += seconds;
            self.fault_accounting.queries_failed += 1;
            self.fault_accounting.transient_failures += 1;
            return QueryOutcome::Failed {
                reason: FailReason::Transient,
                seconds,
            };
        }

        // Replica-aware failover: a crashed node takes its unreplicated
        // shards with it, so any query touching a partitioned table fails
        // until recovery; queries over replicated tables read the copies
        // on surviving nodes.
        if faults.nodes_down() > 0 {
            if let Some(node) = self.unreachable_shard(query, &faults) {
                let seconds = self.config().engine.query_overhead;
                self.clock_seconds += seconds;
                self.fault_accounting.queries_failed += 1;
                self.fault_accounting.node_down_failures += 1;
                return QueryOutcome::Failed {
                    reason: FailReason::NodeDown { node },
                    seconds,
                };
            }
        }

        let degraded = faults.any_fault();
        let substrate = &*self.substrate;
        let execute = |scratch: &mut ExecScratch| {
            let schema = substrate.schema();
            let plan = self
                .optimizer
                .plan(schema, query, &self.deployed, self.stats_epoch);
            let exec = Executor {
                schema,
                db: substrate.db(),
                engine: &substrate.config().engine,
                hw: &substrate.config().hardware,
                layouts: &self.layouts,
                faults: &faults,
            };
            exec.execute_with(query, &plan, timeout, scratch)
        };
        // A fault-free execution without a budget is a pure function of
        // the query, its tables' states and the statistics epoch, so the
        // substrate answers repeats from its memo. Timed executions stay
        // out: the single-table arm returns without a final budget check,
        // so a stored runtime cannot say whether it would have timed out.
        let result = if degraded || timeout.is_some() {
            substrate.with_scratch(execute)
        } else {
            substrate.clean_execution(query, &self.deployed, self.stats_epoch, execute)
        };
        match result {
            Some(r) => {
                self.clock_seconds += r.seconds;
                if degraded {
                    self.fault_accounting.degraded_completions += 1;
                }
                if faults.nodes_down() > 0 {
                    self.fault_accounting.failovers += 1;
                }
                QueryOutcome::Completed {
                    seconds: r.seconds,
                    output_rows: r.output_rows,
                    degraded,
                }
            }
            None => {
                // Execution only aborts when a timeout was set; a missing
                // limit degrades to an instant timeout rather than a panic.
                let limit = timeout.unwrap_or(0.0);
                self.clock_seconds += limit;
                self.fault_accounting.timeouts += 1;
                QueryOutcome::TimedOut { limit }
            }
        }
    }

    /// First down node whose loss makes the query unservable: any scanned
    /// table that is partitioned (not replicated) has exactly one copy of
    /// each shard, so a single down node cuts it.
    fn unreachable_shard(&self, query: &Query, faults: &FaultState) -> Option<usize> {
        let node = faults.down.iter().position(|d| *d)?;
        for t in &query.tables {
            if matches!(self.layouts[t.0], Layout::Hashed { .. }) {
                return Some(node);
            }
        }
        None
    }

    /// Run the whole workload once, returning the frequency-weighted total
    /// runtime `Σ_j f_j · c(P, q_j)`.
    pub fn run_workload(&mut self, workload: &Workload, freqs: &FrequencyVector) -> f64 {
        workload
            .queries()
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let f = freqs.as_slice().get(i).copied().unwrap_or(0.0);
                if f == 0.0 {
                    0.0
                } else {
                    f * self.run_query(q, None).seconds()
                }
            })
            .sum()
    }

    /// Optimizer cost estimate for a candidate partitioning (the classical
    /// baseline's objective). `None` on engines without optimizer access.
    pub fn optimizer_estimate(&self, query: &Query, candidate: &Partitioning) -> Option<f64> {
        self.optimizer
            .estimate_cost(self.schema(), query, candidate, self.stats_epoch)
    }

    /// Bulk-load `fraction` more data into every table (statistics change,
    /// the deployed partitioning is preserved).
    pub fn bulk_update(&mut self, fraction: f64) {
        let all: Vec<TableId> = (0..self.schema().tables().len()).map(TableId).collect();
        self.bulk_update_tables(fraction, &all);
    }

    /// Bulk-load `fraction` more data into the listed tables only — the
    /// Fig. 4b experiment grows just the transactional tables, matching
    /// TPC-H's refresh functions (which insert new orders and lineitems,
    /// not new customers).
    pub fn bulk_update_tables(&mut self, fraction: f64, tables: &[TableId]) {
        assert!(fraction >= 0.0);
        let mut growth = self.substrate.growth().to_vec();
        for t in tables {
            growth[t.0] += fraction;
        }
        self.regrow(growth);
        self.stats_epoch += 1;
    }

    /// The mutable state a checkpoint must carry to resume this cluster
    /// bit-identically. Everything else (generated rows, layouts, the
    /// optimizer) is a pure function of `(base schema, config, growth,
    /// deployed)` and is regenerated on restore.
    pub fn resume_state(&self) -> ClusterResumeState {
        ClusterResumeState {
            deployed: self.deployed.clone(),
            clock_seconds: self.clock_seconds,
            stats_epoch: self.stats_epoch,
            growth: self.substrate.growth().to_vec(),
            queries_executed: self.queries_executed,
            tables_repartitioned: self.tables_repartitioned,
            faults: self.faults,
            fault_accounting: self.fault_accounting,
        }
    }

    /// Apply checkpointed state onto a cluster built over the same base
    /// schema and config. All or nothing: `Err` (never panics: this is the
    /// recovery path) when the state does not fit the schema, and the
    /// cluster is then exactly as it was. Data is regenerated only when the
    /// growth differs from the substrate's; otherwise just the layouts of
    /// the tables whose state changes are recomputed.
    pub fn restore_resume_state(&mut self, st: ClusterResumeState) -> Result<(), String> {
        let n_tables = self.schema().tables().len();
        if st.growth.len() != n_tables {
            return Err(format!(
                "growth vector has {} entries for {n_tables} tables",
                st.growth.len(),
            ));
        }
        if let Some(g) = st.growth.iter().find(|g| !(g.is_finite() && **g > 0.0)) {
            return Err(format!("growth factor {g} is not positive"));
        }
        // Structural (table and edge counts, edge endpoints): growth only
        // changes row counts, so the current schema decides.
        st.deployed.check(self.schema())?;

        let same_data = st
            .growth
            .iter()
            .zip(self.substrate.growth())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if same_data {
            for t in self.deployed.diff_tables(&st.deployed) {
                self.layouts[t.0] = self.substrate.layout(t, st.deployed.table_state(t));
            }
            self.deployed = st.deployed;
        } else {
            self.deployed = st.deployed;
            self.regrow(st.growth);
        }
        self.clock_seconds = st.clock_seconds;
        self.stats_epoch = st.stats_epoch;
        self.queries_executed = st.queries_executed;
        self.tables_repartitioned = st.tables_repartitioned;
        self.faults = st.faults;
        self.fault_accounting = st.fault_accounting;
        Ok(())
    }

    /// A fresh cluster over a sample of the data (`fraction` of the rows),
    /// used for online training (Section 4.2, Sampling). Join integrity is
    /// preserved by sampling parents and children together.
    pub fn sampled(&self, fraction: f64) -> Cluster {
        assert!(fraction > 0.0 && fraction <= 1.0);
        let factors: Vec<f64> = self
            .substrate
            .growth()
            .iter()
            .map(|g| g * fraction)
            .collect();
        let mut sample = Cluster::new(
            self.substrate
                .base_schema()
                .clone()
                .scaled_per_table(&factors),
            *self.config(),
        );
        // The sample inherits the fault schedule, rescaled to its faster
        // clock so per-query fault density is preserved rather than
        // silently dropped.
        sample.faults = self.faults.rescaled(fraction);
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_partition::Action;

    fn micro_cluster() -> (Cluster, Workload) {
        let schema = lpa_schema::microbench::schema(0.003).expect("schema builds");
        let w = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let c = Cluster::new(
            schema,
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        (c, w)
    }

    #[test]
    fn query_runs_and_charges_clock() {
        let (mut c, w) = micro_cluster();
        let before = c.clock();
        let out = c.run_query(&w.queries()[0], None);
        let secs = out.completed().expect("no timeout");
        assert!(secs > 0.0);
        assert!((c.clock() - before - secs).abs() < 1e-12);
        assert_eq!(c.queries_executed(), 1);
    }

    #[test]
    fn join_produces_expected_cardinality() {
        // a ⋈ b with 3% filter on b: expect about 3% of a's rows.
        let (mut c, w) = micro_cluster();
        let a_rows = c.schema().table(lpa_schema::microbench::tables::A).rows as f64;
        let out = c.run_query(&w.queries()[0], None);
        match out {
            QueryOutcome::Completed { output_rows, .. } => {
                let expected = a_rows * 0.03;
                assert!(
                    (output_rows as f64) > expected * 0.5 && (output_rows as f64) < expected * 1.8,
                    "got {output_rows}, expected ≈{expected}"
                );
            }
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => {
                panic!("expected completion")
            }
        }
    }

    #[test]
    fn co_partitioning_reduces_measured_runtime() {
        let (mut c, w) = micro_cluster();
        let schema = c.schema().clone();
        let q_ac = &w.queries()[1]; // a ⋈ c
        let base = c.run_query(q_ac, None).completed().unwrap();
        // Co-partition a with c.
        let e_ac = schema
            .edge_between(
                schema.attr_ref("a", "a_c_key").unwrap(),
                schema.attr_ref("c", "c_key").unwrap(),
            )
            .unwrap();
        let co = Action::ActivateEdge(e_ac)
            .apply(&schema, &Partitioning::initial(&schema))
            .unwrap();
        let rep_secs = c.deploy(&co);
        assert!(rep_secs > 0.0, "repartitioning costs time");
        let local = c.run_query(q_ac, None).completed().unwrap();
        assert!(
            local < base,
            "co-partitioned join {local} should beat shuffled {base}"
        );
    }

    #[test]
    fn replication_kills_shuffle_bytes() {
        let (mut c, w) = micro_cluster();
        let schema = c.schema().clone();
        let b = schema.table_by_name("b").unwrap();
        let repl = Action::Replicate { table: b }
            .apply(&schema, &Partitioning::initial(&schema))
            .unwrap();
        c.deploy(&repl);
        let q_ab = &w.queries()[0];
        let out = c.run_query(q_ab, None).completed().unwrap();
        assert!(out > 0.0);
        // Compare against the partitioned variant on a fresh cluster.
        let (mut c2, _) = micro_cluster();
        let shuffled = c2.run_query(q_ab, None).completed().unwrap();
        // Both complete; exact ordering depends on the hardware profile,
        // but the replicated run must not shuffle b.
        let _ = shuffled;
    }

    #[test]
    fn timeouts_abort() {
        let (mut c, w) = micro_cluster();
        let out = c.run_query(&w.queries()[0], Some(1e-9));
        assert!(matches!(out, QueryOutcome::TimedOut { .. }));
        assert!(out.completed().is_none());
        // Cluster-level accounting sees the abort (service reports used to
        // under-count because only the online backend tracked timeouts).
        assert_eq!(c.fault_accounting().timeouts, 1);
        c.run_query(&w.queries()[0], Some(1e-9));
        assert_eq!(c.fault_accounting().timeouts, 2);
    }

    #[test]
    fn sampled_cluster_inherits_rescaled_fault_plan() {
        let (mut c, _) = micro_cluster();
        let plan = crate::faults::FaultPlan::storm(21);
        c.set_fault_plan(plan);
        let sample = c.sampled(0.25);
        let carried = sample.fault_plan();
        assert_eq!(carried.seed, plan.seed);
        assert_eq!(carried.crash_rate, plan.crash_rate);
        assert!(
            (carried.window_seconds - plan.window_seconds * 0.25).abs() < 1e-15,
            "sample windows must shrink with the sample's clock"
        );
        // Regression: before the chaos layer, `sampled` dropped all state
        // it did not explicitly copy — an inert plan must stay inert too.
        let inert = Cluster::new(c.schema().clone(), *c.config()).sampled(0.5);
        assert!(inert.fault_plan().is_inert());
    }

    #[test]
    fn replicated_tables_survive_node_loss_partitioned_fail() {
        let (mut c, w) = micro_cluster();
        let schema = c.schema().clone();
        // Crash every node the plan can (one deterministic survivor stays).
        let mut plan = crate::faults::FaultPlan::storm(5);
        plan.crash_rate = 1.0;
        plan.transient_rate = 0.0;
        c.set_fault_plan(plan);
        assert!(c.fault_state().nodes_down() > 0);

        // All tables partitioned (initial deployment): the query fails.
        let q = &w.queries()[0];
        let out = c.run_query(q, None);
        assert!(
            matches!(
                out.failure(),
                Some(crate::faults::FailReason::NodeDown { .. })
            ),
            "partitioned tables must be unservable while a node is down, got {out:?}"
        );
        assert!(c.fault_accounting().node_down_failures >= 1);

        // Replicate every table the query touches: it now fails over.
        let mut target = Partitioning::initial(&schema);
        for t in 0..schema.tables().len() {
            target = lpa_partition::Action::Replicate { table: TableId(t) }
                .apply(&schema, &target)
                .unwrap_or(target);
        }
        c.deploy(&target);
        let out = c.run_query(q, None);
        match out {
            QueryOutcome::Completed {
                seconds, degraded, ..
            } => {
                assert!(seconds > 0.0);
                assert!(degraded, "completion under faults must be flagged");
            }
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => {
                panic!("replicated query should fail over, got {out:?}")
            }
        }
        assert!(c.fault_accounting().failovers >= 1);
        assert!(c.health().degraded_measurements() >= 1);
    }

    #[test]
    fn straggler_inflates_runtime_deterministically() {
        let (mut healthy, w) = micro_cluster();
        let q = &w.queries()[0];
        let base = healthy.run_query(q, None).seconds();

        let (mut slow, _) = micro_cluster();
        let mut plan = crate::faults::FaultPlan::storm(11);
        plan.crash_rate = 0.0;
        plan.transient_rate = 0.0;
        plan.link_degrade_rate = 0.0;
        plan.straggle_rate = 1.0;
        plan.straggle_factor = 8.0;
        slow.set_fault_plan(plan);
        let out = slow.run_query(q, None);
        let degraded_secs = out.seconds();
        assert!(
            degraded_secs > base,
            "straggling nodes must slow the query: {degraded_secs} vs {base}"
        );
        assert!(!out.is_clean());

        // Same plan, same clock → same inflated runtime.
        let (mut slow2, _) = micro_cluster();
        slow2.set_fault_plan(plan);
        assert_eq!(slow2.run_query(q, None).seconds(), degraded_secs);
    }

    #[test]
    fn deploy_is_idempotent_and_lazy() {
        let (mut c, _) = micro_cluster();
        let p = c.deployed().clone();
        let secs = c.deploy(&p);
        assert_eq!(secs, 0.0, "no table changed, nothing to move");
        assert_eq!(c.tables_repartitioned(), 0);
    }

    #[test]
    fn bulk_update_grows_tables_and_bumps_epoch() {
        let (mut c, w) = micro_cluster();
        let rows_before = c.schema().table(TableId(0)).rows;
        let t_before = c.run_query(&w.queries()[0], None).seconds();
        c.bulk_update(0.6);
        assert_eq!(c.stats_epoch(), 1);
        assert!(c.schema().table(TableId(0)).rows > rows_before);
        let t_after = c.run_query(&w.queries()[0], None).seconds();
        assert!(t_after > t_before, "more data, longer runtime");
    }

    #[test]
    fn rejected_restore_leaves_the_cluster_untouched() {
        let (mut c, w) = micro_cluster();
        let (mut twin, _) = micro_cluster();
        c.advance_clock(3.5);
        twin.advance_clock(3.5);
        let before = c.resume_state();
        let substrate = Arc::clone(c.substrate());

        // A layout of another schema fails `check`; the growth and clock
        // riding along with it must not be applied either.
        let other = lpa_schema::ssb::schema(0.001).expect("schema builds");
        let mut bad = c.resume_state();
        bad.deployed = Partitioning::initial(&other);
        bad.growth = vec![2.0; before.growth.len()];
        bad.clock_seconds = 99.0;
        bad.stats_epoch = 7;
        assert!(c.restore_resume_state(bad).is_err());
        // Growth a schema cannot be scaled by is an error, not a panic.
        for g in [0.0, -1.0, f64::NAN] {
            let mut bad = c.resume_state();
            bad.growth[0] = g;
            assert!(c.restore_resume_state(bad).is_err(), "growth {g}");
        }

        let after = c.resume_state();
        assert_eq!(
            after.clock_seconds.to_bits(),
            before.clock_seconds.to_bits()
        );
        assert_eq!(after.growth, before.growth);
        assert_eq!(after.deployed, before.deployed);
        assert_eq!(after.stats_epoch, before.stats_epoch);
        assert!(Arc::ptr_eq(c.substrate(), &substrate));
        for q in w.queries() {
            assert_eq!(
                c.run_query(q, None),
                twin.run_query(q, None),
                "{}: schema, data and layouts still agree",
                q.name
            );
        }
    }

    #[test]
    fn restore_with_unchanged_growth_keeps_the_substrate() {
        let (mut c, w) = micro_cluster();
        let schema = c.schema().clone();
        let b = schema.table_by_name("b").unwrap();
        let repl = Action::Replicate { table: b }
            .apply(&schema, &Partitioning::initial(&schema))
            .unwrap();
        let (mut donor, _) = micro_cluster();
        donor.deploy(&repl);
        let st = donor.resume_state();
        let want = donor.run_query(&w.queries()[0], None);

        let substrate = Arc::clone(c.substrate());
        c.restore_resume_state(st).unwrap();
        assert!(Arc::ptr_eq(c.substrate(), &substrate), "no regeneration");
        assert_eq!(c.deployed(), &repl);
        assert_eq!(c.run_query(&w.queries()[0], None), want);

        // A restore at another growth leaves for a private substrate.
        let mut grown = c.resume_state();
        grown.growth[0] = 1.5;
        c.restore_resume_state(grown).unwrap();
        assert!(!Arc::ptr_eq(c.substrate(), &substrate));
        assert_eq!(substrate.stats().clusters_attached, 0);
        assert_eq!(c.substrate().stats().clusters_attached, 1);
    }

    /// The `node` column of table `t`'s hashed layout.
    fn hashed_nodes(c: &Cluster, t: TableId) -> &Arc<[u8]> {
        match &c.layouts[t.0] {
            Layout::Hashed { node, .. } => node,
            Layout::Replicated => panic!("{t} is replicated"),
        }
    }

    #[test]
    fn a_hashed_layout_is_computed_once_per_substrate() {
        let (mut c, _) = micro_cluster();
        let schema = c.schema().clone();
        let a = schema.table_by_name("a").unwrap();
        let initial = Partitioning::initial(&schema);
        let e_ac = schema
            .edge_between(
                schema.attr_ref("a", "a_c_key").unwrap(),
                schema.attr_ref("c", "c_key").unwrap(),
            )
            .unwrap();
        let co = Action::ActivateEdge(e_ac).apply(&schema, &initial).unwrap();
        assert_ne!(initial.table_state(a), co.table_state(a));

        // A -> B -> A comes back to the very same column.
        let first = Arc::clone(hashed_nodes(&c, a));
        let entries = c.substrate().stats().layout_entries;
        c.deploy(&co);
        assert!(!Arc::ptr_eq(hashed_nodes(&c, a), &first));
        assert_eq!(c.substrate().stats().layout_entries, entries + 1);
        c.deploy(&initial);
        assert!(Arc::ptr_eq(hashed_nodes(&c, a), &first));
        assert_eq!(c.substrate().stats().layout_entries, entries + 1);

        // A second cluster on the substrate shares it, a restore finds it,
        // and what is shared is what `layout_table` computes.
        let mut twin = Cluster::on_substrate(Arc::clone(c.substrate()));
        assert!(Arc::ptr_eq(hashed_nodes(&twin, a), &first));
        c.deploy(&co);
        twin.restore_resume_state(c.resume_state()).unwrap();
        assert!(Arc::ptr_eq(hashed_nodes(&twin, a), hashed_nodes(&c, a)));
        let config = *c.config();
        let fresh = crate::executor::layout_table(
            c.substrate().db(),
            &config.engine,
            config.hardware.nodes,
            a,
            co.table_state(a),
        );
        match (&fresh, &c.layouts[a.0]) {
            (
                Layout::Hashed { node, counts, .. },
                Layout::Hashed {
                    node: memo_node,
                    counts: memo_counts,
                    ..
                },
            ) => {
                assert_eq!((node, counts), (memo_node, memo_counts));
                assert_eq!(counts.iter().sum::<usize>(), node.len());
            }
            other => panic!("expected two hashed layouts, got {other:?}"),
        }

        // Grown data is other data: a fresh substrate, a fresh memo.
        c.bulk_update(0.5);
        assert!(!Arc::ptr_eq(c.substrate(), twin.substrate()));
        assert_eq!(c.substrate().stats().layout_entries, schema.tables().len());
        assert!(!Arc::ptr_eq(hashed_nodes(&c, a), hashed_nodes(&twin, a)));
    }

    #[test]
    fn sampled_cluster_is_smaller_and_faster() {
        let (c, w) = micro_cluster();
        let mut sample = c.sampled(0.2);
        assert!(sample.schema().table(TableId(0)).rows < c.schema().table(TableId(0)).rows);
        let out = sample.run_query(&w.queries()[0], None);
        assert!(out.completed().unwrap() > 0.0);
    }

    #[test]
    fn district_copartitioning_makes_tpcch_key_join_local() {
        // End-to-end check of the inheritance machinery: co-partitioning
        // order and customer by district makes the key join local (zero
        // shuffled bytes for that join) even though the join is on c_key.
        let schema = lpa_schema::tpcch::schema(0.0015).expect("schema builds");
        let w = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let q13 = w.queries().iter().find(|q| q.name == "ch_q13").unwrap();
        let mut c = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
        );
        let pk_time = c.run_query(q13, None).completed().unwrap();
        let e = schema
            .edge_between(
                schema.attr_ref("customer", "c_d_id").unwrap(),
                schema.attr_ref("order", "o_d_id").unwrap(),
            )
            .unwrap();
        let co = Action::ActivateEdge(e)
            .apply(&schema, &Partitioning::initial(&schema))
            .unwrap();
        c.deploy(&co);
        let co_time = c.run_query(q13, None).completed().unwrap();
        // District partitioning is local but skewed; it should still beat
        // the full shuffle on a disk-based engine.
        assert!(
            co_time < pk_time,
            "local-but-skewed {co_time} vs shuffle {pk_time}"
        );
    }
}
