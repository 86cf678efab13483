//! The immutable half of a simulated deployment, shareable between
//! clusters: the schema, the configuration and the rows generated from them.
//!
//! Everything a [`Cluster`](crate::Cluster) mutates — the deployed
//! partitioning and its layouts, the clock, the fault plan, the counters —
//! stays in the cluster. What is left is a pure function of `(base schema,
//! growth, config)`, so any number of clusters over the same database can
//! hold one [`Substrate`] behind an `Arc` instead of a copy each.
//!
//! Behind one lock the substrate also keeps the three things that are pure
//! functions of that immutable data:
//!
//! * the **clean-execution memo** — the [`ExecResult`] of a query on a
//!   fault-free cluster without a timeout depends only on the query, the
//!   physical states of the tables it touches and the statistics epoch
//!   (the paper's Query Runtime Cache argument, Section 4.2), so it is
//!   computed once per distinct key and never by hash alone: the key is the
//!   complete packed form of everything the planner and executor read;
//! * the **layout memo** — the node of every row of a table hashed on one
//!   attribute (and the rows per node) depends only on the generated
//!   column and the config, so it is computed once per `(table, attribute)`
//!   and handed out behind `Arc`s, however often deployments come back to it;
//! * the [`ExecScratch`] arenas, whose contents never outlive one
//!   execution, so one high-water mark serves every attached cluster.
//!
//! Executions under an active fault or a timeout never read or write the
//! memo (DESIGN.md §16), which keeps tenants isolated: the only shared
//! mutable state is a table of values each tenant would have computed
//! itself, bit for bit.

use crate::cluster::ClusterConfig;
use crate::columnar::ExecScratch;
use crate::datagen::Database;
use crate::executor::{layout_table, ExecResult, Layout};
use lpa_partition::fingerprint::pack;
use lpa_partition::{Partitioning, TableState};
use lpa_schema::{AttrId, AttrRef, Schema, TableId};
use lpa_workload::Query;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Exact memo key: every [`Query`] field the planner or executor reads,
/// the packed state of every table the query names, and the statistics
/// epoch. Length-prefixed, so two different queries never pack alike.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct MemoKey {
    /// Seeds the executor's predicate filter and the optimizer's errors.
    name: String,
    words: Vec<u64>,
}

impl MemoKey {
    /// Overwrite this key in place (lookups reuse one buffer).
    fn fill(&mut self, query: &Query, deployed: &Partitioning, stats_epoch: u64) {
        self.name.clear();
        self.name.push_str(&query.name);
        let w = &mut self.words;
        w.clear();
        w.push(stats_epoch);
        w.push(query.cpu_factor.to_bits());
        w.push(query.selectivity.len() as u64);
        w.extend(query.selectivity.iter().map(|s| s.to_bits()));
        w.push(query.tables.len() as u64);
        for &t in &query.tables {
            w.push(t.0 as u64);
            w.push(pack(deployed.table_state(t)) as u64);
        }
        // A validated query joins only tables it scans; the states of the
        // join sides are packed anyway so the key stays exact without it.
        let side = |a: AttrRef| {
            [
                a.table.0 as u64,
                a.attr.0 as u64,
                pack(deployed.table_state(a.table)) as u64,
            ]
        };
        w.push(query.joins.len() as u64);
        for join in &query.joins {
            w.push(join.pairs.len() as u64);
            for &(a, b) in &join.pairs {
                w.extend(side(a));
                w.extend(side(b));
            }
        }
    }
}

/// The lock-guarded half: pure functions of the immutable data, plus the
/// counters [`Substrate::stats`] reports.
#[derive(Debug, Default)]
struct Shared {
    memo: BTreeMap<MemoKey, ExecResult>,
    /// Reused lookup key — a hit allocates nothing.
    probe: MemoKey,
    /// Hashed layouts handed out so far ([`Substrate::layout`]).
    layouts: BTreeMap<(TableId, AttrId), Layout>,
    scratch: ExecScratch,
    clusters_attached: usize,
    hits: u64,
    misses: u64,
}

/// How much a substrate is shared and what its memo saved. Observability
/// only: never checkpointed, never part of a fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Live clusters holding this substrate.
    pub clusters_attached: usize,
    pub memo_entries: usize,
    /// Clean executions answered from the memo.
    pub memo_hits: u64,
    /// Clean executions that ran and were stored.
    pub memo_misses: u64,
    /// Distinct `(table, attribute)` hashed layouts computed so far.
    pub layout_entries: usize,
    /// Heap bytes held by the shared executor arenas: the high-water mark
    /// of every execution so far (they never shrink).
    pub scratch_bytes: usize,
}

/// One generated database and what is derivable from it alone.
#[derive(Debug)]
pub struct Substrate {
    base_schema: Schema,
    /// Per-table growth multipliers `schema` was scaled by.
    growth: Vec<f64>,
    /// `base_schema` at `growth` — the schema the rows were generated for.
    schema: Schema,
    config: ClusterConfig,
    db: Database,
    shared: Mutex<Shared>,
}

impl Substrate {
    /// Generate the data of `schema` (growth 1) under `config`.
    pub fn new(schema: Schema, config: ClusterConfig) -> Self {
        let growth = vec![1.0; schema.tables().len()];
        Self::generate(schema.clone(), growth, schema, config)
    }

    /// The same base schema and config regenerated at another growth. A
    /// fresh substrate: nothing the memo learned at the old size carries
    /// over.
    pub(crate) fn grown(&self, growth: Vec<f64>) -> Self {
        let schema = self.base_schema.clone().scaled_per_table(&growth);
        Self::generate(self.base_schema.clone(), growth, schema, self.config)
    }

    fn generate(
        base_schema: Schema,
        growth: Vec<f64>,
        schema: Schema,
        config: ClusterConfig,
    ) -> Self {
        let db = Database::generate(&schema, config.seed);
        Self {
            base_schema,
            growth,
            schema,
            config,
            db,
            shared: Mutex::new(Shared::default()),
        }
    }

    /// The schema the rows were generated for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Per-table growth multipliers of [`Self::schema`] over the base
    /// schema (all 1.0 until a bulk update).
    pub fn growth(&self) -> &[f64] {
        &self.growth
    }

    pub(crate) fn base_schema(&self) -> &Schema {
        &self.base_schema
    }

    pub(crate) fn db(&self) -> &Database {
        &self.db
    }

    pub fn stats(&self) -> SubstrateStats {
        let shared = self.shared.lock();
        SubstrateStats {
            clusters_attached: shared.clusters_attached,
            memo_entries: shared.memo.len(),
            memo_hits: shared.hits,
            memo_misses: shared.misses,
            layout_entries: shared.layouts.len(),
            scratch_bytes: shared.scratch.capacity_bytes(),
        }
    }

    /// The layout of `table` in `state`: [`layout_table`] computed once per
    /// hashed `(table, attribute)` and shared from then on.
    pub fn layout(&self, table: TableId, state: TableState) -> Layout {
        let TableState::PartitionedBy(attr) = state else {
            return Layout::Replicated;
        };
        let mut shared = self.shared.lock();
        let entry = shared.layouts.entry((table, attr)).or_insert_with(|| {
            let nodes = self.config.hardware.nodes;
            layout_table(&self.db, &self.config.engine, nodes, table, state)
        });
        entry.clone()
    }

    pub(crate) fn attach(&self) {
        self.shared.lock().clusters_attached += 1;
    }

    pub(crate) fn detach(&self) {
        let mut shared = self.shared.lock();
        shared.clusters_attached = shared.clusters_attached.saturating_sub(1);
    }

    /// The result of `query` on a fault-free cluster with no timeout:
    /// answered from the memo, or produced by `run` and stored. The caller
    /// guarantees `run` is that clean execution; an aborted one (`None`)
    /// is never stored.
    pub(crate) fn clean_execution(
        &self,
        query: &Query,
        deployed: &Partitioning,
        stats_epoch: u64,
        run: impl FnOnce(&mut ExecScratch) -> Option<ExecResult>,
    ) -> Option<ExecResult> {
        let mut guard = self.shared.lock();
        let shared = &mut *guard;
        shared.probe.fill(query, deployed, stats_epoch);
        if let Some(hit) = shared.memo.get(&shared.probe) {
            shared.hits += 1;
            return Some(*hit);
        }
        let result = run(&mut shared.scratch)?;
        shared.misses += 1;
        shared.memo.insert(shared.probe.clone(), result);
        Some(result)
    }

    /// Run an execution the memo must not see (active fault, timeout) on
    /// the shared arenas.
    pub(crate) fn with_scratch<R>(&self, run: impl FnOnce(&mut ExecScratch) -> R) -> R {
        run(&mut self.shared.lock().scratch)
    }
}
