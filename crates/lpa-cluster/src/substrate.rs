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
//! * a small pool of [`ExecScratch`] arenas, whose contents never outlive
//!   one execution: a serial caller only ever holds one, and concurrent
//!   callers hold at most one each.
//!
//! Executions never run under the lock. A memo miss claims its key, runs
//! on an arena from the pool with the lock released, then stores the
//! result and wakes every caller that found the key claimed and waited for
//! it instead of executing it again: each key executes exactly once, so
//! hits, misses and entries do not depend on the order in which
//! concurrent clusters ask.
//!
//! Executions under an active fault or a timeout never read or write the
//! memo (DESIGN.md §16), which keeps tenants isolated: the only shared
//! mutable state is a table of values each tenant would have computed
//! itself, bit for bit. [`SubstrateStats`] counts them by cause.

use crate::cluster::ClusterConfig;
use crate::columnar::ExecScratch;
use crate::datagen::Database;
use crate::executor::{layout_table, ExecResult, Layout};
use lpa_partition::fingerprint::pack;
use lpa_partition::{Partitioning, TableState};
use lpa_schema::{AttrId, AttrRef, Schema, TableId};
use lpa_workload::Query;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Keys some caller is executing right now, outside the lock.
    in_flight: BTreeSet<MemoKey>,
    /// Hashed layouts handed out so far ([`Substrate::layout`]).
    layouts: BTreeMap<(TableId, AttrId), Layout>,
    /// Idle arenas; a caller takes one for an execution and puts it back.
    arenas: Vec<ExecScratch>,
    /// The most bytes any one execution held live in its arena.
    peak_bytes: usize,
    clusters_attached: usize,
    hits: u64,
    misses: u64,
    bypassed_degraded: u64,
    bypassed_timed: u64,
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
    /// Completed executions under an active fault, which skip the memo.
    pub bypassed_degraded: u64,
    /// Completed fault-free executions with a timeout, which skip it too.
    /// With the two memo counts these partition every completed execution;
    /// the ones that time out are the clusters' `FaultAccounting::timeouts`.
    pub bypassed_timed: u64,
    /// Distinct `(table, attribute)` hashed layouts computed so far.
    pub layout_entries: usize,
    /// The most bytes any single execution so far held live in an
    /// executor arena (lengths, not capacities). Which arena of the pool
    /// ran an execution, and what ran on it before, does not change it.
    pub scratch_bytes: usize,
}

impl Shared {
    /// An idle arena, or a new one when every arena is busy.
    fn take_arena(&mut self) -> ExecScratch {
        self.arenas.pop().unwrap_or_default()
    }

    /// Return an arena after an execution ran on it.
    fn put_arena(&mut self, arena: ExecScratch) {
        self.peak_bytes = self.peak_bytes.max(arena.peak_bytes);
        self.arenas.push(arena);
    }
}

/// A memo key this caller is executing. [`Substrate::clean_execution`]
/// settles it by moving the key into the memo; dropped unsettled (the
/// execution aborted or panicked), it withdraws the key and wakes the
/// waiters, which then execute the query themselves.
struct Claim<'s> {
    substrate: &'s Substrate,
    key: Option<MemoKey>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.substrate.lock().in_flight.remove(&key);
            self.substrate.executed.notify_all();
        }
    }
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
    /// Signalled whenever a claimed key leaves `in_flight`.
    executed: Condvar,
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
            executed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// The generated rows every cluster on this substrate executes over.
    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn stats(&self) -> SubstrateStats {
        let shared = self.lock();
        SubstrateStats {
            clusters_attached: shared.clusters_attached,
            memo_entries: shared.memo.len(),
            memo_hits: shared.hits,
            memo_misses: shared.misses,
            bypassed_degraded: shared.bypassed_degraded,
            bypassed_timed: shared.bypassed_timed,
            layout_entries: shared.layouts.len(),
            scratch_bytes: shared.peak_bytes,
        }
    }

    /// The layout of `table` in `state`: [`layout_table`] computed once per
    /// hashed `(table, attribute)` and shared from then on.
    pub fn layout(&self, table: TableId, state: TableState) -> Layout {
        let TableState::PartitionedBy(attr) = state else {
            return Layout::Replicated;
        };
        let mut shared = self.lock();
        let entry = shared.layouts.entry((table, attr)).or_insert_with(|| {
            let nodes = self.config.hardware.nodes;
            layout_table(&self.db, &self.config.engine, nodes, table, state)
        });
        entry.clone()
    }

    pub(crate) fn attach(&self) {
        self.lock().clusters_attached += 1;
    }

    pub(crate) fn detach(&self) {
        let mut shared = self.lock();
        shared.clusters_attached = shared.clusters_attached.saturating_sub(1);
    }

    /// The result of `query` on a fault-free cluster with no timeout:
    /// answered from the memo, or produced by `run` and stored. The caller
    /// guarantees `run` is that clean execution; an aborted one (`None`)
    /// is never stored. `run` executes with the lock released; a caller
    /// that asks for a key another caller is executing waits for that
    /// result and counts a hit.
    pub(crate) fn clean_execution(
        &self,
        query: &Query,
        deployed: &Partitioning,
        stats_epoch: u64,
        run: impl FnOnce(&mut ExecScratch) -> Option<ExecResult>,
    ) -> Option<ExecResult> {
        let mut shared = self.lock();
        loop {
            let s = &mut *shared;
            s.probe.fill(query, deployed, stats_epoch);
            if let Some(hit) = s.memo.get(&s.probe) {
                s.hits += 1;
                return Some(*hit);
            }
            if !s.in_flight.contains(&s.probe) {
                break;
            }
            shared = self
                .executed
                .wait(shared)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let key = shared.probe.clone();
        shared.in_flight.insert(key.clone());
        let mut arena = shared.take_arena();
        drop(shared);
        let mut claim = Claim {
            substrate: self,
            key: Some(key),
        };
        let result = run(&mut arena);
        let mut shared = self.lock();
        shared.put_arena(arena);
        // An aborted execution stores nothing: dropping `claim` (after
        // `shared`) withdraws the key.
        let result = result?;
        if let Some(key) = claim.key.take() {
            shared.in_flight.remove(&key);
            shared.misses += 1;
            shared.memo.insert(key, result);
        }
        drop(shared);
        self.executed.notify_all();
        Some(result)
    }

    /// Run an execution the memo must not see — under an active fault
    /// (`degraded`) or with a timeout — on an arena from the pool, and
    /// count it by cause if it completes.
    pub(crate) fn bypass_memo(
        &self,
        degraded: bool,
        run: impl FnOnce(&mut ExecScratch) -> Option<ExecResult>,
    ) -> Option<ExecResult> {
        let mut arena = self.lock().take_arena();
        let result = run(&mut arena);
        let mut shared = self.lock();
        shared.put_arena(arena);
        let result = result?;
        if degraded {
            shared.bypassed_degraded += 1;
        } else {
            shared.bypassed_timed += 1;
        }
        Some(result)
    }

    /// The pool's arena, for tests that inspect what an execution left.
    #[cfg(test)]
    pub(crate) fn with_scratch<R>(&self, run: impl FnOnce(&mut ExecScratch) -> R) -> R {
        let mut arena = self.lock().take_arena();
        let out = run(&mut arena);
        self.lock().put_arena(arena);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineProfile, HardwareProfile};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A clean execution that aborts or panics stores nothing and leaves
    /// its key unclaimed, so the next caller executes it instead of
    /// waiting for a result that never comes.
    #[test]
    fn an_aborted_or_panicking_execution_withdraws_its_claim() {
        let schema = lpa_schema::microbench::schema(0.01).expect("schema builds");
        let workload = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let config = ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard());
        let substrate = Substrate::new(schema.clone(), config);
        let query = &workload.queries()[0];
        let deployed = Partitioning::initial(&schema);
        let clean = |run: &dyn Fn() -> Option<ExecResult>| {
            substrate.clean_execution(query, &deployed, 0, |_| run())
        };
        let unclaimed = || substrate.lock().in_flight.is_empty();

        assert_eq!(clean(&|| None), None);
        assert!(unclaimed());
        let panicked = catch_unwind(AssertUnwindSafe(|| clean(&|| panic!("execution panicked"))));
        assert!(panicked.is_err());
        assert!(unclaimed());

        let result = ExecResult {
            seconds: 1.5,
            output_rows: 7,
            bytes_shuffled: 0.0,
        };
        assert_eq!(clean(&|| Some(result)), Some(result));
        assert_eq!(clean(&|| None), Some(result), "answered from the memo");
        let stats = substrate.stats();
        assert_eq!(
            (stats.memo_hits, stats.memo_misses, stats.memo_entries),
            (1, 1, 1)
        );
    }
}
