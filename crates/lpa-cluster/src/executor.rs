//! Per-node hash-join execution over the generated data.
//!
//! The executor follows a plan's join order and exchange strategies, but
//! everything it *charges* comes from what actually happens to the rows:
//! build/probe/output counts per node, bytes received per node during
//! broadcasts and shuffles, and straggler effects (a step is as slow as its
//! most loaded node). Value skew and co-location therefore influence
//! runtimes through the data itself — this is what the online phase of the
//! advisor learns from and what the offline cost model only approximates.

use crate::datagen::Database;
use crate::engine::EngineProfile;
use crate::faults::FaultState;
use crate::hardware::HardwareProfile;
use lpa_costmodel::QueryPlan;
use lpa_par::Pool;
use lpa_partition::TableState;
use lpa_schema::{Schema, TableId};
use lpa_workload::Query;
use std::sync::Arc;

/// Row count below which per-node work runs inline: thread spawning costs
/// more than the join itself for small tables. The threshold only selects
/// serial vs. parallel execution of the *same* per-node decomposition, so
/// results are bit-identical either way.
pub(crate) const PAR_MIN_ROWS: usize = 1 << 14;

/// The deterministic pool for `work` row-operations' worth of simulator
/// work (inline below [`PAR_MIN_ROWS`]).
pub(crate) fn par_pool(work: usize) -> Pool {
    if work >= PAR_MIN_ROWS {
        Pool::current()
    } else {
        Pool::with_threads(1)
    }
}

/// Per-table physical layout on the cluster.
#[derive(Clone, Debug)]
pub enum Layout {
    /// Full copy on every node.
    Replicated,
    /// `node[row]` assignment derived from the partition-key values, and
    /// `counts[n]` = rows assigned to node `n`. Both are pure functions of
    /// the generated column, so every cluster on one
    /// [`Substrate`](crate::Substrate) shares them.
    Hashed {
        attr: lpa_schema::AttrId,
        node: Arc<[u8]>,
        counts: Arc<[usize]>,
    },
}

/// Compute the layout of one table under a deployment (one `node_of` hash
/// per row, never cached: [`Substrate::layout`](crate::Substrate::layout)
/// is the memoised front of this function).
#[expect(
    clippy::indexing_slicing,
    reason = "hot kernel: node_of returns a node below the node count"
)]
pub fn layout_table(
    db: &Database,
    engine: &EngineProfile,
    nodes: usize,
    table: TableId,
    state: TableState,
) -> Layout {
    match state {
        TableState::Replicated => Layout::Replicated,
        TableState::PartitionedBy(attr) => {
            let col = db.column(table, attr);
            let node: Arc<[u8]> = par_pool(col.len())
                .par_map_chunked(col, lpa_par::default_chunk_len(col.len()), |_, &v| {
                    engine.node_of(v, nodes) as u8
                })
                .into();
            let mut counts = vec![0usize; nodes];
            for &home in node.iter() {
                counts[home as usize] += 1;
            }
            Layout::Hashed {
                attr,
                node,
                counts: counts.into(),
            }
        }
    }
}

/// Result of executing one query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecResult {
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// Rows in the final join result (before aggregation).
    pub output_rows: u64,
    /// Total bytes that crossed the network.
    pub bytes_shuffled: f64,
}

/// The execution context for one query.
#[derive(Debug)]
pub struct Executor<'a> {
    pub schema: &'a Schema,
    pub db: &'a Database,
    pub engine: &'a EngineProfile,
    pub hw: &'a HardwareProfile,
    pub layouts: &'a [Layout],
    /// Active fault state. On a healthy cluster this is the nominal state
    /// (nothing down, all multipliers exactly 1.0), and every charge below
    /// is bit-identical to the fault-free arithmetic: `x * 1.0` is an exact
    /// identity for finite doubles, and the weighted maxima reduce to the
    /// unweighted ones.
    pub faults: &'a FaultState,
}

impl<'a> Executor<'a> {
    /// Execute `query` under the deployed `partitioning`, following `plan`.
    /// Returns the simulated runtime; if `budget` is given, execution is
    /// aborted once the accumulated time exceeds it and `None` is returned
    /// (the timeout optimization of Section 4.2).
    ///
    /// Runs the columnar fast path ([`crate::columnar`]);
    /// [`crate::reference::execute`] is the row-at-a-time oracle it is
    /// tested against. Allocates a fresh scratch; steady-state callers
    /// should hold an [`crate::ExecScratch`] and use [`Self::execute_with`].
    pub fn execute(
        &self,
        query: &Query,
        plan: &QueryPlan,
        budget: Option<f64>,
    ) -> Option<ExecResult> {
        let mut scratch = crate::ExecScratch::default();
        self.execute_with(query, plan, budget, &mut scratch)
    }

    /// Straggler multiplier of work every live node performs in full (e.g.
    /// scanning a replicated table): the step is as slow as the slowest
    /// node that is still up.
    pub(crate) fn replicated_slowdown(&self) -> f64 {
        self.faults
            .work_mult
            .iter()
            .zip(&self.faults.down)
            .filter(|(_, down)| !**down)
            .map(|(m, _)| *m)
            .fold(1.0, f64::max)
    }

    /// Work multiplier of a node (1.0 when the fault state does not cover
    /// it, e.g. hand-built executors in tests).
    pub(crate) fn node_work_mult(&self, node: usize) -> f64 {
        self.faults.work_mult.get(node).copied().unwrap_or(1.0)
    }

    /// Network receive-time multiplier of a node.
    pub(crate) fn node_net_mult(&self, node: usize) -> f64 {
        self.faults.net_mult.get(node).copied().unwrap_or(1.0)
    }
}

pub(crate) fn over(seconds: f64, budget: Option<f64>) -> bool {
    budget.map(|b| seconds > b).unwrap_or(false)
}

/// Slot index of `t` in the query's scan list; slot 0 if the planner ever
/// hands us a foreign table (deterministic, and visibly wrong in traces
/// rather than a mid-episode abort).
pub(crate) fn slot_of(query: &Query, t: TableId) -> usize {
    query.tables.iter().position(|x| *x == t).unwrap_or(0)
}

pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
