//! Columnar (struct-of-arrays) executor accounting — the allocation-free
//! fast path behind [`Executor::execute`].
//!
//! [`Executor::execute_naive`] keeps the row-at-a-time reference semantics:
//! fresh `Vec`s for filtered rows, placements, buckets and per-group join
//! outputs on every step, one provenance id per query table on every output
//! row. This module charges the same quantities over the reusable columns of
//! an [`ExecScratch`], materialising only what something later reads:
//!
//! * per-node work / net / runtime accounting lives in flat columns
//!   (`net_bytes`, `per_node_*`), with fault multipliers applied as column
//!   passes in node-index order — exactly the naive fold order;
//! * **late materialisation** — an intermediate carries its row count, its
//!   `node` column and the base-row ids of just the slots a *later* step
//!   takes its left join keys from ([`carried_slots`]). A step nothing
//!   reads from (the last, usually the largest) is count-only: a probe hit
//!   adds the build entry's match count to `per_node_out` and writes no row;
//! * **one build table per step**, keyed by `(join key, group)` (group 0
//!   when the right side is present everywhere), hashed by one SplitMix64
//!   round ([`KeyHasher`]) and probed in one pass over the intermediate in
//!   index order; build rows are chained through an arena (`build_row` /
//!   `build_next`) only when the right table's ids are carried.
//!
//! Output rows therefore come out probe-major (and, within one probe row's
//! matches, newest build row first) where the naive path merges them
//! group-major, and most provenance columns never exist. No charged quantity
//! can tell: each is either a per-node integer count (build / probe / output
//! rows, node histograms) or an `f64` sum of one constant per moved row, and
//! that constant is integer-valued (`Table::row_bytes: u64` and sums of it),
//! so every partial sum is an integer below 2^53 — exact, whatever order the
//! rows are visited in. It is the premise `executor.rs` states for its own
//! group-ordered merge. The hash table is never iterated, so its order
//! cannot leak either.
//!
//! Bit-exactness contract (DESIGN.md §13): every `f64` accumulation below
//! is the same expression, in the same order, as `execute_naive`; the
//! differential harness ([`crate::with_naive_executor`], plus the
//! property/chaos suites) proves `execute` == `execute_naive` bit-for-bit
//! across fault storms and thread counts.
//!
//! This file is hot-path scoped under lint rule L013: no `Vec::new` /
//! `vec![]` / `collect()` outside `#[cfg(test)]` — steady-state execution
//! must not allocate.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::engine::splitmix64;
use crate::executor::{hash_str, over, slot_of, ExecResult, Executor, Layout};
use lpa_costmodel::{JoinStrategy, QueryPlan};
use lpa_schema::{AttrRef, TableId};
use lpa_workload::{JoinPred, Query};

/// Hasher of the build table's `(join key, group)` keys: the two words
/// are folded together and mixed by one SplitMix64 round — deterministic,
/// and all a table that is only probed, never iterated, needs.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 ^= key;
    }

    /// `group + 1`: Postgres-XL places by `splitmix64(key) % nodes`, so an
    /// unsalted group 0 would pin a node's keys to one bucket residue.
    fn write_u8(&mut self, group: u8) {
        self.0 ^= (group as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// The build rows sharing one `(join key, group)`: how many, and (when the
/// right table's ids are carried) the head of their chain in the arena.
#[derive(Clone, Copy, Debug)]
struct Build {
    head: u32,
    count: u32,
}

/// Columnar intermediate result: the naive executor's `Inter` reduced to
/// what a later step reads, in arena-backed columns that survive across
/// steps and queries.
#[derive(Clone, Debug, Default)]
struct ColInter {
    /// `slots[s][i]` = base-table row feeding row `i` from query table
    /// slot `s`, for the carried slots only (all others stay empty).
    slots: Vec<Vec<u32>>,
    /// Home node per row; empty when `replicated` and after a count-only
    /// step, whose per-node row counts are `ExecScratch::per_node_out`.
    node: Vec<u8>,
    rows: usize,
    replicated: bool,
    bytes_per_row: f64,
}

impl ColInter {
    fn reset(&mut self, width: usize) {
        self.slots.truncate(width);
        for s in self.slots.iter_mut() {
            s.clear();
        }
        self.slots.resize_with(width, Default::default);
        self.node.clear();
        self.rows = 0;
        self.replicated = false;
        self.bytes_per_row = 0.0;
    }

    fn capacity_bytes(&self) -> usize {
        vec_bytes(&self.slots)
            + self.slots.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.node)
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Reusable buffers for the columnar executor. One per substrate (or per
/// caller); every query and join step reuses the same arenas, so
/// steady-state execution performs no heap allocation once the buffers
/// have grown to the workload's high-water mark.
#[derive(Clone, Debug, Default)]
pub struct ExecScratch {
    /// Predicate-surviving row ids of the table currently being scanned.
    filtered: Vec<u32>,
    /// Home node per filtered right row (empty when replicated).
    right_home: Vec<u8>,
    /// Post-exchange placements (directed / symmetric repartition).
    new_left: Vec<u8>,
    new_right: Vec<u8>,
    /// Per-node bytes received this step (column pass per strategy).
    net_bytes: Vec<f64>,
    /// Slots the step being executed must carry ([`carried_slots`]).
    carried: Vec<usize>,
    /// The step's build table and its chained-row arena.
    join_keys: HashMap<(u64, u8), Build, BuildHasherDefault<KeyHasher>>,
    build_row: Vec<u32>,
    build_next: Vec<u32>,
    /// Per-group work columns for the straggler maxima. `per_node_out`
    /// doubles as the node histogram of `cur` (the seed fills it too).
    per_node_build: Vec<usize>,
    per_node_probe: Vec<usize>,
    per_node_out: Vec<usize>,
    /// Double-buffered intermediates (swapped after each join step).
    cur: ColInter,
    next: ColInter,
}

impl ExecScratch {
    /// Heap bytes the arenas currently hold (capacity, not length): the
    /// high-water mark of everything executed on this scratch so far.
    pub fn capacity_bytes(&self) -> usize {
        vec_bytes(&self.filtered)
            + vec_bytes(&self.right_home)
            + vec_bytes(&self.new_left)
            + vec_bytes(&self.new_right)
            + vec_bytes(&self.net_bytes)
            + vec_bytes(&self.carried)
            + self.join_keys.capacity() * std::mem::size_of::<((u64, u8), Build)>()
            + vec_bytes(&self.build_row)
            + vec_bytes(&self.build_next)
            + vec_bytes(&self.per_node_build)
            + vec_bytes(&self.per_node_probe)
            + vec_bytes(&self.per_node_out)
            + self.cur.capacity_bytes()
            + self.next.capacity_bytes()
    }
}

/// `join`'s primary pair oriented as (intermediate side, right side) — the
/// naive path orients every pair but only ever reads the first.
fn oriented(join: &JoinPred, right_table: TableId) -> (AttrRef, AttrRef) {
    let (a, b) = join.pairs[0];
    if b.table == right_table {
        (a, b)
    } else {
        (b, a)
    }
}

/// The slots of `query.tables` whose base-row ids the output of
/// `plan.steps[at]` must carry: those a later step takes its left join
/// keys from. Empty means nothing downstream reads a row of that output —
/// the step only has to be counted.
fn carried_slots(query: &Query, plan: &QueryPlan, at: usize, out: &mut Vec<usize>) {
    out.clear();
    for step in plan.steps.iter().skip(at + 1) {
        let Some(join) = query.joins.get(step.join_index) else {
            continue;
        };
        let slot = slot_of(query, oriented(join, step.table).0.table);
        if !out.contains(&slot) {
            out.push(slot);
        }
    }
}

impl Executor<'_> {
    /// The columnar fast path behind [`Executor::execute`]. Bit-identical
    /// to [`Executor::execute_naive`] by construction (see module docs) and
    /// by the differential suites.
    pub(crate) fn execute_columnar(
        &self,
        query: &Query,
        plan: &QueryPlan,
        budget: Option<f64>,
        scratch: &mut ExecScratch,
    ) -> Option<ExecResult> {
        let mut seconds = self.engine.query_overhead;
        let mut bytes_shuffled = 0.0;

        let scan_bw = if self.engine.disk_based {
            self.hw.disk_scan_bandwidth
        } else {
            self.hw.mem_scan_bandwidth
        };
        for &t in &query.tables {
            let bytes = self.schema.table(t).bytes() as f64;
            let max_share = self.max_shard_fraction_col(t);
            seconds += bytes * max_share / scan_bw;
        }
        if over(seconds, budget) {
            return None;
        }

        if query.joins.is_empty() {
            let t = query.tables[0];
            self.filtered_rows_into(query, t, &mut scratch.filtered);
            let rows = scratch.filtered.len() as f64;
            let share = self.max_shard_fraction_col(t);
            seconds += rows * share * self.hw.cpu_tuple_cost * query.cpu_factor;
            return Some(ExecResult {
                seconds,
                output_rows: rows as u64,
                bytes_shuffled,
            });
        }

        let start = plan.start_table.unwrap_or(query.tables[0]);
        self.seed_inter_col(query, start, scratch);

        for (at, step) in plan.steps.iter().enumerate() {
            let Some(join) = query.joins.get(step.join_index) else {
                continue;
            };
            carried_slots(query, plan, at, &mut scratch.carried);
            let (step_seconds, step_bytes) =
                self.join_step_col(query, step.table, join, step.strategy, scratch);
            seconds += step_seconds;
            bytes_shuffled += step_bytes;
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            if over(seconds, budget) {
                return None;
            }
        }

        let out_rows = scratch.cur.rows;
        let agg_share = if scratch.cur.replicated {
            1.0
        } else {
            self.max_node_fraction_col(&scratch.per_node_out, out_rows)
        };
        seconds += out_rows as f64 * agg_share * self.hw.cpu_tuple_cost * query.cpu_factor;
        if over(seconds, budget) {
            return None;
        }
        Some(ExecResult {
            seconds,
            output_rows: out_rows as u64,
            bytes_shuffled,
        })
    }

    /// Columnar twin of the naive `max_shard_fraction`, from the row
    /// counts stored with the layout.
    fn max_shard_fraction_col(&self, t: TableId) -> f64 {
        match &self.layouts[t.0] {
            Layout::Replicated => self.replicated_slowdown(),
            Layout::Hashed { node, counts, .. } => self.max_node_fraction_col(counts, node.len()),
        }
    }

    /// Columnar twin of the naive `max_node_fraction`, given the per-node
    /// histogram of the `rows` assignments it would count: the same
    /// weighted maximum, folded in node order over the same integers.
    fn max_node_fraction_col(&self, counts: &[usize], rows: usize) -> f64 {
        if rows == 0 {
            return 1.0 / self.hw.nodes as f64;
        }
        let max_weighted = counts
            .iter()
            .enumerate()
            .map(|(node, &c)| c as f64 * self.node_work_mult(node))
            .fold(0.0, f64::max);
        max_weighted / rows as f64
    }

    /// Columnar twin of the naive `filtered_rows`: same ids, same order,
    /// written into a reused buffer.
    fn filtered_rows_into(&self, query: &Query, t: TableId, out: &mut Vec<u32>) {
        out.clear();
        let sel = query.table_selectivity(t);
        let rows = self.db.table(t).rows;
        if sel >= 1.0 {
            out.extend(0..rows as u32);
            return;
        }
        let threshold = (sel * u64::MAX as f64) as u64;
        let tag = splitmix64(hash_str(&query.name) ^ ((t.0 as u64) << 17));
        for r in 0..rows as u32 {
            if splitmix64(tag ^ r as u64) <= threshold {
                out.push(r);
            }
        }
    }

    /// Columnar twin of the naive `seed_inter`; also leaves the seed's node
    /// histogram in `per_node_out`, as every join step does for its output.
    fn seed_inter_col(&self, query: &Query, start: TableId, scratch: &mut ExecScratch) {
        let slot = slot_of(query, start);
        self.filtered_rows_into(query, start, &mut scratch.filtered);
        let cur = &mut scratch.cur;
        cur.reset(query.tables.len());
        cur.rows = scratch.filtered.len();
        scratch.per_node_out.clear();
        scratch.per_node_out.resize(self.hw.nodes, 0);
        match &self.layouts[start.0] {
            Layout::Replicated => cur.replicated = true,
            Layout::Hashed { node, .. } => {
                for &r in &scratch.filtered {
                    let home = node[r as usize];
                    cur.node.push(home);
                    if let Some(rows) = scratch.per_node_out.get_mut(home as usize) {
                        *rows += 1;
                    }
                }
            }
        }
        if let Some(seed_slot) = cur.slots.get_mut(slot) {
            seed_slot.extend_from_slice(&scratch.filtered);
        }
        cur.bytes_per_row = self.schema.table(start).row_bytes as f64;
    }

    /// Columnar twin of the naive `join_step`: reads `scratch.cur`, writes
    /// the `scratch.carried` slots of `scratch.next` (the caller swaps).
    /// Returns (seconds, total bytes).
    fn join_step_col(
        &self,
        query: &Query,
        right_table: TableId,
        join: &JoinPred,
        strategy: JoinStrategy,
        scratch: &mut ExecScratch,
    ) -> (f64, f64) {
        let ExecScratch {
            filtered,
            right_home,
            new_left,
            new_right,
            net_bytes,
            carried,
            join_keys,
            build_row,
            build_next,
            per_node_build,
            per_node_probe,
            per_node_out,
            cur,
            next,
        } = scratch;
        let inter: &ColInter = cur;

        let n = self.hw.nodes;
        let right_slot = slot_of(query, right_table);
        self.filtered_rows_into(query, right_table, filtered);
        let right_rows: &[u32] = filtered;
        let right_bytes_row = self.schema.table(right_table).row_bytes as f64;

        // The join-key value of every intermediate row, gathered on demand
        // through the one carried slot this step reads.
        let primary = oriented(join, right_table);
        let left_col = self.db.column(primary.0.table, primary.0.attr);
        let left_rows = inter.slots.get(slot_of(query, primary.0.table));
        let left_keys = || (left_rows.into_iter().flatten()).map(|&r| left_col[r as usize]);
        let right_col = self.db.column(right_table, primary.1.attr);

        right_home.clear();
        let right_replicated = matches!(self.layouts[right_table.0], Layout::Replicated);
        if let Layout::Hashed { node, .. } = &self.layouts[right_table.0] {
            for &r in right_rows {
                right_home.push(node[r as usize]);
            }
        }

        net_bytes.clear();
        net_bytes.resize(n, 0.0);
        let mut total_bytes = 0.0f64;

        // What the exchange does — ship one side everywhere, re-hash a side
        // on its join key, or nothing. Same accumulation expressions, in
        // the same order, as the naive strategy arms.
        let (ship_left, ship_right, rehash_left, rehash_right) = match strategy {
            JoinStrategy::ReplicatedSide | JoinStrategy::CoLocated => (false, false, false, false),
            JoinStrategy::Broadcast { table_side } => (!table_side, table_side, false, false),
            JoinStrategy::DirectedRepartition { table_side } => {
                (false, false, !table_side, table_side)
            }
            JoinStrategy::SymmetricRepartition => (false, false, true, true),
        };
        let shuffled = ship_left || ship_right || rehash_left || rehash_right;
        if ship_left || ship_right {
            let bytes = if ship_right {
                right_rows.len() as f64 * right_bytes_row
            } else {
                inter.rows as f64 * inter.bytes_per_row
            };
            for node_bytes in net_bytes.iter_mut() {
                *node_bytes += bytes * (n as f64 - 1.0) / n as f64;
            }
            total_bytes += bytes * (n as f64 - 1.0);
        }
        if rehash_left {
            new_left.clear();
            for (i, v) in left_keys().enumerate() {
                let node = self.engine.node_of(v, n) as u8;
                new_left.push(node);
                let home = if inter.replicated {
                    node
                } else {
                    inter.node[i]
                };
                if home != node {
                    net_bytes[node as usize] += inter.bytes_per_row;
                    total_bytes += inter.bytes_per_row;
                }
            }
        }
        if rehash_right {
            new_right.clear();
            for (j, &r) in right_rows.iter().enumerate() {
                let node = self.engine.node_of(right_col[r as usize], n) as u8;
                new_right.push(node);
                if right_home.get(j).copied().unwrap_or(node) != node {
                    net_bytes[node as usize] += right_bytes_row;
                    total_bytes += right_bytes_row;
                }
            }
        }

        // Effective placements after the exchange; `None` = present
        // everywhere (replicated or broadcast).
        let left_at: Option<&[u8]> = if rehash_left {
            Some(new_left)
        } else if inter.replicated || ship_left {
            None
        } else {
            Some(&inter.node)
        };
        let right_at: Option<&[u8]> = if rehash_right {
            Some(new_right)
        } else if right_replicated || ship_right {
            None
        } else {
            Some(right_home)
        };
        let both_everywhere = left_at.is_none() && right_at.is_none();
        let groups: usize = if both_everywhere { 1 } else { n };

        next.reset(query.tables.len());
        for counts in [&mut *per_node_build, &mut *per_node_probe, per_node_out] {
            counts.clear();
            counts.resize(groups, 0);
        }

        // Build: one table for the whole step. A right side present
        // everywhere builds once under group 0 and counts for every group.
        let keep_right = carried.contains(&right_slot);
        join_keys.clear();
        build_row.clear();
        build_next.clear();
        for (j, &r) in right_rows.iter().enumerate() {
            let group = right_at.and_then(|at| at.get(j).copied()).unwrap_or(0);
            if let Some(rows) = per_node_build.get_mut(group as usize) {
                *rows += 1;
            }
            let b = join_keys
                .entry((right_col[r as usize], group))
                .or_insert(Build {
                    head: u32::MAX,
                    count: 0,
                });
            b.count += 1;
            if keep_right {
                build_next.push(std::mem::replace(&mut b.head, build_row.len() as u32));
                build_row.push(r);
            }
        }
        if right_at.is_none() {
            per_node_build.fill(right_rows.len());
        }

        // Probe: intermediate rows in index order, each at the group it was
        // placed on — or at every group when it is present everywhere. A hit
        // is `count` output rows at that group; only carried columns are
        // written, as runs of one repeated value except the right table's.
        let count_only = carried.is_empty();
        let mut probe = |i: usize, key: u64, g: usize| {
            per_node_probe[g] += 1;
            let group = if right_at.is_some() { g as u8 } else { 0 };
            let Some(b) = join_keys.get(&(key, group)) else {
                return;
            };
            let count = b.count as usize;
            per_node_out[g] += count;
            if count_only {
                return;
            }
            next.node.resize(next.node.len() + count, g as u8);
            for &s in carried.iter() {
                let Some(out) = next.slots.get_mut(s) else {
                    continue;
                };
                if s == right_slot {
                    let mut idx = b.head as usize;
                    while let (Some(&r), Some(&link)) = (build_row.get(idx), build_next.get(idx)) {
                        out.push(r);
                        idx = link as usize;
                    }
                } else if let Some(&v) = inter.slots[s].get(i) {
                    out.resize(out.len() + count, v);
                }
            }
        };
        for (i, key) in left_keys().enumerate() {
            match left_at {
                Some(at) => {
                    if let Some(&g) = at.get(i) {
                        probe(i, key, g as usize);
                    }
                }
                None => (0..groups).for_each(|g| probe(i, key, g)),
            }
        }

        // Time accounting: identical expressions and fold order to the
        // naive path (node-index-ascending column passes).
        let mut seconds = 0.0;
        if shuffled {
            seconds += self.engine.shuffle_overhead;
            let max_in = net_bytes
                .iter()
                .enumerate()
                .map(|(node, &b)| b * self.node_net_mult(node))
                .fold(0.0, f64::max);
            seconds += max_in / self.hw.net_bandwidth;
        }
        let max_work = (0..groups)
            .map(|g| {
                let node = if both_everywhere {
                    self.faults.first_up()
                } else {
                    g
                };
                (per_node_build[g] + per_node_probe[g] + per_node_out[g]) as f64
                    * self.node_work_mult(node)
            })
            .fold(0.0, f64::max);
        seconds += max_work * self.hw.cpu_tuple_cost * query.cpu_factor;

        next.rows = per_node_out.iter().sum();
        next.replicated = both_everywhere;
        next.bytes_per_row = inter.bytes_per_row + right_bytes_row;
        (seconds, total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, EngineProfile, HardwareProfile};
    use lpa_costmodel::PlanStep;
    use lpa_schema::AttrId;

    /// `n` tables joined as `edges` = (left table, right table) pairs; step
    /// `k` applies join `k` and brings in its right table. Odd joins spell
    /// their pair right side first.
    fn plan_of(n: usize, edges: &[(usize, usize)]) -> (Query, QueryPlan) {
        let attr = |t: usize| AttrRef {
            table: TableId(t),
            attr: AttrId(0),
        };
        let pair = |k: usize, (l, r): (usize, usize)| match k % 2 {
            0 => (attr(l), attr(r)),
            _ => (attr(r), attr(l)),
        };
        let query = Query {
            name: "hand_built".into(),
            tables: (0..n).map(TableId).collect(),
            joins: (edges.iter().enumerate())
                .map(|(k, &e)| JoinPred::new(vec![pair(k, e)]))
                .collect(),
            selectivity: vec![1.0; n],
            cpu_factor: 1.0,
        };
        let step = |(k, &(_, r)): (usize, &(usize, usize))| PlanStep {
            join_index: k,
            table: TableId(r),
            strategy: JoinStrategy::CoLocated,
            out_rows: 0.0,
            net_seconds: 0.0,
            cpu_seconds: 0.0,
        };
        let plan = QueryPlan {
            start_table: Some(TableId(0)),
            steps: edges.iter().enumerate().map(step).collect(),
            ..QueryPlan::default()
        };
        (query, plan)
    }

    fn carried_at(query: &Query, plan: &QueryPlan, at: usize) -> Vec<usize> {
        let mut out = vec![99];
        carried_slots(query, plan, at, &mut out);
        out
    }

    #[test]
    fn a_step_carries_exactly_the_left_key_slots_of_the_steps_after_it() {
        // Chain 0-1-2-3-4-5: step k joins table k+1 on a key of table k.
        let chain: Vec<(usize, usize)> = (0..5).map(|k| (k, k + 1)).collect();
        let (query, plan) = plan_of(6, &chain);
        for at in 0..5 {
            let want: Vec<usize> = (at + 1..5).collect();
            assert_eq!(carried_at(&query, &plan, at), want, "chain step {at}");
        }
        // Star on table 0: one carried slot until the count-only last step.
        let (query, mut plan) = plan_of(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(carried_at(&query, &plan, 0), [0]);
        assert_eq!(carried_at(&query, &plan, 2), [0]);
        assert!(carried_at(&query, &plan, 3).is_empty());
        // A step the driver skips (no such join) reads nothing.
        plan.steps[3].join_index = 17;
        assert!(carried_at(&query, &plan, 2).is_empty());
        // No mask, no width limit: 70 tables carry slots past 64.
        let chain: Vec<(usize, usize)> = (0..69).map(|k| (k, k + 1)).collect();
        let (query, plan) = plan_of(70, &chain);
        assert_eq!(carried_at(&query, &plan, 0), (1..69).collect::<Vec<_>>());
        assert!(carried_at(&query, &plan, 68).is_empty());
    }

    /// ISSUE 19: six joins on fresh arenas — only the carried slots (and the
    /// seed's) of the double-buffered intermediates ever get memory.
    #[test]
    fn only_carried_slots_of_a_six_join_query_acquire_capacity() {
        let schema = lpa_schema::tpcch::schema(0.0015).expect("schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        // Only `order` stays filtered, so that every step has rows to carry.
        let mut query = (workload.queries().iter())
            .find(|q| q.name == "ch_q05")
            .expect("ch_q05")
            .clone();
        let order = schema.table_by_name("order").expect("order");
        for (t, sel) in query.tables.iter().zip(query.selectivity.iter_mut()) {
            *sel = if *t == order { 0.03 } else { 1.0 };
        }
        let config = ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard());
        let mut cluster = Cluster::new(schema.clone(), config);
        let got = cluster.run_query(&query, None);
        let naive = || Cluster::new(schema.clone(), config).run_query(&query, None);
        assert_eq!(got, crate::with_naive_executor(naive));

        let optimizer = crate::OptimizerEstimator::new(config.engine, config.hardware);
        let plan = optimizer.plan(&schema, &query, cluster.deployed(), 0);
        assert_eq!(plan.steps.len(), 6);
        let mut carried = vec![slot_of(&query, plan.start_table.expect("a join plan"))];
        for at in 0..plan.steps.len() {
            carried.extend(carried_at(&query, &plan, at));
        }
        assert!((0..query.tables.len()).any(|s| !carried.contains(&s)));
        cluster.substrate().with_scratch(|scratch| {
            for s in 0..query.tables.len() {
                let held = scratch.cur.slots[s].capacity() + scratch.next.slots[s].capacity();
                assert_eq!(held > 0, carried.contains(&s), "slot {s} holds {held}");
            }
            // The count-only last step wrote no row: what is left is its input.
            assert!(scratch.cur.node.is_empty() && scratch.cur.rows > 0);
            assert!(scratch.capacity_bytes() > 0);
        });
    }
}
