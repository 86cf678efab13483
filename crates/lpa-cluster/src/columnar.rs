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
//! * **an empty build side ends materialisation** — carrying stops at the
//!   first step whose right table keeps no filtered row (an early-exit pass
//!   before the step loop finds it), so the step before it is count-only.
//!   Unless it re-hashes its input, that step reads no row either: naive
//!   probes an empty table with each group's rows, so its probes are the
//!   input's node histogram (`per_node_out`) and it outputs nothing. A step
//!   with no input rows hashes nothing;
//! * **one build table per step**, keyed by `(join key, group)` (group 0
//!   when the right side is present everywhere), hashed by one SplitMix64
//!   round ([`KeyHasher`]) and probed in one pass over the intermediate in
//!   index order; build rows are chained through an arena (`build_row` /
//!   `build_next`) only when the right table's ids are carried;
//! * **a count-only step folds into the step that feeds it** ([`folds`]) —
//!   when it keys on that step's right table (then the one slot carried),
//!   reads its input where that step puts it (no re-hash, no broadcast) and
//!   neither right side is empty, its table is built first and the feeding
//!   step's build entries carry, instead of a row chain, the sum of its
//!   matches for their rows at each group it would probe them in
//!   (`build_weight`). A hit adds the entry's count to the feeding step's
//!   output and the count-only step's probes, and its weight to the
//!   count-only step's output; the feeding step's output is never written.
//!   A step with no input rows does not fold.
//!
//! Output rows therefore come out probe-major (and, within one probe row's
//! matches, newest build row first) where the naive path merges them
//! group-major, and most provenance columns never exist. No charged quantity
//! can tell: each is either a per-node integer count (build / probe / output
//! rows, node histograms, fold weights — sums of match counts) or an `f64`
//! sum of one constant per moved row, and that constant is integer-valued
//! (`Table::row_bytes: u64` and sums of it), so every partial sum is an
//! integer below 2^53 — exact, whatever order the rows are visited in. It is the premise `executor.rs` states for its own
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
use std::ops::Range;

use crate::engine::splitmix64;
use crate::executor::{hash_str, over, slot_of, ExecResult, Executor, Layout};
use lpa_costmodel::{JoinStrategy, PlanStep, QueryPlan};
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

/// The build rows sharing one `(join key, group)`: how many, and the head
/// of their chain in the arena when the right table's ids are carried —
/// or, when a count-only step folds in, of their weights in `build_weight`.
#[derive(Clone, Copy, Debug)]
struct Build {
    head: u32,
    count: u32,
}

/// A plan step with the join it applies.
type Step<'p> = (&'p PlanStep, &'p JoinPred);

/// Where a step's two sides meet after its exchange.
#[derive(Clone, Copy, Debug)]
struct Placement {
    /// The input was re-hashed into `StepCols::new_left`.
    rehash_left: bool,
    /// A side present on every node (replicated or broadcast).
    left_everywhere: bool,
    right_everywhere: bool,
    both_everywhere: bool,
    /// Join groups: one when both sides are everywhere, else one per node.
    groups: usize,
    shuffled: bool,
    /// Total bytes the exchange moved.
    bytes: f64,
}

/// One join step's right side, exchange and per-group tallies. A folded
/// pair ([`folds`]) fills two: the producer's and the count-only step's.
#[derive(Clone, Debug, Default)]
struct StepCols {
    /// Predicate-surviving row ids of the right table.
    filtered: Vec<u32>,
    /// Home node per filtered right row, re-hashed in place when the step
    /// re-hashes its right side (empty for a replicated table until then).
    right_at: Vec<u8>,
    /// Post-exchange placement of a re-hashed input.
    new_left: Vec<u8>,
    /// Per-node bytes received this step (column pass per strategy).
    net_bytes: Vec<f64>,
    /// The step's build table.
    join_keys: HashMap<(u64, u8), Build, BuildHasherDefault<KeyHasher>>,
    /// Per-group work columns for the straggler maxima. `per_node_out`
    /// doubles as the node histogram of the step's output.
    per_node_build: Vec<usize>,
    per_node_probe: Vec<usize>,
    per_node_out: Vec<usize>,
}

impl StepCols {
    fn capacity_bytes(&self) -> usize {
        vec_bytes(&self.filtered)
            + vec_bytes(&self.right_at)
            + vec_bytes(&self.new_left)
            + vec_bytes(&self.net_bytes)
            + self.join_keys.capacity() * std::mem::size_of::<((u64, u8), Build)>()
            + vec_bytes(&self.per_node_build)
            + vec_bytes(&self.per_node_probe)
            + vec_bytes(&self.per_node_out)
    }
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
    /// step, whose per-node row counts are `StepCols::per_node_out`.
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
    /// The step being executed (the seed's scan before the first);
    /// `step.per_node_out` is the node histogram of `cur`.
    step: StepCols,
    /// The count-only step folded into `step` (swapped in after the pair).
    fold: StepCols,
    /// Slots the step being executed must carry ([`carried_slots`]).
    carried: Vec<usize>,
    /// Per plan step: no row of its right table survives the filter.
    empty: Vec<bool>,
    /// The build table's row chains, or a folded step's weights per entry.
    build_row: Vec<u32>,
    build_next: Vec<u32>,
    build_weight: Vec<u64>,
    /// Double-buffered intermediates (swapped after each join step).
    cur: ColInter,
    next: ColInter,
}

impl ExecScratch {
    /// Heap bytes the arenas currently hold (capacity, not length): the
    /// high-water mark of everything executed on this scratch so far.
    pub fn capacity_bytes(&self) -> usize {
        self.step.capacity_bytes()
            + self.fold.capacity_bytes()
            + vec_bytes(&self.carried)
            + vec_bytes(&self.empty)
            + vec_bytes(&self.build_row)
            + vec_bytes(&self.build_next)
            + vec_bytes(&self.build_weight)
            + self.cur.capacity_bytes()
            + self.next.capacity_bytes()
    }
}

/// `join`'s primary pair oriented as (intermediate side, right side) — the
/// naive path orients every pair but only ever reads the first.
#[expect(
    clippy::indexing_slicing,
    reason = "a validated join has at least one key pair"
)]
fn oriented(join: &JoinPred, right_table: TableId) -> (AttrRef, AttrRef) {
    let (a, b) = join.pairs[0];
    if b.table == right_table {
        (a, b)
    } else {
        (b, a)
    }
}

/// What a strategy's exchange does — ship one side everywhere, re-hash a
/// side on its join key, or nothing: `(ship_left, ship_right, rehash_left,
/// rehash_right)`.
fn exchange(strategy: JoinStrategy) -> (bool, bool, bool, bool) {
    match strategy {
        JoinStrategy::ReplicatedSide | JoinStrategy::CoLocated => (false, false, false, false),
        JoinStrategy::Broadcast { table_side } => (!table_side, table_side, false, false),
        JoinStrategy::DirectedRepartition { table_side } => (false, false, !table_side, table_side),
        JoinStrategy::SymmetricRepartition => (false, false, true, true),
    }
}

/// The slots of `query.tables` whose base-row ids the output of
/// `plan.steps[at]` must carry: those a later step takes its left join
/// keys from, up to the first later step whose right side is `empty`.
/// That step outputs nothing, so no step after it reads a row, and it
/// reads its own left keys only to re-hash them. Empty means nothing
/// downstream reads a row of that output — the step only has to be counted.
fn carried_slots(query: &Query, plan: &QueryPlan, empty: &[bool], at: usize, out: &mut Vec<usize>) {
    out.clear();
    for (k, step) in plan.steps.iter().enumerate().skip(at + 1) {
        let Some(join) = query.joins.get(step.join_index) else {
            continue;
        };
        let matches_nothing = empty.get(k).copied().unwrap_or(false);
        let (_, _, rehashes_left, _) = exchange(step.strategy);
        if matches_nothing && !rehashes_left {
            break;
        }
        let slot = slot_of(query, oriented(join, step.table).0.table);
        if !out.contains(&slot) {
            out.push(slot);
        }
        if matches_nothing {
            break;
        }
    }
}

/// The step after `plan.steps[at]` when it folds into it (module docs);
/// leaves in `carried` the slots step `at` carries. It folds when it is
/// count-only, keys on `at`'s right table (then the one slot `at` carries),
/// leaves its input where `at` puts it (no re-hash, no broadcast), and
/// neither right side is empty.
fn folds<'p>(
    query: &'p Query,
    plan: &'p QueryPlan,
    empty: &[bool],
    at: usize,
    carried: &mut Vec<usize>,
) -> Option<Step<'p>> {
    carried_slots(query, plan, empty, at + 1, carried);
    let count_only = carried.is_empty();
    carried_slots(query, plan, empty, at, carried);
    let (a, b) = (plan.steps.get(at)?, plan.steps.get(at + 1)?);
    let join = query.joins.get(b.join_index)?;
    let keyed = oriented(join, b.table).0.table == a.table;
    let (ship_left, _, rehash_left, _) = exchange(b.strategy);
    let both_match = empty.get(at) == Some(&false) && empty.get(at + 1) == Some(&false);
    (count_only && keyed && !ship_left && !rehash_left && both_match).then_some((b, join))
}

impl Executor<'_> {
    /// The columnar fast path behind [`Executor::execute`]. Bit-identical
    /// to [`Executor::execute_naive`] by construction (see module docs) and
    /// by the differential suites.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: a validated query scans at least one table"
    )]
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
            self.filtered_rows_into(query, t, &mut scratch.step.filtered);
            let rows = scratch.step.filtered.len() as f64;
            let share = self.max_shard_fraction_col(t);
            seconds += rows * share * self.hw.cpu_tuple_cost * query.cpu_factor;
            return Some(ExecResult {
                seconds,
                output_rows: rows as u64,
                bytes_shuffled,
            });
        }

        scratch.empty.clear();
        for s in &plan.steps {
            scratch.empty.push(!self.has_filtered_row(query, s.table));
        }
        let start = plan.start_table.unwrap_or(query.tables[0]);
        self.seed_inter_col(query, start, scratch);

        let mut folded = false;
        for (at, step) in plan.steps.iter().enumerate() {
            if std::mem::take(&mut folded) {
                continue;
            }
            let Some(join) = query.joins.get(step.join_index) else {
                continue;
            };
            let fold = folds(query, plan, &scratch.empty, at, &mut scratch.carried)
                .filter(|_| scratch.cur.rows > 0);
            folded = fold.is_some();
            let (charged, fold_charged) = self.join_step_col(query, (step, join), fold, scratch);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            for (step_seconds, step_bytes) in std::iter::once(charged).chain(fold_charged) {
                seconds += step_seconds;
                bytes_shuffled += step_bytes;
                if over(seconds, budget) {
                    return None;
                }
            }
        }

        let out_rows = scratch.cur.rows;
        let agg_share = if scratch.cur.replicated {
            1.0
        } else {
            self.max_node_fraction_col(&scratch.step.per_node_out, out_rows)
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
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: layouts holds one slot per schema table"
    )]
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

    /// The naive `filtered_rows` predicate over the row ids of `t` (`None`
    /// when it keeps them all), shared by the two readers below.
    fn row_filter(&self, query: &Query, t: TableId) -> (Range<u32>, Option<impl Fn(&u32) -> bool>) {
        let rows = 0..self.db.table(t).rows as u32;
        let sel = query.table_selectivity(t);
        if sel >= 1.0 {
            return (rows, None);
        }
        let threshold = (sel * u64::MAX as f64) as u64;
        let tag = splitmix64(hash_str(&query.name) ^ ((t.0 as u64) << 17));
        let keep = move |&r: &u32| splitmix64(tag ^ r as u64) <= threshold;
        (rows, Some(keep))
    }

    /// Columnar twin of the naive `filtered_rows`: same ids, same order,
    /// written into a reused buffer.
    fn filtered_rows_into(&self, query: &Query, t: TableId, out: &mut Vec<u32>) {
        out.clear();
        match self.row_filter(query, t) {
            (rows, Some(keep)) => out.extend(rows.filter(keep)),
            (rows, None) => out.extend(rows),
        }
    }

    /// Whether [`Self::filtered_rows_into`] would keep any row of `t`:
    /// the same predicate, up to its first kept row.
    fn has_filtered_row(&self, query: &Query, t: TableId) -> bool {
        let (mut rows, keep) = self.row_filter(query, t);
        keep.map_or(!rows.is_empty(), |keep| rows.any(|r| keep(&r)))
    }

    /// Columnar twin of the naive `seed_inter`; leaves the seed's node
    /// histogram in `step.per_node_out`, as each join step leaves its own.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their own table's columns; layouts holds one slot per table"
    )]
    fn seed_inter_col(&self, query: &Query, start: TableId, scratch: &mut ExecScratch) {
        let slot = slot_of(query, start);
        self.filtered_rows_into(query, start, &mut scratch.step.filtered);
        let (filtered, per_node_out) = (&scratch.step.filtered, &mut scratch.step.per_node_out);
        let cur = &mut scratch.cur;
        cur.reset(query.tables.len());
        cur.rows = filtered.len();
        per_node_out.clear();
        per_node_out.resize(self.hw.nodes, 0);
        match &self.layouts[start.0] {
            Layout::Replicated => cur.replicated = true,
            Layout::Hashed { node, .. } => {
                for &r in filtered.iter() {
                    let home = node[r as usize];
                    cur.node.push(home);
                    if let Some(rows) = per_node_out.get_mut(home as usize) {
                        *rows += 1;
                    }
                }
            }
        }
        if let Some(seed_slot) = cur.slots.get_mut(slot) {
            seed_slot.extend_from_slice(filtered);
        }
        cur.bytes_per_row = self.schema.table(start).row_bytes as f64;
    }

    /// The join-key value of every intermediate row, gathered on demand
    /// through the one carried slot the step reads.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their own table's columns"
    )]
    fn left_keys<'s>(
        &'s self,
        query: &Query,
        at: Step,
        inter: &'s ColInter,
    ) -> impl Iterator<Item = u64> + 's {
        let left = oriented(at.1, at.0.table).0;
        let left_col = self.db.column(left.table, left.attr);
        let left_rows = inter.slots.get(slot_of(query, left.table));
        (left_rows.into_iter().flatten()).map(move |&r| left_col[r as usize])
    }

    /// A step's exchange: filters its right table into `side`, places both
    /// sides and counts the bytes each node receives — the same
    /// accumulation expressions, in the same order, as the naive arms.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their own table's columns; i < inter.len()"
    )]
    fn exchange_col(
        &self,
        query: &Query,
        at: Step,
        inter: &ColInter,
        side: &mut StepCols,
    ) -> Placement {
        let (n, right_table) = (self.hw.nodes, at.0.table);
        self.filtered_rows_into(query, right_table, &mut side.filtered);
        let right_bytes_row = self.schema.table(right_table).row_bytes as f64;
        let right_key = oriented(at.1, right_table).1;
        let right_col = self.db.column(right_table, right_key.attr);
        side.right_at.clear();
        let right_replicated = matches!(self.layouts[right_table.0], Layout::Replicated);
        if let Layout::Hashed { node, .. } = &self.layouts[right_table.0] {
            side.right_at
                .extend(side.filtered.iter().map(|&r| node[r as usize]));
        }
        side.net_bytes.clear();
        side.net_bytes.resize(n, 0.0);
        let mut total_bytes = 0.0f64;
        let (ship_left, ship_right, rehash_left, rehash_right) = exchange(at.0.strategy);
        if ship_left || ship_right {
            let bytes = if ship_right {
                side.filtered.len() as f64 * right_bytes_row
            } else {
                inter.rows as f64 * inter.bytes_per_row
            };
            for node_bytes in side.net_bytes.iter_mut() {
                *node_bytes += bytes * (n as f64 - 1.0) / n as f64;
            }
            total_bytes += bytes * (n as f64 - 1.0);
        }
        let mut receive = |node: u8, bytes: f64| {
            if let Some(received) = side.net_bytes.get_mut(node as usize) {
                *received += bytes;
            }
            total_bytes += bytes;
        };
        if rehash_left {
            side.new_left.clear();
            for (i, v) in self.left_keys(query, at, inter).enumerate() {
                let node = self.engine.node_of(v, n) as u8;
                side.new_left.push(node);
                if !inter.replicated && inter.node[i] != node {
                    receive(node, inter.bytes_per_row);
                }
            }
        }
        if rehash_right {
            for (j, &r) in side.filtered.iter().enumerate() {
                let node = self.engine.node_of(right_col[r as usize], n) as u8;
                match side.right_at.get_mut(j) {
                    Some(home) if *home != node => {
                        receive(node, right_bytes_row);
                        *home = node;
                    }
                    Some(_) => {}
                    None => side.right_at.push(node),
                }
            }
        }
        let left_everywhere = !rehash_left && (inter.replicated || ship_left);
        let right_everywhere = !rehash_right && (right_replicated || ship_right);
        let both_everywhere = left_everywhere && right_everywhere;
        Placement {
            rehash_left,
            left_everywhere,
            right_everywhere,
            both_everywhere,
            groups: if both_everywhere { 1 } else { n },
            shuffled: ship_left || ship_right || rehash_left || rehash_right,
            bytes: total_bytes,
        }
    }

    /// Build: one table for the whole step (and a zeroed `per_node_out`).
    /// A right side present everywhere builds once under group 0 and counts
    /// for every group. Unless `hash` (an input without rows probes
    /// nothing), no row is hashed; `entry` sees every hashed row's entry.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their own table's columns"
    )]
    fn build_col(
        &self,
        at: Step,
        p: Placement,
        side: &mut StepCols,
        hash: bool,
        mut entry: impl FnMut(u32, &mut Build),
    ) {
        let right_key = oriented(at.1, at.0.table).1;
        let right_col = self.db.column(at.0.table, right_key.attr);
        for counts in [&mut side.per_node_build, &mut side.per_node_out] {
            counts.clear();
            counts.resize(p.groups, 0);
        }
        side.join_keys.clear();
        for (j, &r) in side.filtered.iter().enumerate() {
            let group = match p.right_everywhere {
                true => 0,
                false => side.right_at.get(j).copied().unwrap_or(0),
            };
            if let Some(rows) = side.per_node_build.get_mut(group as usize) {
                *rows += 1;
            }
            if hash {
                let key = (right_col[r as usize], group);
                let b = side.join_keys.entry(key).or_insert(Build {
                    head: u32::MAX,
                    count: 0,
                });
                b.count += 1;
                entry(r, b);
            }
        }
        if p.right_everywhere {
            side.per_node_build.fill(side.filtered.len());
        }
    }

    /// A step's time: the exchange's overhead and slowest receiver, then
    /// the slowest group's build + probe + output rows — the naive
    /// expressions, folded in node-index order.
    fn charge_col(&self, query: &Query, side: &StepCols, p: Placement) -> f64 {
        let mut seconds = 0.0;
        if p.shuffled {
            seconds += self.engine.shuffle_overhead;
            let max_in = (side.net_bytes.iter().enumerate())
                .map(|(node, &b)| b * self.node_net_mult(node))
                .fold(0.0, f64::max);
            seconds += max_in / self.hw.net_bandwidth;
        }
        let work = (side.per_node_build.iter())
            .zip(&side.per_node_probe)
            .zip(&side.per_node_out);
        let first_up = p.both_everywhere.then(|| self.faults.first_up());
        let max_work = (work.enumerate())
            .map(|(g, ((build, probe), out))| {
                (build + probe + out) as f64 * self.node_work_mult(first_up.unwrap_or(g))
            })
            .fold(0.0, f64::max);
        seconds += max_work * self.hw.cpu_tuple_cost * query.cpu_factor;
        seconds
    }

    /// Columnar twin of the naive `join_step`: reads `scratch.cur`, writes
    /// the `scratch.carried` slots of `scratch.next` (the caller swaps).
    /// With `fold` ([`folds`]) it runs the count-only step after it too:
    /// that step's table is built first, this step's build entries carry
    /// its matches, and `next` is left as its output, written by neither.
    /// Returns each step's (seconds, total bytes).
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their table's columns; g < node count; slot vectors share the intermediate's length"
    )]
    fn join_step_col(
        &self,
        query: &Query,
        at: Step,
        fold: Option<Step>,
        scratch: &mut ExecScratch,
    ) -> ((f64, f64), Option<(f64, f64)>) {
        let ExecScratch {
            step,
            fold: folded,
            carried,
            build_row,
            build_next,
            build_weight,
            cur: inter,
            next,
            ..
        } = scratch;
        let (n, right_table) = (self.hw.nodes, at.0.table);
        let right_slot = slot_of(query, right_table);
        let p = self.exchange_col(query, at, inter, step);
        next.reset(query.tables.len());
        next.replicated = p.both_everywhere;

        // The folded step reads this step's output where this step puts it
        // (its exchange needs only `next.replicated`); its table counts.
        let fold = fold.map(|b| {
            let pb = self.exchange_col(query, b, next, folded);
            self.build_col(b, pb, folded, true, |_, _| {});
            folded.per_node_probe.clear();
            folded.per_node_probe.resize(pb.groups, 0);
            (b, pb)
        });
        // An entry's weights: the folded step's matches for its rows at each
        // group — one sum when its right side is everywhere, else one per
        // node; group `g` reads sum `g % width`.
        let width = fold.map_or(1, |(_, pb)| if pb.right_everywhere { 1 } else { n });
        let fold_keys =
            fold.map(|(b, _)| self.db.column(right_table, oriented(b.1, b.0.table).0.attr));

        // An empty build side matches nothing. Unless the step re-hashes
        // its input, no input row is read either: the probes per group are
        // the input's node histogram (`per_node_out` until the build resets
        // it) or, when the input is present everywhere, its row count.
        let histogram_only = step.filtered.is_empty() && !p.rehash_left;
        step.per_node_probe.clear();
        match (histogram_only, p.left_everywhere) {
            (true, false) => step.per_node_probe.extend_from_slice(&step.per_node_out),
            (true, true) => step.per_node_probe.resize(p.groups, inter.rows),
            (false, _) => step.per_node_probe.resize(p.groups, 0),
        }

        let keep_right = carried.contains(&right_slot);
        build_row.clear();
        build_next.clear();
        build_weight.clear();
        self.build_col(at, p, step, inter.rows > 0, |r, b| {
            let Some(keys) = fold_keys else {
                if keep_right {
                    build_next.push(std::mem::replace(&mut b.head, build_row.len() as u32));
                    build_row.push(r);
                }
                return;
            };
            if b.head == u32::MAX {
                b.head = build_weight.len() as u32;
                build_weight.resize(build_weight.len() + width, 0);
            }
            let sums = (build_weight.iter_mut().skip(b.head as usize)).take(width);
            for (g, sum) in sums.enumerate() {
                let matches = folded.join_keys.get(&(keys[r as usize], g as u8));
                *sum += matches.map_or(0, |m| m.count as u64);
            }
        });

        // Probe: intermediate rows in index order, each at the group it was
        // placed on — or at every group when it is present everywhere. A hit
        // is `count` output rows at that group; only carried columns are
        // written, as runs of one repeated value except the right table's.
        let left_at = match (p.rehash_left, p.left_everywhere) {
            (true, _) => Some(&step.new_left),
            (false, true) => None,
            (false, false) => Some(&inter.node),
        };
        let count_only = carried.is_empty();
        let mut probe = |i: usize, key: u64, g: usize| {
            step.per_node_probe[g] += 1;
            let group = if p.right_everywhere { 0 } else { g as u8 };
            let Some(b) = step.join_keys.get(&(key, group)) else {
                return;
            };
            let count = b.count as usize;
            step.per_node_out[g] += count;
            // The folded step probes these rows where they are (at each of
            // its groups when they are everywhere) and outputs their weight.
            if fold.is_some() {
                let tallies = (folded.per_node_probe.iter_mut()).zip(&mut folded.per_node_out);
                let probed = (tallies.enumerate()).filter(|(gb, _)| p.both_everywhere || *gb == g);
                for (gb, (probes, out)) in probed {
                    *probes += count;
                    let weight = build_weight.get(b.head as usize + gb % width);
                    *out += weight.copied().unwrap_or(0) as usize;
                }
                return;
            }
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
        if !histogram_only {
            for (i, key) in self.left_keys(query, at, inter).enumerate() {
                match left_at {
                    Some(at) => at.get(i).iter().for_each(|&&g| probe(i, key, g as usize)),
                    None => (0..p.groups).for_each(|g| probe(i, key, g)),
                }
            }
        }

        let charged = (self.charge_col(query, step, p), p.bytes);
        let fold_charged = fold.map(|(_, pb)| (self.charge_col(query, folded, pb), pb.bytes));
        next.bytes_per_row = inter.bytes_per_row + self.schema.table(right_table).row_bytes as f64;
        if let Some((b, pb)) = fold {
            next.bytes_per_row += self.schema.table(b.0.table).row_bytes as f64;
            next.replicated = pb.both_everywhere;
            std::mem::swap(step, folded);
        }
        next.rows = step.per_node_out.iter().sum();
        (charged, fold_charged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, EngineProfile, HardwareProfile};
    use lpa_schema::AttrId;

    const ARMS: [JoinStrategy; 7] = [
        JoinStrategy::ReplicatedSide,
        JoinStrategy::CoLocated,
        JoinStrategy::Broadcast { table_side: true },
        JoinStrategy::Broadcast { table_side: false },
        JoinStrategy::DirectedRepartition { table_side: true },
        JoinStrategy::DirectedRepartition { table_side: false },
        JoinStrategy::SymmetricRepartition,
    ];

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
        carried_with(query, plan, &[], at)
    }

    fn carried_with(query: &Query, plan: &QueryPlan, empty: &[bool], at: usize) -> Vec<usize> {
        let mut out = vec![99];
        carried_slots(query, plan, empty, at, &mut out);
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

    #[test]
    fn carrying_stops_at_the_first_step_that_matches_nothing() {
        // Chain 0-1-2-3-4-5 whose step 3 (table 4) keeps no filtered row.
        let chain: Vec<(usize, usize)> = (0..5).map(|k| (k, k + 1)).collect();
        let (query, mut plan) = plan_of(6, &chain);
        let empty = [false, false, false, true, false];
        assert_eq!(carried_with(&query, &plan, &empty, 0), [1, 2]);
        assert!(carried_with(&query, &plan, &empty, 2).is_empty());
        // No row reaches the steps from the empty one on; what they would
        // carry is beside the point, and unchanged.
        assert_eq!(carried_with(&query, &plan, &empty, 3), [4]);
        // The first empty step is where carrying stops.
        let twice = [false, true, false, true, false];
        assert!(carried_with(&query, &plan, &twice, 0).is_empty());
        assert_eq!(carried_with(&query, &plan, &twice, 1), [2]);
        // The empty step reads its left keys only to re-hash them.
        for strategy in ARMS {
            plan.steps[3].strategy = strategy;
            let rehashes = matches!(
                strategy,
                JoinStrategy::DirectedRepartition { table_side: false }
                    | JoinStrategy::SymmetricRepartition
            );
            let want: &[usize] = if rehashes { &[1, 2, 3] } else { &[1, 2] };
            assert_eq!(carried_with(&query, &plan, &empty, 0), want, "{strategy:?}");
            let before = carried_with(&query, &plan, &empty, 2);
            assert_eq!(before.is_empty(), !rehashes, "{strategy:?}");
        }
    }

    /// The fold's conditions, each negated once, on a chain whose count-only
    /// last step keys on the right table of the step before it.
    #[test]
    fn a_count_only_step_folds_only_when_every_condition_holds() {
        let fold_at = |query: &Query, plan: &QueryPlan, empty: &[bool], at: usize| {
            let mut carried = vec![99];
            let folded = folds(query, plan, empty, at, &mut carried).map(|(b, _)| b.table);
            (folded, carried)
        };
        let (query, mut plan) = plan_of(3, &[(0, 1), (1, 2)]);
        let none_empty = [false; 2];
        assert_eq!(
            fold_at(&query, &plan, &none_empty, 0),
            (Some(TableId(2)), vec![1])
        );
        // Nothing follows the last step.
        assert_eq!(fold_at(&query, &plan, &none_empty, 1), (None, vec![]));
        // Not count-only: a third step reads the second's output.
        let (longer, longer_plan) = plan_of(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(
            fold_at(&longer, &longer_plan, &[false; 3], 0),
            (None, vec![1, 2])
        );
        assert!(fold_at(&longer, &longer_plan, &[false; 3], 1).0.is_some());
        // Keyed on the seed table, not on the first step's right table; a
        // count-only step keyed on it leaves that the only carried slot.
        let (star, star_plan) = plan_of(3, &[(0, 1), (0, 2)]);
        assert_eq!(fold_at(&star, &star_plan, &none_empty, 0), (None, vec![0]));
        // Either right side keeps no row.
        for empty in [[true, false], [false, true]] {
            assert_eq!(fold_at(&query, &plan, &empty, 0).0, None, "{empty:?}");
        }
        // It re-hashes or broadcasts its input.
        for strategy in ARMS {
            plan.steps[1].strategy = strategy;
            let moves_input = matches!(
                strategy,
                JoinStrategy::Broadcast { table_side: false }
                    | JoinStrategy::DirectedRepartition { table_side: false }
                    | JoinStrategy::SymmetricRepartition
            );
            let folded = fold_at(&query, &plan, &none_empty, 0).0.is_some();
            assert_eq!(folded, !moves_input, "{strategy:?}");
        }
    }

    /// ISSUE 19: six joins on fresh arenas — only the carried slots (and the
    /// seed's) of the double-buffered intermediates ever get memory, and not
    /// those of a step a count-only one folds into: `region` keys on
    /// `nation`, the one slot the `nation` step carries, so that step writes
    /// no row and the `nation` slot gets no memory.
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
        let mut folded_into = Vec::new();
        let nothing_empty = vec![false; plan.steps.len()];
        for at in 0..plan.steps.len() {
            if folds(&query, &plan, &nothing_empty, at, &mut Vec::new()).is_some() {
                folded_into.push(slot_of(&query, plan.steps[at].table));
            }
            carried.extend(carried_at(&query, &plan, at));
        }
        let nation = slot_of(&query, schema.table_by_name("nation").expect("nation"));
        assert_eq!(folded_into, [nation]);
        assert!(carried.contains(&nation));
        carried.retain(|s| !folded_into.contains(s));
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

    /// ISSUE 28: TPC-CH `ch_q07` on fresh arenas, at a scale where the
    /// filter on `nation`, a later right side, keeps no row. Nothing reads
    /// past that step, so the slots the steps after it take their keys from
    /// never get memory, and the step before it only counts its rows.
    #[test]
    fn slots_past_an_empty_build_side_acquire_no_capacity() {
        let schema = lpa_schema::tpcch::schema(0.0015).expect("schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let query = (workload.queries().iter())
            .find(|q| q.name == "ch_q07")
            .expect("ch_q07");
        let nation = schema.table_by_name("nation").expect("nation");
        let config = ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard());
        let mut cluster = Cluster::new(schema.clone(), config);
        let got = cluster.run_query(query, None);
        let naive = || Cluster::new(schema.clone(), config).run_query(query, None);
        assert_eq!(got, crate::with_naive_executor(naive));

        let optimizer = crate::OptimizerEstimator::new(config.engine, config.hardware);
        let plan = optimizer.plan(&schema, query, cluster.deployed(), 0);
        let empty = cluster
            .substrate()
            .with_scratch(|scratch| scratch.empty.clone());
        let nation_only: Vec<bool> = plan.steps.iter().map(|s| s.table == nation).collect();
        assert_eq!(empty, nation_only);
        let at_empty = empty
            .iter()
            .position(|&e| e)
            .expect("nation is a right side");
        assert!(
            0 < at_empty && at_empty + 1 < plan.steps.len(),
            "{at_empty}"
        );
        let mut carried = vec![slot_of(query, plan.start_table.expect("a join plan"))];
        let mut carried_before = carried.clone();
        for at in 0..at_empty {
            carried.extend(carried_with(query, &plan, &empty, at));
            carried_before.extend(carried_at(query, &plan, at));
        }
        // Without the empty side these slots would have held rows.
        assert!(carried_before.iter().any(|s| !carried.contains(s)));
        assert!(carried_with(query, &plan, &empty, at_empty - 1).is_empty());
        cluster.substrate().with_scratch(|scratch| {
            for s in 0..query.tables.len() {
                let held = scratch.cur.slots[s].capacity() + scratch.next.slots[s].capacity();
                assert_eq!(held > 0, carried.contains(&s), "slot {s} holds {held}");
            }
            assert_eq!(scratch.cur.rows, 0);
        });
    }

    /// TPC-CH `ch_q07` on a plan forced to start at `orderline`: step 0
    /// joins `stock` on the item id, many to many, and step 1, `supplier`
    /// on the stock row, only counts, because `nation` after it keeps no row.
    /// Step 1 folds into step 0, so step 0's output is never written: only
    /// the seed slot gets memory, and all the arenas together stay below one
    /// `u32` column of that output. Without input rows nothing folds, and
    /// neither build table hashes a row.
    #[test]
    fn a_folded_many_to_many_step_writes_no_row() {
        let schema = lpa_schema::tpcch::schema(0.001).expect("schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let mut query = (workload.queries().iter())
            .find(|q| q.name == "ch_q07")
            .expect("ch_q07")
            .clone();
        let table = |name: &str| schema.table_by_name(name).expect(name);
        let join_of = |left: TableId, right: TableId| {
            let joins = |j: &JoinPred| {
                let (a, b) = j.pairs[0];
                [(a.table, b.table), (b.table, a.table)].contains(&(left, right))
            };
            query.joins.iter().position(joins).expect("a join")
        };
        let broadcast = JoinStrategy::Broadcast { table_side: true };
        let steps = [
            ("orderline", "stock", broadcast),
            ("stock", "supplier", broadcast),
            ("supplier", "nation", broadcast),
            (
                "orderline",
                "order",
                JoinStrategy::DirectedRepartition { table_side: false },
            ),
            ("order", "customer", broadcast),
        ];
        let step = |(left, right, strategy): (&str, &str, JoinStrategy)| PlanStep {
            join_index: join_of(table(left), table(right)),
            table: table(right),
            strategy,
            out_rows: 0.0,
            net_seconds: 0.0,
            cpu_seconds: 0.0,
        };
        let plan = QueryPlan {
            start_table: Some(table("orderline")),
            steps: steps.into_iter().map(step).collect(),
            ..QueryPlan::default()
        };
        let (engine, hw) = (EngineProfile::pgxl(), HardwareProfile::standard());
        let db = crate::Database::generate(&schema, 0x29);
        let initial = lpa_partition::Partitioning::initial(&schema);
        let layouts: Vec<Layout> = (0..schema.tables().len())
            .map(|t| {
                let state = initial.table_state(TableId(t));
                crate::executor::layout_table(&db, &engine, hw.nodes, TableId(t), state)
            })
            .collect();
        let faults = crate::FaultState::nominal(hw.nodes);
        let exec = Executor {
            schema: &schema,
            db: &db,
            engine: &engine,
            hw: &hw,
            layouts: &layouts,
            faults: &faults,
        };
        let step0 = QueryPlan {
            steps: plan.steps[..1].to_vec(),
            ..plan.clone()
        };
        let blow_up = exec
            .execute(&query, &step0, None)
            .expect("no budget")
            .output_rows;
        assert!(
            blow_up > 50 * schema.table(table("orderline")).rows,
            "{blow_up}"
        );

        let mut scratch = ExecScratch::default();
        let got = exec.execute_with(&query, &plan, None, &mut scratch);
        assert_eq!(got, exec.execute_naive(&query, &plan, None));
        assert_eq!(scratch.empty, [false, false, true, false, false]);
        let seed = slot_of(&query, table("orderline"));
        for s in 0..query.tables.len() {
            let held = scratch.cur.slots[s].capacity() + scratch.next.slots[s].capacity();
            assert_eq!(held > 0, s == seed, "slot {s} holds {held}");
        }
        let column = blow_up as usize * std::mem::size_of::<u32>();
        assert!(
            scratch.capacity_bytes() < column,
            "{} B",
            scratch.capacity_bytes()
        );

        let orderline = slot_of(&query, table("orderline"));
        query.selectivity[orderline] = 0.0;
        let mut scratch = ExecScratch::default();
        let got = exec.execute_with(&query, &plan, None, &mut scratch);
        assert_eq!(got, exec.execute_naive(&query, &plan, None));
        let hashed = scratch.step.join_keys.capacity() + scratch.fold.join_keys.capacity();
        assert_eq!(hashed, 0);
    }
}
