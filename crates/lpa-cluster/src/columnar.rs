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
//! * **one build table per step**, keyed by `(join key, group)` (group 0
//!   when the right side is present everywhere), hashed by one SplitMix64
//!   round ([`KeyHasher`]) and probed in one pass over the intermediate in
//!   index order; build rows are chained through an arena (`build_row` /
//!   `build_next`) only when the right table's ids are carried;
//! * **a count-only suffix** ([`suffix_head`]) — the plan's longest tail in
//!   which every step after the first (the head) keeps its input where the
//!   step before put it (no re-hash, no broadcast) and keys on that step's
//!   right table or has an empty one, or comes after a step whose right
//!   table keeps no row (its input then has none). The steps before the
//!   head write their output: a row count, a `node` column, a node
//!   histogram and the base-row ids of just the slots the steps up to the
//!   head take their left keys from ([`carried_slots`]). The suffix writes
//!   no row. Its tables are built last to first, and each build entry
//!   carries in `build_weight`, for every later suffix step and every group
//!   that step probes the entry's rows in, how many of that step's output
//!   rows they lead to: the next step's matches plus those matches' own
//!   weights. The head probes its input once; a hit adds the entry's count
//!   to the head's output and its weights to the later steps' outputs, and
//!   each later step's probes are the previous step's output histogram (or
//!   its row count at every group when that output is everywhere). A right
//!   table without rows builds no entry, so it weighs nothing. A head with
//!   one that does not re-hash its input probes nothing: it reads only its
//!   input's histogram, and the step before it carries no slot for it. A
//!   step without input rows hashes nothing. A last step alone is a suffix
//!   of length one.
//!
//! Output rows therefore come out probe-major (and, within one probe row's
//! matches, newest build row first) where the naive path merges them
//! group-major, and most provenance columns never exist. No charged quantity
//! can tell: each is either a per-node integer count (build / probe / output
//! rows, node histograms, weights — sums of match counts) or an `f64` sum of
//! one constant per moved row, and that constant is integer-valued
//! (`Table::row_bytes: u64` and sums of it), so every partial sum is an
//! integer below 2^53 — exact, whatever order the rows are visited in. It
//! is the premise `executor.rs` states for its own group-ordered merge. The
//! hash table is never iterated, so its order cannot leak either.
//!
//! Bit-exactness contract (DESIGN.md §13): every `f64` accumulation below
//! is the same expression, in the same order, as `execute_naive`; the
//! differential harness ([`crate::with_naive_executor`], plus the
//! property/chaos suites) proves `execute` == `execute_naive` bit-for-bit
//! across fault storms and thread counts.
//!
//! Steady-state execution runs on the reused [`ExecScratch`] arenas;
//! `tests/alloc_counts.rs` (rule L013) pins the allocations of a warm
//! `execute_with`, callees included.

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

/// The build rows sharing one `(join key, group)`: how many, and where
/// their chain starts in the arena when the right table's ids are carried
/// — or, in a suffix step a later one matches, their weights.
#[derive(Clone, Copy, Debug)]
struct Build {
    head: u32,
    count: u32,
}

/// A plan step with the join it applies.
type Step<'p> = (&'p PlanStep, &'p JoinPred);

/// One join step's right side, exchange, build table and per-group tallies.
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
    /// Where the exchange put both sides. The input was re-hashed into
    /// `new_left`; a side is everywhere when replicated or broadcast.
    rehash_left: bool,
    left_everywhere: bool,
    right_everywhere: bool,
    both_everywhere: bool,
    /// Join groups: one when both sides are everywhere, else one per node.
    groups: usize,
    shuffled: bool,
    /// Total bytes the exchange moved.
    bytes: f64,
    /// The step's build table.
    join_keys: HashMap<(u64, u8), Build, BuildHasherDefault<KeyHasher>>,
    /// Weights each build entry carries: one per group of every later suffix
    /// step that can output a row (0 when the next step's table has none).
    width: usize,
    /// Per-group work columns for the straggler maxima.
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

    fn live_bytes(&self) -> usize {
        size_of_val(self.filtered.as_slice())
            + size_of_val(self.right_at.as_slice())
            + size_of_val(self.new_left.as_slice())
            + size_of_val(self.net_bytes.as_slice())
            + self.join_keys.len() * std::mem::size_of::<((u64, u8), Build)>()
            + size_of_val(self.per_node_build.as_slice())
            + size_of_val(self.per_node_probe.as_slice())
            + size_of_val(self.per_node_out.as_slice())
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
    /// Home node per row; empty when `replicated` and when no slot is
    /// carried.
    node: Vec<u8>,
    /// Rows per group: the histogram of `node`, kept even when `node` is
    /// not, or all rows in one group when `replicated`.
    hist: Vec<usize>,
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
        self.hist.clear();
        self.replicated = false;
        self.bytes_per_row = 0.0;
    }

    fn rows(&self) -> usize {
        self.hist.iter().sum()
    }

    fn capacity_bytes(&self) -> usize {
        vec_bytes(&self.slots)
            + self.slots.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.node)
            + vec_bytes(&self.hist)
    }

    fn live_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| size_of_val(s.as_slice()))
            .sum::<usize>()
            + size_of_val(self.node.as_slice())
            + size_of_val(self.hist.as_slice())
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Reusable buffers for the columnar executor. A substrate keeps a small
/// pool of them, one per concurrent caller; every query and join step
/// reuses the same arenas, so steady-state execution performs no heap
/// allocation once the buffers have grown to the workload's high-water
/// mark.
#[derive(Clone, Debug, Default)]
pub struct ExecScratch {
    /// The step being executed and, when it heads the count-only suffix,
    /// the steps after it, in plan order.
    steps: Vec<StepCols>,
    /// Slots the step being executed must carry ([`carried_slots`]).
    carried: Vec<usize>,
    /// Per plan step: no row of its right table survives the filter.
    empty: Vec<bool>,
    /// The build table's row chains, or the suffix's weights per entry.
    build_row: Vec<u32>,
    build_next: Vec<u32>,
    build_weight: Vec<u64>,
    /// Output rows per group of every step in `steps`, one after another.
    tally: Vec<u64>,
    /// Double-buffered intermediates (swapped after each join step).
    cur: ColInter,
    next: ColInter,
    /// The most bytes the last execution held live in these arenas at the
    /// end of any of its join steps: lengths, not capacities, so it does
    /// not depend on what ran on the arenas before.
    pub(crate) peak_bytes: usize,
}

impl ExecScratch {
    /// Heap bytes the arenas currently hold (capacity, not length): the
    /// high-water mark of everything executed on this scratch so far.
    pub fn capacity_bytes(&self) -> usize {
        let steps: usize = self.steps.iter().map(StepCols::capacity_bytes).sum();
        vec_bytes(&self.steps)
            + steps
            + vec_bytes(&self.carried)
            + vec_bytes(&self.empty)
            + vec_bytes(&self.build_row)
            + vec_bytes(&self.build_next)
            + vec_bytes(&self.build_weight)
            + vec_bytes(&self.tally)
            + self.cur.capacity_bytes()
            + self.next.capacity_bytes()
    }

    /// Record what the arenas hold after a join step that left `ran`
    /// steps' exchanges in `steps`.
    fn note_live_bytes(&mut self, ran: usize) {
        let steps: usize = self.steps.iter().take(ran).map(StepCols::live_bytes).sum();
        let live = steps
            + size_of_val(self.carried.as_slice())
            + size_of_val(self.empty.as_slice())
            + size_of_val(self.build_row.as_slice())
            + size_of_val(self.build_next.as_slice())
            + size_of_val(self.build_weight.as_slice())
            + size_of_val(self.tally.as_slice())
            + self.cur.live_bytes()
            + self.next.live_bytes();
        self.peak_bytes = self.peak_bytes.max(live);
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

/// `plan.steps[at]` with its join, when the query has it (the naive path
/// skips a step that names no join).
fn joined<'p>(query: &'p Query, plan: &'p [PlanStep], at: usize) -> Option<Step<'p>> {
    let step = plan.get(at)?;
    Some((step, query.joins.get(step.join_index)?))
}

/// Where the count-only suffix starts (module docs): the last step that
/// does not follow the one before it. Step `k` follows step `k - 1` when
/// both have a join and either some step before `k` has an `empty` right
/// table, or `k` keeps its input where `k - 1` put it and keys on `k - 1`'s
/// right table or has an empty one. Every step after the head has a join.
fn suffix_head(query: &Query, plan: &QueryPlan, empty: &[bool]) -> usize {
    let follows = |k: usize| {
        let (before, _) = joined(query, &plan.steps, k.checked_sub(1)?)?;
        let (step, join) = joined(query, &plan.steps, k)?;
        let (ship_left, _, rehash_left, _) = exchange(step.strategy);
        let keyed = oriented(join, step.table).0.table == before.table;
        let is_empty = |at: usize| empty.get(at) == Some(&true);
        Some((0..k).any(is_empty) || !ship_left && !rehash_left && (keyed || is_empty(k)))
    };
    let steps = 0..plan.steps.len();
    steps.rev().find(|&k| follows(k) != Some(true)).unwrap_or(0)
}

/// The slots of `query.tables` whose base-row ids the output of
/// `plan.steps[at]` must carry: those the steps after it, up to the head of
/// the suffix, take their left join keys from. None from the head on. The
/// head reads its keys only to re-hash them or to probe a right table that
/// is not `empty`; otherwise its probes are its input's histogram.
fn carried_slots(query: &Query, plan: &QueryPlan, empty: &[bool], at: usize, out: &mut Vec<usize>) {
    out.clear();
    let head = suffix_head(query, plan, empty);
    let rehashes = plan.steps.get(head).is_some_and(|s| exchange(s.strategy).2);
    let keyed = head + usize::from(rehashes || empty.get(head) != Some(&true));
    for (step, join) in (at + 1..keyed).filter_map(|k| joined(query, &plan.steps, k)) {
        let slot = slot_of(query, oriented(join, step.table).0.table);
        if !out.contains(&slot) {
            out.push(slot);
        }
    }
}

/// One probe hit of `entry` at group `g` of the step `side`, added to
/// `into`, laid out as that step's output groups and then as the entry's
/// weights: those of every group when the step's output is everywhere,
/// else those of `g` (every later step then has one group per node).
fn add_hit(into: &mut [u64], side: &StepCols, g: usize, entry: Build, weights: &[u64], n: usize) {
    if let Some(out) = into.get_mut(g) {
        *out += entry.count as u64;
    }
    let block = weights
        .get(entry.head as usize..)
        .and_then(|w| w.get(..side.width));
    // `g` is 0 when the output is everywhere: then it has one group.
    let stride = if side.both_everywhere { 1 } else { n };
    let later = into.iter_mut().skip(side.groups + g).step_by(stride);
    for (out, w) in later.zip(block.into_iter().flatten().skip(g).step_by(stride)) {
        *out += w;
    }
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
        scratch.peak_bytes = 0;
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
            let (rows, keep) = self.row_filter(query, t);
            let rows = keep.map_or(rows.len(), |keep| rows.filter(keep).count()) as f64;
            let share = self.max_shard_fraction_col(t);
            seconds += rows * share * self.hw.cpu_tuple_cost * query.cpu_factor;
            return Some(ExecResult {
                seconds,
                output_rows: rows as u64,
                bytes_shuffled,
            });
        }

        let empty = &mut scratch.empty;
        empty.clear();
        for step in &plan.steps {
            let joins = query.joins.get(step.join_index).is_some();
            empty.push(joins && !self.has_filtered_row(query, step.table));
        }
        let head = suffix_head(query, plan, empty);
        let start = plan.start_table.unwrap_or(query.tables[0]);
        self.seed_inter_col(query, start, &mut scratch.cur);

        // The steps before the head one at a time, then the head with the
        // steps that follow it; each step's charge and budget check in plan
        // order.
        for (at, step) in (0..=head).filter_map(|at| Some((at, joined(query, &plan.steps, at)?))) {
            let followers = plan.steps.get(at + 1..).filter(|_| at == head);
            carried_slots(query, plan, &scratch.empty, at, &mut scratch.carried);
            let ran = self.join_step_col(query, step, followers.unwrap_or_default(), scratch);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            scratch.note_live_bytes(ran);
            for side in scratch.steps.iter().take(ran) {
                seconds += self.charge_col(query, side);
                bytes_shuffled += side.bytes;
                if over(seconds, budget) {
                    return None;
                }
            }
        }

        let out_rows = scratch.cur.rows();
        let agg_share = if scratch.cur.replicated {
            1.0
        } else {
            self.max_node_fraction_col(&scratch.cur.hist, out_rows)
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
    /// when it keeps them all), shared by the readers below.
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

    /// Columnar twin of the naive `seed_inter`, node histogram included.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their own table's columns; layouts holds one slot per table"
    )]
    fn seed_inter_col(&self, query: &Query, start: TableId, cur: &mut ColInter) {
        cur.reset(query.tables.len());
        cur.bytes_per_row = self.schema.table(start).row_bytes as f64;
        let rows = &mut cur.slots[slot_of(query, start)];
        self.filtered_rows_into(query, start, rows);
        cur.replicated = matches!(self.layouts[start.0], Layout::Replicated);
        match &self.layouts[start.0] {
            Layout::Replicated => cur.hist.push(rows.len()),
            Layout::Hashed { node, .. } => {
                cur.hist.resize(self.hw.nodes, 0);
                for &r in rows.iter() {
                    let home = node[r as usize];
                    cur.node.push(home);
                    if let Some(count) = cur.hist.get_mut(home as usize) {
                        *count += 1;
                    }
                }
            }
        }
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
    fn exchange_col(&self, query: &Query, at: Step, inter: &ColInter, side: &mut StepCols) {
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
                inter.rows() as f64 * inter.bytes_per_row
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
        side.rehash_left = rehash_left;
        side.left_everywhere = !rehash_left && (inter.replicated || ship_left);
        side.right_everywhere = !rehash_right && (right_replicated || ship_right);
        side.both_everywhere = side.left_everywhere && side.right_everywhere;
        side.groups = if side.both_everywhere { 1 } else { n };
        side.shuffled = ship_left || ship_right || rehash_left || rehash_right;
        side.bytes = total_bytes;
    }

    /// Build: one table for the whole step. A right side present everywhere
    /// builds once under group 0 and counts for every group. Unless `hash`
    /// (no input row reaches the step), no row is hashed; `entry` sees every
    /// hashed row with its group and entry.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their own table's columns"
    )]
    fn build_col(
        &self,
        at: Step,
        side: &mut StepCols,
        hash: bool,
        mut entry: impl FnMut(u32, u8, &mut Build),
    ) {
        let right_key = oriented(at.1, at.0.table).1;
        let right_col = self.db.column(at.0.table, right_key.attr);
        side.per_node_build.clear();
        side.per_node_build.resize(side.groups, 0);
        side.join_keys.clear();
        for (j, &r) in side.filtered.iter().enumerate() {
            let at_node = side.right_at.get(j).filter(|_| !side.right_everywhere);
            let group = at_node.copied().unwrap_or(0);
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
                entry(r, group, b);
            }
        }
        if side.right_everywhere {
            side.per_node_build.fill(side.filtered.len());
        }
    }

    /// A step's time: the exchange's overhead and slowest receiver, then
    /// the slowest group's build + probe + output rows — the naive
    /// expressions, folded in node-index order.
    fn charge_col(&self, query: &Query, side: &StepCols) -> f64 {
        let mut seconds = 0.0;
        if side.shuffled {
            seconds += self.engine.shuffle_overhead;
            let max_in = (side.net_bytes.iter().enumerate())
                .map(|(node, &b)| b * self.node_net_mult(node))
                .fold(0.0, f64::max);
            seconds += max_in / self.hw.net_bandwidth;
        }
        let work = (side.per_node_build.iter())
            .zip(&side.per_node_probe)
            .zip(&side.per_node_out);
        let first_up = side.both_everywhere.then(|| self.faults.first_up());
        let max_work = (work.enumerate())
            .map(|(g, ((build, probe), out))| {
                (build + probe + out) as f64 * self.node_work_mult(first_up.unwrap_or(g))
            })
            .fold(0.0, f64::max);
        seconds += max_work * self.hw.cpu_tuple_cost * query.cpu_factor;
        seconds
    }

    /// Columnar twin of the naive `join_step`, run for `at` and the suffix
    /// steps `followers` after it (none for a step before the suffix's
    /// head). Reads `scratch.cur`; builds the steps' tables last to first,
    /// each entry weighing what its rows lead to in the later steps (module
    /// docs); probes `cur` once and writes the `scratch.carried` slots of
    /// `scratch.next` (the caller swaps). Leaves each step's exchange and
    /// tallies in `scratch.steps`, in plan order, and returns their number.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: row ids index their table's columns; slot vectors share the intermediate's length"
    )]
    fn join_step_col(
        &self,
        query: &Query,
        at: Step,
        followers: &[PlanStep],
        scratch: &mut ExecScratch,
    ) -> usize {
        let ExecScratch {
            steps,
            carried,
            build_row,
            build_next,
            build_weight,
            tally,
            cur: inter,
            next,
            ..
        } = scratch;
        let n = self.hw.nodes;
        let step_of = |i: usize| match i {
            0 => Some(at),
            _ => joined(query, followers, i - 1),
        };
        let len = followers.len() + 1;
        steps.resize_with(steps.len().max(len), Default::default);
        // Entries past `len` hold an earlier query's steps.
        let steps = &mut steps[..len];

        // Exchanges in plan order. A follower keeps its input where the step
        // before put it, or has no input row: all it reads of that input is
        // whether it is everywhere.
        next.reset(query.tables.len());
        for (i, (side, step)) in steps
            .iter_mut()
            .zip((0..len).filter_map(step_of))
            .enumerate()
        {
            let input = if i == 0 { &*inter } else { &*next };
            self.exchange_col(query, step, input, side);
            next.replicated = side.both_everywhere;
        }

        // Builds last to first. The next step's matches weigh this step's
        // entries when it has any (then it keys on this step's right table).
        let right_slot = slot_of(query, at.0.table);
        let keep_right = carried.contains(&right_slot);
        build_row.clear();
        build_next.clear();
        build_weight.clear();
        for (i, step) in (0..len).rev().filter_map(|i| Some((i, step_of(i)?))) {
            let reached = inter.rows() > 0 && steps.iter().take(i).all(|s| !s.filtered.is_empty());
            let ([.., side], later) = steps.split_at_mut(i + 1) else {
                continue;
            };
            let weigh = (later.first().filter(|f| !f.join_keys.is_empty())).zip(step_of(i + 1));
            side.width = weigh.map_or(0, |(f, _)| f.groups + f.width);
            let keys = weigh.map(|(_, (s, join))| oriented(join, s.table).0);
            let keys = keys.map(|left| self.db.column(left.table, left.attr));
            let width = side.width;
            let every_group = side.both_everywhere || side.right_everywhere;
            self.build_col(step, side, reached, |r, group, b| {
                let (Some((f, _)), Some(keys)) = (weigh, keys) else {
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
                let (earlier, block) = build_weight.split_at_mut(b.head as usize);
                let block = &mut block[..width];
                let key = keys[r as usize];
                // The groups the next step probes this entry's rows in.
                for g in (0..f.groups).filter(|&g| every_group || g == group as usize) {
                    let lookup = if f.right_everywhere { 0 } else { g as u8 };
                    if let Some(&e) = f.join_keys.get(&(key, lookup)) {
                        add_hit(block, f, g, e, earlier, n);
                    }
                }
            });
        }

        // Probe: intermediate rows in index order, each at the group it was
        // placed on — or at every group when it is present everywhere. A hit
        // is `count` output rows at that group and its weights at the later
        // steps; only carried columns are written, as runs of one repeated
        // value except the right table's. An empty table is not probed.
        tally.clear();
        tally.resize(steps.iter().map(|s| s.groups).sum(), 0);
        let side = &steps[0];
        let left_at = match (side.rehash_left, side.left_everywhere) {
            (true, _) => Some(&side.new_left),
            (false, true) => None,
            (false, false) => Some(&inter.node),
        };
        let probed = (!side.join_keys.is_empty()).then(|| self.left_keys(query, at, inter));
        for (i, key) in probed.into_iter().flatten().enumerate() {
            let groups = match left_at {
                Some(placed) => placed.get(i).map_or(0..0, |&g| g as usize..g as usize + 1),
                None => 0..side.groups,
            };
            for g in groups {
                let lookup = if side.right_everywhere { 0 } else { g as u8 };
                let Some(&b) = side.join_keys.get(&(key, lookup)) else {
                    continue;
                };
                add_hit(tally, side, g, b, build_weight, n);
                let count = b.count as usize;
                if !carried.is_empty() {
                    next.node.resize(next.node.len() + count, g as u8);
                }
                for &s in carried.iter() {
                    let Some(out) = next.slots.get_mut(s) else {
                        continue;
                    };
                    if s == right_slot {
                        let mut idx = b.head as usize;
                        while let (Some(&r), Some(&link)) =
                            (build_row.get(idx), build_next.get(idx))
                        {
                            out.push(r);
                            idx = link as usize;
                        }
                    } else if let Some(&v) = inter.slots[s].get(i) {
                        out.resize(out.len() + count, v);
                    }
                }
            }
        }

        // Each step's output per group, and its probes, from where its
        // exchange left its input rows: re-hashed, at every group, or where
        // the step before put them (the input's histogram for the first).
        let mut outputs = tally.iter().map(|&t| t as usize);
        for i in 0..len {
            let (done, [side, ..]) = steps.split_at_mut(i) else {
                continue;
            };
            side.per_node_out.clear();
            side.per_node_out.extend(outputs.by_ref().take(side.groups));
            let hist = done
                .last()
                .map_or(&inter.hist, |before| &before.per_node_out);
            let probes = &mut side.per_node_probe;
            probes.clear();
            match (side.rehash_left, side.left_everywhere) {
                (true, _) => {
                    probes.resize(side.groups, 0);
                    side.new_left.iter().for_each(|&g| probes[g as usize] += 1);
                }
                (false, true) => probes.resize(side.groups, hist.iter().sum()),
                (false, false) => probes.extend_from_slice(hist),
            }
        }
        next.hist.extend_from_slice(&steps[len - 1].per_node_out);
        // What a later step ships per row; no step reads a suffix's.
        next.bytes_per_row = inter.bytes_per_row + self.schema.table(at.0.table).row_bytes as f64;
        len
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

    fn carried_at(query: &Query, plan: &QueryPlan, empty: &[bool], at: usize) -> Vec<usize> {
        let mut out = vec![99];
        carried_slots(query, plan, empty, at, &mut out);
        out
    }

    fn moves_input(strategy: JoinStrategy) -> bool {
        let (ship_left, _, rehash_left, _) = exchange(strategy);
        ship_left || rehash_left
    }

    /// The seed's slot and those the steps before the suffix's head carry:
    /// on fresh arenas, the only slots that may ever get memory.
    fn written_slots(query: &Query, plan: &QueryPlan, empty: &[bool]) -> Vec<usize> {
        let mut written = vec![slot_of(query, plan.start_table.expect("a join plan"))];
        for at in 0..suffix_head(query, plan, empty) {
            written.extend(carried_at(query, plan, empty, at));
        }
        written
    }

    fn assert_only_written_slots_hold_memory(scratch: &ExecScratch, written: &[usize]) {
        for (s, (cur, next)) in scratch
            .cur
            .slots
            .iter()
            .zip(&scratch.next.slots)
            .enumerate()
        {
            let held = cur.capacity() + next.capacity();
            assert_eq!(held > 0, written.contains(&s), "slot {s} holds {held}");
        }
    }

    /// A TPC-CH query with its optimizer plan on the initial partitioning,
    /// at scale 0.0015, and the cluster that plans it.
    fn tpcch_plan(name: &str) -> (lpa_schema::Schema, Query, QueryPlan, Cluster) {
        let schema = lpa_schema::tpcch::schema(0.0015).expect("schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let query = (workload.queries().iter())
            .find(|q| q.name == name)
            .expect("a TPC-CH query")
            .clone();
        let config = ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard());
        let cluster = Cluster::new(schema.clone(), config);
        let optimizer = crate::OptimizerEstimator::new(config.engine, config.hardware);
        let plan = optimizer.plan(&schema, &query, cluster.deployed(), 0);
        (schema, query, plan, cluster)
    }

    #[test]
    fn a_step_carries_exactly_the_left_key_slots_of_the_steps_after_it() {
        // Chain 0-1-2-3-4-5: step k joins table k+1 on a key of table k, and
        // step 4 heads the suffix, as it re-hashes its input.
        let chain: Vec<(usize, usize)> = (0..5).map(|k| (k, k + 1)).collect();
        let (query, mut plan) = plan_of(6, &chain);
        plan.steps[4].strategy = JoinStrategy::SymmetricRepartition;
        for at in 0..5 {
            let want: Vec<usize> = (at + 1..5).collect();
            assert_eq!(carried_at(&query, &plan, &[], at), want, "chain step {at}");
        }
        // Up to the head only: nothing from the head on.
        plan.steps[4].strategy = JoinStrategy::CoLocated;
        plan.steps[2].strategy = JoinStrategy::SymmetricRepartition;
        assert_eq!(carried_at(&query, &plan, &[], 0), [1, 2]);
        assert!(carried_at(&query, &plan, &[], 2).is_empty());
        // Star on table 0: one carried slot until the count-only last step.
        let (query, mut plan) = plan_of(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(carried_at(&query, &plan, &[], 0), [0]);
        assert_eq!(carried_at(&query, &plan, &[], 2), [0]);
        assert!(carried_at(&query, &plan, &[], 3).is_empty());
        // A step the driver skips (no such join) reads nothing.
        plan.steps[3].join_index = 17;
        assert!(carried_at(&query, &plan, &[], 2).is_empty());
        // No mask, no width limit: 70 tables carry slots past 64.
        let chain: Vec<(usize, usize)> = (0..69).map(|k| (k, k + 1)).collect();
        let (query, mut plan) = plan_of(70, &chain);
        plan.steps[68].strategy = JoinStrategy::SymmetricRepartition;
        assert_eq!(
            carried_at(&query, &plan, &[], 0),
            (1..69).collect::<Vec<_>>()
        );
        assert!(carried_at(&query, &plan, &[], 68).is_empty());
    }

    /// The suffix rule's conditions, each negated once, on a chain whose
    /// every step keys on the right table of the step before it.
    #[test]
    fn a_step_joins_the_suffix_only_when_every_condition_holds() {
        let (query, mut plan) = plan_of(4, &[(0, 1), (1, 2), (2, 3)]);
        let none = [false; 3];
        // Every step follows the one before: the whole plan only counts.
        assert_eq!(suffix_head(&query, &plan, &none), 0);
        // A step that re-hashes or broadcasts its input heads the suffix,
        // and the head may use any arm.
        for strategy in ARMS {
            plan.steps[0].strategy = strategy;
            plan.steps[2].strategy = strategy;
            let head = if moves_input(strategy) { 2 } else { 0 };
            assert_eq!(suffix_head(&query, &plan, &none), head, "{strategy:?}");
        }
        plan.steps[0].strategy = JoinStrategy::CoLocated;
        plan.steps[2].strategy = JoinStrategy::CoLocated;
        // Keyed on the seed, not on the right table of the step before.
        let (fork, fork_plan) = plan_of(4, &[(0, 1), (1, 2), (0, 3)]);
        assert_eq!(suffix_head(&fork, &fork_plan, &none), 2);
        // A step whose join the query lacks neither follows nor is followed.
        plan.steps[1].join_index = 17;
        assert_eq!(suffix_head(&query, &plan, &none), 2);
        plan.steps[1].join_index = 1;
        plan.steps[2].join_index = 17;
        assert_eq!(suffix_head(&query, &plan, &none), 2);
        // No step before the first.
        assert_eq!(suffix_head(&query, &QueryPlan::default(), &[]), 0);
    }

    /// An empty right table: the step with it follows whatever its key, as
    /// long as it keeps its input, and every step after it follows whatever
    /// its key and arm.
    #[test]
    fn every_step_after_an_empty_right_table_follows() {
        // Star on table 0: no step keys on the right table before it.
        let (star, mut plan) = plan_of(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(suffix_head(&star, &plan, &[false; 4]), 3);
        assert_eq!(suffix_head(&star, &plan, &[false, false, false, true]), 2);
        let empty = [false, true, false, false];
        for strategy in ARMS {
            plan.steps[2].strategy = strategy;
            plan.steps[3].strategy = strategy;
            assert_eq!(suffix_head(&star, &plan, &empty), 0, "{strategy:?}");
        }
        // An empty step that moves its input heads the suffix. The step
        // before it carries the slot it re-hashes, and none for one it
        // broadcasts: its probes are its input's histogram.
        for strategy in ARMS {
            plan.steps[1].strategy = strategy;
            let head = if moves_input(strategy) { 1 } else { 0 };
            assert_eq!(suffix_head(&star, &plan, &empty), head, "{strategy:?}");
            let rehashes = usize::from(exchange(strategy).2);
            assert_eq!(carried_at(&star, &plan, &empty, 0).len(), rehashes);
        }
    }

    /// Six joins on fresh arenas — only the carried slots (and the
    /// seed's) of the double-buffered intermediates ever get memory. `ch_q05`
    /// ends `stock` → `supplier` → `nation` → `region`, each keyed on the
    /// right table before it, so the `stock` step heads the suffix (it
    /// broadcasts its input) and the slots that suffix reads get none.
    #[test]
    fn only_carried_slots_of_a_six_join_query_acquire_capacity() {
        let (schema, mut query, plan, _) = tpcch_plan("ch_q05");
        // Only `order` stays filtered, so that every step has rows to carry.
        let order = schema.table_by_name("order").expect("order");
        for (t, sel) in query.tables.iter().zip(query.selectivity.iter_mut()) {
            *sel = if *t == order { 0.03 } else { 1.0 };
        }
        let config = ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard());
        let mut cluster = Cluster::new(schema.clone(), config);
        let got = cluster.run_query(&query, None);
        let naive = || Cluster::new(schema.clone(), config).run_query(&query, None);
        assert_eq!(got, crate::with_naive_executor(naive));

        assert_eq!(plan.steps.len(), 6);
        let head = suffix_head(&query, &plan, &[false; 6]);
        let stock = schema.table_by_name("stock").expect("stock");
        assert_eq!(plan.steps[head].table, stock);
        let written = written_slots(&query, &plan, &[]);
        for name in ["stock", "supplier", "nation"] {
            let slot = slot_of(&query, schema.table_by_name(name).expect(name));
            assert!(!written.contains(&slot), "{name}");
        }
        cluster.substrate().with_scratch(|scratch| {
            assert_only_written_slots_hold_memory(scratch, &written);
            // The suffix wrote no row: what is left is its count.
            assert!(scratch.cur.node.is_empty() && scratch.cur.rows() > 0);
            assert!(scratch.capacity_bytes() > 0);
        });
    }

    /// TPC-CH `ch_q07` on fresh arenas, at a scale where the
    /// filter on `nation`, the second right side, keeps no row. Every step
    /// after it follows, so the suffix starts at the first step and only
    /// the seed's slot gets memory; without the empty side the suffix would
    /// start at the step that re-hashes `orderline`.
    #[test]
    fn slots_past_an_empty_build_side_acquire_no_capacity() {
        let (schema, query, plan, mut cluster) = tpcch_plan("ch_q07");
        let nation = schema.table_by_name("nation").expect("nation");
        let got = cluster.run_query(&query, None);
        let config = ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard());
        let naive = || Cluster::new(schema.clone(), config).run_query(&query, None);
        assert_eq!(got, crate::with_naive_executor(naive));

        let empty = cluster
            .substrate()
            .with_scratch(|scratch| scratch.empty.clone());
        let nation_only: Vec<bool> = plan.steps.iter().map(|s| s.table == nation).collect();
        assert_eq!(empty, nation_only);
        assert_eq!(suffix_head(&query, &plan, &empty), 0);
        let unfiltered = suffix_head(&query, &plan, &vec![false; plan.steps.len()]);
        let rehashed = JoinStrategy::DirectedRepartition { table_side: false };
        assert_eq!(plan.steps[unfiltered].strategy, rehashed);
        let written = written_slots(&query, &plan, &empty);
        assert_eq!(written.len(), 1);
        assert!(written_slots(&query, &plan, &[]).len() > 1);
        cluster.substrate().with_scratch(|scratch| {
            assert_only_written_slots_hold_memory(scratch, &written);
            assert_eq!(scratch.cur.rows(), 0);
        });
    }

    /// TPC-CH `ch_q07` on a plan forced to start at `orderline`: step 0
    /// joins `stock` on the item id, many to many, step 1 `supplier` on the
    /// stock row, step 2 `nation`, which keeps no row, and the two steps
    /// after it follow the empty one. The whole plan is one suffix: only the
    /// seed slot gets memory, and all the arenas together stay below one
    /// `u32` column of step 0's output. Without input rows no table hashes.
    #[test]
    fn a_many_to_many_suffix_head_writes_no_row() {
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
        with_executor(&schema, |exec| {
            let (query, plan) = (&mut query, &plan);
            let step0 = QueryPlan {
                steps: plan.steps[..1].to_vec(),
                ..plan.clone()
            };
            let blow_up = exec
                .execute(query, &step0, None)
                .expect("no budget")
                .output_rows;
            assert!(
                blow_up > 50 * schema.table(table("orderline")).rows,
                "{blow_up}"
            );

            let mut scratch = ExecScratch::default();
            let got = exec.execute_with(query, plan, None, &mut scratch);
            assert_eq!(got, exec.execute_naive(query, plan, None));
            assert_eq!(scratch.empty, [false, false, true, false, false]);
            assert_eq!(suffix_head(query, plan, &scratch.empty), 0);
            let written = written_slots(query, plan, &scratch.empty);
            assert_only_written_slots_hold_memory(&scratch, &written);
            let column = blow_up as usize * std::mem::size_of::<u32>();
            assert!(
                scratch.capacity_bytes() < column,
                "{} B",
                scratch.capacity_bytes()
            );

            let orderline = slot_of(query, table("orderline"));
            query.selectivity[orderline] = 0.0;
            let mut scratch = ExecScratch::default();
            let got = exec.execute_with(query, plan, None, &mut scratch);
            assert_eq!(got, exec.execute_naive(query, plan, None));
            let hashed: usize = scratch.steps.iter().map(|s| s.join_keys.capacity()).sum();
            assert_eq!((scratch.steps.len(), hashed), (5, 0));
        });
    }

    /// Runs `f` on an executor over `schema`'s generated database at the
    /// initial partitioning, without faults.
    fn with_executor<R>(schema: &lpa_schema::Schema, f: impl FnOnce(&Executor) -> R) -> R {
        let (engine, hw) = (EngineProfile::pgxl(), HardwareProfile::standard());
        let db = crate::Database::generate(schema, 0x29);
        let initial = lpa_partition::Partitioning::initial(schema);
        let layouts: Vec<Layout> = (0..schema.tables().len())
            .map(|t| {
                let state = initial.table_state(TableId(t));
                crate::executor::layout_table(&db, &engine, hw.nodes, TableId(t), state)
            })
            .collect();
        let faults = crate::FaultState::nominal(hw.nodes);
        f(&Executor {
            schema,
            db: &db,
            engine: &engine,
            hw: &hw,
            layouts: &layouts,
            faults: &faults,
        })
    }

    /// TPC-CH `ch_q09` with `stock` filtered empty. Its step broadcasts its
    /// input, so it still heads the suffix, but it has no table to probe:
    /// it reads its input's histogram only, and the step before it, the
    /// last of the prefix, counts its output without writing a row.
    #[test]
    fn the_step_before_an_empty_head_that_broadcasts_writes_no_row() {
        let (schema, mut query, plan, _) = tpcch_plan("ch_q09");
        let stock = schema.table_by_name("stock").expect("stock");
        let slot = slot_of(&query, stock);
        query.selectivity[slot] = 0.0;
        with_executor(&schema, |exec| {
            let mut scratch = ExecScratch::default();
            let got = exec.execute_with(&query, &plan, None, &mut scratch);
            assert_eq!(got, exec.execute_naive(&query, &plan, None));
            let head = suffix_head(&query, &plan, &scratch.empty);
            assert_eq!(plan.steps[head].table, stock);
            let broadcast = JoinStrategy::Broadcast { table_side: false };
            assert_eq!(plan.steps[head].strategy, broadcast);
            assert!(carried_at(&query, &plan, &scratch.empty, head - 1).is_empty());
            // `next` holds the head's input, the last prefix step's output.
            let input = &scratch.next;
            assert!(input.rows() > 0, "the prefix keeps rows");
            assert!(input.node.is_empty() && input.slots.iter().all(Vec::is_empty));
            assert_eq!(scratch.cur.rows(), 0);
        });
    }

    /// TPC-CH `ch_q09` ends `stock` → `supplier` → `nation`. The `stock`
    /// step broadcasts its input, so it heads the suffix, and its output,
    /// read only by the two counting steps after it, is never written: the
    /// slot `supplier` takes its key from gets no memory.
    #[test]
    fn a_stock_step_that_broadcasts_its_input_writes_no_row() {
        let (schema, query, plan, mut cluster) = tpcch_plan("ch_q09");
        let got = cluster.run_query(&query, None);
        let config = ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard());
        let naive = || Cluster::new(schema.clone(), config).run_query(&query, None);
        assert_eq!(got, crate::with_naive_executor(naive));

        let tail: Vec<&str> = (plan.steps.iter().rev().take(3).rev())
            .map(|s| schema.table(s.table).name.as_str())
            .collect();
        assert_eq!(tail, ["stock", "supplier", "nation"]);
        let head = suffix_head(&query, &plan, &vec![false; plan.steps.len()]);
        assert_eq!(head, plan.steps.len() - 3);
        assert!(moves_input(plan.steps[head].strategy));
        let written = written_slots(&query, &plan, &[]);
        let stock = slot_of(&query, schema.table_by_name("stock").expect("stock"));
        assert!(!written.contains(&stock));
        cluster.substrate().with_scratch(|scratch| {
            assert_only_written_slots_hold_memory(scratch, &written);
            assert!(scratch.cur.node.is_empty() && scratch.cur.rows() > 0);
        });
    }
}
