//! Cost estimation `cm(P, q)`: join-order enumeration plus per-join
//! distribution-strategy choice.

use crate::imbalance::partition_imbalance;
use crate::params::CostParams;
use crate::plan::{JoinStrategy, PlanStep, QueryPlan};
use lpa_partition::{Partitioning, TableState};
use lpa_schema::{AttrRef, Schema, TableId};
use lpa_workload::{FrequencyVector, JoinPred, Query, Workload};

/// How join orders are enumerated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinEnumeration {
    /// Try each join as the seed, then greedily extend with the cheapest
    /// adjacent join; keep the best plan. Quadratic in the join count.
    Greedy,
    /// Full DFS over join orders (exponential; only sensible for the small
    /// join graphs of OLAP queries). Used by the `ablation_join_enum`
    /// bench to validate that greedy is close to optimal.
    Exhaustive,
}

/// How one side of a join is distributed across the cluster.
#[derive(Clone, Debug)]
enum Dist {
    /// Full copy on every node.
    Replicated,
    /// Hash-distributed; the values of any attribute in the equivalence
    /// class determine the node.
    Hash(Vec<AttrRef>),
}

impl Dist {
    fn hash_attrs(&self) -> &[AttrRef] {
        match self {
            Dist::Hash(a) => a,
            Dist::Replicated => &[],
        }
    }
}

/// One side of a join (base table or running intermediate).
#[derive(Clone, Debug)]
struct Side {
    tables: u64,
    rows: f64,
    bytes: f64,
    dist: Dist,
}

/// The paper's network-centric cost model.
#[derive(Clone, Debug)]
pub struct NetworkCostModel {
    params: CostParams,
    enumeration: JoinEnumeration,
}

impl NetworkCostModel {
    pub fn new(params: CostParams) -> Self {
        Self {
            params,
            enumeration: JoinEnumeration::Greedy,
        }
    }

    /// Switch the join-order enumeration strategy (ablation support).
    pub fn with_enumeration(mut self, e: JoinEnumeration) -> Self {
        self.enumeration = e;
        self
    }

    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Estimated runtime in seconds of `query` under `partitioning`.
    pub fn query_cost(&self, schema: &Schema, query: &Query, partitioning: &Partitioning) -> f64 {
        self.plan(schema, query, partitioning).total_seconds
    }

    /// Frequency-weighted workload cost `Σ_j f_j · cm(P, q_j)`.
    pub fn workload_cost(
        &self,
        schema: &Schema,
        workload: &Workload,
        freqs: &FrequencyVector,
        partitioning: &Partitioning,
    ) -> f64 {
        workload
            .queries()
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let f = freqs.as_slice().get(i).copied().unwrap_or(0.0);
                if f == 0.0 {
                    0.0
                } else {
                    f * self.query_cost(schema, q, partitioning)
                }
            })
            .sum()
    }

    /// The DRL reward: negative workload cost (Section 3.2, "Rewards").
    pub fn reward(
        &self,
        schema: &Schema,
        workload: &Workload,
        freqs: &FrequencyVector,
        partitioning: &Partitioning,
    ) -> f64 {
        -self.workload_cost(schema, workload, freqs, partitioning)
    }

    /// Best plan found for the query under the partitioning.
    #[expect(
        clippy::indexing_slicing,
        reason = "a validated query scans at least one table"
    )]
    pub fn plan(&self, schema: &Schema, query: &Query, partitioning: &Partitioning) -> QueryPlan {
        let scan_seconds = self.scan_cost(schema, query, partitioning);
        if query.joins.is_empty() {
            // Single-table scan + aggregation.
            let t = query.tables[0];
            let rows = query.scanned_rows(schema, t);
            let share = self.table_share(schema, partitioning, t);
            let cpu = rows * self.params.cpu_tuple_cost * query.cpu_factor * share;
            return QueryPlan {
                start_table: None,
                scan_seconds,
                steps: Vec::new(),
                total_seconds: scan_seconds + cpu,
            };
        }

        let (start_table, best) = match self.enumeration {
            JoinEnumeration::Greedy => self.best_greedy(schema, query, partitioning),
            JoinEnumeration::Exhaustive => self.best_exhaustive(schema, query, partitioning),
        };
        let join_total: f64 = best.iter().map(|s| s.net_seconds + s.cpu_seconds).sum();
        QueryPlan {
            start_table,
            scan_seconds,
            total_seconds: scan_seconds + join_total,
            steps: best,
        }
    }

    /// Wall-clock scan time across all base tables (scans of different
    /// tables are charged sequentially, mirroring a pipeline-per-join
    /// executor).
    fn scan_cost(&self, schema: &Schema, query: &Query, p: &Partitioning) -> f64 {
        query
            .tables
            .iter()
            .map(|&t| {
                let bytes = schema.table(t).bytes() as f64;
                bytes * self.table_share(schema, p, t) / self.params.scan_bandwidth
            })
            .sum()
    }

    /// Fraction of a table's data the busiest node processes.
    fn table_share(&self, schema: &Schema, p: &Partitioning, t: TableId) -> f64 {
        match p.table_state(t) {
            // Every node holds (and scans) the full copy.
            TableState::Replicated => 1.0,
            TableState::PartitionedBy(a) => {
                partition_imbalance(schema, AttrRef::new(t, a), self.params.nodes)
            }
        }
    }

    fn base_side(&self, schema: &Schema, query: &Query, p: &Partitioning, t: TableId) -> Side {
        let rows = query.scanned_rows(schema, t);
        let bytes = rows * schema.table(t).row_bytes as f64;
        let dist = match p.table_state(t) {
            TableState::Replicated => Dist::Replicated,
            TableState::PartitionedBy(a) => Dist::Hash(vec![AttrRef::new(t, a)]),
        };
        Side {
            tables: 1u64 << t.0,
            rows,
            bytes,
            dist,
        }
    }

    /// Greedy enumeration: each join seeds one candidate plan.
    fn best_greedy(
        &self,
        schema: &Schema,
        query: &Query,
        p: &Partitioning,
    ) -> (Option<TableId>, Vec<PlanStep>) {
        let mut best: Option<(f64, TableId, Vec<PlanStep>)> = None;
        for seed in 0..query.joins.len() {
            if let Some((cost, start, steps)) = self.greedy_from(schema, query, p, seed) {
                if best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true) {
                    best = Some((cost, start, steps));
                }
            }
        }
        match best {
            Some((_, start, steps)) => (Some(start), steps),
            None => (None, Vec::new()),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "used holds one slot per join; a plan with joins has at least one step"
    )]
    fn greedy_from(
        &self,
        schema: &Schema,
        query: &Query,
        p: &Partitioning,
        seed: usize,
    ) -> Option<(f64, TableId, Vec<PlanStep>)> {
        let seed_join = query.joins.get(seed)?;
        let (ta, tb) = seed_join.tables();
        let left = self.base_side(schema, query, p, ta);
        let right = self.base_side(schema, query, p, tb);
        let (step, inter) = self.join_sides(schema, query, &left, &right, seed_join, seed, tb);
        let mut steps = vec![step];
        let mut inter = inter;
        let mut used = vec![false; query.joins.len()];
        if let Some(slot) = used.get_mut(seed) {
            *slot = true;
        }
        let mut total: f64 = steps[0].net_seconds + steps[0].cpu_seconds;

        loop {
            // Pick the cheapest usable join: exactly one side new.
            let mut choice: Option<(usize, TableId, PlanStep, Side, f64)> = None;
            let mut done = true;
            for (ji, join) in query.joins.iter().enumerate() {
                if used[ji] {
                    continue;
                }
                let (ta, tb) = join.tables();
                let a_in = inter.tables & (1 << ta.0) != 0;
                let b_in = inter.tables & (1 << tb.0) != 0;
                if a_in && b_in {
                    // Cycle closure: a residual predicate, no data movement.
                    used[ji] = true;
                    continue;
                }
                done = false;
                let new_table = if a_in {
                    tb
                } else if b_in {
                    ta
                } else {
                    continue;
                };
                let right = self.base_side(schema, query, p, new_table);
                let (step, next) =
                    self.join_sides(schema, query, &inter, &right, join, ji, new_table);
                let cost = step.net_seconds + step.cpu_seconds;
                if choice
                    .as_ref()
                    .map(|(_, _, _, _, c)| cost < *c)
                    .unwrap_or(true)
                {
                    choice = Some((ji, new_table, step, next, cost));
                }
            }
            match choice {
                Some((ji, _t, step, next, cost)) => {
                    used[ji] = true;
                    total += cost;
                    steps.push(step);
                    inter = next;
                }
                None => {
                    if done || used.iter().all(|u| *u) {
                        break;
                    }
                    // Disconnected remainder relative to the seed — the
                    // query validator guarantees connectivity, so another
                    // seed will cover this order; give up on this one.
                    return None;
                }
            }
        }
        Some((total, ta, steps))
    }

    /// Exhaustive DFS over join orders.
    #[expect(
        clippy::indexing_slicing,
        reason = "seed and used are indexed by join position"
    )]
    fn best_exhaustive(
        &self,
        schema: &Schema,
        query: &Query,
        p: &Partitioning,
    ) -> (Option<TableId>, Vec<PlanStep>) {
        let mut best: Option<(f64, TableId, Vec<PlanStep>)> = None;
        for seed in 0..query.joins.len() {
            let (ta, tb) = query.joins[seed].tables();
            let left = self.base_side(schema, query, p, ta);
            let right = self.base_side(schema, query, p, tb);
            let (step, inter) =
                self.join_sides(schema, query, &left, &right, &query.joins[seed], seed, tb);
            let mut used = vec![false; query.joins.len()];
            used[seed] = true;
            let cost = step.net_seconds + step.cpu_seconds;
            self.dfs(
                schema,
                query,
                p,
                inter,
                &mut used,
                &mut vec![step],
                cost,
                ta,
                &mut best,
            );
        }
        match best {
            Some((_, start, steps)) => (Some(start), steps),
            None => (None, Vec::new()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::indexing_slicing,
        reason = "ji enumerates the query's joins; used holds one slot per join"
    )]
    fn dfs(
        &self,
        schema: &Schema,
        query: &Query,
        p: &Partitioning,
        inter: Side,
        used: &mut Vec<bool>,
        steps: &mut Vec<PlanStep>,
        cost: f64,
        start: TableId,
        best: &mut Option<(f64, TableId, Vec<PlanStep>)>,
    ) {
        if let Some((c, _, _)) = best {
            if cost >= *c {
                return; // prune
            }
        }
        let mut extended = false;
        for ji in 0..query.joins.len() {
            if used[ji] {
                continue;
            }
            let (ta, tb) = query.joins[ji].tables();
            let a_in = inter.tables & (1 << ta.0) != 0;
            let b_in = inter.tables & (1 << tb.0) != 0;
            if a_in && b_in {
                used[ji] = true;
                self.dfs(
                    schema,
                    query,
                    p,
                    inter.clone(),
                    used,
                    steps,
                    cost,
                    start,
                    best,
                );
                used[ji] = false;
                extended = true;
                continue;
            }
            let new_table = if a_in {
                tb
            } else if b_in {
                ta
            } else {
                continue;
            };
            extended = true;
            let right = self.base_side(schema, query, p, new_table);
            let (step, next) = self.join_sides(
                schema,
                query,
                &inter,
                &right,
                &query.joins[ji],
                ji,
                new_table,
            );
            let step_cost = step.net_seconds + step.cpu_seconds;
            used[ji] = true;
            steps.push(step);
            self.dfs(
                schema,
                query,
                p,
                next,
                used,
                steps,
                cost + step_cost,
                start,
                best,
            );
            steps.pop();
            used[ji] = false;
        }
        if !extended
            && used.iter().all(|u| *u)
            && best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true)
        {
            *best = Some((cost, start, steps.clone()));
        }
    }

    /// Join `left` (intermediate or base) with base-table side `right`,
    /// choosing the cheapest distribution strategy.
    #[allow(clippy::too_many_arguments)] // private planner helper; all args are hot-path plan state
    #[expect(
        clippy::indexing_slicing,
        reason = "a validated join has at least one key pair"
    )]
    fn join_sides(
        &self,
        schema: &Schema,
        query: &Query,
        left: &Side,
        right: &Side,
        join: &JoinPred,
        join_index: usize,
        right_table: TableId,
    ) -> (PlanStep, Side) {
        let n = self.params.nodes as f64;
        let agg_bw = self.params.net_bandwidth * n;

        // Orient each pair as (left attr, right attr).
        let oriented: Vec<(AttrRef, AttrRef)> = join
            .pairs
            .iter()
            .map(|(a, b)| {
                if b.table == right_table {
                    (*a, *b)
                } else {
                    (*b, *a)
                }
            })
            .collect();
        let primary = oriented[0];

        // Output cardinality from the primary pair.
        let d_left = (schema.attr_distinct(primary.0) as f64)
            .min(left.rows)
            .max(1.0);
        let d_right = (schema.attr_distinct(primary.1) as f64
            * query.table_selectivity(right_table))
        .max(1.0);
        let out_rows = (left.rows * right.rows / d_left.max(d_right)).max(0.0);
        let out_bytes_per_row = if left.rows > 0.0 && right.rows > 0.0 {
            left.bytes / left.rows.max(1.0) + right.bytes / right.rows.max(1.0)
        } else {
            1.0
        };

        // Candidate strategies as (strategy, net_bytes, shipped rows,
        // result dist).
        let mut candidates: Vec<(JoinStrategy, f64, f64, Dist)> = Vec::new();

        let left_hash_match = oriented
            .iter()
            .find(|(l, _)| left.dist.hash_attrs().contains(l));
        let right_hash_match = oriented
            .iter()
            .find(|(_, r)| matches!(&right.dist, Dist::Hash(attrs) if attrs.contains(r)));

        match (&left.dist, &right.dist) {
            (_, Dist::Replicated) => {
                candidates.push((JoinStrategy::ReplicatedSide, 0.0, 0.0, left.dist.clone()));
            }
            (Dist::Replicated, Dist::Hash(rattrs)) => {
                let mut attrs = rattrs.clone();
                // The join pair extends the equivalence class.
                if let Some((l, _)) = oriented.iter().find(|(_, r)| rattrs.contains(r)) {
                    if !attrs.contains(l) {
                        attrs.push(*l);
                    }
                }
                candidates.push((JoinStrategy::ReplicatedSide, 0.0, 0.0, Dist::Hash(attrs)));
            }
            (Dist::Hash(lattrs), Dist::Hash(_)) => {
                // Co-located if some pair is the partitioning of both sides.
                let co = oriented.iter().find(|(l, r)| {
                    lattrs.contains(l) && matches!(&right.dist, Dist::Hash(ra) if ra.contains(r))
                });
                if let Some((_, r)) = co {
                    let mut attrs = lattrs.clone();
                    if !attrs.contains(r) {
                        attrs.push(*r);
                    }
                    candidates.push((JoinStrategy::CoLocated, 0.0, 0.0, Dist::Hash(attrs)));
                } else {
                    // Broadcast the smaller side.
                    candidates.push((
                        JoinStrategy::Broadcast { table_side: true },
                        right.bytes * (n - 1.0),
                        right.rows * (n - 1.0),
                        left.dist.clone(),
                    ));
                    candidates.push((
                        JoinStrategy::Broadcast { table_side: false },
                        left.bytes * (n - 1.0),
                        left.rows * (n - 1.0),
                        right.dist.clone(),
                    ));
                    // Directed repartition towards an already-usable side.
                    if let Some((l, _)) = right_hash_match {
                        let mut attrs = right.dist.hash_attrs().to_vec();
                        if !attrs.contains(l) {
                            attrs.push(*l);
                        }
                        candidates.push((
                            JoinStrategy::DirectedRepartition { table_side: false },
                            left.bytes * (n - 1.0) / n,
                            left.rows * (n - 1.0) / n,
                            Dist::Hash(attrs),
                        ));
                    }
                    if let Some((_, r)) = left_hash_match {
                        let mut attrs = lattrs.clone();
                        if !attrs.contains(r) {
                            attrs.push(*r);
                        }
                        candidates.push((
                            JoinStrategy::DirectedRepartition { table_side: true },
                            right.bytes * (n - 1.0) / n,
                            right.rows * (n - 1.0) / n,
                            Dist::Hash(attrs),
                        ));
                    }
                    // Symmetric repartition on the primary pair.
                    candidates.push((
                        JoinStrategy::SymmetricRepartition,
                        (left.bytes + right.bytes) * (n - 1.0) / n,
                        (left.rows + right.rows) * (n - 1.0) / n,
                        Dist::Hash(vec![primary.0, primary.1]),
                    ));
                }
            }
        }

        // Rank strategies by their full network time: bandwidth + per-tuple
        // shipping + exchange setup.
        let net_time = |bytes: f64, rows: f64| {
            if bytes == 0.0 && rows == 0.0 {
                0.0
            } else {
                bytes / agg_bw + rows * self.params.ship_tuple_cost + self.params.shuffle_overhead
            }
        };
        // The candidate list always contains at least the broadcast and
        // symmetric-repartition strategies; a free no-op join is the
        // graceful floor if it is ever empty.
        let (strategy, net_bytes, net_rows, dist) = candidates
            .into_iter()
            .min_by(|a, b| net_time(a.1, a.2).total_cmp(&net_time(b.1, b.2)))
            .unwrap_or((JoinStrategy::CoLocated, 0.0, 0.0, Dist::Replicated));

        // Per-node work share of the join output's distribution.
        let share = match &dist {
            Dist::Replicated => 1.0,
            Dist::Hash(attrs) => attrs
                .iter()
                .map(|a| partition_imbalance(schema, *a, self.params.nodes))
                .fold(1.0_f64, f64::min),
        };
        let net_seconds = net_time(net_bytes, net_rows);
        let cpu_seconds = (left.rows + right.rows + out_rows)
            * self.params.cpu_tuple_cost
            * query.cpu_factor
            * share;

        let step = PlanStep {
            join_index,
            table: right_table,
            strategy,
            out_rows,
            net_seconds,
            cpu_seconds,
        };
        let next = Side {
            tables: left.tables | right.tables,
            rows: out_rows,
            bytes: out_rows * out_bytes_per_row,
            dist,
        };
        (step, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_partition::Action;
    use lpa_schema::EdgeId;

    fn ssb_setup() -> (Schema, Workload, NetworkCostModel) {
        let s = lpa_schema::ssb::schema(0.01).expect("schema builds");
        let w = lpa_workload::ssb::workload(&s).expect("workload builds");
        (s, w, NetworkCostModel::new(CostParams::standard()))
    }

    fn replicate_all_dims(schema: &Schema, p: &Partitioning) -> Partitioning {
        let mut out = p.clone();
        for ti in 1..schema.tables().len() {
            out = Action::Replicate { table: TableId(ti) }
                .apply(schema, &out)
                .unwrap();
        }
        out
    }

    #[test]
    fn co_partitioning_removes_network_cost() {
        let (s, w, m) = ssb_setup();
        let p0 = Partitioning::initial(&s);
        // Co-partition lineorder with customer via edge 0 and replicate the
        // other dimensions: flight-3 queries still shuffle for supplier/date.
        let co = Action::ActivateEdge(EdgeId(0)).apply(&s, &p0).unwrap();
        let q11 = &w.queries()[0]; // lineorder ⋈ date
        let cust_join = w.queries().iter().find(|q| q.name == "ssb_q3.1").unwrap();
        let plan_seed = m.plan(&s, q11, &p0);
        assert!(plan_seed.net_seconds() > 0.0, "PK partitioning shuffles");
        let plan_co = m.plan(&s, cust_join, &co);
        let plan_pk = m.plan(&s, cust_join, &p0);
        assert!(
            plan_co.total_seconds < plan_pk.total_seconds,
            "co-partitioning must help the customer join: {} vs {}",
            plan_co.total_seconds,
            plan_pk.total_seconds
        );
    }

    #[test]
    fn replicating_dimensions_makes_star_joins_local() {
        let (s, w, m) = ssb_setup();
        let p0 = Partitioning::initial(&s);
        let all_rep = replicate_all_dims(&s, &p0);
        for q in w.queries() {
            let plan = m.plan(&s, q, &all_rep);
            assert!(plan.fully_local(), "{} should be local", q.name);
            assert!(plan.net_seconds() == 0.0);
        }
    }

    #[test]
    fn broadcast_cheaper_than_symmetric_for_small_dim() {
        let (s, w, m) = ssb_setup();
        // lineorder by PK, date by PK: the date join should broadcast the
        // tiny date table rather than repartition lineorder.
        let p0 = Partitioning::initial(&s);
        let q = &w.queries()[0];
        let plan = m.plan(&s, q, &p0);
        let step = &plan.steps[0];
        assert!(
            matches!(
                step.strategy,
                JoinStrategy::Broadcast { .. } | JoinStrategy::DirectedRepartition { .. }
            ),
            "got {:?}",
            step.strategy
        );
    }

    #[test]
    fn workload_cost_weights_by_frequency() {
        let (s, w, m) = ssb_setup();
        let p = Partitioning::initial(&s);
        let uni = FrequencyVector::uniform(w.slots());
        let total = m.workload_cost(&s, &w, &uni, &p);
        let single: f64 = w.queries().iter().map(|q| m.query_cost(&s, q, &p)).sum();
        assert!((total - single).abs() < 1e-9);
        // Zeroing all but one query leaves exactly that query's cost.
        let mut counts = vec![0.0; w.queries().len()];
        counts[3] = 2.0;
        let f = FrequencyVector::from_counts(&counts, w.slots());
        let got = m.workload_cost(&s, &w, &f, &p);
        let want = m.query_cost(&s, &w.queries()[3], &p);
        assert!((got - want).abs() < 1e-9);
        assert!((m.reward(&s, &w, &f, &p) + want).abs() < 1e-9);
    }

    #[test]
    fn skewed_partition_key_costs_more() {
        let s = lpa_schema::tpcch::schema(0.003).expect("schema builds");
        let w = lpa_workload::tpcch::workload(&s).expect("workload builds");
        let m = NetworkCostModel::new(CostParams::standard());
        let order = s.table_by_name("order").unwrap();
        let customer = s.table_by_name("customer").unwrap();
        let p0 = Partitioning::initial(&s);
        let by_pk = p0.clone();
        // Partition order and customer by the skewed 10-value district.
        let o_d = s.attr_ref("order", "o_d_id").unwrap();
        let c_d = s.attr_ref("customer", "c_d_id").unwrap();
        let by_district = Action::Partition {
            table: order,
            attr: o_d.attr,
        }
        .apply(&s, &p0)
        .and_then(|p| {
            Action::Partition {
                table: customer,
                attr: c_d.attr,
            }
            .apply(&s, &p)
        })
        .unwrap();
        // Q1 (orderline scan) unaffected; Q13 (customer ⋈ order) is local
        // under district co-partitioning but suffers the straggler penalty.
        let q13 = w.queries().iter().find(|q| q.name == "ch_q13").unwrap();
        let plan_d = m.plan(&s, q13, &by_district);
        assert!(plan_d.fully_local(), "district co-partitioning is local");
        let plan_pk = m.plan(&s, q13, &by_pk);
        assert!(plan_pk.net_seconds() > 0.0);
        // The compound key is also local AND balanced — strictly better.
        let o_wd = s.attr_ref("order", "o_wd").unwrap();
        let c_wd = s.attr_ref("customer", "c_wd").unwrap();
        let by_wd = Action::Partition {
            table: order,
            attr: o_wd.attr,
        }
        .apply(&s, &p0)
        .and_then(|p| {
            Action::Partition {
                table: customer,
                attr: c_wd.attr,
            }
            .apply(&s, &p)
        })
        .unwrap();
        let plan_wd = m.plan(&s, q13, &by_wd);
        assert!(plan_wd.fully_local());
        assert!(
            plan_wd.total_seconds < plan_d.total_seconds,
            "compound key {} should beat skewed district {}",
            plan_wd.total_seconds,
            plan_d.total_seconds
        );
    }

    #[test]
    fn exp5_crossover_partition_vs_replicate_b() {
        // The Fig. 8 effect: on a fast network partitioning B wins (scan is
        // distributed); on a slow network replicating B wins (no shuffles).
        let s = lpa_schema::microbench::schema(0.2).expect("schema builds");
        let w = lpa_workload::microbench::workload(&s).expect("workload builds");
        let a = s.table_by_name("a").unwrap();
        let b = s.table_by_name("b").unwrap();
        let c = s.table_by_name("c").unwrap();
        let a_c = s.attr_ref("a", "a_c_key").unwrap();
        let base = Partitioning::initial(&s);
        // A co-partitioned with C in both variants.
        let with_ac = Action::Partition {
            table: a,
            attr: a_c.attr,
        }
        .apply(&s, &base)
        .unwrap();
        let _ = c;
        let b_part = with_ac.clone(); // B stays partitioned by its PK
        let b_repl = Action::Replicate { table: b }.apply(&s, &with_ac).unwrap();
        let freqs = FrequencyVector::uniform(w.slots());

        let fast = NetworkCostModel::new(CostParams::standard());
        let slow = NetworkCostModel::new(CostParams::slow_network());
        let fast_part = fast.workload_cost(&s, &w, &freqs, &b_part);
        let fast_repl = fast.workload_cost(&s, &w, &freqs, &b_repl);
        let slow_part = slow.workload_cost(&s, &w, &freqs, &b_part);
        let slow_repl = slow.workload_cost(&s, &w, &freqs, &b_repl);
        assert!(
            fast_part < fast_repl,
            "fast net: partition B ({fast_part}) should beat replicate ({fast_repl})"
        );
        assert!(
            slow_repl < slow_part,
            "slow net: replicate B ({slow_repl}) should beat partition ({slow_part})"
        );
    }

    #[test]
    fn exhaustive_never_worse_than_greedy() {
        let (s, w, m) = ssb_setup();
        let ex = NetworkCostModel::new(CostParams::standard())
            .with_enumeration(JoinEnumeration::Exhaustive);
        let p = Partitioning::initial(&s);
        for q in w.queries() {
            let g = m.query_cost(&s, q, &p);
            let e = ex.query_cost(&s, q, &p);
            assert!(e <= g + 1e-9, "{}: exhaustive {} > greedy {}", q.name, e, g);
        }
    }

    #[test]
    fn single_table_query_cost_scales_with_partitioning() {
        let s = lpa_schema::tpcch::schema(0.003).expect("schema builds");
        let w = lpa_workload::tpcch::workload(&s).expect("workload builds");
        let m = NetworkCostModel::new(CostParams::standard());
        let q1 = w.queries().iter().find(|q| q.name == "ch_q01").unwrap();
        let ol = s.table_by_name("orderline").unwrap();
        let p = Partitioning::initial(&s);
        let partitioned = m.query_cost(&s, q1, &p);
        let replicated = Action::Replicate { table: ol }
            .apply(&s, &p)
            .map(|p| m.query_cost(&s, q1, &p))
            .unwrap();
        assert!(
            replicated > partitioned * 2.0,
            "replicating the fact table should hurt scans: {replicated} vs {partitioned}"
        );
    }
}
