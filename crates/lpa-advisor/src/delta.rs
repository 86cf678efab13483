//! The incremental (delta) reward engine for the offline cost-model
//! backend.
//!
//! The paper's offline phase evaluates `R(s) = -Σ_j f_j · c(q_j, s)` once
//! per environment step. The seed implementation re-derived every
//! `c(q_j, s)` per step through a memo cache keyed by freshly allocated
//! `Vec<TableState>` keys. This engine only pays for what an action
//! actually changed:
//!
//! * a **per-query cost vector** holds `c(q_j, ·)` for the tracked
//!   partitioning; an action re-costs only the queries whose tables it
//!   touched (via a table→queries inverted index; edge toggles go through
//!   the edge→queries index of their incident queries);
//! * the memo cache keys are [`InternedKey`]s — fixed-width dense ids
//!   interned through a `BTreeMap` (lint L002 forbids hashing here), so a
//!   lookup allocates nothing;
//! * the reward total is **always** re-summed over the cost vector in
//!   query-index order, skipping zero frequencies — exactly the summation
//!   the full recompute performs — so delta and full rewards are
//!   bit-identical (the per-query costs come from the same pure model,
//!   and float addition happens in the same fixed order).
//!
//! [`reference_reward`] is the full recompute by definition — every
//! non-zero-frequency query costed afresh by the model, no memo — and the
//! oracle the differential suite in `tests/incremental_equiv.rs` pins the
//! engine to, bitwise.

#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use lpa_costmodel::NetworkCostModel;
use lpa_partition::{Action, InternedKey, KeyInterner, Partitioning};
use lpa_rl::EnvCounters;
use lpa_schema::Schema;
use lpa_workload::{FrequencyVector, Workload};
use std::collections::BTreeMap;

/// `-Σ_j f_j · c(q_j, p)` by definition: every query with a non-zero
/// frequency costed afresh by `model`, summed in query order. It reads no
/// memo and no cost vector, so it is the reference [`DeltaCostEngine`]'s
/// rewards are tested against.
pub fn reference_reward(
    model: &NetworkCostModel,
    schema: &Schema,
    workload: &Workload,
    p: &Partitioning,
    freqs: &FrequencyVector,
) -> f64 {
    let mut total = 0.0;
    for (j, q) in workload.queries().iter().enumerate() {
        let f = freqs.as_slice().get(j).copied().unwrap_or(0.0);
        if f == 0.0 {
            continue;
        }
        total += f * model.query_cost(schema, q, p);
    }
    -total
}

/// Incremental cost engine: memoized per-query costs plus delta
/// bookkeeping over the tracked partitioning.
#[derive(Debug)]
pub struct DeltaCostEngine {
    model: NetworkCostModel,
    /// Memoized `c(q_j, states-of-q_j's-tables)`, keyed without allocation.
    cache: BTreeMap<(u32, InternedKey), f64>,
    interner: KeyInterner,
    /// `c(q_j, current)` for every query, valid when `current` is set.
    costs: Vec<f64>,
    current: Option<Partitioning>,
    /// Query indices (sorted) touching each table.
    table_queries: Vec<Vec<usize>>,
    /// Union of the endpoint tables' query lists per candidate edge.
    edge_queries: Vec<Vec<usize>>,
    /// Queries indexed so far (the workload can grow via reserved slots).
    indexed_queries: usize,
    scratch: Vec<usize>,
    /// Observability: cache hits/misses, delta vs full re-costs.
    pub stats: EnvCounters,
}

impl DeltaCostEngine {
    pub fn new(model: NetworkCostModel) -> Self {
        Self {
            model,
            cache: BTreeMap::new(),
            interner: KeyInterner::new(),
            costs: Vec::new(),
            current: None,
            table_queries: Vec::new(),
            edge_queries: Vec::new(),
            indexed_queries: 0,
            scratch: Vec::new(),
            stats: EnvCounters::default(),
        }
    }

    pub fn model(&self) -> &NetworkCostModel {
        &self.model
    }

    /// Distinct memoized (query, key) cost entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Memoized `(query, interned key) → cost` entries in key order, for
    /// checkpointing.
    pub fn memo_entries(&self) -> Vec<((u32, InternedKey), f64)> {
        self.cache.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// The interner backing the memo keys (its id assignment is
    /// first-seen-order state the checkpoint must carry).
    pub fn interner(&self) -> &KeyInterner {
        &self.interner
    }

    /// The partitioning whose per-query costs are currently tracked.
    pub fn tracked(&self) -> Option<&Partitioning> {
        self.current.as_ref()
    }

    /// `c(q_j, tracked)` per query (valid when [`Self::tracked`] is set).
    pub fn cost_vector(&self) -> &[f64] {
        &self.costs
    }

    /// Re-apply checkpointed state onto a freshly built engine (same
    /// model). The inverted indexes are *not* part of the state — they
    /// are a pure function of (schema, workload) and rebuild lazily on the
    /// next reward.
    pub fn restore_state(
        &mut self,
        interner: KeyInterner,
        memo: Vec<((u32, InternedKey), f64)>,
        costs: Vec<f64>,
        current: Option<Partitioning>,
        stats: EnvCounters,
    ) {
        self.interner = interner;
        self.cache = memo.into_iter().collect();
        self.costs = costs;
        self.current = current;
        self.stats = stats;
        self.table_queries.clear();
        self.edge_queries.clear();
        self.indexed_queries = 0;
    }

    /// (Re)build the inverted indexes when the workload gains queries.
    /// Index rebuilds keep the memo cache — query indices are stable, so
    /// existing entries stay valid.
    #[expect(
        clippy::indexing_slicing,
        reason = "table_queries is rebuilt above with one list per schema table; query table ids come from that schema"
    )]
    fn ensure_indexes(&mut self, schema: &Schema, workload: &Workload) {
        let n = workload.queries().len();
        if self.indexed_queries == n && self.table_queries.len() == schema.tables().len() {
            return;
        }
        self.table_queries = vec![Vec::new(); schema.tables().len()];
        for (j, q) in workload.queries().iter().enumerate() {
            for t in &q.tables {
                let list = &mut self.table_queries[t.0];
                if list.last() != Some(&j) {
                    list.push(j);
                }
            }
        }
        self.edge_queries = schema
            .edges()
            .iter()
            .enumerate()
            .map(|(ei, _)| {
                let mut union = Vec::new();
                for ep in schema.edge(lpa_schema::EdgeId(ei)).endpoints() {
                    union.extend_from_slice(&self.table_queries[ep.table.0]);
                }
                union.sort_unstable();
                union.dedup();
                union
            })
            .collect();
        // Cost the queries that joined since the vector was last filled —
        // they were never part of `current`'s bookkeeping.
        if let Some(cur) = self.current.clone() {
            for j in self.costs.len()..n {
                let c = self.cost_of(schema, workload, j, &cur);
                self.costs.push(c);
            }
        }
        self.indexed_queries = n;
    }

    /// Memoized cost of query `j` under `p`.
    fn cost_of(&mut self, schema: &Schema, workload: &Workload, j: usize, p: &Partitioning) -> f64 {
        let Some(q) = workload.queries().get(j) else {
            return 0.0;
        };
        let key = (j as u32, self.interner.query_key(p, &q.tables));
        if let Some(&c) = self.cache.get(&key) {
            self.stats.reward_cache_hits += 1;
            return c;
        }
        self.stats.reward_cache_misses += 1;
        let c = self.model.query_cost(schema, q, p);
        self.cache.insert(key, c);
        c
    }

    /// `-Σ_j f_j · costs[j]` in query-index order, skipping zero
    /// frequencies — the summation order of [`reference_reward`].
    fn total_from_costs(&self, freqs: &FrequencyVector) -> f64 {
        let mut total = 0.0;
        for (j, c) in self.costs.iter().enumerate() {
            let f = freqs.as_slice().get(j).copied().unwrap_or(0.0);
            if f == 0.0 {
                continue;
            }
            total += f * c;
        }
        -total
    }

    /// Re-cost the queries listed in `self.scratch` against `p`.
    #[expect(clippy::indexing_slicing, reason = "i runs over 0..scratch.len()")]
    fn recost_scratch(&mut self, schema: &Schema, workload: &Workload, p: &Partitioning) {
        for i in 0..self.scratch.len() {
            let j = self.scratch[i];
            let c = self.cost_of(schema, workload, j, p);
            if let Some(slot) = self.costs.get_mut(j) {
                *slot = c;
            }
        }
        self.stats.queries_recosted += self.scratch.len() as u64;
    }

    /// Reward of an arbitrary partitioning (generic entry point: resets,
    /// probes, `reward_of`). The affected query set is the diff against the
    /// tracked partitioning.
    #[expect(
        clippy::indexing_slicing,
        reason = "ti enumerates table states of the schema that sized table_queries"
    )]
    pub fn reward(
        &mut self,
        schema: &Schema,
        workload: &Workload,
        p: &Partitioning,
        freqs: &FrequencyVector,
    ) -> f64 {
        self.stats.rewards_evaluated += 1;
        self.ensure_indexes(schema, workload);
        let n = workload.queries().len();
        match &self.current {
            Some(cur) if cur.table_states().len() == p.table_states().len() => {
                self.scratch.clear();
                {
                    let (scratch, tq) = (&mut self.scratch, &self.table_queries);
                    let cur_states = cur.table_states();
                    let new_states = p.table_states();
                    for (ti, (a, b)) in cur_states.iter().zip(new_states).enumerate() {
                        if a != b {
                            scratch.extend_from_slice(&tq[ti]);
                        }
                    }
                }
                self.scratch.sort_unstable();
                self.scratch.dedup();
                if !self.scratch.is_empty() {
                    self.stats.delta_recosts += 1;
                    self.recost_scratch(schema, workload, p);
                }
            }
            _ => {
                self.stats.full_recosts += 1;
                self.costs.clear();
                for j in 0..n {
                    let c = self.cost_of(schema, workload, j, p);
                    self.costs.push(c);
                }
            }
        }
        self.current = Some(p.clone());
        self.total_from_costs(freqs)
    }

    /// Reward after applying `action` to the tracked partitioning — the
    /// environment-step fast path. The affected query set comes straight
    /// from the inverted indexes: a table action re-costs the queries
    /// touching that table, an edge toggle the queries incident to the
    /// edge. Falls back to [`Self::reward`] whenever `prev` is not the
    /// tracked partitioning.
    #[expect(
        clippy::indexing_slicing,
        reason = "table and edge ids come from the schema that sized table_queries and edge_queries"
    )]
    pub fn reward_for_step(
        &mut self,
        schema: &Schema,
        workload: &Workload,
        prev: &Partitioning,
        action: &Action,
        next: &Partitioning,
        freqs: &FrequencyVector,
    ) -> f64 {
        if self.current.as_ref() != Some(prev) {
            return self.reward(schema, workload, next, freqs);
        }
        self.stats.rewards_evaluated += 1;
        self.ensure_indexes(schema, workload);
        self.scratch.clear();
        match *action {
            Action::Partition { table, .. } | Action::Replicate { table } => {
                self.scratch.extend_from_slice(&self.table_queries[table.0]);
            }
            Action::ActivateEdge(e) | Action::DeactivateEdge(e) => {
                self.scratch.extend_from_slice(&self.edge_queries[e.0]);
            }
        }
        if !self.scratch.is_empty() {
            self.stats.delta_recosts += 1;
            self.recost_scratch(schema, workload, next);
        }
        self.current = Some(next.clone());
        self.total_from_costs(freqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_costmodel::CostParams;
    use lpa_partition::valid_actions;

    fn setup() -> (Schema, Workload) {
        let schema = lpa_schema::ssb::schema(0.001).expect("schema builds");
        let workload = lpa_workload::ssb::workload(&schema).expect("workload builds");
        (schema, workload)
    }

    fn model() -> NetworkCostModel {
        NetworkCostModel::new(CostParams::standard())
    }

    fn engine() -> DeltaCostEngine {
        DeltaCostEngine::new(model())
    }

    #[test]
    fn delta_reward_matches_full_bitwise_over_a_walk() {
        let (schema, workload) = setup();
        let freqs = workload.uniform_frequencies();
        let mut delta = engine();
        let mut p = Partitioning::initial(&schema);
        for step in 0..24 {
            let actions = valid_actions(&schema, &p);
            let a = actions[step % actions.len()];
            let next = a.apply(&schema, &p).expect("valid action applies");
            let rf = reference_reward(&model(), &schema, &workload, &next, &freqs);
            let rd = delta.reward_for_step(&schema, &workload, &p, &a, &next, &freqs);
            assert_eq!(rf.to_bits(), rd.to_bits(), "step {step} diverged");
            p = next;
        }
        assert!(delta.stats.delta_recosts > 0, "delta path exercised");
        assert!(
            delta.stats.queries_recosted < 24 * workload.queries().len() as u64,
            "delta must re-cost fewer queries than a full recompute per step"
        );
    }

    #[test]
    fn untracked_prev_falls_back_to_diff_path() {
        let (schema, workload) = setup();
        let freqs = workload.uniform_frequencies();
        let mut delta = engine();
        let p0 = Partitioning::initial(&schema);
        let r0 = delta.reward(&schema, &workload, &p0, &freqs);
        // Step from a partitioning the engine has never tracked.
        let a = valid_actions(&schema, &p0)[3];
        let foreign = a.apply(&schema, &p0).expect("applies");
        let b = valid_actions(&schema, &foreign)[0];
        let next = b.apply(&schema, &foreign).expect("applies");
        let r = delta.reward_for_step(&schema, &workload, &foreign, &b, &next, &freqs);
        assert_eq!(
            r.to_bits(),
            reference_reward(&model(), &schema, &workload, &next, &freqs).to_bits()
        );
        assert!(r0.is_finite());
    }

    #[test]
    fn edge_toggle_recosts_only_incident_queries() {
        // SSB's fact table is in every query, so use TPC-CH, which has
        // edges whose incident query set is a strict subset.
        let schema = lpa_schema::tpcch::schema(0.001).expect("schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let freqs = workload.uniform_frequencies();
        let p0 = Partitioning::initial(&schema);
        let mut picked = None;
        for ei in 0..schema.edges().len() {
            let e = lpa_schema::EdgeId(ei);
            let eps = schema.edge(e).endpoints();
            let incident = workload
                .queries()
                .iter()
                .filter(|q| q.tables.iter().any(|t| eps.iter().any(|ep| ep.table == *t)))
                .count();
            let a = Action::ActivateEdge(e);
            if incident < workload.queries().len() {
                if let Ok(next) = a.apply(&schema, &p0) {
                    picked = Some((a, next, incident));
                    break;
                }
            }
        }
        let (a, next, incident) = picked.expect("tpcch has a non-global applicable edge");
        let mut delta = engine();
        delta.reward(&schema, &workload, &p0, &freqs);
        let recosted_before = delta.stats.queries_recosted;
        delta.reward_for_step(&schema, &workload, &p0, &a, &next, &freqs);
        let recosted = (delta.stats.queries_recosted - recosted_before) as usize;
        assert_eq!(
            recosted, incident,
            "edge toggle re-costs exactly its incident queries"
        );
        assert!(recosted < workload.queries().len());
    }

    #[test]
    fn workload_growth_rebuilds_indexes() {
        let schema = lpa_schema::microbench::schema(0.01).expect("schema builds");
        let mut workload = lpa_workload::microbench::workload(&schema)
            .expect("workload builds")
            .with_reserved_slots(1);
        let freqs = workload.uniform_frequencies();
        let mut delta = engine();
        let p0 = Partitioning::initial(&schema);
        delta.reward(&schema, &workload, &p0, &freqs);
        let q = lpa_workload::QueryBuilder::new(&schema, "extra")
            .scan("a")
            .finish()
            .expect("query builds");
        workload.add_query(q).expect("slot reserved");
        let freqs2 = workload.uniform_frequencies();
        let r = delta.reward(&schema, &workload, &p0, &freqs2);
        assert_eq!(
            r.to_bits(),
            reference_reward(&model(), &schema, &workload, &p0, &freqs2).to_bits()
        );
    }
}
