//! SQL workload monitoring: map observed statements onto the advisor's
//! representative query set and count frequencies.

use lpa_schema::Schema;
use lpa_sql::parse_query;
use lpa_workload::{FrequencyVector, Query, QueryId, SelectivityBuckets, Workload};
use std::collections::HashMap;

/// How one observed statement was classified.
#[derive(Clone, PartialEq, Debug)]
pub enum Observation {
    /// Mapped onto a known representative query (possibly a different
    /// parameterization in the same selectivity bucket).
    Known(QueryId),
    /// A structurally new query; quarantined for incremental training.
    New(String),
    /// The statement could not be parsed/resolved.
    Rejected(String),
}

/// Structural signature: tables, join pairs, and selectivity buckets.
/// Two parameterizations of the same statement share a signature, which is
/// exactly the paper's bucketization trick for recurring OLAP queries.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Signature {
    tables: Vec<usize>,
    joins: Vec<(usize, usize, usize, usize)>,
    buckets: Vec<(usize, usize)>,
}

fn signature(buckets: &SelectivityBuckets, q: &Query) -> Signature {
    let mut tables: Vec<usize> = q.tables.iter().map(|t| t.0).collect();
    tables.sort_unstable();
    let mut joins: Vec<(usize, usize, usize, usize)> = q
        .joins
        .iter()
        .map(|j| {
            let (a, b) = j.pairs[0];
            if (a.table.0, a.attr.0) <= (b.table.0, b.attr.0) {
                (a.table.0, a.attr.0, b.table.0, b.attr.0)
            } else {
                (b.table.0, b.attr.0, a.table.0, a.attr.0)
            }
        })
        .collect();
    joins.sort_unstable();
    let mut bucket_ids: Vec<(usize, usize)> = q
        .tables
        .iter()
        .map(|t| {
            (
                t.0,
                buckets.classify(q.table_selectivity(*t).clamp(1e-9, 1.0)),
            )
        })
        .collect();
    bucket_ids.sort_unstable();
    Signature {
        tables,
        joins,
        buckets: bucket_ids,
    }
}

/// Counts observed statements against a representative workload.
#[derive(Debug)]
pub struct WorkloadMonitor {
    schema: Schema,
    buckets: SelectivityBuckets,
    known: HashMap<Signature, QueryId>,
    counts: Vec<f64>,
    observed_in_window: u64,
    /// Structurally new queries seen this epoch, deduplicated by signature.
    pending: HashMap<Signature, (Query, u64)>,
}

impl WorkloadMonitor {
    /// Index the representative workload's signatures.
    pub fn new(schema: Schema, workload: &Workload) -> Self {
        let buckets = SelectivityBuckets::default_three();
        let mut known = HashMap::new();
        for id in workload.query_ids() {
            let sig = signature(&buckets, workload.query(id));
            known.insert(sig, id);
        }
        Self {
            counts: vec![0.0; workload.slots()],
            observed_in_window: 0,
            pending: HashMap::new(),
            known,
            buckets,
            schema,
        }
    }

    /// Register an additional known query (after incremental training
    /// assigned it a reserved slot).
    pub fn register(&mut self, id: QueryId, query: &Query) {
        let sig = signature(&self.buckets, query);
        self.pending.remove(&sig);
        self.known.insert(sig, id);
        if self.counts.len() <= id.0 {
            self.counts.resize(id.0 + 1, 0.0);
        }
    }

    /// Ingest one SQL statement.
    pub fn observe(&mut self, sql: &str) -> Observation {
        let q = match parse_query(&self.schema, sql) {
            Ok(q) => q,
            Err(e) => return Observation::Rejected(e.to_string()),
        };
        self.observed_in_window += 1;
        let sig = signature(&self.buckets, &q);
        if let Some(&id) = self.known.get(&sig) {
            self.counts[id.0] += 1.0;
            return Observation::Known(id);
        }
        let entry = self.pending.entry(sig).or_insert((q.clone(), 0));
        entry.1 += 1;
        Observation::New(q.name)
    }

    /// Statements counted in the current window (known queries only).
    pub fn window_total(&self) -> u64 {
        self.observed_in_window
    }

    /// Current window's frequency vector (`None` while nothing was seen).
    pub fn frequencies(&self) -> Option<FrequencyVector> {
        if self.counts.iter().all(|c| *c == 0.0) {
            return None;
        }
        Some(FrequencyVector::from_counts(
            &self.counts,
            self.counts.len(),
        ))
    }

    /// New queries with their observation counts, hottest first, ties by
    /// name — the one ordering incremental training (slot assignment, hence
    /// the encoder layout and every later weight) and checkpoint capture
    /// both see. It never depends on hash-map iteration order.
    pub fn pending(&self) -> Vec<(Query, u64)> {
        let mut v: Vec<(Query, u64)> = self.pending.values().cloned().collect();
        v.sort_by(|(a, na), (b, nb)| nb.cmp(na).then_with(|| a.name.cmp(&b.name)));
        v
    }

    /// Drop collected pending queries (after incremental training).
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// Raw per-slot counts of the current window (checkpoint capture).
    pub fn window_counts(&self) -> &[f64] {
        &self.counts
    }

    /// Restore the window state captured by a checkpoint. The monitor must
    /// already be indexed against the same (restored) workload, so the
    /// count vector lengths have to line up.
    pub fn restore_window(
        &mut self,
        counts: Vec<f64>,
        observed_in_window: u64,
        pending: Vec<(Query, u64)>,
    ) -> Result<(), String> {
        if counts.len() != self.counts.len() {
            return Err(format!(
                "window count slots {} != monitor slots {}",
                counts.len(),
                self.counts.len()
            ));
        }
        self.counts = counts;
        self.observed_in_window = observed_in_window;
        self.pending.clear();
        for (q, n) in pending {
            let sig = signature(&self.buckets, &q);
            self.pending.insert(sig, (q, n));
        }
        Ok(())
    }

    /// Start a new decision window.
    pub fn reset_window(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0.0);
        self.observed_in_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Schema, Workload, WorkloadMonitor) {
        let schema = lpa_schema::ssb::schema(0.01).expect("schema builds");
        let workload = lpa_workload::ssb::workload(&schema).expect("workload builds");
        let monitor = WorkloadMonitor::new(schema.clone(), &workload);
        (schema, workload, monitor)
    }

    #[test]
    fn known_query_is_counted() {
        let (_, _, mut m) = setup();
        // Structurally ssb_q1.x: lineorder ⋈ date with filters on both.
        let obs = m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
             AND l.lo_orderkey < 500",
        );
        assert!(matches!(obs, Observation::Known(_)), "got {obs:?}");
        let f = m.frequencies().expect("non-empty window");
        assert!(f.as_slice().contains(&1.0));
    }

    #[test]
    fn reparameterized_query_maps_to_same_entry() {
        let (_, _, mut m) = setup();
        let a = m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
             AND l.lo_orderkey < 500",
        );
        let b = m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1997 \
             AND l.lo_orderkey < 900",
        );
        assert_eq!(a, b, "same structure and buckets → same entry");
    }

    #[test]
    fn new_query_is_quarantined_and_deduplicated() {
        let (_, _, mut m) = setup();
        for _ in 0..3 {
            let obs = m.observe(
                "SELECT count(*) FROM customer c, supplier s \
                 WHERE c.c_city = s.s_city",
            );
            assert!(matches!(obs, Observation::New(_)));
        }
        let pending = m.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].1, 3);
    }

    /// Equally hot new queries come back in name order whatever order they
    /// arrived in (and whatever order the hash map happens to iterate in —
    /// every monitor has its own `RandomState`), hotter ones first.
    #[test]
    fn pending_order_is_count_then_name_not_arrival_or_hash_order() {
        let tied = [
            "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city",
            "SELECT count(*) FROM part p, lineorder l WHERE l.lo_partkey = p.p_partkey",
            "SELECT count(*) FROM customer c, lineorder l WHERE l.lo_custkey = c.c_custkey",
            "SELECT count(*) FROM supplier s, lineorder l WHERE l.lo_suppkey = s.s_suppkey",
        ];
        let hot = "SELECT count(*) FROM customer c, supplier s WHERE c.c_nation = s.s_nation";
        let (_, _, mut forward) = setup();
        let (_, _, mut backward) = setup();
        for sql in tied {
            assert!(matches!(forward.observe(sql), Observation::New(_)));
        }
        for sql in tied.iter().rev() {
            backward.observe(sql);
        }
        for m in [&mut forward, &mut backward] {
            m.observe(hot);
            m.observe(hot);
        }
        let names = |m: &WorkloadMonitor| -> Vec<(String, u64)> {
            m.pending().into_iter().map(|(q, n)| (q.name, n)).collect()
        };
        let order = names(&forward);
        assert_eq!(order, names(&backward));
        assert_eq!(order.len(), 5);
        assert_eq!(order[0].1, 2, "the hottest query leads");
        assert!(
            order[1..].windows(2).all(|w| w[0].0 < w[1].0),
            "ties break by name: {order:?}"
        );
    }

    #[test]
    fn rejected_sql_reported() {
        let (_, _, mut m) = setup();
        assert!(matches!(
            m.observe("SELECT FROM WHERE"),
            Observation::Rejected(_)
        ));
        assert!(matches!(
            m.observe("SELECT * FROM nonexistent"),
            Observation::Rejected(_)
        ));
    }

    #[test]
    fn window_reset_clears_counts() {
        let (_, _, mut m) = setup();
        m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
             AND l.lo_orderkey < 500",
        );
        assert!(m.frequencies().is_some());
        m.reset_window();
        assert!(m.frequencies().is_none());
        assert_eq!(m.window_total(), 0);
    }
}
