//! Workloads and normalized frequency vectors (the workload part of the
//! DRL state, Section 3.2).

use crate::query::{Query, QueryId};

/// A representative query set plus optional *reserved slots*.
///
/// Reserved slots are frequency entries that are initially always zero; if
/// completely new queries appear later they take over a reserved slot and
/// the advisor is retrained incrementally (Section 5) instead of from
/// scratch.
#[derive(Clone, Debug)]
pub struct Workload {
    queries: Vec<Query>,
    reserved_slots: usize,
}

impl Workload {
    pub fn new(queries: Vec<Query>) -> Self {
        Self {
            queries,
            reserved_slots: 0,
        }
    }

    /// Reserve `n` extra frequency entries for future queries.
    pub fn with_reserved_slots(mut self, n: usize) -> Self {
        self.reserved_slots = n;
        self
    }

    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "query ids are minted by this workload"
    )]
    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.0]
    }

    pub fn reserved_slots(&self) -> usize {
        self.reserved_slots
    }

    /// Length of the frequency vector (queries + reserved slots).
    pub fn slots(&self) -> usize {
        self.queries.len() + self.reserved_slots
    }

    /// Add a new query into a reserved slot (incremental extension).
    /// Returns its id, or hands the query back if no slot is free.
    pub fn add_query(&mut self, query: Query) -> Result<QueryId, Query> {
        if self.reserved_slots == 0 {
            return Err(query);
        }
        self.reserved_slots -= 1;
        self.queries.push(query);
        Ok(QueryId(self.queries.len() - 1))
    }

    /// Ids of all current queries.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> {
        (0..self.queries.len()).map(QueryId)
    }

    /// Uniform frequency vector over the current queries.
    pub fn uniform_frequencies(&self) -> FrequencyVector {
        FrequencyVector::from_counts(&vec![1.0; self.queries.len()], self.slots())
    }
}

/// Declare a candidate co-partitioning edge for every join pair the
/// workload uses (Section 3.2: "the fixed set of possible edges E can
/// easily be extracted from the given schema and workload"). Returns the
/// number of edges added. Pairs on non-partitionable attributes are
/// skipped — they could never be activated.
pub fn register_workload_edges(schema: &mut lpa_schema::Schema, workload: &Workload) -> usize {
    let mut added = 0;
    for q in workload.queries() {
        for j in &q.joins {
            for &(a, b) in &j.pairs {
                if !schema.attribute(a).partitionable || !schema.attribute(b).partitionable {
                    continue;
                }
                let before = schema.edges().len();
                if schema.add_workload_edge(a, b).is_some() && schema.edges().len() > before {
                    added += 1;
                }
            }
        }
    }
    added
}

/// Normalized query frequencies `s(Q) = (f_1 … f_m)`.
///
/// The paper normalizes so the most frequent query has frequency 1 (the
/// Fig. 2 example `(0.5, 1)`); entries beyond the observed queries (the
/// reserved slots) stay 0.
#[derive(Clone, PartialEq, Debug)]
pub struct FrequencyVector(Vec<f64>);

impl FrequencyVector {
    /// Normalize raw occurrence counts; `slots` pads with zeros for
    /// reserved entries. All counts must be non-negative, at least one
    /// positive.
    #[expect(
        clippy::indexing_slicing,
        reason = "counts.len() <= slots is asserted, so i < v.len()"
    )]
    pub fn from_counts(counts: &[f64], slots: usize) -> Self {
        assert!(counts.len() <= slots, "more counts than slots");
        assert!(counts.iter().all(|c| *c >= 0.0), "negative count");
        let max = counts.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max > 0.0, "at least one query must occur");
        let mut v = vec![0.0; slots];
        for (i, c) in counts.iter().enumerate() {
            v[i] = c / max;
        }
        Self(v)
    }

    /// Uniform vector of the given length (all ones).
    pub fn uniform(slots: usize) -> Self {
        assert!(slots > 0);
        Self(vec![1.0; slots])
    }

    /// An "extreme" vector over-representing one query — used to derive the
    /// reference partitionings for the committee of experts (Section 5).
    #[expect(
        clippy::indexing_slicing,
        reason = "hot is a query id of this workload, whose length sized counts"
    )]
    pub fn extreme(slots: usize, hot: QueryId, f_low: f64, f_high: f64) -> Self {
        assert!(hot.0 < slots);
        assert!(f_high > 0.0 && f_low >= 0.0 && f_low <= f_high);
        let mut counts = vec![f_low; slots];
        counts[hot.0] = f_high;
        Self::from_counts(&counts, slots)
    }

    /// Rebuild from raw (already-normalized) entries, bit-for-bit — the
    /// checkpoint restore path. Unlike [`Self::from_counts`] nothing is
    /// re-normalized, so the restored vector is byte-identical to the one
    /// captured.
    pub fn from_raw(values: Vec<f64>) -> Self {
        Self(values)
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "query ids are minted by the workload this vector was sized for"
    )]
    pub fn get(&self, id: QueryId) -> f64 {
        self.0[id.0]
    }

    /// Grow the vector with zero entries (used when a workload gains new
    /// query slots).
    pub fn resized(&self, slots: usize) -> Self {
        assert!(slots >= self.0.len());
        let mut v = self.0.clone();
        v.resize(slots, 0.0);
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn tiny_workload() -> Workload {
        let s = lpa_schema::microbench::schema(0.001).expect("schema builds");
        crate::microbench::workload(&s).expect("workload builds")
    }

    #[test]
    fn normalization_matches_paper_example() {
        // q2 occurs twice as often as q1 → (0.5, 1) per Fig. 2b.
        let f = FrequencyVector::from_counts(&[1.0, 2.0], 2);
        assert_eq!(f.as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn reserved_slots_pad_with_zero() {
        let f = FrequencyVector::from_counts(&[3.0], 3);
        assert_eq!(f.as_slice(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn extreme_vector() {
        let f = FrequencyVector::extreme(3, QueryId(1), 0.1, 1.0);
        assert_eq!(f.as_slice(), &[0.1, 1.0, 0.1]);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn all_zero_counts_panic() {
        let _ = FrequencyVector::from_counts(&[0.0, 0.0], 2);
    }

    #[test]
    fn add_query_consumes_reserved_slot() {
        let mut w = tiny_workload().with_reserved_slots(1);
        assert_eq!(w.slots(), 3);
        let s = lpa_schema::microbench::schema(0.001).expect("schema builds");
        let q = QueryBuilder::new(&s, "new").scan("a").finish().unwrap();
        let id = w.add_query(q).expect("slot reserved");
        assert_eq!(id, QueryId(2));
        assert_eq!(w.slots(), 3);
        assert_eq!(w.reserved_slots(), 0);
        let s2 = lpa_schema::microbench::schema(0.001).expect("schema builds");
        let q2 = QueryBuilder::new(&s2, "overflow")
            .scan("b")
            .finish()
            .unwrap();
        assert!(w.add_query(q2).is_err());
    }

    #[test]
    fn register_workload_edges_adds_missing_pairs() {
        // A schema with no declared edges gains them from the workload.
        let mut b = lpa_schema::SchemaBuilder::new("bare");
        b.table(lpa_schema::Table::new(
            "f",
            vec![
                lpa_schema::Attribute::new("f_pk", lpa_schema::Domain::PrimaryKey),
                lpa_schema::Attribute::new(
                    "f_d",
                    lpa_schema::Domain::ForeignKey(lpa_schema::TableId(1)),
                ),
            ],
            100,
            10,
        ));
        b.table(lpa_schema::Table::new(
            "d",
            vec![lpa_schema::Attribute::new(
                "d_pk",
                lpa_schema::Domain::PrimaryKey,
            )],
            10,
            10,
        ));
        let mut schema = b.build().unwrap();
        assert_eq!(schema.edges().len(), 0);
        let q = QueryBuilder::new(&schema, "q")
            .join(("f", "f_d"), ("d", "d_pk"))
            .finish()
            .unwrap();
        let w = Workload::new(vec![q]);
        let added = register_workload_edges(&mut schema, &w);
        assert_eq!(added, 1);
        assert_eq!(schema.edges().len(), 1);
        // Idempotent.
        assert_eq!(register_workload_edges(&mut schema, &w), 0);
    }

    #[test]
    fn resized_keeps_prefix() {
        let f = FrequencyVector::from_counts(&[1.0, 2.0], 2).resized(4);
        assert_eq!(f.as_slice(), &[0.5, 1.0, 0.0, 0.0]);
    }
}
