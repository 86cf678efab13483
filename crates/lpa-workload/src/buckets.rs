//! Selectivity bucketization (Section 3.2).
//!
//! OLAP queries recur with different parameter values and thus different
//! selectivities. Rather than treating each parameterization as a brand-new
//! query, the paper buckets queries into *classes with selectivity ranges*
//! and dedicates one frequency entry per bucket. A re-parameterized query
//! then maps onto an existing entry instead of requiring retraining.

use crate::query::{Query, QueryError};

/// Log-scaled selectivity buckets.
///
/// Bucket `i` covers `(edges[i-1], edges[i]]` with `edges[-1] = 0` and the
/// last bucket extending to 1.0. Edges must be strictly increasing in
/// `(0, 1)`.
#[derive(Clone, Debug)]
pub struct SelectivityBuckets {
    edges: Vec<f64>,
}

impl SelectivityBuckets {
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty());
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        assert!(edges.iter().all(|e| *e > 0.0 && *e < 1.0));
        Self { edges }
    }

    /// The paper-style default: three classes (highly selective, selective,
    /// broad), spaced geometrically.
    pub fn default_three() -> Self {
        Self::new(vec![0.01, 0.1])
    }

    /// Number of buckets.
    pub fn count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Map a selectivity to a bucket index.
    pub fn classify(&self, selectivity: f64) -> usize {
        assert!(
            selectivity > 0.0 && selectivity <= 1.0,
            "selectivity must be in (0,1]"
        );
        self.edges
            .iter()
            .position(|e| selectivity <= *e)
            .unwrap_or(self.edges.len())
    }

    /// Representative selectivity of a bucket (geometric midpoint).
    pub fn representative(&self, bucket: usize) -> f64 {
        assert!(bucket < self.count());
        let lo = if bucket == 0 {
            self.edges[0] / 10.0
        } else {
            self.edges[bucket - 1]
        };
        let hi = if bucket == self.edges.len() {
            1.0
        } else {
            self.edges[bucket]
        };
        (lo * hi).sqrt()
    }

    /// Instantiate one query variant per bucket from a template by scaling
    /// the filter on `filter_table` (named) to each bucket's representative
    /// selectivity. Variant names get a `#b<i>` suffix.
    pub fn instantiate(
        &self,
        schema: &lpa_schema::Schema,
        template: &Query,
        filter_table: &str,
    ) -> Result<Vec<Query>, QueryError> {
        let t = schema.table_by_name(filter_table).ok_or_else(|| {
            QueryError::UnknownTable(format!("{} ({filter_table})", template.name))
        })?;
        let idx = template
            .tables
            .iter()
            .position(|x| *x == t)
            .ok_or_else(|| {
                QueryError::FilterTableNotScanned(format!("{} ({filter_table})", template.name))
            })?;
        Ok((0..self.count())
            .map(|b| {
                let mut q = template.clone();
                q.name = format!("{}#b{b}", template.name);
                if let Some(slot) = q.selectivity.get_mut(idx) {
                    *slot = self.representative(b);
                }
                q
            })
            .collect())
    }
}

impl Default for SelectivityBuckets {
    fn default() -> Self {
        Self::default_three()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    #[test]
    fn classify_boundaries() {
        let b = SelectivityBuckets::default_three();
        assert_eq!(b.count(), 3);
        assert_eq!(b.classify(0.005), 0);
        assert_eq!(b.classify(0.01), 0);
        assert_eq!(b.classify(0.0100001), 1);
        assert_eq!(b.classify(0.1), 1);
        assert_eq!(b.classify(0.5), 2);
        assert_eq!(b.classify(1.0), 2);
    }

    #[test]
    fn representatives_fall_inside_bucket() {
        let b = SelectivityBuckets::default_three();
        for i in 0..b.count() {
            let r = b.representative(i);
            assert_eq!(b.classify(r), i, "representative of bucket {i}");
        }
    }

    #[test]
    fn instantiate_produces_variants() {
        let s = lpa_schema::ssb::schema(0.001).expect("schema builds");
        let template = QueryBuilder::new(&s, "q")
            .join(("lineorder", "lo_partkey"), ("part", "p_partkey"))
            .filter("part", 0.05)
            .finish()
            .unwrap();
        let b = SelectivityBuckets::default_three();
        let variants = b
            .instantiate(&s, &template, "part")
            .expect("variants build");
        assert_eq!(variants.len(), 3);
        let part = s.table_by_name("part").unwrap();
        let sels: Vec<f64> = variants.iter().map(|q| q.table_selectivity(part)).collect();
        assert!(sels.windows(2).all(|w| w[0] < w[1]));
        assert!(variants.iter().all(|q| q.validate(&s).is_ok()));
        assert_eq!(variants[0].name, "q#b0");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_edges_rejected() {
        let _ = SelectivityBuckets::new(vec![0.5, 0.1]);
    }
}
