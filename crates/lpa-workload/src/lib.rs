//! Query and workload model for the learned partitioning advisor.
//!
//! The paper featurizes a workload as a vector of *normalized query
//! frequencies* over a representative set of recurring OLAP queries
//! (Section 3.2). This crate provides:
//!
//! * [`Query`] — a join-graph representation of one recurring query
//!   (tables, equi-join predicates with co-partitioning alternatives, local
//!   predicate selectivities);
//! * [`Workload`] — the representative query set, plus reserved slots for
//!   queries that appear later (supported without retraining from scratch);
//! * [`FrequencyVector`] — the normalized per-query frequencies that form
//!   the workload part of the DRL state;
//! * [`buckets`] — selectivity bucketization so parameterized re-runs of a
//!   query map onto existing frequency entries;
//! * [`sampler`] — workload-mix samplers used for training and for the
//!   Fig. 5 / Fig. 7b workload clusters;
//! * built-in workloads for the paper's four benchmarks.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod buckets;
pub mod microbench;
pub mod query;
pub mod sampler;
pub mod ssb;
pub mod tpcch;
pub mod tpcds;
pub mod workload;

pub use buckets::SelectivityBuckets;
pub use query::{JoinPred, Query, QueryBuilder, QueryError, QueryId};
pub use sampler::MixSampler;
pub use workload::{register_workload_edges, FrequencyVector, Workload};

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_schema::Schema;

    type BuildFn = fn(&Schema) -> Result<Workload, QueryError>;

    #[test]
    fn builtin_workloads_are_consistent() {
        let cases: [(Schema, BuildFn, usize); 3] = [
            (
                lpa_schema::ssb::schema(1.0).expect("schema builds"),
                ssb::workload,
                13,
            ),
            (
                lpa_schema::tpcch::schema(1.0).expect("schema builds"),
                tpcch::workload,
                22,
            ),
            (
                lpa_schema::microbench::schema(1.0).expect("schema builds"),
                microbench::workload,
                2,
            ),
        ];
        for (schema, build, n) in cases {
            let w = build(&schema).expect("workload builds");
            assert_eq!(w.queries().len(), n, "{}", schema.name);
            for q in w.queries() {
                q.validate(&schema)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", schema.name, q.name));
            }
        }
    }

    #[test]
    fn tpcds_workload_has_60_queries() {
        let schema = lpa_schema::tpcds::schema(1.0).expect("schema builds");
        let w = tpcds::workload(&schema).expect("workload builds");
        assert_eq!(w.queries().len(), 60);
        for q in w.queries() {
            q.validate(&schema)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        }
    }

    #[test]
    fn every_builtin_join_pair_has_a_schema_edge() {
        // Co-partitioning shortcuts only exist for declared edges; make sure
        // the primary join pairs of the built-in workloads are all covered.
        let pairs: [(Schema, BuildFn); 4] = [
            (
                lpa_schema::ssb::schema(1.0).expect("schema builds"),
                ssb::workload,
            ),
            (
                lpa_schema::tpcds::schema(1.0).expect("schema builds"),
                tpcds::workload,
            ),
            (
                lpa_schema::tpcch::schema(1.0).expect("schema builds"),
                tpcch::workload,
            ),
            (
                lpa_schema::microbench::schema(1.0).expect("schema builds"),
                microbench::workload,
            ),
        ];
        for (schema, build) in pairs {
            let w = build(&schema).expect("workload builds");
            for q in w.queries() {
                for j in &q.joins {
                    let (a, b) = j.pairs[0];
                    assert!(
                        schema.edge_between(a, b).is_some(),
                        "{}/{}: join {a} = {b} has no candidate edge",
                        schema.name,
                        q.name
                    );
                }
            }
        }
    }
}
