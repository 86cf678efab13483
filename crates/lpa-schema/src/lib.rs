//! Relational catalog model for the learned partitioning advisor.
//!
//! This crate defines the *static* description of a database that the
//! advisor partitions: tables, attributes (with value-domain metadata used
//! by the data generator and the cost model), and candidate co-partitioning
//! edges between join attributes.
//!
//! It also ships the four benchmark schemas used in the paper's evaluation
//! (Section 7.1):
//!
//! * [`ssb::schema`] — the Star Schema Benchmark (1 fact + 4 dimensions),
//! * [`tpcds::schema`] — TPC-DS (7 fact + 17 dimension tables),
//! * [`tpcch::schema`] — TPC-CH (TPC-C schema queried with TPC-H-style
//!   analytics; includes the paper's restriction that tables may not be
//!   partitioned by `warehouse-id` alone, plus the compound
//!   `(warehouse-id, district-id)` key System-X can partition by),
//! * [`microbench::schema`] — the three-table A/B/C microbenchmark of
//!   Section 7.6.
//!
//! Row counts are parameterized by a scale multiplier so that the
//! distributed-execution simulator can run the same schemas at sample size
//! (the paper's online phase also operates on samples).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        clippy::disallowed_methods,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod attribute;
pub mod edge;
pub mod ids;
pub mod microbench;
pub mod schema;
pub mod ssb;
pub mod table;
pub mod tpcch;
pub mod tpcds;

pub use attribute::{AttrKind, Attribute, Domain, Skew};
pub use edge::JoinEdge;
pub use ids::{AttrId, AttrRef, EdgeId, TableId};
pub use schema::{Schema, SchemaBuilder, SchemaError};
pub use table::Table;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmark_schemas_validate() {
        for schema in [
            ssb::schema(1.0),
            tpcds::schema(1.0),
            tpcch::schema(1.0),
            microbench::schema(1.0),
        ] {
            let schema = schema.expect("built-in schema builds");
            schema.validate().expect("built-in schema must be valid");
        }
    }

    #[test]
    fn benchmark_table_counts_match_paper() {
        assert_eq!(ssb::schema(1.0).expect("schema builds").tables().len(), 5);
        assert_eq!(
            tpcds::schema(1.0).expect("schema builds").tables().len(),
            24
        );
        assert_eq!(
            tpcch::schema(1.0).expect("schema builds").tables().len(),
            12
        );
        assert_eq!(
            microbench::schema(1.0)
                .expect("schema builds")
                .tables()
                .len(),
            3
        );
    }
}
