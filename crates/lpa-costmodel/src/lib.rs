//! The paper's "simple yet generic network-centric cost model" (Sections 2
//! and 4.1), used to bootstrap the DRL agent offline and to simulate
//! partitionings at inference time.
//!
//! For a query and a partitioning it enumerates join orders, picks the
//! cheapest distribution strategy per join — co-located join, broadcast of
//! one side, directed repartitioning, or symmetric repartitioning — and
//! accumulates the network-transfer and computation costs. The model is
//! intentionally simple (that is the point of the paper's online phase),
//! but it does reflect shard-size *imbalance* of low-cardinality or skewed
//! partition keys, which the paper notes its cost model captured for the
//! TPC-CH compound-key case.

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
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod imbalance;
pub mod model;
pub mod params;
pub mod plan;

pub use imbalance::partition_imbalance;
pub use model::NetworkCostModel;
pub use params::CostParams;
pub use plan::{JoinStrategy, PlanStep, QueryPlan};
