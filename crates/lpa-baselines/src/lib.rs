//! Baselines the paper evaluates against (Section 7.1):
//!
//! * [`heuristics`] — the two DBA rules of thumb: co-partition facts with
//!   the most frequently joined / the largest dimension (star schemas), or
//!   replicate-small/partition-by-key vs greedy co-partitioning of the
//!   largest table pairs (complex schemas);
//! * [`optimizer_advisor`] — the classical automated design approach:
//!   search the candidate space minimizing the *engine optimizer's* cost
//!   estimates (unavailable on engines that hide them, like System-X);
//! * [`neural_cost`] — the Section 7.5 alternative: a learned neural cost
//!   model minimized by search, in exploitation- and exploration-driven
//!   variants.

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

pub mod heuristics;
pub mod neural_cost;
pub mod optimizer_advisor;

pub use heuristics::{heuristic_a, heuristic_b, SchemaClass};
pub use neural_cost::{NeuralCostAdvisor, NeuralCostVariant};
pub use optimizer_advisor::minimum_optimizer_partitioning;
