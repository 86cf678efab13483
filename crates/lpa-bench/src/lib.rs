//! Shared machinery for the experiment harness.
//!
//! One binary per paper table/figure lives in `src/bin/`. Everything here
//! is glue: building benchmark instances at simulator scale, training
//! advisors with the scaled Table-1 configuration, evaluating
//! partitionings on fresh clusters, and printing/saving results. Nothing
//! here reads the wall clock: performance is measured by `lpa-perf`.

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

pub mod accuracy;
pub mod chaos;
pub mod report;
pub mod setup;

pub use accuracy::{accuracy, Approach};
pub use chaos::SeededChaos;
pub use report::{bar, figure, save_json, Series};
pub use setup::{Benchmark, ExperimentScale};
