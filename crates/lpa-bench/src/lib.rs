//! Shared machinery for the experiment harness.
//!
//! One binary per paper table/figure lives in `src/bin/`. Everything here
//! is glue: building benchmark instances at simulator scale, training
//! advisors with the scaled Table-1 configuration, evaluating
//! partitionings on fresh clusters, and printing/saving results. Nothing
//! here reads the wall clock: performance is measured by `lpa-perf`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod accuracy;
pub mod chaos;
pub mod report;
pub mod setup;

pub use accuracy::{accuracy, Approach};
pub use chaos::SeededChaos;
pub use report::{bar, figure, save_json, Series};
pub use setup::{Benchmark, ExperimentScale};
