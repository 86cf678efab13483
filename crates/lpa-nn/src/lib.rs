//! Minimal feed-forward neural-network library, written from scratch for
//! the Q-network of the DRL partitioning advisor and for the learned-cost-
//! model baseline.
//!
//! Scope is deliberately small — dense layers, ReLU, a linear scalar head,
//! MSE loss and the Adam optimizer — exactly what the paper's Keras model
//! uses (Table 1: 128-64 hidden layers, ReLU, linear output, Adam).
//! Everything is `f32`, row-major, allocation-conscious in the hot paths,
//! and fully deterministic given a seed.

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

pub mod adam;
pub mod dense;
pub mod matrix;
pub mod mlp;
pub mod reference;

pub use adam::Adam;
pub use dense::Dense;
pub use matrix::{route_pool, with_naive_kernels, Matrix, RowGroups};
pub use mlp::{Mlp, MlpScratch};

/// Re-exported so downstream hot paths (the RL train step, committee
/// inference) can resolve the ambient deterministic pool once and pass it
/// through the kernels without depending on `lpa-par` directly.
pub use lpa_par::Pool;
