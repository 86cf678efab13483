//! Partitioning state, action space and DRL encodings (Section 3.2 of the
//! paper).
//!
//! * [`Partitioning`] — per-table state (replicated / hash-partitioned by
//!   one attribute) plus the activation flags of the candidate
//!   co-partitioning edges;
//! * [`Action`] — partition a table by an attribute, replicate a table, or
//!   (de-)activate an edge, with the paper's conflict-freedom rule;
//! * [`StateEncoder`] — the fixed-length binary state vector (appended
//!   table one-hots, edge bits, query frequencies) and one-hot action
//!   encoding fed into the Q-network;
//! * [`fingerprint`] — interned fixed-width cache keys over partitioning
//!   states (the allocation-free key layer behind the cost/runtime caches
//!   and the action-set cache).

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

pub mod action;
pub mod delta_encoder;
pub mod encoder;
pub mod fingerprint;
pub mod partitioning;

pub use action::{valid_actions, Action, ActionError};
pub use delta_encoder::DeltaEncoder;
pub use encoder::StateEncoder;
pub use fingerprint::{fingerprint64, ActionSetCache, InternedKey, KeyInterner};
pub use partitioning::{Partitioning, TableState};
