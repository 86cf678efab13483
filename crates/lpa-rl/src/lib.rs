//! Generic Deep-Q-Learning (Algorithm 1 of the paper).
//!
//! The crate is deliberately problem-agnostic: an [`QEnvironment`] exposes
//! states, valid actions, a transition function with rewards, and a
//! fixed-length encoding of `(state, action)` pairs; [`DqnAgent`] owns the
//! Q-network, the target network (soft `τ` updates), the experience replay
//! buffer and ε-greedy exploration with per-episode decay; [`train()`] runs
//! the episodic training loop.

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

pub mod agent;
pub mod buffer;
pub mod config;
pub mod env;
pub mod profile;
pub mod train;

pub use agent::{greedy_argmax, AgentSnapshot, DqnAgent};
pub use buffer::{ReplayBuffer, Transition};
pub use config::{DqnConfig, EPSILON_MIN, EPSILON_START, REPLAY_CAPACITY};
pub use env::{EnvCounters, QEnvironment};
pub use train::{rollout, train, train_from, EpisodeStats, Trajectory};
