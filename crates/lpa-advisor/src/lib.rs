//! The learned partitioning advisor — the paper's core contribution.
//!
//! * [`env::AdvisorEnv`] casts the partitioning problem as a DQN
//!   environment (Section 3): states are (partitioning, workload-mix)
//!   pairs, actions change one table or toggle one co-partitioning edge,
//!   rewards are negative frequency-weighted workload costs.
//! * [`advisor::Advisor`] trains offline against the network-centric cost
//!   model (Algorithm 1), optionally refines online against measured
//!   runtimes on a sampled cluster (Section 4.2 with all four
//!   optimizations: sampling + scale factors, query-runtime caching, lazy
//!   repartitioning, timeouts), and suggests partitionings by greedy
//!   rollout with best-state selection (Section 6).
//! * [`committee::Committee`] implements the DRL subspace experts and
//!   [`incremental`] the cheap retraining for new queries (Section 5).
//! * [`accounting::CostAccounting`] is the simulated-time ledger behind
//!   the Table 2 training-time ablation.

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

pub mod accounting;
pub mod advisor;
pub mod cache;
pub mod committee;
pub mod delta;
pub mod env;
pub mod explain;
pub mod incremental;
pub mod online;

pub use accounting::CostAccounting;
pub use advisor::{Advisor, Suggestion};
pub use cache::{shared_cache, CachedRuntime, RuntimeCache, SharedRuntimeCache};
pub use committee::Committee;
pub use delta::{reference_reward, DeltaCostEngine};
pub use env::{AdvisorEnv, EnvState, RewardBackend};
pub use explain::{Explanation, QueryDelta};
pub use online::{
    shared_cluster, OnlineBackend, OnlineOptimizations, OnlineResumeState, RetryPolicy,
    SharedCluster,
};
