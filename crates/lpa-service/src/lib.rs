//! The partitioning advisor **as a service** — the production loop of the
//! paper's Figure 1, plus its stated future work.
//!
//! Once an advisor is trained, a cloud provider runs it continuously
//! against each customer database:
//!
//! 1. [`monitor::WorkloadMonitor`] ingests the SQL text the customer's
//!    applications submit, maps each statement onto the advisor's
//!    representative query set (structural signature + selectivity
//!    bucketization, Section 3.2), counts frequencies per decision window,
//!    and quarantines genuinely new queries;
//! 2. [`forecast::FrequencyForecaster`] smooths and extrapolates the
//!    observed frequency vectors (the paper's future work: "combine our
//!    approach with systems that predict future workloads to pro-actively
//!    re-partition");
//! 3. [`service::PartitioningService`] asks the advisor for a partitioning
//!    for the (forecast) mix and stages it **through the deployment
//!    guardrail** (`lpa_cluster::guardrail`): the candidate must amortize
//!    its repartitioning cost (the paper's future work: "decide whether
//!    the costs for repartitioning pay off in the long run"), survive a
//!    canary window of *observed* runtimes, and respect the
//!    repartitioning budget — otherwise it is rejected or rolled back.
//!    Incremental training triggers when enough new queries accumulate
//!    (Section 5).

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
        clippy::disallowed_methods
    )
)]

pub mod fleet;
pub mod forecast;
pub mod hook;
pub mod monitor;
pub mod service;

pub use fleet::{
    Benchmark, Fleet, FleetConfig, FleetError, FleetReport, FleetStoreCounters, HealthRollup,
    JournalRecord, QuarantinePolicy, SubstrateReport, TenantCounters, TenantErrorKind,
    TenantReport, TenantRestore, TenantSpec, TenantStatus, EPISODES_PER_SLICE, TENANT_BATCH_SIZE,
    TENANT_HIDDEN, TENANT_TMAX, WINDOW_SECONDS,
};
pub use forecast::FrequencyForecaster;
pub use hook::{NoHook, SliceHook};
pub use monitor::{Observation, WorkloadMonitor};
pub use service::{
    PartitioningService, ServiceConfig, ServiceEvent, ServiceResumeState, WindowReport,
    FORECAST_HORIZON, INCREMENTAL_EPISODES, INCREMENTAL_THRESHOLD,
};
