//! # lpa — a learned partitioning advisor for cloud databases
//!
//! A from-scratch Rust implementation of *"Learning a Partitioning Advisor
//! for Cloud Databases"* (Hilprecht, Binnig, Röhm — SIGMOD 2020): a Deep-
//! Q-Learning agent that decides how to horizontally partition / replicate
//! the tables of a distributed OLAP database, plus every substrate the
//! paper depends on — benchmark schemas and workloads, the network-centric
//! cost model, a distributed-execution simulator standing in for
//! Postgres-XL / System-X clusters, the DQN machinery, and all evaluated
//! baselines.
//!
//! ## Quick start
//!
//! ```no_run
//! use lpa::prelude::*;
//!
//! // 1. A schema and a representative workload (here: the paper's
//! //    three-table microbenchmark).
//! let schema = lpa::schema::microbench::schema(0.05).expect("schema builds");
//! let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
//!
//! // 2. Offline phase: bootstrap a DQN agent against the simple
//! //    network-centric cost model (Section 4.1 / Algorithm 1).
//! let cfg = DqnConfig::simulation(150, 10);
//! let mut advisor = Advisor::train_offline(
//!     schema.clone(),
//!     workload.clone(),
//!     NetworkCostModel::new(CostParams::standard()),
//!     MixSampler::uniform(&workload),
//!     cfg,
//!     true,
//! );
//!
//! // 3. Ask for a partitioning for the observed workload mix.
//! let mix = workload.uniform_frequencies();
//! let suggestion = advisor.suggest(&mix);
//! println!("suggested: {}", suggestion.partitioning.describe(&schema));
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`schema`] | catalog model + SSB / TPC-DS / TPC-CH / microbenchmark schemas |
//! | [`workload`] | join-graph queries, frequency vectors, built-in workloads |
//! | [`partition`] | partitioning state, actions, DRL encodings |
//! | [`costmodel`] | the network-centric cost model of the offline phase |
//! | [`cluster`] | the distributed-execution simulator (two engine profiles) |
//! | [`nn`] | dense NN from scratch (Adam, ReLU, MSE) |
//! | [`par`] | deterministic thread pool: bit-identical results for any `LPA_THREADS` |
//! | [`rl`] | generic DQN (replay, target net, ε-greedy) |
//! | [`advisor`] | offline/online training, inference, committee, incremental |
//! | [`baselines`] | heuristics, minimum-optimizer designer, neural cost model |
//! | [`sql`] | SQL frontend: parse observed statements into join graphs |
//! | [`service`] | workload monitoring, forecasting, repartition controller |
//! | [`store`] | crash-safe checkpointing: atomic writes, CRC framing, bit-identical resume |

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

pub use lpa_advisor as advisor;
pub use lpa_baselines as baselines;
pub use lpa_cluster as cluster;
pub use lpa_costmodel as costmodel;
pub use lpa_nn as nn;
pub use lpa_par as par;
pub use lpa_partition as partition;
pub use lpa_rl as rl;
pub use lpa_schema as schema;
pub use lpa_service as service;
pub use lpa_sql as sql;
pub use lpa_store as store;
pub use lpa_workload as workload;

/// The most common imports for building and querying an advisor.
pub mod prelude {
    pub use lpa_advisor::{
        Advisor, AdvisorEnv, Committee, OnlineBackend, OnlineOptimizations, RewardBackend,
        Suggestion,
    };
    pub use lpa_baselines::{heuristic_a, heuristic_b, SchemaClass};
    pub use lpa_cluster::{
        Cluster, ClusterConfig, EngineProfile, FaultAccounting, FaultPlan, HardwareProfile,
        QueryOutcome,
    };
    pub use lpa_costmodel::{CostParams, NetworkCostModel};
    pub use lpa_partition::{Action, Partitioning, StateEncoder, TableState};
    pub use lpa_rl::DqnConfig;
    pub use lpa_schema::{Schema, SchemaBuilder};
    pub use lpa_service::{
        Benchmark, Fleet, FleetConfig, FleetReport, PartitioningService, QuarantinePolicy,
        ServiceConfig, TenantSpec, TenantStatus, WorkloadMonitor,
    };
    pub use lpa_sql::parse_query;
    pub use lpa_workload::{FrequencyVector, MixSampler, QueryBuilder, Workload};
}
