//! Distributed-DBMS execution simulator.
//!
//! This crate stands in for the paper's CloudLab clusters running
//! Postgres-XL and "System-X" (a commercial in-memory DBMS). It is a real
//! (if miniature) distributed execution engine, not a formula:
//!
//! * [`datagen`] generates actual rows for every table from deterministic
//!   value functions (dense primary keys, foreign keys, Zipf-skewed
//!   low-cardinality columns, values inherited through foreign keys,
//!   compound keys);
//! * [`cluster::Cluster`] shards those rows over N simulated nodes
//!   according to a deployed [`Partitioning`](lpa_partition::Partitioning),
//!   charges repartitioning time when the deployment changes, and executes
//!   queries;
//! * [`substrate::Substrate`] is the immutable half of that — schema,
//!   config, rows — shareable between clusters over the same database,
//!   with a memo of fault-free executions (DESIGN.md §16);
//! * [`executor`] runs each query's join tree as per-node hash joins with
//!   real broadcasts and shuffles over the generated keys — locality,
//!   value skew and straggler effects *emerge* from the data instead of
//!   being assumed;
//! * [`engine`] captures the differences between the two systems under
//!   test (disk vs memory storage, shuffle overheads, hash function,
//!   compound-key support, whether optimizer cost estimates are
//!   accessible);
//! * [`optimizer`] provides the engine's own — deliberately imperfect —
//!   cost estimates, which both pick the execution plans and feed the
//!   "minimum optimizer cost" baseline;
//! * [`hardware`] holds the deployment knobs varied in Experiment 5
//!   (10 Gbps vs 0.6 Gbps interconnect, standard vs slower compute).
//!
//! Because all times are *simulated* seconds derived from actually-measured
//! data volumes, experiments are deterministic and the training-time ledger
//! of Table 2 can be reproduced exactly.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cluster;
pub mod columnar;
pub mod datagen;
pub mod engine;
pub mod executor;
pub mod faults;
pub mod guardrail;
pub mod hardware;
pub mod optimizer;
pub mod substrate;

pub use cluster::{Cluster, ClusterConfig, ClusterResumeState, QueryOutcome};
pub use columnar::ExecScratch;
pub use datagen::{Database, TableData};
pub use engine::{EngineKind, EngineProfile};
pub use executor::{naive_executor_forced, with_naive_executor};
pub use faults::{ClusterHealth, FailReason, FaultAccounting, FaultPlan, FaultState};
pub use guardrail::{
    direct_deploy, observe_window, CanaryState, CanaryStep, CanaryVerdict, CandidateDeploy,
    Guardrail, GuardrailAccounting, GuardrailConfig, GuardrailEvent, GuardrailResumeState,
    LayoutDigest, RejectReason, RollbackReason, WindowObservation,
};
pub use hardware::HardwareProfile;
pub use optimizer::OptimizerEstimator;
pub use substrate::{Substrate, SubstrateStats};
