//! Physical plan produced by the cost model — exposed for tests, ablation
//! benches and `EXPLAIN`-style debugging of advisor decisions.

use lpa_schema::TableId;
use std::fmt;

/// How one join distributes its inputs (Section 4.1 lists: symmetric
/// repartitioning join, broadcast of a single table, and co-located join).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinStrategy {
    /// Both inputs already partitioned on the join key — no transfer.
    CoLocated,
    /// One side is replicated everywhere — no transfer.
    ReplicatedSide,
    /// Ship the (smaller) named side to every node.
    Broadcast { table_side: bool },
    /// Re-hash one side onto the other's partitioning.
    DirectedRepartition { table_side: bool },
    /// Re-hash both sides on the join key.
    SymmetricRepartition,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CoLocated => write!(f, "co-located"),
            Self::ReplicatedSide => write!(f, "replicated side"),
            Self::Broadcast { table_side } => {
                write!(
                    f,
                    "broadcast {}",
                    if *table_side { "table" } else { "intermediate" }
                )
            }
            Self::DirectedRepartition { table_side } => write!(
                f,
                "repartition {}",
                if *table_side { "table" } else { "intermediate" }
            ),
            Self::SymmetricRepartition => write!(f, "symmetric repartition"),
        }
    }
}

/// One join step of a plan.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// Index into the query's join list of the predicate this step applies.
    pub join_index: usize,
    /// The base table joined into the running intermediate.
    pub table: TableId,
    pub strategy: JoinStrategy,
    /// Estimated output rows after this join.
    pub out_rows: f64,
    /// Network seconds charged for this join.
    pub net_seconds: f64,
    /// Compute seconds charged for this join.
    pub cpu_seconds: f64,
}

/// A full plan for one query under one partitioning.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// The base table the pipeline starts from (left side of the first
    /// step); `None` for single-table queries.
    pub start_table: Option<TableId>,
    /// Scan seconds over all base tables.
    pub scan_seconds: f64,
    pub steps: Vec<PlanStep>,
    /// Total estimated seconds (scan + joins).
    pub total_seconds: f64,
}

impl QueryPlan {
    /// Network seconds across all steps.
    pub fn net_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.net_seconds).sum()
    }

    /// True if no join moved any data.
    pub fn fully_local(&self) -> bool {
        self.steps.iter().all(|s| {
            matches!(
                s.strategy,
                JoinStrategy::CoLocated | JoinStrategy::ReplicatedSide
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_display() {
        assert_eq!(JoinStrategy::CoLocated.to_string(), "co-located");
        assert_eq!(
            JoinStrategy::Broadcast { table_side: true }.to_string(),
            "broadcast table"
        );
    }

    #[test]
    fn fully_local_detection() {
        let mut p = QueryPlan::default();
        p.steps.push(PlanStep {
            join_index: 0,
            table: TableId(1),
            strategy: JoinStrategy::CoLocated,
            out_rows: 10.0,
            net_seconds: 0.0,
            cpu_seconds: 0.1,
        });
        assert!(p.fully_local());
        p.steps.push(PlanStep {
            join_index: 1,
            table: TableId(2),
            strategy: JoinStrategy::SymmetricRepartition,
            out_rows: 10.0,
            net_seconds: 0.5,
            cpu_seconds: 0.1,
        });
        assert!(!p.fully_local());
        assert!((p.net_seconds() - 0.5).abs() < 1e-12);
    }
}
