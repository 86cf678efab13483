//! Training-time ledger for the Table 2 ablation.
//!
//! A single instrumented online-training run records, next to the time it
//! actually spent, the time it *would* have spent without each
//! optimization — exactly how the paper measured Table 2 ("by keeping
//! track of the queries that would be executed twice without Runtime
//! Caching, how often a table would be repartitioned without Lazy
//! Repartitioning and how much time could be saved with a particular
//! Timeout").

/// Simulated-seconds ledger of one online-training run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostAccounting {
    /// Seconds actually charged for executed queries (after timeouts).
    pub actual_query_seconds: f64,
    /// Full runtimes of executed queries (before timeout savings).
    pub executed_query_seconds_full: f64,
    /// Runtimes served from the cache — the re-execution time the cache
    /// avoided.
    pub cached_query_seconds: f64,
    /// Seconds saved by aborting hopeless queries.
    pub timeout_saved_seconds: f64,
    /// Actual (lazy) repartitioning seconds.
    pub lazy_repartition_seconds: f64,
    /// Hypothetical repartitioning seconds had every state change been
    /// deployed eagerly.
    pub full_repartition_seconds: f64,
    pub queries_executed: u64,
    pub queries_cached: u64,
    pub timeouts_hit: u64,
}

impl CostAccounting {
    /// Training time with no optimizations: every query re-runs, every
    /// state change repartitions eagerly, no timeouts.
    pub fn row_none(&self) -> f64 {
        self.executed_query_seconds_full + self.cached_query_seconds + self.full_repartition_seconds
    }

    /// + Runtime Cache.
    pub fn row_cache(&self) -> f64 {
        self.executed_query_seconds_full + self.full_repartition_seconds
    }

    /// + Lazy Repartitioning.
    pub fn row_lazy(&self) -> f64 {
        self.executed_query_seconds_full + self.lazy_repartition_seconds
    }

    /// + Timeouts (everything except the offline bootstrap, which is
    ///   measured by running a second, bootstrapped training).
    pub fn row_timeouts(&self) -> f64 {
        self.actual_query_seconds + self.lazy_repartition_seconds
    }

    /// Total time actually spent by this run.
    pub fn total(&self) -> f64 {
        self.row_timeouts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_monotonically_cheaper() {
        let acc = CostAccounting {
            actual_query_seconds: 10.0,
            executed_query_seconds_full: 14.0,
            cached_query_seconds: 50.0,
            timeout_saved_seconds: 4.0,
            lazy_repartition_seconds: 5.0,
            full_repartition_seconds: 40.0,
            queries_executed: 7,
            queries_cached: 30,
            timeouts_hit: 2,
        };
        assert!(acc.row_none() > acc.row_cache());
        assert!(acc.row_cache() > acc.row_lazy());
        assert!(acc.row_lazy() > acc.row_timeouts());
        assert_eq!(acc.row_none(), 104.0);
        assert_eq!(acc.row_timeouts(), 15.0);
        assert_eq!(acc.total(), acc.row_timeouts());
    }
}
