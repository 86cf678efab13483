//! The engine's own query optimizer: plan selection and — where the engine
//! exposes them — cost estimates.
//!
//! Real optimizer cost models are "notoriously inaccurate" (Leis et al.,
//! cited as reference 16 in the paper), and that inaccuracy is the paper's central
//! argument against purely cost-based partitioning advisors. We model it
//! as deterministic, query-specific multiplicative *cardinality estimation
//! errors* whose magnitude grows with the number of joins, applied on top
//! of the same plan machinery the advisor's simple cost model uses. The
//! errors shift when table statistics change (bulk updates bump the stats
//! epoch), which is what makes the minimum-optimizer baseline's plans flip
//! in Fig. 4b.

use crate::engine::{splitmix64, EngineProfile};
use crate::hardware::HardwareProfile;
use lpa_costmodel::{CostParams, NetworkCostModel, QueryPlan};
use lpa_partition::Partitioning;
use lpa_schema::Schema;
use lpa_workload::Query;

/// Plan generator + cost estimator of one engine deployment.
#[derive(Clone, Debug)]
pub struct OptimizerEstimator {
    engine: EngineProfile,
    model: NetworkCostModel,
    /// Magnitude of selectivity misestimation (log-space half-range for a
    /// single-join query; grows with join count).
    error_scale: f64,
}

impl OptimizerEstimator {
    pub fn new(engine: EngineProfile, hw: HardwareProfile) -> Self {
        let params = CostParams {
            nodes: hw.nodes,
            net_bandwidth: hw.net_bandwidth,
            scan_bandwidth: if engine.disk_based {
                hw.disk_scan_bandwidth
            } else {
                hw.mem_scan_bandwidth
            },
            cpu_tuple_cost: hw.cpu_tuple_cost,
            ship_tuple_cost: engine.ship_tuple_cost,
            shuffle_overhead: engine.shuffle_overhead,
        };
        Self {
            engine,
            model: NetworkCostModel::new(params),
            error_scale: 0.8,
        }
    }

    /// Tune the misestimation magnitude (0 disables errors; for tests).
    pub fn with_error_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0);
        self.error_scale = scale;
        self
    }

    /// The plan the engine would execute for `query` under `partitioning`
    /// given the statistics of `stats_epoch`.
    pub fn plan(
        &self,
        schema: &Schema,
        query: &Query,
        partitioning: &Partitioning,
        stats_epoch: u64,
    ) -> QueryPlan {
        let distorted = self.distort(query, stats_epoch);
        self.model.plan(schema, &distorted, partitioning)
    }

    /// The optimizer's cost estimate for the query — what classical
    /// partitioning advisors minimize. `None` when the engine does not
    /// expose estimates (System-X).
    pub fn estimate_cost(
        &self,
        schema: &Schema,
        query: &Query,
        partitioning: &Partitioning,
        stats_epoch: u64,
    ) -> Option<f64> {
        if !self.engine.optimizer_access {
            return None;
        }
        Some(
            self.plan(schema, query, partitioning, stats_epoch)
                .total_seconds,
        )
    }

    /// Apply deterministic per-(query, table, epoch) selectivity errors.
    /// Error magnitude grows with join count, following the observation
    /// that estimation errors compound through joins.
    #[expect(
        clippy::indexing_slicing,
        reason = "a validated query carries one selectivity per scanned table, and i enumerates its tables"
    )]
    fn distort(&self, query: &Query, stats_epoch: u64) -> Query {
        if self.error_scale == 0.0 {
            return query.clone();
        }
        let mut q = query.clone();
        let half_range = self.error_scale * (1.0 + 0.5 * query.joins.len() as f64);
        let qtag = splitmix64(fnv(&query.name) ^ stats_epoch.wrapping_mul(0x9E37));
        for (i, t) in q.tables.clone().iter().enumerate() {
            let u = splitmix64(qtag ^ ((t.0 as u64) << 7)) as f64 / u64::MAX as f64;
            let log_err = (2.0 * u - 1.0) * half_range;
            q.selectivity[i] = (q.selectivity[i] * log_err.exp()).clamp(1e-9, 1.0);
        }
        q
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Schema, lpa_workload::Workload, OptimizerEstimator) {
        let s = lpa_schema::ssb::schema(0.01).expect("schema builds");
        let w = lpa_workload::ssb::workload(&s).expect("workload builds");
        let o = OptimizerEstimator::new(EngineProfile::pgxl(), HardwareProfile::standard());
        (s, w, o)
    }

    #[test]
    fn system_x_hides_estimates() {
        let s = lpa_schema::ssb::schema(0.01).expect("schema builds");
        let w = lpa_workload::ssb::workload(&s).expect("workload builds");
        let o = OptimizerEstimator::new(EngineProfile::system_x(), HardwareProfile::standard());
        let p = Partitioning::initial(&s);
        assert!(o.estimate_cost(&s, &w.queries()[0], &p, 0).is_none());
    }

    #[test]
    fn estimates_are_deterministic_but_epoch_sensitive() {
        let (s, w, o) = setup();
        let p = Partitioning::initial(&s);
        let q = &w.queries()[5];
        let a = o.estimate_cost(&s, q, &p, 0).unwrap();
        let b = o.estimate_cost(&s, q, &p, 0).unwrap();
        assert_eq!(a, b);
        let c = o.estimate_cost(&s, q, &p, 1).unwrap();
        assert_ne!(a, c, "new statistics should change estimates");
    }

    #[test]
    fn zero_error_scale_matches_truth() {
        let (s, w, o) = setup();
        let o = o.with_error_scale(0.0);
        let p = Partitioning::initial(&s);
        let engine = EngineProfile::pgxl();
        let truth = NetworkCostModel::new(CostParams {
            nodes: 4,
            net_bandwidth: HardwareProfile::standard().net_bandwidth,
            scan_bandwidth: HardwareProfile::standard().disk_scan_bandwidth,
            cpu_tuple_cost: HardwareProfile::standard().cpu_tuple_cost,
            ship_tuple_cost: engine.ship_tuple_cost,
            shuffle_overhead: engine.shuffle_overhead,
        });
        for q in w.queries() {
            let est = o.estimate_cost(&s, q, &p, 3).unwrap();
            let t = truth.query_cost(&s, q, &p);
            assert!((est - t).abs() < 1e-9, "{}: {est} vs {t}", q.name);
        }
    }

    #[test]
    fn errors_scale_with_join_count() {
        let (s, w, o) = setup();
        let p = Partitioning::initial(&s);
        // Relative misestimation of a 4-join query should generally exceed
        // that of a 1-join query (averaged over epochs).
        let exact = OptimizerEstimator::new(EngineProfile::pgxl(), HardwareProfile::standard())
            .with_error_scale(0.0);
        let rel_err = |q: &Query| {
            (0..20)
                .map(|e| {
                    let est = o.estimate_cost(&s, q, &p, e).unwrap();
                    let t = exact.estimate_cost(&s, q, &p, e).unwrap();
                    (est / t).ln().abs()
                })
                .sum::<f64>()
                / 20.0
        };
        let small = rel_err(&w.queries()[0]); // 1 join
        let big = rel_err(w.queries().iter().find(|q| q.name == "ssb_q4.1").unwrap());
        assert!(
            big > small * 0.8,
            "multi-join error {big} should be at least comparable to {small}"
        );
    }
}
