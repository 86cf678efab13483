//! The repartitioning controller: observe → forecast → suggest → stage
//! through the deployment guardrail (canary, observed-regression rollback,
//! budget) when the benefit amortizes the cost.

use crate::forecast::FrequencyForecaster;
use crate::monitor::{Observation, WorkloadMonitor};
use lpa_advisor::{incremental, Advisor};
use lpa_cluster::{
    CandidateDeploy, Cluster, ClusterResumeState, Guardrail, GuardrailAccounting, GuardrailConfig,
    GuardrailEvent, GuardrailResumeState, QueryOutcome,
};
use lpa_partition::Partitioning;
use lpa_workload::{FrequencyVector, Query};

/// Controller knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Safe-deployment policy: canary windows, regression threshold,
    /// hysteresis, repartitioning budget, and the economic
    /// (`runs_per_window × amortization_windows`) gate.
    pub guardrail: GuardrailConfig,
    /// Forecast horizon in windows (0 = react to the smoothed present).
    pub forecast_horizon: f64,
    /// Trigger incremental training once this many distinct new queries
    /// accumulated.
    pub incremental_threshold: usize,
    /// Episodes for each incremental training round.
    pub incremental_episodes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            guardrail: GuardrailConfig::default(),
            forecast_horizon: 1.0,
            incremental_threshold: 2,
            incremental_episodes: 20,
        }
    }
}

/// What happened during a window decision.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceEvent {
    NoTraffic,
    /// Enough new queries accumulated: `added` took reserved slots and were
    /// trained in, `skipped` were discarded (no slot left, or the workload
    /// refused them) — `added: 0` means the whole batch was dropped.
    IncrementallyTrained {
        added: usize,
        skipped: usize,
    },
    /// A guardrail decision: candidate kept/rejected/staged, canary
    /// observed/extended, commit, rollback.
    Guardrail(GuardrailEvent),
}

/// Summary returned by [`PartitioningService::end_window`].
#[derive(Clone, Debug)]
pub struct WindowReport {
    pub events: Vec<ServiceEvent>,
    pub deployed: Partitioning,
    pub mix_used: Option<FrequencyVector>,
    /// Cluster health at window close: active faults plus cumulative
    /// fault-layer counters (degraded measurements, failovers, timeouts) so
    /// operators can tell representative windows from stormy ones.
    pub health: lpa_cluster::ClusterHealth,
    /// Cumulative guardrail ledger at window close.
    pub guardrail: GuardrailAccounting,
}

/// Checkpointable service state besides the advisor session and the
/// config (which the owner carries): everything [`PartitioningService::new`]
/// starts empty and a crash must not lose — captured into snapshots so a
/// window interrupted mid-way closes bit-identically after a resume.
#[derive(Clone, Debug)]
pub struct ServiceResumeState {
    pub cluster: ClusterResumeState,
    /// The monitor's per-slot counts of the open window.
    pub monitor_counts: Vec<f64>,
    pub monitor_observed: u64,
    /// Quarantined new queries with their observation counts.
    pub monitor_pending: Vec<(Query, u64)>,
    pub forecaster: FrequencyForecaster,
    pub guardrail: GuardrailResumeState,
    /// How many queries at the tail of the advisor's workload were absorbed
    /// from observed SQL rather than built with it.
    pub absorbed: usize,
}

/// The advisor wired into a production database.
#[derive(Debug)]
pub struct PartitioningService {
    advisor: Advisor,
    cluster: Cluster,
    monitor: WorkloadMonitor,
    forecaster: FrequencyForecaster,
    guardrail: Guardrail,
    cfg: ServiceConfig,
    /// Queries absorbed from observed SQL since the workload was built.
    absorbed: usize,
}

impl PartitioningService {
    /// Wrap a trained advisor around a production cluster. The monitor
    /// indexes the advisor's representative workload.
    pub fn new(advisor: Advisor, cluster: Cluster, cfg: ServiceConfig) -> Self {
        let monitor = WorkloadMonitor::new(advisor.env.schema.clone(), &advisor.env.workload);
        let forecaster = FrequencyForecaster::new(advisor.env.workload.slots());
        Self {
            advisor,
            cluster,
            monitor,
            forecaster,
            guardrail: Guardrail::new(cfg.guardrail),
            cfg,
            absorbed: 0,
        }
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (fault-plan installation, bulk updates).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    pub fn advisor(&self) -> &Advisor {
        &self.advisor
    }

    /// Mutable advisor access: training between windows (a fleet spends its
    /// per-slice episode budget here). A caller that *replaces* the advisor
    /// must follow with [`Self::restore_resume_state`], which re-indexes
    /// the monitor against the new workload.
    pub fn advisor_mut(&mut self) -> &mut Advisor {
        &mut self.advisor
    }

    pub fn monitor(&self) -> &WorkloadMonitor {
        &self.monitor
    }

    pub fn forecaster(&self) -> &FrequencyForecaster {
        &self.forecaster
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The deployment guardrail (read-only; decisions go through
    /// [`Self::end_window`]).
    pub fn guardrail(&self) -> &Guardrail {
        &self.guardrail
    }

    /// The queries absorbed from observed SQL — the tail of the advisor's
    /// workload a checkpoint has to carry, because no template rebuilds it.
    pub fn absorbed_queries(&self) -> &[Query] {
        let queries = self.advisor.env.workload.queries();
        &queries[queries.len() - self.absorbed..]
    }

    /// Capture everything but the advisor session and the config.
    pub fn resume_state(&self) -> ServiceResumeState {
        ServiceResumeState {
            cluster: self.cluster.resume_state(),
            monitor_counts: self.monitor.window_counts().to_vec(),
            monitor_observed: self.monitor.window_total(),
            monitor_pending: self.monitor.pending(),
            forecaster: self.forecaster.clone(),
            guardrail: self.guardrail.resume_state(),
            absorbed: self.absorbed,
        }
    }

    /// Re-apply a captured state around the current (restored) advisor —
    /// the crash-recovery path. Unlike [`Self::new`] the monitor,
    /// forecaster and guardrail keep their mid-window state (an open canary
    /// survives the crash). The monitor is re-indexed against the advisor's
    /// workload first, so the counts have to line up with its slots.
    pub fn restore_resume_state(&mut self, st: ServiceResumeState) -> Result<(), String> {
        let workload = &self.advisor.env.workload;
        if st.absorbed > workload.queries().len() {
            return Err(format!(
                "{} absorbed queries in a workload of {}",
                st.absorbed,
                workload.queries().len()
            ));
        }
        if st.forecaster.level().len() != workload.slots() {
            return Err(format!(
                "forecaster slots {} != workload slots {}",
                st.forecaster.level().len(),
                workload.slots()
            ));
        }
        let mut monitor = WorkloadMonitor::new(self.advisor.env.schema.clone(), workload);
        monitor.restore_window(st.monitor_counts, st.monitor_observed, st.monitor_pending)?;
        self.cluster.restore_resume_state(st.cluster)?;
        self.monitor = monitor;
        self.forecaster = st.forecaster;
        self.guardrail = Guardrail::restore(self.cfg.guardrail, st.guardrail);
        self.absorbed = st.absorbed;
        Ok(())
    }

    /// Ingest one observed SQL statement.
    pub fn observe_sql(&mut self, sql: &str) -> Observation {
        self.monitor.observe(sql)
    }

    /// Run the first `queries` workload queries against the production
    /// cluster — probe traffic that exercises the fault layer, so
    /// [`Cluster::health`] reflects the storm (or calm). Outcomes are
    /// accounted by the cluster, never propagated: a failed probe is the
    /// fault layer working.
    pub fn probe(&mut self, queries: usize) {
        for query in self.advisor.env.workload.queries().iter().take(queries) {
            match self.cluster.run_query(query, None) {
                QueryOutcome::Completed { .. } => {}
                QueryOutcome::TimedOut { .. } => {}
                QueryOutcome::Failed { .. } => {}
            }
        }
    }

    /// Close the current window as a standalone service: no traffic means
    /// no decision, and no fleet shares the deploy budget.
    pub fn end_window(&mut self) -> WindowReport {
        self.close_window(None, true, None)
    }

    /// Close the current window: absorb new queries, update the forecast,
    /// re-evaluate the partitioning, repartition if it pays off. The one
    /// production decision path — a standalone service and a fleet tenant
    /// differ only in the arguments:
    ///
    /// * `idle_mix` — the mix to decide on when neither this window nor
    ///   the forecaster saw any traffic (`None`: report
    ///   [`ServiceEvent::NoTraffic`] and leave the guardrail window open).
    ///   It never passes through the forecaster.
    /// * `budget_ok` — the fleet-wide aggregate deploy budget's verdict.
    /// * `injected` — fault injection: a candidate to stage *instead of*
    ///   asking the advisor (see [`crate::hook::SliceHook`]); `None` in
    ///   production.
    pub fn close_window(
        &mut self,
        idle_mix: Option<FrequencyVector>,
        budget_ok: bool,
        injected: Option<CandidateDeploy>,
    ) -> WindowReport {
        let mut events = Vec::new();
        let observed = self.monitor.frequencies();

        // Absorb new queries first so suggestions can account for them.
        let pending = self.monitor.pending();
        if pending.len() >= self.cfg.incremental_threshold {
            let take = pending
                .len()
                .min(self.advisor.env.workload.reserved_slots());
            let queries: Vec<_> = pending.iter().take(take).map(|(q, _)| q.clone()).collect();
            // `take` is clamped to the free slots, so training only fails if
            // the workload rejects a query; the window then proceeds without
            // it instead of aborting. With no slot free nothing is trained.
            let trained = take > 0
                && incremental::add_queries(
                    &mut self.advisor,
                    queries,
                    self.cfg.incremental_episodes,
                )
                .map(|report| {
                    for id in &report.new_ids {
                        let q = self.advisor.env.workload.query(*id).clone();
                        self.monitor.register(*id, &q);
                    }
                })
                .is_ok();
            let added = if trained { take } else { 0 };
            self.absorbed += added;
            events.push(ServiceEvent::IncrementallyTrained {
                added,
                skipped: pending.len() - added,
            });
            self.monitor.clear_pending();
        }

        let mix_used = match &observed {
            Some(f) => {
                self.forecaster.update(f);
                self.forecaster
                    .forecast(self.cfg.forecast_horizon)
                    .or_else(|| Some(f.clone()))
            }
            None => self
                .forecaster
                .forecast(self.cfg.forecast_horizon)
                .or(idle_mix),
        };

        if let Some(mix) = &mix_used {
            // Ask the advisor — unless a canary is already in flight, in
            // which case the guardrail finishes judging it before a new
            // candidate is considered — and route the deploy decision
            // through the guardrail (economics → hysteresis → budget →
            // baseline → canary).
            let candidate = if self.guardrail.canary_open() {
                None
            } else {
                injected.or_else(|| {
                    let suggestion = self.advisor.suggest(mix);
                    let current_cost = self.advisor.cost_of(self.cluster.deployed(), mix);
                    let suggested_cost = self.advisor.cost_of(&suggestion.partitioning, mix);
                    Some(CandidateDeploy {
                        partitioning: suggestion.partitioning,
                        benefit_per_run: current_cost - suggested_cost,
                    })
                })
            };
            let guard_events = self.guardrail.end_window(
                &mut self.cluster,
                &self.advisor.env.workload,
                mix,
                candidate,
                budget_ok,
            );
            events.extend(guard_events.into_iter().map(ServiceEvent::Guardrail));
        } else {
            // No traffic, no decision: the guardrail window does not close,
            // so an open canary simply waits for the next busy window.
            events.push(ServiceEvent::NoTraffic);
        }

        self.monitor.reset_window();
        WindowReport {
            events,
            deployed: self.cluster.deployed().clone(),
            mix_used,
            health: self.cluster.health(),
            guardrail: self.guardrail.accounting(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_cluster::{ClusterConfig, EngineProfile, HardwareProfile};
    use lpa_costmodel::{CostParams, NetworkCostModel};
    use lpa_rl::DqnConfig;
    use lpa_workload::MixSampler;

    fn service_with(reserved: usize, service_cfg: ServiceConfig) -> PartitioningService {
        let schema = lpa_schema::ssb::schema(0.005).expect("schema builds");
        let workload = lpa_workload::ssb::workload(&schema)
            .expect("workload builds")
            .with_reserved_slots(reserved);
        let cfg = DqnConfig {
            batch_size: 16,
            hidden: vec![48, 24],
            ..DqnConfig::simulation(120, 12)
        }
        .with_seed(31);
        let advisor = Advisor::train_offline(
            schema.clone(),
            workload,
            NetworkCostModel::new(CostParams::standard()),
            MixSampler::uniform(&lpa_workload::ssb::workload(&schema).expect("workload builds")),
            cfg,
            true,
        );
        let cluster = Cluster::new(
            schema,
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        PartitioningService::new(advisor, cluster, service_cfg)
    }

    fn service(reserved: usize) -> PartitioningService {
        service_with(reserved, ServiceConfig::default())
    }

    const Q1_SQL: &str = "SELECT sum(lo_revenue) FROM lineorder l, date d \
        WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
        AND l.lo_orderkey < 500";

    #[test]
    fn quiet_window_reports_no_traffic() {
        let mut s = service(0);
        let r = s.end_window();
        assert_eq!(r.events, vec![ServiceEvent::NoTraffic]);
        assert!(r.mix_used.is_none());
        // No fault plan → healthy report with zeroed counters.
        assert!(r.health.healthy());
        assert_eq!(r.health.degraded_measurements(), 0);
    }

    #[test]
    fn window_report_surfaces_cluster_health_under_faults() {
        let mut s = service(0);
        let mut plan = lpa_cluster::FaultPlan::storm(13);
        plan.crash_rate = 1.0; // guaranteed visible degradation
        s.cluster_mut().set_fault_plan(plan);
        for _ in 0..5 {
            s.observe_sql(Q1_SQL);
        }
        let r = s.end_window();
        assert!(!r.health.healthy(), "storm must show up in the report");
        assert!(r.health.nodes_down >= 1);
        assert_eq!(r.health.nodes, 4);
    }

    #[test]
    fn busy_window_considers_repartitioning() {
        let mut s = service(0);
        for _ in 0..10 {
            assert!(matches!(s.observe_sql(Q1_SQL), Observation::Known(_)));
        }
        let r = s.end_window();
        assert!(
            matches!(
                r.events[0],
                ServiceEvent::Guardrail(
                    GuardrailEvent::CanaryStarted { .. } | GuardrailEvent::KeptCurrent { .. }
                )
            ),
            "events: {:?}",
            r.events
        );
        assert!(r.mix_used.is_some());
        assert_eq!(r.guardrail.windows, 1);
        // Identical windows drive any open canary to a verdict; the ledger
        // must account for every staged candidate.
        for _ in 0..6 {
            for _ in 0..10 {
                s.observe_sql(Q1_SQL);
            }
            s.end_window();
        }
        let acct = s.guardrail().accounting();
        assert_eq!(
            acct.canaries_started,
            acct.commits + acct.rollbacks(),
            "every canary reaches a verdict under steady traffic: {acct:?}"
        );
    }

    #[test]
    fn observed_regression_rolls_back_at_service_level() {
        // A hostile threshold makes *any* observed runtime count as a
        // regression, so the first staged candidate must roll back and the
        // pre-canary layout must survive.
        let mut s = service_with(
            0,
            ServiceConfig {
                guardrail: GuardrailConfig {
                    canary_windows: 1,
                    regression_threshold: -1.0,
                    // Any positive predicted benefit passes the economic
                    // gate — the rollback must come from observation.
                    runs_per_window: 1e6,
                    ..GuardrailConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let before = s.cluster().deployed().clone();
        let mut rolled_back = false;
        for _ in 0..8 {
            for _ in 0..10 {
                s.observe_sql(Q1_SQL);
            }
            let r = s.end_window();
            if r.events.iter().any(|e| {
                matches!(
                    e,
                    ServiceEvent::Guardrail(GuardrailEvent::RolledBack { .. })
                )
            }) {
                rolled_back = true;
                break;
            }
        }
        assert!(rolled_back, "hostile threshold must force a rollback");
        assert_eq!(
            s.cluster().deployed().physical_key(),
            before.physical_key(),
            "rollback restores the pre-canary layout"
        );
        let acct = s.guardrail().accounting();
        assert_eq!(acct.rollbacks_regression, 1);
        assert_eq!(acct.commits, 0);
        assert!(acct.rollback_seconds > 0.0, "migration cost was charged");
    }

    #[test]
    fn new_queries_trigger_incremental_training() {
        let mut s = service(2);
        let new_sql = "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city";
        let new_sql2 = "SELECT count(*) FROM part p, lineorder l WHERE l.lo_partkey = p.p_partkey \
             AND p.p_brand BETWEEN 10 AND 12 AND l.lo_orderkey IN (1, 2, 3)";
        for _ in 0..3 {
            s.observe_sql(new_sql);
            s.observe_sql(new_sql2);
        }
        s.observe_sql(Q1_SQL);
        let queries_before = s.advisor().env.workload.queries().len();
        let r = s.end_window();
        assert!(
            r.events
                .iter()
                .any(|e| matches!(e, ServiceEvent::IncrementallyTrained { added: 2, .. })),
            "events: {:?}",
            r.events
        );
        assert_eq!(s.advisor().env.workload.queries().len(), queries_before + 2);
        assert_eq!(s.absorbed_queries().len(), 2);
        // The freshly registered queries are now Known — and, equally hot,
        // they took their slots in name order, not in hash-map order.
        let name = |sql| {
            lpa_sql::parse_query(&s.advisor().env.schema, sql)
                .expect("statement parses")
                .name
        };
        let mut by_name = [(name(new_sql), new_sql), (name(new_sql2), new_sql2)];
        by_name.sort();
        for (offset, (_, sql)) in by_name.into_iter().enumerate() {
            assert_eq!(
                s.observe_sql(sql),
                Observation::Known(lpa_workload::QueryId(queries_before + offset))
            );
        }
    }

    #[test]
    fn new_queries_without_a_free_slot_are_reported_as_dropped() {
        let mut s = service(0);
        for sql in [
            "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city",
            "SELECT count(*) FROM part p, lineorder l WHERE l.lo_partkey = p.p_partkey",
        ] {
            assert!(matches!(s.observe_sql(sql), Observation::New(_)));
        }
        s.observe_sql(Q1_SQL);
        let queries_before = s.advisor().env.workload.queries().len();
        let r = s.end_window();
        assert_eq!(
            r.events[0],
            ServiceEvent::IncrementallyTrained {
                added: 0,
                skipped: 2
            },
            "events: {:?}",
            r.events
        );
        assert_eq!(s.advisor().env.workload.queries().len(), queries_before);
        assert!(s.monitor().pending().is_empty(), "the batch was discarded");
        // The window still decided on the known traffic.
        assert!(r.mix_used.is_some());
    }

    #[test]
    fn repartition_gate_respects_amortization() {
        // Make repartitioning astronomically unattractive.
        let mut s = service_with(
            0,
            ServiceConfig {
                guardrail: GuardrailConfig {
                    runs_per_window: 1e-9,
                    amortization_windows: 1e-9,
                    ..GuardrailConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let deployed_before = s.cluster().deployed().clone();
        for _ in 0..5 {
            s.observe_sql(Q1_SQL);
        }
        let r = s.end_window();
        assert!(matches!(
            r.events[0],
            ServiceEvent::Guardrail(GuardrailEvent::KeptCurrent { .. })
        ));
        assert_eq!(r.guardrail.kept_current, 1);
        assert_eq!(
            r.deployed.physical_key(),
            deployed_before.physical_key(),
            "nothing deployed under a hostile amortization budget"
        );
    }
}
