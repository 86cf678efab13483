//! The advisor as a service (the paper's Figure 1 production loop):
//! applications submit SQL, the monitor counts frequencies, a forecaster
//! anticipates the next window's mix, and the controller repartitions the
//! database only when the benefit amortizes the repartitioning cost.
//!
//! ```sh
//! cargo run --release --example advisor_service
//! ```

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa::cluster::GuardrailEvent;
use lpa::prelude::*;
use lpa::service::ServiceEvent;
use lpa::store::{
    capture_advisor, decode_checkpoint, encode_checkpoint, restore_offline, Checkpoint,
    OfflineTemplate,
};

fn main() {
    let schema = lpa::schema::ssb::schema(0.005).expect("schema builds");
    let workload = lpa::workload::ssb::workload(&schema)
        .expect("workload builds")
        .with_reserved_slots(2);

    println!("training the advisor once (offline)…");
    let cfg = DqnConfig::simulation(200, 16).with_seed(77);
    let model = NetworkCostModel::new(CostParams::standard());
    let trained = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        model.clone(),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );

    // Persist + restore the trained session — what a provider would do
    // between the training cluster and the serving fleet: the checkpoint
    // bytes are what goes to object storage, the service below runs on
    // the advisor restored from them.
    let bytes = encode_checkpoint(&Checkpoint::Session(capture_advisor(0, &trained)));
    println!("session checkpoint: {} KiB", bytes.len() / 1024);
    let session = decode_checkpoint(&bytes, &schema)
        .and_then(Checkpoint::into_session)
        .expect("checkpoint decodes");
    let template = OfflineTemplate {
        schema: schema.clone(),
        workload: workload.clone(),
        model,
    };
    let advisor = restore_offline(session, &template).expect("session restores");
    assert_eq!(advisor.weight_fingerprint(), trained.weight_fingerprint());

    let production = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    let mut service = PartitioningService::new(advisor, production, ServiceConfig::default());

    // Week 1: date-filtered revenue dashboards dominate.
    println!("\n-- window 1: revenue dashboards --");
    for year in [1992, 1993, 1994, 1995, 1996] {
        for _ in 0..4 {
            service.observe_sql(&format!(
                "SELECT sum(lo_revenue) FROM lineorder l, date d \
                 WHERE l.lo_orderdate = d.d_datekey AND d.d_year = {year} \
                 AND l.lo_orderkey < 100000"
            ));
        }
    }
    report(service.end_window());

    // Week 2: supplier/customer drill-downs take over, plus a brand-new
    // query shape that the advisor absorbs with incremental training.
    println!("\n-- window 2: drill-downs + a new query shape --");
    for _ in 0..12 {
        service.observe_sql(
            "SELECT sum(l.lo_revenue) FROM lineorder l, customer c, supplier s, date d \
             WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey \
             AND l.lo_orderdate = d.d_datekey AND c.c_nation = 3 AND s.s_nation = 3",
        );
    }
    for _ in 0..3 {
        service
            .observe_sql("SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city");
        service.observe_sql(
            "SELECT count(*) FROM part p, lineorder l WHERE l.lo_partkey = p.p_partkey \
             AND p.p_brand BETWEEN 100 AND 120",
        );
    }
    report(service.end_window());

    // Week 3: the drill-down mix persists; the forecaster has caught up and
    // the layout should now be stable (no repeated repartitioning churn).
    println!("\n-- window 3: the mix persists --");
    for _ in 0..12 {
        service.observe_sql(
            "SELECT sum(l.lo_revenue) FROM lineorder l, customer c, supplier s, date d \
             WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey \
             AND l.lo_orderdate = d.d_datekey AND c.c_nation = 3 AND s.s_nation = 3",
        );
    }
    report(service.end_window());
    println!(
        "\nfinal layout: {}",
        service.cluster().deployed().describe(&schema)
    );
}

fn report(r: lpa::service::WindowReport) {
    for e in &r.events {
        match e {
            ServiceEvent::Guardrail(g) => match g {
                GuardrailEvent::CanaryStarted {
                    benefit_per_run,
                    repartition_cost,
                    ..
                } => println!(
                    "  → staged a canary (predicted benefit {benefit_per_run:.4}s/run vs one-off cost {repartition_cost:.3}s)"
                ),
                GuardrailEvent::Committed { mean_observed, baseline_seconds, .. } => println!(
                    "  → committed the new layout (observed {mean_observed:.3}s/window vs baseline {baseline_seconds:.3}s)"
                ),
                GuardrailEvent::RolledBack { reason, .. } => {
                    println!("  → rolled back the canary ({reason:?})")
                }
                GuardrailEvent::KeptCurrent {
                    benefit_per_run,
                    repartition_cost,
                    ..
                } => println!(
                    "  → kept layout (benefit {benefit_per_run:.4}s/run would not amortize {repartition_cost:.3}s)"
                ),
                GuardrailEvent::StageRejected { reason, .. } => {
                    println!("  → deferred the repartitioning ({reason:?})")
                }
                GuardrailEvent::CanaryObserved { observed, .. } => println!(
                    "  → canary window observed ({:.3}s weighted)",
                    observed.weighted_seconds
                ),
                GuardrailEvent::CanaryExtended { inconclusive, .. } => {
                    println!("  → canary extended (degraded evidence ×{inconclusive})")
                }
            },
            ServiceEvent::NoTraffic => println!("  → no traffic"),
            ServiceEvent::IncrementallyTrained { added, skipped } => println!(
                "  → incrementally trained for {added} new queries ({skipped} deferred)"
            ),
        }
    }
    if !r.health.healthy() || r.health.degraded_measurements() > 0 {
        println!(
            "  → health: {}/{} nodes down, {} stragglers, {} degraded links, {} degraded measurements",
            r.health.nodes_down,
            r.health.nodes,
            r.health.stragglers,
            r.health.degraded_links,
            r.health.degraded_measurements()
        );
    }
}
