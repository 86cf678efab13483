//! Experiment 3a (Fig. 4b) — Robustness of the advisor to bulk updates.
//!
//! Train the advisor on the full TPC-CH database, then bulk-load +20/40/60%
//! more data without retraining and re-measure every baseline's
//! partitioning. The minimum-optimizer baseline deteriorates because the
//! engine's plans flip once statistics change; the RL partitioning stays
//! best.

use lpa_advisor::OnlineOptimizations;
use lpa_baselines::{heuristic_a, heuristic_b, minimum_optimizer_partitioning};
use lpa_bench::setup::{cluster, eval_partitioning, offline_advisor, refine_online};
use lpa_bench::{figure, save_json, Benchmark, Series};
use lpa_cluster::{EngineKind, HardwareProfile};
use serde_json::json;

fn main() {
    let bench = Benchmark::Tpcch;
    let kind = EngineKind::PgXlLike;
    let hw = HardwareProfile::standard();
    let scale = bench.scale();
    let mut full = cluster(bench, kind, hw, scale.sf, 0xF16).expect("cluster builds");
    let schema = full.schema().clone();
    let workload = bench.workload(&schema).expect("workload builds");
    let freqs = workload.uniform_frequencies();

    let ha = heuristic_a(&schema, &workload, bench.class());
    let hb = heuristic_b(&schema, &workload, bench.class());
    let p_opt = minimum_optimizer_partitioning(&full, &workload, &freqs, 12)
        .expect("PgXL exposes estimates");

    eprintln!("[training RL advisor (offline + online)…]");
    let mut advisor = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
    refine_online(
        &mut advisor,
        &mut full,
        bench,
        OnlineOptimizations::default(),
    );
    let p_rl = advisor.suggest(&freqs).partitioning;

    figure(
        "Fig. 4b",
        "TPC-CH with bulk updates — workload runtime (s), no retraining",
    );
    let mut series = vec![
        Series::new("Heuristic (a)"),
        Series::new("Heuristic (b)"),
        Series::new("Minimum Optimizer"),
        Series::new("RL online"),
    ];
    // TPC-H's refresh functions insert new orders and lineitems; grow the
    // transactional tables only.
    let tx_tables: Vec<lpa_schema::TableId> = ["history", "neworder", "order", "orderline"]
        .iter()
        .map(|n| schema.table_by_name(n).unwrap())
        .collect();
    let mut updates_applied = 0.0;
    for pct in [0.0, 0.2, 0.4, 0.6] {
        let delta = pct - updates_applied;
        if delta > 0.0 {
            full.bulk_update_tables(delta, &tx_tables);
            updates_applied = pct;
        }
        let label = format!("+{:.0}%", pct * 100.0);
        for (s, p) in series.iter_mut().zip([&ha, &hb, &p_opt, &p_rl]) {
            s.push(
                label.clone(),
                eval_partitioning(&mut full, &workload, &freqs, p),
            );
        }
    }
    for s in &series {
        s.print();
    }
    save_json("exp3a_updates", &json!(series));
}
