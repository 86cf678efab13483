//! Table 2 — Training-time reduction of the online-phase optimizations.
//!
//! One instrumented from-scratch online training run yields, via the
//! counterfactual ledger, the cumulative rows None → +Runtime Cache →
//! +Lazy Repartitioning → +Timeouts; a second, offline-bootstrapped run
//! (fewer episodes, warm ε) yields the final +Offline Phase row — exactly
//! the paper's measurement methodology (Section 7.3).

use lpa_advisor::{shared_cache, shared_cluster, Advisor, OnlineBackend, OnlineOptimizations};
use lpa_bench::setup::{cluster, cost_params, offline_advisor, refine_online};
use lpa_bench::{figure, save_json, Benchmark};
use lpa_cluster::{EngineKind, HardwareProfile};
use lpa_costmodel::NetworkCostModel;
use lpa_workload::MixSampler;
use serde_json::json;

fn main() {
    let bench = Benchmark::Tpcch;
    let kind = EngineKind::PgXlLike;
    let hw = HardwareProfile::standard();
    let scale = bench.scale();

    // --- Run 1: online training from scratch (random init, full budget),
    // fully instrumented.
    eprintln!("[run 1: online training from scratch…]");
    let mut full = cluster(bench, kind, hw, scale.sf, 0xF16).expect("cluster builds");
    let schema = full.schema().clone();
    let workload = bench.workload(&schema).expect("workload builds");
    let mut sample = full.sampled(scale.sample_fraction);
    let p0 = lpa_partition::Partitioning::initial(&schema);
    let scale_factors =
        OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p0);
    let backend = OnlineBackend::new(
        shared_cluster(sample),
        shared_cache(),
        scale_factors,
        OnlineOptimizations::default(),
    );
    // From scratch: the agent has no offline bootstrap, trains the *full*
    // episode budget at full exploration.
    let scratch_cfg = bench.dqn_config(0xBAD5EED);
    let mut scratch = Advisor::untrained(
        lpa_advisor::AdvisorEnv::new(
            schema.clone(),
            workload.clone(),
            lpa_advisor::RewardBackend::Cluster(Box::new(backend)),
            MixSampler::uniform(&workload),
            false,
            7,
        ),
        scratch_cfg.clone(),
    );
    scratch.train_episodes(scratch_cfg.episodes, |_| {});
    let acc = scratch.online_accounting().expect("cluster backend");

    // --- Run 2: offline-bootstrapped agent, reduced online budget.
    eprintln!("[run 2: offline bootstrap + short online refinement…]");
    let mut full2 = cluster(bench, kind, hw, scale.sf, 0xF16).expect("cluster builds");
    let mut boot = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
    // Sanity: the offline phase used the cost model, not the cluster.
    let _ = NetworkCostModel::new(cost_params(hw));
    refine_online(&mut boot, &mut full2, bench, OnlineOptimizations::default());
    let boot_acc = boot.online_accounting().expect("cluster backend");

    figure(
        "Table 2",
        "Training-time reduction of optimizations (simulated hours)",
    );
    let rows = [
        ("None", acc.row_none()),
        ("+ Runtime Cache", acc.row_cache()),
        ("+ Lazy Repartitioning", acc.row_lazy()),
        ("+ Timeouts", acc.row_timeouts()),
        ("+ Offline Phase", boot_acc.total()),
    ];
    let mut prev: Option<f64> = None;
    println!(
        "  {:<24} {:>14} {:>9}",
        "Optimizations", "Training Time", "Speedup"
    );
    for (label, secs) in rows {
        let hours = secs / 3600.0;
        match prev {
            None => println!("  {label:<24} {hours:>12.2} h {:>9}", "-"),
            Some(p) => println!("  {label:<24} {hours:>12.2} h {:>8.1}x", p / secs),
        }
        prev = Some(secs);
    }
    println!(
        "  (cache hits: {}, executed: {}, timeouts hit: {})",
        acc.queries_cached, acc.queries_executed, acc.timeouts_hit
    );

    save_json(
        "exp2_table2",
        &json!({
            "none_h": acc.row_none() / 3600.0,
            "cache_h": acc.row_cache() / 3600.0,
            "lazy_h": acc.row_lazy() / 3600.0,
            "timeouts_h": acc.row_timeouts() / 3600.0,
            "offline_h": boot_acc.total() / 3600.0,
        }),
    );
}
