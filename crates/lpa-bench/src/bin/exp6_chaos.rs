//! Experiment 6 — degraded-mode online training under a fault storm.
//!
//! Two online refinements of the same offline-bootstrapped agent on the
//! microbenchmark/System-X: one on a healthy sampled cluster, one under a
//! seeded `FaultPlan::storm` (node crashes, stragglers, degraded links,
//! transient errors) with the degraded-mode machinery armed — bounded
//! retries in simulated time and the cost-model fallback. Both final
//! partitionings are judged on a healthy full-size cluster, so the number
//! reported is what the storm cost the *advice*, not what it cost the
//! measurements. The fault ledger (`FaultAccounting`) is printed alongside.

use lpa_advisor::OnlineOptimizations;
use lpa_bench::setup::{
    cluster, eval_partitioning, offline_advisor, refine_online, refine_online_with_faults,
};
use lpa_bench::{bar, figure, save_json, Benchmark};
use lpa_cluster::{EngineKind, FaultPlan, HardwareProfile};
use serde_json::json;

const STORM_SEED: u64 = 0xC4A0_5EED;

fn main() {
    let bench = Benchmark::Micro;
    let kind = EngineKind::SystemXLike;
    let hw = HardwareProfile::standard();
    let scale = bench.scale();
    let mut full = cluster(bench, kind, hw, scale.sf, 0xFA17).expect("cluster builds");
    let schema = full.schema().clone();
    let workload = bench.workload(&schema).expect("workload builds");
    let freqs = workload.uniform_frequencies();

    figure(
        "Exp. 6",
        "microbenchmark on System-X — online training under a fault storm",
    );

    let p_initial = lpa_partition::Partitioning::initial(&schema);
    let t_initial = eval_partitioning(&mut full, &workload, &freqs, &p_initial);
    bar("Initial partitioning", t_initial, "s");

    eprintln!("[offline training…]");
    let mut clear = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
    let p_off = clear.suggest(&freqs).partitioning;
    let t_off = eval_partitioning(&mut full, &workload, &freqs, &p_off);
    bar("RL offline", t_off, "s");

    eprintln!("[online refinement, clear weather…]");
    refine_online(&mut clear, &mut full, bench, OnlineOptimizations::default());
    let p_clear = clear.suggest(&freqs).partitioning;
    let t_clear = eval_partitioning(&mut full, &workload, &freqs, &p_clear);
    bar("RL online (fault-free)", t_clear, "s");

    eprintln!("[online refinement, fault storm 0x{STORM_SEED:X}…]");
    let mut stormy = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
    refine_online_with_faults(
        &mut stormy,
        &mut full,
        bench,
        OnlineOptimizations::default(),
        FaultPlan::storm(STORM_SEED),
        hw,
    );
    let p_storm = stormy.suggest(&freqs).partitioning;
    let t_storm = eval_partitioning(&mut full, &workload, &freqs, &p_storm);
    bar("RL online (fault storm)", t_storm, "s");

    let fa = stormy
        .online_fault_accounting()
        .expect("online backend active");
    println!("  fault-free partitioning: {}", p_clear.describe(&schema));
    println!("  stormy     partitioning: {}", p_storm.describe(&schema));
    println!(
        "  storm ledger: {} failed ({} node-down, {} transient), {} retries, \
         {} fallbacks, {} failovers, {} degraded completions, {} cache invalidations",
        fa.queries_failed,
        fa.node_down_failures,
        fa.transient_failures,
        fa.retries,
        fa.fallbacks,
        fa.failovers,
        fa.degraded_completions,
        fa.cache_invalidations,
    );

    save_json(
        "exp6_chaos",
        &json!({
            "initial_s": t_initial,
            "rl_offline_s": t_off,
            "rl_online_faultfree_s": t_clear,
            "rl_online_storm_s": t_storm,
            "storm_seed": STORM_SEED,
            "fault_accounting": json!({
                "queries_failed": fa.queries_failed,
                "node_down_failures": fa.node_down_failures,
                "transient_failures": fa.transient_failures,
                "failovers": fa.failovers,
                "degraded_completions": fa.degraded_completions,
                "timeouts": fa.timeouts,
                "retries": fa.retries,
                "fallbacks": fa.fallbacks,
                "cache_invalidations": fa.cache_invalidations,
            }),
            "faultfree_partitioning": p_clear.describe(&schema),
            "storm_partitioning": p_storm.describe(&schema),
        }),
    );
}
