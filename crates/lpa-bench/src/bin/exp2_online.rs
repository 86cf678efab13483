//! Experiment 2 (Fig. 4a) — Online RL vs baselines on TPC-CH/Postgres-XL.
//!
//! The offline-bootstrapped agent is refined online against measured
//! runtimes on a sampled cluster (with all Section 4.2 optimizations);
//! the resulting partitioning is evaluated on the full database alongside
//! the heuristics, the minimum-optimizer baseline and the purely
//! offline-trained agent.

use lpa_advisor::OnlineOptimizations;
use lpa_baselines::{heuristic_a, heuristic_b, minimum_optimizer_partitioning};
use lpa_bench::setup::{cluster, eval_partitioning, offline_advisor, refine_online};
use lpa_bench::{bar, figure, save_json, Benchmark};
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

    figure("Fig. 4a", "TPC-CH on Postgres-XL — workload runtime (s)");

    let ha = heuristic_a(&schema, &workload, bench.class());
    let hb = heuristic_b(&schema, &workload, bench.class());
    let t_a = eval_partitioning(&mut full, &workload, &freqs, &ha);
    bar("Heuristic (a)", t_a, "s");
    let t_b = eval_partitioning(&mut full, &workload, &freqs, &hb);
    bar("Heuristic (b)", t_b, "s");
    let p_opt = minimum_optimizer_partitioning(&full, &workload, &freqs, 12)
        .expect("PgXL exposes optimizer estimates");
    let t_opt = eval_partitioning(&mut full, &workload, &freqs, &p_opt);
    bar("Minimum Optimizer", t_opt, "s");

    eprintln!("[offline training…]");
    let mut advisor = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
    let p_off = advisor.suggest(&freqs).partitioning;
    let t_off = eval_partitioning(&mut full, &workload, &freqs, &p_off);
    bar("RL offline", t_off, "s");

    eprintln!("[online refinement on the sampled cluster…]");
    refine_online(
        &mut advisor,
        &mut full,
        bench,
        OnlineOptimizations::default(),
    );
    let p_on = advisor.suggest(&freqs).partitioning;
    let t_on = eval_partitioning(&mut full, &workload, &freqs, &p_on);
    bar("RL online", t_on, "s");
    println!("  offline partitioning: {}", p_off.describe(&schema));
    println!("  online  partitioning: {}", p_on.describe(&schema));
    let acc = advisor.online_accounting().expect("online backend active");
    println!(
        "  online training spent {:.3} simulated hours ({} queries executed, {} cache hits)",
        acc.total() / 3600.0,
        acc.queries_executed,
        acc.queries_cached
    );

    save_json(
        "exp2_online",
        &json!({
            "heuristic_a_s": t_a,
            "heuristic_b_s": t_b,
            "minimum_optimizer_s": t_opt,
            "rl_offline_s": t_off,
            "rl_online_s": t_on,
            "offline_partitioning": p_off.describe(&schema),
            "online_partitioning": p_on.describe(&schema),
            "online_training_hours": acc.total() / 3600.0,
        }),
    );
}
