//! Experiment 1 (Fig. 3 a–f) — Offline RL vs baselines.
//!
//! For every benchmark (SSB, TPC-DS, TPC-CH) and engine (Postgres-XL-like,
//! System-X-like): train a DRL agent purely offline against the
//! network-centric cost model, then measure the full workload runtime of
//! the partitionings suggested by Heuristic (a), Heuristic (b), the
//! minimum-optimizer baseline (Postgres-XL only — System-X hides optimizer
//! estimates) and the offline RL agent.

use lpa_baselines::{heuristic_a, heuristic_b, minimum_optimizer_partitioning};
use lpa_bench::setup::{cluster, eval_partitioning, offline_advisor};
use lpa_bench::{bar, figure, save_json, Benchmark};
use lpa_cluster::{EngineKind, HardwareProfile};
use lpa_rl::QEnvironment;
use serde_json::json;

fn main() {
    let hw = HardwareProfile::standard();
    let mut all = Vec::new();
    for bench in [Benchmark::Ssb, Benchmark::Tpcds, Benchmark::Tpcch] {
        for kind in [EngineKind::PgXlLike, EngineKind::SystemXLike] {
            let scale = bench.scale();
            let mut full = cluster(bench, kind, hw, scale.sf, 0xF16).expect("cluster builds");
            let schema = full.schema().clone();
            let workload = bench.workload(&schema).expect("workload builds");
            let freqs = workload.uniform_frequencies();
            let engine_name = full.engine().name().to_string();

            figure(
                "Fig. 3",
                &format!("{} on {} — workload runtime (s)", bench.name(), engine_name),
            );

            let ha = heuristic_a(&schema, &workload, bench.class());
            let hb = heuristic_b(&schema, &workload, bench.class());
            let t_a = eval_partitioning(&mut full, &workload, &freqs, &ha);
            bar("Heuristic (a)", t_a, "s");
            let t_b = eval_partitioning(&mut full, &workload, &freqs, &hb);
            bar("Heuristic (b)", t_b, "s");

            let t_opt = minimum_optimizer_partitioning(&full, &workload, &freqs, 12).map(|p| {
                let t = eval_partitioning(&mut full, &workload, &freqs, &p);
                bar("Minimum Optimizer", t, "s");
                t
            });
            if t_opt.is_none() {
                println!("  {:<38} {:>14}", "Minimum Optimizer", "not available");
            }

            eprintln!(
                "[training offline RL agent for {} / {engine_name}…]",
                bench.name()
            );
            let mut advisor = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
            let suggestion = advisor.suggest(&freqs);
            let t_rl = eval_partitioning(&mut full, &workload, &freqs, &suggestion.partitioning);
            bar("RL (offline)", t_rl, "s");
            println!(
                "  RL partitioning: {}",
                suggestion.partitioning.describe(&schema)
            );
            let c = advisor.env.counters();
            println!(
                "  training counters: {} rewards ({} delta / {} full re-costs), \
                 reward cache {:.1}% hit",
                c.rewards_evaluated,
                c.delta_recosts,
                c.full_recosts,
                100.0 * c.reward_cache_hit_rate(),
            );

            all.push(json!({
                "benchmark": bench.name(),
                "engine": engine_name,
                "heuristic_a_s": t_a,
                "heuristic_b_s": t_b,
                "minimum_optimizer_s": t_opt,
                "rl_offline_s": t_rl,
                "rl_partitioning": suggestion.partitioning.describe(&schema),
                "reward_cache_hit_rate": c.reward_cache_hit_rate(),
                "delta_recosts": c.delta_recosts,
                "full_recosts": c.full_recosts,
            }));
        }
    }
    save_json("exp1_offline", &json!(all));
}
