//! Experiment 5 (Fig. 8a/8b) — Adaptivity to the deployment.
//!
//! The three-table microbenchmark on the System-X-like in-memory engine,
//! across four hardware deployments: {standard, slower} compute ×
//! {10 Gbps, 0.6 Gbps} interconnect. `a` and `c` must always be
//! co-partitioned (c is much larger than b); whether `b` should be
//! partitioned or replicated depends on the network/scan balance — and a
//! freshly retrained RL agent picks the right side of the crossover on
//! every deployment.

use lpa_advisor::OnlineOptimizations;
use lpa_bench::setup::{cluster, eval_partitioning, refine_online};
use lpa_bench::{figure, save_json, Benchmark};
use lpa_cluster::{EngineKind, HardwareProfile};
use lpa_costmodel::NetworkCostModel;
use lpa_partition::{Partitioning, TableState};
use lpa_rl::DqnConfig;
use lpa_workload::MixSampler;
use serde_json::json;

fn main() {
    let bench = Benchmark::Micro;
    let kind = EngineKind::SystemXLike;
    let scale = bench.scale();

    let deployments = [
        (
            "Fig. 8a",
            "standard HW, 10 Gbps",
            HardwareProfile::standard(),
        ),
        (
            "Fig. 8a",
            "standard HW, 0.6 Gbps",
            HardwareProfile::slow_network(),
        ),
        (
            "Fig. 8b",
            "slower compute, 10 Gbps",
            HardwareProfile::slow_compute(),
        ),
        (
            "Fig. 8b",
            "slower compute, 0.6 Gbps",
            HardwareProfile::slow_compute_slow_network(),
        ),
    ];

    let mut results = Vec::new();
    for (fig, label, hw) in deployments {
        let mut full = cluster(bench, kind, hw, scale.sf, 0xF16).expect("cluster builds");
        let schema = full.schema().clone();
        let workload = bench.workload(&schema).expect("workload builds");
        let freqs = workload.uniform_frequencies();

        // Fixed variants: a co-partitioned with c; b partitioned vs
        // replicated.
        let a = schema.table_by_name("a").unwrap();
        let b = schema.table_by_name("b").unwrap();
        let a_c = schema.attr_ref("a", "a_c_key").unwrap();
        let mut states = Partitioning::initial(&schema).table_states().to_vec();
        states[a.0] = TableState::PartitionedBy(a_c.attr);
        let b_part = Partitioning::from_states(&schema, states.clone());
        states[b.0] = TableState::Replicated;
        let b_repl = Partitioning::from_states(&schema, states);

        let t_repl = eval_partitioning(&mut full, &workload, &freqs, &b_repl);
        let t_part = eval_partitioning(&mut full, &workload, &freqs, &b_part);

        // RL agent retrained for this deployment (offline with the
        // deployment's cost parameters, then refined online on it).
        eprintln!("[training RL agent for {label}…]");
        let cfg = DqnConfig {
            learning_rate: 1e-3,
            ..bench.dqn_config(0xDE9)
        };
        let mut advisor = lpa_advisor::Advisor::train_offline(
            schema.clone(),
            workload.clone(),
            NetworkCostModel::new(lpa_bench::setup::cost_params(hw)),
            MixSampler::uniform(&workload),
            cfg,
            true,
        );
        refine_online(
            &mut advisor,
            &mut full,
            bench,
            OnlineOptimizations::default(),
        );
        let p_rl = advisor.suggest(&freqs).partitioning;
        let t_rl = eval_partitioning(&mut full, &workload, &freqs, &p_rl);

        let slowest = t_repl.max(t_part).max(t_rl);
        figure(
            fig,
            &format!("{label} — speedup over slowest (higher is better)"),
        );
        println!(
            "  {:<26} {:>8.2}x  ({:.3} s)",
            "B replicated",
            slowest / t_repl,
            t_repl
        );
        println!(
            "  {:<26} {:>8.2}x  ({:.3} s)",
            "B partitioned",
            slowest / t_part,
            t_part
        );
        println!(
            "  {:<26} {:>8.2}x  ({:.3} s)",
            "RL online",
            slowest / t_rl,
            t_rl
        );
        println!("  RL chose: {}", p_rl.describe(&schema));

        results.push(json!({
            "figure": fig,
            "deployment": label,
            "b_replicated_s": t_repl,
            "b_partitioned_s": t_part,
            "rl_online_s": t_rl,
            "rl_partitioning": p_rl.describe(&schema),
        }));
    }
    save_json("exp5_deployment", &json!(results));
}
