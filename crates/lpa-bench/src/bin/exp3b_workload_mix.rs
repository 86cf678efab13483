//! Experiment 3b (Fig. 5) — Best partitioning found by different
//! approaches for varying workload mixes.
//!
//! Compares the naive (single-agent) advisor against the committee of
//! subspace experts and two fixed heuristics, over two workload clusters:
//! A (uniform frequencies) and B (queries joining `stock` and `item`
//! over-represented).

use lpa_advisor::{AdvisorEnv, Committee, OnlineBackend, OnlineOptimizations, RewardBackend};
use lpa_bench::setup::{cluster, offline_advisor, refine_online};
use lpa_bench::{accuracy, figure, save_json, Approach, Benchmark};
use lpa_cluster::{EngineKind, HardwareProfile};
use lpa_partition::{Partitioning, TableState};
use lpa_rl::DqnConfig;
use lpa_workload::MixSampler;
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

    eprintln!("[training naive advisor (offline + online)…]");
    let mut naive = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
    refine_online(&mut naive, &mut full, bench, OnlineOptimizations::default());

    // Shared handles so the experts and the probes reuse the runtime cache.
    let (shared_cluster, shared_cache, scale_factors, opts) = {
        let b = naive.env.backend().as_online().expect("online backend");
        (
            b.cluster(),
            b.cache(),
            b.scale_factors().to_vec(),
            b.optimizations(),
        )
    };

    eprintln!("[training committee of subspace experts…]");
    let expert_cfg = DqnConfig {
        episodes: scale.online_episodes / 2,
        ..bench.dqn_config(0xE47)
    };
    let mk_schema = schema.clone();
    let mk_workload = workload.clone();
    let mk_cluster = shared_cluster.clone();
    let mk_cache = shared_cache.clone();
    let mk_scale = scale_factors.clone();
    let mut committee = Committee::train(&mut naive, expert_cfg, move || {
        AdvisorEnv::new(
            mk_schema.clone(),
            mk_workload.clone(),
            RewardBackend::Cluster(Box::new(OnlineBackend::new(
                mk_cluster.clone(),
                mk_cache.clone(),
                mk_scale.clone(),
                opts,
            ))),
            MixSampler::uniform(&mk_workload),
            false,
            0xE48,
        )
    });
    eprintln!(
        "[{} reference partitionings → {} experts]",
        committee.references.len(),
        committee.len()
    );

    // Fixed heuristics per the paper's Fig. 5 setup.
    let h_a = naive.suggest(&freqs).partitioning; // best-after-online-training
    let h_b = {
        // stock and item co-partitioned; the rest as the initial layout.
        let mut states = Partitioning::initial(&schema).table_states().to_vec();
        let stock = schema.table_by_name("stock").unwrap();
        let item = schema.table_by_name("item").unwrap();
        let s_i = schema.attr_ref("stock", "s_i_id").unwrap();
        let i_id = schema.attr_ref("item", "i_id").unwrap();
        states[stock.0] = TableState::PartitionedBy(s_i.attr);
        states[item.0] = TableState::PartitionedBy(i_id.attr);
        Partitioning::from_states(&schema, states)
    };

    let mut probe = OnlineBackend::new(shared_cluster, shared_cache, scale_factors, opts);
    let hot = lpa_workload::tpcch::stock_item_queries(&schema, &workload);
    let mixes = 30;
    let mut results = Vec::new();
    figure(
        "Fig. 5",
        "Best partitioning found per workload cluster (accuracy, higher is better)",
    );
    for (cluster_name, mut sampler) in [
        ("Workload A (uniform)", MixSampler::uniform(&workload)),
        (
            "Workload B (stock ⋈ item heavy)",
            MixSampler::emphasis(&workload, hot.clone(), 6.0),
        ),
    ] {
        // The naive advisor routes for the committee too (Section 6), so
        // both approaches need it; calls never overlap, so share it
        // through a RefCell.
        let naive_cell = std::cell::RefCell::new(&mut naive);
        let committee_ref = &mut committee;
        let mut approaches = vec![
            Approach::new("RL Naive", |f| {
                naive_cell.borrow_mut().suggest(f).partitioning
            }),
            Approach::new("RL Subspace Experts", |f| {
                let mut guard = naive_cell.borrow_mut();
                committee_ref.suggest(&mut guard, f).partitioning
            }),
            Approach::fixed("Heuristic (a) [online optimum]", h_a.clone()),
            Approach::fixed("Heuristic (b) [stock-item]", h_b.clone()),
        ];
        let acc = accuracy(
            &mut approaches,
            &mut probe,
            &workload,
            &mut sampler,
            mixes,
            0x5A5A,
        );
        println!("  -- {cluster_name}");
        for (label, a) in &acc {
            println!("    {label:<36} {:>6.1}%", a * 100.0);
        }
        results.push(json!({ "cluster": cluster_name, "accuracy": acc }));
    }
    save_json("exp3b_workload_mix", &json!(results));
}
