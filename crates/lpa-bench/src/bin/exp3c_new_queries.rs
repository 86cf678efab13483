//! Experiment 3c (Fig. 6) — Incremental-training time for new queries.
//!
//! Remove k queries from the TPC-CH workload, train an advisor on the
//! remainder, then add the k queries back with incremental training
//! (reserved frequency slots, warm ε, shared runtime cache) and measure
//! the additional simulated training time relative to training an advisor
//! from scratch on the full workload.

use lpa_advisor::{
    incremental, shared_cache, shared_cluster, Advisor, OnlineBackend, OnlineOptimizations,
};
use lpa_bench::setup::{cluster, cost_params};
use lpa_bench::{figure, save_json, Benchmark};
use lpa_cluster::{Cluster, EngineKind, HardwareProfile};
use lpa_costmodel::NetworkCostModel;
use lpa_rl::DqnConfig;
use lpa_workload::{MixSampler, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::json;

/// Online-train an advisor for `workload` from an offline bootstrap;
/// returns (advisor, total simulated training seconds).
fn train_for(
    bench: Benchmark,
    full: &mut Cluster,
    workload: Workload,
    episodes: usize,
    seed: u64,
) -> (Advisor, f64) {
    let hw = HardwareProfile::standard();
    let schema = full.schema().clone();
    let cfg = DqnConfig {
        episodes,
        ..bench.dqn_config(seed)
    };
    let sampler = MixSampler::uniform(&workload);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(cost_params(hw)),
        sampler,
        cfg,
        false,
    );
    let scale = bench.scale();
    let mut sample = full.sampled(scale.sample_fraction);
    let uniform = workload.uniform_frequencies();
    let p_off = advisor.suggest(&uniform).partitioning;
    let s = OnlineBackend::compute_scale_factors(full, &mut sample, &workload, &p_off);
    let backend = OnlineBackend::new(
        shared_cluster(sample),
        shared_cache(),
        s,
        OnlineOptimizations::default(),
    );
    advisor.refine_online(backend, scale.online_episodes);
    let total = advisor.online_accounting().unwrap().total();
    (advisor, total)
}

fn main() {
    let bench = Benchmark::Tpcch;
    let kind = EngineKind::PgXlLike;
    let hw = HardwareProfile::standard();
    let scale = bench.scale();
    let mut full = cluster(bench, kind, hw, scale.sf, 0xF16).expect("cluster builds");
    let schema = full.schema().clone();
    let full_workload = bench.workload(&schema).expect("workload builds");

    eprintln!("[training reference advisor from scratch on the full workload…]");
    let (_, t_scratch) = train_for(
        bench,
        &mut full,
        full_workload.clone(),
        scale.episodes / 3,
        0x5C,
    );
    eprintln!("[scratch training: {:.1} simulated h]", t_scratch / 3600.0);

    figure(
        "Fig. 6",
        "Incremental training time relative to full retraining (%)",
    );
    println!(
        "  {:<20} {:>8} {:>8} {:>8}",
        "Additional Queries", "p25", "median", "p75"
    );

    let mut results = Vec::new();
    for k in [2usize, 4, 8, 12, 16] {
        let mut rels = Vec::new();
        for trial in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(0xF16 + k as u64 * 31 + trial);
            let mut ids: Vec<usize> = (0..full_workload.queries().len()).collect();
            ids.shuffle(&mut rng);
            let (removed, kept) = ids.split_at(k);
            let kept_queries: Vec<_> = kept
                .iter()
                .map(|&i| full_workload.queries()[i].clone())
                .collect();
            let reduced = Workload::new(kept_queries).with_reserved_slots(k);

            // Train on the reduced workload.
            let (mut advisor, _) =
                train_for(bench, &mut full, reduced, scale.episodes / 3, 0x6D + trial);
            let before = advisor.online_accounting().unwrap().total();

            // Add the removed queries incrementally.
            let new_queries: Vec<_> = removed
                .iter()
                .map(|&i| full_workload.queries()[i].clone())
                .collect();
            let inc_episodes = (scale.online_episodes / 3).max(8);
            incremental::add_queries(&mut advisor, new_queries, inc_episodes)
                .expect("reserved slots suffice");
            let after = advisor.online_accounting().unwrap().total();
            rels.push((after - before) / t_scratch * 100.0);
        }
        rels.sort_by(|a, b| a.total_cmp(b));
        let p25 = rels[0];
        let p75 = rels[rels.len() - 1];
        let median = rels[rels.len() / 2];
        println!("  {k:<20} {p25:>7.1}% {median:>7.1}% {p75:>7.1}%");
        results.push(json!({ "k": k, "p25": p25, "median": median, "p75": p75 }));
    }
    save_json("exp3c_new_queries", &json!(results));
}
