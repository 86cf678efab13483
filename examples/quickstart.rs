//! Quickstart: train a partitioning advisor offline and let it pick a
//! partitioning for the paper's three-table microbenchmark.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lpa::prelude::*;

fn main() {
    // A fact table `a` (6M rows at full scale) joining two dimensions:
    // `b` (small) and `c` (large). Run at 5% scale for a fast demo.
    let schema = lpa::schema::microbench::schema(0.05).expect("schema builds");
    let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
    println!(
        "schema: {} tables, {} candidate co-partitioning edges",
        schema.tables().len(),
        schema.edges().len()
    );

    // Offline phase (Section 4.1): the agent explores partitionings in a
    // simulation, rewarded by the network-centric cost model.
    println!("training offline (a few seconds)…");
    let cfg = DqnConfig::simulation(150, 10).with_seed(42);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );

    // Inference (Section 6): greedy rollout, best state wins.
    let mix = workload.uniform_frequencies();
    let suggestion = advisor.suggest(&mix);
    println!(
        "suggested partitioning: {}",
        suggestion.partitioning.describe(&schema)
    );

    // Validate the suggestion against the naive layout on the simulated
    // cluster (actual row-level execution, not the cost model).
    let mut cluster = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    let naive = Partitioning::initial(&schema);
    cluster.deploy(&naive);
    let t_naive = cluster.run_workload(&workload, &mix);
    cluster.deploy(&suggestion.partitioning);
    let t_rl = cluster.run_workload(&workload, &mix);
    println!("measured workload runtime: naive {t_naive:.4}s → advisor {t_rl:.4}s");
    if t_rl < t_naive {
        println!(
            "the advisor's layout is {:.1}% faster",
            (1.0 - t_rl / t_naive) * 100.0
        );
    }
}
