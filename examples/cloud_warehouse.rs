//! A retailer's cloud data warehouse: TPC-DS-style star schemas with
//! several fact tables sharing dimensions — the scenario where the paper's
//! advisor finds the non-obvious "co-partition every channel's fact tables
//! with `item`" layout that lets sales ⋈ returns run locally.
//!
//! ```sh
//! cargo run --release --example cloud_warehouse
//! ```

use lpa::prelude::*;

fn main() {
    let schema = lpa::schema::tpcds::schema(0.005).expect("schema builds");
    let workload = lpa::workload::tpcds::workload(&schema).expect("workload builds");
    println!(
        "TPC-DS: {} tables ({} fact), {} queries",
        schema.tables().len(),
        lpa::schema::tpcds::fact_tables().len(),
        workload.queries().len()
    );

    // What a DBA would do.
    let class = SchemaClass::detect(&schema);
    let ha = heuristic_a(&schema, &workload, class);
    let hb = heuristic_b(&schema, &workload, class);

    // What the learned advisor does (offline phase only, for speed).
    println!("training the advisor offline (~a minute)…");
    let cfg = DqnConfig::simulation(160, 30).with_seed(7);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true, // the target engine supports compound keys
    );
    let mix = workload.uniform_frequencies();
    let p_rl = advisor.suggest(&mix).partitioning;

    // Compare all three on the simulated in-memory engine.
    let mut cluster = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    for (label, p) in [
        ("Heuristic (a)", &ha),
        ("Heuristic (b)", &hb),
        ("RL advisor", &p_rl),
    ] {
        cluster.deploy(p);
        let t = cluster.run_workload(&workload, &mix);
        println!("{label:<16} {t:>9.3}s");
    }
    println!("advisor's layout: {}", p_rl.describe(&schema));
}
