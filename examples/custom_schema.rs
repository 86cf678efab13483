//! Bring your own schema: define a catalog and a workload with the
//! builder APIs, then train an advisor for it — what a cloud provider
//! would run per customer.
//!
//! ```sh
//! cargo run --release --example custom_schema
//! ```

use lpa::prelude::*;
use lpa::schema::{Attribute, Domain, Table};

fn main() {
    // An IoT fleet-analytics schema: readings reference devices and sites.
    let mut b = SchemaBuilder::new("fleet");
    b.table(Table::new(
        "readings",
        vec![
            Attribute::new("r_id", Domain::PrimaryKey),
            Attribute::new("r_device", Domain::ForeignKey(lpa::schema::TableId(1))),
            Attribute::new("r_site", Domain::ForeignKey(lpa::schema::TableId(2))),
        ],
        2_000_000,
        64,
    ));
    b.table(Table::new(
        "devices",
        vec![
            Attribute::new("d_id", Domain::PrimaryKey),
            Attribute::new("d_model", Domain::Fixed(50)),
        ],
        40_000,
        96,
    ));
    b.table(Table::new(
        "sites",
        vec![Attribute::new("s_id", Domain::PrimaryKey)],
        500,
        200,
    ));
    b.edge(("readings", "r_device"), ("devices", "d_id"));
    b.edge(("readings", "r_site"), ("sites", "s_id"));
    let schema = b.build().expect("valid schema").scaled(0.05);

    // Two recurring dashboards.
    let per_device = QueryBuilder::new(&schema, "per_device_health")
        .join(("readings", "r_device"), ("devices", "d_id"))
        .filter("devices", 0.1)
        .finish()
        .unwrap();
    let per_site = QueryBuilder::new(&schema, "per_site_rollup")
        .join(("readings", "r_site"), ("sites", "s_id"))
        .cpu(1.5)
        .finish()
        .unwrap();
    let workload = Workload::new(vec![per_device, per_site]);

    println!("training an advisor for the custom schema…");
    let cfg = DqnConfig::simulation(120, 8).with_seed(5);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );

    // Device-dashboard-heavy vs site-dashboard-heavy mixes.
    for (label, counts) in [("device-heavy", [1.0, 0.1]), ("site-heavy", [0.1, 1.0])] {
        let mix = FrequencyVector::from_counts(&counts, 2);
        let s = advisor.suggest(&mix);
        println!("{label:<13} → {}", s.partitioning.describe(&schema));
    }
}
