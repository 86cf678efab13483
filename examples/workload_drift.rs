//! Workload drift without retraining: the advisor is trained once over
//! *many* workload mixes; when the observed mix shifts, inference alone
//! produces a partitioning suited to the new mix (Section 7.4). New
//! queries are absorbed with cheap incremental training into reserved
//! frequency slots (Section 5).
//!
//! ```sh
//! cargo run --release --example workload_drift
//! ```

use lpa::advisor::incremental;
use lpa::prelude::*;
use lpa::workload::QueryId;

fn main() {
    let schema = lpa::schema::tpcch::schema(0.001).expect("schema builds");
    // Reserve two slots for queries we have not seen yet.
    let workload = lpa::workload::tpcch::workload(&schema)
        .expect("workload builds")
        .with_reserved_slots(2);

    println!("training the advisor once over many workload mixes…");
    let cfg = DqnConfig::simulation(220, 26).with_seed(11);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        false, // Postgres-XL-like target: no compound keys
    );

    // Monday: a balanced analytical mix.
    let balanced = workload.uniform_frequencies();
    let p1 = advisor.suggest(&balanced).partitioning;
    println!("\nbalanced mix       → {}", p1.describe(&schema));

    // Friday: inventory-heavy reporting (stock ⋈ item queries dominate).
    let hot = lpa::workload::tpcch::stock_item_queries(&schema, &workload);
    let mut counts = vec![0.2; workload.queries().len()];
    for q in &hot {
        counts[q.0] = 1.0;
    }
    let inventory_heavy = FrequencyVector::from_counts(&counts, workload.slots());
    let p2 = advisor.suggest(&inventory_heavy).partitioning;
    println!("inventory-heavy mix → {}", p2.describe(&schema));
    println!("(no retraining happened between the two suggestions)");

    // A genuinely new query appears: absorb it incrementally.
    let new_query = QueryBuilder::new(&schema, "weekly_history_report")
        .join_multi(&lpa::workload::tpcch::HIST_CUST)
        .filter("history", 0.2)
        .finish()
        .expect("valid query");
    println!("\nadding a new query (weekly_history_report) with incremental training…");
    let report = incremental::add_queries(&mut advisor, vec![new_query], 25)
        .expect("a reserved slot is available");
    let new_id = report.new_ids[0];
    let mix_with_new = FrequencyVector::extreme(workload.slots(), QueryId(new_id.0), 0.2, 1.0);
    let p3 = advisor.suggest(&mix_with_new).partitioning;
    println!("new-query-heavy mix → {}", p3.describe(&schema));
}
