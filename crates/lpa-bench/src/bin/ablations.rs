//! Ablations of design decisions called out in DESIGN.md §5:
//!
//! 1. **Edge actions on/off** — the paper argues the co-partitioning edge
//!    shortcut reduces exploration of sub-optimal states (Section 3.2).
//! 2. **Best-state vs last-state inference** — the Section 6 oscillation
//!    argument.
//! 3. **Greedy vs exhaustive join enumeration** in the cost model (quality
//!    of the estimates).

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa_advisor::Advisor;
use lpa_bench::setup::cost_params;
use lpa_bench::{figure, save_json, Benchmark};
use lpa_cluster::HardwareProfile;
use lpa_costmodel::model::JoinEnumeration;
use lpa_costmodel::NetworkCostModel;
use lpa_partition::{Partitioning, StateEncoder};
use lpa_rl::{rollout, DqnConfig};
use lpa_workload::MixSampler;
use serde_json::json;

/// Train a TPC-CH advisor with or without edge actions by masking the
/// edges out of the schema when disabled.
fn train(with_edges: bool, seed: u64) -> (Advisor, f64) {
    let bench = Benchmark::Tpcch;
    let scale = bench.scale();
    let mut schema = bench.schema(scale.sf).expect("schema builds");
    if !with_edges {
        // Rebuild the schema without candidate edges: the agent can still
        // reach every co-partitioning, but only via two coordinated
        // single-table actions.
        schema = strip_edges(&schema);
    }
    let workload = bench.workload(&schema).expect("workload builds");
    let cfg = DqnConfig {
        episodes: scale.episodes / 2,
        ..bench.dqn_config(seed)
    };
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(cost_params(HardwareProfile::standard())),
        MixSampler::uniform(&workload),
        cfg,
        false,
    );
    let f = workload.uniform_frequencies();
    let s = advisor.suggest(&f);
    (advisor, s.reward)
}

fn strip_edges(schema: &lpa_schema::Schema) -> lpa_schema::Schema {
    let mut b = lpa_schema::SchemaBuilder::new(schema.name.clone());
    for t in schema.tables() {
        b.table(t.clone());
    }
    b.build().expect("edge-free schema is valid")
}

fn main() {
    figure(
        "Ablation 1",
        "Edge actions on vs off (TPC-CH offline, suggestion reward)",
    );
    let (_, r_with) = train(true, 0xAB1);
    let (_, r_without) = train(false, 0xAB1);
    println!("  with edge actions     reward {r_with:.5}");
    println!("  without edge actions  reward {r_without:.5}");
    println!(
        "  edge shortcut gain: {:+.1}%",
        (1.0 - r_with / r_without) * 100.0
    );

    figure(
        "Ablation 2",
        "Best-state vs last-state inference (Section 6)",
    );
    let bench = Benchmark::Tpcch;
    let scale = bench.scale();
    let schema = bench.schema(scale.sf).expect("schema builds");
    let workload = bench.workload(&schema).expect("workload builds");
    let cfg = DqnConfig {
        episodes: scale.episodes / 2,
        ..bench.dqn_config(0xAB2)
    };
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(cost_params(HardwareProfile::standard())),
        MixSampler::uniform(&workload),
        cfg.clone(),
        false,
    );
    // Roll out greedily and compare the best state against the last state
    // over several mixes.
    let mut best_wins = 0;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xAB3);
    let mut sampler = MixSampler::uniform(&workload);
    let mixes = 12;
    let mut gaps = Vec::new();
    for _ in 0..mixes {
        let f: lpa_workload::FrequencyVector = sampler.sample(&mut rng);
        let prev = advisor.env.set_sampler(MixSampler::Fixed(f.clone()));
        let (best, last) = {
            let (agent, env) = advisor.agent_env_mut();
            let traj = rollout(agent, env, cfg.tmax);
            let best = traj.rewards[1..]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let last = *traj.rewards.last().unwrap();
            (best, last)
        };
        advisor.env.set_sampler(prev);
        if best > last {
            best_wins += 1;
        }
        gaps.push((best - last) / last.abs().max(1e-12));
    }
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64 * 100.0;
    println!("  best state strictly better than last state: {best_wins}/{mixes} mixes");
    println!("  mean reward gap (best vs last): {mean_gap:+.2}%");

    figure(
        "Ablation 3",
        "Greedy vs exhaustive join enumeration (plan quality)",
    );
    let greedy = NetworkCostModel::new(cost_params(HardwareProfile::standard()));
    let exhaustive = NetworkCostModel::new(cost_params(HardwareProfile::standard()))
        .with_enumeration(JoinEnumeration::Exhaustive);
    let p = Partitioning::initial(&schema);
    let mut worst_ratio: f64 = 1.0;
    let mut total_g = 0.0;
    let mut total_e = 0.0;
    for q in workload.queries() {
        let g = greedy.query_cost(&schema, q, &p);
        let e = exhaustive.query_cost(&schema, q, &p);
        worst_ratio = worst_ratio.max(g / e);
        total_g += g;
        total_e += e;
    }
    println!("  total cost greedy / exhaustive: {:.4}", total_g / total_e);
    println!("  worst per-query ratio: {worst_ratio:.4}");
    let _ = StateEncoder::new(&schema, workload.slots()); // keep API exercised

    save_json(
        "ablations",
        &json!({
            "edge_actions": json!({ "with": r_with, "without": r_without }),
            "inference": json!({ "best_wins": best_wins, "mixes": mixes, "mean_gap_pct": mean_gap }),
            "join_enum": json!({ "greedy_over_exhaustive": total_g / total_e, "worst_ratio": worst_ratio }),
        }),
    );
}
