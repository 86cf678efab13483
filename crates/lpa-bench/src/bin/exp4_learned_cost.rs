//! Experiment 4 (Fig. 7a/7b) — DRL vs learned neural cost models.
//!
//! The alternative to Q-learning: train a neural cost model (offline on
//! the network-centric model, online on measured runtimes) and minimize
//! it by search. Exploit and explore variants get the *same* online
//! training budget (simulated seconds) as the RL agent, with all
//! optimizations shared; the paper shows the RL agent still wins because
//! it visits about 3x as many distinct partitionings.

use lpa_advisor::{OnlineBackend, OnlineOptimizations};
use lpa_baselines::{NeuralCostAdvisor, NeuralCostVariant};
use lpa_bench::setup::{cluster, cost_params, eval_partitioning, offline_advisor, refine_online};
use lpa_bench::{accuracy, bar, figure, save_json, Approach, Benchmark};
use lpa_cluster::{EngineKind, HardwareProfile};
use lpa_costmodel::NetworkCostModel;
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

    eprintln!("[RL offline…]");
    let mut rl = offline_advisor(bench, kind, hw, 0xA11CE).expect("advisor trains");
    let p_rl_off = rl.suggest(&freqs).partitioning;
    let t_rl_off = eval_partitioning(&mut full, &workload, &freqs, &p_rl_off);

    eprintln!("[RL online…]");
    refine_online(&mut rl, &mut full, bench, OnlineOptimizations::default());
    let p_rl_on = rl.suggest(&freqs).partitioning;
    let t_rl_on = eval_partitioning(&mut full, &workload, &freqs, &p_rl_on);
    let rl_backend = rl.env.backend().as_online().expect("online");
    let budget = rl_backend.accounting.total();
    let (shared_cluster, shared_cache, scale_factors, opts) = (
        rl_backend.cluster(),
        rl_backend.cache(),
        rl_backend.scale_factors().to_vec(),
        rl_backend.optimizations(),
    );
    eprintln!("[online budget: {:.2} simulated h]", budget / 3600.0);

    // Both learned-cost variants get the same offline pair budget as the
    // RL agent saw (episodes × tmax workload/partitioning pairs) and the
    // same online budget in simulated seconds, sharing cache + cluster.
    let offline_pairs = scale.episodes * scale.tmax;
    let mut variants = Vec::new();
    for (label, variant) in [
        ("Learned Costs (Exploit)", NeuralCostVariant::Exploit),
        ("Learned Costs (Explore)", NeuralCostVariant::Explore),
    ] {
        eprintln!("[{label}: offline bootstrap…]");
        let mut advisor = NeuralCostAdvisor::bootstrap_offline(
            schema.clone(),
            workload.clone(),
            &NetworkCostModel::new(cost_params(hw)),
            offline_pairs,
            25,
            variant,
            0x1C0,
        );
        eprintln!("[{label}: online refinement under the shared budget…]");
        let mut backend = OnlineBackend::new(
            shared_cluster.clone(),
            shared_cache.clone(),
            scale_factors.clone(),
            opts,
        );
        while backend.accounting.total() < budget {
            advisor.refine_online(&mut backend, 1, 3, 2);
        }
        let p = advisor.suggest(&freqs);
        let t = eval_partitioning(&mut full, &workload, &freqs, &p);
        let distinct = advisor.distinct_partitionings.len();
        variants.push((label, advisor, t, distinct));
    }

    figure(
        "Fig. 7a",
        "TPC-CH workload runtime (s): RL vs learned cost models",
    );
    bar("RL (offline)", t_rl_off, "s");
    bar("RL online", t_rl_on, "s");
    for (label, _, t, distinct) in &variants {
        bar(label, *t, "s");
        println!("    ({distinct} distinct partitionings measured online)");
    }

    let (t_exploit, d_exploit) = (variants[0].2, variants[0].3);
    let (t_explore, d_explore) = (variants[1].2, variants[1].3);

    // Fig. 7b: workload adaptivity of the four learned approaches.
    figure("Fig. 7b", "Accuracy on workload clusters A and B");
    let mut probe = OnlineBackend::new(shared_cluster, shared_cache, scale_factors, opts);
    let hot = lpa_workload::tpcch::stock_item_queries(&schema, &workload);
    let mut fig7b = Vec::new();
    let mut iter = variants.iter_mut();
    let (lbl_exploit, exploit, ..) = iter.next().unwrap();
    let (lbl_explore, explore, ..) = iter.next().unwrap();
    for (name, mut sampler) in [
        ("Workload A", MixSampler::uniform(&workload)),
        (
            "Workload B",
            MixSampler::emphasis(&workload, hot.clone(), 6.0),
        ),
    ] {
        let rl_ref = &mut rl;
        let mut approaches = vec![
            Approach::new("RL online", |f| rl_ref.suggest(f).partitioning),
            Approach::new(lbl_exploit, |f| exploit.suggest(f)),
            Approach::new(lbl_explore, |f| explore.suggest(f)),
        ];
        let acc = accuracy(
            &mut approaches,
            &mut probe,
            &workload,
            &mut sampler,
            24,
            0x7B,
        );
        println!("  -- {name}");
        for (label, a) in &acc {
            println!("    {label:<36} {:>6.1}%", a * 100.0);
        }
        fig7b.push(json!({ "cluster": name, "accuracy": acc }));
    }

    save_json(
        "exp4_learned_cost",
        &json!({
            "fig7a": json!({
                "rl_offline_s": t_rl_off,
                "rl_online_s": t_rl_on,
                "exploit_s": t_exploit,
                "explore_s": t_explore,
                "exploit_distinct": d_exploit,
                "explore_distinct": d_explore,
            }),
            "fig7b": fig7b,
        }),
    );
}
