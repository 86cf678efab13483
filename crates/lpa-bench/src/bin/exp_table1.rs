//! Table 1 — Hyperparameters used for DRL training.
//!
//! Prints the paper's Table 1 from the canonical [`DqnConfig::paper`]
//! values, plus the scaled simulation configurations the harness actually
//! runs with (same relative settings, fewer episodes/steps).

use lpa_bench::{figure, Benchmark};
use lpa_rl::{DqnConfig, REPLAY_CAPACITY};

fn print_cfg(label: &str, c: &DqnConfig) {
    println!("  -- {label}");
    println!("    Learning Rate                  {:>10}", c.learning_rate);
    println!("    tau (Target network update)    {:>10}", c.tau);
    println!("    Optimizer                      {:>10}", "Adam");
    println!("    Experience Replay Buffer Size  {:>10}", REPLAY_CAPACITY);
    println!("    Batch Size for Experience Rep. {:>10}", c.batch_size);
    println!(
        "    Epsilon Decay                  {:>10.4}",
        c.epsilon_decay
    );
    println!("    tmax (Max Stepsize)            {:>10}", c.tmax);
    println!("    Episodes                       {:>10}", c.episodes);
    println!(
        "    Network Layout                 {:>10}",
        c.hidden
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join("-")
    );
    println!("    gamma (Reward Discount)        {:>10}", c.gamma);
}

fn main() {
    figure("Table 1", "Hyperparameters used for DRL training");
    print_cfg("paper (SSB: 600 episodes)", &DqnConfig::paper());
    print_cfg(
        "paper (TPC-DS / TPC-CH: 1200 episodes)",
        &DqnConfig::paper_large(),
    );
    println!();
    println!("  Scaled simulation configurations used by this harness:");
    for b in [
        Benchmark::Ssb,
        Benchmark::Tpcds,
        Benchmark::Tpcch,
        Benchmark::Micro,
    ] {
        print_cfg(b.name(), &b.dqn_config(0));
    }
}
