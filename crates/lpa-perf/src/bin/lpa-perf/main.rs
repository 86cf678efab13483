//! `lpa-perf`: the workspace's performance benchmark.
//!
//! ```text
//! lpa-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! lpa-perf all   [--seed n] [--seconds s] [--size full|tiny]
//! lpa-perf noise [--seed n] [--seconds s] [--size full|tiny]
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. `all` and `noise` run each workload in a child
//! process of its own (peak memory is per process). The exit code is
//! non-zero when any output check failed. See `README.md`.

#![allow(clippy::unwrap_used)] // benchmark code; libraries are gated by lpa-lint L001

mod fleet_durable;
mod harness;
mod noise;
mod offline_train;
mod online_storm;
mod probes;
mod service_sql;
mod trace;

use harness::{Outcome, RunCfg, Size, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ! {
    eprintln!(
        "usage: lpa-perf --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]\n\
         \x20      lpa-perf all   [--seed n] [--seconds s] [--size full|tiny]\n\
         \x20      lpa-perf noise [--seed n] [--seconds s] [--size full|tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Cli {
    mode: String,
    workload: Option<String>,
    cfg: RunCfg,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        mode: "one".to_string(),
        workload: None,
        cfg: RunCfg {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            size: Size::Full,
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "all" | "noise" => cli.mode = a,
            "--workload" => cli.workload = Some(val()),
            "--seed" => cli.cfg.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.cfg.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.cfg.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--size" => {
                cli.cfg.size = match val().as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !(cli.cfg.seconds.is_finite() && cli.cfg.seconds >= 0.0) {
        usage();
    }
    cli
}

fn drive<W: Workload>(workload: &W, cfg: &RunCfg) -> Outcome {
    if cfg.trace {
        harness::run_traced(workload, cfg)
    } else {
        harness::run_end_to_end(workload, cfg)
    }
}

fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "offline_train" => drive(&offline_train::OfflineTrain, cfg),
        "online_storm" => drive(&online_storm::OnlineStorm, cfg),
        "service_sql" => drive(&service_sql::ServiceSql, cfg),
        "fleet_durable" => drive(&fleet_durable::FleetDurable, cfg),
        _ => usage(),
    }
}

fn main() {
    // Run with the pool users get by default: whatever `LPA_THREADS` the
    // caller's shell carries must not decide the numbers. Nothing else is
    // running yet, so editing the environment is safe here.
    std::env::remove_var("LPA_THREADS");
    let cli = parse_cli();
    let ok = match cli.mode.as_str() {
        "all" => noise::run_all(&cli.cfg),
        "noise" => noise::run_noise(&cli.cfg),
        _ => {
            let Some(name) = cli.workload.as_deref() else {
                usage()
            };
            let outcome = run_workload(name, &cli.cfg);
            outcome.report();
            println!("{}", outcome.result_line());
            outcome.correct()
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
