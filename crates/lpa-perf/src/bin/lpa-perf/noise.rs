//! `lpa-perf all` and `lpa-perf noise`: run the workloads in child processes
//! (peak memory is per process) and judge run-to-run agreement against the
//! bounds in `BENCHMARK.json`.

use crate::harness::{median, RunCfg, Size, EXACT, WORKLOADS};
use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

type MetricValues = Vec<(String, f64)>;

/// Run one workload in a child process; `None` (and a message) when it
/// failed a check, crashed or printed no result.
fn child(workload: &str, cfg: &RunCfg, seed: u64, trace: bool) -> Option<MetricValues> {
    let exe = std::env::current_exe().expect("own path is known");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args([
            "--size",
            if cfg.size == Size::Tiny {
                "tiny"
            } else {
                "full"
            },
        ])
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc: Option<Value> = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok());
    let metrics = doc
        .as_ref()
        .and_then(|d| d.get("metrics"))
        .and_then(|m| match m {
            Value::Object(pairs) => Some(
                pairs
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), number(v.get("value")?)?)))
                    .collect::<MetricValues>(),
            ),
            _ => None,
        });
    if !output.status.success() || metrics.is_none() {
        eprintln!(
            "{workload} seed {seed} trace {}: exit {:?}\n{}",
            u8::from(trace),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
        return None;
    }
    metrics
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn to_json(metrics: &MetricValues) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect(),
    )
}

/// `lpa-perf all`: every workload once untraced and once traced; prints one
/// JSON summary. No gain is claimed by this harness.
pub fn run_all(cfg: &RunCfg) -> bool {
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        eprintln!("[{w}…]");
        let end_to_end = child(w, cfg, cfg.seed, false);
        let per_layer = child(w, cfg, cfg.seed, true);
        ok &= end_to_end.is_some() && per_layer.is_some();
        workloads.push((
            (*w).to_string(),
            json!({
                "end_to_end": to_json(&end_to_end.unwrap_or_default()),
                "per_layer": to_json(&per_layer.unwrap_or_default()),
            }),
        ));
    }
    let doc = json!({
        "seed": cfg.seed,
        "workloads": Value::Object(workloads),
        "correct": ok,
        "claim": Value::Null,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("summary serializes")
    );
    ok
}

struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics with direction and bound, as `BENCHMARK.json`
/// declares them.
fn declared() -> Vec<Declared> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    metrics
        .iter()
        .map(|m| Declared {
            name: match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => panic!("end_to_end metric without a name"),
            },
            higher_is_better: matches!(m.get("better"), Some(Value::Str(s)) if s == "higher"),
            bound: m.get("bound").and_then(number).expect("metric has a bound"),
        })
        .collect()
}

/// Interquartile range ÷ median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them: at positions (n+1)/4 and
/// 3(n+1)/4 (1-based) of the sorted sample, linearly interpolated.
fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: f64| {
        let pos = ((v.len() + 1) as f64 * k - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (quartile(0.75) - quartile(0.25)) / median(values).abs().max(1e-300)
}

/// Runs per set: what the benchmark's acceptance procedure takes its
/// quartiles over.
const RUNS: u64 = 10;

/// `lpa-perf noise`: the acceptance procedure of the benchmark contract, run
/// locally. Two sets of `RUNS` untraced runs per workload (seeds
/// `seed..seed+RUNS`, the same in both sets) and two traced runs. Fails
/// unless, per workload and end-to-end metric, the spread of each set
/// (interquartile range ÷ median) is within the metric's bound, the second
/// set's median is not worse than the first's by more than the bound, a
/// metric bounded at 0 reads the same bit for bit in every run, and every
/// exact per-layer metric is identical between the two traced runs. As in
/// the contract, `setup_s` is held to its bound on the median shift only,
/// not on its spread. Prints the observed spreads, so the bounds are
/// measured.
pub fn run_noise(cfg: &RunCfg) -> bool {
    let declared = declared();
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "iqr1", "iqr2", "shift", "bound"
    );
    for w in WORKLOADS {
        let mut sets: Vec<Vec<MetricValues>> = Vec::new();
        for set in 0..2 {
            let mut rows = Vec::new();
            for i in 0..RUNS {
                eprintln!("[{w}: set {set}, run {i}…]");
                match child(w, cfg, cfg.seed + i, false) {
                    Some(m) => rows.push(m),
                    None => ok = false,
                }
            }
            sets.push(rows);
        }
        let column = |set: usize, name: &str| -> Vec<f64> {
            sets[set]
                .iter()
                .filter_map(|row| row.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect()
        };
        for d in &declared {
            let (a, b) = (column(0, &d.name), column(1, &d.name));
            if a.len() < 2 || a.len() != b.len() {
                ok = false;
                continue;
            }
            let (iqr1, iqr2) = (quartile_spread(&a), quartile_spread(&b));
            let (m1, m2) = (median(&a), median(&b));
            let worse = if d.higher_is_better { m1 - m2 } else { m2 - m1 };
            let shift = worse / m1.abs().max(1e-300);
            // The contract holds `setup_s` to its bound on the shift only.
            let spread_judged = d.name != "setup_s";
            let mut verdict = if spread_judged {
                "ok"
            } else {
                "ok (shift only)"
            };
            if spread_judged && iqr1.max(iqr2) > d.bound {
                verdict = "SPREAD";
            }
            if shift > d.bound {
                verdict = "SHIFT";
            }
            if d.bound == 0.0 && a.iter().chain(&b).any(|x| x.to_bits() != a[0].to_bits()) {
                verdict = "NOT-EXACT";
            }
            ok &= verdict.starts_with("ok");
            println!(
                "{w:<14} {:<18} {m1:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                d.name,
                iqr1 * 100.0,
                iqr2 * 100.0,
                shift * 100.0,
                d.bound * 100.0
            );
        }
        eprintln!("[{w}: two traced runs…]");
        match (child(w, cfg, cfg.seed, true), child(w, cfg, cfg.seed, true)) {
            (Some(a), Some(b)) => {
                for (name, x) in a.iter().filter(|(n, _)| EXACT.contains(&n.as_str())) {
                    let y = b.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                    if y.map(f64::to_bits) != Some(x.to_bits()) {
                        println!("{w:<14} {name:<18} {x} vs {y:?}  NOT-EXACT");
                        ok = false;
                    }
                }
            }
            _ => ok = false,
        }
    }
    println!("{}", if ok { "noise: PASS" } else { "noise: FAIL" });
    ok
}
