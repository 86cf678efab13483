//! Runs every workload at `--size tiny`, untraced and traced, and checks the
//! result line against `BENCHMARK.json`: same workloads, same metric names
//! and units, no failed operation, sample counts printed beside the
//! percentiles.

#![allow(clippy::unwrap_used)] // test code

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn text(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

/// A whole number of the result line (the JSON reader yields `Int` or `UInt`).
fn whole(v: Option<&Value>) -> i128 {
    match v {
        Some(Value::Int(i)) => i128::from(*i),
        Some(Value::UInt(u)) => i128::from(*u),
        other => panic!("expected a whole number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one of BENCHMARK.json's lists.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list}");
    };
    items
        .iter()
        .map(|m| (text(m.get("name")), text(m.get("unit"))))
        .collect()
}

fn run(workload: &str, trace: &str) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lpa-perf"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{workload} trace {trace}:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    (serde_json::from_str(last).unwrap(), stderr)
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let Some(Value::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = text(w.get("name"));
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (result, stderr) = run(&name, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{name}");
            assert_eq!(whole(result.get("failed")), 0, "{name}");
            assert!(whole(result.get("attempted")) >= 1, "{name}");
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(
                        matches!(v.get("value"), Some(Value::Float(x)) if x.is_finite()),
                        "{name}: {k} has no finite value"
                    );
                    (k.clone(), text(v.get("unit")))
                })
                .collect();
            assert_eq!(printed, declared(&doc, list), "{name} --trace {trace}");
            if trace == "0" {
                for p in ["latency_ms_p50", "latency_ms_p90"] {
                    let line = stderr.lines().find(|l| l.contains(p)).expect(p);
                    assert!(line.contains("(n="), "{name}: {p} without its sample count");
                }
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_lpa-perf"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
