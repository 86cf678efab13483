//! The workspace lint gate: `cargo test` fails if any source file violates
//! rules L001–L015 without a justified waiver. This is the same check as
//! `cargo run -p lpa-lint`, wired into the test suite so a violation cannot
//! land through an ordinary `cargo test` run.
//!
//! Beyond the gate itself, this file carries the negative controls: seeded
//! fixtures proving each structural rule (L009–L011 and the alias-resolved
//! L004/L007/L008) actually fires on a true positive and stays silent on a
//! near-miss, a JSON-schema check for `--json` consumers, a thread-count
//! determinism check, and a wall-clock budget so the linter cannot quietly
//! become the slowest test in the suite.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use std::path::Path;
use std::time::Instant;

/// Every waiver must carry a justification, and the total number of waivers
/// across the workspace is budgeted: a growing pile of waivers means a rule
/// is wrong or the code is drifting. Raise only with a matching DESIGN.md
/// note.
const WAIVER_BUDGET: usize = 15;

/// Upper bound on a full workspace lint, in seconds. The whole pipeline
/// (parse, call graph, taint) over the workspace is ~1s on one core today;
/// 30s leaves an order of magnitude of headroom for slow CI machines while
/// still catching accidental quadratic blowups.
const WALL_CLOCK_BUDGET_SECS: u64 = 30;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn lint_lib(rel_path: &str, source: &str) -> lpa_lint::FileReport {
    lpa_lint::lint_source(rel_path, source, lpa_lint::FileKind::Lib).expect("lexes")
}

fn rules_of(report: &lpa_lint::FileReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn workspace_is_lint_clean_and_fast() {
    let started = Instant::now();
    let report = lpa_lint::lint_workspace(workspace_root()).expect("walk workspace");
    let elapsed = started.elapsed();
    assert!(
        report.files_scanned > 50,
        "walked only {} files — wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "lint violations (fix them or add `// lint: allow(LXXX) reason`):\n{}",
        rendered.join("\n")
    );
    assert!(
        elapsed.as_secs() < WALL_CLOCK_BUDGET_SECS,
        "lint_workspace took {elapsed:?}, over the {WALL_CLOCK_BUDGET_SECS}s budget"
    );
}

#[test]
fn waivers_stay_within_budget_and_justified() {
    let report = lpa_lint::lint_workspace(workspace_root()).expect("walk workspace");
    assert!(
        report.waivers.len() <= WAIVER_BUDGET,
        "{} waivers exceed the budget of {WAIVER_BUDGET}; fix code instead of waiving it",
        report.waivers.len()
    );
    for w in &report.waivers {
        assert!(
            w.reason.len() >= 10,
            "waiver at {}:{} has no real justification",
            w.rel_path,
            w.line
        );
    }
}

/// The report must be byte-identical for any thread count: phase 1 fans
/// out per file over the lpa-par pool, and `par_map` preserves index
/// order, so parallelism must never show up in the output.
#[test]
fn report_is_identical_across_thread_counts() {
    let one = lpa_par::with_threads(1, || {
        lpa_lint::lint_workspace(workspace_root()).expect("walk workspace")
    });
    let eight = lpa_par::with_threads(8, || {
        lpa_lint::lint_workspace(workspace_root()).expect("walk workspace")
    });
    assert_eq!(
        one.to_json(),
        eight.to_json(),
        "lint output differs between 1 and 8 threads"
    );
}

/// `--json` consumers parse this with serde_json in CI; the shape is part
/// of the linter's contract.
#[test]
fn json_report_has_the_documented_schema() {
    use serde_json::Value;

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.get(name)
            .unwrap_or_else(|| panic!("missing field `{name}` in {v:?}"))
    }
    fn expect_uint(v: &Value, name: &str) -> u64 {
        match field(v, name) {
            Value::UInt(n) => *n,
            Value::Int(n) if *n >= 0 => *n as u64,
            other => panic!("field `{name}` is not an integer: {other:?}"),
        }
    }
    fn expect_str(v: &Value, name: &str) {
        assert!(
            matches!(field(v, name), Value::Str(_)),
            "field `{name}` is not a string"
        );
    }
    fn expect_array<'a>(v: &'a Value, name: &str) -> &'a [Value] {
        match field(v, name) {
            Value::Array(items) => items,
            other => panic!("field `{name}` is not an array: {other:?}"),
        }
    }

    let report = lpa_lint::lint_workspace(workspace_root()).expect("walk workspace");
    let value: Value = serde_json::from_str(&report.to_json()).expect("to_json emits valid JSON");
    assert!(expect_uint(&value, "files_scanned") > 50);
    expect_uint(&value, "suppressed");
    assert!(matches!(field(&value, "clean"), Value::Bool(_)));
    for d in expect_array(&value, "diagnostics") {
        expect_str(d, "rule");
        expect_str(d, "file");
        expect_uint(d, "line");
        expect_str(d, "message");
    }
    for w in expect_array(&value, "waivers") {
        expect_str(w, "rule");
        expect_str(w, "file");
        expect_uint(w, "line");
        expect_str(w, "reason");
    }
}

/// Negative control: the gate must actually catch violations. If this test
/// fails, the gate is a no-op and the clean-workspace test proves nothing.
#[test]
fn gate_catches_a_fresh_violation() {
    let bad = r#"
pub fn poisoned(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    let report = lint_lib("crates/lpa-costmodel/src/injected.rs", bad);
    // The textual rule (L001) and the call-graph rule (L009) both fire on
    // a panic site directly inside a library `pub fn`.
    assert_eq!(rules_of(&report), vec!["L001", "L009"]);

    let nondeterministic = r#"
use std::collections::HashMap;
pub fn reward(m: &HashMap<u32, f64>) -> f64 {
    let mut total: f32 = 0.0;
    for v in m.values() {
        total += *v as f32;
    }
    f64::from(total)
}
"#;
    let report = lint_lib("crates/lpa-costmodel/src/injected.rs", nondeterministic);
    let rules = rules_of(&report);
    assert!(rules.contains(&"L002"), "{rules:?}");
    assert!(rules.contains(&"L005"), "{rules:?}");
    assert!(rules.contains(&"L010"), "{rules:?}");
}

/// L009 true positive: the panic hides two private calls deep, where the
/// token-level L001 (library `pub fn` only sees its own body) cannot reach.
/// Near-miss: the same helper reachable only from a `#[test]` fn.
#[test]
fn l009_transitive_panic_fires_and_test_only_does_not() {
    let transitive = r#"
pub fn entry(v: &[u32], i: usize) -> u32 {
    middle(v, i)
}
fn middle(v: &[u32], i: usize) -> u32 {
    deep(v, i)
}
fn deep(v: &[u32], i: usize) -> u32 {
    v[i]
}
"#;
    let report = lint_lib("crates/lpa-costmodel/src/injected.rs", transitive);
    assert_eq!(rules_of(&report), vec!["L009"]);
    assert_eq!(report.diagnostics[0].line, 9, "{:?}", report.diagnostics);
    assert!(
        report.diagnostics[0]
            .message
            .contains("entry -> middle -> deep"),
        "diagnostic should render the call path: {}",
        report.diagnostics[0].message
    );

    let test_only = r#"
fn deep(v: &[u32], i: usize) -> u32 {
    v[i]
}
#[test]
fn t() {
    assert_eq!(deep(&[0; 13], 0), 0);
}
"#;
    let report = lint_lib("crates/lpa-costmodel/src/injected.rs", test_only);
    assert_eq!(rules_of(&report), Vec::<&str>::new());

    // Near-miss inside a pub fn: the index is bounded by a `%` reduction.
    let bounded = r#"
pub fn entry(v: &[u32], i: usize) -> u32 {
    v[i % v.len()]
}
"#;
    let report = lint_lib("crates/lpa-costmodel/src/injected.rs", bounded);
    assert_eq!(rules_of(&report), Vec::<&str>::new());
}

/// L010 true positive: a float accumulation whose iteration order follows
/// a HashMap. Near-miss: the same accumulation over a slice.
#[test]
fn l010_hash_order_reduction_fires_and_slice_does_not() {
    let hash_order = r#"
use std::collections::HashMap;
pub fn total(m: &HashMap<u32, f64>) -> f64 {
    m.values().sum()
}
"#;
    let report = lint_lib("crates/lpa-nn/src/injected.rs", hash_order);
    // L011 also fires: the hash iteration is itself a nondeterminism
    // source inside a weight-path (lpa-nn) function.
    assert_eq!(rules_of(&report), vec!["L010", "L011"]);

    let slice_order = r#"
pub fn total(v: &[f64]) -> f64 {
    let mut acc: f64 = 0.0;
    for x in v {
        acc += *x;
    }
    acc + v.iter().sum::<f64>()
}
"#;
    let report = lint_lib("crates/lpa-nn/src/injected.rs", slice_order);
    assert_eq!(rules_of(&report), Vec::<&str>::new());
}

/// L011 true positive: a wall-clock read inside a weight-update-path
/// function. Near-miss: the same read in a non-sink crate.
#[test]
fn l011_taint_fires_in_sink_and_not_elsewhere() {
    let clock_in_sink = r#"
pub fn step_scale() -> f64 {
    let t = std::time::Instant::now();
    let _ = t;
    0.001
}
"#;
    let report = lint_lib("crates/lpa-nn/src/injected.rs", clock_in_sink);
    // L003 (token rule, file scope) and L011 (structural, fn scope) both
    // see the wall-clock read inside lpa-nn.
    let rules = rules_of(&report);
    assert!(rules.contains(&"L011"), "{rules:?}");

    // Same code in the bench harness crate: not a reward/encoding path.
    let report = lint_lib("crates/lpa-bench/src/injected.rs", clock_in_sink);
    assert!(!rules_of(&report).contains(&"L011"));

    // Hash-order values flowing into a sink call across a fn boundary.
    let cross_fn = r#"
use std::collections::HashMap;
fn encode_weight(x: f64) -> f64 {
    x * 0.5
}
pub fn summarize(m: &HashMap<u32, f64>) -> f64 {
    let first = m.values().next().copied().unwrap_or(0.0);
    encode_weight(first)
}
"#;
    let report = lint_lib("crates/lpa-nn/src/injected.rs", cross_fn);
    let rules = rules_of(&report);
    assert!(rules.contains(&"L011"), "{rules:?}");
}

/// The structural path rules (`dataflow::l012`, reported as L004/L007/L008)
/// true positive: a catch-all arm in a match over `Action` reached through
/// a `use … as` alias, which no token scan could see. Near-miss: an
/// exhaustive match through the same alias.
#[test]
fn l012_alias_resolved_catch_all_fires_and_exhaustive_does_not() {
    let aliased_catch_all = r#"
pub enum Action { Split, Merge, NoOp }
use self::Action as Act;
pub fn apply(a: Act) -> u32 {
    match a {
        Act::Split => 1,
        other => 0,
    }
}
"#;
    let report = lint_lib("crates/lpa-partition/src/injected.rs", aliased_catch_all);
    assert_eq!(rules_of(&report), vec!["L004"]);
    assert_eq!(report.diagnostics[0].line, 7, "{:?}", report.diagnostics);

    let exhaustive = r#"
pub enum Action { Split, Merge, NoOp }
use self::Action as Act;
pub fn apply(a: Act) -> u32 {
    match a {
        Act::Split => 1,
        Act::Merge => 2,
        Act::NoOp => 0,
    }
}
"#;
    let report = lint_lib("crates/lpa-partition/src/injected.rs", exhaustive);
    assert_eq!(rules_of(&report), Vec::<&str>::new());

    // The same through an aliased `QueryOutcome`: one finding per catch-all
    // arm, never a token and a structural report of the same line.
    let aliased_outcome = r#"
pub enum QueryOutcome { Completed, TimedOut, Failed }
use self::QueryOutcome as Outcome;
pub fn seconds(o: Outcome) -> u32 {
    match o {
        Outcome::Completed => 1,
        other => 0,
    }
}
"#;
    let report = lint_lib("crates/lpa-cluster/src/injected.rs", aliased_outcome);
    assert_eq!(rules_of(&report), vec!["L007"]);
    assert_eq!(report.diagnostics[0].line, 7, "{:?}", report.diagnostics);

    // L008: raw fs write through an alias, outside lpa-store.
    let aliased_write = r#"
use std::fs::write as persist;
pub fn save(p: &str, data: &[u8]) {
    let _ = persist(p, data);
}
"#;
    let report = lint_lib("crates/lpa-advisor/src/injected.rs", aliased_write);
    assert_eq!(rules_of(&report), vec!["L008"]);
}

/// Waivers cover the structural rules exactly like the token rules.
#[test]
fn structural_findings_are_waivable() {
    let waived = r#"
pub fn entry(v: &[u32]) -> u32 {
    // lint: allow(L009) fixture exercises waiver coverage of both rules
    v.first().copied().unwrap() // lint: allow(L001) fixture waiver coverage
}
"#;
    let report = lint_lib("crates/lpa-costmodel/src/injected.rs", waived);
    assert_eq!(
        rules_of(&report),
        Vec::<&str>::new(),
        "{:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 2);
}
