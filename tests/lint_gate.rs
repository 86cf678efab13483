//! The workspace lint gate: `cargo test` fails if any source file violates
//! rules L001–L009 or L013–L015. This is the same check as `cargo run -p
//! lpa-lint`, wired into the test suite so a violation cannot land through
//! an ordinary `cargo test` run.
//!
//! Beyond the gate itself, this file carries the negative controls: seeded
//! fixtures proving each structural rule (L009 and the alias-resolved
//! L004/L007/L008) and the widened L002/L003 scopes actually fire on a true
//! positive and stay silent on a near-miss, a thread-count determinism
//! check, and a wall-clock budget so the linter cannot quietly become the
//! slowest test in the suite.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use std::path::Path;
use std::time::Instant;

/// Upper bound on a full workspace lint, in seconds. The whole pipeline
/// (parse, call graph, structural rules) over the workspace is ~1s on one
/// core today; 30s leaves an order of magnitude of headroom for slow CI machines while
/// still catching accidental quadratic blowups.
const WALL_CLOCK_BUDGET_SECS: u64 = 30;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn lint_lib(rel_path: &str, source: &str) -> Vec<lpa_lint::Diagnostic> {
    lpa_lint::lint_source(rel_path, source, lpa_lint::FileKind::Lib).expect("lexes")
}

fn rules_of(report: &[lpa_lint::Diagnostic]) -> Vec<&'static str> {
    report.iter().map(|d| d.rule).collect()
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
        "lint violations (fix them, or narrow the rule's scope with the reason beside it):\n{}",
        rendered.join("\n")
    );
    assert!(
        elapsed.as_secs() < WALL_CLOCK_BUDGET_SECS,
        "lint_workspace took {elapsed:?}, over the {WALL_CLOCK_BUDGET_SECS}s budget"
    );
}

/// The report must be identical for any thread count: phase 1 fans
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
    assert_eq!(one.files_scanned, eight.files_scanned);
    assert_eq!(
        one.diagnostics, eight.diagnostics,
        "lint output differs between 1 and 8 threads"
    );
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
    assert_eq!(report[0].line, 9, "{:?}", report);
    assert!(
        report[0].message.contains("entry -> middle -> deep"),
        "diagnostic should render the call path: {}",
        report[0].message
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

/// L002/L003 also cover the weight-update and checkpoint-codec paths: a
/// wall-clock read in `lpa-nn` or `lpa-rl`, a hash map in `lpa-store`'s
/// codec. Near-misses: `lpa-rl`'s phase timer and the bench harness.
#[test]
fn l002_l003_cover_weight_and_codec_paths_and_not_elsewhere() {
    let clock = r#"
pub fn step_scale() -> f64 {
    let t = std::time::Instant::now();
    let _ = t;
    0.001
}
"#;
    for sink in [
        "crates/lpa-nn/src/injected.rs",
        "crates/lpa-rl/src/injected.rs",
    ] {
        let report = lint_lib(sink, clock);
        assert_eq!(rules_of(&report), vec!["L003"], "{sink}");
        assert_eq!(report[0].line, 3, "{report:?}");
    }
    for silent in [
        "crates/lpa-rl/src/profile.rs",
        "crates/lpa-bench/src/injected.rs",
    ] {
        assert_eq!(
            rules_of(&lint_lib(silent, clock)),
            Vec::<&str>::new(),
            "{silent}"
        );
    }

    let hash_order = r#"
use std::collections::HashMap;
pub fn encode_weight(m: &HashMap<u32, f64>) -> f64 {
    let first = m.values().next().copied().unwrap_or(0.0);
    first * 0.5
}
"#;
    for sink in [
        "crates/lpa-store/src/codec.rs",
        "crates/lpa-nn/src/injected.rs",
    ] {
        assert_eq!(
            rules_of(&lint_lib(sink, hash_order)),
            vec!["L002", "L002"],
            "{sink}"
        );
    }
    let report = lint_lib("crates/lpa-bench/src/injected.rs", hash_order);
    assert_eq!(rules_of(&report), Vec::<&str>::new());
}

/// The structural path rules (`path_rules::l012`, reported as L004/L007/L008)
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
    assert_eq!(report[0].line, 7, "{:?}", report);

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
    assert_eq!(report[0].line, 7, "{:?}", report);

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
