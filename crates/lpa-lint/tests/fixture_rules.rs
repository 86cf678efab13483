//! Drives the token rules over the fixture files under `tests/fixtures/`.
//! Fixtures are excluded from the workspace walk (the walker skips
//! `fixtures/` directories), so deliberate violations here never fail the
//! real gate; each is linted explicitly with a synthetic in-scope path.
//! The rules clippy enforces have their fixture in `tests/clippy_fixture`,
//! checked by `scripts/clippy_fixture.sh`.

use lpa_lint::{lint_source, Diagnostic, FileKind};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lint a fixture as library code under a determinism-scoped path.
fn lint_as_lib(name: &str) -> Vec<Diagnostic> {
    let src = fixture(name);
    lint_source(
        &format!("crates/lpa-costmodel/src/{name}"),
        &src,
        FileKind::Lib,
    )
    .unwrap_or_else(|e| panic!("lex {name}: {e}"))
}

fn of_rule<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

/// Every finding sits on a line of `src` carrying `marker`.
fn assert_marked(src: &str, diags: &[&Diagnostic], marker: &str) {
    for d in diags {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains(marker),
            "{}:{} not marked: {text}",
            d.rule,
            d.line
        );
    }
}

/// Lint `name` as library code and check it yields exactly `count`
/// findings, all of `rule` and each on a line marked `FINDING <rule>`.
fn assert_fixture(name: &str, rule: &str, count: usize) {
    let report = lint_as_lib(name);
    let hits = of_rule(&report, rule);
    assert_eq!(hits.len(), count, "{report:?}");
    assert_eq!(report.len(), count, "{report:?}");
    assert_marked(&fixture(name), &hits, &format!("FINDING {rule}"));
}

#[test]
fn l002_fixture_finds_hash_collections() {
    // Two `use` lines, two signature mentions and the `cfg(not(test))` one.
    assert_fixture("l002_determinism.rs", "L002", 5);
}

#[test]
fn l002_is_scoped_to_determinism_paths() {
    let src = fixture("l002_determinism.rs");
    let count = |rel_path: &str| {
        let report = lint_source(rel_path, &src, FileKind::Lib).expect("lexes");
        of_rule(&report, "L002").len()
    };
    for outside in [
        "crates/lpa-sql/src/fixture.rs",
        "crates/lpa-bench/src/fixture.rs",
        "crates/lpa-cluster/src/fixture.rs",
    ] {
        assert_eq!(count(outside), 0, "{outside}");
    }
    // The weight-update and checkpoint-codec paths are in scope.
    for sink in [
        "crates/lpa-nn/src/fixture.rs",
        "crates/lpa-store/src/codec.rs",
        "crates/lpa-store/src/snapshot.rs",
        "crates/lpa-rl/src/profile.rs",
    ] {
        assert_eq!(count(sink), 5, "{sink}");
    }
    // Test-like files are exempt like all rules.
    let report = lint_source("tests/determinism.rs", &src, FileKind::TestLike).expect("lexes");
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn l005_fixture_flags_f32_sums() {
    assert_fixture("l005_f32_sums.rs", "L005", 3);
}

#[test]
fn l007_fixture_flags_refutable_lets_and_renames() {
    // `if let`, `while let`, `let … else` and one `QueryOutcome as`.
    assert_fixture("l007_queryoutcome.rs", "L007", 4);
}

#[test]
fn l007_is_exempt_in_test_like_code() {
    let src = fixture("l007_queryoutcome.rs");
    let report = lint_source("tests/chaos.rs", &src, FileKind::TestLike).expect("lexes");
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn false_positive_fixture_is_clean() {
    let report = lint_as_lib("false_positives.rs");
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn l013_fixture_flags_hot_fn_allocations_only() {
    let src = fixture("l013_hot_alloc.rs");
    // Linted under the columnar executor's path, where the hot-fn list
    // (`join_step_col`, `seed_inter_col`, …) applies.
    let report =
        lint_source("crates/lpa-cluster/src/columnar.rs", &src, FileKind::Lib).expect("lexes");
    let l013 = of_rule(&report, "L013");
    assert_eq!(l013.len(), 3, "{report:?}");
    assert_marked(&src, &l013, "FINDING");
    for d in &l013 {
        assert!(d.message.contains("join_step_col"), "{}", d.message);
    }
    // Outside the scoped files the same source is clean.
    let elsewhere =
        lint_source("crates/lpa-cluster/src/cluster.rs", &src, FileKind::Lib).expect("lexes");
    assert!(of_rule(&elsewhere, "L013").is_empty(), "{elsewhere:?}");
}

#[test]
fn l013_covers_delta_encoder_path() {
    // The encoder scope polices `encode_batch`.
    let src = "impl E {\n    fn encode_batch(&mut self) -> Vec<f32> {\n        self.tmp.iter().copied().collect()\n    }\n}\n";
    let report = lint_source(
        "crates/lpa-partition/src/delta_encoder.rs",
        src,
        FileKind::Lib,
    )
    .expect("lexes");
    let rules: Vec<&str> = report.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["L013"], "{report:?}");
}

#[test]
fn l013_covers_the_monitor_memo_hit_path_not_its_miss_path() {
    let src = "impl M {\n    fn observe(&mut self) -> usize {\n        let v: Vec<u8> = Vec::new();\n        v.len()\n    }\n    fn observe_miss(&mut self) -> usize {\n        let v: Vec<u8> = Vec::new();\n        v.len()\n    }\n}\n";
    let report =
        lint_source("crates/lpa-service/src/monitor.rs", src, FileKind::Lib).expect("lexes");
    let lines: Vec<u32> = of_rule(&report, "L013").iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![3], "{report:?}");
    let key = src.replace("fn observe(", "fn shape_key(");
    let report = lint_source("crates/lpa-sql/src/lexer.rs", &key, FileKind::Lib).expect("lexes");
    assert!(report.iter().any(|d| d.rule == "L013" && d.line == 3));
}

#[test]
fn l015_fixture_flags_direct_deploy_outside_guardrail_module() {
    let src = fixture("l015_direct_deploy.rs");
    let report =
        lint_source("crates/lpa-service/src/service.rs", &src, FileKind::Lib).expect("lexes");
    let l015 = of_rule(&report, "L015");
    assert_eq!(l015.len(), 2, "{report:?}");
    assert_marked(&src, &l015, "FINDING");
    // The guardrail module itself owns deployment — same source, clean.
    let owner =
        lint_source("crates/lpa-cluster/src/guardrail.rs", &src, FileKind::Lib).expect("lexes");
    assert!(of_rule(&owner, "L015").is_empty(), "{owner:?}");
}
