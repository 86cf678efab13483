//! Drives the lint engine over the fixture files under `tests/fixtures/`.
//! Fixtures are excluded from the workspace walk (the walker skips
//! `fixtures/` directories), so deliberate violations here never fail the
//! real gate; each is linted explicitly with a synthetic in-scope path.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

use lpa_lint::{lint_source, FileKind};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lint a fixture as library code under a determinism-scoped path.
fn lint_as_lib(name: &str) -> lpa_lint::FileReport {
    let src = fixture(name);
    lint_source(
        &format!("crates/lpa-costmodel/src/{name}"),
        &src,
        FileKind::Lib,
    )
    .unwrap_or_else(|e| panic!("lex {name}: {e}"))
}

fn rules(report: &lpa_lint::FileReport) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn l001_fixture_finds_unwrap_expect_panic_outside_tests() {
    let report = lint_as_lib("l001_violations.rs");
    let l001: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L001")
        .collect();
    assert_eq!(l001.len(), 3, "{:?}", report.diagnostics);
    // The same panicky sites are also reachable from public functions, so
    // the structural pass may add L009 findings — but nothing else.
    assert!(
        rules(&report).iter().all(|r| *r == "L001" || *r == "L009"),
        "{:?}",
        report.diagnostics
    );
    // The waived unwrap is suppressed, the cfg(test) module is exempt.
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.waivers.len(), 1);
    let src = fixture("l001_violations.rs");
    for d in &l001 {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains("FINDING"),
            "line {} not marked: {text}",
            d.line
        );
    }
}

#[test]
fn l001_fixture_is_exempt_as_test_like_code() {
    let src = fixture("l001_violations.rs");
    let report = lint_source(
        "crates/lpa-costmodel/src/bin/tool.rs",
        &src,
        FileKind::TestLike,
    )
    .expect("lexes");
    // Only waiver hygiene can fire in test-like code; the waiver now
    // suppresses nothing, which is itself reported.
    assert_eq!(rules(&report), vec!["W000"]);
}

#[test]
fn l002_l003_fixture_finds_hash_collections_and_wall_clock() {
    let report = lint_as_lib("l002_l003_determinism.rs");
    let l002 = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L002")
        .count();
    let l003 = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L003")
        .count();
    // Two `use` lines plus two signature mentions; Instant and SystemTime.
    assert_eq!(l002, 4);
    assert_eq!(l003, 2);
    // The dataflow pass may independently flag the same hash-map iteration
    // and wall-clock reads (L010/L011); no other rules belong here.
    assert!(
        rules(&report)
            .iter()
            .all(|r| matches!(*r, "L002" | "L003" | "L010" | "L011")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn l002_is_scoped_to_determinism_paths() {
    let src = fixture("l002_l003_determinism.rs");
    let report = lint_source("crates/lpa-sql/src/fixture.rs", &src, FileKind::Lib).expect("lexes");
    // Outside both scopes neither rule fires.
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn l004_l005_fixture_flags_wildcards_and_f32_sums() {
    let report = lint_as_lib("l004_l005_actions.rs");
    let l004 = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L004")
        .count();
    let l005 = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L005")
        .count();
    assert_eq!(l004, 3, "{:?}", report.diagnostics);
    assert_eq!(l005, 3, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics.len(), l004 + l005);
    let src = fixture("l004_l005_actions.rs");
    for d in &report.diagnostics {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains(&format!("FINDING {}", d.rule)),
            "{}:{} not marked: {text}",
            d.rule,
            d.line
        );
    }
}

#[test]
fn l006_fixture_flags_direct_thread_use() {
    let report = lint_as_lib("l006_threads.rs");
    let l006: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L006")
        .collect();
    assert_eq!(l006.len(), 4, "{:?}", report.diagnostics);
    // Thread APIs are also L011 taint sources inside determinism sinks;
    // nothing beyond L006/L011 should fire on this fixture.
    assert!(
        rules(&report).iter().all(|r| matches!(*r, "L006" | "L011")),
        "{:?}",
        report.diagnostics
    );
    // The waived spawn is suppressed, not reported.
    assert_eq!(report.suppressed, 1);
    let src = fixture("l006_threads.rs");
    for d in &l006 {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains("FINDING L006"),
            "line {} not marked: {text}",
            d.line
        );
    }
}

#[test]
fn l006_exempts_lpa_par_and_test_like_code() {
    let src = fixture("l006_threads.rs");
    // Inside the pool crate the rule never fires (the waiver then
    // suppresses nothing, which is the only finding left).
    let report = lint_source("crates/lpa-par/src/lib.rs", &src, FileKind::Lib).expect("lexes");
    assert_eq!(rules(&report), vec!["W000"], "{:?}", report.diagnostics);
    // Test-like files (tests/, benches/, bins) are exempt like all rules.
    let report = lint_source("tests/determinism.rs", &src, FileKind::TestLike).expect("lexes");
    assert_eq!(rules(&report), vec!["W000"], "{:?}", report.diagnostics);
}

#[test]
fn l007_fixture_flags_nonexhaustive_query_outcome_handling() {
    let report = lint_as_lib("l007_queryoutcome.rs");
    let l007: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L007")
        .collect();
    // Three wildcard arms + one `if let` + one `while let`.
    assert_eq!(l007.len(), 5, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics.len(), l007.len());
    let src = fixture("l007_queryoutcome.rs");
    for d in &l007 {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains("FINDING L007"),
            "line {} not marked: {text}",
            d.line
        );
    }
}

#[test]
fn l007_is_exempt_in_test_like_code() {
    let src = fixture("l007_queryoutcome.rs");
    let report = lint_source("tests/chaos.rs", &src, FileKind::TestLike).expect("lexes");
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn l008_fixture_flags_raw_fs_writes() {
    let report = lint_as_lib("l008_raw_fs.rs");
    let l008: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L008")
        .collect();
    assert_eq!(l008.len(), 6, "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics.len(), l008.len());
    // The waived write is suppressed, not reported.
    assert_eq!(report.suppressed, 1);
    let src = fixture("l008_raw_fs.rs");
    for d in &l008 {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains("FINDING L008"),
            "line {} not marked: {text}",
            d.line
        );
    }
}

#[test]
fn l008_exempts_lpa_store_and_test_like_code() {
    let src = fixture("l008_raw_fs.rs");
    // Inside the durable-state crate the rule never fires (the waiver then
    // suppresses nothing, which is the only finding left).
    let report = lint_source("crates/lpa-store/src/store.rs", &src, FileKind::Lib).expect("lexes");
    assert_eq!(rules(&report), vec!["W000"], "{:?}", report.diagnostics);
    // Test-like files (tests/, benches/, bins) are exempt like all rules.
    let report = lint_source("tests/resume.rs", &src, FileKind::TestLike).expect("lexes");
    assert_eq!(rules(&report), vec!["W000"], "{:?}", report.diagnostics);
}

#[test]
fn false_positive_fixture_is_clean() {
    let report = lint_as_lib("false_positives.rs");
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn waiver_fixture_suppresses_and_reports_hygiene() {
    let report = lint_as_lib("waivers.rs");
    assert_eq!(report.suppressed, 2, "{:?}", report.diagnostics);
    let l001 = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L001")
        .count();
    let w000 = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "W000")
        .count();
    // Reasonless waiver's unwrap, unknown-rule waiver's unwrap, and the
    // plain unwrap all survive; the three bad waivers each get W000.
    assert_eq!(l001, 3, "{:?}", report.diagnostics);
    assert_eq!(w000, 3, "{:?}", report.diagnostics);
}

#[test]
fn waiver_requires_matching_rule() {
    // An L002 waiver does not cover an L001 finding on the same line.
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint: allow(L002) wrong rule id for this finding\n}\n";
    let report = lint_source("crates/lpa-costmodel/src/x.rs", src, FileKind::Lib).expect("lexes");
    assert!(report.diagnostics.iter().any(|d| d.rule == "L001"));
}

#[test]
fn l013_fixture_flags_hot_fn_allocations_only() {
    let src = fixture("l013_hot_alloc.rs");
    // Linted under the columnar executor's path, where the hot-fn list
    // (`join_step_col`, `seed_inter_col`, …) applies.
    let report =
        lint_source("crates/lpa-cluster/src/columnar.rs", &src, FileKind::Lib).expect("lexes");
    let l013: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L013")
        .collect();
    assert_eq!(l013.len(), 3, "{:?}", report.diagnostics);
    for d in &l013 {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains("FINDING"),
            "line {} not marked: {text}",
            d.line
        );
        assert!(d.message.contains("join_step_col"), "{}", d.message);
    }
    // Outside the two scoped files the same source is clean.
    let elsewhere =
        lint_source("crates/lpa-cluster/src/cluster.rs", &src, FileKind::Lib).expect("lexes");
    assert!(
        !elsewhere.diagnostics.iter().any(|d| d.rule == "L013"),
        "{:?}",
        elsewhere.diagnostics
    );
}

#[test]
fn l013_covers_delta_encoder_path_and_waives() {
    // The encoder scope polices `encode_batch`; a waived finding is
    // suppressed like any other rule.
    let src = "impl E {\n    fn encode_batch(&mut self) -> Vec<f32> {\n        self.tmp.iter().copied().collect() // lint: allow(L013) one-off warmup; buffer is cached after the first call\n    }\n}\n";
    let report = lint_source(
        "crates/lpa-partition/src/delta_encoder.rs",
        src,
        FileKind::Lib,
    )
    .expect("lexes");
    assert!(
        !report.diagnostics.iter().any(|d| d.rule == "L013"),
        "{:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
    // Without the waiver it fires.
    let bare = src.replace(
        " // lint: allow(L013) one-off warmup; buffer is cached after the first call",
        "",
    );
    let report = lint_source(
        "crates/lpa-partition/src/delta_encoder.rs",
        &bare,
        FileKind::Lib,
    )
    .expect("lexes");
    assert!(report.diagnostics.iter().any(|d| d.rule == "L013"));
}

#[test]
fn l013_covers_the_monitor_memo_hit_path_not_its_miss_path() {
    let src = "impl M {\n    fn observe(&mut self) -> usize {\n        let v: Vec<u8> = Vec::new();\n        v.len()\n    }\n    fn observe_miss(&mut self) -> usize {\n        let v: Vec<u8> = Vec::new();\n        v.len()\n    }\n}\n";
    let report =
        lint_source("crates/lpa-service/src/monitor.rs", src, FileKind::Lib).expect("lexes");
    let lines: Vec<u32> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L013")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![3], "{:?}", report.diagnostics);
    let key = src.replace("fn observe(", "fn shape_key(");
    let report = lint_source("crates/lpa-sql/src/lexer.rs", &key, FileKind::Lib).expect("lexes");
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.rule == "L013" && d.line == 3));
}

#[test]
fn l014_fixture_flags_tenant_state_access_outside_fleet_module() {
    let src = fixture("l014_tenant_access.rs");
    let report = lint_source(
        "crates/lpa-advisor/src/fleet_client.rs",
        &src,
        FileKind::Lib,
    )
    .expect("lexes");
    let l014: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L014")
        .collect();
    assert_eq!(l014.len(), 3, "{:?}", report.diagnostics);
    for d in &l014 {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains("FINDING"),
            "line {} not marked: {text}",
            d.line
        );
    }
    // The fleet module itself owns the slots — same source, zero findings.
    let owner = lint_source("crates/lpa-service/src/fleet.rs", &src, FileKind::Lib).expect("lexes");
    assert!(
        !owner.diagnostics.iter().any(|d| d.rule == "L014"),
        "{:?}",
        owner.diagnostics
    );
}

#[test]
fn l015_fixture_flags_direct_deploy_outside_guardrail_module() {
    let src = fixture("l015_direct_deploy.rs");
    let report =
        lint_source("crates/lpa-service/src/service.rs", &src, FileKind::Lib).expect("lexes");
    let l015: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "L015")
        .collect();
    assert_eq!(l015.len(), 2, "{:?}", report.diagnostics);
    for d in &l015 {
        let text = src.lines().nth(d.line as usize - 1).unwrap_or("");
        assert!(
            text.contains("FINDING"),
            "line {} not marked: {text}",
            d.line
        );
    }
    // The guardrail module itself owns deployment — same source, clean.
    let owner =
        lint_source("crates/lpa-cluster/src/guardrail.rs", &src, FileKind::Lib).expect("lexes");
    assert!(
        !owner.diagnostics.iter().any(|d| d.rule == "L015"),
        "{:?}",
        owner.diagnostics
    );
}
