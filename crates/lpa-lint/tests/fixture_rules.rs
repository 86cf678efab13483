//! Drives the lint engine over the fixture files under `tests/fixtures/`.
//! Fixtures are excluded from the workspace walk (the walker skips
//! `fixtures/` directories), so deliberate violations here never fail the
//! real gate; each is linted explicitly with a synthetic in-scope path.

#![allow(clippy::unwrap_used)] // test-scale code; libraries are gated by lpa-lint L001

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

fn rules(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
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

#[test]
fn l001_fixture_finds_unwrap_expect_panic_outside_tests() {
    let report = lint_as_lib("l001_violations.rs");
    let l001 = of_rule(&report, "L001");
    // Three free fns plus the `cfg(not(test))` module, which ships; the
    // `cfg(test)` module is exempt.
    assert_eq!(l001.len(), 4, "{report:?}");
    // The same panicky sites are also reachable from public functions, so
    // the structural pass may add L009 findings — but nothing else.
    assert!(
        rules(&report).iter().all(|r| *r == "L001" || *r == "L009"),
        "{report:?}"
    );
    assert_marked(&fixture("l001_violations.rs"), &l001, "FINDING");
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
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn l002_l003_fixture_finds_hash_collections_and_wall_clock() {
    let report = lint_as_lib("l002_l003_determinism.rs");
    // Two `use` lines plus two signature mentions; Instant and SystemTime,
    // and the Instant under `cfg(not(test))`.
    assert_eq!(of_rule(&report, "L002").len(), 4);
    assert_eq!(of_rule(&report, "L003").len(), 3);
    assert!(
        rules(&report).iter().all(|r| matches!(*r, "L002" | "L003")),
        "{report:?}"
    );
    assert_marked(
        &fixture("l002_l003_determinism.rs"),
        &of_rule(&report, "L003"),
        "FINDING L003",
    );
}

#[test]
fn l002_l003_are_scoped_to_determinism_paths() {
    let src = fixture("l002_l003_determinism.rs");
    let count = |rel_path: &str, rule: &str| {
        let report = lint_source(rel_path, &src, FileKind::Lib).expect("lexes");
        of_rule(&report, rule).len()
    };
    // Outside both scopes neither rule fires.
    for outside in [
        "crates/lpa-sql/src/fixture.rs",
        "crates/lpa-bench/src/fixture.rs",
    ] {
        let report = lint_source(outside, &src, FileKind::Lib).expect("lexes");
        assert!(report.is_empty(), "{outside}: {report:?}");
    }
    // The weight-update and checkpoint-codec paths are in both.
    for sink in [
        "crates/lpa-nn/src/fixture.rs",
        "crates/lpa-store/src/codec.rs",
        "crates/lpa-store/src/snapshot.rs",
    ] {
        assert_eq!(count(sink, "L002"), 4, "{sink}");
        assert_eq!(count(sink, "L003"), 3, "{sink}");
    }
    // The simulator is wall-clock-free but may hash; lpa-rl's phase timer
    // may read the clock but not hash.
    assert_eq!(count("crates/lpa-cluster/src/fixture.rs", "L002"), 0);
    assert_eq!(count("crates/lpa-cluster/src/fixture.rs", "L003"), 3);
    assert_eq!(count("crates/lpa-rl/src/profile.rs", "L002"), 4);
    assert_eq!(count("crates/lpa-rl/src/profile.rs", "L003"), 0);
    assert_eq!(count("crates/lpa-rl/src/agent.rs", "L003"), 3);
}

#[test]
fn l004_l005_fixture_flags_wildcards_and_f32_sums() {
    let report = lint_as_lib("l004_l005_actions.rs");
    let l004 = of_rule(&report, "L004").len();
    let l005 = of_rule(&report, "L005").len();
    assert_eq!(l004, 3, "{report:?}");
    assert_eq!(l005, 3, "{report:?}");
    assert_eq!(report.len(), l004 + l005);
    let src = fixture("l004_l005_actions.rs");
    for d in &report {
        assert_marked(&src, &[d], &format!("FINDING {}", d.rule));
    }
}

#[test]
fn l006_fixture_flags_direct_thread_use() {
    let report = lint_as_lib("l006_threads.rs");
    let l006 = of_rule(&report, "L006");
    assert_eq!(l006.len(), 4, "{report:?}");
    assert_eq!(report.len(), l006.len(), "{report:?}");
    assert_marked(&fixture("l006_threads.rs"), &l006, "FINDING L006");
}

#[test]
fn l006_exempts_lpa_par_and_test_like_code() {
    let src = fixture("l006_threads.rs");
    // Inside the pool crate the rule never fires.
    let report = lint_source("crates/lpa-par/src/lib.rs", &src, FileKind::Lib).expect("lexes");
    assert!(report.is_empty(), "{report:?}");
    // Test-like files (tests/, benches/, bins) are exempt like all rules.
    let report = lint_source("tests/determinism.rs", &src, FileKind::TestLike).expect("lexes");
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn l007_fixture_flags_nonexhaustive_query_outcome_handling() {
    let report = lint_as_lib("l007_queryoutcome.rs");
    let l007 = of_rule(&report, "L007");
    // Three wildcard arms + one `if let` + one `while let`.
    assert_eq!(l007.len(), 5, "{report:?}");
    assert_eq!(report.len(), l007.len());
    assert_marked(&fixture("l007_queryoutcome.rs"), &l007, "FINDING L007");
}

#[test]
fn l007_is_exempt_in_test_like_code() {
    let src = fixture("l007_queryoutcome.rs");
    let report = lint_source("tests/chaos.rs", &src, FileKind::TestLike).expect("lexes");
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn l008_fixture_flags_raw_fs_writes() {
    let report = lint_as_lib("l008_raw_fs.rs");
    let l008 = of_rule(&report, "L008");
    assert_eq!(l008.len(), 6, "{report:?}");
    assert_eq!(report.len(), l008.len());
    assert_marked(&fixture("l008_raw_fs.rs"), &l008, "FINDING L008");
}

#[test]
fn l008_exempts_lpa_store_and_test_like_code() {
    let src = fixture("l008_raw_fs.rs");
    // Inside the durable-state crate the rule never fires.
    let report = lint_source("crates/lpa-store/src/store.rs", &src, FileKind::Lib).expect("lexes");
    assert!(report.is_empty(), "{report:?}");
    // Test-like files (tests/, benches/, bins) are exempt like all rules.
    let report = lint_source("tests/resume.rs", &src, FileKind::TestLike).expect("lexes");
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
    assert_eq!(rules(&report), vec!["L013"], "{report:?}");
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
fn l014_fixture_flags_tenant_state_access_outside_fleet_module() {
    let src = fixture("l014_tenant_access.rs");
    let report = lint_source(
        "crates/lpa-advisor/src/fleet_client.rs",
        &src,
        FileKind::Lib,
    )
    .expect("lexes");
    let l014 = of_rule(&report, "L014");
    assert_eq!(l014.len(), 3, "{report:?}");
    assert_marked(&src, &l014, "FINDING");
    // The fleet module itself owns the slots — same source, zero findings.
    let owner = lint_source("crates/lpa-service/src/fleet.rs", &src, FileKind::Lib).expect("lexes");
    assert!(of_rule(&owner, "L014").is_empty(), "{owner:?}");
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
