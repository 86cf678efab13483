//! The workspace lint gate: `cargo test` fails if any source file violates
//! lpa-lint's token rules (L002, L005, L007, L013, L015) or if the clippy
//! half of the rules is switched off (L016): a library root without the
//! deny line, a banned method missing from `clippy.toml`, or an exemption
//! that is not an item-level `#[expect(lint, reason = "…")]`. This is the
//! same check as `cargo run -p lpa-lint`, wired into the test suite so a
//! violation cannot land through an ordinary `cargo test` run. That clippy
//! itself fires under that configuration is CI's
//! `scripts/clippy_fixture.sh`.
//!
//! Beyond the gate itself, this file carries the negative controls: seeded
//! sources proving each rule fires on a true positive and stays silent on
//! a near-miss, a thread-count determinism check, and a wall-clock budget
//! so the linter cannot quietly become the slowest test in the suite.

use std::path::Path;
use std::time::Instant;

use lpa_lint::rules::{l016_banned_methods, DENY_LINE};

/// Upper bound on a full workspace lint, in seconds. Lexing and the token
/// rules over the workspace take well under a second on one core; 30s
/// leaves an order of magnitude of headroom for slow CI machines while
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

fn read(rel_path: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel_path)).expect("readable")
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

/// The report must be identical for any thread count: files fan out over
/// the lpa-par pool, and `par_map` preserves index order, so parallelism
/// must never show up in the output.
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

    let unguarded = r#"
pub fn seconds(o: &lpa_cluster::QueryOutcome, c: &mut Cluster) -> f64 {
    c.deploy(&Partitioning::default());
    if let lpa_cluster::QueryOutcome::Completed { seconds, .. } = o {
        return *seconds;
    }
    0.0
}
"#;
    let report = lint_lib("crates/lpa-advisor/src/injected.rs", unguarded);
    assert_eq!(rules_of(&report), vec!["L015", "L007"]);
    assert_eq!(report[1].line, 4, "{report:?}");
}

/// L002 covers the weight-update and checkpoint-codec paths (a hash map in
/// `lpa-nn` or `lpa-store`'s codec) and not the bench harness. L003 is a
/// clippy rule and covers *all* library code: `clippy.toml` bans the
/// wall-clock reads, every library root (so `lpa-nn`, `lpa-rl` and
/// `lpa-store` too) denies them, and the workspace leaves them allowed
/// elsewhere, so tests and binaries may time themselves.
#[test]
fn l002_l003_cover_weight_and_codec_paths_and_not_elsewhere() {
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

    let clippy_toml = read("clippy.toml");
    for clock in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            clippy_toml.contains(&format!("path = \"{clock}\"")),
            "{clock}"
        );
    }
    for root in [
        "crates/lpa-nn/src/lib.rs",
        "crates/lpa-rl/src/lib.rs",
        "crates/lpa-store/src/lib.rs",
    ] {
        assert_eq!(rules_of(&lint_lib(root, &read(root))), Vec::<&str>::new());
    }
    assert!(read("Cargo.toml").contains("disallowed_methods = \"allow\""));
}

/// L016, roots: every library root must carry the deny line, and a root
/// that drops it (or one lint of it) is a finding. rustfmt's layout of the
/// line does not matter.
#[test]
fn clippy_gate_requires_the_deny_line_at_every_library_root() {
    let files = lpa_lint::walk::workspace_files(workspace_root()).expect("walk");
    let roots: Vec<&str> = files
        .iter()
        .map(|f| f.rel_path.as_str())
        .filter(|p| lpa_lint::walk::is_library_root(p))
        .collect();
    assert_eq!(roots.len(), 16, "{roots:?}");
    assert!(roots.contains(&"src/lib.rs"));

    let root = "crates/lpa-nn/src/lib.rs";
    let source = read(root);
    assert_eq!(rules_of(&lint_lib(root, &source)), Vec::<&str>::new());
    let one_lint_short = source.replacen("clippy::indexing_slicing,", "", 1);
    assert_eq!(rules_of(&lint_lib(root, &one_lint_short)), vec!["L016"]);
    let on_one_line = format!("//! A crate.\n{DENY_LINE}\npub fn f() {{}}\n");
    assert_eq!(rules_of(&lint_lib(root, &on_one_line)), Vec::<&str>::new());
    // The same text outside a root is no root's business.
    assert_eq!(
        rules_of(&lint_lib("crates/lpa-nn/src/mlp.rs", &one_lint_short)),
        Vec::<&str>::new()
    );
}

/// L016, config: `clippy.toml` must ban every method of the list; dropping
/// any one entry (or the file) is a finding.
#[test]
fn clippy_gate_requires_every_banned_method() {
    let clippy_toml = read("clippy.toml");
    assert_eq!(l016_banned_methods(Some(&clippy_toml)), Vec::new());
    for method in lpa_lint::rules::BANNED_METHODS {
        let entry = format!("path = \"{method}\"");
        let dropped = clippy_toml.replace(&entry, "path = \"std::process::exit\"");
        let report = l016_banned_methods(Some(&dropped));
        assert_eq!(rules_of(&report), vec!["L016"], "{method}");
        assert!(report[0].message.contains(method), "{report:?}");
    }
    assert_eq!(l016_banned_methods(None).len(), 10);
}

/// L016, exemptions: a crate- or module-level `allow`/`expect` of a denied
/// lint, an item-level `allow`, and an `expect` with an empty reason are
/// findings; an item-level `expect` with a reason, an `allow` of another
/// lint and anything in test code are not.
#[test]
fn clippy_gate_accepts_only_item_level_expect_with_a_reason() {
    let path = "crates/lpa-cluster/src/injected.rs";
    let findings = [
        "#![allow(clippy::indexing_slicing)]\npub fn f() {}\n",
        "#![expect(clippy::panic, reason = \"crate-wide\")]\npub fn f() {}\n",
        "#![cfg_attr(test, allow(clippy::unwrap_used))]\npub fn f() {}\n",
        "#[expect(clippy::indexing_slicing, reason = \"module-wide\")]\nmod m;\n",
        "#[allow(clippy::unreachable)]\npub(crate) mod m {}\n",
        "mod m {\n    #![allow(clippy::expect_used)]\n}\n",
        "#[allow(clippy::indexing_slicing)]\npub fn f(v: &[u8]) -> u8 { v[0] }\n",
        "#[allow(clippy::indexing_slicing, reason = \"v is non-empty\")]\npub fn f(v: &[u8]) -> u8 { v[0] }\n",
        "#[expect(clippy::indexing_slicing)]\npub fn f(v: &[u8]) -> u8 { v[0] }\n",
        "#[expect(clippy::indexing_slicing, reason = \"\")]\npub fn f(v: &[u8]) -> u8 { v[0] }\n",
        "#[expect(clippy::disallowed_methods, reason = \"  \")]\npub fn f() {}\n",
    ];
    for src in findings {
        assert_eq!(rules_of(&lint_lib(path, src)), vec!["L016"], "{src}");
    }
    let clean = [
        "#[expect(clippy::indexing_slicing, reason = \"v is non-empty\")]\npub fn f(v: &[u8]) -> u8 { v[0] }\n",
        "impl S {\n    #[expect(\n        clippy::disallowed_methods,\n        reason = \"the one writer\"\n    )]\n    pub fn f() {}\n}\n",
        "#[allow(clippy::too_many_arguments)]\npub fn f() {}\n",
        "#![deny(clippy::panic)]\npub fn f() {}\n",
        "#[cfg(test)]\nmod tests {\n    #![allow(clippy::indexing_slicing)]\n}\n",
    ];
    for src in clean {
        assert_eq!(rules_of(&lint_lib(path, src)), Vec::<&str>::new(), "{src}");
    }
    // Test-like files are exempt like all rules.
    let report = lpa_lint::lint_source(
        "tests/injected.rs",
        findings[0],
        lpa_lint::FileKind::TestLike,
    )
    .expect("lexes");
    assert!(report.is_empty(), "{report:?}");
}
