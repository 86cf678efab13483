//! The source-level rules that keep clippy's half of the workspace lint
//! switched on, checked as text. `cargo fmt --check` keeps the sources in
//! rustfmt's layout, so line checks suffice:
//!
//! - every library root carries [`DENY_LINE`];
//! - the root `clippy.toml` bans every method in [`BANNED_METHODS`] and
//!   every type in [`BANNED_TYPES`], and the determinism-scoped crates and
//!   files deny the banned types ([`HASH_FREE`], rule L002);
//! - no library file outside a test module exempts itself from a denied
//!   lint at crate or module level, and no `allow`/`expect` has an empty
//!   reason (rule L016; item-level `allow`s are clippy's
//!   `allow_attributes`);
//! - inside `lpa-cluster`, which may call the crate-private
//!   `Cluster::deploy`, only the guardrail module does (rule L015).
//! - library code keeps per-thread state only in [`THREAD_LOCAL_FILES`]:
//!   a thread-local switch is a second path through a hot loop, selected
//!   from outside the arguments.
//!
//! That clippy fires under this configuration is `scripts/clippy_fixture.sh`.

use std::path::{Path, PathBuf};

/// The line every library root carries, compared with whitespace removed.
const DENY_LINE: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::indexing_slicing, clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants, clippy::disallowed_methods, clippy::allow_attributes, clippy::allow_attributes_without_reason))]";

/// The line that switches L002 on in a crate root or a scoped file.
const HASH_FREE_LINE: &str = "#![cfg_attr(not(test), deny(clippy::disallowed_types))]";

/// Where hash iteration order could reach an encoding, a reward, a weight
/// or checkpoint bytes: these carry [`HASH_FREE_LINE`].
const HASH_FREE: [&str; 11] = [
    "crates/lpa-costmodel/src/lib.rs",
    "crates/lpa-rl/src/lib.rs",
    "crates/lpa-nn/src/lib.rs",
    "crates/lpa-partition/src/encoder.rs",
    "crates/lpa-partition/src/fingerprint.rs",
    "crates/lpa-advisor/src/accounting.rs",
    "crates/lpa-advisor/src/cache.rs",
    "crates/lpa-advisor/src/delta.rs",
    "crates/lpa-advisor/src/env.rs",
    "crates/lpa-store/src/codec.rs",
    "crates/lpa-store/src/snapshot.rs",
];

/// The lints of [`DENY_LINE`] and [`HASH_FREE_LINE`]: library code may
/// exempt itself from these only item by item.
fn denied_lints() -> Vec<&'static str> {
    [DENY_LINE, HASH_FREE_LINE]
        .iter()
        .flat_map(|line| line.split("clippy::").skip(1))
        .map(|rest| rest.trim_end_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_'))
        .collect()
}

/// The library files that may declare a `thread_local!`: the pool's
/// thread-count override and worker flag, and the RL phase timers, which
/// never change a result.
const THREAD_LOCAL_FILES: [&str; 2] = ["crates/lpa-par/src/lib.rs", "crates/lpa-rl/src/profile.rs"];

/// Wall-clock reads (L003), direct threads (L006), raw durable writes (L008).
const BANNED_METHODS: [&str; 10] = [
    "std::time::Instant::now",
    "std::time::Instant::elapsed",
    "std::time::SystemTime::now",
    "std::time::SystemTime::elapsed",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::new",
    "std::fs::write",
    "std::fs::rename",
    "std::fs::File::create",
];

/// Hash collections (L002).
const BANNED_TYPES: [&str; 2] = ["std::collections::HashMap", "std::collections::HashSet"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn squash(s: &str) -> String {
    s.split_whitespace().collect()
}

fn carries(source: &str, line: &str) -> bool {
    squash(source).contains(&squash(line))
}

/// Every `.rs` file under `dir`, skipping `bin/` directories and `main.rs`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() && name != "bin" {
            rust_files(&path, out);
        } else if name.ends_with(".rs") && name != "main.rs" {
            out.push(path);
        }
    }
}

/// Library sources, relative to the workspace root: `src/` and every
/// `crates/*/src/`, binaries excluded.
fn library_files() -> Vec<String> {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    for src in crates {
        rust_files(&src, &mut files);
    }
    files
        .iter()
        .map(|p| {
            p.strip_prefix(root())
                .expect("under root")
                .display()
                .to_string()
        })
        .collect()
}

fn library_roots() -> Vec<String> {
    library_files()
        .into_iter()
        .filter(|p| p == "src/lib.rs" || (p.starts_with("crates/") && p.ends_with("/src/lib.rs")))
        .collect()
}

/// `(line number, text)` of every line outside a `#[cfg(test)]` item: the
/// attribute, then the item's one line or its block up to the `}` at the
/// attribute's indentation.
fn shipped_lines(source: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = source.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push((i + 1, line));
            continue;
        }
        let indent = &line[..line.len() - line.trim_start().len()];
        let close = format!("{indent}}}");
        if let Some((_, item)) = lines.next() {
            if item.trim_end().ends_with('{') {
                lines.by_ref().find(|(_, l)| l.trim_end() == close);
            }
        }
    }
    out
}

/// What is wrong with each attribute of `source` that exempts code from
/// a lint, as `(line, problem)`: a crate- or module-level `allow`/`expect`
/// of a denied lint, or an empty reason. Test items are skipped.
fn exemption_problems(source: &str) -> Vec<(usize, &'static str)> {
    let lines = shipped_lines(source);
    let mut out = Vec::new();
    let mut k = 0;
    while let Some(&(at, first)) = lines.get(k) {
        k += 1;
        let text = first.trim();
        if !text.starts_with("#[") && !text.starts_with("#![") {
            continue;
        }
        // rustfmt spreads a long attribute over lines up to its closing `]`.
        let mut attr = text.to_string();
        while !attr.ends_with(']') {
            let Some(&(_, more)) = lines.get(k) else {
                break;
            };
            attr.push(' ');
            attr.push_str(more.trim());
            k += 1;
        }
        let squashed = squash(&attr);
        if !squashed.contains("allow(") && !squashed.contains("expect(") {
            continue;
        }
        let names_denied = denied_lints().iter().any(|l| {
            squashed.contains(&format!("clippy::{l},"))
                || squashed.contains(&format!("clippy::{l})"))
        });
        let next_item = lines[k..]
            .iter()
            .map(|(_, l)| l.trim())
            .find(|l| !l.starts_with("#") && !l.starts_with("//"));
        let on_mod = next_item.is_some_and(|l| {
            let l = l
                .strip_prefix("pub")
                .map_or(l, |rest| rest.trim_start_matches(|c: char| c != ' '));
            l.trim_start().starts_with("mod ")
        });
        if names_denied && (attr.starts_with("#!") || on_mod) {
            out.push((at, "crate- or module-level exemption from a denied lint"));
        }
        if squashed.contains("reason=\"\"") {
            out.push((at, "empty reason"));
        }
    }
    out
}

#[test]
fn every_library_root_carries_the_deny_line() {
    let roots = library_roots();
    assert_eq!(roots.len(), 15, "{roots:?}");
    assert!(roots.contains(&"src/lib.rs".to_string()));
    for root in &roots {
        assert!(carries(&read(root), DENY_LINE), "{root} lacks {DENY_LINE}");
    }
    // The clippy fixture must test the line the roots carry.
    assert!(carries(
        &read("scripts/clippy_fixture/src/lib.rs"),
        DENY_LINE
    ));
    // Negative control: one lint short, the check fails.
    let source = read("crates/lpa-nn/src/lib.rs");
    let lints = denied_lints();
    assert_eq!(lints.len(), 11, "{lints:?}");
    for lint in lints.iter().filter(|l| **l != "disallowed_types") {
        let short = squash(&source).replacen(&format!("clippy::{lint},"), "", 1);
        let short = short.replacen(&format!(",clippy::{lint})"), ")", 1);
        assert!(!carries(&short, DENY_LINE), "{lint}");
    }
}

#[test]
fn clippy_toml_bans_every_listed_method_and_type() {
    let clippy_toml = read("clippy.toml");
    let entry = |path: &str| format!("path = \"{path}\"");
    for path in BANNED_METHODS.iter().chain(&BANNED_TYPES) {
        assert!(clippy_toml.contains(&entry(path)), "clippy.toml: {path}");
    }
    assert!(clippy_toml.contains("disallowed-methods = ["));
    assert!(clippy_toml.contains("disallowed-types = ["));
    // Tests, examples and binaries may use them; the workspace allows both.
    let manifest = read("Cargo.toml");
    assert!(manifest.contains("disallowed_methods = \"allow\""));
    assert!(manifest.contains("disallowed_types = \"allow\""));
}

#[test]
fn l002_scope_denies_hash_collections() {
    for file in HASH_FREE {
        assert!(carries(&read(file), HASH_FREE_LINE), "{file}");
    }
}

/// Negative controls for [`exemption_problems`]; every one is also a
/// clippy finding or a compile-time exemption clippy cannot see.
#[test]
fn exemptions_are_item_level_with_a_reason() {
    let findings = [
        "#![allow(clippy::indexing_slicing)]\npub fn f() {}\n",
        "#![expect(clippy::panic, reason = \"crate-wide\")]\npub fn f() {}\n",
        "#![cfg_attr(test, allow(clippy::unwrap_used))]\npub fn f() {}\n",
        "#[expect(clippy::indexing_slicing, reason = \"module-wide\")]\nmod m;\n",
        "#[allow(clippy::unreachable)]\npub(crate) mod m {}\n",
        "mod m {\n    #![allow(clippy::expect_used)]\n}\n",
        "#[expect(\n    clippy::disallowed_types,\n    reason = \"spread over lines\"\n)]\npub mod m {}\n",
        "#[expect(clippy::indexing_slicing, reason = \"\")]\npub fn f(v: &[u8]) -> u8 {\n    v[0]\n}\n",
        "impl S {\n    #[expect(clippy::too_many_arguments, reason = \"\")]\n    fn f() {}\n}\n",
        "#[expect(clippy::disallowed_methods, reason = \"  \")]\npub fn f() {}\n",
    ];
    for src in findings {
        assert_eq!(exemption_problems(src).len(), 1, "{src}");
    }
    let clean = [
        "#[expect(clippy::indexing_slicing, reason = \"v is non-empty\")]\npub fn f(v: &[u8]) -> u8 {\n    v[0]\n}\n",
        "impl S {\n    #[expect(\n        clippy::disallowed_methods,\n        reason = \"the one writer\"\n    )]\n    pub fn f() {}\n}\n",
        "#![deny(clippy::panic)]\npub fn f() {}\n",
        "#![cfg_attr(not(test), deny(clippy::disallowed_types))]\n",
        "#[expect(clippy::large_enum_variant, reason = \"built once\")]\npub enum E {}\n",
        "#[cfg(test)]\nmod tests {\n    #![allow(clippy::indexing_slicing)]\n}\n",
    ];
    for src in clean {
        assert_eq!(exemption_problems(src), vec![], "{src}");
    }
}

#[test]
fn library_files_exempt_only_item_by_item() {
    let files = library_files();
    assert!(files.len() > 80, "walked only {} files", files.len());
    let problems: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let source = read(f);
            exemption_problems(&source)
                .into_iter()
                .map(move |(line, what)| format!("{f}:{line}: {what}"))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// `Cluster::deploy` is private to `lpa-cluster` (the `compile_fail`
/// example on `Cluster`); inside the crate only the guardrail calls it.
#[test]
fn deploy_is_called_only_from_the_guardrail_module() {
    let calls: Vec<String> = library_files()
        .iter()
        .filter(|f| f.starts_with("crates/lpa-cluster/src/") && !f.ends_with("/guardrail.rs"))
        .flat_map(|f| {
            let source = read(f);
            shipped_lines(&source)
                .into_iter()
                .filter(|(_, l)| l.contains(".deploy(") && !l.trim_start().starts_with("//"))
                .map(|(line, _)| format!("{f}:{line}"))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(calls.is_empty(), "{calls:?}");
    // Negative control: a call in shipped code counts, one in a test does not.
    let source = "fn f(c: &mut Cluster) {\n    c.deploy(&p);\n}\n#[cfg(test)]\nmod tests {\n    fn g(c: &mut Cluster) {\n        c.deploy(&p);\n    }\n}\n";
    let lines: Vec<usize> = shipped_lines(source)
        .into_iter()
        .filter(|(_, l)| l.contains(".deploy("))
        .map(|(n, _)| n)
        .collect();
    assert_eq!(lines, vec![2]);
}

#[test]
fn thread_locals_live_only_in_the_pool_and_the_profiler() {
    let declares = |source: &str| {
        source
            .lines()
            .any(|l| l.contains("thread_local!") && !l.trim_start().starts_with("//"))
    };
    let found: Vec<String> = library_files()
        .into_iter()
        .filter(|f| declares(&read(f)))
        .collect();
    assert_eq!(found, THREAD_LOCAL_FILES);
    // Negative control: a declaration counts, a mention in a comment does not.
    assert!(declares(
        "thread_local! {\n    static ON: Cell<bool> = const { Cell::new(false) };\n}\n"
    ));
    assert!(!declares(
        "/// Unlike a `thread_local!` switch.\nfn f() {}\n"
    ));
}
