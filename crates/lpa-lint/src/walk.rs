//! Workspace file discovery and classification.

use std::path::{Path, PathBuf};

/// How a file's code is allowed to behave under the rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// Library code: full rule set applies.
    Lib,
    /// Tests, benches, examples, binaries, build scripts: panicking is
    /// acceptable (a crash is loud, not silent reward poisoning).
    TestLike,
}

/// One discovered source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    pub abs_path: PathBuf,
    pub kind: FileKind,
}

/// Directories never scanned: vendored stand-ins are external code, fixtures
/// are deliberate violations, target is build output.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", ".github", "results"];

/// Classify a workspace-relative path.
pub fn classify(rel_path: &str) -> FileKind {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (file, dirs) = parts.split_last().unwrap_or((&"", &[]));
    let file = *file;
    let test_like_dir = dirs
        .iter()
        .any(|d| matches!(*d, "tests" | "benches" | "examples" | "bin"));
    if test_like_dir || file == "main.rs" || file == "build.rs" {
        FileKind::TestLike
    } else {
        FileKind::Lib
    }
}

/// Whether `rel_path` is a library root — the root package's
/// `src/lib.rs` or a crate's `crates/<name>/src/lib.rs` — which must carry
/// [`crate::rules::DENY_LINE`].
pub fn is_library_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    matches!(
        parts.as_slice(),
        ["src", "lib.rs"] | ["crates", _, "src", "lib.rs"]
    )
}

/// Recursively collect every `.rs` file under `root`, skipping
/// non-source directories.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    collect(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel: String = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let kind = classify(&rel);
            out.push(SourceFile {
                rel_path: rel,
                abs_path: path,
                kind,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/lpa-rl/src/agent.rs"), FileKind::Lib);
        assert_eq!(
            classify("crates/lpa-bench/src/bin/exp1.rs"),
            FileKind::TestLike
        );
        assert_eq!(
            classify("crates/lpa-bench/benches/nn.rs"),
            FileKind::TestLike
        );
        assert_eq!(classify("crates/lpa-sql/tests/fuzz.rs"), FileKind::TestLike);
        assert_eq!(classify("tests/end_to_end.rs"), FileKind::TestLike);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::TestLike);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("src/bin/lpa.rs"), FileKind::TestLike);
        assert_eq!(classify("src/main.rs"), FileKind::TestLike);
    }

    #[test]
    fn library_roots() {
        assert!(is_library_root("src/lib.rs"));
        assert!(is_library_root("crates/lpa-nn/src/lib.rs"));
        assert!(!is_library_root("crates/lpa-nn/src/mlp.rs"));
        assert!(!is_library_root(
            "crates/lpa-lint/tests/clippy_fixture/src/lib.rs"
        ));
    }
}
