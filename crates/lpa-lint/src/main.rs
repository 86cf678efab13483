//! CLI entry point: `cargo run -p lpa-lint [workspace-root]`.
//!
//! Prints one `file:line: RULE message` per finding and exits non-zero if
//! any remains (2 if the root cannot be walked).

use std::path::PathBuf;
use std::process::ExitCode;

fn default_root() -> PathBuf {
    // When run via `cargo run -p lpa-lint`, CARGO_MANIFEST_DIR points at
    // crates/lpa-lint; the workspace root is two levels up. Fall back to the
    // current directory when invoked as a bare binary.
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("Cargo.toml").is_file() {
                return root.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map_or_else(default_root, PathBuf::from);
    let report = match lpa_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lpa-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.is_clean() {
        println!("lpa-lint: {} files clean", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lpa-lint: {} finding(s) in {} files",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
