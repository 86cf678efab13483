//! `lpa-lint`: the workspace's own static-analysis pass.
//!
//! The advisor trains on rewards from a deterministic simulator, so bugs a
//! compiler never flags — hash-order iteration feeding an encoder, a
//! `Failed` query dropped from a reward — corrupt training silently. The
//! rules that need name resolution (no panics, catch-all arms, raw writes,
//! threads or wall-clock reads in library code) are clippy lints, denied at
//! every library root. This crate lexes every `.rs` file of the workspace
//! and enforces the rest — see [`rules`] — including L016, which keeps the
//! clippy half switched on. Files fan out over [`lpa_par::Pool::par_map`],
//! which preserves index order, so the report is bit-identical for any
//! `LPA_THREADS`. There is no waiver; a file that cannot be read or lexed
//! is reported as `W000`, so it never silently escapes the rules.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        clippy::disallowed_methods
    )
)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::Diagnostic;
pub use walk::{FileKind, SourceFile};

use std::path::Path;

/// Aggregated result over the whole workspace.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    pub files_scanned: usize,
    /// Sorted by `(file, line, rule, message)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl WorkspaceReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

fn w000(rel_path: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule: "W000",
        rel_path: rel_path.to_string(),
        line,
        message,
    }
}

fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        (a.rel_path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.rel_path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}

/// Lint a single source text, returning its findings sorted by line.
/// `kind` controls whether the library rule set applies; a library root
/// (`src/lib.rs` of the root package or a crate) must also carry
/// [`rules::DENY_LINE`]. A lex failure is an `Err`, not a diagnostic.
pub fn lint_source(
    rel_path: &str,
    source: &str,
    kind: FileKind,
) -> Result<Vec<Diagnostic>, lexer::LexError> {
    let tokens = lexer::tokenize(source)?;
    let mut diagnostics = Vec::new();
    if kind == FileKind::Lib {
        diagnostics = rules::run_all(rel_path, &tokens);
        if walk::is_library_root(rel_path) {
            diagnostics.extend(rules::l016_deny_line(rel_path, source));
        }
    }
    sort_diagnostics(&mut diagnostics);
    Ok(diagnostics)
}

/// Lint every `.rs` file under `root`, and check that `root/clippy.toml`
/// bans every method in [`rules::BANNED_METHODS`]. I/O or lex failures
/// become diagnostics rather than aborting the run, so one unreadable file
/// cannot mask findings elsewhere. Files fan out over
/// [`lpa_par::Pool::current`]; results are in index order, so the report is
/// bit-identical for any `LPA_THREADS`.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let files = walk::workspace_files(root)?;
    let pool = lpa_par::Pool::current();
    let per_file: Vec<Vec<Diagnostic>> =
        pool.par_map(&files, |_, f| match std::fs::read_to_string(&f.abs_path) {
            Ok(source) => lint_source(&f.rel_path, &source, f.kind).unwrap_or_else(|e| {
                vec![w000(
                    &f.rel_path,
                    e.line,
                    format!("lexer error: {}", e.message),
                )]
            }),
            Err(e) => vec![w000(&f.rel_path, 0, format!("unreadable file: {e}"))],
        });
    let clippy_toml = std::fs::read_to_string(root.join("clippy.toml")).ok();
    let mut diagnostics: Vec<Diagnostic> = per_file.into_iter().flatten().collect();
    diagnostics.extend(rules::l016_banned_methods(clippy_toml.as_deref()));
    sort_diagnostics(&mut diagnostics);
    Ok(WorkspaceReport {
        files_scanned: files.len(),
        diagnostics,
    })
}
