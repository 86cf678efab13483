//! `lpa-lint`: the workspace's own static-analysis pass.
//!
//! The learned partitioning advisor trains on rewards produced by a
//! deterministic cluster simulator. Bugs that an ordinary compiler never
//! flags — hash-order iteration feeding an encoder, a stray `Instant::now()`
//! in the cost model, an `unwrap()` that aborts a training episode — corrupt
//! the training signal silently. This crate walks every `.rs` file in the
//! workspace and enforces rules L001–L009 and L013–L015; see [`rules`] for
//! the catalogue and the token-level rules (L001–L003, L005, L006, the L013
//! allocation-free hot-path rule, the L014 tenant-isolation boundary and
//! the L015 deployment-isolation boundary), [`callgraph`] for L009, and
//! [`path_rules`] for L004/L007/L008, whose single implementation is the
//! alias-resolving pass `path_rules::l012`.
//!
//! The pipeline has two phases:
//!
//! 1. **Per file** (fanned out over [`lpa_par::Pool::par_map`], which
//!    preserves index order, so output is bit-identical for any
//!    `LPA_THREADS`): lex, run the token rules, and parse the file with the
//!    built-in recursive-descent Rust-subset parser ([`parser`]).
//! 2. **Workspace-wide** (serial, deterministic): build a symbol table over
//!    all parsed files ([`symbols`]), derive the call graph
//!    ([`callgraph`]), and run the structural rules — L009
//!    panic-reachability and the alias-resolved L004/L007/L008 path rules
//!    ([`path_rules`]).
//!
//! There is no waiver: a finding is fixed, or the rule's scope is changed
//! in [`rules`] with the reason beside it. A file that cannot be read,
//! lexed or parsed is reported as `W000`, so it can never silently escape
//! the rules.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod path_rules;
pub mod rules;
pub mod symbols;
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

/// Phase-1 output for one file: token-rule findings (plus `W000` when the
/// file cannot be lexed or parsed) and the parsed AST when it parses.
#[derive(Debug)]
struct FileAnalysis {
    diagnostics: Vec<Diagnostic>,
    parsed: Option<symbols::ParsedFile>,
}

fn w000(rel_path: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule: "W000",
        rel_path: rel_path.to_string(),
        line,
        message,
    }
}

/// Lex + token rules + parse for one source text. Pure; safe to run from
/// worker threads.
fn analyze_source(rel_path: &str, source: &str, kind: FileKind) -> FileAnalysis {
    match lexer::tokenize(source) {
        Ok(tokens) => analyze_tokens(rel_path, &tokens, kind),
        Err(e) => FileAnalysis {
            diagnostics: vec![w000(
                rel_path,
                e.line,
                format!("lexer error: {}", e.message),
            )],
            parsed: None,
        },
    }
}

/// Token rules + parse for one lexed file.
fn analyze_tokens(rel_path: &str, tokens: &[lexer::Tok], kind: FileKind) -> FileAnalysis {
    let mut diagnostics = rules::run_all(rel_path, tokens, kind == FileKind::Lib);
    let parsed = match parser::parse_file(tokens) {
        Ok(ast) => Some(symbols::ParsedFile {
            rel_path: rel_path.to_string(),
            kind,
            ast,
        }),
        Err(e) => {
            diagnostics.push(w000(
                rel_path,
                e.line,
                format!(
                    "parse error (file skipped by structural rules): {}",
                    e.message
                ),
            ));
            None
        }
    };
    FileAnalysis {
        diagnostics,
        parsed,
    }
}

/// Phase 2: symbol table → call graph → structural rules over every parsed
/// file.
fn structural_diagnostics(parsed: &[symbols::ParsedFile]) -> Vec<Diagnostic> {
    let table = symbols::build(parsed);
    let graph = callgraph::build(&table);
    let mut out = callgraph::l009(&table, &graph);
    out.extend(path_rules::l012(&table));
    out
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
/// `kind` controls whether the library rule set applies. The structural rules
/// run over the file in isolation — a one-file workspace — so cross-file
/// paths resolve only within it. A lex failure is an `Err`, not a
/// diagnostic.
pub fn lint_source(
    rel_path: &str,
    source: &str,
    kind: FileKind,
) -> Result<Vec<Diagnostic>, lexer::LexError> {
    let FileAnalysis {
        mut diagnostics,
        parsed,
    } = analyze_tokens(rel_path, &lexer::tokenize(source)?, kind);
    if let Some(p) = &parsed {
        diagnostics.extend(structural_diagnostics(std::slice::from_ref(p)));
    }
    sort_diagnostics(&mut diagnostics);
    Ok(diagnostics)
}

/// Lint every `.rs` file under `root`. I/O or lex failures become
/// diagnostics rather than aborting the run, so one unreadable file cannot
/// mask findings elsewhere. Phase 1 fans out per file over
/// [`lpa_par::Pool::current`]; results are in index order, so the report is
/// bit-identical for any `LPA_THREADS`.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let files = walk::workspace_files(root)?;
    let pool = lpa_par::Pool::current();
    let analyses: Vec<FileAnalysis> =
        pool.par_map(&files, |_, f| match std::fs::read_to_string(&f.abs_path) {
            Ok(source) => analyze_source(&f.rel_path, &source, f.kind),
            Err(e) => FileAnalysis {
                diagnostics: vec![w000(&f.rel_path, 0, format!("unreadable file: {e}"))],
                parsed: None,
            },
        });

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut parsed: Vec<symbols::ParsedFile> = Vec::new();
    for a in analyses {
        diagnostics.extend(a.diagnostics);
        parsed.extend(a.parsed);
    }
    diagnostics.extend(structural_diagnostics(&parsed));
    sort_diagnostics(&mut diagnostics);
    Ok(WorkspaceReport {
        files_scanned: files.len(),
        diagnostics,
    })
}
