//! `lpa-lint`: the workspace's own static-analysis pass.
//!
//! The learned partitioning advisor trains on rewards produced by a
//! deterministic cluster simulator. Bugs that an ordinary compiler never
//! flags — hash-order iteration feeding an encoder, a stray `Instant::now()`
//! in the cost model, an `unwrap()` that aborts a training episode — corrupt
//! the training signal silently. This crate walks every `.rs` file in the
//! workspace and enforces rules L001–L015; see [`rules`] for the catalogue
//! and the token-level rules (L001–L003, L005, L006, the L013
//! allocation-free hot-path rule, the L014 tenant-isolation boundary and
//! the L015 deployment-isolation boundary) and [`callgraph`]/[`dataflow`]
//! for the structural ones (L009–L011, and L004/L007/L008, whose single
//! implementation is the alias-resolving pass `dataflow::l012`).
//!
//! The pipeline has two phases:
//!
//! 1. **Per file** (fanned out over [`lpa_par::Pool::par_map`], which
//!    preserves index order, so output is bit-identical for any
//!    `LPA_THREADS`): lex, run the token rules, collect waivers, and parse
//!    the file with the built-in recursive-descent Rust-subset parser
//!    ([`parser`]).
//! 2. **Workspace-wide** (serial, deterministic): build a symbol table over
//!    all parsed files ([`symbols`]), derive the call graph
//!    ([`callgraph`]), and run the structural rules — L009
//!    panic-reachability, L010 float-reduction-order, L011 determinism
//!    taint, and the alias-resolved L004/L007/L008 path rules
//!    ([`dataflow`]).
//!
//! Violations are waivable per line with a mandatory justification:
//!
//! ```text
//! let v = known_nonempty.pop().unwrap(); // lint: allow(L001) guarded by is_empty check above
//! ```
//!
//! A waiver covers its own line and the next, so it can also sit on its own
//! line directly above a flagged statement.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod walk;

pub use rules::Diagnostic;
pub use walk::{FileKind, SourceFile};

use std::path::Path;

/// A parsed `// lint: allow(LXXX) reason` waiver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Waiver {
    pub rule: String,
    pub rel_path: String,
    /// Line of the waiver comment; it suppresses `line` and `line + 1`.
    pub line: u32,
    pub reason: String,
}

/// Result of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Findings that survived waiver matching (plus waiver-hygiene findings).
    pub diagnostics: Vec<Diagnostic>,
    /// Well-formed waivers found in the file, used or not.
    pub waivers: Vec<Waiver>,
    /// Findings suppressed by a waiver.
    pub suppressed: usize,
}

/// Aggregated result over the whole workspace.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
    pub waivers: Vec<Waiver>,
    pub suppressed: usize,
}

impl WorkspaceReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the report as a single JSON document. Hand-rolled (the crate
    /// is dependency-free beyond `lpa-par`), with full string escaping; key
    /// order and array order are deterministic — diagnostics are already
    /// sorted by `(file, line, rule, message)` when this is called via
    /// [`lint_workspace`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"files_scanned\": ");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\n  \"suppressed\": ");
        s.push_str(&self.suppressed.to_string());
        s.push_str(",\n  \"clean\": ");
        s.push_str(if self.is_clean() { "true" } else { "false" });
        s.push_str(",\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"rule\": ");
            json_string(&mut s, d.rule);
            s.push_str(", \"file\": ");
            json_string(&mut s, &d.rel_path);
            s.push_str(", \"line\": ");
            s.push_str(&d.line.to_string());
            s.push_str(", \"message\": ");
            json_string(&mut s, &d.message);
            s.push('}');
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"rule\": ");
            json_string(&mut s, &w.rule);
            s.push_str(", \"file\": ");
            json_string(&mut s, &w.rel_path);
            s.push_str(", \"line\": ");
            s.push_str(&w.line.to_string());
            s.push_str(", \"reason\": ");
            json_string(&mut s, &w.reason);
            s.push('}');
        }
        if !self.waivers.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Append `text` to `out` as a JSON string literal (RFC 8259 escaping).
fn json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let n = c as u32;
                for shift in [4u32, 0] {
                    let digit = (n >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Minimum justification length — long enough that "ok" or "todo" cannot
/// pass as a reason.
const MIN_REASON_LEN: usize = 10;

/// Extract waivers from comment tokens. Malformed waivers (unknown rule id,
/// missing or too-short justification) become `W000` diagnostics so that a
/// waiver can never silently fail to document itself.
fn parse_waivers(rel_path: &str, tokens: &[lexer::Tok]) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for t in tokens {
        if t.kind != lexer::TokKind::Comment {
            continue;
        }
        let body = t.text.trim();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad.push(Diagnostic {
                rule: "W000",
                rel_path: rel_path.to_string(),
                line: t.line,
                message: "malformed waiver: expected `lint: allow(LXXX) reason`".to_string(),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad.push(Diagnostic {
                rule: "W000",
                rel_path: rel_path.to_string(),
                line: t.line,
                message: "malformed waiver: missing `)` after rule id".to_string(),
            });
            continue;
        };
        let rule = rest.get(..close).unwrap_or("").trim().to_string();
        let reason = rest.get(close + 1..).unwrap_or("").trim().to_string();
        let known = matches!(
            rule.as_str(),
            "L001"
                | "L002"
                | "L003"
                | "L004"
                | "L005"
                | "L006"
                | "L007"
                | "L008"
                | "L009"
                | "L010"
                | "L011"
                | "L013"
                | "L014"
                | "L015"
        );
        if !known {
            bad.push(Diagnostic {
                rule: "W000",
                rel_path: rel_path.to_string(),
                line: t.line,
                message: format!("waiver names unknown rule `{rule}`"),
            });
            continue;
        }
        if reason.len() < MIN_REASON_LEN {
            bad.push(Diagnostic {
                rule: "W000",
                rel_path: rel_path.to_string(),
                line: t.line,
                message: format!(
                    "waiver for {rule} lacks a real justification (need ≥{MIN_REASON_LEN} chars explaining why the rule is safe to break here)"
                ),
            });
            continue;
        }
        waivers.push(Waiver {
            rule,
            rel_path: rel_path.to_string(),
            line: t.line,
            reason,
        });
    }
    (waivers, bad)
}

/// Phase-1 output for one file: token-rule findings (pre-waiver), waivers,
/// hygiene diagnostics (never waivable), and the parsed AST when the file
/// parses.
#[derive(Debug)]
struct FileAnalysis {
    rel_path: String,
    raw: Vec<Diagnostic>,
    hygiene: Vec<Diagnostic>,
    waivers: Vec<Waiver>,
    parsed: Option<symbols::ParsedFile>,
}

/// Lex + token rules + waivers + parse for one source text. Pure; safe to
/// run from worker threads.
fn analyze_source(rel_path: &str, source: &str, kind: FileKind) -> FileAnalysis {
    let mut analysis = FileAnalysis {
        rel_path: rel_path.to_string(),
        raw: Vec::new(),
        hygiene: Vec::new(),
        waivers: Vec::new(),
        parsed: None,
    };
    let tokens = match lexer::tokenize(source) {
        Ok(t) => t,
        Err(e) => {
            analysis.hygiene.push(Diagnostic {
                rule: "W000",
                rel_path: rel_path.to_string(),
                line: e.line,
                message: format!("lexer error: {}", e.message),
            });
            return analysis;
        }
    };
    analysis.raw = rules::run_all(rel_path, &tokens, kind == FileKind::Lib);
    let (waivers, bad) = parse_waivers(rel_path, &tokens);
    analysis.waivers = waivers;
    analysis.hygiene.extend(bad);
    match parser::parse_file(&tokens) {
        Ok(ast) => {
            analysis.parsed = Some(symbols::ParsedFile {
                rel_path: rel_path.to_string(),
                kind,
                ast,
            });
        }
        Err(e) => {
            analysis.hygiene.push(Diagnostic {
                rule: "W000",
                rel_path: rel_path.to_string(),
                line: e.line,
                message: format!(
                    "parse error (file skipped by structural rules): {}",
                    e.message
                ),
            });
        }
    }
    analysis
}

/// Phase 2: symbol table → call graph → structural rules over every parsed
/// file.
fn structural_diagnostics(parsed: &[symbols::ParsedFile]) -> Vec<Diagnostic> {
    let table = symbols::build(parsed);
    let graph = callgraph::build(&table);
    let mut out = callgraph::l009(&table, &graph);
    out.extend(dataflow::l010(&table));
    out.extend(dataflow::l011(&table, &graph));
    out.extend(dataflow::l012(&table));
    out
}

/// Match raw findings against waivers and flag unused waivers. `raw` must
/// contain every waivable finding for the file (token and structural).
fn finish_file(analysis: FileAnalysis, structural: Vec<Diagnostic>) -> FileReport {
    let FileAnalysis {
        raw,
        hygiene,
        waivers,
        ..
    } = analysis;
    let mut diagnostics = hygiene;
    let mut suppressed = 0usize;
    let mut used = vec![false; waivers.len()];
    for d in raw.into_iter().chain(structural) {
        let hit = waivers
            .iter()
            .position(|w| w.rule == d.rule && (w.line == d.line || w.line + 1 == d.line));
        match hit {
            Some(i) => {
                if let Some(slot) = used.get_mut(i) {
                    *slot = true;
                }
                suppressed += 1;
            }
            None => diagnostics.push(d),
        }
    }
    for (w, was_used) in waivers.iter().zip(&used) {
        if !was_used {
            diagnostics.push(Diagnostic {
                rule: "W000",
                rel_path: w.rel_path.clone(),
                line: w.line,
                message: format!(
                    "waiver for {} suppresses nothing; remove it or move it onto the offending line",
                    w.rule
                ),
            });
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.line, a.rule, a.message.as_str()).cmp(&(b.line, b.rule, b.message.as_str()))
    });
    FileReport {
        diagnostics,
        waivers,
        suppressed,
    }
}

/// Lint a single source text. `kind` controls whether the library rule set
/// applies. This is the pure core used by both the CLI and the fixture
/// tests. The structural rules run over the file in isolation — a
/// one-file workspace — so cross-file paths resolve only within it.
pub fn lint_source(
    rel_path: &str,
    source: &str,
    kind: FileKind,
) -> Result<FileReport, lexer::LexError> {
    // Preserve the historical contract: a lex failure is an `Err`, not a
    // diagnostic, when linting a single buffer directly.
    lexer::tokenize(source)?;
    let analysis = analyze_source(rel_path, source, kind);
    let structural = match &analysis.parsed {
        Some(p) => structural_diagnostics(std::slice::from_ref(p)),
        None => Vec::new(),
    };
    Ok(finish_file(analysis, structural))
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
                rel_path: f.rel_path.clone(),
                raw: Vec::new(),
                hygiene: vec![Diagnostic {
                    rule: "W000",
                    rel_path: f.rel_path.clone(),
                    line: 0,
                    message: format!("unreadable file: {e}"),
                }],
                waivers: Vec::new(),
                parsed: None,
            },
        });

    let mut analyses = analyses;
    let parsed: Vec<symbols::ParsedFile> = analyses
        .iter_mut()
        .filter_map(|a| a.parsed.take())
        .collect();
    let mut structural = structural_diagnostics(&parsed);
    structural.sort_by(|a, b| {
        (a.rel_path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.rel_path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });

    let mut report = WorkspaceReport {
        files_scanned: analyses.len(),
        ..WorkspaceReport::default()
    };
    for a in analyses {
        let mine: Vec<Diagnostic> = structural
            .iter()
            .filter(|d| d.rel_path == a.rel_path)
            .cloned()
            .collect();
        let fr = finish_file(a, mine);
        report.diagnostics.extend(fr.diagnostics);
        report.waivers.extend(fr.waivers);
        report.suppressed += fr.suppressed;
    }
    report.diagnostics.sort_by(|a, b| {
        (a.rel_path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.rel_path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    report.waivers.sort_by(|a, b| {
        (a.rel_path.as_str(), a.line, a.rule.as_str()).cmp(&(
            b.rel_path.as_str(),
            b.line,
            b.rule.as_str(),
        ))
    });
    Ok(report)
}
