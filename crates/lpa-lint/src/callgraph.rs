//! Workspace call graph and the L009 panic-reachability rule.
//!
//! Edges are an over-approximation: path calls resolve through each file's
//! `use` aliases, method calls union over every workspace method with the
//! same name, and bare fn references in argument position (callbacks)
//! count as calls. Locals shadowing fn names are tracked so a variable
//! named like a function does not fabricate an edge.
//!
//! **L009** — deepens L001 from textual to transitive: no `panic!` /
//! `.unwrap()` / `.expect()` / unchecked slice index may be reachable on
//! any call path from a non-test library `pub fn`. An index expression
//! counts as *checked* when the bounded-index doctrine accepts it (see
//! [`index_is_bounded`]): literal indices, `%`-reduced and
//! `.min()`/`.clamp()`-clamped forms, loop-bound variables, variables
//! guarded by a comparison anywhere in the function (covers `assert!` and
//! `if`/`while` guards), ALL-UPPERCASE constants, and let-bindings whose
//! initializers are themselves bounded. Slice-range indexing (`s[a..b]`)
//! is out of scope for this rule. The `assert!` family is a deliberate
//! invariant, not a panic site.

use crate::ast::{Block, Expr, ExprKind};
use crate::rules::Diagnostic;
use crate::symbols::SymbolTable;
use std::collections::{BTreeSet, VecDeque};

/// One resolved call edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    pub callee: usize,
    pub line: u32,
}

/// The workspace call graph, indexed by [`SymbolTable`] fn ids.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    pub edges: Vec<Vec<Edge>>,
}

/// A panic-capable expression found inside a function body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PanicSite {
    pub line: u32,
    /// Human-readable description: "`.unwrap()`", "`panic!`", "unchecked index".
    pub what: String,
}

/// Collect references to every `let` statement in a function body: the
/// top-level block plus every block carried by a control-flow or block
/// expression.
fn collect_lets<'a>(body: &'a Block, out: &mut Vec<&'a crate::ast::LetStmt>) {
    for s in &body.stmts {
        if let crate::ast::Stmt::Let(l) = s {
            out.push(l);
        }
    }
    let mut visit = |e: &'a Expr| match &e.kind {
        ExprKind::If(_, b, _)
        | ExprKind::IfLet(_, _, b, _)
        | ExprKind::For(_, _, b)
        | ExprKind::While(_, b)
        | ExprKind::WhileLet(_, _, b)
        | ExprKind::Loop(b)
        | ExprKind::Block(b) => {
            for s in &b.stmts {
                if let crate::ast::Stmt::Let(l) = s {
                    out.push(l);
                }
            }
        }
        _ => {}
    };
    body.walk_exprs(&mut visit);
}

/// Every identifier bound anywhere in a function body (params, lets, loop
/// and match patterns, closure params) — used both to suppress fake edges
/// and as part of the bounded-index analysis.
fn bound_names(decl: &crate::ast::FnDecl) -> BTreeSet<String> {
    let mut scratch: Vec<String> = Vec::new();
    for p in &decl.params {
        scratch.extend(p.names.iter().cloned());
    }
    let Some(body) = &decl.body else {
        return scratch.into_iter().collect();
    };
    {
        let mut visit = |e: &Expr| match &e.kind {
            ExprKind::Closure(params, _) => scratch.extend(params.iter().cloned()),
            ExprKind::For(pat, _, _)
            | ExprKind::IfLet(pat, _, _, _)
            | ExprKind::WhileLet(pat, _, _) => pat.bound_names(&mut scratch),
            ExprKind::Match(_, arms) => {
                for arm in arms {
                    for pat in &arm.pats {
                        pat.bound_names(&mut scratch);
                    }
                }
            }
            _ => {}
        };
        body.walk_exprs(&mut visit);
    }
    let mut lets = Vec::new();
    collect_lets(body, &mut lets);
    for l in lets {
        l.pat.bound_names(&mut scratch);
    }
    scratch.into_iter().collect()
}

/// Build the call graph over every fn in the symbol table.
pub fn build(table: &SymbolTable) -> CallGraph {
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); table.fns.len()];
    for def in &table.fns {
        let Some(body) = &def.decl.body else { continue };
        let locals = bound_names(&def.decl);
        let mut out: Vec<Edge> = Vec::new();
        let self_ty = def.self_ty.as_deref();
        let mut visit = |e: &Expr| {
            match &e.kind {
                ExprKind::Call(callee, _) => {
                    if let ExprKind::Path(segs) = &callee.kind {
                        // A single-segment callee shadowed by a local is a
                        // closure/fn-pointer variable, not a named fn.
                        let shadowed =
                            segs.len() == 1 && segs.first().is_some_and(|s| locals.contains(s));
                        if !shadowed {
                            for id in table.resolve_fn_path(def.file, self_ty, segs) {
                                out.push(Edge {
                                    callee: id,
                                    line: e.line,
                                });
                            }
                        }
                    }
                }
                ExprKind::MethodCall(_, name, _) => {
                    for id in table.resolve_method(name) {
                        out.push(Edge {
                            callee: id,
                            line: e.line,
                        });
                    }
                }
                ExprKind::Path(segs) if segs.len() > 1 => {
                    // Multi-segment fn reference in value position — a
                    // callback like `map(Self::square)`.
                    for id in table.resolve_fn_path(def.file, self_ty, segs) {
                        out.push(Edge {
                            callee: id,
                            line: e.line,
                        });
                    }
                }
                _ => {}
            }
        };
        body.walk_exprs(&mut visit);
        out.sort_by_key(|e| (e.callee, e.line));
        out.dedup_by_key(|e| e.callee);
        if let Some(slot) = edges.get_mut(def.id) {
            *slot = out;
        }
    }
    CallGraph { edges }
}

/// BFS parents: for each fn, `Some((caller, via_line))` on the shortest
/// path from the entry set, or `None` if unreachable. Entries have
/// `Some((self, 0))`. Nodes for which `skip` returns true are never
/// entered — method-call edges union over every workspace impl by name, so
/// without this a library `env.encode(…)` call would "reach" the toy
/// `encode` of a `#[cfg(test)]` environment.
pub fn reach_from_entries(
    graph: &CallGraph,
    entries: &[usize],
    skip: &dyn Fn(usize) -> bool,
) -> Vec<Option<(usize, u32)>> {
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; graph.edges.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in entries {
        if let Some(slot) = parent.get_mut(e) {
            if slot.is_none() {
                *slot = Some((e, 0));
                queue.push_back(e);
            }
        }
    }
    while let Some(cur) = queue.pop_front() {
        let Some(outs) = graph.edges.get(cur) else {
            continue;
        };
        for edge in outs {
            if skip(edge.callee) {
                continue;
            }
            if let Some(slot) = parent.get_mut(edge.callee) {
                if slot.is_none() {
                    *slot = Some((cur, edge.line));
                    queue.push_back(edge.callee);
                }
            }
        }
    }
    parent
}

/// Names that form the `assert!` family — deliberate invariants, exempt
/// from L009 (a failed assertion is a loud, immediate bug report, not a
/// silent mid-episode abort path).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne", "debug_assert"];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Bounded-index doctrine: is `idx` provably (heuristically) in range?
///
/// `guarded` holds every variable that appears in a comparison anywhere in
/// the function, every loop/closure-bound variable, and every let-binding
/// whose initializer was itself bounded.
fn index_is_bounded(idx: &Expr, guarded: &BTreeSet<String>) -> bool {
    match &idx.kind {
        ExprKind::Lit(t) => !t.starts_with('"') && !t.starts_with('\''),
        ExprKind::Path(segs) => match segs.as_slice() {
            [one] => {
                guarded.contains(one)
                    || one
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
            }
            // Multi-segment paths in index position are consts (`Self::K`).
            _ => true,
        },
        // Modulo reduction bounds by construction; other arithmetic is
        // bounded when each operand is.
        ExprKind::Binary(op, a, b) => {
            op == "%" || (index_is_bounded(a, guarded) && index_is_bounded(b, guarded))
        }
        ExprKind::MethodCall(recv, name, args) => match name.as_str() {
            // Clamped or length-derived indices.
            "min" | "clamp" | "rem_euclid" | "len" => true,
            "saturating_sub" | "saturating_add" | "wrapping_sub" | "wrapping_add" | "max" => {
                index_is_bounded(recv, guarded) && args.iter().all(|a| index_is_bounded(a, guarded))
            }
            _ => false,
        },
        ExprKind::Cast(e, _) | ExprKind::Unary(_, e) | ExprKind::Ref(_, e) => {
            index_is_bounded(e, guarded)
        }
        // Tuple-field projection (`attr.0`): the id-newtype pattern
        // (TableId, AttrId, …) is schema-validated at construction.
        ExprKind::Field(_, name) => name.chars().all(|c| c.is_ascii_digit()),
        // Slice-range indexing is out of scope for L009.
        ExprKind::Range(_, _, _) => true,
        _ => false,
    }
}

/// Compute the guarded-variable set for one fn body: loop/closure bindings,
/// comparison operands, and bounded let-bindings (to a fixpoint).
fn guarded_vars(decl: &crate::ast::FnDecl) -> BTreeSet<String> {
    let mut guarded: BTreeSet<String> = BTreeSet::new();
    let Some(body) = &decl.body else {
        return guarded;
    };
    let mut visit = |e: &Expr| match &e.kind {
        ExprKind::For(pat, _, _) => {
            let mut scratch = Vec::new();
            pat.bound_names(&mut scratch);
            guarded.extend(scratch);
        }
        ExprKind::Closure(params, _) => guarded.extend(params.iter().cloned()),
        ExprKind::Binary(op, a, b) if matches!(op.as_str(), "<" | "<=" | ">" | ">=") => {
            for side in [a, b] {
                if let ExprKind::Path(segs) = &side.kind {
                    if let [one] = segs.as_slice() {
                        guarded.insert(one.clone());
                    }
                }
                // `i + 1 < n` guards `i` too.
                if let ExprKind::Binary(_, x, y) = &side.kind {
                    for inner in [x, y] {
                        if let ExprKind::Path(segs) = &inner.kind {
                            if let [one] = segs.as_slice() {
                                guarded.insert(one.clone());
                            }
                        }
                    }
                }
            }
        }
        _ => {}
    };
    body.walk_exprs(&mut visit);
    // Fixpoint over let-bindings: `let o = base + k;` with bounded rhs
    // makes `o` bounded. Bounded iteration count keeps this total.
    let mut lets = Vec::new();
    collect_lets(body, &mut lets);
    for _ in 0..4 {
        let before = guarded.len();
        for l in &lets {
            if let Some(init) = &l.init {
                if index_is_bounded(init, &guarded) {
                    let mut scratch = Vec::new();
                    l.pat.bound_names(&mut scratch);
                    guarded.extend(scratch);
                }
            }
        }
        if guarded.len() == before {
            break;
        }
    }
    guarded
}

/// Find every panic-capable site in one function body.
pub fn panic_sites(decl: &crate::ast::FnDecl) -> Vec<PanicSite> {
    let mut out: Vec<PanicSite> = Vec::new();
    let Some(body) = &decl.body else {
        return out;
    };
    let guarded = guarded_vars(decl);
    let mut visit = |e: &Expr| match &e.kind {
        ExprKind::MethodCall(recv, name, _) if name == "unwrap" || name == "expect" => {
            // `self.expect(...)` is a user-defined Result-returning method
            // (std types cannot gain inherent methods) — same exemption as
            // L001.
            let on_self = matches!(&recv.kind, ExprKind::Path(p) if p.len() == 1 && p.first().is_some_and(|s| s == "self"));
            if !on_self {
                out.push(PanicSite {
                    line: e.line,
                    what: format!("`.{name}()`"),
                });
            }
        }
        ExprKind::Macro(path, _) => {
            if let Some(name) = path.last() {
                if PANIC_MACROS.contains(&name.as_str()) && !ASSERT_MACROS.contains(&name.as_str())
                {
                    out.push(PanicSite {
                        line: e.line,
                        what: format!("`{name}!`"),
                    });
                }
            }
        }
        ExprKind::Index(_, idx) if !index_is_bounded(idx, &guarded) => {
            out.push(PanicSite {
                line: e.line,
                what: "unchecked index".to_string(),
            });
        }
        _ => {}
    };
    body.walk_exprs(&mut visit);
    out.sort_by_key(|s| (s.line, s.what.clone()));
    out.dedup();
    out
}

/// Render the BFS path from an entry to `id` as `a → b → c`.
fn render_path(table: &SymbolTable, parent: &[Option<(usize, u32)>], id: usize) -> String {
    let mut chain: Vec<String> = Vec::new();
    let mut cur = id;
    // The graph is finite and BFS parents are acyclic, but cap anyway.
    for _ in 0..64 {
        let name = table
            .fns
            .get(cur)
            .map(|f| f.name.clone())
            .unwrap_or_default();
        chain.push(name);
        match parent.get(cur).copied().flatten() {
            Some((p, _)) if p != cur => cur = p,
            _ => break,
        }
    }
    chain.reverse();
    chain.join(" -> ")
}

/// L009: panic-reachability from non-test library `pub fn` entry points.
pub fn l009(table: &SymbolTable, graph: &CallGraph) -> Vec<Diagnostic> {
    let entries: Vec<usize> = table
        .fns
        .iter()
        .filter(|f| f.is_pub && f.is_lib && !f.is_test)
        .map(|f| f.id)
        .collect();
    let skip = |id: usize| table.fns.get(id).is_some_and(|f| f.is_test || !f.is_lib);
    let parent = reach_from_entries(graph, &entries, &skip);
    let mut out: Vec<Diagnostic> = Vec::new();
    for def in &table.fns {
        if def.is_test || !def.is_lib {
            continue;
        }
        if parent.get(def.id).copied().flatten().is_none() {
            continue;
        }
        for site in panic_sites(&def.decl) {
            let path = render_path(table, &parent, def.id);
            out.push(Diagnostic {
                rule: "L009",
                rel_path: def.rel_path.clone(),
                line: site.line,
                message: format!(
                    "{} is reachable from a library `pub fn` (path: {}); a panic here aborts the training episode — return a Result, use `.get()`, or bound the index",
                    site.what, path
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;
    use crate::symbols::{build as build_symbols, ParsedFile};
    use crate::walk::FileKind;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(p, s)| ParsedFile {
                rel_path: p.to_string(),
                kind: FileKind::Lib,
                ast: parse_file(&tokenize(s).expect("lex")).expect("parse"),
            })
            .collect();
        build_symbols(&parsed)
    }

    #[test]
    fn transitive_panic_is_reported_with_path() {
        let t = table(&[(
            "crates/lpa-nn/src/lib.rs",
            "pub fn entry(x: Option<u32>) -> u32 { middle(x) }\n\
             fn middle(x: Option<u32>) -> u32 { deep(x) }\n\
             fn deep(x: Option<u32>) -> u32 { x.unwrap() }",
        )]);
        let g = build(&t);
        let diags = l009(&t, &g);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("entry -> middle -> deep"));
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn unreachable_panic_is_silent() {
        let t = table(&[(
            "crates/lpa-nn/src/lib.rs",
            "pub fn entry() -> u32 { 1 }\n\
             fn orphan(x: Option<u32>) -> u32 { x.unwrap() }",
        )]);
        let g = build(&t);
        assert!(l009(&t, &g).is_empty());
    }

    #[test]
    fn bounded_indices_pass_unbounded_fail() {
        let t = table(&[(
            "crates/lpa-nn/src/lib.rs",
            "pub fn ok(v: &[f32]) -> f32 {\n\
               let mut acc = 0.0;\n\
               for i in 0..v.len() { acc += v[i]; }\n\
               acc + v[v.len() % 4] + v[0]\n\
             }\n\
             pub fn guarded(v: &[f32], k: usize) -> f32 {\n\
               if k < v.len() { v[k] } else { 0.0 }\n\
             }\n\
             pub fn bad(v: &[f32], k: usize) -> f32 { v[k] }",
        )]);
        let g = build(&t);
        let diags = l009(&t, &g);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 9);
    }

    #[test]
    fn local_shadowing_suppresses_fake_edges() {
        // `f` is a local closure, not the workspace fn `f`.
        let t = table(&[(
            "crates/lpa-nn/src/lib.rs",
            "pub fn entry() -> u32 { let f = || 3; f() }\n\
             fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        )]);
        let g = build(&t);
        assert!(l009(&t, &g).is_empty());
    }

    #[test]
    fn assert_family_is_not_a_panic_site() {
        let t = table(&[(
            "crates/lpa-nn/src/lib.rs",
            "pub fn entry(x: usize) { assert!(x > 0, \"must be positive\"); debug_assert!(x < 10); }",
        )]);
        let g = build(&t);
        assert!(l009(&t, &g).is_empty());
    }

    #[test]
    fn method_union_crosses_impls() {
        let t = table(&[(
            "crates/lpa-cluster/src/lib.rs",
            "pub struct S;\n\
             impl S { pub fn run(&self) { self.step(); } fn step(&self) { panic!(\"boom\") } }",
        )]);
        let g = build(&t);
        let diags = l009(&t, &g);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`panic!`"));
    }
}
