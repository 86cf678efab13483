//! Forward dataflow over the workspace call graph: hash-order and
//! wall-clock taint tracking, float-reduction-order checking, and the
//! structural (alias-resolving) path rules.
//!
//! Three rules live here:
//!
//! **L010** — float-reduction-order (deepens L005). Within the
//! determinism-critical scope plus `lpa-nn` and `lpa-store`, every
//! `f32`/`f64` accumulation must have a deterministic iteration order: a
//! fixed-order loop over a slice/`Vec`/`BTreeMap`, or `lpa-par`'s ordered
//! `par_map_fold` reduce. Accumulating over `HashMap`/`HashSet` iteration
//! (`for v in m.values() { acc += … }` or `m.values().sum()`) is flagged:
//! the result depends on hash order, which varies run to run.
//!
//! **L011** — determinism taint (generalizes L002/L003/L006 across call
//! boundaries). *Sources*: `HashMap`/`HashSet` iteration order
//! (`iter`/`keys`/`values`/`iter_mut`/`values_mut`/`drain`/`into_iter`
//! and `for`-loops over hash collections), wall-clock reads
//! (`Instant::now`, `SystemTime::now`, `.elapsed()`, `.duration_since()`),
//! raw thread APIs (`std::thread::…`), and environment reads
//! (`env::var`). *Sinks*: every library fn in `lpa-costmodel`, `lpa-nn`
//! and `lpa-rl` (reward and weight-update paths), the state encoder
//! (`lpa-partition/src/encoder.rs`, `fingerprint.rs`), and `lpa-store`'s
//! codec and snapshot modules. Taint propagates through let-bindings and
//! function returns (a fn whose return value derives from a source taints
//! its callers) to a fixpoint over the call graph. `lpa-par` is summarized
//! by hand: `Pool::threads` returns taint (it reads `LPA_THREADS`); the
//! `par_map` family is order-preserving and returns clean values.
//!
//! **L012** — the structural check that *is* L004/L007/L008. Match arms,
//! `if let`/`while let` patterns, and call paths are resolved through each
//! file's `use` aliases and impl `Self`, so `use lpa_partition::Action as
//! Act; match a { Act::DropEdge => …, other => … }` is caught although the
//! enum is never named. Binding-ident catch-all arms (`other => …`) are
//! flagged alongside wildcard `_` arms. Findings carry the id of the rule
//! they break (L004, L007 or L008); `L012` itself is never reported.

use crate::ast::{Expr, ExprKind, Pat, PatKind, Type};
use crate::callgraph::CallGraph;
use crate::rules::{in_scope, Diagnostic, DETERMINISM_SCOPE};
use crate::symbols::{FnDef, SymbolTable};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Shared type/expression classification
// ---------------------------------------------------------------------------

fn is_hash_ty(ty: &Type) -> bool {
    ty.contains(&|h| h == "HashMap" || h == "HashSet")
}

fn is_float_ty(ty: &Type) -> bool {
    matches!(ty.head_name(), "f32" | "f64")
}

fn float_literal(text: &str) -> bool {
    text.starts_with(|c: char| c.is_ascii_digit())
        && (text.contains('.') || text.ends_with("f32") || text.ends_with("f64"))
}

/// Field names whose declared struct type is (or contains) a hash
/// collection, unioned over the whole workspace.
fn hash_field_names(table: &SymbolTable) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for defs in table.structs.values() {
        for (_, sd) in defs {
            for (fname, fty) in &sd.fields {
                if is_hash_ty(fty) {
                    out.insert(fname.clone());
                }
            }
        }
    }
    out
}

/// Local variables of hash-collection type in one fn: hash-typed params,
/// hash-annotated lets, and lets initialized from a hash constructor or
/// another hash-rooted expression (one propagation pass is enough for the
/// workspace's patterns; a second covers simple chains).
fn hash_vars(def: &FnDef, hash_fields: &BTreeSet<String>) -> BTreeSet<String> {
    let mut vars: BTreeSet<String> = BTreeSet::new();
    for p in &def.decl.params {
        if is_hash_ty(&p.ty) {
            vars.extend(p.names.iter().cloned());
        }
    }
    let Some(body) = &def.decl.body else {
        return vars;
    };
    for _ in 0..3 {
        let before = vars.len();
        let mut lets = Vec::new();
        crate::callgraph::collect_lets(body, &mut lets);
        for l in lets {
            let annotated = l.ty.as_ref().is_some_and(is_hash_ty);
            let from_init = l
                .init
                .as_ref()
                .is_some_and(|e| hash_rooted(e, &vars, hash_fields));
            if annotated || from_init {
                let mut scratch = Vec::new();
                l.pat.bound_names(&mut scratch);
                vars.extend(scratch);
            }
        }
        if vars.len() == before {
            break;
        }
    }
    vars
}

/// Methods that preserve the (nondeterministic) ordering of a hash
/// iteration chain: `m.values().map(f).collect::<Vec<_>>()` is still in
/// hash order end to end.
const ORDER_PRESERVING: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "clone",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "copied",
    "cloned",
    "enumerate",
    "zip",
    "chain",
    "take",
    "skip",
    "collect",
    "by_ref",
];

/// Is this expression rooted at a hash collection, with ordering
/// preserved? `m`, `&m`, `m.values()`, `m.iter().map(f)` — yes;
/// `m.get(k)`, `m.len()` — no (single lookups are order-independent).
fn hash_rooted(e: &Expr, vars: &BTreeSet<String>, fields: &BTreeSet<String>) -> bool {
    match &e.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [one] => vars.contains(one),
            more => more.iter().any(|s| s == "HashMap" || s == "HashSet"),
        },
        ExprKind::Field(base, name) => {
            fields.contains(name) && !name.chars().all(|c| c.is_ascii_digit())
                || matches!(&base.kind, ExprKind::Path(p) if p.len() == 1) && fields.contains(name)
        }
        ExprKind::MethodCall(recv, name, _) => {
            ORDER_PRESERVING.contains(&name.as_str()) && hash_rooted(recv, vars, fields)
        }
        ExprKind::Call(callee, _) => {
            matches!(&callee.kind, ExprKind::Path(p) if p.iter().any(|s| s == "HashMap" || s == "HashSet"))
        }
        ExprKind::Ref(_, inner) | ExprKind::Unary(_, inner) | ExprKind::Cast(inner, _) => {
            hash_rooted(inner, vars, fields)
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// L010 — float-reduction-order
// ---------------------------------------------------------------------------

fn l010_in_scope(rel_path: &str) -> bool {
    in_scope(rel_path, DETERMINISM_SCOPE)
        || rel_path.contains("crates/lpa-nn/src/")
        || rel_path.contains("crates/lpa-store/src/")
}

/// Float-typed local accumulators: annotated `f32`/`f64` lets or lets
/// initialized with a float literal.
fn float_vars(def: &FnDef) -> BTreeSet<String> {
    let mut vars: BTreeSet<String> = BTreeSet::new();
    for p in &def.decl.params {
        if is_float_ty(&p.ty) {
            vars.extend(p.names.iter().cloned());
        }
    }
    let Some(body) = &def.decl.body else {
        return vars;
    };
    let mut lets = Vec::new();
    crate::callgraph::collect_lets(body, &mut lets);
    for l in lets {
        let ann = l.ty.as_ref().is_some_and(is_float_ty);
        let lit = l
            .init
            .as_ref()
            .is_some_and(|e| matches!(&e.kind, ExprKind::Lit(t) if float_literal(t)));
        if ann || lit {
            let mut scratch = Vec::new();
            l.pat.bound_names(&mut scratch);
            vars.extend(scratch);
        }
    }
    vars
}

/// L010: float accumulation over hash-ordered iteration.
pub fn l010(table: &SymbolTable) -> Vec<Diagnostic> {
    let hash_fields = hash_field_names(table);
    let mut out: Vec<Diagnostic> = Vec::new();
    for def in &table.fns {
        if def.is_test || !def.is_lib || !l010_in_scope(&def.rel_path) {
            continue;
        }
        let Some(body) = &def.decl.body else { continue };
        let hvars = hash_vars(def, &hash_fields);
        let fvars = float_vars(def);
        let mut visit = |e: &Expr| match &e.kind {
            // `for v in m.values() { acc += … }` with a float accumulator.
            ExprKind::For(_, iter, loop_body) if hash_rooted(iter, &hvars, &hash_fields) => {
                let mut inner = |ie: &Expr| {
                    if let ExprKind::Assign(op, lhs, rhs) = &ie.kind {
                        let compound = op == "+=" || op == "-=" || op == "*=";
                        let float_lhs = matches!(&lhs.kind, ExprKind::Path(p) if p.len() == 1 && p.first().is_some_and(|n| fvars.contains(n)));
                        let mut float_rhs = false;
                        rhs.walk(&mut |r: &Expr| {
                            float_rhs |= matches!(&r.kind, ExprKind::Cast(_, ty) if is_float_ty(ty))
                                || matches!(&r.kind, ExprKind::Lit(t) if float_literal(t));
                        });
                        if compound && (float_lhs || float_rhs) {
                            out.push(Diagnostic {
                                rule: "L010",
                                rel_path: def.rel_path.clone(),
                                line: ie.line,
                                message: "float accumulation over HashMap/HashSet iteration: the sum depends on hash order and varies across runs; iterate a BTreeMap/sorted Vec or reduce via lpa-par's ordered `par_map_fold`".to_string(),
                            });
                        }
                    }
                };
                loop_body.walk_exprs(&mut inner);
            }
            // `m.values().sum::<f64>()` / `.fold(…)` / `.product()`.
            ExprKind::MethodCall(recv, name, _)
                if matches!(name.as_str(), "sum" | "product" | "fold")
                    && hash_rooted(recv, &hvars, &hash_fields) =>
            {
                out.push(Diagnostic {
                    rule: "L010",
                    rel_path: def.rel_path.clone(),
                    line: e.line,
                    message: format!(
                        "`.{name}()` over HashMap/HashSet iteration: reduction order follows hash order and varies across runs; sort first or use lpa-par's ordered `par_map_fold`"
                    ),
                });
            }
            _ => {}
        };
        body.walk_exprs(&mut visit);
    }
    out
}

// ---------------------------------------------------------------------------
// L011 — determinism taint
// ---------------------------------------------------------------------------

/// Hash methods whose *result* carries iteration-order taint.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Is this fn a determinism sink (reward / state-encoding / weight-update
/// / codec)? Library code only; tests may do what they like.
fn is_sink(def: &FnDef) -> bool {
    if !def.is_lib || def.is_test {
        return false;
    }
    match def.krate.as_str() {
        "lpa_costmodel" | "lpa_nn" => true,
        // lpa-rl is all sink except its phase-timer observability module:
        // `profile.rs` reads wall clocks by design, and its accumulators
        // never flow back into training (anything clock-derived passed
        // *into* a real lpa-rl sink is still caught by the tainted-arg
        // form of L011).
        "lpa_rl" => !def.rel_path.contains("/profile.rs"),
        "lpa_partition" => {
            def.rel_path.contains("/encoder.rs") || def.rel_path.contains("/fingerprint.rs")
        }
        "lpa_store" => def.rel_path.contains("/codec.rs") || def.rel_path.contains("/snapshot.rs"),
        _ => false,
    }
}

/// Hand-written summary for `lpa-par`: `threads`/`derive_stream` expose
/// environment- or seed-derived values (`threads` reads `LPA_THREADS` —
/// callers must not let it shape rewards); the `par_map` family is
/// order-preserving and returns clean results regardless of inputs.
fn lpa_par_override(def: &FnDef) -> Option<bool> {
    if def.krate != "lpa_par" {
        return None;
    }
    Some(def.name == "threads")
}

struct TaintCtx<'a> {
    table: &'a SymbolTable,
    hash_fields: &'a BTreeSet<String>,
    /// Per-fn summary: does the return value carry taint?
    returns_taint: Vec<bool>,
}

impl TaintCtx<'_> {
    /// Is this expression a *direct* source of nondeterminism?
    fn is_source(&self, def: &FnDef, hvars: &BTreeSet<String>, e: &Expr) -> Option<String> {
        match &e.kind {
            ExprKind::MethodCall(recv, name, _) => {
                if HASH_ITER_METHODS.contains(&name.as_str())
                    && hash_rooted(recv, hvars, self.hash_fields)
                {
                    return Some(format!("HashMap/HashSet iteration order (`.{name}()`)"));
                }
                if matches!(name.as_str(), "elapsed" | "duration_since") {
                    return Some(format!("wall-clock read (`.{name}()`)"));
                }
                None
            }
            ExprKind::Call(callee, _) => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return None;
                };
                let expanded = self
                    .table
                    .expand_path(def.file, def.self_ty.as_deref(), segs);
                let joined = expanded.join("::");
                if joined.ends_with("Instant::now") || joined.ends_with("SystemTime::now") {
                    return Some(format!("wall-clock read (`{joined}`)"));
                }
                if joined.ends_with("env::var") || joined.ends_with("env::var_os") {
                    return Some(format!("environment read (`{joined}`)"));
                }
                if expanded.iter().any(|s| s == "thread")
                    && expanded
                        .first()
                        .is_some_and(|s| s == "std" || s == "thread")
                {
                    return Some(format!("raw thread API (`{joined}`)"));
                }
                None
            }
            _ => None,
        }
    }

    /// Does `e` (or any subexpression) carry taint, given the fn's tainted
    /// locals?
    fn expr_tainted(
        &self,
        def: &FnDef,
        hvars: &BTreeSet<String>,
        tvars: &BTreeSet<String>,
        e: &Expr,
    ) -> bool {
        let mut tainted = false;
        e.walk(&mut |sub: &Expr| {
            if tainted {
                return;
            }
            if self.is_source(def, hvars, sub).is_some() {
                tainted = true;
                return;
            }
            match &sub.kind {
                ExprKind::Path(segs) => {
                    if let [one] = segs.as_slice() {
                        if tvars.contains(one) {
                            tainted = true;
                        }
                    }
                }
                ExprKind::Call(callee, _) => {
                    if let ExprKind::Path(segs) = &callee.kind {
                        for id in self
                            .table
                            .resolve_fn_path(def.file, def.self_ty.as_deref(), segs)
                        {
                            let summary = self
                                .table
                                .fns
                                .get(id)
                                .and_then(lpa_par_override)
                                .unwrap_or_else(|| {
                                    self.returns_taint.get(id).copied().unwrap_or(false)
                                });
                            if summary {
                                tainted = true;
                            }
                        }
                    }
                }
                ExprKind::MethodCall(_, name, _) => {
                    for id in self.table.resolve_method(name) {
                        let summary = self
                            .table
                            .fns
                            .get(id)
                            .and_then(lpa_par_override)
                            .unwrap_or_else(|| {
                                self.returns_taint.get(id).copied().unwrap_or(false)
                            });
                        if summary {
                            tainted = true;
                        }
                    }
                }
                _ => {}
            }
        });
        tainted
    }

    /// Tainted local variables of one fn, to a fixpoint.
    fn tainted_vars(&self, def: &FnDef, hvars: &BTreeSet<String>) -> BTreeSet<String> {
        let mut tvars: BTreeSet<String> = BTreeSet::new();
        let Some(body) = &def.decl.body else {
            return tvars;
        };
        for _ in 0..4 {
            let before = tvars.len();
            // Let-bindings from tainted initializers.
            let mut lets = Vec::new();
            crate::callgraph::collect_lets(body, &mut lets);
            for l in lets {
                if let Some(init) = &l.init {
                    if self.expr_tainted(def, hvars, &tvars, init) {
                        let mut scratch = Vec::new();
                        l.pat.bound_names(&mut scratch);
                        tvars.extend(scratch);
                    }
                }
            }
            // `for`-loop bindings over hash collections, and plain
            // assignments from tainted right-hand sides.
            let mut fresh: Vec<String> = Vec::new();
            let mut visit = |e: &Expr| match &e.kind {
                ExprKind::For(pat, iter, _)
                    if hash_rooted(iter, hvars, self.hash_fields)
                        || self.expr_tainted(def, hvars, &tvars, iter) =>
                {
                    pat.bound_names(&mut fresh);
                }
                ExprKind::Assign(_, lhs, rhs) if self.expr_tainted(def, hvars, &tvars, rhs) => {
                    if let ExprKind::Path(p) = &lhs.kind {
                        if let [one] = p.as_slice() {
                            fresh.push(one.clone());
                        }
                    }
                }
                _ => {}
            };
            body.walk_exprs(&mut visit);
            tvars.extend(fresh);
            if tvars.len() == before {
                break;
            }
        }
        tvars
    }
}

/// L011: nondeterminism taint reaching reward / encoder / weight-update /
/// codec functions.
pub fn l011(table: &SymbolTable, _graph: &CallGraph) -> Vec<Diagnostic> {
    let hash_fields = hash_field_names(table);
    let mut ctx = TaintCtx {
        table,
        hash_fields: &hash_fields,
        returns_taint: vec![false; table.fns.len()],
    };
    // Fixpoint over fn summaries: a fn returns taint when its tail or any
    // `return` expression is tainted. Monotone and bounded by fn count.
    for _ in 0..8 {
        let mut changed = false;
        for def in &table.fns {
            if ctx.returns_taint.get(def.id).copied().unwrap_or(true) {
                continue;
            }
            if let Some(forced) = lpa_par_override(def) {
                if forced {
                    if let Some(slot) = ctx.returns_taint.get_mut(def.id) {
                        *slot = true;
                        changed = true;
                    }
                }
                continue;
            }
            let Some(body) = &def.decl.body else { continue };
            let hvars = hash_vars(def, &hash_fields);
            let tvars = ctx.tainted_vars(def, &hvars);
            // Tail expression of the body.
            let mut ret_tainted = body
                .stmts
                .last()
                .is_some_and(|s| matches!(s, crate::ast::Stmt::Expr(e, false) if ctx.expr_tainted(def, &hvars, &tvars, e)));
            // Explicit `return expr`.
            if !ret_tainted {
                let mut visit = |e: &Expr| {
                    if let ExprKind::Return(Some(inner)) = &e.kind {
                        if ctx.expr_tainted(def, &hvars, &tvars, inner) {
                            ret_tainted = true;
                        }
                    }
                };
                body.walk_exprs(&mut visit);
            }
            if ret_tainted {
                if let Some(slot) = ctx.returns_taint.get_mut(def.id) {
                    *slot = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out: Vec<Diagnostic> = Vec::new();
    for def in &table.fns {
        if !def.is_lib || def.is_test || def.krate == "lpa_par" {
            continue;
        }
        let Some(body) = &def.decl.body else { continue };
        let hvars = hash_vars(def, &hash_fields);
        let tvars = ctx.tainted_vars(def, &hvars);
        let sink_self = is_sink(def);
        let mut visit = |e: &Expr| {
            // (1) A nondeterminism source evaluated inside a sink fn.
            if sink_self {
                if let Some(src) = ctx.is_source(def, &hvars, e) {
                    out.push(Diagnostic {
                        rule: "L011",
                        rel_path: def.rel_path.clone(),
                        line: e.line,
                        message: format!(
                            "{src} inside `{}`, a reward/encoding/weight-update/codec function: nondeterminism here corrupts the training signal bit-identity contract",
                            def.name
                        ),
                    });
                }
            }
            // (2) A tainted argument passed into a sink fn call. Only
            // path calls are matched here: without type inference a method
            // name like `.push` would union over every workspace impl and
            // misattribute `Vec::push` to `lpa_rl`'s replay buffer. Sink
            // *methods* are still covered by form (1), which fires on any
            // source evaluated inside the sink fn itself.
            let (callee_ids, args, call_desc): (Vec<usize>, &[Expr], String) = match &e.kind {
                ExprKind::Call(callee, args) => {
                    if let ExprKind::Path(segs) = &callee.kind {
                        (
                            ctx.table
                                .resolve_fn_path(def.file, def.self_ty.as_deref(), segs),
                            args.as_slice(),
                            segs.join("::"),
                        )
                    } else {
                        (Vec::new(), args.as_slice(), String::new())
                    }
                }
                _ => (Vec::new(), &[], String::new()),
            };
            if callee_ids.is_empty() {
                return;
            }
            let sink_target = callee_ids
                .iter()
                .filter_map(|&id| ctx.table.fns.get(id))
                .find(|f| is_sink(f));
            if let Some(target) = sink_target {
                for arg in args {
                    if ctx.expr_tainted(def, &hvars, &tvars, arg) {
                        out.push(Diagnostic {
                            rule: "L011",
                            rel_path: def.rel_path.clone(),
                            line: e.line,
                            message: format!(
                                "value derived from HashMap iteration / wall-clock / thread APIs flows into `{call_desc}` (`{}::{}`, a reward/encoding/weight-update/codec function); route through a sorted collection or simulated time",
                                target.krate, target.name
                            ),
                        });
                        break;
                    }
                }
            }
        };
        body.walk_exprs(&mut visit);
    }
    out
}

// ---------------------------------------------------------------------------
// L012 — the structural check behind L004 / L007 / L008
// ---------------------------------------------------------------------------

/// The canonical enums whose matches must stay exhaustive: name, owning
/// crate, and the rule a catch-all over them breaks.
const GUARDED_ENUMS: &[(&str, &str, &str)] = &[
    ("Action", "lpa_partition", "L004"),
    ("QueryOutcome", "lpa_cluster", "L007"),
];

/// Which guarded enum (name, rule) `pat` destructures, if any. A path
/// counts when it resolves — through `use` aliases and impl `Self` — to the
/// enum in its owning crate, or when it literally reads `…Action::Variant`:
/// a file linted on its own cannot place the enum, but still names it.
fn guarded_enum(
    table: &SymbolTable,
    def: &FnDef,
    pat: &Pat,
) -> Option<(&'static str, &'static str)> {
    let mut paths: Vec<Vec<String>> = Vec::new();
    pat.paths(&mut paths);
    paths.iter().find_map(|p| {
        let resolved = table.resolve_enum(def.file, def.self_ty.as_deref(), p);
        let literal = p.iter().rev().nth(1);
        GUARDED_ENUMS.iter().find_map(|&(ename, ekrate, rule)| {
            let by_symbol = resolved.is_some_and(|(krate, ed)| ed.name == ename && krate == ekrate);
            (by_symbol || literal.is_some_and(|s| s == ename)).then_some((ename, rule))
        })
    })
}

/// Top-level catch-all check: `_`, a bare binding ident, or `name @ _`.
fn catch_all_line(pat: &Pat) -> Option<(u32, &'static str)> {
    match &pat.kind {
        PatKind::Wild => Some((pat.line, "wildcard `_`")),
        PatKind::Ident(_) => Some((pat.line, "binding-ident catch-all")),
        PatKind::Bind(_, inner) => match &inner.kind {
            PatKind::Wild => Some((pat.line, "wildcard `_`")),
            _ => None,
        },
        PatKind::Or(alts) => alts.iter().find_map(catch_all_line),
        _ => None,
    }
}

/// L004 / L007 / L008 — the one implementation of the three path rules
/// (see [`crate::rules`] for why each exists), over resolved symbols. A
/// finding is reported under the rule it breaks: a catch-all arm (`_`,
/// `_ if guard`, `other`) in a match over `Action` is **L004**; the same
/// over `QueryOutcome`, or an `if let`/`while let` destructuring it, is
/// **L007**; a call to `std::fs::write`, `std::fs::rename` or
/// `std::fs::File::create` outside `lpa-store` is **L008**.
pub fn l012(table: &SymbolTable) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    for def in &table.fns {
        if !def.is_lib || def.is_test {
            continue;
        }
        let Some(body) = &def.decl.body else { continue };
        let in_store = def.krate == "lpa_store";
        let mut visit = |e: &Expr| match &e.kind {
            ExprKind::Match(_, arms) => {
                let guarded = arms
                    .iter()
                    .find_map(|arm| arm.pats.iter().find_map(|p| guarded_enum(table, def, p)));
                let Some((ename, rule)) = guarded else { return };
                for arm in arms {
                    for pat in &arm.pats {
                        if let Some((line, what)) = catch_all_line(pat) {
                            out.push(Diagnostic {
                                rule,
                                rel_path: def.rel_path.clone(),
                                line,
                                message: format!(
                                    "{what} arm in a match over `{ename}`: a newly added variant (or a `Failed` query) would be silently ignored; list every variant"
                                ),
                            });
                        }
                    }
                }
            }
            ExprKind::IfLet(pat, _, _, _) | ExprKind::WhileLet(pat, _, _)
                if guarded_enum(table, def, pat).is_some_and(|(_, rule)| rule == "L007") =>
            {
                out.push(Diagnostic {
                    rule: "L007",
                    rel_path: def.rel_path.clone(),
                    line: pat.line,
                    message: "`if let`/`while let` over `QueryOutcome` drops the untaken variants — a `Failed` query would vanish unseen; match all variants or use the accessors".to_string(),
                });
            }
            ExprKind::Call(callee, _) if !in_store => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return;
                };
                let expanded = table.expand_path(def.file, def.self_ty.as_deref(), segs);
                let joined = expanded.join("::");
                let raw_fs_write = joined.ends_with("fs::write")
                    || joined.ends_with("fs::rename")
                    || (joined.ends_with("File::create") && segs.len() >= 2);
                if raw_fs_write && expanded.first().is_some_and(|s| s == "std") {
                    out.push(Diagnostic {
                        rule: "L008",
                        rel_path: def.rel_path.clone(),
                        line: e.line,
                        message: format!(
                            "`{joined}` outside lpa-store: a raw write is torn by a crash mid-write; persist through `lpa_store`'s atomic temp-file + fsync + rename"
                        ),
                    });
                }
            }
            _ => {}
        };
        body.walk_exprs(&mut visit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build as build_graph;
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
    fn l010_flags_hash_accumulation_not_slice_loops() {
        let t = table(&[(
            "crates/lpa-nn/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn bad(m: &HashMap<u32, f64>) -> f64 {\n\
               let mut acc: f64 = 0.0;\n\
               for v in m.values() { acc += *v; }\n\
               acc\n\
             }\n\
             pub fn also_bad(m: &HashMap<u32, f64>) -> f64 {\n\
               m.values().sum()\n\
             }\n\
             pub fn fine(v: &[f64]) -> f64 {\n\
               let mut acc: f64 = 0.0;\n\
               for x in v { acc += *x; }\n\
               acc + v.iter().sum::<f64>()\n\
             }",
        )]);
        let diags = l010(&t);
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 8], "{diags:?}");
    }

    #[test]
    fn l011_taints_across_call_boundary() {
        let t = table(&[
            (
                "crates/lpa-costmodel/src/model.rs",
                "pub fn score(x: f64) -> f64 { x * 2.0 }",
            ),
            (
                "crates/lpa-advisor/src/env.rs",
                "use std::collections::HashMap;\n\
                 use lpa_costmodel::score;\n\
                 pub fn reward(m: &HashMap<u32, f64>) -> f64 {\n\
                   let first = m.values().next();\n\
                   let v = first.copied().unwrap_or(0.0);\n\
                   score(v)\n\
                 }",
            ),
        ]);
        let g = build_graph(&t);
        let diags = l011(&t, &g);
        assert!(
            diags.iter().any(|d| d.rule == "L011" && d.line == 6),
            "{diags:?}"
        );
    }

    #[test]
    fn l011_source_inside_sink_fn() {
        let t = table(&[(
            "crates/lpa-nn/src/adam.rs",
            "pub fn step_size() -> f64 {\n\
               let t = std::time::Instant::now();\n\
               let _ = t;\n\
               0.001\n\
             }",
        )]);
        let g = build_graph(&t);
        let diags = l011(&t, &g);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("wall-clock"));
    }

    #[test]
    fn l011_par_map_results_are_clean() {
        let t = table(&[
            (
                "crates/lpa-par/src/lib.rs",
                "pub struct Pool;\n\
                 impl Pool {\n\
                   pub fn threads(&self) -> usize { 4 }\n\
                   pub fn par_map(&self, n: usize) -> Vec<f64> { Vec::new() }\n\
                 }",
            ),
            (
                "crates/lpa-costmodel/src/model.rs",
                "pub fn total(p: &lpa_par::Pool) -> f64 {\n\
                   let parts = p.par_map(8);\n\
                   parts.iter().sum()\n\
                 }",
            ),
        ]);
        let g = build_graph(&t);
        let diags = l011(&t, &g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn l012_resolves_enum_through_alias_and_flags_catch_alls() {
        let t = table(&[
            (
                "crates/lpa-partition/src/action.rs",
                "pub enum Action { Split, Merge, NoOp }",
            ),
            (
                "crates/lpa-rl/src/policy.rs",
                "use lpa_partition::Action as Act;\n\
                 pub fn apply(a: Act) -> u32 {\n\
                   match a {\n\
                     Act::Split => 1,\n\
                     other => 0,\n\
                   }\n\
                 }\n\
                 pub fn fine(a: Act) -> u32 {\n\
                   match a { Act::Split => 1, Act::Merge => 2, Act::NoOp => 0 }\n\
                 }",
            ),
        ]);
        let diags = l012(&t);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("L004", 5));
        assert!(diags[0].message.contains("binding-ident"));
    }

    #[test]
    fn l012_fs_write_through_alias() {
        let t = table(&[(
            "crates/lpa-advisor/src/lib.rs",
            "use std::fs::write as persist;\n\
             pub fn save(p: &str, data: &[u8]) {\n\
               let _ = persist(p, data);\n\
             }",
        )]);
        let diags = l012(&t);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L008");
        assert!(diags[0].message.contains("std::fs::write"));
    }

    #[test]
    fn l012_store_crate_exempt_from_fs_rule() {
        let t = table(&[(
            "crates/lpa-store/src/store.rs",
            "pub fn save(p: &str, data: &[u8]) { let _ = std::fs::write(p, data); }",
        )]);
        assert!(l012(&t).is_empty());
    }
}
