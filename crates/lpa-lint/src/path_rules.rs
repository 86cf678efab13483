//! L004, L007 and L008 over alias-resolved paths — the structural pass
//! behind the three rules, known internally as L012 (an id that is never
//! reported).
//!
//! Match arms, `if let`/`while let` patterns, and call paths are resolved
//! through each file's `use` aliases and impl `Self`, so `use
//! lpa_partition::Action as Act; match a { Act::DropEdge => …, other => … }`
//! is caught although the enum is never named. Binding-ident catch-all arms
//! (`other => …`) are flagged alongside wildcard `_` arms. Findings carry
//! the id of the rule they break (L004, L007 or L008).

use crate::ast::{Expr, ExprKind, Pat, PatKind};
use crate::rules::Diagnostic;
use crate::symbols::{FnDef, SymbolTable};

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
