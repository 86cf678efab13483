//! Workspace symbol table: the bridge between per-file ASTs and the
//! whole-program analyses (the call graph, the path rules).
//!
//! Symbols are collected per crate with enough path resolution to answer
//! the questions the structural rules ask: *which function definitions can
//! this call expression reach*, *which enum does this match-arm pattern
//! name*. Resolution is
//! deliberately an over-approximation — when a method call cannot be
//! resolved precisely it unions over every method with that name — because
//! the rules built on top are "nothing bad is reachable" rules, where a
//! superset of the truth errs on the loud side.
//!
//! All maps are `BTreeMap`s and all id assignment follows file order, so
//! every consumer iterates in a deterministic order regardless of thread
//! count.

use crate::ast::{EnumDef, File, FnDecl, Item, ItemKind, ModDecl, Vis};
use crate::walk::FileKind;
use std::collections::{BTreeMap, BTreeSet};

/// One parsed workspace file, the phase-1 output consumed by phase 2.
#[derive(Clone, Debug)]
pub struct ParsedFile {
    pub rel_path: String,
    pub kind: FileKind,
    pub ast: File,
}

/// Per-file symbol context: crate, `use` aliases, glob imports.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    pub rel_path: String,
    /// Crate name in identifier form (`lpa_nn`, not `lpa-nn`).
    pub krate: String,
    /// Module path of the file within its crate (`src/foo/bar.rs` → `[foo, bar]`).
    pub module: Vec<String>,
    /// `use` aliases visible in the file: alias → absolute path segments.
    /// Inline-module uses are merged in (a harmless over-approximation).
    pub aliases: BTreeMap<String, Vec<String>>,
    /// Glob import prefixes (`use super::*` → the expanded prefix).
    pub globs: Vec<Vec<String>>,
}

/// One function definition anywhere in the workspace.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub id: usize,
    /// Index into [`SymbolTable::files`].
    pub file: usize,
    pub krate: String,
    pub rel_path: String,
    pub line: u32,
    /// `impl` self type head (with `Self` resolved), `None` for free fns.
    pub self_ty: Option<String>,
    /// Trait name when the fn lives in an `impl Trait for T` block.
    pub trait_name: Option<String>,
    pub name: String,
    /// `pub` without a scope restriction.
    pub is_pub: bool,
    /// Under `#[cfg(test)]` / `#[test]`, or in a test-like file.
    pub is_test: bool,
    /// Defined in library code (not tests/benches/examples/bin).
    pub is_lib: bool,
    pub has_self: bool,
    pub decl: FnDecl,
}

/// Whole-workspace symbol table.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    pub files: Vec<FileSymbols>,
    pub fns: Vec<FnDef>,
    /// Fn name → ids (free fns and methods alike).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Method name → ids, methods (`has_self`) only.
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// (self type head, fn name) → ids, for `Type::assoc` calls.
    pub by_qual: BTreeMap<(String, String), Vec<usize>>,
    /// Enum name → definitions (crate, def).
    pub enums: BTreeMap<String, Vec<(String, EnumDef)>>,
    /// All type names that have an inherent or trait impl anywhere.
    pub impl_types: BTreeSet<String>,
}

/// Derive the crate name (identifier form) for a workspace-relative path.
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(dir) = parts.next() {
            return dir.replace('-', "_");
        }
    }
    // Root package (`src/`, `tests/`, `benches/` at the workspace root).
    "lpa".to_string()
}

/// Module path of a file within its crate: path segments after `src/`,
/// dropping `lib.rs` / `main.rs` / `mod.rs` and the `.rs` suffix.
fn module_of(rel_path: &str) -> Vec<String> {
    let segs: Vec<&str> = rel_path.split('/').collect();
    let after_src: &[&str] = match segs.iter().position(|s| *s == "src") {
        Some(i) => segs.get(i + 1..).unwrap_or_default(),
        // tests/benches files are crate roots of their own; treat as empty.
        None => &[],
    };
    let mut out: Vec<String> = Vec::new();
    for (i, s) in after_src.iter().enumerate() {
        let is_last = i + 1 == after_src.len();
        if is_last {
            let stem = s.strip_suffix(".rs").unwrap_or(s);
            if stem != "lib" && stem != "main" && stem != "mod" {
                out.push(stem.to_string());
            }
        } else {
            out.push((*s).to_string());
        }
    }
    out
}

struct Collector<'a> {
    table: &'a mut SymbolTable,
    file: usize,
    krate: String,
    rel_path: String,
    is_lib: bool,
}

impl Collector<'_> {
    fn push_fn(
        &mut self,
        decl: &FnDecl,
        item: &Item,
        self_ty: Option<&str>,
        trait_name: Option<&str>,
        in_test_mod: bool,
    ) {
        let id = self.table.fns.len();
        let is_test = item.is_test || in_test_mod || !self.is_lib;
        let def = FnDef {
            id,
            file: self.file,
            krate: self.krate.clone(),
            rel_path: self.rel_path.clone(),
            line: item.line,
            self_ty: self_ty.map(str::to_string),
            trait_name: trait_name.map(str::to_string),
            name: decl.name.clone(),
            is_pub: item.vis == Vis::Pub,
            is_test,
            is_lib: self.is_lib,
            has_self: decl.has_self,
            decl: decl.clone(),
        };
        self.table
            .by_name
            .entry(def.name.clone())
            .or_default()
            .push(id);
        if def.has_self {
            self.table
                .methods_by_name
                .entry(def.name.clone())
                .or_default()
                .push(id);
        }
        if let Some(ty) = &def.self_ty {
            self.table
                .by_qual
                .entry((ty.clone(), def.name.clone()))
                .or_default()
                .push(id);
        }
        self.table.fns.push(def);
    }

    fn collect_items(
        &mut self,
        items: &[Item],
        module: &[String],
        self_ty: Option<&str>,
        trait_name: Option<&str>,
        in_test_mod: bool,
    ) {
        for item in items {
            let in_test = in_test_mod || item.is_test;
            match &item.kind {
                ItemKind::Fn(decl) => {
                    self.push_fn(decl, item, self_ty, trait_name, in_test_mod);
                }
                ItemKind::Impl(ib) => {
                    let ty_head = ib.self_ty.head_name().to_string();
                    self.table.impl_types.insert(ty_head.clone());
                    self.collect_items(
                        &ib.items,
                        module,
                        Some(&ty_head),
                        ib.trait_name.as_deref(),
                        in_test,
                    );
                }
                ItemKind::Enum(ed) => {
                    self.table
                        .enums
                        .entry(ed.name.clone())
                        .or_default()
                        .push((self.krate.clone(), ed.clone()));
                }
                ItemKind::Trait(td) => {
                    // Default trait methods belong to the trait "type".
                    self.collect_items(&td.items, module, Some(&td.name), Some(&td.name), in_test);
                }
                ItemKind::Mod(ModDecl::Inline(name, sub)) => {
                    let mut m: Vec<String> = module.to_vec();
                    m.push(name.clone());
                    self.collect_items(sub, &m, None, None, in_test);
                }
                ItemKind::Mod(ModDecl::File(_)) => {}
                ItemKind::Use(u) => {
                    let krate = self.krate.clone();
                    if let Some(fs) = self.table.files.get_mut(self.file) {
                        for leaf in &u.leaves {
                            let abs = absolutize(&leaf.path, &krate, module);
                            if leaf.alias == "*" {
                                fs.globs.push(abs);
                            } else {
                                fs.aliases.insert(leaf.alias.clone(), abs);
                            }
                        }
                    }
                }
                ItemKind::Struct(_)
                | ItemKind::Const(_)
                | ItemKind::TypeAlias(_)
                | ItemKind::MacroItem(_) => {}
            }
        }
    }
}

/// Rewrite a `use` path's leading `crate` / `self` / `super` segments into
/// an absolute, crate-rooted path.
fn absolutize(path: &[String], krate: &str, module: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut rest = path;
    match path.first().map(String::as_str) {
        Some("crate") => {
            out.push(krate.to_string());
            rest = path.get(1..).unwrap_or_default();
        }
        Some("self") => {
            out.push(krate.to_string());
            out.extend(module.iter().cloned());
            rest = path.get(1..).unwrap_or_default();
        }
        Some("super") => {
            out.push(krate.to_string());
            let mut m: Vec<String> = module.to_vec();
            let mut i = 0usize;
            while path.get(i).is_some_and(|s| s == "super") {
                m.pop();
                i += 1;
            }
            out.extend(m);
            rest = path.get(i..).unwrap_or_default();
        }
        _ => {}
    }
    out.extend(rest.iter().cloned());
    out
}

/// Build the symbol table from all parsed files. Files must already be in
/// deterministic (sorted) order; ids follow that order.
pub fn build(parsed: &[ParsedFile]) -> SymbolTable {
    let mut table = SymbolTable::default();
    for pf in parsed {
        table.files.push(FileSymbols {
            rel_path: pf.rel_path.clone(),
            krate: crate_of(&pf.rel_path),
            module: module_of(&pf.rel_path),
            aliases: BTreeMap::new(),
            globs: Vec::new(),
        });
    }
    for (idx, pf) in parsed.iter().enumerate() {
        let Some((krate, module)) = table
            .files
            .get(idx)
            .map(|fs| (fs.krate.clone(), fs.module.clone()))
        else {
            continue;
        };
        let mut c = Collector {
            table: &mut table,
            file: idx,
            krate,
            rel_path: pf.rel_path.clone(),
            is_lib: pf.kind == FileKind::Lib,
        };
        c.collect_items(&pf.ast.items, &module, None, None, false);
    }
    table
}

impl SymbolTable {
    /// Expand the first segment of a path through the file's `use` aliases
    /// and keyword roots, producing an absolute-ish path for matching.
    pub fn expand_path(&self, file: usize, self_ty: Option<&str>, segs: &[String]) -> Vec<String> {
        let Some(fs) = self.files.get(file) else {
            return segs.to_vec();
        };
        let Some(first) = segs.first() else {
            return Vec::new();
        };
        let tail: &[String] = segs.get(1..).unwrap_or_default();
        let mut out: Vec<String> = Vec::new();
        match first.as_str() {
            "crate" => out.push(fs.krate.clone()),
            "self" => {
                out.push(fs.krate.clone());
                out.extend(fs.module.iter().cloned());
            }
            "super" => {
                out.push(fs.krate.clone());
                let mut m = fs.module.clone();
                m.pop();
                out.extend(m);
            }
            "Self" => {
                if let Some(ty) = self_ty {
                    out.push(ty.to_string());
                } else {
                    out.push("Self".to_string());
                }
            }
            other => {
                if let Some(expansion) = fs.aliases.get(other) {
                    out.extend(expansion.iter().cloned());
                } else {
                    out.push(other.to_string());
                }
            }
        }
        out.extend(tail.iter().cloned());
        out
    }

    /// True when `name` is a crate in this workspace.
    pub fn is_workspace_crate(&self, name: &str) -> bool {
        self.files.iter().any(|f| f.krate == name)
    }

    /// Candidate fn ids a path call like `helper(…)`, `Type::assoc(…)`,
    /// `crate::m::f(…)` may reach. Empty for std/extern paths.
    pub fn resolve_fn_path(
        &self,
        file: usize,
        self_ty: Option<&str>,
        segs: &[String],
    ) -> Vec<usize> {
        let expanded = self.expand_path(file, self_ty, segs);
        let Some(name) = expanded.last() else {
            return Vec::new();
        };
        let file_krate = self
            .files
            .get(file)
            .map(|f| f.krate.clone())
            .unwrap_or_default();
        // Unqualified call: same-crate fns with that name (covers plain
        // calls, `use super::*`, and same-file helpers).
        if expanded.len() == 1 {
            let mut out: Vec<usize> = self
                .ids_by_name(name)
                .iter()
                .copied()
                .filter(|&id| self.fns.get(id).is_some_and(|f| f.krate == file_krate))
                .collect();
            // Cross-crate glob imports (`use lpa_x::*;`).
            if let Some(fs) = self.files.get(file) {
                for glob in &fs.globs {
                    if let Some(gk) = glob.first() {
                        if gk != &file_krate && self.is_workspace_crate(gk) {
                            out.extend(
                                self.ids_by_name(name)
                                    .iter()
                                    .copied()
                                    .filter(|&id| self.fns.get(id).is_some_and(|f| &f.krate == gk)),
                            );
                        }
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            return out;
        }
        // Qualified: the segment before the name is either a type with
        // impls or a module; the head may be a crate name.
        let qual = expanded
            .get(expanded.len().saturating_sub(2))
            .cloned()
            .unwrap_or_default();
        let head = expanded.first().cloned().unwrap_or_default();
        let mut out: Vec<usize> = Vec::new();
        if let Some(ids) = self.by_qual.get(&(qual.clone(), name.clone())) {
            out.extend(ids.iter().copied());
        }
        if out.is_empty() && self.is_workspace_crate(&head) {
            // Module-qualified free fn: `lpa_x::mod::f` / `crate::mod::f`.
            out.extend(self.ids_by_name(name).iter().copied().filter(|&id| {
                self.fns
                    .get(id)
                    .is_some_and(|f| f.krate == head && f.self_ty.is_none())
            }));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate fn ids for a method call `recv.name(…)`: the name union
    /// over every method in the workspace with that name.
    pub fn resolve_method(&self, name: &str) -> Vec<usize> {
        self.methods_by_name.get(name).cloned().unwrap_or_default()
    }

    fn ids_by_name(&self, name: &str) -> Vec<usize> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Look up an enum definition by a (possibly aliased) pattern path. The
    /// path is expanded, then its tail segments are checked against known
    /// enum names; a crate-named head must agree with the definition.
    pub fn resolve_enum<'a>(
        &'a self,
        file: usize,
        self_ty: Option<&str>,
        segs: &[String],
    ) -> Option<(&'a str, &'a EnumDef)> {
        let expanded = self.expand_path(file, self_ty, segs);
        // The enum name is the second-to-last segment (`Action::Partition`)
        // or the last (`Act` rebound to the enum itself); prefer the former.
        let mut candidates: Vec<&String> = Vec::new();
        if expanded.len() >= 2 {
            if let Some(s) = expanded.get(expanded.len() - 2) {
                candidates.push(s);
            }
        }
        if let Some(s) = expanded.last() {
            candidates.push(s);
        }
        let head = expanded.first().map(String::as_str).unwrap_or_default();
        for cand in candidates {
            if let Some(defs) = self.enums.get(cand) {
                for (krate, def) in defs {
                    let crate_consistent =
                        !self.is_workspace_crate(head) || head == krate || head == cand.as_str();
                    if crate_consistent {
                        return Some((krate.as_str(), def));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_file;

    fn pf(rel_path: &str, src: &str) -> ParsedFile {
        ParsedFile {
            rel_path: rel_path.to_string(),
            kind: FileKind::Lib,
            ast: parse_file(&tokenize(src).expect("lex")).expect("parse"),
        }
    }

    #[test]
    fn crate_and_module_derivation() {
        assert_eq!(crate_of("crates/lpa-nn/src/matrix.rs"), "lpa_nn");
        assert_eq!(crate_of("src/lib.rs"), "lpa");
        assert_eq!(crate_of("tests/lint_gate.rs"), "lpa");
        assert_eq!(module_of("crates/lpa-nn/src/lib.rs"), Vec::<String>::new());
        assert_eq!(module_of("crates/lpa-nn/src/matrix.rs"), vec!["matrix"]);
        assert_eq!(module_of("src/deep/mod.rs"), vec!["deep"]);
    }

    #[test]
    fn collects_fns_methods_and_impls() {
        let t = build(&[pf(
            "crates/lpa-nn/src/matrix.rs",
            "pub struct Matrix { data: Vec<f32> }\n\
             impl Matrix {\n\
               pub fn new() -> Self { todo!() }\n\
               pub fn get(&self, r: usize) -> f32 { 0.0 }\n\
             }\n\
             fn helper() {}\n\
             #[cfg(test)] mod tests { fn t() {} }",
        )]);
        assert_eq!(t.fns.len(), 4);
        let get = t.fns.iter().find(|f| f.name == "get").expect("get");
        assert!(get.has_self);
        assert_eq!(get.self_ty.as_deref(), Some("Matrix"));
        let th = t.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(th.is_test);
        assert!(t.impl_types.contains("Matrix"));
    }

    #[test]
    fn alias_expansion_resolves_cross_crate_calls() {
        let t = build(&[
            pf(
                "crates/lpa-nn/src/lib.rs",
                "pub fn train(lr: f32) -> f32 { lr }",
            ),
            pf(
                "crates/lpa-rl/src/lib.rs",
                "use lpa_nn::train;\npub fn step() { train(0.1); }",
            ),
        ]);
        let ids = t.resolve_fn_path(1, None, &["train".to_string()]);
        assert_eq!(ids.len(), 1);
        assert_eq!(t.fns.get(ids[0]).map(|f| f.krate.as_str()), Some("lpa_nn"));
    }

    #[test]
    fn self_and_qualified_resolution() {
        let t = build(&[pf(
            "crates/lpa-cluster/src/lib.rs",
            "pub struct Sim;\n\
             impl Sim {\n\
               fn inner(&self) {}\n\
               pub fn run(&self) { Self::check(); }\n\
               fn check() {}\n\
             }",
        )]);
        let ids = t.resolve_fn_path(0, Some("Sim"), &["Self".to_string(), "check".to_string()]);
        assert_eq!(ids.len(), 1);
        assert_eq!(t.fns.get(ids[0]).map(|f| f.name.as_str()), Some("check"));
        let m = t.resolve_method("inner");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn enum_resolution_through_alias() {
        let t = build(&[
            pf(
                "crates/lpa-partition/src/action.rs",
                "pub enum Action { Partition, Replicate, NoOp }",
            ),
            pf(
                "crates/lpa-rl/src/lib.rs",
                "use lpa_partition::Action as Act;\npub fn f() {}",
            ),
        ]);
        let hit = t.resolve_enum(1, None, &["Act".to_string(), "Partition".to_string()]);
        let (krate, def) = hit.expect("resolves");
        assert_eq!(krate, "lpa_partition");
        assert_eq!(def.name, "Action");
        assert_eq!(def.variants.len(), 3);
    }
}
