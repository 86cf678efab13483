//! The abstract syntax tree produced by [`crate::parser`].
//!
//! This is a *Rust subset* AST: it models exactly the constructs the
//! workspace's own code uses and the structural rules (L009 and the path
//! rules behind L004/L007/L008) need —
//! items, function bodies down to individual call/index/assignment
//! expressions, patterns, and just enough of the type grammar to name a
//! type's head and arguments. Generic parameter lists, lifetimes and
//! `where` clauses are recognised and skipped; they carry no lint signal.
//!
//! Every node is an owned value (no arenas, no lifetimes) so a parsed file
//! can cross the `lpa-par` fan-out boundary, and [`File::dump`] renders a
//! stable s-expression form used by the golden-corpus parser tests.

/// One parsed source file.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct File {
    pub items: Vec<Item>,
}

/// Item visibility. `pub(crate)` / `pub(super)` / `pub(in …)` all count as
/// [`Vis::PubScoped`]: they widen the audience beyond the defining module,
/// which is what the reachability rules care about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Vis {
    Private,
    Pub,
    PubScoped,
}

/// A top-level or nested item with shared metadata.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Item {
    pub line: u32,
    pub vis: Vis,
    /// Carried a `#[cfg(test)]` / `#[test]` / `#[bench]` attribute (or is
    /// nested inside an item that did).
    pub is_test: bool,
    pub kind: ItemKind,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ItemKind {
    Fn(FnDecl),
    Impl(ImplBlock),
    Struct(StructDef),
    Enum(EnumDef),
    Trait(TraitDef),
    Mod(ModDecl),
    Use(UseDecl),
    /// `const` or `static`.
    Const(ConstDef),
    TypeAlias(String),
    /// An item-position macro invocation (`thread_local! { … }`); body
    /// tokens are skipped, only the macro name is kept.
    MacroItem(String),
}

/// A function or method declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FnDecl {
    pub name: String,
    /// Declared a `self` receiver (method).
    pub has_self: bool,
    pub params: Vec<Param>,
    pub ret: Option<Type>,
    /// `None` for trait-required methods (`fn f(&self);`).
    pub body: Option<Block>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Param {
    /// Binding name when the pattern is a plain identifier; tuple or
    /// struct patterns keep all bound names.
    pub names: Vec<String>,
    pub ty: Type,
}

/// A type reference reduced to head + argument structure. Synthetic heads:
/// `"&"` (reference), `"[]"` (slice/array), `"()"` (tuple/unit), `"fn"`
/// (function traits/pointers), `"dyn"` / `"impl"` (trait objects), `"!"`
/// (never). Path heads join their segments with `::`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Type {
    pub head: String,
    pub args: Vec<Type>,
}

impl Type {
    pub fn simple(head: &str) -> Self {
        Type {
            head: head.to_string(),
            args: Vec::new(),
        }
    }

    /// Last path segment of the head (`std::collections::HashMap` →
    /// `HashMap`), the name rules match against.
    pub fn head_name(&self) -> &str {
        self.head.rsplit("::").next().unwrap_or(&self.head)
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImplBlock {
    /// `Some(trait path)` for `impl Trait for Type`.
    pub trait_name: Option<String>,
    pub self_ty: Type,
    pub items: Vec<Item>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructDef {
    pub name: String,
    /// Tuple-struct fields are named `"0"`, `"1"`, …
    pub fields: Vec<(String, Type)>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnumDef {
    pub name: String,
    pub variants: Vec<String>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraitDef {
    pub name: String,
    pub items: Vec<Item>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModDecl {
    /// `mod name { … }`.
    Inline(String, Vec<Item>),
    /// `mod name;` — the module lives in its own file.
    File(String),
}

/// A `use` declaration flattened to its leaves: `use a::{b, c as d};`
/// yields `[a::b as b, a::c as d]`. A glob import keeps alias `"*"`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UseDecl {
    pub leaves: Vec<UseLeaf>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UseLeaf {
    pub path: Vec<String>,
    pub alias: String,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConstDef {
    pub name: String,
    pub ty: Option<Type>,
    pub init: Option<Expr>,
}

/// `{ … }` — statements plus an optional tail expression (the tail is kept
/// as a trailing `Stmt::Expr` without semicolon).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    Let(LetStmt),
    /// Expression statement; the flag records a trailing semicolon.
    Expr(Expr, bool),
    Item(Box<Item>),
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LetStmt {
    pub line: u32,
    pub pat: Pat,
    pub ty: Option<Type>,
    pub init: Option<Expr>,
    /// `let … else { … }` diverging block.
    pub else_block: Option<Block>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Expr {
    pub line: u32,
    pub kind: ExprKind,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExprKind {
    /// `a`, `a::b::c`, `Self::f` — path segments.
    Path(Vec<String>),
    /// Literal, raw text preserved (string bodies already stripped by the
    /// lexer).
    Lit(String),
    Tuple(Vec<Expr>),
    Array(Vec<Expr>),
    /// `[expr; len]`.
    Repeat(Box<Expr>, Box<Expr>),
    Call(Box<Expr>, Vec<Expr>),
    MethodCall(Box<Expr>, String, Vec<Expr>),
    Field(Box<Expr>, String),
    Index(Box<Expr>, Box<Expr>),
    Binary(String, Box<Expr>, Box<Expr>),
    Unary(String, Box<Expr>),
    /// `lhs op rhs` where op is `=`, `+=`, `-=`, …
    Assign(String, Box<Expr>, Box<Expr>),
    Range(Option<Box<Expr>>, Option<Box<Expr>>, bool),
    Ref(bool, Box<Expr>),
    Cast(Box<Expr>, Type),
    /// Closure: bound parameter names and the body expression.
    Closure(Vec<String>, Box<Expr>),
    If(Box<Expr>, Block, Option<Box<Expr>>),
    IfLet(Pat, Box<Expr>, Block, Option<Box<Expr>>),
    Match(Box<Expr>, Vec<Arm>),
    For(Pat, Box<Expr>, Block),
    While(Box<Expr>, Block),
    WhileLet(Pat, Box<Expr>, Block),
    Loop(Block),
    Block(Block),
    /// Macro invocation: name path plus best-effort parsed argument
    /// expressions (arguments that do not parse as expressions are
    /// dropped, never fatal).
    Macro(Vec<String>, Vec<Expr>),
    StructLit(Vec<String>, Vec<(String, Expr)>, Option<Box<Expr>>),
    Return(Option<Box<Expr>>),
    Break,
    Continue,
    /// `expr?`.
    Try(Box<Expr>),
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Arm {
    pub line: u32,
    pub pats: Vec<Pat>,
    pub guard: Option<Expr>,
    pub body: Expr,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pat {
    pub line: u32,
    pub kind: PatKind,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PatKind {
    Wild,
    Lit(String),
    /// A binding identifier (possibly `ref` / `mut`).
    Ident(String),
    /// A path pattern with no payload: `Action::DropEdge`, `None`.
    Path(Vec<String>),
    TupleStruct(Vec<String>, Vec<Pat>),
    /// Struct pattern: path, named sub-patterns, had `..` rest.
    Struct(Vec<String>, Vec<(String, Pat)>, bool),
    Tuple(Vec<Pat>),
    Slice(Vec<Pat>),
    Ref(Box<Pat>),
    /// `name @ pat`.
    Bind(String, Box<Pat>),
    /// Nested alternatives: `Some(A | B)`.
    Or(Vec<Pat>),
    Range,
    Rest,
}

impl Pat {
    /// All identifiers this pattern binds.
    pub fn bound_names(&self, out: &mut Vec<String>) {
        match &self.kind {
            PatKind::Ident(n) => out.push(n.clone()),
            PatKind::Bind(n, p) => {
                out.push(n.clone());
                p.bound_names(out);
            }
            PatKind::TupleStruct(_, ps)
            | PatKind::Tuple(ps)
            | PatKind::Slice(ps)
            | PatKind::Or(ps) => {
                for p in ps {
                    p.bound_names(out);
                }
            }
            PatKind::Struct(_, fs, _) => {
                for (_, p) in fs {
                    p.bound_names(out);
                }
            }
            PatKind::Ref(p) => p.bound_names(out),
            PatKind::Wild | PatKind::Lit(_) | PatKind::Path(_) | PatKind::Range | PatKind::Rest => {
            }
        }
    }

    /// Every path this pattern mentions, recursively — used by L004/L007 to
    /// resolve which enum a match arm destructures.
    pub fn paths(&self, out: &mut Vec<Vec<String>>) {
        match &self.kind {
            PatKind::Path(p) => out.push(p.clone()),
            PatKind::TupleStruct(p, ps) => {
                out.push(p.clone());
                for s in ps {
                    s.paths(out);
                }
            }
            PatKind::Struct(p, fs, _) => {
                out.push(p.clone());
                for (_, s) in fs {
                    s.paths(out);
                }
            }
            PatKind::Tuple(ps) | PatKind::Slice(ps) | PatKind::Or(ps) => {
                for s in ps {
                    s.paths(out);
                }
            }
            PatKind::Ref(p) | PatKind::Bind(_, p) => p.paths(out),
            PatKind::Wild
            | PatKind::Lit(_)
            | PatKind::Ident(_)
            | PatKind::Range
            | PatKind::Rest => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Stable s-expression dump for the golden parser corpus.
// ---------------------------------------------------------------------------

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

impl File {
    /// Render the whole file as an indented s-expression. The format is
    /// stable: golden files in the parser test corpus are diffed against
    /// it byte-for-byte.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            item.dump(&mut out, 0);
        }
        out
    }
}

impl Item {
    fn dump(&self, out: &mut String, depth: usize) {
        push_indent(out, depth);
        let vis = match self.vis {
            Vis::Private => "",
            Vis::Pub => " pub",
            Vis::PubScoped => " pub(scoped)",
        };
        let test = if self.is_test { " test" } else { "" };
        match &self.kind {
            ItemKind::Fn(f) => {
                out.push_str(&format!("(fn {}{vis}{test} L{}\n", f.name, self.line));
                for p in &f.params {
                    push_indent(out, depth + 1);
                    out.push_str(&format!("(param {:?} {})\n", p.names, p.ty.dump()));
                }
                if let Some(r) = &f.ret {
                    push_indent(out, depth + 1);
                    out.push_str(&format!("(ret {})\n", r.dump()));
                }
                if let Some(b) = &f.body {
                    b.dump(out, depth + 1);
                }
                push_indent(out, depth);
                out.push_str(")\n");
            }
            ItemKind::Impl(i) => {
                let tr = i
                    .trait_name
                    .as_ref()
                    .map(|t| format!(" trait={t}"))
                    .unwrap_or_default();
                out.push_str(&format!("(impl {}{tr}{test}\n", i.self_ty.dump()));
                for it in &i.items {
                    it.dump(out, depth + 1);
                }
                push_indent(out, depth);
                out.push_str(")\n");
            }
            ItemKind::Struct(s) => {
                out.push_str(&format!("(struct {}{vis}{test}", s.name));
                for (n, t) in &s.fields {
                    out.push_str(&format!(" ({n} {})", t.dump()));
                }
                out.push_str(")\n");
            }
            ItemKind::Enum(e) => {
                out.push_str(&format!(
                    "(enum {}{vis}{test} {})\n",
                    e.name,
                    e.variants.join(" ")
                ));
            }
            ItemKind::Trait(t) => {
                out.push_str(&format!("(trait {}{vis}{test}\n", t.name));
                for it in &t.items {
                    it.dump(out, depth + 1);
                }
                push_indent(out, depth);
                out.push_str(")\n");
            }
            ItemKind::Mod(ModDecl::Inline(name, items)) => {
                out.push_str(&format!("(mod {name}{vis}{test}\n"));
                for it in items {
                    it.dump(out, depth + 1);
                }
                push_indent(out, depth);
                out.push_str(")\n");
            }
            ItemKind::Mod(ModDecl::File(name)) => {
                out.push_str(&format!("(mod-file {name}{vis}{test})\n"));
            }
            ItemKind::Use(u) => {
                out.push_str("(use");
                for l in &u.leaves {
                    out.push_str(&format!(" {}=>{}", l.path.join("::"), l.alias));
                }
                out.push_str(")\n");
            }
            ItemKind::Const(c) => {
                let ty = c.ty.as_ref().map(|t| t.dump()).unwrap_or_default();
                out.push_str(&format!("(const {}{vis}{test} {ty}", c.name));
                if let Some(e) = &c.init {
                    out.push(' ');
                    e.dump(out);
                }
                out.push_str(")\n");
            }
            ItemKind::TypeAlias(n) => out.push_str(&format!("(type {n}{vis})\n")),
            ItemKind::MacroItem(n) => out.push_str(&format!("(macro-item {n})\n")),
        }
    }
}

impl Type {
    pub fn dump(&self) -> String {
        if self.args.is_empty() {
            self.head.clone()
        } else {
            let args: Vec<String> = self.args.iter().map(Type::dump).collect();
            format!("{}<{}>", self.head, args.join(","))
        }
    }
}

impl Block {
    fn dump(&self, out: &mut String, depth: usize) {
        push_indent(out, depth);
        out.push_str("(block\n");
        for s in &self.stmts {
            match s {
                Stmt::Let(l) => {
                    push_indent(out, depth + 1);
                    out.push_str("(let ");
                    l.pat.dump(out);
                    if let Some(t) = &l.ty {
                        out.push_str(&format!(" : {}", t.dump()));
                    }
                    if let Some(e) = &l.init {
                        out.push_str(" = ");
                        e.dump(out);
                    }
                    if l.else_block.is_some() {
                        out.push_str(" else{..}");
                    }
                    out.push_str(")\n");
                }
                Stmt::Expr(e, semi) => {
                    push_indent(out, depth + 1);
                    e.dump(out);
                    if *semi {
                        out.push(';');
                    }
                    out.push('\n');
                }
                Stmt::Item(item) => item.dump(out, depth + 1),
            }
        }
        push_indent(out, depth);
        out.push_str(")\n");
    }
}

impl Expr {
    fn dump(&self, out: &mut String) {
        match &self.kind {
            ExprKind::Path(p) => out.push_str(&p.join("::")),
            ExprKind::Lit(t) => out.push_str(&format!("#{t}#")),
            ExprKind::Tuple(es) => {
                out.push_str("(tuple");
                for e in es {
                    out.push(' ');
                    e.dump(out);
                }
                out.push(')');
            }
            ExprKind::Array(es) => {
                out.push_str("(array");
                for e in es {
                    out.push(' ');
                    e.dump(out);
                }
                out.push(')');
            }
            ExprKind::Repeat(e, n) => {
                out.push_str("(repeat ");
                e.dump(out);
                out.push(' ');
                n.dump(out);
                out.push(')');
            }
            ExprKind::Call(c, args) => {
                out.push_str("(call ");
                c.dump(out);
                for a in args {
                    out.push(' ');
                    a.dump(out);
                }
                out.push(')');
            }
            ExprKind::MethodCall(r, name, args) => {
                out.push_str(&format!("(method {name} "));
                r.dump(out);
                for a in args {
                    out.push(' ');
                    a.dump(out);
                }
                out.push(')');
            }
            ExprKind::Field(b, f) => {
                out.push_str("(field ");
                b.dump(out);
                out.push_str(&format!(" {f})"));
            }
            ExprKind::Index(b, i) => {
                out.push_str("(index ");
                b.dump(out);
                out.push(' ');
                i.dump(out);
                out.push(')');
            }
            ExprKind::Binary(op, l, r) => {
                out.push_str(&format!("({op} "));
                l.dump(out);
                out.push(' ');
                r.dump(out);
                out.push(')');
            }
            ExprKind::Unary(op, e) => {
                out.push_str(&format!("(unary{op} "));
                e.dump(out);
                out.push(')');
            }
            ExprKind::Assign(op, l, r) => {
                out.push_str(&format!("(assign{op} "));
                l.dump(out);
                out.push(' ');
                r.dump(out);
                out.push(')');
            }
            ExprKind::Range(lo, hi, incl) => {
                out.push_str(if *incl { "(range= " } else { "(range " });
                match lo {
                    Some(e) => e.dump(out),
                    None => out.push('_'),
                }
                out.push(' ');
                match hi {
                    Some(e) => e.dump(out),
                    None => out.push('_'),
                }
                out.push(')');
            }
            ExprKind::Ref(m, e) => {
                out.push_str(if *m { "(refmut " } else { "(ref " });
                e.dump(out);
                out.push(')');
            }
            ExprKind::Cast(e, t) => {
                out.push_str("(cast ");
                e.dump(out);
                out.push_str(&format!(" {})", t.dump()));
            }
            ExprKind::Closure(params, body) => {
                out.push_str(&format!("(closure {:?} ", params));
                body.dump(out);
                out.push(')');
            }
            ExprKind::If(c, t, e) => {
                out.push_str("(if ");
                c.dump(out);
                out.push_str(&format!(" then[{}]", t.stmts.len()));
                if let Some(e) = e {
                    out.push_str(" else ");
                    e.dump(out);
                }
                out.push(')');
            }
            ExprKind::IfLet(p, e, t, el) => {
                out.push_str("(iflet ");
                p.dump(out);
                out.push(' ');
                e.dump(out);
                out.push_str(&format!(" then[{}]", t.stmts.len()));
                if let Some(el) = el {
                    out.push_str(" else ");
                    el.dump(out);
                }
                out.push(')');
            }
            ExprKind::Match(s, arms) => {
                out.push_str("(match ");
                s.dump(out);
                for a in arms {
                    out.push_str(" (arm ");
                    for (i, p) in a.pats.iter().enumerate() {
                        if i > 0 {
                            out.push('|');
                        }
                        p.dump(out);
                    }
                    if a.guard.is_some() {
                        out.push_str(" if?");
                    }
                    out.push_str(" => ");
                    a.body.dump(out);
                    out.push(')');
                }
                out.push(')');
            }
            ExprKind::For(p, it, b) => {
                out.push_str("(for ");
                p.dump(out);
                out.push_str(" in ");
                it.dump(out);
                out.push_str(&format!(" body[{}])", b.stmts.len()));
            }
            ExprKind::While(c, b) => {
                out.push_str("(while ");
                c.dump(out);
                out.push_str(&format!(" body[{}])", b.stmts.len()));
            }
            ExprKind::WhileLet(p, e, b) => {
                out.push_str("(whilelet ");
                p.dump(out);
                out.push(' ');
                e.dump(out);
                out.push_str(&format!(" body[{}])", b.stmts.len()));
            }
            ExprKind::Loop(b) => out.push_str(&format!("(loop body[{}])", b.stmts.len())),
            ExprKind::Block(b) => out.push_str(&format!("(blockexpr [{}])", b.stmts.len())),
            ExprKind::Macro(p, args) => {
                out.push_str(&format!("(macro {}!", p.join("::")));
                for a in args {
                    out.push(' ');
                    a.dump(out);
                }
                out.push(')');
            }
            ExprKind::StructLit(p, fields, base) => {
                out.push_str(&format!("(structlit {}", p.join("::")));
                for (n, e) in fields {
                    out.push_str(&format!(" ({n} "));
                    e.dump(out);
                    out.push(')');
                }
                if base.is_some() {
                    out.push_str(" ..base");
                }
                out.push(')');
            }
            ExprKind::Return(e) => {
                out.push_str("(return");
                if let Some(e) = e {
                    out.push(' ');
                    e.dump(out);
                }
                out.push(')');
            }
            ExprKind::Break => out.push_str("(break)"),
            ExprKind::Continue => out.push_str("(continue)"),
            ExprKind::Try(e) => {
                out.push_str("(try ");
                e.dump(out);
                out.push(')');
            }
        }
    }
}

impl Pat {
    fn dump(&self, out: &mut String) {
        match &self.kind {
            PatKind::Wild => out.push('_'),
            PatKind::Lit(t) => out.push_str(&format!("#{t}#")),
            PatKind::Ident(n) => out.push_str(n),
            PatKind::Path(p) => out.push_str(&format!("path:{}", p.join("::"))),
            PatKind::TupleStruct(p, ps) => {
                out.push_str(&format!("{}(", p.join("::")));
                for (i, s) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    s.dump(out);
                }
                out.push(')');
            }
            PatKind::Struct(p, fs, rest) => {
                out.push_str(&format!("{}{{", p.join("::")));
                for (i, (n, s)) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(&format!("{n}:"));
                    s.dump(out);
                }
                if *rest {
                    out.push_str("..");
                }
                out.push('}');
            }
            PatKind::Tuple(ps) => {
                out.push_str("tup(");
                for (i, s) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    s.dump(out);
                }
                out.push(')');
            }
            PatKind::Slice(ps) => {
                out.push_str("slice[");
                for (i, s) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    s.dump(out);
                }
                out.push(']');
            }
            PatKind::Ref(p) => {
                out.push('&');
                p.dump(out);
            }
            PatKind::Bind(n, p) => {
                out.push_str(&format!("{n}@"));
                p.dump(out);
            }
            PatKind::Or(ps) => {
                for (i, s) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push('|');
                    }
                    s.dump(out);
                }
            }
            PatKind::Range => out.push_str("range"),
            PatKind::Rest => out.push_str(".."),
        }
    }
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

impl Block {
    /// Visit every expression in the block, pre-order, including `let`
    /// initializers, `let … else` blocks, and nested item fn bodies.
    /// AST depth is bounded by the parser's recursion cap, so plain
    /// recursion cannot overflow.
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        for s in &self.stmts {
            match s {
                Stmt::Let(l) => {
                    if let Some(init) = &l.init {
                        init.walk(f);
                    }
                    if let Some(b) = &l.else_block {
                        b.walk_exprs(f);
                    }
                }
                Stmt::Expr(e, _) => e.walk(f),
                Stmt::Item(item) => {
                    if let ItemKind::Fn(d) = &item.kind {
                        if let Some(b) = &d.body {
                            b.walk_exprs(f);
                        }
                    }
                }
            }
        }
    }
}

impl Expr {
    /// Visit this expression and all descendants, pre-order.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Path(_) | ExprKind::Lit(_) | ExprKind::Break | ExprKind::Continue => {}
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            ExprKind::Repeat(a, b) | ExprKind::Index(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Call(callee, args) => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::MethodCall(recv, _, args) => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Field(e, _)
            | ExprKind::Unary(_, e)
            | ExprKind::Ref(_, e)
            | ExprKind::Cast(e, _)
            | ExprKind::Closure(_, e)
            | ExprKind::Try(e) => e.walk(f),
            ExprKind::Binary(_, a, b) | ExprKind::Assign(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Range(lo, hi, _) => {
                if let Some(e) = lo {
                    e.walk(f);
                }
                if let Some(e) = hi {
                    e.walk(f);
                }
            }
            ExprKind::If(cond, then, els) => {
                cond.walk(f);
                then.walk_exprs(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            ExprKind::IfLet(_, scrut, then, els) => {
                scrut.walk(f);
                then.walk_exprs(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            ExprKind::Match(scrut, arms) => {
                scrut.walk(f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        g.walk(f);
                    }
                    arm.body.walk(f);
                }
            }
            ExprKind::For(_, iter, body) => {
                iter.walk(f);
                body.walk_exprs(f);
            }
            ExprKind::While(cond, body) => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            ExprKind::WhileLet(_, scrut, body) => {
                scrut.walk(f);
                body.walk_exprs(f);
            }
            ExprKind::Loop(body) | ExprKind::Block(body) => body.walk_exprs(f),
            ExprKind::Macro(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::StructLit(_, fields, base) => {
                for (_, e) in fields {
                    e.walk(f);
                }
                if let Some(b) = base {
                    b.walk(f);
                }
            }
            ExprKind::Return(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
        }
    }
}
