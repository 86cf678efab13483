//! Recursive-descent parser for the Rust subset the workspace uses, in the
//! same hand-written style as `lpa-sql`'s SQL parser (and the
//! recursive-descent idiom of the scuttle-db / rqlite references in
//! SNIPPETS.md).
//!
//! Design constraints, in priority order:
//!
//! 1. **Never panic.** The parser is subject to its own lint rules (L001,
//!    L009) and to a property test that feeds it arbitrary token streams.
//!    All token access goes through `Option`-returning cursors, recursion
//!    is depth-capped, and every loop provably advances.
//! 2. **Parse the whole workspace.** Items, impls, traits, generics
//!    (skipped), the full statement/expression grammar the crates use —
//!    including closures, match arms, `let … else`, turbofish, struct
//!    literals, and macro invocations (arguments parsed best-effort).
//! 3. **Stay honest on failure.** A construct outside the subset is a
//!    `ParseError` (surfaced as a `W000` diagnostic by the driver), never
//!    a silent skip that would let a structural rule miss a violation.

use crate::ast::*;
use crate::lexer::{Tok, TokKind};
use std::fmt;

/// Parse failure with the 1-based source line where it happened.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on line {}", self.message, self.line)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Maximum recursion depth for nested expressions/types/patterns. Beyond
/// this the parser errors instead of risking a stack overflow (an abort,
/// not an unwind — unacceptable under the never-panic contract).
const MAX_DEPTH: u32 = 176;

/// Parse a token stream (as produced by [`crate::lexer::tokenize`]) into a
/// [`File`].
pub fn parse_file(tokens: &[Tok]) -> PResult<File> {
    let mut p = Parser {
        toks: tokens.to_vec(),
        pos: 0,
        depth: 0,
    };
    p.file()
}

/// Does the attribute `#[…]` / `#![…]` (its tokens, `#` through `]`) mark
/// test code? `#[test]`, `#[bench]`, and a `cfg` naming `test` outside a
/// `not(…)`: `#[cfg(not(test))]` marks the code that ships. The one
/// decision behind both the parser's `Item::is_test` and the token rules'
/// test regions.
pub(crate) fn attr_marks_test(attr: &[Tok]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    let has = |s: &str| idents.contains(&s);
    matches!(idents.as_slice(), ["test" | "bench"]) || (has("cfg") && has("test") && !has("not"))
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    depth: u32,
}

impl Parser {
    // -- cursor primitives --------------------------------------------------

    fn peek(&self, k: usize) -> Option<&Tok> {
        self.toks.get(self.pos + k)
    }

    fn line(&self) -> u32 {
        // At EOF, report the last token's line.
        self.peek(0)
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.line)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err("expression nesting too deep");
        }
        Ok(())
    }

    fn exit(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(s))
    }

    fn at_any_ident(&self) -> bool {
        self.peek(0).is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(c))
    }

    fn at_punct2(&self, a: char, b: char) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(a)) && self.peek(1).is_some_and(|t| t.is_punct(b))
    }

    fn at_punct3(&self, a: char, b: char, c: char) -> bool {
        self.at_punct2(a, b) && self.peek(2).is_some_and(|t| t.is_punct(c))
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_punct2(&mut self, a: char, b: char) -> bool {
        if self.at_punct2(a, b) {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> PResult<()> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            self.err(format!("expected `{c}`"))
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.peek(0) {
            Some(t) if t.kind == TokKind::Ident => {
                let name = t.text.clone();
                self.pos += 1;
                Ok(name)
            }
            _ => self.err("expected identifier"),
        }
    }

    /// `::` — two adjacent colon puncts.
    fn at_path_sep(&self) -> bool {
        self.at_punct2(':', ':')
    }

    fn eat_path_sep(&mut self) -> bool {
        self.eat_punct2(':', ':')
    }

    // -- attributes ---------------------------------------------------------

    /// Parse one `#[…]` / `#![…]` attribute; returns whether it marks test
    /// code ([`attr_marks_test`]).
    fn attr(&mut self) -> PResult<bool> {
        let start = self.pos;
        self.expect_punct('#')?;
        self.eat_punct('!');
        self.expect_punct('[')?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some(t) if t.is_punct('[') => depth += 1,
                Some(t) if t.is_punct(']') => depth -= 1,
                Some(_) => {}
                None => return self.err("unterminated attribute"),
            }
        }
        Ok(attr_marks_test(
            self.toks.get(start..self.pos).unwrap_or_default(),
        ))
    }

    /// Consume a run of outer attributes; true if any marks test code.
    fn attrs(&mut self) -> PResult<bool> {
        let mut is_test = false;
        while self.at_punct('#') {
            is_test |= self.attr()?;
        }
        Ok(is_test)
    }

    // -- items --------------------------------------------------------------

    fn file(&mut self) -> PResult<File> {
        let mut items = Vec::new();
        // Inner attributes (`#![forbid(unsafe_code)]`) at the top.
        while self.at_punct('#') && self.peek(1).is_some_and(|t| t.is_punct('!')) {
            self.attr()?;
        }
        while self.peek(0).is_some() {
            items.push(self.item(false)?);
        }
        Ok(File { items })
    }

    fn item(&mut self, inherited_test: bool) -> PResult<Item> {
        let is_test = self.attrs()? || inherited_test;
        let line = self.line();
        let vis = self.visibility()?;
        let kind = self.item_kind(is_test)?;
        Ok(Item {
            line,
            vis,
            is_test,
            kind,
        })
    }

    fn visibility(&mut self) -> PResult<Vis> {
        if !self.at_ident("pub") {
            return Ok(Vis::Private);
        }
        self.pos += 1;
        if self.at_punct('(') {
            // pub(crate) / pub(super) / pub(in path)
            self.expect_punct('(')?;
            let mut depth = 1usize;
            while depth > 0 {
                match self.bump() {
                    Some(t) if t.is_punct('(') => depth += 1,
                    Some(t) if t.is_punct(')') => depth -= 1,
                    Some(_) => {}
                    None => return self.err("unterminated pub scope"),
                }
            }
            return Ok(Vis::PubScoped);
        }
        Ok(Vis::Pub)
    }

    fn item_kind(&mut self, is_test: bool) -> PResult<ItemKind> {
        // Function qualifiers.
        if self.at_ident("const") && self.peek(1).is_some_and(|t| t.is_ident("fn")) {
            self.pos += 1;
        }
        if self.at_ident("fn") {
            return Ok(ItemKind::Fn(self.fn_decl()?));
        }
        if self.at_ident("impl") {
            return Ok(ItemKind::Impl(self.impl_block(is_test)?));
        }
        if self.at_ident("struct") {
            return Ok(ItemKind::Struct(self.struct_def()?));
        }
        if self.at_ident("enum") {
            return Ok(ItemKind::Enum(self.enum_def()?));
        }
        if self.at_ident("trait") {
            return Ok(ItemKind::Trait(self.trait_def(is_test)?));
        }
        if self.at_ident("mod") {
            return self.mod_decl(is_test);
        }
        if self.at_ident("use") {
            return Ok(ItemKind::Use(self.use_decl()?));
        }
        if self.at_ident("const") || self.at_ident("static") {
            return Ok(ItemKind::Const(self.const_def()?));
        }
        if self.at_ident("type") {
            self.pos += 1;
            let name = self.expect_ident()?;
            self.skip_to_semi()?;
            return Ok(ItemKind::TypeAlias(name));
        }
        if self.at_ident("extern") {
            // `extern crate foo;`
            self.skip_to_semi()?;
            return Ok(ItemKind::MacroItem("extern".to_string()));
        }
        // Item-position macro: `thread_local! { … }`, `macro_rules! m { … }`.
        if self.at_any_ident() && self.peek(1).is_some_and(|t| t.is_punct('!')) {
            let name = self.expect_ident()?;
            self.expect_punct('!')?;
            if self.at_any_ident() {
                // macro_rules! name
                self.pos += 1;
            }
            self.skip_macro_body()?;
            return Ok(ItemKind::MacroItem(name));
        }
        self.err("expected item")
    }

    fn skip_to_semi(&mut self) -> PResult<()> {
        let mut depth = 0i64;
        loop {
            match self.bump() {
                Some(t) if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') => depth += 1,
                Some(t) if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') => depth -= 1,
                Some(t) if t.is_punct(';') && depth == 0 => return Ok(()),
                Some(_) => {}
                None => return self.err("expected `;`"),
            }
        }
    }

    /// Skip a macro's delimited body: `( … )`, `[ … ]` or `{ … }` with an
    /// optional trailing `;` for paren/bracket forms.
    fn skip_macro_body(&mut self) -> PResult<()> {
        let brace = self.at_punct('{');
        let mut depth = 0i64;
        loop {
            match self.bump() {
                Some(t) if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') => depth += 1,
                Some(t) if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Some(_) => {}
                None => return self.err("unterminated macro body"),
            }
            if depth == 0 {
                return self.err("expected macro delimiter");
            }
        }
        if !brace {
            self.eat_punct(';');
        }
        Ok(())
    }

    /// Skip a `<…>` generic parameter/argument list. `->` inside bounds
    /// (`Fn() -> U`) must not count its `>` as a closer.
    fn skip_generics(&mut self) -> PResult<()> {
        self.expect_punct('<')?;
        let mut depth = 1i64;
        let mut prev_minus = false;
        loop {
            let Some(t) = self.bump() else {
                return self.err("unterminated generics");
            };
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_minus {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
            prev_minus = t.is_punct('-');
        }
    }

    /// Skip a `where` clause: tokens until a `{` or `;` at bracket depth 0
    /// (angle depth tracked with the `->` caveat). The terminator is left
    /// in place.
    fn skip_where(&mut self) -> PResult<()> {
        let mut angle = 0i64;
        let mut paren = 0i64;
        let mut prev_minus = false;
        loop {
            let Some(t) = self.peek(0) else {
                return self.err("unterminated where clause");
            };
            if paren == 0 && angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
                return Ok(());
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !prev_minus && angle > 0 {
                angle -= 1;
            } else if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            }
            prev_minus = t.is_punct('-');
            self.pos += 1;
        }
    }

    fn fn_decl(&mut self) -> PResult<FnDecl> {
        self.expect_punct_ident("fn")?;
        let name = self.expect_ident()?;
        if self.at_punct('<') {
            self.skip_generics()?;
        }
        self.expect_punct('(')?;
        let mut params = Vec::new();
        let mut has_self = false;
        while !self.at_punct(')') {
            self.attrs()?;
            // Receiver forms: self / mut self / &self / &mut self / &'a self.
            let save = self.pos;
            let mut is_recv = false;
            self.eat_punct('&');
            while self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                self.pos += 1;
            }
            self.eat_ident("mut");
            if self.eat_ident("self") {
                has_self = true;
                is_recv = true;
            } else {
                self.pos = save;
            }
            if !is_recv {
                let pat = self.pattern(false)?;
                self.expect_punct(':')?;
                let ty = self.type_ref()?;
                let mut names = Vec::new();
                pat.bound_names(&mut names);
                params.push(Param { names, ty });
            }
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        let ret = if self.eat_punct2('-', '>') {
            Some(self.type_ref()?)
        } else {
            None
        };
        if self.at_ident("where") {
            self.pos += 1;
            self.skip_where()?;
        }
        let body = if self.eat_punct(';') {
            None
        } else {
            Some(self.block()?)
        };
        Ok(FnDecl {
            name,
            has_self,
            params,
            ret,
            body,
        })
    }

    fn expect_punct_ident(&mut self, kw: &str) -> PResult<()> {
        if self.eat_ident(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`"))
        }
    }

    fn impl_block(&mut self, is_test: bool) -> PResult<ImplBlock> {
        self.expect_punct_ident("impl")?;
        if self.at_punct('<') {
            self.skip_generics()?;
        }
        let first_ty = self.type_ref()?;
        let (trait_name, self_ty) = if self.eat_ident("for") {
            let self_ty = self.type_ref()?;
            (Some(first_ty.head.clone()), self_ty)
        } else {
            (None, first_ty)
        };
        if self.at_ident("where") {
            self.pos += 1;
            self.skip_where()?;
        }
        self.expect_punct('{')?;
        let mut items = Vec::new();
        while !self.at_punct('}') {
            if self.peek(0).is_none() {
                return self.err("unterminated impl block");
            }
            items.push(self.item(is_test)?);
        }
        self.expect_punct('}')?;
        Ok(ImplBlock {
            trait_name,
            self_ty,
            items,
        })
    }

    fn struct_def(&mut self) -> PResult<StructDef> {
        self.expect_punct_ident("struct")?;
        let name = self.expect_ident()?;
        if self.at_punct('<') {
            self.skip_generics()?;
        }
        let mut fields = Vec::new();
        if self.eat_punct(';') {
            return Ok(StructDef { name, fields });
        }
        if self.at_punct('(') {
            // Tuple struct.
            self.expect_punct('(')?;
            let mut idx = 0usize;
            while !self.at_punct(')') {
                self.attrs()?;
                self.visibility()?;
                let ty = self.type_ref()?;
                fields.push((idx.to_string(), ty));
                idx += 1;
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
            self.eat_punct(';');
            return Ok(StructDef { name, fields });
        }
        self.expect_punct('{')?;
        while !self.at_punct('}') {
            self.attrs()?;
            self.visibility()?;
            let fname = self.expect_ident()?;
            self.expect_punct(':')?;
            let ty = self.type_ref()?;
            fields.push((fname, ty));
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct('}')?;
        Ok(StructDef { name, fields })
    }

    fn enum_def(&mut self) -> PResult<EnumDef> {
        self.expect_punct_ident("enum")?;
        let name = self.expect_ident()?;
        if self.at_punct('<') {
            self.skip_generics()?;
        }
        self.expect_punct('{')?;
        let mut variants = Vec::new();
        while !self.at_punct('}') {
            self.attrs()?;
            let vname = self.expect_ident()?;
            variants.push(vname);
            // Payload: tuple, struct, or discriminant — skip balanced.
            if self.at_punct('(') || self.at_punct('{') {
                let mut depth = 0i64;
                loop {
                    match self.bump() {
                        Some(t) if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') => {
                            depth += 1
                        }
                        Some(t) if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some(_) => {}
                        None => return self.err("unterminated enum variant"),
                    }
                }
            } else if self.eat_punct('=') {
                // Discriminant expression until `,` or `}`.
                self.expr(true)?;
            }
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct('}')?;
        Ok(EnumDef { name, variants })
    }

    fn trait_def(&mut self, is_test: bool) -> PResult<TraitDef> {
        self.expect_punct_ident("trait")?;
        let name = self.expect_ident()?;
        if self.at_punct('<') {
            self.skip_generics()?;
        }
        // Supertraits: `trait X: Y + Z`.
        if self.eat_punct(':') {
            while !self.at_punct('{') && !self.at_ident("where") {
                if self.bump().is_none() {
                    return self.err("unterminated trait bounds");
                }
            }
        }
        if self.at_ident("where") {
            self.pos += 1;
            self.skip_where()?;
        }
        self.expect_punct('{')?;
        let mut items = Vec::new();
        while !self.at_punct('}') {
            if self.peek(0).is_none() {
                return self.err("unterminated trait block");
            }
            items.push(self.item(is_test)?);
        }
        self.expect_punct('}')?;
        Ok(TraitDef { name, items })
    }

    fn mod_decl(&mut self, is_test: bool) -> PResult<ItemKind> {
        self.expect_punct_ident("mod")?;
        let name = self.expect_ident()?;
        if self.eat_punct(';') {
            return Ok(ItemKind::Mod(ModDecl::File(name)));
        }
        self.expect_punct('{')?;
        let mut items = Vec::new();
        // Inner attributes inside the module.
        while self.at_punct('#') && self.peek(1).is_some_and(|t| t.is_punct('!')) {
            self.attr()?;
        }
        while !self.at_punct('}') {
            if self.peek(0).is_none() {
                return self.err("unterminated mod block");
            }
            items.push(self.item(is_test)?);
        }
        self.expect_punct('}')?;
        Ok(ItemKind::Mod(ModDecl::Inline(name, items)))
    }

    fn use_decl(&mut self) -> PResult<UseDecl> {
        self.expect_punct_ident("use")?;
        let mut leaves = Vec::new();
        self.use_tree(&[], &mut leaves)?;
        self.expect_punct(';')?;
        Ok(UseDecl { leaves })
    }

    fn use_tree(&mut self, prefix: &[String], leaves: &mut Vec<UseLeaf>) -> PResult<()> {
        self.enter()?;
        let result = self.use_tree_inner(prefix, leaves);
        self.exit();
        result
    }

    fn use_tree_inner(&mut self, prefix: &[String], leaves: &mut Vec<UseLeaf>) -> PResult<()> {
        let mut local: Vec<String> = Vec::new();
        loop {
            if self.at_punct('{') {
                self.expect_punct('{')?;
                while !self.at_punct('}') {
                    let nested: Vec<String> = prefix.iter().chain(local.iter()).cloned().collect();
                    self.use_tree(&nested, leaves)?;
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.expect_punct('}')?;
                return Ok(());
            }
            if self.eat_punct('*') {
                let path: Vec<String> = prefix.iter().chain(local.iter()).cloned().collect();
                leaves.push(UseLeaf {
                    path,
                    alias: "*".to_string(),
                });
                return Ok(());
            }
            let seg = self.expect_ident()?;
            local.push(seg);
            if self.eat_path_sep() {
                continue;
            }
            // Leaf reached; optional rename.
            let alias = if self.eat_ident("as") {
                self.expect_ident()?
            } else {
                local.last().cloned().unwrap_or_default()
            };
            let path: Vec<String> = prefix.iter().chain(local.iter()).cloned().collect();
            leaves.push(UseLeaf { path, alias });
            return Ok(());
        }
    }

    fn const_def(&mut self) -> PResult<ConstDef> {
        // `const` or `static` (with optional `mut`).
        self.pos += 1;
        self.eat_ident("mut");
        let name = self.expect_ident()?;
        let ty = if self.eat_punct(':') {
            Some(self.type_ref()?)
        } else {
            None
        };
        let init = if self.eat_punct('=') {
            Some(self.expr(true)?)
        } else {
            None
        };
        self.expect_punct(';')?;
        Ok(ConstDef { name, ty, init })
    }

    // -- types --------------------------------------------------------------

    fn type_ref(&mut self) -> PResult<Type> {
        self.enter()?;
        let result = self.type_ref_inner();
        self.exit();
        result
    }

    fn type_ref_inner(&mut self) -> PResult<Type> {
        // Reference.
        if self.eat_punct('&') {
            // `&&T` double reference.
            while self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                self.pos += 1;
            }
            self.eat_ident("mut");
            let inner = self.type_ref()?;
            return Ok(Type {
                head: "&".to_string(),
                args: vec![inner],
            });
        }
        // Tuple or unit.
        if self.eat_punct('(') {
            let mut args = Vec::new();
            while !self.at_punct(')') {
                args.push(self.type_ref()?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
            return Ok(Type {
                head: "()".to_string(),
                args,
            });
        }
        // Slice or array.
        if self.eat_punct('[') {
            let inner = self.type_ref()?;
            if self.eat_punct(';') {
                self.expr(true)?;
            }
            self.expect_punct(']')?;
            return Ok(Type {
                head: "[]".to_string(),
                args: vec![inner],
            });
        }
        // Never.
        if self.eat_punct('!') {
            return Ok(Type::simple("!"));
        }
        // Raw pointer (not used by the workspace, tolerated).
        if self.eat_punct('*') {
            self.eat_ident("const");
            self.eat_ident("mut");
            let inner = self.type_ref()?;
            return Ok(Type {
                head: "*".to_string(),
                args: vec![inner],
            });
        }
        // `dyn Trait + …` / `impl Trait + …`.
        if self.at_ident("dyn") || self.at_ident("impl") {
            let head = self.expect_ident()?;
            let first = self.type_ref()?;
            let mut args = vec![first];
            while self.eat_punct('+') {
                if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.pos += 1;
                    continue;
                }
                args.push(self.type_ref()?);
            }
            return Ok(Type { head, args });
        }
        // Qualified path `<T as Trait>::Assoc`.
        if self.at_punct('<') {
            self.skip_generics()?;
            let mut last = String::from("<qualified>");
            while self.eat_path_sep() {
                last = self.expect_ident()?;
            }
            return Ok(Type::simple(&last));
        }
        if self.at_ident("_") {
            self.pos += 1;
            return Ok(Type::simple("_"));
        }
        // Path type: segments with optional generic args on the last.
        let mut segs: Vec<String> = Vec::new();
        let mut args: Vec<Type> = Vec::new();
        loop {
            let seg = self.expect_ident()?;
            segs.push(seg);
            // `Fn(...) -> R` sugar.
            if self.at_punct('(') {
                self.expect_punct('(')?;
                while !self.at_punct(')') {
                    args.push(self.type_ref()?);
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.expect_punct(')')?;
                if self.eat_punct2('-', '>') {
                    args.push(self.type_ref()?);
                }
                break;
            }
            // A generics opener — but not the `<` of `<=`, which follows a
            // cast used as a comparison operand (`x as f64 <= y`).
            if self.at_punct('<') && !self.at_punct2('<', '=') {
                self.expect_punct('<')?;
                while !self.at_punct('>') {
                    if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.pos += 1;
                    } else if self.peek(0).is_some_and(|t| {
                        matches!(t.kind, TokKind::Int | TokKind::Float | TokKind::Literal)
                    }) {
                        // Const-generic literal argument.
                        self.pos += 1;
                    } else if self.at_any_ident()
                        && self.peek(1).is_some_and(|t| t.is_punct('='))
                        && !self.peek(2).is_some_and(|t| t.is_punct('='))
                    {
                        // Associated type binding `Item = T`.
                        self.pos += 2;
                        args.push(self.type_ref()?);
                    } else {
                        args.push(self.type_ref()?);
                    }
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.expect_punct('>')?;
                // `Iterator<Item = T>::...`? — no further segments expected.
                break;
            }
            if self.at_path_sep() {
                self.eat_path_sep();
                continue;
            }
            break;
        }
        // Trailing `+ bounds` in contexts like `Box<dyn X + Send>` are
        // handled by the dyn/impl branch; a bare path followed by `+` can
        // appear in generic-bound positions we skip elsewhere.
        Ok(Type {
            head: segs.join("::"),
            args,
        })
    }

    // -- blocks & statements ------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        self.enter()?;
        let result = self.block_inner();
        self.exit();
        result
    }

    fn block_inner(&mut self) -> PResult<Block> {
        self.expect_punct('{')?;
        let mut stmts = Vec::new();
        loop {
            while self.eat_punct(';') {}
            if self.at_punct('}') {
                break;
            }
            if self.peek(0).is_none() {
                return self.err("unterminated block");
            }
            stmts.push(self.stmt()?);
        }
        self.expect_punct('}')?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        if self.at_ident("let") {
            return Ok(Stmt::Let(self.let_stmt()?));
        }
        // Nested items inside a function body.
        let item_start = self.at_punct('#')
            || self.at_ident("use")
            || self.at_ident("struct")
            || self.at_ident("enum")
            || self.at_ident("impl")
            || self.at_ident("trait")
            || (self.at_ident("fn") && self.peek(1).is_some_and(|t| t.kind == TokKind::Ident))
            || (self.at_ident("pub"))
            || (self.at_ident("const")
                && self
                    .peek(1)
                    .is_some_and(|t| t.kind == TokKind::Ident && !t.is_ident("_")))
            || (self.at_ident("static") && self.peek(1).is_some_and(|t| t.kind == TokKind::Ident))
            || (self.at_ident("mod") && self.peek(1).is_some_and(|t| t.kind == TokKind::Ident));
        if item_start {
            let item = self.item(false)?;
            return Ok(Stmt::Item(Box::new(item)));
        }
        // Rustc's statement rule: an expression statement that starts with a
        // block-like form (`{`, `if`, `match`, `for`, `while`, `loop`,
        // `unsafe`, labeled loop) is complete at its closing brace and never
        // continues into postfix or binary position.
        let block_like = self.at_punct('{')
            || self.at_ident("if")
            || self.at_ident("match")
            || self.at_ident("for")
            || self.at_ident("while")
            || self.at_ident("loop")
            || self.at_ident("unsafe")
            || self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime);
        if block_like {
            self.enter()?;
            let e = self.expr_primary(true);
            self.exit();
            let e = e?;
            let semi = self.eat_punct(';');
            return Ok(Stmt::Expr(e, semi));
        }
        let e = self.expr(true)?;
        let semi = self.eat_punct(';');
        Ok(Stmt::Expr(e, semi))
    }

    fn let_stmt(&mut self) -> PResult<LetStmt> {
        let line = self.line();
        self.expect_punct_ident("let")?;
        let pat = self.pattern(true)?;
        let ty = if self.eat_punct(':') {
            Some(self.type_ref()?)
        } else {
            None
        };
        let init = if self.at_punct('=') && !self.at_punct2('=', '=') {
            self.expect_punct('=')?;
            Some(self.expr(true)?)
        } else {
            None
        };
        let else_block = if self.eat_ident("else") {
            Some(self.block()?)
        } else {
            None
        };
        self.expect_punct(';')?;
        Ok(LetStmt {
            line,
            pat,
            ty,
            init,
            else_block,
        })
    }

    // -- expressions --------------------------------------------------------

    /// Full expression. `structs` permits struct-literal syntax (`Foo { … }`);
    /// it is disabled in scrutinee/condition/iterator positions.
    fn expr(&mut self, structs: bool) -> PResult<Expr> {
        self.enter()?;
        let result = self.expr_assign(structs);
        self.exit();
        result
    }

    fn expr_assign(&mut self, structs: bool) -> PResult<Expr> {
        let line = self.line();
        let lhs = self.expr_range(structs)?;
        if let Some(op) = self.assign_op() {
            let rhs = self.expr(structs)?;
            return Ok(Expr {
                line,
                kind: ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            });
        }
        Ok(lhs)
    }

    /// Recognise and consume an assignment operator at the cursor.
    fn assign_op(&mut self) -> Option<String> {
        // `=` but not `==` / `=>`.
        if self.at_punct('=')
            && !self
                .peek(1)
                .is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
        {
            self.pos += 1;
            return Some("=".to_string());
        }
        for c in ['+', '-', '*', '/', '%', '^'] {
            if self.at_punct2(c, '=') && !self.peek(2).is_some_and(|t| t.is_punct('=')) {
                self.pos += 2;
                return Some(format!("{c}="));
            }
        }
        // `&=` / `|=` — must not swallow `&&` / `||`.
        for c in ['&', '|'] {
            if self.at_punct2(c, '=') && !self.peek(2).is_some_and(|t| t.is_punct('=')) {
                self.pos += 2;
                return Some(format!("{c}="));
            }
        }
        if self.at_punct3('<', '<', '=') {
            self.pos += 3;
            return Some("<<=".to_string());
        }
        if self.at_punct3('>', '>', '=') {
            self.pos += 3;
            return Some(">>=".to_string());
        }
        None
    }

    fn expr_range(&mut self, structs: bool) -> PResult<Expr> {
        let line = self.line();
        // Prefix range: `..x`, `..=x`, `..`.
        if self.at_punct2('.', '.') {
            self.pos += 2;
            let incl = self.eat_punct('=');
            let hi = if self.expr_starts() {
                Some(Box::new(self.expr_binary(structs)?))
            } else {
                None
            };
            return Ok(Expr {
                line,
                kind: ExprKind::Range(None, hi, incl),
            });
        }
        let lo = self.expr_binary(structs)?;
        if self.at_punct2('.', '.') && !self.at_punct3('.', '.', '.') {
            self.pos += 2;
            let incl = self.eat_punct('=');
            let hi = if self.expr_starts() {
                Some(Box::new(self.expr_binary(structs)?))
            } else {
                None
            };
            return Ok(Expr {
                line,
                kind: ExprKind::Range(Some(Box::new(lo)), hi, incl),
            });
        }
        Ok(lo)
    }

    /// Does the cursor look like the start of an expression operand?
    fn expr_starts(&self) -> bool {
        match self.peek(0) {
            Some(t) => match t.kind {
                TokKind::Ident => !matches!(
                    t.text.as_str(),
                    "else" | "in" | "where" | "as" | "let" | "mut"
                ),
                TokKind::Int | TokKind::Float | TokKind::Literal => true,
                TokKind::Punct => {
                    matches!(
                        t.text.as_bytes().first(),
                        Some(b'(' | b'[' | b'{' | b'!' | b'-' | b'*' | b'&' | b'|')
                    )
                }
                _ => false,
            },
            None => false,
        }
    }

    /// One flat precedence level for all binary operators — the structural
    /// rules need operand discovery, not arithmetic grouping.
    fn expr_binary(&mut self, structs: bool) -> PResult<Expr> {
        let mut lhs = self.expr_unary(structs)?;
        loop {
            let line = self.line();
            if self.eat_ident("as") {
                let ty = self.type_ref()?;
                lhs = Expr {
                    line,
                    kind: ExprKind::Cast(Box::new(lhs), ty),
                };
                continue;
            }
            let Some(op) = self.binary_op() else {
                return Ok(lhs);
            };
            let rhs = self.expr_unary(structs)?;
            lhs = Expr {
                line,
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
            };
        }
    }

    fn binary_op(&mut self) -> Option<String> {
        // Two-char operators first (never followed by `=` — that would be
        // a compound assignment, handled one level up).
        let two: &[(char, char, &str)] = &[
            ('&', '&', "&&"),
            ('|', '|', "||"),
            ('=', '=', "=="),
            ('!', '=', "!="),
            ('<', '=', "<="),
            ('>', '=', ">="),
            ('<', '<', "<<"),
            ('>', '>', ">>"),
        ];
        for &(a, b, s) in two {
            if self.at_punct2(a, b) {
                // `<<=` / `>>=` are assignments.
                if (s == "<<" || s == ">>") && self.peek(2).is_some_and(|t| t.is_punct('=')) {
                    return None;
                }
                self.pos += 2;
                return Some(s.to_string());
            }
        }
        let one: &[char] = &['+', '-', '*', '/', '%', '^', '&', '|', '<', '>'];
        for &c in one {
            if self.at_punct(c) {
                // Not if it's a compound assignment (`+=`) — one level up.
                if self.peek(1).is_some_and(|t| t.is_punct('=')) {
                    return None;
                }
                self.pos += 1;
                return Some(c.to_string());
            }
        }
        None
    }

    fn expr_unary(&mut self, structs: bool) -> PResult<Expr> {
        self.enter()?;
        let result = self.expr_unary_inner(structs);
        self.exit();
        result
    }

    fn expr_unary_inner(&mut self, structs: bool) -> PResult<Expr> {
        let line = self.line();
        if self.at_punct('&') {
            // `&&x` — two nested refs.
            let double = self.at_punct2('&', '&');
            self.pos += if double { 2 } else { 1 };
            let mutable = self.eat_ident("mut");
            let inner = self.expr_unary(structs)?;
            let e = Expr {
                line,
                kind: ExprKind::Ref(mutable, Box::new(inner)),
            };
            if double {
                return Ok(Expr {
                    line,
                    kind: ExprKind::Ref(false, Box::new(e)),
                });
            }
            return Ok(e);
        }
        for (c, name) in [('!', "!"), ('-', "-"), ('*', "*")] {
            if self.at_punct(c) {
                self.pos += 1;
                let inner = self.expr_unary(structs)?;
                return Ok(Expr {
                    line,
                    kind: ExprKind::Unary(name.to_string(), Box::new(inner)),
                });
            }
        }
        self.expr_postfix(structs)
    }

    fn expr_postfix(&mut self, structs: bool) -> PResult<Expr> {
        let mut e = self.expr_primary(structs)?;
        loop {
            let line = self.line();
            if self.at_punct('.') && !self.at_punct2('.', '.') {
                self.pos += 1;
                // Tuple field: `.0`, possibly `.0.1` lexed as a float.
                if let Some(t) = self.peek(0) {
                    if t.kind == TokKind::Int {
                        let name = t.text.clone();
                        self.pos += 1;
                        e = Expr {
                            line,
                            kind: ExprKind::Field(Box::new(e), name),
                        };
                        continue;
                    }
                    if t.kind == TokKind::Float {
                        // `x.0.1` — split the float into two projections.
                        let parts: Vec<String> = t.text.split('.').map(|s| s.to_string()).collect();
                        self.pos += 1;
                        for p in parts {
                            e = Expr {
                                line,
                                kind: ExprKind::Field(Box::new(e), p),
                            };
                        }
                        continue;
                    }
                }
                let name = self.expect_ident()?;
                // Turbofish on a method: `.sum::<f64>()`.
                if self.at_path_sep() && self.peek(2).is_some_and(|t| t.is_punct('<')) {
                    self.eat_path_sep();
                    self.skip_generics()?;
                }
                if self.at_punct('(') {
                    let args = self.call_args()?;
                    e = Expr {
                        line,
                        kind: ExprKind::MethodCall(Box::new(e), name, args),
                    };
                } else {
                    e = Expr {
                        line,
                        kind: ExprKind::Field(Box::new(e), name),
                    };
                }
                continue;
            }
            if self.at_punct('(') {
                let args = self.call_args()?;
                e = Expr {
                    line,
                    kind: ExprKind::Call(Box::new(e), args),
                };
                continue;
            }
            if self.at_punct('[') {
                self.expect_punct('[')?;
                let idx = self.expr(true)?;
                self.expect_punct(']')?;
                e = Expr {
                    line,
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                };
                continue;
            }
            if self.at_punct('?') {
                self.pos += 1;
                e = Expr {
                    line,
                    kind: ExprKind::Try(Box::new(e)),
                };
                continue;
            }
            return Ok(e);
        }
    }

    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect_punct('(')?;
        let mut args = Vec::new();
        while !self.at_punct(')') {
            args.push(self.expr(true)?);
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        Ok(args)
    }

    fn expr_primary(&mut self, structs: bool) -> PResult<Expr> {
        let line = self.line();
        let Some(t) = self.peek(0) else {
            return self.err("expected expression");
        };
        // Literals.
        if matches!(t.kind, TokKind::Int | TokKind::Float | TokKind::Literal) {
            let text = t.text.clone();
            self.pos += 1;
            return Ok(Expr {
                line,
                kind: ExprKind::Lit(text),
            });
        }
        if t.kind == TokKind::Lifetime {
            // Loop label `'outer: loop { … }` — consume label and colon.
            self.pos += 1;
            self.eat_punct(':');
            return self.expr_primary(structs);
        }
        // Parenthesised / tuple.
        if self.at_punct('(') {
            self.expect_punct('(')?;
            if self.eat_punct(')') {
                return Ok(Expr {
                    line,
                    kind: ExprKind::Tuple(Vec::new()),
                });
            }
            let first = self.expr(true)?;
            if self.eat_punct(',') {
                let mut items = vec![first];
                while !self.at_punct(')') {
                    items.push(self.expr(true)?);
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.expect_punct(')')?;
                return Ok(Expr {
                    line,
                    kind: ExprKind::Tuple(items),
                });
            }
            self.expect_punct(')')?;
            return Ok(first);
        }
        // Array / repeat.
        if self.at_punct('[') {
            self.expect_punct('[')?;
            if self.eat_punct(']') {
                return Ok(Expr {
                    line,
                    kind: ExprKind::Array(Vec::new()),
                });
            }
            let first = self.expr(true)?;
            if self.eat_punct(';') {
                let len = self.expr(true)?;
                self.expect_punct(']')?;
                return Ok(Expr {
                    line,
                    kind: ExprKind::Repeat(Box::new(first), Box::new(len)),
                });
            }
            let mut items = vec![first];
            while self.eat_punct(',') {
                if self.at_punct(']') {
                    break;
                }
                items.push(self.expr(true)?);
            }
            self.expect_punct(']')?;
            return Ok(Expr {
                line,
                kind: ExprKind::Array(items),
            });
        }
        // Block expression.
        if self.at_punct('{') {
            let b = self.block()?;
            return Ok(Expr {
                line,
                kind: ExprKind::Block(b),
            });
        }
        // Closures.
        if self.at_punct('|') || self.at_punct2('|', '|') || self.at_ident("move") {
            return self.closure(line);
        }
        // Keyword expressions.
        if self.at_ident("if") {
            return self.if_expr(line);
        }
        if self.at_ident("match") {
            return self.match_expr(line);
        }
        if self.at_ident("for") {
            self.pos += 1;
            let pat = self.pattern(true)?;
            self.expect_punct_ident("in")?;
            let iter = self.expr(false)?;
            let body = self.block()?;
            return Ok(Expr {
                line,
                kind: ExprKind::For(pat, Box::new(iter), body),
            });
        }
        if self.at_ident("while") {
            self.pos += 1;
            if self.eat_ident("let") {
                let pat = self.pattern(true)?;
                self.expect_punct('=')?;
                let scrut = self.expr(false)?;
                let body = self.block()?;
                return Ok(Expr {
                    line,
                    kind: ExprKind::WhileLet(pat, Box::new(scrut), body),
                });
            }
            let cond = self.expr(false)?;
            let body = self.block()?;
            return Ok(Expr {
                line,
                kind: ExprKind::While(Box::new(cond), body),
            });
        }
        if self.at_ident("loop") {
            self.pos += 1;
            let body = self.block()?;
            return Ok(Expr {
                line,
                kind: ExprKind::Loop(body),
            });
        }
        if self.at_ident("return") {
            self.pos += 1;
            let val = if self.expr_starts() {
                Some(Box::new(self.expr(structs)?))
            } else {
                None
            };
            return Ok(Expr {
                line,
                kind: ExprKind::Return(val),
            });
        }
        if self.at_ident("break") {
            self.pos += 1;
            // Optional label and value.
            if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                self.pos += 1;
            }
            if self.expr_starts() {
                self.expr(structs)?;
            }
            return Ok(Expr {
                line,
                kind: ExprKind::Break,
            });
        }
        if self.at_ident("continue") {
            self.pos += 1;
            if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                self.pos += 1;
            }
            return Ok(Expr {
                line,
                kind: ExprKind::Continue,
            });
        }
        if self.at_ident("unsafe") {
            self.pos += 1;
            let b = self.block()?;
            return Ok(Expr {
                line,
                kind: ExprKind::Block(b),
            });
        }
        // Qualified path `<T as Trait>::method(…)`.
        if self.at_punct('<') {
            self.skip_generics()?;
            let mut segs = vec!["<qualified>".to_string()];
            while self.eat_path_sep() {
                segs.push(self.expect_ident()?);
                if self.at_punct('<') && !self.at_path_sep() {
                    // Rare: generic args directly — skip.
                    self.skip_generics()?;
                }
            }
            return Ok(Expr {
                line,
                kind: ExprKind::Path(segs),
            });
        }
        // Path-rooted: path, macro, or struct literal.
        if self.at_any_ident() {
            let segs = self.path_segments()?;
            // Macro invocation.
            if self.at_punct('!') && !self.at_punct2('!', '=') {
                self.pos += 1;
                let args = self.macro_args()?;
                return Ok(Expr {
                    line,
                    kind: ExprKind::Macro(segs, args),
                });
            }
            // Struct literal.
            if structs && self.at_punct('{') && self.looks_like_struct_lit() {
                return self.struct_lit(line, segs);
            }
            return Ok(Expr {
                line,
                kind: ExprKind::Path(segs),
            });
        }
        self.err("expected expression")
    }

    /// Path segments with turbofish skipping: `a::b::<T>::c`.
    fn path_segments(&mut self) -> PResult<Vec<String>> {
        let mut segs = vec![self.expect_ident()?];
        while self.at_path_sep() {
            if self.peek(2).is_some_and(|t| t.is_punct('<')) {
                self.eat_path_sep();
                self.skip_generics()?;
                continue;
            }
            self.eat_path_sep();
            segs.push(self.expect_ident()?);
        }
        Ok(segs)
    }

    /// Peek past `{` to decide between a struct literal and a trailing
    /// block: `Foo { a: 1 }` / `Foo { a }` / `Foo { ..base }` / `Foo {}`.
    fn looks_like_struct_lit(&self) -> bool {
        let Some(t1) = self.peek(1) else { return false };
        if t1.is_punct('}') {
            return true;
        }
        if t1.is_punct('.') {
            return self.peek(2).is_some_and(|t| t.is_punct('.'));
        }
        if t1.kind == TokKind::Ident {
            return self
                .peek(2)
                .is_some_and(|t| t.is_punct(':') || t.is_punct(',') || t.is_punct('}'));
        }
        false
    }

    fn struct_lit(&mut self, line: u32, path: Vec<String>) -> PResult<Expr> {
        self.expect_punct('{')?;
        let mut fields = Vec::new();
        let mut base = None;
        while !self.at_punct('}') {
            if self.at_punct2('.', '.') {
                self.pos += 2;
                base = Some(Box::new(self.expr(true)?));
                break;
            }
            let name = self.expect_ident()?;
            let value = if self.eat_punct(':') {
                self.expr(true)?
            } else {
                // Shorthand `Foo { a }`.
                Expr {
                    line: self.line(),
                    kind: ExprKind::Path(vec![name.clone()]),
                }
            };
            fields.push((name, value));
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct('}')?;
        Ok(Expr {
            line,
            kind: ExprKind::StructLit(path, fields, base),
        })
    }

    fn closure(&mut self, line: u32) -> PResult<Expr> {
        self.eat_ident("move");
        let mut params = Vec::new();
        if self.at_punct2('|', '|') {
            self.pos += 2;
        } else {
            self.expect_punct('|')?;
            while !self.at_punct('|') {
                // `pattern_single`, not `pattern`: the closing `|` of the
                // parameter list must not read as an or-pattern separator.
                let pat = self.pattern_single()?;
                pat.bound_names(&mut params);
                if self.eat_punct(':') {
                    self.type_ref()?;
                }
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct('|')?;
        }
        // Optional return type forces a block body.
        if self.eat_punct2('-', '>') {
            self.type_ref()?;
            let b = self.block()?;
            return Ok(Expr {
                line,
                kind: ExprKind::Closure(
                    params,
                    Box::new(Expr {
                        line,
                        kind: ExprKind::Block(b),
                    }),
                ),
            });
        }
        let body = self.expr(true)?;
        Ok(Expr {
            line,
            kind: ExprKind::Closure(params, Box::new(body)),
        })
    }

    fn if_expr(&mut self, line: u32) -> PResult<Expr> {
        self.expect_punct_ident("if")?;
        if self.eat_ident("let") {
            let pat = self.pattern(true)?;
            self.expect_punct('=')?;
            let scrut = self.expr(false)?;
            let then = self.block()?;
            let els = self.else_tail()?;
            return Ok(Expr {
                line,
                kind: ExprKind::IfLet(pat, Box::new(scrut), then, els),
            });
        }
        let cond = self.expr(false)?;
        let then = self.block()?;
        let els = self.else_tail()?;
        Ok(Expr {
            line,
            kind: ExprKind::If(Box::new(cond), then, els),
        })
    }

    fn else_tail(&mut self) -> PResult<Option<Box<Expr>>> {
        if !self.eat_ident("else") {
            return Ok(None);
        }
        let line = self.line();
        if self.at_ident("if") {
            return Ok(Some(Box::new(self.if_expr(line)?)));
        }
        let b = self.block()?;
        Ok(Some(Box::new(Expr {
            line,
            kind: ExprKind::Block(b),
        })))
    }

    fn match_expr(&mut self, line: u32) -> PResult<Expr> {
        self.expect_punct_ident("match")?;
        let scrut = self.expr(false)?;
        self.expect_punct('{')?;
        let mut arms = Vec::new();
        while !self.at_punct('}') {
            if self.peek(0).is_none() {
                return self.err("unterminated match block");
            }
            self.attrs()?;
            let arm_line = self.line();
            self.eat_punct('|');
            let mut pats = vec![self.pattern(false)?];
            while self.at_punct('|') && !self.at_punct2('|', '|') {
                self.pos += 1;
                pats.push(self.pattern(false)?);
            }
            let guard = if self.eat_ident("if") {
                Some(self.expr(true)?)
            } else {
                None
            };
            if !self.eat_punct2('=', '>') {
                return self.err("expected `=>` in match arm");
            }
            // A `{ … }` arm body terminates at its closing brace (rustc's
            // rule) — it must not continue as a postfix/binary operand, or
            // the next arm's `(pat, pat)` reads as a call on the block.
            let body = if self.at_punct('{') {
                let body_line = self.line();
                let b = self.block()?;
                Expr {
                    line: body_line,
                    kind: ExprKind::Block(b),
                }
            } else {
                self.expr(true)?
            };
            self.eat_punct(',');
            arms.push(Arm {
                line: arm_line,
                pats,
                guard,
                body,
            });
        }
        self.expect_punct('}')?;
        Ok(Expr {
            line,
            kind: ExprKind::Match(Box::new(scrut), arms),
        })
    }

    /// Macro arguments: parse the delimited body as comma-separated
    /// expressions, best effort — an argument that fails to parse (a
    /// pattern in `matches!`, the `;` form of `vec!`) is skipped up to the
    /// next top-level comma rather than failing the file.
    fn macro_args(&mut self) -> PResult<Vec<Expr>> {
        let (open, close) = match self.peek(0) {
            Some(t) if t.is_punct('(') => ('(', ')'),
            Some(t) if t.is_punct('[') => ('[', ']'),
            Some(t) if t.is_punct('{') => ('{', '}'),
            _ => return Ok(Vec::new()),
        };
        // Find the matching close delimiter.
        let start = self.pos;
        let mut depth = 0i64;
        let mut end = self.pos;
        loop {
            let Some(t) = self.toks.get(end) else {
                self.pos = end;
                return self.err("unterminated macro invocation");
            };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        let _ = (open, close);
        let inner_start = start + 1;
        let mut args = Vec::new();
        let mut cursor = inner_start;
        while cursor < end {
            // Attempt to parse one expression starting at `cursor`.
            let mut sub = Parser {
                toks: self
                    .toks
                    .get(cursor..end)
                    .map(|s| s.to_vec())
                    .unwrap_or_default(),
                pos: 0,
                depth: self.depth,
            };
            let parsed = sub.expr(true);
            let consumed = sub.pos.max(1);
            match parsed {
                Ok(e) => {
                    args.push(e);
                    cursor += consumed;
                    // Expect a comma or the end; anything else (e.g. `;` in
                    // `vec![x; n]`) skips to the next top-level comma.
                    if self.toks.get(cursor).is_some_and(|t| t.is_punct(',')) {
                        cursor += 1;
                    } else if cursor < end {
                        cursor = self.skip_to_comma(cursor, end);
                    }
                }
                Err(_) => {
                    cursor = self.skip_to_comma(cursor, end);
                }
            }
        }
        self.pos = end + 1;
        Ok(args)
    }

    /// Advance from `from` to just past the next top-level comma before
    /// `end`, or to `end`.
    fn skip_to_comma(&self, from: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut i = from;
        while i < end {
            let Some(t) = self.toks.get(i) else {
                return end;
            };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(',') && depth == 0 {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    // -- patterns -----------------------------------------------------------

    fn pattern(&mut self, top: bool) -> PResult<Pat> {
        self.enter()?;
        let result = self.pattern_inner(top);
        self.exit();
        result
    }

    fn pattern_inner(&mut self, _top: bool) -> PResult<Pat> {
        let first = self.pattern_single()?;
        if !self.at_punct('|') || self.at_punct2('|', '|') {
            return Ok(first);
        }
        let line = first.line;
        let mut alts = vec![first];
        while self.at_punct('|') && !self.at_punct2('|', '|') {
            self.pos += 1;
            alts.push(self.pattern_single()?);
        }
        Ok(Pat {
            line,
            kind: PatKind::Or(alts),
        })
    }

    fn pattern_single(&mut self) -> PResult<Pat> {
        let line = self.line();
        let Some(t) = self.peek(0) else {
            return self.err("expected pattern");
        };
        // `..` rest.
        if self.at_punct2('.', '.') {
            self.pos += 2;
            self.eat_punct('=');
            // `..=end` range with no start — consume the bound.
            if self.expr_starts() {
                self.pattern_single()?;
                return Ok(Pat {
                    line,
                    kind: PatKind::Range,
                });
            }
            return Ok(Pat {
                line,
                kind: PatKind::Rest,
            });
        }
        // Reference patterns.
        if self.at_punct('&') {
            let double = self.at_punct2('&', '&');
            self.pos += if double { 2 } else { 1 };
            self.eat_ident("mut");
            let inner = self.pattern_single()?;
            let p = Pat {
                line,
                kind: PatKind::Ref(Box::new(inner)),
            };
            if double {
                return Ok(Pat {
                    line,
                    kind: PatKind::Ref(Box::new(p)),
                });
            }
            return Ok(p);
        }
        // Literals (including negative numbers).
        if matches!(t.kind, TokKind::Int | TokKind::Float | TokKind::Literal) || self.at_punct('-')
        {
            let mut text = String::new();
            if self.eat_punct('-') {
                text.push('-');
            }
            if let Some(t) = self.peek(0) {
                if matches!(t.kind, TokKind::Int | TokKind::Float | TokKind::Literal) {
                    text.push_str(&t.text);
                    self.pos += 1;
                } else {
                    return self.err("expected literal pattern");
                }
            }
            // Range pattern `0..=9`.
            if self.at_punct2('.', '.') {
                self.pos += 2;
                self.eat_punct('=');
                if self.expr_starts() {
                    self.pattern_single()?;
                }
                return Ok(Pat {
                    line,
                    kind: PatKind::Range,
                });
            }
            return Ok(Pat {
                line,
                kind: PatKind::Lit(text),
            });
        }
        // Tuple pattern.
        if self.at_punct('(') {
            self.expect_punct('(')?;
            let mut pats = Vec::new();
            while !self.at_punct(')') {
                pats.push(self.pattern(false)?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
            if pats.len() == 1 {
                return pats
                    .pop()
                    .map_or_else(|| self.err("empty tuple pattern"), Ok);
            }
            return Ok(Pat {
                line,
                kind: PatKind::Tuple(pats),
            });
        }
        // Slice pattern.
        if self.at_punct('[') {
            self.expect_punct('[')?;
            let mut pats = Vec::new();
            while !self.at_punct(']') {
                pats.push(self.pattern(false)?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(']')?;
            return Ok(Pat {
                line,
                kind: PatKind::Slice(pats),
            });
        }
        // `ref` / `mut` binding prefixes.
        if self.at_ident("ref") || self.at_ident("mut") {
            self.pos += 1;
            self.eat_ident("mut");
            let name = self.expect_ident()?;
            return Ok(Pat {
                line,
                kind: PatKind::Ident(name),
            });
        }
        if self.at_ident("_") {
            self.pos += 1;
            return Ok(Pat {
                line,
                kind: PatKind::Wild,
            });
        }
        if !self.at_any_ident() {
            return self.err("expected pattern");
        }
        // Path-rooted pattern.
        let segs = self.path_segments()?;
        // `name @ pat`.
        if segs.len() == 1 && self.at_punct('@') {
            self.pos += 1;
            let sub = self.pattern_single()?;
            let name = segs.into_iter().next().unwrap_or_default();
            return Ok(Pat {
                line,
                kind: PatKind::Bind(name, Box::new(sub)),
            });
        }
        if self.at_punct('(') {
            self.expect_punct('(')?;
            let mut pats = Vec::new();
            while !self.at_punct(')') {
                pats.push(self.pattern(false)?);
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
            return Ok(Pat {
                line,
                kind: PatKind::TupleStruct(segs, pats),
            });
        }
        if self.at_punct('{') {
            self.expect_punct('{')?;
            let mut fields = Vec::new();
            let mut rest = false;
            while !self.at_punct('}') {
                if self.at_punct2('.', '.') {
                    self.pos += 2;
                    rest = true;
                    break;
                }
                self.eat_ident("ref");
                self.eat_ident("mut");
                let fname = self.expect_ident()?;
                let sub = if self.eat_punct(':') {
                    self.pattern(false)?
                } else {
                    Pat {
                        line: self.line(),
                        kind: PatKind::Ident(fname.clone()),
                    }
                };
                fields.push((fname, sub));
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct('}')?;
            return Ok(Pat {
                line,
                kind: PatKind::Struct(segs, fields, rest),
            });
        }
        // Single segment: binding (lowercase) vs unit path (uppercase, by
        // Rust naming convention — the parser has no name resolution).
        if segs.len() == 1 {
            let name = segs.into_iter().next().unwrap_or_default();
            let uppercase = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if uppercase {
                return Ok(Pat {
                    line,
                    kind: PatKind::Path(vec![name]),
                });
            }
            return Ok(Pat {
                line,
                kind: PatKind::Ident(name),
            });
        }
        Ok(Pat {
            line,
            kind: PatKind::Path(segs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> File {
        parse_file(&tokenize(src).expect("lexes")).expect("parses")
    }

    #[test]
    fn fn_with_params_and_body() {
        let f = parse("pub fn add(a: u32, b: u32) -> u32 { a + b }");
        assert_eq!(f.items.len(), 1);
        let Item { vis, kind, .. } = &f.items[0];
        assert_eq!(*vis, Vis::Pub);
        let ItemKind::Fn(d) = kind else {
            panic!("not a fn")
        };
        assert_eq!(d.name, "add");
        assert_eq!(d.params.len(), 2);
        assert!(d.ret.is_some());
    }

    #[test]
    fn impl_with_methods_and_self_types() {
        let f = parse(
            "impl Matrix { pub fn get(&self, r: usize) -> f32 { self.data[r] } }\n\
             impl Clone for Matrix { fn clone(&self) -> Self { todo!() } }",
        );
        let ItemKind::Impl(i) = &f.items[0].kind else {
            panic!("not impl")
        };
        assert_eq!(i.self_ty.head, "Matrix");
        assert!(i.trait_name.is_none());
        let ItemKind::Impl(i2) = &f.items[1].kind else {
            panic!("not impl")
        };
        assert_eq!(i2.trait_name.as_deref(), Some("Clone"));
    }

    #[test]
    fn use_tree_flattens() {
        let f = parse("use std::collections::{BTreeMap, HashMap as Map};");
        let ItemKind::Use(u) = &f.items[0].kind else {
            panic!("not use")
        };
        assert_eq!(u.leaves.len(), 2);
        assert_eq!(u.leaves[1].alias, "Map");
        assert_eq!(u.leaves[1].path, vec!["std", "collections", "HashMap"]);
    }

    #[test]
    fn match_arms_and_patterns() {
        let f = parse(
            "fn f(a: Action) -> u32 { match a { Action::Partition(x) => x.0 as u32, \
             Action::Replicate { table, .. } => 0, _ => 1 } }",
        );
        let ItemKind::Fn(d) = &f.items[0].kind else {
            panic!("not fn")
        };
        let body = d.body.as_ref().expect("has body");
        let Some(Stmt::Expr(e, _)) = body.stmts.first() else {
            panic!("no tail")
        };
        let ExprKind::Match(_, arms) = &e.kind else {
            panic!("not match")
        };
        assert_eq!(arms.len(), 3);
        assert!(matches!(arms[2].pats[0].kind, PatKind::Wild));
    }

    #[test]
    fn closures_let_else_turbofish() {
        parse(
            "fn g(v: &[f32]) -> f32 {\n\
               let Some(first) = v.first() else { return 0.0; };\n\
               let s = v.iter().map(|x| x * 2.0).sum::<f32>();\n\
               s + *first\n\
             }",
        );
    }

    #[test]
    fn struct_literals_and_ranges() {
        parse(
            "fn h() -> Config { let c = Config { seed: 1, ..Config::default() };\n\
             for i in 0..10 { let _ = i; } c }",
        );
    }

    #[test]
    fn cfg_test_marks_items() {
        let f = parse("#[cfg(test)] mod tests { fn helper() {} }");
        assert!(f.items[0].is_test);
        let ItemKind::Mod(ModDecl::Inline(_, items)) = &f.items[0].kind else {
            panic!("not mod")
        };
        assert!(items[0].is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let f = parse("#[cfg(not(test))] fn live() {}");
        assert!(!f.items[0].is_test);
    }

    #[test]
    fn macro_args_best_effort() {
        let f = parse("fn m(x: u32) { assert!(x < 3, \"boom {}\", x); let v = vec![x; 4]; }");
        let ItemKind::Fn(d) = &f.items[0].kind else {
            panic!("not fn")
        };
        let body = d.body.as_ref().expect("body");
        let Some(Stmt::Expr(e, _)) = body.stmts.first() else {
            panic!("no stmt")
        };
        let ExprKind::Macro(name, args) = &e.kind else {
            panic!("not macro")
        };
        assert_eq!(name, &vec!["assert".to_string()]);
        // Comparison argument survives — guard analysis depends on it.
        assert!(args
            .iter()
            .any(|a| matches!(&a.kind, ExprKind::Binary(op, _, _) if op == "<")));
    }

    #[test]
    fn never_type_and_dyn() {
        parse("fn e() -> Box<dyn Fn(usize) -> f64 + Send> { unreachable!() }");
    }

    #[test]
    fn deep_nesting_errors_not_panics() {
        let mut src = String::from("fn d() { let x = ");
        for _ in 0..500 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..500 {
            src.push(')');
        }
        src.push_str("; }");
        let toks = tokenize(&src).expect("lexes");
        assert!(parse_file(&toks).is_err());
    }
}
