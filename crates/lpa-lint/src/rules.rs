//! The project-specific rules clippy cannot express, as token scans.
//!
//! Each rule exists because a violation can silently corrupt the advisor's
//! training signal (see DESIGN.md "Static analysis & invariants" for the
//! paper-level rationale and the full table). The panic, catch-all,
//! raw-write, thread and wall-clock rules (L001, L003, L004, L006, L008,
//! L009 and L007's catch-all arms) are clippy lints, denied by one line at
//! every library root ([`DENY_LINE`]) with the banned methods listed in the
//! root `clippy.toml`; clippy resolves names by type, so no alias escapes
//! them. What stays here either has a per-file scope or names a project
//! type. Every rule skips test code: a `#[cfg(test)]` / `#[test]` item, but
//! never `#[cfg(not(test))]`.
//!
//! - **L002** — no `HashMap` / `HashSet` in encoder, reward,
//!   cost-accounting, weight-update or checkpoint-codec paths: hash
//!   iteration order is nondeterministic across runs and leaks into
//!   encodings, rewards, weights and checkpoint bytes.
//! - **L005** — no raw `f32` accumulation in reward/cost sums: summing many
//!   small costs in `f32` loses precision; accumulate in `f64`.
//! - **L007** — no refutable `let` over `QueryOutcome` (`if let`,
//!   `while let`, `let … else`), and no `QueryOutcome as` rename that
//!   would hide one: every `Failed` query must be *seen* — counted,
//!   retried, or replaced by the cost-model fallback — never silently
//!   dropped from the reward. (Catch-all match arms are clippy's.)
//! - **L013** — no allocation in the allocation-free hot paths (the
//!   columnar executor's per-window functions, the delta encoder, the DQN
//!   train step, the monitor's memo-hit path), where it creeps back
//!   silently because the code still passes every correctness test.
//! - **L015** — no direct `Cluster::deploy` outside the guardrail module: a
//!   bare `.deploy(…)` changes a production layout without canary, rollback,
//!   budget or journal.
//! - **L016** — the clippy half stays switched on: every library root
//!   carries [`DENY_LINE`], `clippy.toml` bans every method in
//!   [`BANNED_METHODS`], and an exemption from a denied lint is an
//!   item-level `#[expect(clippy::…, reason = "…")]` — never `allow`
//!   (which cannot go stale), never crate- or module-level, never without
//!   a reason.

use crate::lexer::{Tok, TokKind};

/// A single finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Rule id: "L002", "L005", "L007", "L013", "L015", "L016", or "W000"
    /// for a file that cannot be read or lexed.
    pub rule: &'static str,
    pub rel_path: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.rel_path, self.line, self.rule, self.message
        )
    }
}

/// The line every library root carries: outside `cfg(test)`, the clippy
/// lints that enforce the panic (L001, L009), catch-all (L004, L007),
/// raw-write (L008), thread (L006) and wall-clock (L003) rules are errors.
/// `wildcard_enum_match_arm` skips a `_` that stands for exactly one
/// variant, so `match_wildcard_for_single_variants` rides along. Compared with whitespace removed, so rustfmt's layout of it
/// does not matter.
pub const DENY_LINE: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::indexing_slicing, clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants, clippy::disallowed_methods))]";

/// The lints [`DENY_LINE`] denies, which library code may only `expect`.
pub const DENIED_LINTS: [&str; 8] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "indexing_slicing",
    "wildcard_enum_match_arm",
    "match_wildcard_for_single_variants",
    "disallowed_methods",
];

/// The methods the root `clippy.toml` must ban: wall-clock reads (L003),
/// direct threads (L006) and raw durable writes (L008).
pub const BANNED_METHODS: [&str; 10] = [
    "std::time::Instant::now",
    "std::time::Instant::elapsed",
    "std::time::SystemTime::now",
    "std::time::SystemTime::elapsed",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::new",
    "std::fs::write",
    "std::fs::rename",
    "std::fs::File::create",
];

/// Paths (relative, `/`-separated, substring match) whose code feeds state
/// encodings, rewards, or cost accounting — the determinism-critical set,
/// L005's scope. `lpa-nn` is outside it: the network sums in `f32` by
/// design.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/lpa-costmodel/src/",
    "crates/lpa-partition/src/encoder.rs",
    "crates/lpa-partition/src/fingerprint.rs",
    "crates/lpa-advisor/src/accounting.rs",
    "crates/lpa-advisor/src/cache.rs",
    "crates/lpa-advisor/src/delta.rs",
    "crates/lpa-advisor/src/env.rs",
    "crates/lpa-rl/src/",
];

/// Where hash collections must never appear (L002) beyond the
/// determinism-critical set: the network's weights and the checkpoint codec.
const WEIGHT_AND_CODEC_SCOPE: &[&str] = &[
    "crates/lpa-nn/src/",
    "crates/lpa-store/src/codec.rs",
    "crates/lpa-store/src/snapshot.rs",
];

fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| rel_path.contains(s))
}

fn is_punct_at(tokens: &[Tok], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

fn is_ident_at(tokens: &[Tok], i: usize, s: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_ident(s))
}

/// `::` at `i` (the lexer splits it into two `:` puncts).
fn is_path_sep_at(tokens: &[Tok], i: usize) -> bool {
    is_punct_at(tokens, i, ':') && is_punct_at(tokens, i + 1, ':')
}

/// Whether an attribute's tokens mark test code: `#[test]`, `#[bench]`,
/// or any `cfg` naming `test` without `not` (`#[cfg(test)]`,
/// `#[cfg(all(test, feature = "x"))]`). `#[cfg(not(test))]` is the code
/// that ships, so it is never a test region.
pub fn attr_marks_test(attr: &[Tok]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    let has = |s: &str| idents.contains(&s);
    matches!(idents.as_slice(), ["test" | "bench"]) || (has("cfg") && has("test") && !has("not"))
}

/// Marks which tokens sit inside test regions — the body of an item whose
/// attribute marks it as test code ([`attr_marks_test`]), where
/// panicking is fine because a failing test is loud.
pub fn test_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth = 0i32;
    // Stack of depths at which a test region opened.
    let mut test_stack: Vec<i32> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0;
    while let Some(t) = tokens.get(i) {
        if t.is_punct('#') {
            if let Some(end) = attr_extent(tokens, i) {
                if attr_marks_test(tokens.get(i..=end).unwrap_or_default()) {
                    pending_attr = true;
                }
                for slot in in_test.iter_mut().take(end + 1).skip(i) {
                    *slot = !test_stack.is_empty();
                }
                i = end + 1;
                continue;
            }
        } else if t.is_punct('{') {
            depth += 1;
            if pending_attr {
                test_stack.push(depth);
                pending_attr = false;
            }
        } else if t.is_punct('}') {
            if test_stack.last() == Some(&depth) {
                test_stack.pop();
                // The closing brace itself still belongs to the region.
                if let Some(slot) = in_test.get_mut(i) {
                    *slot = true;
                }
                depth -= 1;
                i += 1;
                continue;
            }
            depth -= 1;
        } else if t.is_punct(';') {
            // `#[cfg(test)] use …;` — attribute consumed by a non-block item.
            pending_attr = false;
        }
        if let Some(slot) = in_test.get_mut(i) {
            *slot = !test_stack.is_empty();
        }
        i += 1;
    }
    in_test
}

/// Token index of the closing `]` of an attribute starting at `#`, if any.
fn attr_extent(tokens: &[Tok], hash_idx: usize) -> Option<usize> {
    if !is_punct_at(tokens, hash_idx, '#') {
        return None;
    }
    // Allow `#![...]` inner attributes.
    let open = hash_idx + 1 + usize::from(is_punct_at(tokens, hash_idx + 1, '!'));
    if !is_punct_at(tokens, open, '[') {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn diag(rule: &'static str, rel_path: &str, line: u32, message: impl Into<String>) -> Diagnostic {
    Diagnostic {
        rule,
        rel_path: rel_path.to_string(),
        line,
        message: message.into(),
    }
}

/// The identifier tokens outside test regions, with their indices.
fn live_idents<'a>(
    tokens: &'a [Tok],
    in_test: &'a [bool],
) -> impl Iterator<Item = (usize, &'a Tok)> + 'a {
    tokens
        .iter()
        .zip(in_test)
        .enumerate()
        .filter(|(_, (t, &test))| !test && t.kind == TokKind::Ident)
        .map(|(i, (t, _))| (i, t))
}

/// L002: `HashMap`/`HashSet` in determinism-critical paths.
pub fn l002(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    if !in_scope(rel_path, DETERMINISM_SCOPE) && !in_scope(rel_path, WEIGHT_AND_CODEC_SCOPE) {
        return Vec::new();
    }
    live_idents(tokens, in_test)
        .filter(|(_, t)| t.text == "HashMap" || t.text == "HashSet")
        .map(|(_, t)| {
            diag(
                "L002",
                rel_path,
                t.line,
                format!(
                    "`{}` in an encoder/reward/cost path: hash iteration order is nondeterministic and leaks into the training signal; use BTreeMap/BTreeSet or sort before iterating",
                    t.text
                ),
            )
        })
        .collect()
}

/// L005: raw `f32` accumulation in reward/cost sums.
pub fn l005(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    if !in_scope(rel_path, DETERMINISM_SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    // Names of `let mut x: f32` bindings seen so far (per file — coarse but
    // effective).
    let mut f32_accumulators: Vec<String> = Vec::new();
    for (i, t) in live_idents(tokens, in_test) {
        let at = |off: isize| -> Option<&Tok> { tokens.get(i.checked_add_signed(off)?) };
        // `.sum::<f32>()`
        if t.text == "sum"
            && is_path_sep_at(tokens, i + 1)
            && at(3).is_some_and(|u| u.is_punct('<'))
            && at(4).is_some_and(|u| u.is_ident("f32"))
        {
            out.push(diag(
                "L005",
                rel_path,
                t.line,
                "`.sum::<f32>()` in a reward/cost path loses precision; accumulate in f64",
            ));
        }
        // `.fold(0.0f32, ...)` / `.fold(0f32, ...)`
        if t.text == "fold"
            && at(1).is_some_and(|u| u.is_punct('('))
            && at(2).is_some_and(|u| {
                matches!(u.kind, TokKind::Float | TokKind::Int) && u.text.ends_with("f32")
            })
        {
            out.push(diag(
                "L005",
                rel_path,
                t.line,
                "f32-typed fold accumulator in a reward/cost path; fold over f64",
            ));
        }
        // `let mut x: f32` … later `x +=` / `x -=`
        if t.text == "mut"
            && at(-1).is_some_and(|u| u.is_ident("let"))
            && at(2).is_some_and(|u| u.is_punct(':'))
            && at(3).is_some_and(|u| u.is_ident("f32"))
        {
            if let Some(name_tok) = at(1).filter(|u| u.kind == TokKind::Ident) {
                f32_accumulators.push(name_tok.text.clone());
            }
        }
        if f32_accumulators.iter().any(|n| n == &t.text)
            && at(1).is_some_and(|u| u.is_punct('+') || u.is_punct('-'))
            && at(2).is_some_and(|u| u.is_punct('='))
        {
            out.push(diag(
                "L005",
                rel_path,
                t.line,
                format!(
                    "`{}` is an f32 accumulator in a reward/cost path; make it f64",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Whether the pattern of the `let` whose first pattern token is at
/// `from` — everything up to its `=` — destructures a `QueryOutcome::…`
/// variant. A type annotation (`let o: QueryOutcome = …`) names no variant.
fn let_destructures_outcome(tokens: &[Tok], from: usize) -> bool {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth <= 0 && (t.is_punct('=') || t.is_punct(';')) {
            return false;
        } else if t.is_ident("QueryOutcome") && is_path_sep_at(tokens, j + 1) {
            return true;
        }
    }
    false
}

/// L007: a refutable `let` over `QueryOutcome` (`if let`, `while let`,
/// `let … else`) drops the variants it does not name; a `QueryOutcome as`
/// rename would hide such a pattern from this scan.
pub fn l007(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in live_idents(tokens, in_test) {
        if t.text == "QueryOutcome" && is_ident_at(tokens, i + 1, "as") {
            out.push(diag(
                "L007",
                rel_path,
                t.line,
                "`QueryOutcome as …` renames the enum out of L007's sight; name it `QueryOutcome`",
            ));
        } else if t.text == "let" && let_destructures_outcome(tokens, i + 1) {
            out.push(diag(
                "L007",
                rel_path,
                t.line,
                "`if let`/`while let`/`let … else` over `QueryOutcome` drops the untaken variants — a `Failed` query would vanish unseen; match all variants or use the accessors",
            ));
        }
    }
    out
}

/// Allocation-free hot paths (L013): per scoped file, the functions whose
/// bodies run once per executor window, once per encoded state, once per
/// DQN train step or once per observed SQL statement of a known shape.
/// The constructors and cache-(re)build paths of the same files allocate
/// freely — only the steady-state loops are listed (the monitor's miss
/// path is its own fn, `observe_miss`, and is not).
const L013_HOT_FNS: &[(&str, &[&str])] = &[
    (
        "crates/lpa-cluster/src/columnar.rs",
        &[
            "execute_columnar",
            "max_shard_fraction_col",
            "max_node_fraction_col",
            "row_filter",
            "filtered_rows_into",
            "has_filtered_row",
            "seed_inter_col",
            "joined",
            "suffix_head",
            "carried_slots",
            "add_hit",
            "join_step_col",
            "left_keys",
            "exchange_col",
            "build_col",
            "charge_col",
        ],
    ),
    (
        "crates/lpa-rl/src/agent.rs",
        &["train_step", "stage_minibatch"],
    ),
    (
        "crates/lpa-partition/src/delta_encoder.rs",
        &["state_prefix", "encode_input", "encode_batch"],
    ),
    (
        "crates/lpa-sql/src/lexer.rs",
        &["shape_key", "next", "run_len"],
    ),
    ("crates/lpa-service/src/monitor.rs", &["observe", "count"]),
];

/// The allocation a token at `j` starts, if any: `Vec::new`, `vec![…]`
/// or `.collect()` / `.collect::<…>()`.
fn allocation_at(tokens: &[Tok], j: usize) -> Option<&'static str> {
    let t = tokens.get(j).filter(|t| t.kind == TokKind::Ident)?;
    match t.text.as_str() {
        "Vec" if is_path_sep_at(tokens, j + 1) && is_ident_at(tokens, j + 3, "new") => {
            Some("Vec::new()")
        }
        "vec" if is_punct_at(tokens, j + 1, '!') => Some("vec![…]"),
        "collect"
            if j.checked_sub(1)
                .is_some_and(|k| is_punct_at(tokens, k, '.'))
                && (is_punct_at(tokens, j + 1, '(') || is_punct_at(tokens, j + 1, ':')) =>
        {
            Some(".collect()")
        }
        _ => None,
    }
}

/// L013: `Vec::new` / `vec![…]` / `.collect()` inside an allocation-free
/// hot function (see [`L013_HOT_FNS`]). `Vec::with_capacity` on a reused
/// scratch field, `clear()` + `extend`, and allocations in the files'
/// other functions are all fine — the rule only polices the per-window /
/// per-step bodies.
pub fn l013(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    let Some((_, hot_fns)) = L013_HOT_FNS
        .iter()
        .find(|(file, _)| rel_path.contains(file))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let fn_name = tokens
            .get(i + 1)
            .filter(|n| {
                is_ident_at(tokens, i, "fn")
                    && !in_test.get(i).copied().unwrap_or(true)
                    && n.kind == TokKind::Ident
                    && hot_fns.contains(&n.text.as_str())
            })
            .map(|n| n.text.as_str());
        let Some(fn_name) = fn_name else {
            i += 1;
            continue;
        };
        // Body extent: first `{` after the signature (a `;` first means a
        // bodiless trait declaration) to its matching `}`.
        let Some(open) = (i + 2..tokens.len())
            .find(|&j| is_punct_at(tokens, j, '{') || is_punct_at(tokens, j, ';'))
            .filter(|&j| is_punct_at(tokens, j, '{'))
        else {
            i += 2;
            continue;
        };
        let mut depth = 0i32;
        let mut j = open;
        while let Some(t) = tokens.get(j) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if let Some(what) = allocation_at(tokens, j) {
                out.push(diag(
                    "L013",
                    rel_path,
                    t.line,
                    format!(
                        "`{what}` inside `{fn_name}`, an allocation-free hot path (runs once per executor window / encoded state / train step / observed statement); reuse a scratch buffer (`clear()` + `extend`) instead",
                    ),
                ));
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

/// The one file allowed to call `Cluster::deploy` directly: the guardrail
/// module owns every layout change (canary staging, rollback, and the
/// sanctioned `direct_deploy` bypass for bootstrap/evaluation code).
const L015_GUARDRAIL_MODULE: &[&str] = &["crates/lpa-cluster/src/guardrail.rs"];

/// L015: deployment isolation. Outside the guardrail module, a method
/// call `.deploy(…)` swaps a production layout with no baseline, no
/// canary observation, no rollback path, no budget charge and no journal
/// entry — exactly the unguarded path this subsystem exists to close.
/// A field read `.deploy` (no call parens) or a free function named
/// `deploy` is a near-miss and stays legal; so does calling
/// `direct_deploy(…)`, the module's sanctioned bypass.
pub fn l015(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    if in_scope(rel_path, L015_GUARDRAIL_MODULE) {
        return Vec::new();
    }
    live_idents(tokens, in_test)
        .filter(|&(i, t)| {
            t.text == "deploy"
                && i.checked_sub(1)
                    .is_some_and(|j| is_punct_at(tokens, j, '.'))
                && is_punct_at(tokens, i + 1, '(')
        })
        .map(|(_, t)| {
            diag(
                "L015",
                rel_path,
                t.line,
                "direct `.deploy(…)` outside the guardrail module bypasses canary windows, rollback and the deployment journal; stage layouts through `Guardrail::end_window` (or `lpa_cluster::guardrail::direct_deploy` for bootstrap/evaluation code)",
            )
        })
        .collect()
}

/// The first keyword of the item after token `from`, skipping further
/// attributes and a visibility (`pub`, `pub(crate)`).
fn item_keyword(tokens: &[Tok], from: usize) -> Option<&str> {
    let mut i = from;
    loop {
        if let Some(end) = attr_extent(tokens, i) {
            i = end + 1;
        } else if is_ident_at(tokens, i, "pub") {
            i += 1;
            if is_punct_at(tokens, i, '(') {
                i = (i..tokens.len()).find(|&j| is_punct_at(tokens, j, ')'))? + 1;
            }
        } else {
            return tokens.get(i).map(|t| t.text.as_str());
        }
    }
}

/// What is wrong with an attribute that exempts code from a denied lint,
/// if anything. `attr` spans `#` to `]`; `next` is the token after it.
fn exemption_problem(tokens: &[Tok], attr: &[Tok], next: usize) -> Option<&'static str> {
    let exempts = attr
        .iter()
        .any(|t| t.is_ident("allow") || t.is_ident("expect"));
    let names_denied = attr.iter().enumerate().any(|(k, t)| {
        t.is_ident("clippy")
            && is_path_sep_at(attr, k + 1)
            && attr
                .get(k + 3)
                .is_some_and(|l| DENIED_LINTS.contains(&l.text.as_str()))
    });
    if !exempts || !names_denied {
        return None;
    }
    let reason = attr.iter().enumerate().find_map(|(k, t)| {
        (t.is_ident("reason") && is_punct_at(attr, k + 1, '='))
            .then(|| attr.get(k + 2))
            .flatten()
    });
    if is_punct_at(attr, 1, '!') || item_keyword(tokens, next) == Some("mod") {
        Some("a crate- or module-level exemption from a denied clippy lint; put `#[expect(lint, reason = \"…\")]` on the one item that needs it")
    } else if attr.iter().any(|t| t.is_ident("allow")) {
        Some("`allow` of a denied clippy lint; use `#[expect(lint, reason = \"…\")]`, which fails once the exemption goes stale")
    } else if !reason.is_some_and(|r| r.kind == TokKind::Literal && !r.text.trim().is_empty()) {
        Some("`expect` of a denied clippy lint without a reason; state the bound or invariant in `reason = \"…\"`")
    } else {
        None
    }
}

/// L016, per library file: every exemption from a [`DENIED_LINTS`] lint is
/// an item-level `#[expect(clippy::…, reason = "…")]`.
pub fn l016_exemptions(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(t) = tokens.get(i) {
        let Some(end) = attr_extent(tokens, i) else {
            i += 1;
            continue;
        };
        let attr = tokens.get(i..=end).unwrap_or_default();
        if !in_test.get(i).copied().unwrap_or(true) {
            if let Some(problem) = exemption_problem(tokens, attr, end + 1) {
                out.push(diag("L016", rel_path, t.line, problem));
            }
        }
        i = end + 1;
    }
    out
}

/// L016, per library root: the root carries [`DENY_LINE`].
pub fn l016_deny_line(rel_path: &str, source: &str) -> Option<Diagnostic> {
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    (!squash(source).contains(&squash(DENY_LINE))).then(|| {
        diag(
            "L016",
            rel_path,
            1,
            format!(
                "library root lacks `{DENY_LINE}`, which switches on the clippy half of the rules"
            ),
        )
    })
}

/// L016, workspace-wide: the root `clippy.toml` (`None` when missing) bans
/// every method in [`BANNED_METHODS`].
pub fn l016_banned_methods(clippy_toml: Option<&str>) -> Vec<Diagnostic> {
    BANNED_METHODS
        .iter()
        .filter(|m| !clippy_toml.is_some_and(|t| t.contains(&format!("path = \"{m}\""))))
        .map(|m| {
            diag(
                "L016",
                "clippy.toml",
                1,
                format!("`disallowed-methods` does not ban `{m}`"),
            )
        })
        .collect()
}

/// Run every token rule over one library file's token stream.
pub fn run_all(rel_path: &str, tokens: &[Tok]) -> Vec<Diagnostic> {
    let in_test = test_regions(tokens);
    let mut out = Vec::new();
    for rule in [l002, l005, l007, l013, l015, l016_exemptions] {
        out.extend(rule(rel_path, tokens, &in_test));
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}
