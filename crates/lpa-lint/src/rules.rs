//! The project-specific rules.
//!
//! Each rule exists because a violation can silently corrupt the advisor's
//! training signal (see DESIGN.md "Static analysis & invariants" for the
//! paper-level rationale). The identifier-mention rules — "this name must
//! not appear here" — are token scans in this file; L004, L007 and L008
//! depend on *which* enum or function a path names, so their one
//! implementation is the alias-resolving structural pass
//! ([`crate::path_rules::l012`]). Every token rule skips test code: a
//! `#[cfg(test)]` / `#[test]` item, but never `#[cfg(not(test))]`.
//!
//! - **L001** — no `unwrap()` / `expect()` / `panic!` in library code. A
//!   panicking advisor aborts an online-training episode and loses the
//!   replay transitions collected so far.
//! - **L002** — no `HashMap` / `HashSet` in encoder, reward,
//!   cost-accounting, weight-update or checkpoint-codec paths. Hash
//!   iteration order is nondeterministic across runs, which leaks into
//!   state encodings, reward accounting, weights and checkpoint bytes and
//!   makes ground-truth rewards untrustworthy.
//! - **L003** — no wall-clock (`Instant` / `SystemTime`) inside the
//!   simulator or any reward, state-encoding, weight-update or
//!   checkpoint-codec path. Simulated time only: reward = modeled runtime,
//!   never host load.
//! - **L004** — no wildcard `_` arm in a `match` over the `Action` enum. A
//!   new action variant must be a compile/lint error, not silently ignored.
//! - **L005** — no raw `f32` accumulation in reward/cost sums. Summing many
//!   small costs in `f32` loses precision long before the replay buffer
//!   fills; accumulate in `f64`.
//! - **L006** — no direct `std::thread` use (`spawn` / `scope` / `Builder`)
//!   outside `crates/lpa-par`. Ad-hoc threads bypass the deterministic
//!   chunk-ordered schedule (and its nested-parallelism guard), so results
//!   would depend on the thread count; go through `lpa_par::Pool`.
//! - **L007** — no non-exhaustive handling of `QueryOutcome` (wildcard `_`
//!   match arms, `if let Completed`). The fault layer's contract is that
//!   every `Failed` query is *seen* — counted, retried, or replaced by the
//!   cost-model fallback — never silently dropped from the reward.
//! - **L008** — no raw durable-state writes (`fs::write`, `File::create`,
//!   `fs::rename`) outside `crates/lpa-store`. A bare write is not atomic:
//!   a crash mid-write leaves a torn file that a later resume would read as
//!   a checkpoint. All persistence goes through `lpa-store`'s
//!   temp-file + fsync + rename discipline.
//! - **L013** — no allocation (`Vec::new` / `vec![…]` / `.collect()`)
//!   inside the columnar executor's per-window functions, the delta
//!   encoder's per-step path, the DQN train step, or the workload
//!   monitor's memo-hit path (shape key + count). These run once per
//!   simulated window / per encoded state / per train step / per observed
//!   statement; an allocation there is a per-call heap round-trip the
//!   whole columnar/incremental/memo design exists to avoid, and it creeps
//!   back silently because the code still passes every correctness test.
//! - **L014** — no direct tenant-state access outside the fleet module
//!   (`crates/lpa-service/src/fleet.rs`): naming the private `TenantSlot`
//!   struct or reading a `.tenants` field bypasses the quarantine funnel
//!   that keeps one tenant's failure from perturbing another's training
//!   state. All tenant state flows through `Fleet`'s accessor API.
//! - **L015** — no direct `Cluster::deploy` calls outside the guardrail
//!   module (`crates/lpa-cluster/src/guardrail.rs`). A bare `.deploy(…)`
//!   changes a production layout without canary observation, rollback
//!   protection, budget accounting or a journal entry. Deployment flows
//!   through `Guardrail::end_window` (or, for bootstrap/evaluation code
//!   that owns a throwaway cluster, the sanctioned `direct_deploy`
//!   free function).

use crate::lexer::{Tok, TokKind};
use crate::parser::attr_marks_test;

/// A single finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Rule id: "L001".."L009", "L013".."L015", or "W000" for a file that
    /// cannot be read, lexed or parsed.
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

/// Where hash collections must never appear (L002): the determinism-critical
/// set plus the network's weights and the checkpoint codec.
const HASH_FREE_SCOPE: &[&str] = &[
    "crates/lpa-costmodel/src/",
    "crates/lpa-partition/src/encoder.rs",
    "crates/lpa-partition/src/fingerprint.rs",
    "crates/lpa-advisor/src/accounting.rs",
    "crates/lpa-advisor/src/cache.rs",
    "crates/lpa-advisor/src/delta.rs",
    "crates/lpa-advisor/src/env.rs",
    "crates/lpa-rl/src/",
    "crates/lpa-nn/src/",
    "crates/lpa-store/src/codec.rs",
    "crates/lpa-store/src/snapshot.rs",
];

/// Where wall-clock time must never appear (L003): the simulator, and every
/// path that computes a reward, a state encoding, a weight update or a
/// checkpoint's bytes.
const SIMULATED_TIME_SCOPE: &[&str] = &[
    "crates/lpa-cluster/src/",
    "crates/lpa-costmodel/src/",
    "crates/lpa-nn/src/",
    "crates/lpa-partition/src/encoder.rs",
    "crates/lpa-partition/src/fingerprint.rs",
    "crates/lpa-rl/src/",
    "crates/lpa-store/src/codec.rs",
    "crates/lpa-store/src/snapshot.rs",
];

/// Inside [`SIMULATED_TIME_SCOPE`], the one file that reads the wall clock
/// by design: `lpa-rl`'s phase timer, whose readings never flow back into
/// training.
const WALL_CLOCK_EXEMPT: &[&str] = &["crates/lpa-rl/src/profile.rs"];

/// The one crate allowed to touch `std::thread` directly (L006): the
/// deterministic pool wraps it for everyone else.
const THREAD_EXEMPT_SCOPE: &[&str] = &["crates/lpa-par/"];

fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| rel_path.contains(s))
}

/// Marks which tokens sit inside test regions — the body of an item whose
/// attribute marks it as test code (`parser::attr_marks_test`),
/// where panicking is fine because a failing test is loud.
pub fn test_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth = 0i32;
    // Stack of depths at which a test region opened.
    let mut test_stack: Vec<i32> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokKind::Punct if t.is_punct('#') => {
                if let Some(end) = attr_extent(tokens, i) {
                    if attr_marks_test(&tokens[i..=end]) {
                        pending_attr = true;
                    }
                    for slot in in_test.iter_mut().take(end + 1).skip(i) {
                        *slot = !test_stack.is_empty();
                    }
                    i = end + 1;
                    continue;
                }
            }
            TokKind::Punct if t.is_punct('{') => {
                depth += 1;
                if pending_attr {
                    test_stack.push(depth);
                    pending_attr = false;
                }
            }
            TokKind::Punct if t.is_punct('}') => {
                if test_stack.last() == Some(&depth) {
                    test_stack.pop();
                    // The closing brace itself still belongs to the region.
                    in_test[i] = true;
                    depth -= 1;
                    i += 1;
                    continue;
                }
                depth -= 1;
            }
            TokKind::Punct if t.is_punct(';') => {
                // `#[cfg(test)] use …;` — attribute consumed by a non-block item.
                pending_attr = false;
            }
            _ => {}
        }
        in_test[i] = !test_stack.is_empty();
        i += 1;
    }
    in_test
}

/// Token index of the closing `]` of an attribute starting at `#`, if any.
fn attr_extent(tokens: &[Tok], hash_idx: usize) -> Option<usize> {
    let open = hash_idx + 1;
    // Allow `#![...]` inner attributes.
    let open = if tokens.get(open).is_some_and(|t| t.is_punct('!')) {
        open + 1
    } else {
        open
    };
    if !tokens.get(open).is_some_and(|t| t.is_punct('[')) {
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

/// Index of the token before/after `i`, if any.
fn prev_tok(i: usize) -> Option<usize> {
    i.checked_sub(1)
}

fn next_tok(tokens: &[Tok], i: usize) -> Option<usize> {
    (i + 1 < tokens.len()).then_some(i + 1)
}

fn diag(rule: &'static str, rel_path: &str, line: u32, message: impl Into<String>) -> Diagnostic {
    Diagnostic {
        rule,
        rel_path: rel_path.to_string(),
        line,
        message: message.into(),
    }
}

/// L001: `.unwrap()` / `.expect(` / `panic!` in library code.
pub fn l001(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let dot = prev_tok(i).filter(|&j| tokens[j].is_punct('.'));
                let called = next_tok(tokens, i).is_some_and(|j| tokens[j].is_punct('('));
                // `self.expect(...)` is always a user-defined method (std
                // types cannot gain inherent methods), e.g. the SQL parser's
                // own Result-returning `expect` — not a panic site.
                let on_self = dot
                    .and_then(prev_tok)
                    .is_some_and(|j| tokens[j].is_ident("self"));
                if dot.is_some() && called && !on_self {
                    out.push(diag(
                        "L001",
                        rel_path,
                        t.line,
                        format!(
                            "`.{}()` in library code can panic mid-episode and poison the replay buffer; return a Result or handle the None/Err arm",
                            t.text
                        ),
                    ));
                }
            }
            "panic" if next_tok(tokens, i).is_some_and(|j| tokens[j].is_punct('!')) => {
                out.push(diag(
                    "L001",
                    rel_path,
                    t.line,
                    "`panic!` in library code aborts the training episode; return an error instead"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// L002: `HashMap`/`HashSet` in determinism-critical paths.
pub fn l002(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    if !in_scope(rel_path, HASH_FREE_SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(diag(
                "L002",
                rel_path,
                t.line,
                format!(
                    "`{}` in an encoder/reward/cost path: hash iteration order is nondeterministic and leaks into the training signal; use BTreeMap/BTreeSet or sort before iterating",
                    t.text
                ),
            ));
        }
    }
    out
}

/// L003: wall-clock time inside the simulator and the reward, encoder,
/// weight-update and codec paths.
pub fn l003(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    if !in_scope(rel_path, SIMULATED_TIME_SCOPE) || in_scope(rel_path, WALL_CLOCK_EXEMPT) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            out.push(diag(
                "L003",
                rel_path,
                t.line,
                format!(
                    "`{}` in a simulated-time path: rewards, encodings, weights and checkpoints must come from simulated time, never the host wall clock",
                    t.text
                ),
            ));
        }
    }
    out
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
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let at = |off: isize| -> Option<&Tok> { tokens.get(i.checked_add_signed(off)?) };
        // `.sum::<f32>()`
        if t.text == "sum"
            && at(1).is_some_and(|u| u.is_punct(':'))
            && at(2).is_some_and(|u| u.is_punct(':'))
            && at(3).is_some_and(|u| u.is_punct('<'))
            && at(4).is_some_and(|u| u.is_ident("f32"))
        {
            out.push(diag(
                "L005",
                rel_path,
                t.line,
                "`.sum::<f32>()` in a reward/cost path loses precision; accumulate in f64"
                    .to_string(),
            ));
        }
        // `.fold(0.0f32, ...)` / `.fold(0f32, ...)`
        if t.text == "fold" && at(1).is_some_and(|u| u.is_punct('(')) {
            if let Some(u) = at(2) {
                if matches!(u.kind, TokKind::Float | TokKind::Int) && u.text.ends_with("f32") {
                    out.push(diag(
                        "L005",
                        rel_path,
                        t.line,
                        "f32-typed fold accumulator in a reward/cost path; fold over f64"
                            .to_string(),
                    ));
                }
            }
        }
        // `let mut x: f32` … later `x +=` / `x -=`
        if t.text == "mut"
            && at(-1).is_some_and(|u| u.is_ident("let"))
            && at(2).is_some_and(|u| u.is_punct(':'))
            && at(3).is_some_and(|u| u.is_ident("f32"))
        {
            if let Some(name_tok) = at(1) {
                if name_tok.kind == TokKind::Ident {
                    f32_accumulators.push(name_tok.text.clone());
                }
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

/// L006: direct `thread::spawn` / `thread::scope` / `thread::Builder`
/// outside `crates/lpa-par`. Everything else must go through the
/// deterministic pool so results cannot depend on the thread count.
pub fn l006(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    if in_scope(rel_path, THREAD_EXEMPT_SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] || t.text != "thread" {
            continue;
        }
        // `thread :: spawn|scope|Builder` (covers `std::thread::…`, a
        // `use std::thread;` alias, and `use std::thread::spawn;`).
        let c1 = next_tok(tokens, i).filter(|&j| tokens[j].is_punct(':'));
        let c2 = c1
            .and_then(|j| next_tok(tokens, j))
            .filter(|&j| tokens[j].is_punct(':'));
        let Some(target) = c2.and_then(|j| next_tok(tokens, j)).map(|j| &tokens[j]) else {
            continue;
        };
        if target.kind == TokKind::Ident
            && matches!(target.text.as_str(), "spawn" | "scope" | "Builder")
        {
            out.push(diag(
                "L006",
                rel_path,
                t.line,
                format!(
                    "`thread::{}` outside lpa-par: ad-hoc threads bypass the deterministic chunk-ordered schedule; run the work on `lpa_par::Pool`",
                    target.text
                ),
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
            "carried_slots",
            "folds",
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
        let is_hot_fn_header = tokens[i].is_ident("fn")
            && !in_test[i]
            && next_tok(tokens, i).is_some_and(|j| {
                tokens[j].kind == TokKind::Ident && hot_fns.contains(&tokens[j].text.as_str())
            });
        if !is_hot_fn_header {
            i += 1;
            continue;
        }
        let Some(fn_name) = next_tok(tokens, i)
            .and_then(|j| tokens.get(j))
            .map(|t| t.text.clone())
        else {
            break;
        };
        let Some(name_idx) = next_tok(tokens, i) else {
            break;
        };
        // Body extent: first `{` after the signature (a `;` first means a
        // bodiless trait declaration) to its matching `}`.
        let mut j = name_idx + 1;
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            j += 1;
        }
        if j >= tokens.len() || tokens[j].is_punct(';') {
            i = j + 1;
            continue;
        }
        let mut depth = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                let alloc: Option<&str> = match t.text.as_str() {
                    // `Vec :: new` (the lexer splits `::` into two puncts).
                    "Vec" => {
                        let c1 = next_tok(tokens, j).filter(|&k| tokens[k].is_punct(':'));
                        let c2 = c1
                            .and_then(|k| next_tok(tokens, k))
                            .filter(|&k| tokens[k].is_punct(':'));
                        c2.and_then(|k| next_tok(tokens, k))
                            .filter(|&k| tokens[k].is_ident("new"))
                            .map(|_| "Vec::new()")
                    }
                    "vec" if next_tok(tokens, j).is_some_and(|k| tokens[k].is_punct('!')) => {
                        Some("vec![…]")
                    }
                    "collect"
                        if prev_tok(j).is_some_and(|k| tokens[k].is_punct('.'))
                            && next_tok(tokens, j).is_some_and(|k| {
                                tokens[k].is_punct('(') || tokens[k].is_punct(':')
                            }) =>
                    {
                        Some(".collect()")
                    }
                    _ => None,
                };
                if let Some(what) = alloc {
                    out.push(diag(
                        "L013",
                        rel_path,
                        t.line,
                        format!(
                            "`{what}` inside `{fn_name}`, an allocation-free hot path (runs once per executor window / encoded state / train step / observed statement); reuse a scratch buffer (`clear()` + `extend`) instead",
                        ),
                    ));
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    out.sort_by_key(|d| d.line);
    out
}

/// The one file allowed to touch tenant slots directly: the fleet module
/// owns `TenantSlot` and the `tenants` vector; everything else goes
/// through `Fleet`'s accessor API.
const L014_FLEET_MODULE: &[&str] = &["crates/lpa-service/src/fleet.rs"];

/// L014: tenant-state isolation. Outside the fleet module, naming the
/// private `TenantSlot` struct or reaching into a `tenants` collection
/// field (`.tenants[i]`, `.tenants.iter()`, …) bypasses the per-tenant
/// error domain: every mutation of tenant state must flow through
/// `Fleet`'s accessors so the quarantine funnel sees every failure and
/// one tenant's fault cannot leak into another's slot. A method *call*
/// `.tenants(...)` is an accessor and stays legal.
pub fn l014(rel_path: &str, tokens: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    if in_scope(rel_path, L014_FLEET_MODULE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        if t.text == "TenantSlot" {
            out.push(diag(
                "L014",
                rel_path,
                t.line,
                "`TenantSlot` named outside the fleet module; tenant slots are private to `crates/lpa-service/src/fleet.rs` — go through `Fleet`'s accessor API so the per-tenant error domain stays intact",
            ));
        } else if t.text == "tenants"
            && prev_tok(i).is_some_and(|j| tokens[j].is_punct('.'))
            && !next_tok(tokens, i).is_some_and(|j| tokens[j].is_punct('('))
        {
            out.push(diag(
                "L014",
                rel_path,
                t.line,
                "direct `.tenants` field access outside the fleet module bypasses the quarantine funnel; use `Fleet`'s accessors (`tenant_count()`, `tenant_service()`, `report()`, …) instead",
            ));
        }
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
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] || t.text != "deploy" {
            continue;
        }
        if prev_tok(i).is_some_and(|j| tokens[j].is_punct('.'))
            && next_tok(tokens, i).is_some_and(|j| tokens[j].is_punct('('))
        {
            out.push(diag(
                "L015",
                rel_path,
                t.line,
                "direct `.deploy(…)` outside the guardrail module bypasses canary windows, rollback and the deployment journal; stage layouts through `Guardrail::end_window` (or `lpa_cluster::guardrail::direct_deploy` for bootstrap/evaluation code)",
            ));
        }
    }
    out
}

/// Run every token rule over one file's token stream.
pub fn run_all(rel_path: &str, tokens: &[Tok], lib_code: bool) -> Vec<Diagnostic> {
    let in_test = test_regions(tokens);
    let mut out = Vec::new();
    if lib_code {
        out.extend(l001(rel_path, tokens, &in_test));
        out.extend(l002(rel_path, tokens, &in_test));
        out.extend(l003(rel_path, tokens, &in_test));
        out.extend(l005(rel_path, tokens, &in_test));
        out.extend(l006(rel_path, tokens, &in_test));
        out.extend(l013(rel_path, tokens, &in_test));
        out.extend(l014(rel_path, tokens, &in_test));
        out.extend(l015(rel_path, tokens, &in_test));
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}
