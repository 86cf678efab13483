//! The cases lpa-lint's removed rules caught (L001, L003, L004, L006,
//! L007's catch-all arms, L008, L009), as library code under the library
//! deny line. Each line clippy must flag ends in a FINDING marker naming
//! the lint; unmarked lines are near-misses clippy must leave alone.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        clippy::disallowed_methods
    )
)]

// ---- L001: unwrap / expect / panic -------------------------------------

pub fn bad_unwrap(x: Option<u32>) -> u32 {
    x.unwrap() // FINDING unwrap_used
}

pub fn bad_expect(x: Option<u32>) -> u32 {
    x.expect("present") // FINDING expect_used
}

pub fn bad_panic(flag: bool) {
    if flag {
        panic!("boom"); // FINDING panic
    }
}

// `cfg(not(test))` is the code that ships, not a test region.
#[cfg(not(test))]
pub mod live {
    pub fn shipped(x: Option<u32>) -> u32 {
        x.unwrap() // FINDING unwrap_used
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
        let w: Option<u32> = Some(2);
        w.expect("fine here");
        if false {
            panic!("also fine");
        }
    }
}

/// Doc comment mentioning .unwrap() and panic! must not fire.
pub fn strings_and_comments() -> String {
    // A line comment with .unwrap() and panic! inside.
    /* A block comment: x.unwrap(); panic!("no"); */
    let plain = "call .unwrap() or panic!(\"boom\")";
    let raw = r#"raw: .unwrap() panic!("x") .expect("y")"#;
    format!("{plain}{raw}")
}

/// `unwrap_or` / `unwrap_or_else` / `unwrap_or_default` are graceful.
pub fn lookalike_idents(x: Option<u32>) -> u32 {
    let unwrap_count = 1u32;
    let expectation = 2u32;
    x.unwrap_or(unwrap_count) + x.map_or(expectation, |v| v * 2) + x.unwrap_or_default()
}

pub struct Parser {
    pos: usize,
}

impl Parser {
    fn expect(&mut self, tok: u8) -> Result<(), String> {
        self.pos += usize::from(tok);
        Ok(())
    }

    /// A user-defined Result-returning `expect` is not `Option::expect`.
    pub fn parse(&mut self) -> Result<(), String> {
        self.expect(b'(')?;
        self.expect(b')')
    }
}

// ---- L009: a panic reachable from a `pub fn` ---------------------------

pub fn entry(v: &[u32], i: usize) -> u32 {
    middle(v, i)
}

fn middle(v: &[u32], i: usize) -> u32 {
    deep(v, i)
}

fn deep(v: &[u32], i: usize) -> u32 {
    v[i] // FINDING indexing_slicing
}

pub fn head(v: &[u32]) -> &[u32] {
    &v[..2] // FINDING indexing_slicing
}

pub fn never(k: u8) -> u8 {
    match k {
        0 => 1,
        _ => unreachable!("k is 0"), // FINDING unreachable
    }
}

pub fn checked(v: &[u32], i: usize) -> u32 {
    v.get(i).copied().unwrap_or(0)
}

/// An item-level exemption that states its bound: no finding.
#[expect(clippy::indexing_slicing, reason = "i is reduced modulo v.len()")]
pub fn bounded(v: &[u32], i: usize) -> u32 {
    v[i % v.len()]
}

/// An exemption that no longer exempts anything fails the build.
#[expect(clippy::indexing_slicing, reason = "stale")] // FINDING unfulfilled_lint_expectations
pub fn stale(v: &[u32]) -> Option<u32> {
    v.first().copied()
}

// ---- L004: catch-all arms over `Action` --------------------------------

pub enum Action {
    Partition(u32, u32),
    Replicate(u32),
    Noop,
}

pub fn describe(a: &Action) -> &'static str {
    match a {
        Action::Partition(..) => "partition",
        Action::Replicate(_) => "replicate", // positional `_` inside a variant is fine
        _ => "other", // FINDING match_wildcard_for_single_variants
    }
}

pub fn guarded(a: &Action, verbose: bool) -> &'static str {
    match a {
        Action::Partition(..) => "partition",
        _ if verbose => "other (verbose)",
        _ => "other", // FINDING wildcard_enum_match_arm
    }
}

pub mod aliased {
    use super::Action as Act;

    /// A binding catch-all through a `use … as` alias.
    pub fn apply(a: Act) -> u32 {
        match a {
            Act::Partition(..) => 1,
            other => u32::from(matches!(other, Act::Noop)), // FINDING wildcard_enum_match_arm
        }
    }

    pub fn exhaustive(a: Act) -> u32 {
        match a {
            Act::Partition(..) => 1,
            Act::Replicate(_) => 2,
            Act::Noop => 0,
        }
    }
}

pub fn unrelated_wildcard(n: u32) -> &'static str {
    match n {
        0 => "zero",
        _ => "many",
    }
}

pub enum Verdict {
    Keep,
    Drop,
}

/// Clippy covers every enum, not only `Action` and `QueryOutcome`. A `_`
/// that stands for exactly one variant is
/// `match_wildcard_for_single_variants`, not `wildcard_enum_match_arm`.
pub fn verdict_wildcard(v: &Verdict) -> &'static str {
    match v {
        Verdict::Keep => "keep",
        _ => "drop", // FINDING match_wildcard_for_single_variants
    }
}

// ---- L007: catch-all arms over `QueryOutcome` --------------------------

pub enum QueryOutcome {
    Completed { seconds: f64 },
    TimedOut { limit: f64 },
    Failed { seconds: f64 },
}

pub fn wildcard_swallows_failures(o: &QueryOutcome) -> f64 {
    match o {
        QueryOutcome::Completed { seconds } => *seconds,
        _ => 0.0, // FINDING wildcard_enum_match_arm
    }
}

pub fn guarded_wildcard(o: &QueryOutcome, strict: bool) -> f64 {
    match o {
        QueryOutcome::Completed { seconds } => *seconds,
        _ if strict => f64::NAN,
        _ => 0.0, // FINDING wildcard_enum_match_arm
    }
}

pub mod renamed {
    use super::QueryOutcome as Outcome;

    pub fn seconds(o: &Outcome) -> f64 {
        match o {
            Outcome::Completed { seconds } => *seconds,
            other => f64::from(u8::from(matches!(other, Outcome::Failed { .. }))), // FINDING wildcard_enum_match_arm
        }
    }
}

pub fn exhaustive_is_fine(o: &QueryOutcome) -> f64 {
    match o {
        QueryOutcome::Completed { seconds: _ } => 1.0,
        QueryOutcome::TimedOut { limit } => *limit,
        QueryOutcome::Failed { seconds } => *seconds,
    }
}

// ---- L006: direct threads ----------------------------------------------

pub mod threads {
    use std::thread;

    pub fn fully_qualified() {
        let _ = std::thread::spawn(|| {}); // FINDING disallowed_methods
        std::thread::scope(|_s| {}); // FINDING disallowed_methods
    }

    pub fn via_use() {
        let _ = thread::spawn(|| {}); // FINDING disallowed_methods
        let b = thread::Builder::new(); // FINDING disallowed_methods
        drop(b);
    }

    pub fn via_rename() {
        use std::thread as t;
        t::scope(|_s| {}); // FINDING disallowed_methods
    }

    pub fn not_findings() {
        // A local named `thread` is not the thread API.
        let thread = 3usize;
        let _ = thread + 1;
        // Non-spawning thread items are not banned.
        std::thread::sleep(std::time::Duration::from_millis(0));
    }
}

// ---- L003: the wall clock ----------------------------------------------

pub fn wall_clock_cost() -> u128 {
    let t = std::time::Instant::now(); // FINDING disallowed_methods
    t.elapsed() // FINDING disallowed_methods
        .as_nanos()
}

pub fn also_system_time() -> bool {
    let t = std::time::SystemTime::now(); // FINDING disallowed_methods
    t.elapsed().is_ok() // FINDING disallowed_methods
}

// ---- L008: raw durable writes ------------------------------------------

pub mod raw_fs {
    use std::fs;
    use std::fs::File;

    pub fn fully_qualified() {
        let _ = std::fs::write("out.bin", b"torn by a crash"); // FINDING disallowed_methods
        let _ = std::fs::rename("a.tmp", "a.bin"); // FINDING disallowed_methods
        let _ = std::fs::File::create("b.bin"); // FINDING disallowed_methods
    }

    pub fn via_use() {
        let _ = fs::write("out.bin", b"bytes"); // FINDING disallowed_methods
        let _ = fs::rename("a.tmp", "a.bin"); // FINDING disallowed_methods
        let _ = File::create("b.bin"); // FINDING disallowed_methods
    }

    pub fn via_rename() {
        use std::fs::write as persist;
        let _ = persist("out.bin", b"bytes"); // FINDING disallowed_methods
    }

    pub fn not_findings() {
        // Reads are fine: only the write/publish path must be atomic.
        let _ = fs::read("in.bin");
        let _ = File::open("in.bin");
        let _ = fs::remove_file("stale.tmp");
    }

    /// The one sanctioned writer, exempted on its own item.
    #[expect(
        clippy::disallowed_methods,
        reason = "the temp-file + fsync + rename writer"
    )]
    pub fn sanctioned() {
        let _ = fs::write("out.tmp", b"bytes");
        let _ = fs::rename("out.tmp", "out.bin");
    }
}
