//! SQL workload monitoring: map observed statements onto the advisor's
//! representative query set and count frequencies.
//!
//! A statement whose *shape* ([`lpa_sql::shape_key`]: its tokens with the
//! literal values blanked) was parsed before is not parsed again: the
//! monitor remembers the signature and query each shape resolved to and
//! counts the statement through them (DESIGN.md §17).

use lpa_schema::Schema;
use lpa_sql::{parse_query, query_name, shape_key};
use lpa_workload::{FrequencyVector, Query, QueryId, SelectivityBuckets, Workload};
use std::collections::HashMap;

/// Statement shapes the memo holds; the insert that would exceed it starts
/// the memo over, so a drifting workload re-warms it instead of being
/// locked out by the shapes it saw first.
const SHAPE_MEMO_CAP: usize = 1024;

/// How one observed statement was classified.
#[derive(Clone, PartialEq, Debug)]
pub enum Observation {
    /// Mapped onto a known representative query (possibly a different
    /// parameterization in the same selectivity bucket).
    Known(QueryId),
    /// A structurally new query; quarantined for incremental training.
    New(String),
    /// The statement could not be parsed/resolved.
    Rejected(String),
}

/// Structural signature: tables, join pairs, and selectivity buckets.
/// Two parameterizations of the same statement share a signature, which is
/// exactly the paper's bucketization trick for recurring OLAP queries.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Signature {
    tables: Vec<usize>,
    joins: Vec<(usize, usize, usize, usize)>,
    buckets: Vec<(usize, usize)>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "a validated join has at least one key pair"
)]
fn signature(buckets: &SelectivityBuckets, q: &Query) -> Signature {
    let mut tables: Vec<usize> = q.tables.iter().map(|t| t.0).collect();
    tables.sort_unstable();
    let mut joins: Vec<(usize, usize, usize, usize)> = q
        .joins
        .iter()
        .map(|j| {
            let (a, b) = j.pairs[0];
            if (a.table.0, a.attr.0) <= (b.table.0, b.attr.0) {
                (a.table.0, a.attr.0, b.table.0, b.attr.0)
            } else {
                (b.table.0, b.attr.0, a.table.0, a.attr.0)
            }
        })
        .collect();
    joins.sort_unstable();
    let mut bucket_ids: Vec<(usize, usize)> = q
        .tables
        .iter()
        .map(|t| {
            (
                t.0,
                buckets.classify(q.table_selectivity(*t).clamp(1e-9, 1.0)),
            )
        })
        .collect();
    bucket_ids.sort_unstable();
    Signature {
        tables,
        joins,
        buckets: bucket_ids,
    }
}

/// The signature index and the open window's counts: everything a parsed
/// statement updates.
#[derive(Debug)]
struct Tally {
    known: HashMap<Signature, QueryId>,
    counts: Vec<f64>,
    observed_in_window: u64,
    /// Structurally new queries seen this epoch, deduplicated by signature.
    pending: HashMap<Signature, (Query, u64)>,
}

impl Tally {
    /// Count `sql`, whose query has signature `sig` and equals `template`
    /// but for its name: a known query's slot, else its pending entry — a
    /// first one holding `template` renamed to `sql`'s name.
    #[expect(
        clippy::indexing_slicing,
        reason = "known maps each signature to a slot the tally allocated in counts"
    )]
    fn count(&mut self, sig: &Signature, template: &Query, sql: &str) -> Observation {
        self.observed_in_window += 1;
        if let Some(&id) = self.known.get(sig) {
            self.counts[id.0] += 1.0;
            return Observation::Known(id);
        }
        let name = query_name(sql);
        match self.pending.get_mut(sig) {
            Some(entry) => entry.1 += 1,
            None => {
                let query = Query {
                    name: name.clone(),
                    ..template.clone()
                };
                self.pending.insert(sig.clone(), (query, 1));
            }
        }
        Observation::New(name)
    }
}

/// Counts observed statements against a representative workload.
#[derive(Debug)]
pub struct WorkloadMonitor {
    schema: Schema,
    buckets: SelectivityBuckets,
    tally: Tally,
    /// Shape key → the signature and query (named for the first statement
    /// of the shape) every statement of that shape parses to. Signatures,
    /// not outcomes: whether one is known or pending is looked up per
    /// statement, so nothing here goes stale. Never checkpointed.
    shapes: HashMap<Vec<u8>, (Signature, Query)>,
    /// Reused buffer for the observed statement's shape key.
    key: Vec<u8>,
}

impl WorkloadMonitor {
    /// Index the representative workload's signatures.
    pub fn new(schema: Schema, workload: &Workload) -> Self {
        let buckets = SelectivityBuckets::default_three();
        let mut known = HashMap::new();
        for id in workload.query_ids() {
            let sig = signature(&buckets, workload.query(id));
            known.insert(sig, id);
        }
        Self {
            tally: Tally {
                known,
                counts: vec![0.0; workload.slots()],
                observed_in_window: 0,
                pending: HashMap::new(),
            },
            shapes: HashMap::new(),
            key: Vec::new(),
            buckets,
            schema,
        }
    }

    /// Register an additional known query (after incremental training
    /// assigned it a reserved slot).
    pub fn register(&mut self, id: QueryId, query: &Query) {
        let sig = signature(&self.buckets, query);
        let tally = &mut self.tally;
        tally.pending.remove(&sig);
        tally.known.insert(sig, id);
        if tally.counts.len() <= id.0 {
            tally.counts.resize(id.0 + 1, 0.0);
        }
    }

    /// Ingest one SQL statement. A statement of a shape seen before is
    /// counted through the memoised signature without being parsed.
    pub fn observe(&mut self, sql: &str) -> Observation {
        let Some(key) = shape_key(sql, &mut self.key) else {
            return self.observe_miss(sql, false);
        };
        let Some((sig, template)) = self.shapes.get(key) else {
            return self.observe_miss(sql, true);
        };
        self.tally.count(sig, template, sql)
    }

    /// Parse, resolve and sign `sql`, then count it; with `keyed`, memoise
    /// the result under the shape key `observe` left in `self.key`.
    /// Rejections are never memoised: their messages carry positions.
    fn observe_miss(&mut self, sql: &str, keyed: bool) -> Observation {
        let q = match parse_query(&self.schema, sql) {
            Ok(q) => q,
            Err(e) => return Observation::Rejected(e.to_string()),
        };
        let sig = signature(&self.buckets, &q);
        let obs = self.tally.count(&sig, &q, sql);
        if keyed {
            if self.shapes.len() >= SHAPE_MEMO_CAP {
                self.shapes.clear();
            }
            self.shapes.insert(self.key.clone(), (sig, q));
        }
        obs
    }

    /// The differential oracle: parse, resolve and count every statement.
    #[cfg(test)]
    fn observe_uncached(&mut self, sql: &str) -> Observation {
        let q = match parse_query(&self.schema, sql) {
            Ok(q) => q,
            Err(e) => return Observation::Rejected(e.to_string()),
        };
        let tally = &mut self.tally;
        tally.observed_in_window += 1;
        let sig = signature(&self.buckets, &q);
        if let Some(&id) = tally.known.get(&sig) {
            tally.counts[id.0] += 1.0;
            return Observation::Known(id);
        }
        let entry = tally.pending.entry(sig).or_insert((q.clone(), 0));
        entry.1 += 1;
        Observation::New(q.name)
    }

    /// Statements counted in the current window: every one that parsed,
    /// known and new alike (rejected ones are not). Checkpointed as
    /// `monitor_observed`.
    pub fn window_total(&self) -> u64 {
        self.tally.observed_in_window
    }

    /// Current window's frequency vector (`None` while nothing was seen).
    pub fn frequencies(&self) -> Option<FrequencyVector> {
        let counts = &self.tally.counts;
        if counts.iter().all(|c| *c == 0.0) {
            return None;
        }
        Some(FrequencyVector::from_counts(counts, counts.len()))
    }

    /// New queries with their observation counts, hottest first, ties by
    /// name — the one ordering incremental training (slot assignment, hence
    /// the encoder layout and every later weight) and checkpoint capture
    /// both see. It never depends on hash-map iteration order.
    pub fn pending(&self) -> Vec<(Query, u64)> {
        let mut v: Vec<(Query, u64)> = self.tally.pending.values().cloned().collect();
        v.sort_by(|(a, na), (b, nb)| nb.cmp(na).then_with(|| a.name.cmp(&b.name)));
        v
    }

    /// Drop collected pending queries (after incremental training).
    pub fn clear_pending(&mut self) {
        self.tally.pending.clear();
    }

    /// Raw per-slot counts of the current window (checkpoint capture).
    pub fn window_counts(&self) -> &[f64] {
        &self.tally.counts
    }

    /// Restore the window state captured by a checkpoint. The monitor must
    /// already be indexed against the same (restored) workload, so the
    /// count vector lengths have to line up.
    pub fn restore_window(
        &mut self,
        counts: Vec<f64>,
        observed_in_window: u64,
        pending: Vec<(Query, u64)>,
    ) -> Result<(), String> {
        let tally = &mut self.tally;
        if counts.len() != tally.counts.len() {
            return Err(format!(
                "window count slots {} != monitor slots {}",
                counts.len(),
                tally.counts.len()
            ));
        }
        tally.counts = counts;
        tally.observed_in_window = observed_in_window;
        tally.pending.clear();
        for (q, n) in pending {
            let sig = signature(&self.buckets, &q);
            tally.pending.insert(sig, (q, n));
        }
        Ok(())
    }

    /// Start a new decision window.
    pub fn reset_window(&mut self) {
        let tally = &mut self.tally;
        tally.counts.iter_mut().for_each(|c| *c = 0.0);
        tally.observed_in_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Schema, Workload, WorkloadMonitor) {
        let schema = lpa_schema::ssb::schema(0.01).expect("schema builds");
        let workload = lpa_workload::ssb::workload(&schema).expect("workload builds");
        let monitor = WorkloadMonitor::new(schema.clone(), &workload);
        (schema, workload, monitor)
    }

    #[test]
    fn known_query_is_counted() {
        let (_, _, mut m) = setup();
        // Structurally ssb_q1.x: lineorder ⋈ date with filters on both.
        let obs = m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
             AND l.lo_orderkey < 500",
        );
        assert!(matches!(obs, Observation::Known(_)), "got {obs:?}");
        let f = m.frequencies().expect("non-empty window");
        assert!(f.as_slice().contains(&1.0));
    }

    #[test]
    fn reparameterized_query_maps_to_same_entry() {
        let (_, _, mut m) = setup();
        let a = m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
             AND l.lo_orderkey < 500",
        );
        let b = m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1997 \
             AND l.lo_orderkey < 900",
        );
        assert_eq!(a, b, "same structure and buckets → same entry");
    }

    #[test]
    fn new_query_is_quarantined_and_deduplicated() {
        let (_, _, mut m) = setup();
        for _ in 0..3 {
            let obs = m.observe(
                "SELECT count(*) FROM customer c, supplier s \
                 WHERE c.c_city = s.s_city",
            );
            assert!(matches!(obs, Observation::New(_)));
        }
        let pending = m.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].1, 3);
    }

    /// Equally hot new queries come back in name order whatever order they
    /// arrived in (and whatever order the hash map happens to iterate in —
    /// every monitor has its own `RandomState`), hotter ones first.
    #[test]
    fn pending_order_is_count_then_name_not_arrival_or_hash_order() {
        let tied = [
            "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city",
            "SELECT count(*) FROM part p, lineorder l WHERE l.lo_partkey = p.p_partkey",
            "SELECT count(*) FROM customer c, lineorder l WHERE l.lo_custkey = c.c_custkey",
            "SELECT count(*) FROM supplier s, lineorder l WHERE l.lo_suppkey = s.s_suppkey",
        ];
        let hot = "SELECT count(*) FROM customer c, supplier s WHERE c.c_nation = s.s_nation";
        let (_, _, mut forward) = setup();
        let (_, _, mut backward) = setup();
        for sql in tied {
            assert!(matches!(forward.observe(sql), Observation::New(_)));
        }
        for sql in tied.iter().rev() {
            backward.observe(sql);
        }
        for m in [&mut forward, &mut backward] {
            m.observe(hot);
            m.observe(hot);
        }
        let names = |m: &WorkloadMonitor| -> Vec<(String, u64)> {
            m.pending().into_iter().map(|(q, n)| (q.name, n)).collect()
        };
        let order = names(&forward);
        assert_eq!(order, names(&backward));
        assert_eq!(order.len(), 5);
        assert_eq!(order[0].1, 2, "the hottest query leads");
        assert!(
            order[1..].windows(2).all(|w| w[0].0 < w[1].0),
            "ties break by name: {order:?}"
        );
    }

    #[test]
    fn rejected_sql_reported() {
        let (_, _, mut m) = setup();
        assert!(matches!(
            m.observe("SELECT FROM WHERE"),
            Observation::Rejected(_)
        ));
        assert!(matches!(
            m.observe("SELECT * FROM nonexistent"),
            Observation::Rejected(_)
        ));
    }

    #[test]
    fn window_reset_clears_counts() {
        let (_, _, mut m) = setup();
        m.observe(
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
             AND l.lo_orderkey < 500",
        );
        assert!(m.frequencies().is_some());
        m.reset_window();
        assert!(m.frequencies().is_none());
        assert_eq!(m.window_total(), 0);
    }

    /// `window_total` counts every statement that parsed — known and new —
    /// and no rejected one, on the memo's miss and hit paths alike.
    #[test]
    fn window_total_counts_known_and_new_but_not_rejected() {
        let (_, _, mut m) = setup();
        let known = |y: u32| {
            format!(
                "SELECT sum(lo_revenue) FROM lineorder l, date d \
                 WHERE l.lo_orderdate = d.d_datekey AND d.d_year = {y} AND l.lo_orderkey < 5"
            )
        };
        let new = |n: u32| {
            format!("SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city AND c.c_nation = {n}")
        };
        let bad = |n: u32| format!("SELECT * FROM lineorder l WHERE l.nope = {n}");
        let steps: [(String, u64); 7] = [
            (known(1993), 1), // miss
            (known(1997), 2), // hit
            (new(3), 3),      // miss
            (new(4), 4),      // hit
            (bad(1), 4),      // keyed, rejected, not memoised
            (bad(2), 4),      // … so rejected again on the miss path
            ("SELECT 'open".to_string(), 4),
        ];
        for (sql, total) in &steps {
            let obs = m.observe(sql);
            assert_eq!(m.window_total(), *total, "{sql}: {obs:?}");
        }
        assert_eq!(m.shapes.len(), 2, "rejections are never memoised");
    }

    // -- Keystone differential: memo vs. the uncached oracle --------------

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `service_sql`'s ten SSB templates that map onto known queries, then
    /// its eight new join shapes; every `#` is a literal drawn per statement.
    const TEMPLATES: [&str; 18] = [
        "SELECT sum(l.lo_orderkey) FROM lineorder l, date d WHERE l.lo_orderdate = d.d_datekey AND d.d_year = # AND l.lo_orderkey < #",
        "SELECT sum(l.lo_orderkey) FROM lineorder l JOIN date d ON l.lo_orderdate = d.d_datekey WHERE d.d_year = # AND d.d_datekey < # AND l.lo_orderkey < # AND l.lo_custkey < # AND l.lo_partkey > #",
        "SELECT sum(l.lo_orderkey), p.p_brand FROM lineorder l, date d, part p, supplier s WHERE l.lo_orderdate = d.d_datekey AND l.lo_partkey = p.p_partkey AND l.lo_suppkey = s.s_suppkey AND p.p_category = # AND s.s_nation IN (#, #, #, #, #) GROUP BY p.p_brand ORDER BY p.p_brand",
        "SELECT sum(l.lo_orderkey), d.d_year FROM lineorder l, date d, part p, supplier s WHERE l.lo_orderdate = d.d_datekey AND l.lo_partkey = p.p_partkey AND l.lo_suppkey = s.s_suppkey AND p.p_brand = # AND s.s_nation IN (#, #, #, #, #) GROUP BY d.d_year",
        "SELECT c.c_nation, s.s_nation, sum(l.lo_orderkey) FROM lineorder l, customer c, supplier s, date d WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey AND l.lo_orderdate = d.d_datekey AND c.c_nation IN (#, #, #, #, #) AND s.s_nation IN (#, #, #, #, #) AND d.d_year IN (#, #, #, #, #, #) GROUP BY c.c_nation, s.s_nation",
        "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, supplier s, date d WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey AND l.lo_orderdate = d.d_datekey AND c.c_nation = # AND s.s_nation = # AND d.d_year IN (#, #, #, #, #, #) GROUP BY c.c_city, s.s_city",
        "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, supplier s, date d WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey AND l.lo_orderdate = d.d_datekey AND c.c_city = # AND s.s_city = # AND d.d_year IN (#, #, #, #, #, #)",
        "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, supplier s, date d WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey AND l.lo_orderdate = d.d_datekey AND c.c_city = # AND s.s_city = # AND d.d_year = # AND d.d_datekey < #",
        "SELECT d.d_year, c.c_nation, sum(l.lo_orderkey) FROM lineorder l, customer c, supplier s, part p, date d WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey AND l.lo_partkey = p.p_partkey AND l.lo_orderdate = d.d_datekey AND c.c_nation IN (#, #, #, #, #) AND s.s_nation IN (#, #, #, #, #) AND p.p_category IN (#, #, #, #, #, #, #, #, #, #) GROUP BY d.d_year, c.c_nation",
        "SELECT d.d_year, s.s_city, p.p_brand, sum(l.lo_orderkey) FROM lineorder l, customer c, supplier s, part p, date d WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = s.s_suppkey AND l.lo_partkey = p.p_partkey AND l.lo_orderdate = d.d_datekey AND c.c_nation IN (#, #, #, #, #) AND s.s_nation = # AND p.p_category = # AND d.d_year IN (#, #) GROUP BY d.d_year, s.s_city, p.p_brand",
        "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city",
        "SELECT count(*) FROM part p, lineorder l WHERE l.lo_partkey = p.p_partkey AND p.p_category = #",
        "SELECT count(*) FROM lineorder l, customer c WHERE l.lo_custkey = c.c_custkey AND c.c_nation = #",
        "SELECT count(*) FROM lineorder l, supplier s WHERE l.lo_suppkey = s.s_suppkey AND s.s_city = #",
        "SELECT count(*) FROM lineorder l, part p, supplier s WHERE l.lo_partkey = p.p_partkey AND l.lo_suppkey = s.s_suppkey AND p.p_brand = #",
        "SELECT count(*) FROM lineorder l, customer c, part p WHERE l.lo_custkey = c.c_custkey AND l.lo_partkey = p.p_partkey AND c.c_city = #",
        "SELECT count(*) FROM customer c, supplier s WHERE c.c_nation = s.s_nation AND c.c_city = #",
        "SELECT count(*) FROM lineorder l, date d, customer c WHERE l.lo_orderdate = d.d_datekey AND l.lo_custkey = c.c_custkey AND d.d_year = # AND c.c_nation = #",
    ];

    fn fill(template: &str, rng: &mut StdRng) -> String {
        template
            .split('#')
            .enumerate()
            .map(|(i, part)| match i {
                0 => part.to_string(),
                _ => format!("{}{part}", rng.gen_range(0..100_000u32)),
            })
            .collect()
    }

    /// The same statement respelled: keyword and identifier case,
    /// whitespace, `--` comments, `<>`/`!=`, another alias.
    fn respell(sql: &str, rng: &mut StdRng) -> String {
        let mut s = sql.to_string();
        if rng.gen_bool(0.3) {
            s = s.to_lowercase();
        }
        if rng.gen_bool(0.3) {
            s = s.replace(" AND ", "\n\t AND  ");
        }
        if rng.gen_bool(0.3) {
            s = s.replace(" WHERE ", " -- the filters\nWHERE ");
        }
        if rng.gen_bool(0.3) {
            s = s.replace(" < ", " <> ").replace(" > ", " != ");
        }
        if rng.gen_bool(0.3) {
            s = s
                .replace("lineorder l", "lineorder lx")
                .replace("l.lo_", "lx.lo_");
        }
        s
    }

    /// `fuzz_parser.rs`'s three generators: printable soup (multi-byte
    /// characters included), token soup, and SQL-ish text over SSB names.
    fn fuzz(rng: &mut StdRng) -> String {
        let soup = |rng: &mut StdRng, pool: &[char], max: usize| -> String {
            let len = rng.gen_range(0..=max);
            (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect()
        };
        match rng.gen_range(0..3) {
            0 => {
                let mut pool: Vec<char> = (' '..='~').collect();
                pool.extend(['\t', '\n', 'é', 'ß', '漢', '🦀', '\u{2028}', 'Ω', '·', '«']);
                soup(rng, &pool, 200)
            }
            1 => {
                let pool: Vec<char> =
                    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ ,.()=<>'*"
                        .chars()
                        .collect();
                soup(rng, &pool, 160)
            }
            _ => {
                let pick = |rng: &mut StdRng, of: &[&'static str]| of[rng.gen_range(0..of.len())];
                let table = pick(
                    rng,
                    &["lineorder", "customer", "part", "supplier", "date", "nope"],
                );
                let a = pick(
                    rng,
                    &[
                        "lo_orderkey",
                        "lo_custkey",
                        "c_custkey",
                        "p_partkey",
                        "bogus",
                    ],
                );
                let b = pick(rng, &["c_custkey", "d_datekey", "s_suppkey", "bogus"]);
                let lit = rng.gen_range(0u32..10_000);
                format!("SELECT count(*) FROM {table} t, customer c WHERE t.{a} = c.{b} AND c.c_nation = {lit}")
            }
        }
    }

    /// One statement of the differential stream.
    fn statement(rng: &mut StdRng) -> String {
        match rng.gen_range(0..10) {
            0..=5 => fill(TEMPLATES[rng.gen_range(0..TEMPLATES.len())], rng),
            6 => {
                let sql = fill(TEMPLATES[rng.gen_range(0..TEMPLATES.len())], rng);
                respell(&sql, rng)
            }
            7 => fill(
                "SELECT count(*) FROM lineorder l, date d WHERE l.lo_orderdate = d.d_datekey \
                 AND d.d_year BETWEEN # AND #",
                rng,
            ),
            _ => fuzz(rng),
        }
    }

    type QueryBits = (
        String,
        Vec<usize>,
        Vec<Vec<(usize, usize, usize, usize)>>,
        Vec<u64>,
        u64,
        u64,
    );

    /// Everything observable about a monitor's window, floats by bit pattern.
    fn state(m: &WorkloadMonitor) -> (Vec<u64>, u64, Vec<QueryBits>) {
        let pending = m
            .pending()
            .into_iter()
            .map(|(q, n)| {
                let joins = q
                    .joins
                    .iter()
                    .map(|j| {
                        j.pairs
                            .iter()
                            .map(|(a, b)| (a.table.0, a.attr.0, b.table.0, b.attr.0))
                            .collect()
                    })
                    .collect();
                (
                    q.name,
                    q.tables.iter().map(|t| t.0).collect(),
                    joins,
                    q.selectivity.iter().map(|s| s.to_bits()).collect(),
                    q.cpu_factor.to_bits(),
                    n,
                )
            })
            .collect();
        let counts = m.window_counts().iter().map(|c| c.to_bits()).collect();
        (counts, m.window_total(), pending)
    }

    /// A window as `restore_window` takes it.
    type Window = (Vec<f64>, u64, Vec<(Query, u64)>);

    /// The memo monitor and the oracle, driven in lockstep.
    struct Lockstep {
        memo: WorkloadMonitor,
        oracle: WorkloadMonitor,
        /// Draws the interleaved calls.
        rng: StdRng,
        /// Next slot `register` hands out.
        next_slot: usize,
        /// The window the next `restore_window` puts back.
        saved: Option<Window>,
        /// Known, new, rejected.
        outcomes: [u64; 3],
    }

    impl Lockstep {
        fn new(seed: u64) -> Self {
            let schema = lpa_schema::ssb::schema(0.005).expect("schema builds");
            let workload = lpa_workload::ssb::workload(&schema).expect("workload builds");
            Self {
                memo: WorkloadMonitor::new(schema.clone(), &workload),
                oracle: WorkloadMonitor::new(schema, &workload),
                rng: StdRng::seed_from_u64(seed),
                next_slot: workload.slots(),
                saved: None,
                outcomes: [0; 3],
            }
        }

        fn check(&self, after: &str) {
            assert_eq!(state(&self.memo), state(&self.oracle), "after {after}");
            assert!(self.memo.shapes.len() <= SHAPE_MEMO_CAP);
        }

        fn observe(&mut self, sql: &str) {
            let got = self.memo.observe(sql);
            assert_eq!(got, self.oracle.observe_uncached(sql), "{sql:?}");
            self.outcomes[match got {
                Observation::Known(_) => 0,
                Observation::New(_) => 1,
                Observation::Rejected(_) => 2,
            }] += 1;
            self.check(sql);
        }

        /// One of the calls that change what a signature counts as.
        fn interleave(&mut self) {
            match self.rng.gen_range(0..4) {
                0 => {
                    let Some((q, _)) = self.oracle.pending().into_iter().next() else {
                        return;
                    };
                    let id = QueryId(self.next_slot);
                    self.next_slot += 1;
                    self.memo.register(id, &q);
                    self.oracle.register(id, &q);
                    self.check("register");
                }
                1 => {
                    self.memo.clear_pending();
                    self.oracle.clear_pending();
                    self.check("clear_pending");
                }
                2 => {
                    self.memo.reset_window();
                    self.oracle.reset_window();
                    self.check("reset_window");
                }
                _ => {
                    // Put back the window saved last time (if `register`
                    // has not grown the slots since), save the current one.
                    let o = &self.oracle;
                    let now = (o.window_counts().to_vec(), o.window_total(), o.pending());
                    let Some((counts, total, pending)) = self.saved.replace(now) else {
                        return;
                    };
                    if counts.len() == o.window_counts().len() {
                        let (c, p) = (counts.clone(), pending.clone());
                        self.memo
                            .restore_window(c, total, p)
                            .expect("slots line up");
                        self.oracle
                            .restore_window(counts, total, pending)
                            .expect("slots line up");
                        self.check("restore_window");
                    }
                }
            }
        }
    }

    #[test]
    fn memo_observes_exactly_like_the_uncached_oracle() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut m = Lockstep::new(0xD1FF);
        for i in 0..4000 {
            let sql = statement(&mut rng);
            m.observe(&sql);
            if i % 97 == 0 {
                m.interleave();
            }
        }
        let [known, new, rejected] = m.outcomes;
        assert!(
            known > 1000 && new > 300 && rejected > 300,
            "{:?}",
            m.outcomes
        );
        assert!(m.next_slot > 13, "register ran");
        // Template, respelled and valid fuzz shapes: far fewer than the
        // statements that hit them.
        assert!(m.memo.shapes.len() < 400, "{}", m.memo.shapes.len());
    }

    /// More distinct shapes than the cap: the memo starts over, and stays
    /// exact before and after.
    #[test]
    fn memo_past_its_cap_stays_exact() {
        let mut rng = StdRng::seed_from_u64(0xCA9);
        let mut m = Lockstep::new(0xCA9);
        let shapes = SHAPE_MEMO_CAP + SHAPE_MEMO_CAP / 2;
        // A fresh alias is a fresh shape; every tenth is a new join shape.
        let mut sql = |i: usize| {
            let lit = rng.gen_range(0..25u32);
            if i.is_multiple_of(10) {
                format!("SELECT count(*) FROM customer c{i}, supplier s WHERE c{i}.c_city = s.s_city AND s.s_nation = {lit}")
            } else {
                format!("SELECT count(*) FROM lineorder l{i}, date d WHERE l{i}.lo_orderdate = d.d_datekey AND d.d_year = {lit}")
            }
        };
        // Forward, then backward: the second pass first hits the shapes
        // the memo kept after starting over, then misses its way past the
        // cap once more.
        let passes: [Vec<usize>; 2] = [(0..shapes).collect(), (0..shapes).rev().collect()];
        for (step, i) in passes.into_iter().flatten().enumerate() {
            m.observe(&sql(i));
            if step.is_multiple_of(211) {
                m.interleave();
            }
            if step + 1 == shapes || step + 1 == 2 * shapes {
                let kept = m.memo.shapes.len();
                assert_eq!(kept, shapes - SHAPE_MEMO_CAP, "started over at the cap");
            }
        }
        assert!(m.outcomes[0] > 0 && m.outcomes[1] > 0, "{:?}", m.outcomes);
    }
}
