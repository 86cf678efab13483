//! `shape_key` properties: literal values never reach the key, everything
//! the parser and resolver read does, `BETWEEN` has no key, and the key's
//! lexer accepts exactly what `tokenize` accepts.

mod common;

use lpa_sql::{parse_query, query_name, shape_key, tokenize, SqlError, Token};
use lpa_workload::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn key(sql: &str) -> Option<Vec<u8>> {
    shape_key(sql, &mut Vec::new()).map(<[u8]>::to_vec)
}

type Bits = (
    Vec<usize>,
    Vec<Vec<(usize, usize, usize, usize)>>,
    Vec<u64>,
    u64,
);

/// A query with its name blanked: everything else, floats by bit pattern.
fn bits(q: &Query) -> Bits {
    (
        q.tables.iter().map(|t| t.0).collect(),
        q.joins
            .iter()
            .map(|j| {
                j.pairs
                    .iter()
                    .map(|(a, b)| (a.table.0, a.attr.0, b.table.0, b.attr.0))
                    .collect()
            })
            .collect(),
        q.selectivity.iter().map(|s| s.to_bits()).collect(),
        q.cpu_factor.to_bits(),
    )
}

fn parsed(sql: &str) -> Result<Bits, SqlError> {
    let schema = lpa_schema::ssb::schema(0.005).expect("schema builds");
    parse_query(&schema, sql).map(|q| {
        assert_eq!(q.name, query_name(sql));
        bits(&q)
    })
}

fn number(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0..100_000u32).to_string(),
        1 => format!("{}.{}", rng.gen_range(0..100u32), rng.gen_range(0..100u32)),
        2 => format!("{}e{}", rng.gen_range(1..10u32), rng.gen_range(0..400u32)),
        _ => rng.gen::<u64>().to_string(),
    }
}

fn string(rng: &mut StdRng) -> String {
    let pool = [
        "",
        "x y",
        "BETWEEN",
        "select from",
        "漢字",
        "-- not a comment",
        "a,b",
    ];
    pool[rng.gen_range(0..pool.len())].to_string()
}

fn list(rng: &mut StdRng, n: usize, strings: bool) -> String {
    (0..n)
        .map(|_| {
            if strings {
                format!("'{}'", string(rng))
            } else {
                number(rng)
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Statement templates over SSB, every literal re-drawn per call (a sign
/// is a token of its own, so it is part of the template). Some resolve,
/// some are rejected (an unknown column, a cartesian product).
fn statement(template: usize, rng: &mut StdRng) -> String {
    let (n, m, s) = (number(rng), number(rng), string(rng));
    match template {
        0 => format!(
            "SELECT sum(l.lo_orderkey) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = {n} AND l.lo_orderkey < {m}"
        ),
        1 => format!(
            "SELECT c.c_city, sum(l.lo_orderkey) FROM lineorder l JOIN customer c \
             ON l.lo_custkey = c.c_custkey WHERE c.c_city = '{s}' AND c.c_nation IN ({}) \
             GROUP BY c.c_city ORDER BY c.c_city DESC LIMIT {}",
            list(rng, 4, false),
            rng.gen_range(1..100u32)
        ),
        2 => format!(
            "SELECT count(*) FROM lineorder l, part p WHERE l.lo_partkey = p.p_partkey \
             AND p.p_brand IN ({}) AND (p.p_category <> {n} OR p.p_brand LIKE '{s}')",
            list(rng, 3, true)
        ),
        3 => format!(
            "SELECT count(*) FROM lineorder l WHERE l.lo_suppkey IN \
             (SELECT s.s_suppkey FROM supplier s WHERE s.s_nation >= -{n}) \
             AND l.lo_custkey NOT IN (SELECT c.c_custkey FROM customer c \
             WHERE c.c_custkey = l.lo_custkey AND c.c_city = {m})"
        ),
        4 => format!("SELECT * FROM lineorder l WHERE l.nope = {n}"),
        _ => format!("SELECT * FROM lineorder, customer WHERE c_nation = '{s}'"),
    }
}

#[test]
fn redrawn_literals_share_a_key_and_parse_equal_but_for_the_name() {
    let mut rng = StdRng::seed_from_u64(0x5A9E);
    for template in 0..6 {
        let first = statement(template, &mut rng);
        let (k, q) = (key(&first).unwrap(), parsed(&first));
        assert_eq!(q.is_ok(), template < 4, "{first}: {q:?}");
        for _ in 0..50 {
            let sql = statement(template, &mut rng);
            assert_eq!(key(&sql).as_ref(), Some(&k), "{first}\n{sql}");
            assert_eq!(parsed(&sql), q, "{first}\n{sql}");
        }
    }
}

#[test]
fn keyword_case_whitespace_comments_and_neq_spelling_share_a_key() {
    let base = "SELECT count(*) FROM lineorder l, date d WHERE l.lo_orderdate = d.d_datekey \
                AND d.d_year <> 1993";
    for variant in [
        "select COUNT(*) from lineorder l, date d where l.lo_orderdate = d.d_datekey \
         and d.d_year <> 1993",
        "SeLeCt count(*)\n\tFROM LINEORDER L, Date D -- a comment\nWHERE L.lo_orderdate=D.d_datekey \
         AND d.d_year != 7",
    ] {
        assert_eq!(key(variant), key(base), "{variant}");
        assert_eq!(parsed(variant), parsed(base), "{variant}");
    }
}

#[test]
fn what_the_parser_or_resolver_reads_changes_the_key() {
    let base = "SELECT count(*) FROM lineorder l, part p WHERE l.lo_partkey = p.p_partkey \
                AND p.p_category IN (1, 2, 3) AND l.lo_orderkey < 5";
    for variant in [
        // IN-list arity.
        base.replace("(1, 2, 3)", "(1, 2, 3, 4)"),
        // Operator.
        base.replace("< 5", "<= 5"),
        // Number ↔ String.
        base.replace("< 5", "< '5'"),
        // Alias.
        base.replace(" l,", " lo,").replace("l.lo_", "lo.lo_"),
        // Identifier.
        base.replace("p.p_category", "p.p_brand"),
        // A sign is a token.
        base.replace("< 5", "< -5"),
    ] {
        assert_ne!(key(&variant), key(base), "{variant}");
    }
}

#[test]
fn between_has_no_key() {
    let mut rng = StdRng::seed_from_u64(0xBE7);
    for _ in 0..20 {
        let (lo, hi) = (number(&mut rng), number(&mut rng));
        let sql =
            format!("SELECT count(*) FROM lineorder l WHERE l.lo_orderkey between {lo} AND {hi}");
        assert!(tokenize(&sql).is_ok());
        assert_eq!(key(&sql), None, "{sql}");
    }
    // Only the keyword: an identifier or a string that spells it is fine.
    assert!(key("SELECT between_x FROM t WHERE t.a = 'between'").is_some());
}

#[test]
fn shape_key_and_tokenize_accept_the_same_inputs() {
    let (mut accepted, mut rejected) = (0, 0);
    for input in common::lexer_corpus() {
        let tokens = tokenize(&input);
        let keyed = key(&input).is_some();
        let between = tokens
            .as_ref()
            .is_ok_and(|t| t.contains(&Token::Keyword("BETWEEN".into())));
        assert_eq!(keyed, tokens.is_ok() && !between, "{input:?}");
        if keyed {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}
