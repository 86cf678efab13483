//! Robustness: the SQL pipeline must never panic, whatever the input.
//!
//! Formerly `proptest`-driven; now a deterministic seeded fuzzer over the
//! vendored `StdRng` (case counts match the old `ProptestConfig`).

mod common;

use common::{lexer_corpus, random_string};
use lpa_sql::{parse_query, parse_select, tokenize};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn lexer_never_panics() {
    for input in lexer_corpus() {
        let _ = tokenize(&input);
    }
}

#[test]
fn parser_never_panics_on_token_soup() {
    let pool: Vec<char> =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ ,.()=<>'*"
            .chars()
            .collect();
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x8000 + case);
        let input = random_string(&mut rng, &pool, 160);
        if let Ok(tokens) = tokenize(&input) {
            let _ = parse_select(&tokens);
        }
    }
}

#[test]
fn resolver_never_panics_on_sqlish_text() {
    let tables = ["lineorder", "customer", "part", "supplier", "date", "nope"];
    let cols_a = [
        "lo_orderkey",
        "lo_custkey",
        "c_custkey",
        "p_partkey",
        "bogus",
    ];
    let cols_b = ["c_custkey", "d_datekey", "s_suppkey", "bogus"];
    let schema = lpa_schema::ssb::schema(0.001).expect("schema builds");
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x9000 + case);
        let table = tables[rng.gen_range(0..tables.len())];
        let col_a = cols_a[rng.gen_range(0..cols_a.len())];
        let col_b = cols_b[rng.gen_range(0..cols_b.len())];
        let lit = rng.gen_range(0u32..10_000);
        let sql = format!(
            "SELECT count(*) FROM {table} t, customer c WHERE t.{col_a} = c.{col_b} AND c.c_nation = {lit}"
        );
        let _ = parse_query(&schema, &sql);
    }
}

#[test]
fn deeply_nested_subqueries_do_not_blow_up() {
    let schema = lpa_schema::tpcch::schema(0.0005).expect("schema builds");
    let sql = "SELECT count(*) FROM item i WHERE i.i_id IN \
        (SELECT ol.ol_i_id FROM orderline ol WHERE ol.ol_o_key IN \
            (SELECT o.o_key FROM \"order\" o WHERE o.o_d_id = 1))";
    // Double-quoted identifiers are not supported; the bare keywordless
    // variant is.
    let _ = lpa_sql::parse_query(&schema, sql);
    let ok = lpa_sql::parse_query(
        &schema,
        "SELECT count(*) FROM item i WHERE i.i_id IN \
         (SELECT ol.ol_i_id FROM orderline ol WHERE ol.ol_o_key IN \
             (SELECT no.no_o_key FROM neworder no WHERE no.no_d_id = 1))",
    )
    .expect("keywordless nesting parses");
    assert_eq!(ok.tables.len(), 3, "both nesting levels flattened");
    assert_eq!(ok.joins.len(), 2);
}
