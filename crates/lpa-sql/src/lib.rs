//! SQL frontend for the learned partitioning advisor.
//!
//! The advisor is driven by the *observed workload* — the SQL text a
//! customer's applications actually submit (Fig. 1 of the paper). This
//! crate turns that text into the advisor's internal representation:
//!
//! * [`lexer`] / [`parser`] — one borrowed-lexeme scanner and a
//!   recursive-descent parser over its tokens for the analytical
//!   `SELECT` subset (joins in `FROM`/`ON` or `WHERE`, conjunctive filter
//!   predicates, `IN (subquery)` / `EXISTS` nesting, `GROUP BY` /
//!   `ORDER BY` / `LIMIT` tails);
//! * [`mod@resolve`] — name resolution against a [`lpa_schema::Schema`]
//!   plus heuristic selectivity estimation, producing a
//!   [`lpa_workload::Query`] join graph. Nested subqueries are
//!   *flattened* into the outer join graph — the paper deliberately avoids
//!   encoding query structure into the network (Section 3.2), so all the
//!   advisor needs from a nested query is which tables it touches and how
//!   they join;
//! * [`shape_key`] — the scanner's second consumer: a literal-blind key
//!   under which equal keys mean equal [`parse_query`] results up to
//!   [`query_name`], so the workload monitor parses each statement shape once.
//!
//! ```
//! use lpa_sql::parse_query;
//! let schema = lpa_schema::ssb::schema(0.01).expect("schema builds");
//! let q = parse_query(
//!     &schema,
//!     "SELECT sum(lo_revenue) FROM lineorder l, date d \
//!      WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993",
//! )
//! .unwrap();
//! assert_eq!(q.joins.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
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
        clippy::disallowed_methods,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod resolve;

pub use ast::{ColumnRef, Predicate, SelectStmt, TableRef, Value};
pub use lexer::{shape_key, tokenize, LexError, Token};
pub use parser::{parse_select, ParseError};
pub use resolve::{resolve, ResolveError};

use lpa_schema::Schema;
use lpa_workload::Query;

/// One-stop helper: parse SQL text and resolve it against a schema.
pub fn parse_query(schema: &Schema, sql: &str) -> Result<Query, SqlError> {
    let tokens = tokenize(sql).map_err(SqlError::Lex)?;
    let stmt = parse_select(&tokens).map_err(SqlError::Parse)?;
    resolve(schema, &stmt, sql).map_err(SqlError::Resolve)
}

/// The name [`parse_query`] gives the query of `sql`: a hash of the raw
/// text, so two spellings of one statement are two names.
pub fn query_name(sql: &str) -> String {
    // FNV-1a.
    let mut h = 0xcbf29ce484222325u64;
    for b in sql.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("sql_{h:016x}")
}

/// Any error on the SQL → query path.
#[derive(Clone, PartialEq, Debug)]
pub enum SqlError {
    Lex(LexError),
    Parse(ParseError),
    Resolve(ResolveError),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Lex(e) => write!(f, "lex error: {e}"),
            Self::Parse(e) => write!(f, "parse error: {e}"),
            Self::Resolve(e) => write!(f, "resolve error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}
