//! Name resolution + selectivity estimation: AST → advisor [`Query`].
//!
//! Nested subqueries are flattened into the outer join graph: an
//! `x IN (SELECT y FROM …)` contributes the subquery's tables and joins
//! plus an equi-join `x = y` (a semi-join approximated as a join — the
//! advisor only needs the co-location structure, not exact cardinalities).
//! Correlated predicates resolve against the combined alias environment.

use crate::ast::{ColumnRef, Predicate, SelectStmt, TableRef, Value};
use lpa_schema::{AttrRef, Schema, TableId};
use lpa_workload::{JoinPred, Query, QueryError};
use std::collections::HashMap;
use std::fmt;

/// Resolution failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResolveError {
    UnknownTable(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
    /// The statement's tables are not all connected by joins.
    CartesianProduct,
    NoTables,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            Self::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            Self::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            Self::CartesianProduct => write!(f, "tables are not connected by join predicates"),
            Self::NoTables => write!(f, "statement references no tables"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Default selectivities for predicate shapes whose true selectivity the
/// advisor cannot know from the text alone.
mod sel {
    pub const RANGE: f64 = 1.0 / 3.0;
    pub const BETWEEN: f64 = 0.1;
    pub const NEQ: f64 = 0.9;
    pub const LIKE: f64 = 0.05;
    pub const OPAQUE: f64 = 0.5;
    pub const NOT_IN_SUBQUERY: f64 = 0.5;
    pub const FLOOR: f64 = 1e-6;
}

struct Scope {
    /// alias or table name → table id.
    env: HashMap<String, TableId>,
    /// Tables in first-reference order.
    tables: Vec<TableId>,
}

impl Scope {
    fn add(&mut self, schema: &Schema, r: &TableRef) -> Result<TableId, ResolveError> {
        let id = schema
            .table_by_name(&r.name)
            .ok_or_else(|| ResolveError::UnknownTable(r.name.clone()))?;
        if !self.tables.contains(&id) {
            self.tables.push(id);
        }
        self.env.insert(r.name.clone(), id);
        if let Some(a) = &r.alias {
            self.env.insert(a.clone(), id);
        }
        Ok(id)
    }

    fn column(&self, schema: &Schema, c: &ColumnRef) -> Result<AttrRef, ResolveError> {
        if let Some(t) = &c.table {
            let id = self
                .env
                .get(t)
                .copied()
                .ok_or_else(|| ResolveError::UnknownTable(t.clone()))?;
            let attr = schema
                .table(id)
                .attr_by_name(&c.column)
                .ok_or_else(|| ResolveError::UnknownColumn(format!("{t}.{}", c.column)))?;
            return Ok(AttrRef::new(id, attr));
        }
        // Bare column: search all in-scope tables.
        let mut found = None;
        for &id in &self.tables {
            if let Some(attr) = schema.table(id).attr_by_name(&c.column) {
                if found.is_some() {
                    return Err(ResolveError::AmbiguousColumn(c.column.clone()));
                }
                found = Some(AttrRef::new(id, attr));
            }
        }
        found.ok_or_else(|| ResolveError::UnknownColumn(c.column.clone()))
    }
}

/// Resolve a parsed statement against a schema.
pub fn resolve(schema: &Schema, stmt: &SelectStmt, sql: &str) -> Result<Query, ResolveError> {
    let mut scope = Scope {
        env: HashMap::new(),
        tables: Vec::new(),
    };
    let mut preds: Vec<Predicate> = Vec::new();
    let mut extra_joins: Vec<(ColumnRef, ColumnRef)> = Vec::new();
    let mut aggregates = stmt.aggregates;
    flatten(
        schema,
        stmt,
        &mut scope,
        &mut preds,
        &mut extra_joins,
        &mut aggregates,
    )?;
    if scope.tables.is_empty() {
        return Err(ResolveError::NoTables);
    }

    // Resolve predicates into joins and per-table selectivities.
    let mut joins: HashMap<(TableId, TableId), Vec<(AttrRef, AttrRef)>> = HashMap::new();
    let mut selectivity: HashMap<TableId, f64> = HashMap::new();
    let apply_sel = |t: TableId, s: f64, map: &mut HashMap<TableId, f64>| {
        let e = map.entry(t).or_insert(1.0);
        *e = (*e * s).max(sel::FLOOR);
    };

    let add_join = |a: AttrRef,
                    b: AttrRef,
                    joins: &mut HashMap<(TableId, TableId), Vec<(AttrRef, AttrRef)>>,
                    selmap: &mut HashMap<TableId, f64>| {
        if a.table == b.table {
            // Same-table equality: treat as a filter.
            apply_sel(a.table, sel::OPAQUE, selmap);
            return;
        }
        let key = if a.table < b.table {
            (a.table, b.table)
        } else {
            (b.table, a.table)
        };
        let pair = if a.table < b.table { (a, b) } else { (b, a) };
        let pairs = joins.entry(key).or_default();
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    };

    for (ca, cb) in &extra_joins {
        let a = scope.column(schema, ca)?;
        let b = scope.column(schema, cb)?;
        add_join(a, b, &mut joins, &mut selectivity);
    }

    for p in &preds {
        match p {
            Predicate::ColEq(ca, cb) => {
                let a = scope.column(schema, ca)?;
                let b = scope.column(schema, cb)?;
                add_join(a, b, &mut joins, &mut selectivity);
            }
            Predicate::Cmp { col, op, value } => {
                let a = scope.column(schema, col)?;
                let s = match op.as_str() {
                    "=" => 1.0 / schema.attr_distinct(a) as f64,
                    "<>" => sel::NEQ,
                    "LIKE" => sel::LIKE,
                    _ => sel::RANGE,
                };
                let _ = value;
                apply_sel(a.table, s, &mut selectivity);
            }
            Predicate::Between { col, lo, hi } => {
                let a = scope.column(schema, col)?;
                // Numeric ranges give a hint when the domain is known.
                let s = match (lo, hi) {
                    (Value::Number(l), Value::Number(h)) if h > l => {
                        let d = schema.attr_distinct(a) as f64;
                        ((h - l) / d)
                            .clamp(sel::FLOOR, 1.0)
                            .min(sel::BETWEEN.max((h - l) / d))
                    }
                    _ => sel::BETWEEN,
                };
                apply_sel(a.table, s.min(1.0), &mut selectivity);
            }
            Predicate::InList { col, values } => {
                let a = scope.column(schema, col)?;
                let s = (values.len() as f64 / schema.attr_distinct(a) as f64).min(1.0);
                apply_sel(a.table, s, &mut selectivity);
            }
            Predicate::InSubquery { col, negated, .. } => {
                // The subquery body was flattened already; a NOT IN keeps
                // only an opaque filter on the outer column's table.
                if *negated {
                    if let Some(c) = col {
                        let a = scope.column(schema, c)?;
                        apply_sel(a.table, sel::NOT_IN_SUBQUERY, &mut selectivity);
                    }
                }
            }
            Predicate::Opaque { cols } => {
                let mut seen = Vec::new();
                for c in cols {
                    let a = scope.column(schema, c)?;
                    if !seen.contains(&a.table) {
                        seen.push(a.table);
                        apply_sel(a.table, sel::OPAQUE, &mut selectivity);
                    }
                }
            }
        }
    }

    let cpu_factor = 1.0
        + 0.2 * aggregates as f64
        + if stmt.group_by.is_empty() { 0.0 } else { 0.2 }
        + if stmt.has_order_by { 0.1 } else { 0.0 };

    let tables = scope.tables.clone();
    let sel_vec: Vec<f64> = tables
        .iter()
        .map(|t| selectivity.get(t).copied().unwrap_or(1.0))
        .collect();
    let join_vec: Vec<JoinPred> = {
        let mut keys: Vec<_> = joins.keys().copied().collect();
        keys.sort();
        keys.into_iter()
            .filter_map(|k| joins.remove(&k))
            .map(JoinPred::new)
            .collect()
    };

    let q = Query {
        name: crate::query_name(sql),
        tables,
        joins: join_vec,
        selectivity: sel_vec,
        cpu_factor,
    };
    q.validate(schema).map_err(|e| match e {
        QueryError::Disconnected(_) => ResolveError::CartesianProduct,
        QueryError::UnknownTable(_)
        | QueryError::UnknownAttribute(_)
        | QueryError::MixedJoinPair(_)
        | QueryError::BadSelectivity(_)
        | QueryError::BadCpuFactor(_)
        | QueryError::EmptyJoin(_)
        | QueryError::NoTables(_)
        | QueryError::FilterTableNotScanned(_) => ResolveError::UnknownColumn(format!("{e}")),
    })?;
    Ok(q)
}

/// Merge a statement (and, recursively, its subqueries) into the shared
/// scope and predicate lists.
fn flatten(
    schema: &Schema,
    stmt: &SelectStmt,
    scope: &mut Scope,
    preds: &mut Vec<Predicate>,
    extra_joins: &mut Vec<(ColumnRef, ColumnRef)>,
    aggregates: &mut usize,
) -> Result<(), ResolveError> {
    for t in &stmt.from {
        scope.add(schema, t)?;
    }
    for p in &stmt.predicates {
        if let Predicate::InSubquery {
            col,
            negated,
            subquery,
        } = p
        {
            *aggregates += subquery.aggregates;
            flatten(schema, subquery, scope, preds, extra_joins, aggregates)?;
            if !negated {
                if let (Some(outer), Some(inner)) = (col, first_projected_column(subquery)) {
                    extra_joins.push((outer.clone(), inner));
                }
            }
            // Keep the predicate itself for the NOT IN filter handling.
            preds.push(p.clone());
        } else {
            preds.push(p.clone());
        }
    }
    Ok(())
}

/// The column an `IN (SELECT col FROM …)` subquery projects — we re-parse
/// it from the statement's group-by/predicates shape: the parser does not
/// retain projections, so the convention is that the *first* predicate
/// column of the subquery's driving table stands in. To keep this robust
/// we instead look at the subquery's first FROM table and pick its first
/// column mentioned anywhere; when nothing is mentioned, `None`.
fn first_projected_column(sub: &SelectStmt) -> Option<ColumnRef> {
    // Prefer an explicitly projected column recorded by the parser; the
    // lightweight parser skips projections, so fall back to the first
    // column reference in the subquery's predicates that belongs to one of
    // the subquery's own tables (by alias or name).
    let own: Vec<&str> = sub
        .from
        .iter()
        .flat_map(|t| [t.name.as_str()].into_iter().chain(t.alias.as_deref()))
        .collect();
    for p in &sub.predicates {
        for c in pred_cols(p) {
            if let Some(t) = &c.table {
                if own.contains(&t.as_str()) {
                    return Some(c.clone());
                }
            }
        }
    }
    None
}

fn pred_cols(p: &Predicate) -> Vec<&ColumnRef> {
    match p {
        Predicate::ColEq(a, b) => vec![a, b],
        Predicate::Cmp { col, .. }
        | Predicate::Between { col, .. }
        | Predicate::InList { col, .. } => vec![col],
        Predicate::InSubquery { col, .. } => col.iter().collect(),
        Predicate::Opaque { cols } => cols.iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn ssb() -> Schema {
        lpa_schema::ssb::schema(0.01).expect("schema builds")
    }

    #[test]
    fn simple_join_with_filters() {
        let schema = ssb();
        let q = parse_query(
            &schema,
            "SELECT sum(lo_revenue) FROM lineorder l, date d \
             WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 \
             AND l.lo_orderkey > 100",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1);
        let date = schema.table_by_name("date").unwrap();
        // d_year = literal → 1/7 selectivity.
        assert!((q.table_selectivity(date) - 1.0 / 7.0).abs() < 1e-9);
        let lo = schema.table_by_name("lineorder").unwrap();
        assert!((q.table_selectivity(lo) - 1.0 / 3.0).abs() < 1e-9);
        assert!(q.cpu_factor > 1.0);
    }

    #[test]
    fn bare_columns_resolve_via_search() {
        let schema = ssb();
        let q = parse_query(
            &schema,
            "SELECT count(*) FROM lineorder, customer \
             WHERE lo_custkey = c_custkey AND c_nation = 7",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        let cust = schema.table_by_name("customer").unwrap();
        assert!((q.table_selectivity(cust) - 1.0 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn composite_join_predicates_merge_into_one_joinpred() {
        let schema = lpa_schema::tpcds::schema(0.001).expect("schema builds");
        let q = parse_query(
            &schema,
            "SELECT count(*) FROM store_sales ss, store_returns sr \
             WHERE ss.ss_ticket_number = sr.sr_ticket_number \
             AND ss.ss_item_sk = sr.sr_item_sk",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1, "one join with two pairs");
        assert_eq!(q.joins[0].pairs.len(), 2);
    }

    #[test]
    fn in_subquery_flattens_to_join() {
        let schema = lpa_schema::tpcch::schema(0.0005).expect("schema builds");
        let q = parse_query(
            &schema,
            "SELECT count(*) FROM item i WHERE i.i_id IN \
             (SELECT ol.ol_i_id FROM orderline ol WHERE ol.ol_d_id = 3)",
        )
        .unwrap();
        let ol = schema.table_by_name("orderline").unwrap();
        assert!(q.uses_table(ol), "subquery table flattened in");
        assert_eq!(q.joins.len(), 1, "semi-join became a join");
        // The subquery's district filter survives.
        assert!(q.table_selectivity(ol) < 1.0);
    }

    #[test]
    fn exists_correlated_subquery() {
        let schema = lpa_schema::tpcch::schema(0.0005).expect("schema builds");
        let q = parse_query(
            &schema,
            "SELECT count(*) FROM supplier s WHERE EXISTS \
             (SELECT st.s_key FROM stock st WHERE st.s_su_key = s.su_key)",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1, "correlation predicate is the join");
    }

    #[test]
    fn cartesian_product_rejected() {
        let schema = ssb();
        let err = parse_query(&schema, "SELECT * FROM lineorder, customer").unwrap_err();
        assert!(matches!(
            err,
            crate::SqlError::Resolve(ResolveError::CartesianProduct)
        ));
    }

    #[test]
    fn unknown_names_rejected() {
        let schema = ssb();
        assert!(parse_query(&schema, "SELECT * FROM nope").is_err());
        assert!(parse_query(&schema, "SELECT * FROM lineorder l WHERE l.nope = 1").is_err());
    }

    #[test]
    fn in_list_selectivity_uses_domain() {
        let schema = ssb();
        let q = parse_query(
            &schema,
            "SELECT count(*) FROM lineorder l, part p \
             WHERE l.lo_partkey = p.p_partkey AND p.p_category IN (1, 2, 3)",
        )
        .unwrap();
        let part = schema.table_by_name("part").unwrap();
        assert!((q.table_selectivity(part) - 3.0 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn queries_are_named_by_text_hash() {
        let schema = ssb();
        let a = parse_query(&schema, "SELECT * FROM lineorder l WHERE l.lo_orderkey = 5").unwrap();
        let b = parse_query(&schema, "SELECT * FROM lineorder l WHERE l.lo_orderkey = 5").unwrap();
        let c = parse_query(&schema, "SELECT * FROM lineorder l WHERE l.lo_orderkey = 6").unwrap();
        assert_eq!(a.name, b.name);
        assert_ne!(a.name, c.name);
    }
}
