//! Join-graph representation of a recurring OLAP query.

use lpa_schema::{AttrRef, Schema, TableId};
use std::collections::HashSet;
use std::fmt;

/// Index of a query within its [`Workload`](crate::Workload).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueryId(pub usize);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One equi-join between two tables.
///
/// `pairs[0]` is the *primary* join predicate (used for cardinality
/// estimation); the remaining pairs are attribute equivalences implied by
/// denormalized composite keys. The join can run locally if **any** pair
/// matches the partition keys of both inputs — e.g. `order ⋈ customer` on
/// `o_c_key = c_key` is local when both tables are partitioned by their
/// district columns, because an order's district equals its customer's.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JoinPred {
    pub pairs: Vec<(AttrRef, AttrRef)>,
}

impl JoinPred {
    pub fn new(pairs: Vec<(AttrRef, AttrRef)>) -> Self {
        assert!(!pairs.is_empty(), "join needs at least one attribute pair");
        Self { pairs }
    }

    /// The two joined tables (taken from the primary pair).
    pub fn tables(&self) -> (TableId, TableId) {
        (self.pairs[0].0.table, self.pairs[0].1.table)
    }
}

/// Errors from [`Query::validate`] / [`QueryBuilder`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryError {
    UnknownTable(String),
    UnknownAttribute(String),
    /// A join pair references tables other than the primary pair's tables.
    MixedJoinPair(String),
    /// The query's join graph is not connected.
    Disconnected(String),
    /// Selectivity outside `(0, 1]`, or not one selectivity per table.
    BadSelectivity(String),
    /// CPU factor not a positive finite number.
    BadCpuFactor(String),
    /// A join without a single attribute pair.
    EmptyJoin(String),
    NoTables(String),
    /// A selectivity-bucket sweep names a filter table the query never scans.
    FilterTableNotScanned(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTable(q) => write!(f, "query `{q}`: unknown table"),
            Self::UnknownAttribute(q) => write!(f, "query `{q}`: unknown attribute"),
            Self::MixedJoinPair(q) => write!(f, "query `{q}`: join pair spans wrong tables"),
            Self::Disconnected(q) => write!(f, "query `{q}`: join graph is disconnected"),
            Self::BadSelectivity(q) => write!(f, "query `{q}`: selectivity outside (0,1]"),
            Self::BadCpuFactor(q) => write!(f, "query `{q}`: cpu factor not positive and finite"),
            Self::EmptyJoin(q) => write!(f, "query `{q}`: join without an attribute pair"),
            Self::NoTables(q) => write!(f, "query `{q}`: no tables"),
            Self::FilterTableNotScanned(q) => {
                write!(f, "query `{q}`: filter table is not scanned by the query")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A recurring analytical query, reduced to the features that partitioning
/// decisions can exploit: which tables it touches, how they join, and how
/// selective the local predicates are.
#[derive(Clone, Debug)]
pub struct Query {
    pub name: String,
    /// Tables scanned, in no particular order.
    pub tables: Vec<TableId>,
    /// Equi-joins between the tables (connected graph).
    pub joins: Vec<JoinPred>,
    /// Fraction of each table's rows surviving its local predicates;
    /// parallel to `tables`, defaults to 1.0.
    pub selectivity: Vec<f64>,
    /// Multiplier for per-tuple CPU work (heavy aggregation ≈ > 1).
    pub cpu_factor: f64,
}

impl Query {
    /// Selectivity for one of the query's tables (1.0 if not filtered).
    pub fn table_selectivity(&self, table: TableId) -> f64 {
        self.tables
            .iter()
            .position(|t| *t == table)
            .map(|i| self.selectivity[i])
            .unwrap_or(1.0)
    }

    /// Whether the query scans the given table.
    pub fn uses_table(&self, table: TableId) -> bool {
        self.tables.contains(&table)
    }

    /// Validate against a schema: names resolve, the join graph is
    /// connected, selectivities are in range and parallel to the tables.
    /// Total over any field values — a query decoded from disk is checked
    /// here before anything indexes into it.
    pub fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        let q = || self.name.clone();
        if self.tables.is_empty() {
            return Err(QueryError::NoTables(q()));
        }
        let table_set: HashSet<_> = self.tables.iter().copied().collect();
        for &t in &self.tables {
            if t.0 >= schema.tables().len() {
                return Err(QueryError::UnknownTable(q()));
            }
        }
        if self.selectivity.len() != self.tables.len()
            || self.selectivity.iter().any(|s| !(*s > 0.0 && *s <= 1.0))
        {
            return Err(QueryError::BadSelectivity(q()));
        }
        if !(self.cpu_factor > 0.0 && self.cpu_factor.is_finite()) {
            return Err(QueryError::BadCpuFactor(q()));
        }
        for j in &self.joins {
            if j.pairs.is_empty() {
                return Err(QueryError::EmptyJoin(q()));
            }
            let (ta, tb) = j.tables();
            for (a, b) in &j.pairs {
                let same = (a.table == ta && b.table == tb) || (a.table == tb && b.table == ta);
                if !same {
                    return Err(QueryError::MixedJoinPair(q()));
                }
                for r in [a, b] {
                    if r.table.0 >= schema.tables().len()
                        || r.attr.0 >= schema.table(r.table).attributes.len()
                    {
                        return Err(QueryError::UnknownAttribute(q()));
                    }
                    if !table_set.contains(&r.table) {
                        return Err(QueryError::UnknownTable(q()));
                    }
                }
            }
        }
        // Connectivity over the join graph (single-table queries are fine).
        if self.tables.len() > 1 {
            let mut reached: HashSet<TableId> = HashSet::new();
            let mut stack = vec![self.tables[0]];
            while let Some(t) = stack.pop() {
                if !reached.insert(t) {
                    continue;
                }
                for j in &self.joins {
                    let (a, b) = j.tables();
                    if a == t && !reached.contains(&b) {
                        stack.push(b);
                    }
                    if b == t && !reached.contains(&a) {
                        stack.push(a);
                    }
                }
            }
            if reached.len() != table_set.len() {
                return Err(QueryError::Disconnected(q()));
            }
        }
        Ok(())
    }

    /// Estimated rows scanned from a table after local predicates.
    pub fn scanned_rows(&self, schema: &Schema, table: TableId) -> f64 {
        schema.table(table).rows as f64 * self.table_selectivity(table)
    }
}

/// One equi-join pair by name: `((table, attr), (table, attr))`.
pub type NamedJoinPair<'a> = ((&'a str, &'a str), (&'a str, &'a str));

/// Name-based builder resolving against a schema; used by the built-in
/// workloads and by tests/examples.
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    schema: &'a Schema,
    name: String,
    tables: Vec<TableId>,
    joins: Vec<JoinPred>,
    selectivity: Vec<f64>,
    cpu_factor: f64,
    error: Option<QueryError>,
}

impl<'a> QueryBuilder<'a> {
    pub fn new(schema: &'a Schema, name: impl Into<String>) -> Self {
        Self {
            schema,
            name: name.into(),
            tables: Vec::new(),
            joins: Vec::new(),
            selectivity: Vec::new(),
            cpu_factor: 1.0,
            error: None,
        }
    }

    /// Register a table and return its index in `tables`.
    fn touch(&mut self, t: TableId) -> usize {
        match self.tables.iter().position(|x| *x == t) {
            Some(i) => i,
            None => {
                self.tables.push(t);
                self.selectivity.push(1.0);
                self.tables.len() - 1
            }
        }
    }

    fn resolve(&mut self, table: &str, attr: &str) -> Option<AttrRef> {
        match self.schema.attr_ref(table, attr) {
            Some(r) => Some(r),
            None => {
                self.error
                    .get_or_insert(QueryError::UnknownAttribute(format!(
                        "{} ({table}.{attr})",
                        self.name
                    )));
                None
            }
        }
    }

    /// Add a table without a join (single-table scans).
    pub fn scan(mut self, table: &str) -> Self {
        match self.schema.table_by_name(table) {
            Some(t) => {
                self.touch(t);
            }
            None => {
                self.error
                    .get_or_insert(QueryError::UnknownTable(format!("{} ({table})", self.name)));
            }
        }
        self
    }

    /// Add an equi-join on a single attribute pair.
    pub fn join(self, a: (&str, &str), b: (&str, &str)) -> Self {
        self.join_multi(&[(a, b)])
    }

    /// Add an equi-join with several equivalent attribute pairs (composite /
    /// denormalized keys). The first pair is the primary predicate.
    pub fn join_multi(mut self, pairs: &[NamedJoinPair<'_>]) -> Self {
        let mut resolved = Vec::with_capacity(pairs.len());
        for ((ta, aa), (tb, ab)) in pairs {
            let (Some(a), Some(b)) = (self.resolve(ta, aa), self.resolve(tb, ab)) else {
                return self;
            };
            resolved.push((a, b));
        }
        if let Some((a, b)) = resolved.first().copied() {
            self.touch(a.table);
            self.touch(b.table);
            self.joins.push(JoinPred::new(resolved));
            debug_assert!(a != b);
        }
        self
    }

    /// Set the local-predicate selectivity of a table.
    pub fn filter(mut self, table: &str, selectivity: f64) -> Self {
        match self.schema.table_by_name(table) {
            Some(t) => {
                let i = self.touch(t);
                if let Some(slot) = self.selectivity.get_mut(i) {
                    *slot = selectivity;
                }
            }
            None => {
                self.error
                    .get_or_insert(QueryError::UnknownTable(format!("{} ({table})", self.name)));
            }
        }
        self
    }

    /// Set the CPU weight (heavy aggregations > 1).
    pub fn cpu(mut self, factor: f64) -> Self {
        self.cpu_factor = factor;
        self
    }

    /// Finish and validate.
    pub fn finish(self) -> Result<Query, QueryError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let q = Query {
            name: self.name,
            tables: self.tables,
            joins: self.joins,
            selectivity: self.selectivity,
            cpu_factor: self.cpu_factor,
        };
        q.validate(self.schema)?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        lpa_schema::ssb::schema(0.001).expect("schema builds")
    }

    #[test]
    fn builder_resolves_names() {
        let s = schema();
        let q = QueryBuilder::new(&s, "t")
            .join(("lineorder", "lo_custkey"), ("customer", "c_custkey"))
            .filter("customer", 0.2)
            .finish()
            .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1);
        let cust = s.table_by_name("customer").unwrap();
        assert!((q.table_selectivity(cust) - 0.2).abs() < 1e-12);
        assert!((q.table_selectivity(s.table_by_name("part").unwrap()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_names_reported() {
        let s = schema();
        let err = QueryBuilder::new(&s, "t")
            .join(("lineorder", "nope"), ("customer", "c_custkey"))
            .finish()
            .unwrap_err();
        assert!(matches!(err, QueryError::UnknownAttribute(_)));
    }

    #[test]
    fn disconnected_join_graph_rejected() {
        let s = schema();
        let err = QueryBuilder::new(&s, "t")
            .join(("lineorder", "lo_custkey"), ("customer", "c_custkey"))
            .scan("part")
            .finish()
            .unwrap_err();
        assert!(matches!(err, QueryError::Disconnected(_)));
    }

    #[test]
    fn bad_selectivity_rejected() {
        let s = schema();
        let err = QueryBuilder::new(&s, "t")
            .scan("part")
            .filter("part", 0.0)
            .finish()
            .unwrap_err();
        assert!(matches!(err, QueryError::BadSelectivity(_)));
    }

    #[test]
    fn validate_is_total_over_malformed_shapes() {
        let s = schema();
        let good = QueryBuilder::new(&s, "t")
            .join(("lineorder", "lo_custkey"), ("customer", "c_custkey"))
            .finish()
            .unwrap();
        let broken = |edit: fn(&mut Query)| {
            let mut q = good.clone();
            edit(&mut q);
            q.validate(&s).unwrap_err()
        };
        assert!(matches!(
            broken(|q| q.joins[0].pairs.clear()),
            QueryError::EmptyJoin(_)
        ));
        assert!(matches!(
            broken(|q| q.selectivity.truncate(1)),
            QueryError::BadSelectivity(_)
        ));
        for cpu in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut q = good.clone();
            q.cpu_factor = cpu;
            assert!(matches!(q.validate(&s), Err(QueryError::BadCpuFactor(_))));
        }
    }

    #[test]
    fn single_table_scan_is_valid() {
        let s = schema();
        let q = QueryBuilder::new(&s, "t")
            .scan("lineorder")
            .finish()
            .unwrap();
        assert!(q.joins.is_empty());
        assert!(q.uses_table(s.table_by_name("lineorder").unwrap()));
    }

    #[test]
    fn scanned_rows_scale_with_selectivity() {
        let s = schema();
        let lo = s.table_by_name("lineorder").unwrap();
        let q = QueryBuilder::new(&s, "t")
            .scan("lineorder")
            .filter("lineorder", 0.5)
            .finish()
            .unwrap();
        assert!((q.scanned_rows(&s, lo) - s.table(lo).rows as f64 * 0.5).abs() < 1e-6);
    }
}
