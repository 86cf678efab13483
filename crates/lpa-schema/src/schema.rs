//! Schema container, builder and validation.

use crate::attribute::{AttrKind, Attribute, Domain};
use crate::edge::JoinEdge;
use crate::ids::{AttrRef, EdgeId, TableId};
use crate::table::Table;
use std::collections::HashMap;
use std::fmt;

/// Errors detected by [`Schema::validate`] or the builder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SchemaError {
    DuplicateTable(String),
    DuplicateAttribute { table: String, attr: String },
    UnknownTable(String),
    UnknownAttribute { table: String, attr: String },
    DanglingForeignKey { table: String, attr: String },
    BadCompound { table: String, attr: String },
    BadInheritance { table: String, attr: String },
    EmptyTable(String),
    NoPartitionableAttribute(String),
    DuplicateEdge(JoinEdge),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateTable(t) => write!(f, "duplicate table `{t}`"),
            Self::DuplicateAttribute { table, attr } => {
                write!(f, "duplicate attribute `{attr}` in table `{table}`")
            }
            Self::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            Self::UnknownAttribute { table, attr } => {
                write!(f, "unknown attribute `{table}.{attr}`")
            }
            Self::DanglingForeignKey { table, attr } => {
                write!(f, "foreign key `{table}.{attr}` references a missing table")
            }
            Self::BadCompound { table, attr } => {
                write!(
                    f,
                    "compound attribute `{table}.{attr}` has invalid components"
                )
            }
            Self::BadInheritance { table, attr } => {
                write!(
                    f,
                    "inherited attribute `{table}.{attr}` must resolve through a foreign key"
                )
            }
            Self::EmptyTable(t) => write!(f, "table `{t}` has no attributes"),
            Self::NoPartitionableAttribute(t) => {
                write!(f, "table `{t}` has no partitionable attribute")
            }
            Self::DuplicateEdge(e) => write!(f, "duplicate edge {} = {}", e.left, e.right),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A complete database schema: tables plus the fixed set of candidate
/// co-partitioning edges (Section 3.2).
#[derive(Clone, Debug)]
pub struct Schema {
    pub name: String,
    tables: Vec<Table>,
    edges: Vec<JoinEdge>,
}

impl Schema {
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    pub fn edge(&self, id: EdgeId) -> &JoinEdge {
        &self.edges[id.0]
    }

    /// Number of rows of the table referenced by `r`'s domain — the distinct
    /// count of the attribute's value domain at the current scale.
    /// Inherited attributes resolve through the foreign-key chain.
    pub fn attr_distinct(&self, r: AttrRef) -> u64 {
        let table = self.table(r.table);
        let attr = &table.attributes[r.attr.0];
        match attr.domain {
            Domain::PrimaryKey => table.rows.max(1),
            Domain::ForeignKey(parent) => self.table(parent).rows.max(1),
            Domain::Fixed(n) => n.max(1),
            Domain::Inherited { via, parent_attr } => {
                match table.attributes[via.0].domain {
                    Domain::ForeignKey(parent) => {
                        self.attr_distinct(AttrRef::new(parent, parent_attr))
                    }
                    // Validation rejects this; be defensive anyway.
                    _ => 1,
                }
            }
        }
    }

    pub fn attribute(&self, r: AttrRef) -> &Attribute {
        &self.table(r.table).attributes[r.attr.0]
    }

    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.tables.iter().position(|t| t.name == name).map(TableId)
    }

    /// Resolve `"table.attr"`-style references, handy in tests and examples.
    pub fn attr_ref(&self, table: &str, attr: &str) -> Option<AttrRef> {
        let t = self.table_by_name(table)?;
        let a = self.table(t).attr_by_name(attr)?;
        Some(AttrRef::new(t, a))
    }

    /// Find the edge connecting the given attribute pair, if declared.
    pub fn edge_between(&self, a: AttrRef, b: AttrRef) -> Option<EdgeId> {
        let probe = JoinEdge::new(a, b)?;
        self.edges.iter().position(|e| *e == probe).map(EdgeId)
    }

    /// Edges incident to a table.
    pub fn edges_of(&self, table: TableId) -> impl Iterator<Item = (EdgeId, &JoinEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.touches(table))
            .map(|(i, e)| (EdgeId(i), e))
    }

    /// Total database size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(Table::bytes).sum()
    }

    /// Add a candidate edge discovered from workload join predicates.
    /// Returns the (existing or new) edge id; `None` for self-joins.
    pub fn add_workload_edge(&mut self, a: AttrRef, b: AttrRef) -> Option<EdgeId> {
        let edge = JoinEdge::new(a, b)?;
        if let Some(i) = self.edges.iter().position(|e| *e == edge) {
            return Some(EdgeId(i));
        }
        self.edges.push(edge);
        Some(EdgeId(self.edges.len() - 1))
    }

    /// Scale every table's row count by `factor` (rounding up, min 1 row).
    /// Attribute domains follow automatically because foreign keys and
    /// primary keys are resolved against table sizes.
    pub fn scaled(self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let n = self.tables.len();
        self.scaled_per_table(&vec![factor; n])
    }

    /// Scale each table's row count by its own factor (bulk updates grow
    /// only the transactional tables, like TPC-H's refresh functions).
    pub fn scaled_per_table(mut self, factors: &[f64]) -> Self {
        assert_eq!(factors.len(), self.tables.len(), "one factor per table");
        assert!(factors.iter().all(|f| *f > 0.0), "factors must be positive");
        for (t, f) in self.tables.iter_mut().zip(factors) {
            t.rows = ((t.rows as f64 * f).ceil() as u64).max(1);
        }
        self
    }

    /// Structural validation; built-in schemas are checked in tests, user
    /// schemas should call this after construction.
    pub fn validate(&self) -> Result<(), SchemaError> {
        let mut names = HashMap::new();
        for (i, t) in self.tables.iter().enumerate() {
            if names.insert(t.name.clone(), i).is_some() {
                return Err(SchemaError::DuplicateTable(t.name.clone()));
            }
            if t.attributes.is_empty() {
                return Err(SchemaError::EmptyTable(t.name.clone()));
            }
            if t.partitionable_attrs().next().is_none() {
                return Err(SchemaError::NoPartitionableAttribute(t.name.clone()));
            }
            let mut attr_names = HashMap::new();
            for (j, a) in t.attributes.iter().enumerate() {
                if attr_names.insert(a.name.clone(), j).is_some() {
                    return Err(SchemaError::DuplicateAttribute {
                        table: t.name.clone(),
                        attr: a.name.clone(),
                    });
                }
                match a.domain {
                    Domain::ForeignKey(parent) => {
                        if parent.0 >= self.tables.len() {
                            return Err(SchemaError::DanglingForeignKey {
                                table: t.name.clone(),
                                attr: a.name.clone(),
                            });
                        }
                    }
                    Domain::Inherited { via, parent_attr } => {
                        let parent = match t.attributes.get(via.0).map(|v| v.domain) {
                            Some(Domain::ForeignKey(p)) => p,
                            _ => {
                                return Err(SchemaError::BadInheritance {
                                    table: t.name.clone(),
                                    attr: a.name.clone(),
                                })
                            }
                        };
                        let parent_ok = parent.0 < self.tables.len()
                            && parent_attr.0 < self.tables[parent.0].attributes.len();
                        if !parent_ok {
                            return Err(SchemaError::BadInheritance {
                                table: t.name.clone(),
                                attr: a.name.clone(),
                            });
                        }
                    }
                    Domain::PrimaryKey | Domain::Fixed(_) => {}
                }
                if let AttrKind::Compound(parts) = &a.kind {
                    let ok = !parts.is_empty()
                        && parts.iter().all(|p| {
                            p.0 < t.attributes.len() && !t.attributes[p.0].is_compound() && p.0 != j
                        });
                    if !ok {
                        return Err(SchemaError::BadCompound {
                            table: t.name.clone(),
                            attr: a.name.clone(),
                        });
                    }
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for e in &self.edges {
            for ep in e.endpoints() {
                if ep.table.0 >= self.tables.len() {
                    return Err(SchemaError::UnknownTable(format!("{}", ep.table)));
                }
                if ep.attr.0 >= self.table(ep.table).attributes.len() {
                    return Err(SchemaError::UnknownAttribute {
                        table: self.table(ep.table).name.clone(),
                        attr: format!("{}", ep.attr),
                    });
                }
            }
            if !seen.insert(*e) {
                return Err(SchemaError::DuplicateEdge(*e));
            }
        }
        Ok(())
    }
}

/// Fluent builder used by the built-in benchmark schemas and by users
/// defining their own catalogs.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    name: String,
    tables: Vec<Table>,
    // Edge declarations by name, resolved in `build`.
    edge_decls: Vec<((String, String), (String, String))>,
}

impl SchemaBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Add a table; returns its id for convenience.
    pub fn table(&mut self, table: Table) -> TableId {
        self.tables.push(table);
        TableId(self.tables.len() - 1)
    }

    /// Declare a candidate co-partitioning edge by name
    /// (`("lineorder","lo_custkey")  ("customer","c_custkey")`).
    pub fn edge(
        &mut self,
        a: (impl Into<String>, impl Into<String>),
        b: (impl Into<String>, impl Into<String>),
    ) -> &mut Self {
        self.edge_decls
            .push(((a.0.into(), a.1.into()), (b.0.into(), b.1.into())));
        self
    }

    /// Resolve names, normalize edges, and validate.
    pub fn build(self) -> Result<Schema, SchemaError> {
        let mut schema = Schema {
            name: self.name,
            tables: self.tables,
            edges: Vec::new(),
        };
        for ((ta, aa), (tb, ab)) in self.edge_decls {
            let a = schema
                .attr_ref(&ta, &aa)
                .ok_or_else(|| SchemaError::UnknownAttribute {
                    table: ta.clone(),
                    attr: aa.clone(),
                })?;
            let b = schema
                .attr_ref(&tb, &ab)
                .ok_or_else(|| SchemaError::UnknownAttribute {
                    table: tb.clone(),
                    attr: ab.clone(),
                })?;
            let edge = JoinEdge::new(a, b)
                .ok_or(SchemaError::DuplicateEdge(JoinEdge { left: a, right: b }))?;
            if schema.edges.contains(&edge) {
                return Err(SchemaError::DuplicateEdge(edge));
            }
            schema.edges.push(edge);
        }
        schema.validate()?;
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::ids::AttrId;

    fn two_table_builder() -> SchemaBuilder {
        let mut b = SchemaBuilder::new("t");
        b.table(Table::new(
            "fact",
            vec![
                Attribute::new("f_pk", Domain::PrimaryKey),
                Attribute::new("f_dim", Domain::ForeignKey(TableId(1))),
            ],
            1000,
            50,
        ));
        b.table(Table::new(
            "dim",
            vec![Attribute::new("d_pk", Domain::PrimaryKey)],
            100,
            20,
        ));
        b
    }

    #[test]
    fn build_and_lookup() {
        let mut b = two_table_builder();
        b.edge(("fact", "f_dim"), ("dim", "d_pk"));
        let s = b.build().unwrap();
        assert_eq!(s.edges().len(), 1);
        let f_dim = s.attr_ref("fact", "f_dim").unwrap();
        let d_pk = s.attr_ref("dim", "d_pk").unwrap();
        assert_eq!(s.edge_between(f_dim, d_pk), Some(EdgeId(0)));
        assert_eq!(s.edge_between(d_pk, f_dim), Some(EdgeId(0)));
        assert_eq!(s.attr_distinct(f_dim), 100);
        assert_eq!(s.attr_distinct(d_pk), 100);
        assert_eq!(s.total_bytes(), 1000 * 50 + 100 * 20);
    }

    #[test]
    fn unknown_edge_attr_rejected() {
        let mut b = two_table_builder();
        b.edge(("fact", "nope"), ("dim", "d_pk"));
        assert!(matches!(
            b.build(),
            Err(SchemaError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = two_table_builder();
        b.edge(("fact", "f_dim"), ("dim", "d_pk"));
        b.edge(("dim", "d_pk"), ("fact", "f_dim"));
        assert!(matches!(b.build(), Err(SchemaError::DuplicateEdge(_))));
    }

    #[test]
    fn scaling_scales_domains() {
        let mut b = two_table_builder();
        b.edge(("fact", "f_dim"), ("dim", "d_pk"));
        let s = b.build().unwrap().scaled(0.1);
        assert_eq!(s.table(TableId(0)).rows, 100);
        assert_eq!(s.table(TableId(1)).rows, 10);
        let f_dim = s.attr_ref("fact", "f_dim").unwrap();
        assert_eq!(s.attr_distinct(f_dim), 10);
    }

    #[test]
    fn workload_edge_dedup() {
        let mut s = two_table_builder().build().unwrap();
        let a = s.attr_ref("fact", "f_pk").unwrap();
        let b = s.attr_ref("dim", "d_pk").unwrap();
        let e1 = s.add_workload_edge(a, b).unwrap();
        let e2 = s.add_workload_edge(b, a).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(s.edges().len(), 1);
    }

    #[test]
    fn bad_compound_detected() {
        let mut b = SchemaBuilder::new("t");
        b.table(Table::new(
            "x",
            vec![Attribute::new("c", Domain::Fixed(5)).compound_of(vec![AttrId(7)])],
            10,
            8,
        ));
        assert!(matches!(b.build(), Err(SchemaError::BadCompound { .. })));
    }
}
