//! The partitioning state: what is replicated, what is hash-partitioned by
//! which attribute, and which co-partitioning edges are active.

use lpa_schema::{AttrId, EdgeId, Schema, TableId};
use std::fmt;

/// Partitioning state of a single table (the paper's
/// `s(T_i) = (r_i, a_i1, …, a_in)` one-hot vector).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TableState {
    /// Full copy on every node.
    Replicated,
    /// Horizontally hash-partitioned by the given attribute into one shard
    /// per node.
    PartitionedBy(AttrId),
}

/// A complete partitioning of the database: one [`TableState`] per table
/// plus the active/inactive flags of the schema's candidate edges.
///
/// Invariant (checked by [`Partitioning::check`]): an active edge forces
/// both endpoint tables to be partitioned by the edge's attributes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Partitioning {
    tables: Vec<TableState>,
    edges: Vec<bool>,
}

impl Partitioning {
    /// The paper's initial state `s_0`: every table partitioned by its
    /// first partitionable attribute (the primary key for the built-in
    /// schemas), no active edges.
    pub fn initial(schema: &Schema) -> Self {
        let tables = schema
            .tables()
            .iter()
            .map(|t| {
                // Validated schemas always have a partitionable attribute;
                // replication is the graceful fallback if not.
                match t.partitionable_attrs().next() {
                    Some(attr) => TableState::PartitionedBy(attr),
                    None => TableState::Replicated,
                }
            })
            .collect();
        Self {
            tables,
            edges: vec![false; schema.edges().len()],
        }
    }

    /// Build from explicit table states (no active edges). Panics if the
    /// lengths don't match the schema.
    pub fn from_states(schema: &Schema, tables: Vec<TableState>) -> Self {
        assert_eq!(tables.len(), schema.tables().len());
        Self {
            tables,
            edges: vec![false; schema.edges().len()],
        }
    }

    /// Build from explicit table states *and* edge flags — the checkpoint
    /// restore path, which must reproduce mid-episode states where edges
    /// are active. `Err` (never panics: runs on the recovery path) if the
    /// lengths are inconsistent or the edge/table invariant is violated.
    pub fn from_parts(
        schema: &Schema,
        tables: Vec<TableState>,
        edges: Vec<bool>,
    ) -> Result<Self, String> {
        let p = Self { tables, edges };
        p.check(schema)?;
        Ok(p)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "table ids are minted by the schema this partitioning was built from"
    )]
    pub fn table_state(&self, t: TableId) -> TableState {
        self.tables[t.0]
    }

    pub fn table_states(&self) -> &[TableState] {
        &self.tables
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "edge ids are minted by the schema this partitioning was built from"
    )]
    pub fn edge_active(&self, e: EdgeId) -> bool {
        self.edges[e.0]
    }

    /// Raw activation flags, one per candidate edge (used by the
    /// fingerprint/interning layer to pack whole-state cache keys).
    pub fn edge_flags(&self) -> &[bool] {
        &self.edges
    }

    pub fn active_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| EdgeId(i))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "table ids are minted by the schema this partitioning was built from"
    )]
    pub(crate) fn set_table_state(&mut self, t: TableId, s: TableState) {
        self.tables[t.0] = s;
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "edge ids are minted by the schema this partitioning was built from"
    )]
    pub(crate) fn set_edge(&mut self, e: EdgeId, active: bool) {
        self.edges[e.0] = active;
    }

    /// Whether the table is pinned by at least one active edge.
    pub fn table_pinned(&self, schema: &Schema, t: TableId) -> bool {
        schema.edges_of(t).any(|(id, _)| self.edge_active(id))
    }

    /// Whether the table is replicated.
    #[expect(
        clippy::indexing_slicing,
        reason = "table ids are minted by the schema this partitioning was built from"
    )]
    pub fn is_replicated(&self, t: TableId) -> bool {
        matches!(self.tables[t.0], TableState::Replicated)
    }

    /// The physical layout ignoring edge flags. Two states that differ only
    /// in edge activation deploy identically — the online phase's runtime
    /// cache keys on this (Section 4.2, Query Runtime Caching).
    pub fn physical_key(&self) -> &[TableState] {
        &self.tables
    }

    /// Tables whose physical state differs between `self` and `other`
    /// (drives lazy repartitioning).
    pub fn diff_tables(&self, other: &Self) -> Vec<TableId> {
        assert_eq!(self.tables.len(), other.tables.len());
        self.tables
            .iter()
            .zip(&other.tables)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| TableId(i))
            .collect()
    }

    /// Verify the edge/table consistency invariant.
    #[expect(
        clippy::indexing_slicing,
        reason = "edge endpoints name tables of the schema this partitioning was built from"
    )]
    pub fn check(&self, schema: &Schema) -> Result<(), String> {
        if self.tables.len() != schema.tables().len() {
            return Err("table count mismatch".into());
        }
        if self.edges.len() != schema.edges().len() {
            return Err("edge count mismatch".into());
        }
        for (i, active) in self.edges.iter().enumerate() {
            if !active {
                continue;
            }
            let edge = schema.edge(EdgeId(i));
            for ep in edge.endpoints() {
                match self.tables[ep.table.0] {
                    TableState::PartitionedBy(a) if a == ep.attr => {}
                    other @ (TableState::Replicated | TableState::PartitionedBy(_)) => {
                        return Err(format!(
                            "edge e{i} active but {} is {:?}",
                            schema.table(ep.table).name,
                            other
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Human-readable description against a schema (used by the experiment
    /// harness to print suggested partitionings).
    #[expect(
        clippy::indexing_slicing,
        reason = "attribute ids come from the table they index"
    )]
    pub fn describe(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for (i, (t, s)) in schema.tables().iter().zip(&self.tables).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match s {
                TableState::Replicated => {
                    out.push_str(&format!("{}: replicated", t.name));
                }
                TableState::PartitionedBy(a) => {
                    out.push_str(&format!("{}: by {}", t.name, t.attributes[a.0].name));
                }
            }
        }
        out
    }
}

impl fmt::Display for TableState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Replicated => write!(f, "R"),
            Self::PartitionedBy(a) => write!(f, "P({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        lpa_schema::ssb::schema(0.001).expect("schema builds")
    }

    #[test]
    fn initial_state_partitions_by_primary_key() {
        let s = schema();
        let p = Partitioning::initial(&s);
        for t in 0..s.tables().len() {
            assert_eq!(
                p.table_state(TableId(t)),
                TableState::PartitionedBy(AttrId(0))
            );
        }
        assert_eq!(p.active_edges().count(), 0);
        p.check(&s).unwrap();
    }

    #[test]
    fn diff_tables_detects_changes() {
        let s = schema();
        let a = Partitioning::initial(&s);
        let mut b = a.clone();
        b.set_table_state(TableId(1), TableState::Replicated);
        assert_eq!(a.diff_tables(&b), vec![TableId(1)]);
        assert!(a.diff_tables(&a).is_empty());
    }

    #[test]
    fn physical_key_ignores_edges() {
        let s = schema();
        let a = Partitioning::initial(&s);
        let mut b = a.clone();
        // Activating edge e0 in SSB sets lineorder/customer to the edge
        // attrs — which for lo_custkey/c_custkey changes lineorder's state.
        b.set_edge(EdgeId(0), true);
        // Keys identical because table states were not touched here.
        assert_eq!(a.physical_key(), b.physical_key());
    }

    #[test]
    fn check_rejects_inconsistent_edge() {
        let s = schema();
        let mut p = Partitioning::initial(&s);
        p.set_edge(EdgeId(0), true); // lineorder.lo_custkey = customer.c_custkey
        assert!(
            p.check(&s).is_err(),
            "lineorder is partitioned by PK, not lo_custkey"
        );
    }

    #[test]
    fn describe_names_attributes() {
        let s = schema();
        let mut p = Partitioning::initial(&s);
        p.set_table_state(TableId(1), TableState::Replicated);
        let d = p.describe(&s);
        assert!(d.contains("lineorder: by lo_orderkey"));
        assert!(d.contains("customer: replicated"));
    }
}
