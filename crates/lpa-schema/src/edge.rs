//! Candidate co-partitioning edges (Section 3.2).
//!
//! An edge connects a pair of join attributes of two different tables.
//! When *active*, it guarantees the two tables are co-partitioned on those
//! attributes so that the corresponding join runs locally on every node.
//! The fixed edge set is extracted from the schema's foreign keys and the
//! workload's join predicates.

use crate::ids::AttrRef;

/// A candidate co-partitioning edge between two join attributes.
///
/// Edges are stored in normalized form (`left.table < right.table`) so that
/// the same join predicate always maps to the same edge regardless of the
/// order it was written in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct JoinEdge {
    pub left: AttrRef,
    pub right: AttrRef,
}

impl JoinEdge {
    /// Create a normalized edge. Returns `None` for self-joins (edges within
    /// a single table carry no co-partitioning information).
    pub fn new(a: AttrRef, b: AttrRef) -> Option<Self> {
        if a.table == b.table {
            return None;
        }
        let (left, right) = if a.table < b.table { (a, b) } else { (b, a) };
        Some(Self { left, right })
    }

    /// Both endpoints of the edge.
    pub fn endpoints(&self) -> [AttrRef; 2] {
        [self.left, self.right]
    }

    /// The endpoint on the given table, if any.
    pub fn endpoint_on(&self, table: crate::ids::TableId) -> Option<AttrRef> {
        if self.left.table == table {
            Some(self.left)
        } else if self.right.table == table {
            Some(self.right)
        } else {
            None
        }
    }

    /// Whether the edge touches the given table.
    pub fn touches(&self, table: crate::ids::TableId) -> bool {
        self.left.table == table || self.right.table == table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AttrId, TableId};

    #[test]
    fn normalization() {
        let a = AttrRef::new(TableId(3), AttrId(0));
        let b = AttrRef::new(TableId(1), AttrId(2));
        let e = JoinEdge::new(a, b).unwrap();
        assert_eq!(e.left.table, TableId(1));
        assert_eq!(e.right.table, TableId(3));
        assert_eq!(JoinEdge::new(a, b), JoinEdge::new(b, a));
    }

    #[test]
    fn self_join_rejected() {
        let a = AttrRef::new(TableId(1), AttrId(0));
        let b = AttrRef::new(TableId(1), AttrId(1));
        assert!(JoinEdge::new(a, b).is_none());
    }

    #[test]
    fn endpoint_lookup() {
        let e = JoinEdge::new(
            AttrRef::new(TableId(0), AttrId(1)),
            AttrRef::new(TableId(2), AttrId(0)),
        )
        .unwrap();
        assert!(e.touches(TableId(0)));
        assert!(!e.touches(TableId(1)));
        assert_eq!(
            e.endpoint_on(TableId(2)),
            Some(AttrRef::new(TableId(2), AttrId(0)))
        );
        assert_eq!(e.endpoint_on(TableId(1)), None);
    }
}
