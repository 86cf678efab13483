//! Strongly-typed identifiers for catalog objects.
//!
//! All identifiers are dense indices into the owning [`Schema`](crate::Schema)
//! so that downstream crates (state encodings, the simulator's shard maps)
//! can use plain `Vec`s keyed by id instead of hash maps.

use std::fmt;

/// Index of a table within its [`Schema`](crate::Schema).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TableId(pub usize);

/// Index of an attribute *within its table* (not global).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttrId(pub usize);

/// Fully-qualified attribute reference: `(table, attribute)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttrRef {
    pub table: TableId,
    pub attr: AttrId,
}

impl AttrRef {
    pub const fn new(table: TableId, attr: AttrId) -> Self {
        Self { table, attr }
    }
}

/// Index of a candidate co-partitioning edge within its schema.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub usize);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.attr)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let r = AttrRef::new(TableId(2), AttrId(1));
        assert_eq!(r.to_string(), "T2.a1");
        assert_eq!(EdgeId(3).to_string(), "e3");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = AttrRef::new(TableId(0), AttrId(5));
        let b = AttrRef::new(TableId(1), AttrId(0));
        assert!(a < b);
    }
}
