//! Table metadata.

use crate::attribute::Attribute;
use crate::ids::AttrId;

/// A base table: name, attributes relevant to partitioning decisions, and
/// size statistics at the schema's configured scale.
///
/// Only join/partitioning-relevant columns are modeled explicitly; the
/// remaining payload width is folded into [`Table::row_bytes`] so that
/// network-transfer estimates stay realistic.
#[derive(Clone, Debug)]
pub struct Table {
    pub name: String,
    pub attributes: Vec<Attribute>,
    /// Number of rows at the schema's scale.
    pub rows: u64,
    /// Average tuple width in bytes (keys + payload).
    pub row_bytes: u64,
}

impl Table {
    pub fn new(
        name: impl Into<String>,
        attributes: Vec<Attribute>,
        rows: u64,
        row_bytes: u64,
    ) -> Self {
        Self {
            name: name.into(),
            attributes,
            rows,
            row_bytes,
        }
    }

    /// Total size of the table in bytes.
    pub fn bytes(&self) -> u64 {
        self.rows * self.row_bytes
    }

    /// Look up an attribute index by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(AttrId)
    }

    /// Attribute indices eligible as partitioning keys.
    pub fn partitionable_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.partitionable)
            .map(|(i, _)| AttrId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Domain;

    fn sample() -> Table {
        Table::new(
            "customer",
            vec![
                Attribute::new("c_custkey", Domain::PrimaryKey),
                Attribute::new("c_nation", Domain::Fixed(25)).not_partitionable(),
            ],
            30_000,
            120,
        )
    }

    #[test]
    fn bytes_and_lookup() {
        let t = sample();
        assert_eq!(t.bytes(), 3_600_000);
        assert_eq!(t.attr_by_name("c_nation"), Some(AttrId(1)));
        assert_eq!(t.attr_by_name("missing"), None);
    }

    #[test]
    fn partitionable_filter() {
        let t = sample();
        let p: Vec<_> = t.partitionable_attrs().collect();
        assert_eq!(p, vec![AttrId(0)]);
    }
}
