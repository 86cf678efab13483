//! Attribute metadata: value domains, skew, partitionability.

use crate::ids::{AttrId, TableId};

/// How the values of an attribute are drawn.
///
/// The data generator in `lpa-cluster` and the cardinality estimator in
/// `lpa-costmodel` both consume this. Foreign keys reference another table
/// so that generated values always join correctly and the distinct count
/// scales together with the referenced table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Domain {
    /// Dense primary key `0..rows` of the owning table.
    PrimaryKey,
    /// Values drawn from the primary-key domain of the referenced table.
    ForeignKey(TableId),
    /// A fixed number of distinct values independent of scale
    /// (e.g. `district-id` has 10 distinct values per warehouse).
    Fixed(u64),
    /// Value copied from an attribute of the row referenced by a foreign key
    /// in the *same* table: `this.via` is an FK column, and the value equals
    /// `parent.parent_attr` of the referenced row.
    ///
    /// This models composite-key denormalization (TPC-C's
    /// `order.o_d_id = customer.c_d_id` of the ordering customer), which is
    /// what makes co-partitioning two tables by their district columns turn
    /// the key join between them into a local join.
    Inherited { via: AttrId, parent_attr: AttrId },
}

/// Value-frequency skew of an attribute, relevant both for generated data
/// and for shard-size balance when the attribute is used as partition key.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Skew {
    /// All values equally likely.
    Uniform,
    /// Zipf-distributed with the given exponent (`theta > 0`); larger means
    /// more skew. Used to model the TPC-CH hot districts that make
    /// Heuristic (b) backfire on System-X (Section 7.2).
    Zipf(f64),
}

/// Whether an attribute is a physical column or a compound key derived from
/// several physical columns of the same table.
///
/// Compound keys model System-X's ability to partition TPC-CH's `stock`
/// table by `(warehouse-id, district-id)` to mitigate skew (Section 7.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AttrKind {
    Physical,
    /// Indices (within the same table) of the physical columns combined.
    Compound(Vec<AttrId>),
}

/// A table attribute as seen by the partitioning advisor.
#[derive(Clone, Debug)]
pub struct Attribute {
    pub name: String,
    pub domain: Domain,
    pub skew: Skew,
    pub kind: AttrKind,
    /// `false` excludes the attribute from the partitioning action space.
    /// The paper forbids partitioning TPC-CH tables by `warehouse-id` alone
    /// to rule out the trivial solution (Section 7.1).
    pub partitionable: bool,
}

impl Attribute {
    /// A plain partitionable column.
    pub fn new(name: impl Into<String>, domain: Domain) -> Self {
        Self {
            name: name.into(),
            domain,
            skew: Skew::Uniform,
            kind: AttrKind::Physical,
            partitionable: true,
        }
    }

    /// Builder-style: set the skew.
    pub fn with_skew(mut self, skew: Skew) -> Self {
        self.skew = skew;
        self
    }

    /// Builder-style: exclude from the partitioning action space.
    pub fn not_partitionable(mut self) -> Self {
        self.partitionable = false;
        self
    }

    /// Builder-style: mark as a compound of physical columns.
    pub fn compound_of(mut self, components: Vec<AttrId>) -> Self {
        self.kind = AttrKind::Compound(components);
        self
    }

    pub fn is_compound(&self) -> bool {
        matches!(self.kind, AttrKind::Compound(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let a = Attribute::new("w_id", Domain::Fixed(10))
            .with_skew(Skew::Zipf(1.1))
            .not_partitionable();
        assert!(!a.partitionable);
        assert_eq!(a.skew, Skew::Zipf(1.1));
        assert!(!a.is_compound());
    }

    #[test]
    fn compound_attribute() {
        let a = Attribute::new("wd", Domain::Fixed(100)).compound_of(vec![AttrId(0), AttrId(1)]);
        assert!(a.is_compound());
    }
}
