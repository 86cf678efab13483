//! DBA heuristics (Section 7.1, "Baselines").

use lpa_partition::{Partitioning, TableState};
use lpa_schema::{AttrRef, Schema, TableId};
use lpa_workload::Workload;

/// Whether the schema is star-shaped (SSB, TPC-DS) or complex (TPC-CH).
/// The paper applies different heuristics per class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchemaClass {
    Star,
    Complex,
}

impl SchemaClass {
    /// Simple auto-detection: a schema is star-shaped if the largest table
    /// is at least 10x the median table and every join edge touches one of
    /// the top-size tables.
    #[expect(
        clippy::indexing_slicing,
        reason = "a validated schema has at least one table, so sizes.len() / 2 is in range"
    )]
    pub fn detect(schema: &Schema) -> Self {
        let mut sizes: Vec<u64> = schema.tables().iter().map(|t| t.bytes()).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        let facts: Vec<TableId> = fact_tables(schema);
        let star = !facts.is_empty()
            && sizes.last().copied().unwrap_or(0) >= median.saturating_mul(10)
            && schema
                .edges()
                .iter()
                .all(|e| facts.contains(&e.left.table) || facts.contains(&e.right.table));
        if star {
            Self::Star
        } else {
            Self::Complex
        }
    }
}

/// Tables at least 1/20 the size of the largest table (the "fact" side).
fn fact_tables(schema: &Schema) -> Vec<TableId> {
    let max = schema.tables().iter().map(|t| t.bytes()).max().unwrap_or(0);
    schema
        .tables()
        .iter()
        .enumerate()
        .filter(|(_, t)| t.bytes() >= max / 20)
        .map(|(i, _)| TableId(i))
        .collect()
}

/// How many workload queries join `fact` with `dim`.
fn join_count(schema: &Schema, workload: &Workload, dim: TableId) -> usize {
    let facts = fact_tables(schema);
    workload
        .queries()
        .iter()
        .filter(|q| q.uses_table(dim) && q.tables.iter().any(|t| facts.contains(t)))
        .count()
}

/// The FK pair connecting `fact` to `dim`, if declared.
fn connecting_pair(schema: &Schema, fact: TableId, dim: TableId) -> Option<(AttrRef, AttrRef)> {
    schema
        .edges_of(fact)
        .find(|(_, e)| e.touches(dim))
        .and_then(|(_, e)| Some((e.endpoint_on(fact)?, e.endpoint_on(dim)?)))
}

#[expect(
    clippy::indexing_slicing,
    reason = "states holds one slot per schema table; every id comes from the same schema"
)]
fn star_heuristic(
    schema: &Schema,
    workload: &Workload,
    pick_dim: impl Fn(&Schema, &Workload, &[TableId]) -> Option<TableId>,
) -> Partitioning {
    let mut facts = fact_tables(schema);
    // Degenerate case (every table is fact-sized): only the single largest
    // table counts as the fact side.
    if facts.len() == schema.tables().len() {
        if let Some(largest) = facts
            .iter()
            .copied()
            .max_by_key(|t| schema.table(*t).bytes())
        {
            facts = vec![largest];
        }
    }
    let dims: Vec<TableId> = (0..schema.tables().len())
        .map(TableId)
        .filter(|t| !facts.contains(t))
        .collect();
    let anchor = pick_dim(schema, workload, &dims);
    let mut states: Vec<TableState> = Partitioning::initial(schema).table_states().to_vec();
    // Replicate every dimension except the anchor.
    for &d in &dims {
        states[d.0] = if Some(d) == anchor {
            match schema.table(d).partitionable_attrs().next() {
                Some(attr) => TableState::PartitionedBy(attr),
                None => TableState::Replicated,
            }
        } else {
            TableState::Replicated
        };
    }
    // Co-partition each fact with the anchor when a join path exists.
    if let Some(anchor) = anchor {
        for &f in &facts {
            if let Some((fa, da)) = connecting_pair(schema, f, anchor) {
                if schema.attribute(fa).partitionable && schema.attribute(da).partitionable {
                    states[f.0] = TableState::PartitionedBy(fa.attr);
                    states[anchor.0] = TableState::PartitionedBy(da.attr);
                }
            }
        }
    }
    Partitioning::from_states(schema, states)
}

fn complex_heuristic_a(schema: &Schema) -> Partitioning {
    // Replicate small tables, partition large tables by primary key.
    let threshold = replicate_threshold(schema);
    let mut states = Vec::with_capacity(schema.tables().len());
    for (i, t) in schema.tables().iter().enumerate() {
        if t.bytes() <= threshold {
            states.push(TableState::Replicated);
        } else {
            // Validated schemas always have a partitionable attribute per
            // table; replication is the graceful fallback if not.
            states.push(
                match schema.table(TableId(i)).partitionable_attrs().next() {
                    Some(attr) => TableState::PartitionedBy(attr),
                    None => TableState::Replicated,
                },
            );
        }
    }
    Partitioning::from_states(schema, states)
}

#[expect(
    clippy::indexing_slicing,
    reason = "states holds one slot per schema table; every id comes from the same schema"
)]
fn complex_heuristic_b(schema: &Schema) -> Partitioning {
    // Greedily co-partition the largest table pairs (by combined bytes)
    // along declared join edges; replicate the small remainder.
    let threshold = replicate_threshold(schema);
    let mut edges: Vec<_> = schema.edges().iter().collect();
    edges.sort_by_key(|e| {
        std::cmp::Reverse(schema.table(e.left.table).bytes() + schema.table(e.right.table).bytes())
    });
    let mut states: Vec<Option<TableState>> = vec![None; schema.tables().len()];
    for e in edges {
        let [l, r] = e.endpoints();
        let big = |t: TableId| schema.table(t).bytes() > threshold;
        if !big(l.table) || !big(r.table) {
            continue;
        }
        let ok = |ep: AttrRef, states: &[Option<TableState>]| {
            schema.attribute(ep).partitionable
                && matches!(
                    states[ep.table.0],
                    None | Some(TableState::PartitionedBy(_))
                )
                && states[ep.table.0]
                    .map(|s| s == TableState::PartitionedBy(ep.attr))
                    .unwrap_or(true)
        };
        if ok(l, &states) && ok(r, &states) {
            states[l.table.0] = Some(TableState::PartitionedBy(l.attr));
            states[r.table.0] = Some(TableState::PartitionedBy(r.attr));
        }
    }
    let filled: Vec<TableState> = states
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or_else(|| {
                if schema.tables()[i].bytes() <= threshold {
                    TableState::Replicated
                } else {
                    match schema.table(TableId(i)).partitionable_attrs().next() {
                        Some(attr) => TableState::PartitionedBy(attr),
                        None => TableState::Replicated,
                    }
                }
            })
        })
        .collect();
    Partitioning::from_states(schema, filled)
}

/// Tables below 2% of the largest table are "small" (replication fodder).
fn replicate_threshold(schema: &Schema) -> u64 {
    schema.tables().iter().map(|t| t.bytes()).max().unwrap_or(0) / 50
}

/// Heuristic (a): star → co-partition facts with the *most frequently
/// joined* dimension; complex → replicate small tables, partition large
/// ones by primary key.
pub fn heuristic_a(schema: &Schema, workload: &Workload, class: SchemaClass) -> Partitioning {
    match class {
        SchemaClass::Star => star_heuristic(schema, workload, |s, w, dims| {
            dims.iter().copied().max_by_key(|d| join_count(s, w, *d))
        }),
        SchemaClass::Complex => complex_heuristic_a(schema),
    }
}

/// Heuristic (b): star → co-partition facts with the *largest* dimension;
/// complex → greedily co-partition the largest table pairs.
pub fn heuristic_b(schema: &Schema, workload: &Workload, class: SchemaClass) -> Partitioning {
    match class {
        SchemaClass::Star => star_heuristic(schema, workload, |s, _, dims| {
            dims.iter().copied().max_by_key(|d| s.table(*d).bytes())
        }),
        SchemaClass::Complex => complex_heuristic_b(schema),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_class_detection() {
        assert_eq!(
            SchemaClass::detect(&lpa_schema::ssb::schema(1.0).expect("schema builds")),
            SchemaClass::Star
        );
        assert_eq!(
            SchemaClass::detect(&lpa_schema::tpcch::schema(1.0).expect("schema builds")),
            SchemaClass::Complex
        );
    }

    #[test]
    fn ssb_heuristic_a_anchors_on_date_b_on_customer() {
        let s = lpa_schema::ssb::schema(1.0).expect("schema builds");
        let w = lpa_workload::ssb::workload(&s).expect("workload builds");
        let a = heuristic_a(&s, &w, SchemaClass::Star);
        let b = heuristic_b(&s, &w, SchemaClass::Star);
        let lo = s.table_by_name("lineorder").unwrap();
        let date = s.table_by_name("date").unwrap();
        let cust = s.table_by_name("customer").unwrap();
        // (a): fact partitioned by lo_orderdate, date by its key.
        let lo_date = s.attr_ref("lineorder", "lo_orderdate").unwrap();
        assert_eq!(a.table_state(lo), TableState::PartitionedBy(lo_date.attr));
        assert!(matches!(a.table_state(date), TableState::PartitionedBy(_)));
        assert!(a.is_replicated(cust));
        // (b): largest dimension is part... check by bytes.
        let largest = (1..5)
            .map(TableId)
            .max_by_key(|t| s.table(*t).bytes())
            .unwrap();
        assert!(matches!(
            b.table_state(largest),
            TableState::PartitionedBy(_)
        ));
        assert!(!b.is_replicated(lo));
    }

    #[test]
    fn tpcch_heuristic_a_replicates_small_tables() {
        let s = lpa_schema::tpcch::schema(1.0).expect("schema builds");
        let w = lpa_workload::tpcch::workload(&s).expect("workload builds");
        let p = heuristic_a(&s, &w, SchemaClass::Complex);
        for name in [
            "nation",
            "region",
            "warehouse",
            "district",
            "item",
            "supplier",
        ] {
            let t = s.table_by_name(name).unwrap();
            assert!(p.is_replicated(t), "{name} should be replicated");
        }
        for name in ["orderline", "stock", "customer"] {
            let t = s.table_by_name(name).unwrap();
            assert!(!p.is_replicated(t), "{name} should be partitioned");
        }
        p.check(&s).unwrap();
    }

    #[test]
    fn tpcch_heuristic_b_co_partitions_large_pairs() {
        let s = lpa_schema::tpcch::schema(1.0).expect("schema builds");
        let w = lpa_workload::tpcch::workload(&s).expect("workload builds");
        let p = heuristic_b(&s, &w, SchemaClass::Complex);
        // stock ⋈ orderline is the largest pair; both partitioned on the
        // shared item key (or a compatible co-partitioning).
        let stock = s.table_by_name("stock").unwrap();
        let ol = s.table_by_name("orderline").unwrap();
        assert!(matches!(p.table_state(stock), TableState::PartitionedBy(_)));
        assert!(matches!(p.table_state(ol), TableState::PartitionedBy(_)));
        p.check(&s).unwrap();
    }

    #[test]
    fn heuristics_differ() {
        let s = lpa_schema::ssb::schema(1.0).expect("schema builds");
        let w = lpa_workload::ssb::workload(&s).expect("workload builds");
        let a = heuristic_a(&s, &w, SchemaClass::Star);
        let b = heuristic_b(&s, &w, SchemaClass::Star);
        assert_ne!(a.physical_key(), b.physical_key());
    }
}
