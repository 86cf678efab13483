//! Deterministic synthetic data generation.
//!
//! Every attribute value is a *pure function* of `(seed, table, attribute,
//! row)`, which gives three properties the experiments rely on:
//!
//! * **Referential integrity** — foreign keys index real parent rows, so
//!   joins produce realistic cardinalities;
//! * **Denormalization consistency** — `Inherited` columns copy the value
//!   of the referenced parent row (an order's district IS its customer's
//!   district), so co-partitioning on denormalized columns really makes
//!   key joins local;
//! * **Reproducibility** — regenerating at a larger scale (bulk updates,
//!   Fig. 4b) or a smaller scale (the online phase's sampled database)
//!   uses the same machinery.

use crate::engine::splitmix64;
use lpa_schema::{AttrId, AttrKind, Domain, Schema, Skew, TableId};
use std::collections::HashMap;

/// Materialized columns of one table (`columns[attr][row]`).
#[derive(Clone, Debug)]
pub struct TableData {
    pub columns: Vec<Vec<u64>>,
    pub rows: usize,
}

/// A fully generated database for one schema instance.
#[derive(Clone, Debug)]
pub struct Database {
    pub seed: u64,
    tables: Vec<TableData>,
}

impl Database {
    /// Generate all tables of `schema` at its configured row counts.
    pub fn generate(schema: &Schema, seed: u64) -> Self {
        let mut gen = Generator::new(schema, seed);
        for t in 0..schema.tables().len() {
            for a in 0..schema.table(TableId(t)).attributes.len() {
                gen.materialize(TableId(t), AttrId(a));
            }
        }
        Self {
            seed,
            tables: gen.finish(),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "table ids are minted by the schema this database was generated from"
    )]
    pub fn table(&self, t: TableId) -> &TableData {
        &self.tables[t.0]
    }

    pub fn tables(&self) -> &[TableData] {
        &self.tables
    }

    /// Column accessor.
    #[expect(
        clippy::indexing_slicing,
        reason = "table and attribute ids are minted by the schema this database was generated from"
    )]
    pub fn column(&self, t: TableId, a: AttrId) -> &[u64] {
        &self.tables[t.0].columns[a.0]
    }
}

/// Recursive column materializer with memoization.
struct Generator<'a> {
    schema: &'a Schema,
    seed: u64,
    columns: Vec<Vec<Option<Vec<u64>>>>,
    zipf_cdfs: HashMap<(u64, u64), Vec<f64>>,
}

impl<'a> Generator<'a> {
    fn new(schema: &'a Schema, seed: u64) -> Self {
        let columns = schema
            .tables()
            .iter()
            .map(|t| vec![None; t.attributes.len()])
            .collect();
        Self {
            schema,
            seed,
            columns,
            zipf_cdfs: HashMap::new(),
        }
    }

    #[expect(clippy::indexing_slicing, reason = "t enumerates the schema's tables")]
    fn finish(self) -> Vec<TableData> {
        self.columns
            .into_iter()
            .enumerate()
            .map(|(t, cols)| {
                let rows = self.schema.tables()[t].rows as usize;
                TableData {
                    // Columns no query ever touched stay unmaterialized;
                    // zero-fill them so the layout is total and
                    // deterministic either way.
                    columns: cols
                        .into_iter()
                        .map(|c| c.unwrap_or_else(|| vec![0u64; rows]))
                        .collect(),
                    rows,
                }
            })
            .collect()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "columns holds one slot per schema table and attribute; every id comes from the schema"
    )]
    fn materialize(&mut self, t: TableId, a: AttrId) {
        if self.columns[t.0][a.0].is_some() {
            return;
        }
        let table = self.schema.table(t);
        let rows = table.rows as usize;
        let attr = &table.attributes[a.0];
        let tag = splitmix64((t.0 as u64) << 32 | a.0 as u64).wrapping_add(self.seed);

        // Compound columns combine their (materialized) components.
        if let AttrKind::Compound(parts) = &attr.kind {
            let parts = parts.clone();
            for p in &parts {
                self.materialize(t, *p);
            }
            let mut out = vec![0u64; rows];
            for p in &parts {
                // materialize(t, p) above guarantees Some; skip defensively.
                let Some(col) = self.columns[t.0][p.0].as_ref() else {
                    continue;
                };
                for (o, v) in out.iter_mut().zip(col) {
                    *o = combine(*o, *v);
                }
            }
            self.columns[t.0][a.0] = Some(out);
            return;
        }

        let col: Vec<u64> = match attr.domain {
            Domain::PrimaryKey => (0..rows as u64).collect(),
            Domain::ForeignKey(parent) => {
                let d = self.schema.table(parent).rows.max(1);
                self.sample_domain(tag, rows, d, attr.skew)
            }
            Domain::Fixed(d) => self.sample_domain(tag, rows, d.max(1), attr.skew),
            Domain::Inherited { via, parent_attr } => {
                self.materialize(t, via);
                match table.attributes[via.0].domain {
                    Domain::ForeignKey(parent) => {
                        self.materialize(parent, parent_attr);
                        let fk = self.columns[t.0][via.0].clone().unwrap_or_default();
                        let parent_col = self.columns[parent.0][parent_attr.0]
                            .as_deref()
                            .unwrap_or(&[]);
                        fk.iter()
                            .map(|&r| parent_col.get(r as usize).copied().unwrap_or(0))
                            .collect()
                    }
                    // Schema validation rejects `Inherited` via a non-FK
                    // attribute; degrade to a constant column rather than
                    // aborting generation mid-episode.
                    Domain::PrimaryKey | Domain::Fixed(_) | Domain::Inherited { .. } => {
                        vec![0u64; rows]
                    }
                }
            }
        };
        self.columns[t.0][a.0] = Some(col);
    }

    fn sample_domain(&mut self, tag: u64, rows: usize, d: u64, skew: Skew) -> Vec<u64> {
        match skew {
            Skew::Uniform => (0..rows as u64).map(|r| splitmix64(tag ^ r) % d).collect(),
            Skew::Zipf(theta) => {
                let cdf = self.zipf_cdf(d, theta);
                (0..rows as u64)
                    .map(|r| {
                        let u = splitmix64(tag ^ r) as f64 / u64::MAX as f64;
                        zipf_index(cdf, u)
                    })
                    .collect()
            }
        }
    }

    fn zipf_cdf(&mut self, d: u64, theta: f64) -> &Vec<f64> {
        let key = (d, theta.to_bits());
        self.zipf_cdfs.entry(key).or_insert_with(|| {
            let d = d.min(1_000_000) as usize;
            let mut cdf = Vec::with_capacity(d);
            let mut acc = 0.0;
            for k in 1..=d {
                acc += 1.0 / (k as f64).powf(theta);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            cdf
        })
    }
}

/// Combine compound-key components (shared with the executor so compound
/// values match across tables).
pub fn combine(a: u64, b: u64) -> u64 {
    a.wrapping_mul(1_000_003).wrapping_add(b)
}

/// Map a uniform `u ∈ [0,1)` through a CDF.
fn zipf_index(cdf: &[f64], u: f64) -> u64 {
    match cdf.binary_search_by(|c| c.total_cmp(&u)) {
        Ok(i) | Err(i) => (i.min(cdf.len() - 1)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpcch_db() -> (Schema, Database) {
        let s = lpa_schema::tpcch::schema(0.002).expect("schema builds");
        let db = Database::generate(&s, 7);
        (s, db)
    }

    #[test]
    fn primary_keys_are_dense() {
        let (s, db) = tpcch_db();
        let cust = s.table_by_name("customer").unwrap();
        let col = db.column(cust, AttrId(0));
        assert_eq!(col.len(), s.table(cust).rows as usize);
        assert_eq!(col[0], 0);
        assert_eq!(col[col.len() - 1], (col.len() - 1) as u64);
    }

    #[test]
    fn foreign_keys_reference_real_parents() {
        let (s, db) = tpcch_db();
        let order = s.table_by_name("order").unwrap();
        let cust = s.table_by_name("customer").unwrap();
        let o_c = s.attr_ref("order", "o_c_key").unwrap();
        let parent_rows = s.table(cust).rows;
        for &v in db.column(order, o_c.attr) {
            assert!(v < parent_rows);
        }
    }

    #[test]
    fn inherited_columns_match_parent_rows() {
        // order.o_d_id must equal customer.c_d_id of the referenced row —
        // this is what makes district co-partitioning give local joins.
        let (s, db) = tpcch_db();
        let order = s.table_by_name("order").unwrap();
        let cust = s.table_by_name("customer").unwrap();
        let o_c = s.attr_ref("order", "o_c_key").unwrap().attr;
        let o_d = s.attr_ref("order", "o_d_id").unwrap().attr;
        let c_d = s.attr_ref("customer", "c_d_id").unwrap().attr;
        let fk = db.column(order, o_c);
        let od = db.column(order, o_d);
        let cd = db.column(cust, c_d);
        for (i, &c) in fk.iter().enumerate() {
            assert_eq!(od[i], cd[c as usize], "row {i}");
        }
    }

    #[test]
    fn compound_columns_combine_components() {
        let (s, db) = tpcch_db();
        let cust = s.table_by_name("customer").unwrap();
        let c_w = s.attr_ref("customer", "c_w_id").unwrap().attr;
        let c_d = s.attr_ref("customer", "c_d_id").unwrap().attr;
        let c_wd = s.attr_ref("customer", "c_wd").unwrap().attr;
        let w = db.column(cust, c_w);
        let d = db.column(cust, c_d);
        let wd = db.column(cust, c_wd);
        for i in 0..w.len() {
            assert_eq!(wd[i], combine(combine(0, w[i]), d[i]));
        }
    }

    #[test]
    fn zipf_columns_are_skewed() {
        let (s, db) = tpcch_db();
        let cust = s.table_by_name("customer").unwrap();
        let c_d = s.attr_ref("customer", "c_d_id").unwrap().attr;
        let col = db.column(cust, c_d);
        let mut counts = [0usize; 10];
        for &v in col {
            counts[v as usize] += 1;
        }
        // Value 0 is the hottest under Zipf.
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max);
        assert!(
            counts[0] as f64 > 1.5 * col.len() as f64 / 10.0,
            "hot district should exceed uniform share: {counts:?}"
        );
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let s = lpa_schema::microbench::schema(0.001).expect("schema builds");
        let a = Database::generate(&s, 1);
        let b = Database::generate(&s, 1);
        let c = Database::generate(&s, 2);
        let t = lpa_schema::microbench::tables::A;
        assert_eq!(a.column(t, AttrId(1)), b.column(t, AttrId(1)));
        assert_ne!(a.column(t, AttrId(1)), c.column(t, AttrId(1)));
    }

    #[test]
    fn rescaled_generation_extends_prefix_for_fixed_domains() {
        // Fixed-domain columns are pure functions of the row index, so a
        // bulk-loaded database keeps existing values for existing rows.
        let s1 = lpa_schema::tpcch::schema(0.002).expect("schema builds");
        let s2 = lpa_schema::tpcch::schema(0.003).expect("schema builds");
        let d1 = Database::generate(&s1, 7);
        let d2 = Database::generate(&s2, 7);
        let cust = s1.table_by_name("customer").unwrap();
        let c_d = s1.attr_ref("customer", "c_d_id").unwrap().attr;
        let a = d1.column(cust, c_d);
        let b = d2.column(cust, c_d);
        assert!(b.len() > a.len());
        assert_eq!(&b[..a.len()], a);
    }
}
