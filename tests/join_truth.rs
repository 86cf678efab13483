//! Truth oracle for the executors' row counts. A row-tuple join over the
//! generated `Database`, written here from the documented semantics and
//! sharing no code with `execute` or `reference::execute`, must report the same
//! `output_rows` as both for every prefix of the optimizer's plan of every
//! SSB and TPC-CH query, on the initial and the all-replicated layout. The
//! executors are otherwise checked only against each other.

use lpa::cluster::executor::{layout_table, Executor, Layout};
use lpa::cluster::{Database, FaultState, OptimizerEstimator};
use lpa::costmodel::QueryPlan;
use lpa::partition::TableState;
use lpa::prelude::*;
use lpa::schema::{Schema, TableId};
use lpa::workload::Query;
use std::collections::BTreeMap;

/// The SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The rows of `t` that `query`'s local predicate keeps: all of them at a
/// selectivity of 1, else each row whose id, mixed with a tag of the query
/// name's FNV-1a hash and the table id, falls at or below selectivity ×
/// `u64::MAX`.
fn kept_rows(db: &Database, query: &Query, t: TableId) -> Vec<u32> {
    let rows = db.table(t).rows as u32;
    let sel = query.table_selectivity(t);
    if sel >= 1.0 {
        return (0..rows).collect();
    }
    let fnv = (query.name.bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    let tag = mix(fnv ^ ((t.0 as u64) << 17));
    let threshold = (sel * u64::MAX as f64) as u64;
    (0..rows)
        .filter(|&r| mix(tag ^ r as u64) <= threshold)
        .collect()
}

/// The join's row count after each step of `plan`. A tuple holds one base
/// row id per query table; each step looks the left value of every tuple's
/// primary join pair up among its right table's kept rows, grouped by value
/// in a `BTreeMap`, and extends the tuple by each match on which the join's
/// other pairs, the equivalences a composite key implies, hold as well.
fn truth(db: &Database, query: &Query, plan: &QueryPlan) -> Vec<usize> {
    let width = query.tables.len();
    let slot = |t: TableId| query.tables.iter().position(|&x| x == t).unwrap();
    let start = plan.start_table.unwrap();
    let mut tuples = Vec::new();
    for r in kept_rows(db, query, start) {
        let mut tuple = vec![u32::MAX; width];
        tuple[slot(start)] = r;
        tuples.extend(tuple);
    }
    let mut counts = Vec::new();
    for step in &plan.steps {
        let mut pairs = (query.joins[step.join_index].pairs.iter()).map(|&(a, b)| {
            if b.table == step.table {
                (a, b)
            } else {
                (b, a)
            }
        });
        let (left, right) = pairs.next().unwrap();
        let implied: Vec<_> = pairs.collect();
        let right_col = db.column(right.table, right.attr);
        let mut by_value: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for r in kept_rows(db, query, step.table) {
            by_value.entry(right_col[r as usize]).or_default().push(r);
        }
        let left_col = db.column(left.table, left.attr);
        let mut joined = Vec::new();
        for tuple in tuples.chunks(width) {
            let value = left_col[tuple[slot(left.table)] as usize];
            for &r in by_value.get(&value).into_iter().flatten() {
                if !implied.iter().all(|&(l, rr)| {
                    db.column(l.table, l.attr)[tuple[slot(l.table)] as usize]
                        == db.column(rr.table, rr.attr)[r as usize]
                }) {
                    continue;
                }
                joined.extend_from_slice(tuple);
                let at = joined.len() - width + slot(step.table);
                joined[at] = r;
            }
        }
        tuples = joined;
        counts.push(tuples.len() / width);
    }
    counts
}

fn check_benchmark(schema: Schema, workload: Workload) {
    let (engine, hw) = (EngineProfile::pgxl(), HardwareProfile::standard());
    let db = Database::generate(&schema, 0x7A57);
    let optimizer = OptimizerEstimator::new(engine, hw);
    let faults = FaultState::nominal(hw.nodes);
    let tables = schema.tables().len();
    let replicated = Partitioning::from_states(&schema, vec![TableState::Replicated; tables]);
    let mut prefixes = 0;
    for partitioning in [Partitioning::initial(&schema), replicated] {
        let layouts: Vec<Layout> = (0..tables)
            .map(|t| {
                let state = partitioning.table_state(TableId(t));
                layout_table(&db, &engine, hw.nodes, TableId(t), state)
            })
            .collect();
        let exec = Executor {
            schema: &schema,
            db: &db,
            engine: &engine,
            hw: &hw,
            layouts: &layouts,
            faults: &faults,
        };
        for query in workload.queries() {
            let plan = optimizer.plan(&schema, query, &partitioning, 0);
            let rows = |plan: &QueryPlan| {
                let fast = exec.execute(query, plan, None).unwrap().output_rows;
                let naive = lpa::cluster::reference::execute(&exec, query, plan, None)
                    .unwrap()
                    .output_rows;
                (fast as usize, naive as usize)
            };
            if query.joins.is_empty() {
                let kept = kept_rows(&db, query, query.tables[0]).len();
                assert_eq!(rows(&plan), (kept, kept), "{}", query.name);
                continue;
            }
            for (k, want) in truth(&db, query, &plan).into_iter().enumerate() {
                let prefix = QueryPlan {
                    steps: plan.steps[..=k].to_vec(),
                    ..plan.clone()
                };
                let at = format!("{} through step {k}", query.name);
                assert_eq!(rows(&prefix), (want, want), "{at}");
                prefixes += 1;
            }
        }
    }
    assert!(prefixes >= 2 * workload.queries().len(), "{prefixes}");
}

#[test]
fn executors_match_a_row_tuple_join_on_every_plan_prefix() {
    let schema = lpa::schema::ssb::schema(0.02).expect("schema builds");
    let workload = lpa::workload::ssb::workload(&schema).expect("workload builds");
    check_benchmark(schema, workload);
    let schema = lpa::schema::tpcch::schema(0.004).expect("schema builds");
    let workload = lpa::workload::tpcch::workload(&schema).expect("workload builds");
    check_benchmark(schema, workload);
}
