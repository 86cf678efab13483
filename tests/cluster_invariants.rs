//! Correctness invariants of the distributed executor: a query's *result*
//! must not depend on how the data is partitioned — only its cost may.
//!
//! Formerly `proptest`-driven; now explicit seed-indexed loops over the
//! vendored deterministic `StdRng` (same case counts as before).

use lpa::cluster::{direct_deploy, QueryOutcome};
use lpa::partition::valid_actions;
use lpa::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn outcome_rows(o: QueryOutcome) -> u64 {
    match o {
        QueryOutcome::Completed { output_rows, .. } => output_rows,
        QueryOutcome::TimedOut { .. } => panic!("unexpected timeout"),
        QueryOutcome::Failed { .. } => panic!("unexpected failure"),
    }
}

/// Walk to a random partitioning by applying `choices` valid actions.
fn random_partitioning(schema: &lpa::schema::Schema, choices: &[usize]) -> Partitioning {
    let mut p = Partitioning::initial(schema);
    for &c in choices {
        let actions = valid_actions(schema, &p);
        p = actions[c % actions.len()]
            .apply(schema, &p)
            .expect("valid action applies");
    }
    p
}

#[test]
fn join_results_are_placement_independent() {
    let schema = lpa::schema::microbench::schema(0.002).expect("schema builds");
    let workload = lpa::workload::microbench::workload(&schema).expect("workload builds");
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x6000 + case);
        let n = rng.gen_range(0..10usize);
        let choices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..500usize)).collect();
        let engine = if rng.gen::<bool>() {
            EngineProfile::system_x()
        } else {
            EngineProfile::pgxl()
        };
        let mut cluster = Cluster::new(
            schema.clone(),
            ClusterConfig::new(engine, HardwareProfile::standard()),
        );
        // Reference result under the initial layout.
        let reference: Vec<u64> = workload
            .queries()
            .iter()
            .map(|q| outcome_rows(cluster.run_query(q, None)))
            .collect();
        // Any reachable layout must produce identical results.
        let p = random_partitioning(&schema, &choices);
        direct_deploy(&mut cluster, &p);
        for (q, want) in workload.queries().iter().zip(&reference) {
            let got = outcome_rows(cluster.run_query(q, None));
            assert_eq!(got, *want, "layout {}", p.describe(&schema));
        }
    }
}

#[test]
fn tpcch_results_placement_independent_across_key_layouts() {
    // The district-chain layout relies on inherited columns; its results
    // must match the PK layout exactly (locality, not semantics, changes).
    let schema = lpa::schema::tpcch::schema(0.001).expect("schema builds");
    let workload = lpa::workload::tpcch::workload(&schema).expect("workload builds");
    let mut cluster = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
    );
    let q13 = workload
        .queries()
        .iter()
        .find(|q| q.name == "ch_q13")
        .expect("ch_q13 exists");
    let q18 = workload
        .queries()
        .iter()
        .find(|q| q.name == "ch_q18")
        .expect("ch_q18 exists");
    let base: Vec<u64> = [q13, q18]
        .iter()
        .map(|q| match cluster.run_query(q, None) {
            QueryOutcome::Completed { output_rows, .. } => output_rows,
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => {
                panic!("expected completion")
            }
        })
        .collect();
    // District co-partitioning via the edge.
    let e = schema
        .edge_between(
            schema.attr_ref("customer", "c_d_id").expect("c_d_id"),
            schema.attr_ref("order", "o_d_id").expect("o_d_id"),
        )
        .expect("district edge exists");
    let co = Action::ActivateEdge(e)
        .apply(&schema, &Partitioning::initial(&schema))
        .expect("edge activates");
    direct_deploy(&mut cluster, &co);
    let co_rows: Vec<u64> = [q13, q18]
        .iter()
        .map(|q| match cluster.run_query(q, None) {
            QueryOutcome::Completed { output_rows, .. } => output_rows,
            QueryOutcome::TimedOut { .. } | QueryOutcome::Failed { .. } => {
                panic!("expected completion")
            }
        })
        .collect();
    assert_eq!(base, co_rows);
    assert!(base[0] > 0, "q13 joins must produce rows");
}

#[test]
fn skewed_partitioning_is_measurably_slower_on_system_x() {
    // The Section 7.2 System-X effect: partitioning by the skewed
    // low-cardinality district column costs more than the balanced
    // compound key — measured, not modeled.
    let schema = lpa::schema::tpcch::schema(0.002).expect("schema builds");
    let workload = lpa::workload::tpcch::workload(&schema).expect("workload builds");
    let q13 = workload
        .queries()
        .iter()
        .find(|q| q.name == "ch_q13")
        .expect("ch_q13 exists");
    let mut cluster = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    let by = |cluster: &mut Cluster, cust_attr: &str, ord_attr: &str| {
        let c = schema.attr_ref("customer", cust_attr).expect("cust attr");
        let o = schema.attr_ref("order", ord_attr).expect("order attr");
        let mut states = Partitioning::initial(&schema).table_states().to_vec();
        states[c.table.0] = TableState::PartitionedBy(c.attr);
        states[o.table.0] = TableState::PartitionedBy(o.attr);
        let p = Partitioning::from_states(&schema, states);
        direct_deploy(cluster, &p);
        cluster
            .run_query(q13, None)
            .completed()
            .expect("no timeout")
    };
    let district = by(&mut cluster, "c_d_id", "o_d_id");
    let compound = by(&mut cluster, "c_wd", "o_wd");
    assert!(
        compound < district,
        "compound {compound} must beat skewed district {district}"
    );
}

// ---------------------------------------------------------------------------
// Clean-execution memo differential (DESIGN.md §16): `Cluster::run_query`
// answers repeated fault-free, untimed executions from its substrate's
// memo. The oracle below never sees the memo: it recomputes every outcome
// with a fresh `Executor::execute` over its own copy of the data and
// layouts, and replays the fault roll, clock and accounting around it.
// ---------------------------------------------------------------------------

use lpa::cluster::executor::{layout_table, Executor, Layout};
use lpa::cluster::{Database, FailReason, OptimizerEstimator};
use lpa::workload::Query;

struct Oracle {
    schema: lpa::schema::Schema,
    config: ClusterConfig,
    db: Database,
    optimizer: OptimizerEstimator,
    deployed: Partitioning,
    layouts: Vec<Layout>,
    plan: FaultPlan,
    stats_epoch: u64,
    clock: f64,
    executed: u64,
    accounting: FaultAccounting,
}

impl Oracle {
    fn new(schema: lpa::schema::Schema, config: ClusterConfig, plan: FaultPlan) -> Self {
        let mut me = Self {
            db: Database::generate(&schema, config.seed),
            optimizer: OptimizerEstimator::new(config.engine, config.hardware),
            deployed: Partitioning::initial(&schema),
            layouts: Vec::new(),
            schema,
            config,
            plan,
            stats_epoch: 0,
            clock: 0.0,
            executed: 0,
            accounting: FaultAccounting::default(),
        };
        me.relayout();
        me
    }

    fn relayout(&mut self) {
        self.layouts = (0..self.schema.tables().len())
            .map(|t| {
                layout_table(
                    &self.db,
                    &self.config.engine,
                    self.config.hardware.nodes,
                    lpa::schema::TableId(t),
                    self.deployed.table_state(lpa::schema::TableId(t)),
                )
            })
            .collect();
    }

    /// `seconds` is what the cluster charged for the migration — deploys
    /// never touch the memo, so the oracle takes the charge as given.
    fn deploy(&mut self, target: &Partitioning, seconds: f64) {
        self.deployed = target.clone();
        self.relayout();
        self.clock += seconds;
    }

    /// The grown schema is the cluster's; the rows are regenerated here.
    fn bulk_update(&mut self, grown: lpa::schema::Schema) {
        self.db = Database::generate(&grown, self.config.seed);
        self.schema = grown;
        self.relayout();
        self.stats_epoch += 1;
    }

    fn run_query(&mut self, query: &Query, timeout: Option<f64>) -> QueryOutcome {
        let faults = self.plan.state_at(self.clock, self.config.hardware.nodes);
        self.executed += 1;
        let overhead = self.config.engine.query_overhead;
        if self.plan.transient_failure(self.clock, self.executed) {
            self.clock += overhead;
            self.accounting.queries_failed += 1;
            self.accounting.transient_failures += 1;
            return QueryOutcome::Failed {
                reason: FailReason::Transient,
                seconds: overhead,
            };
        }
        let hashed = |t: &lpa::schema::TableId| matches!(self.layouts[t.0], Layout::Hashed { .. });
        if let Some(node) = faults.down.iter().position(|d| *d) {
            if query.tables.iter().any(hashed) {
                self.clock += overhead;
                self.accounting.queries_failed += 1;
                self.accounting.node_down_failures += 1;
                return QueryOutcome::Failed {
                    reason: FailReason::NodeDown { node },
                    seconds: overhead,
                };
            }
        }
        let plan = self
            .optimizer
            .plan(&self.schema, query, &self.deployed, self.stats_epoch);
        let exec = Executor {
            schema: &self.schema,
            db: &self.db,
            engine: &self.config.engine,
            hw: &self.config.hardware,
            layouts: &self.layouts,
            faults: &faults,
        };
        match exec.execute(query, &plan, timeout) {
            Some(r) => {
                self.clock += r.seconds;
                let degraded = faults.any_fault();
                if degraded {
                    self.accounting.degraded_completions += 1;
                }
                if faults.nodes_down() > 0 {
                    self.accounting.failovers += 1;
                }
                QueryOutcome::Completed {
                    seconds: r.seconds,
                    output_rows: r.output_rows,
                    degraded,
                }
            }
            None => {
                let limit = timeout.unwrap_or(0.0);
                self.clock += limit;
                self.accounting.timeouts += 1;
                QueryOutcome::TimedOut { limit }
            }
        }
    }
}

fn assert_in_step(cluster: &Cluster, oracle: &Oracle, at: &str) {
    assert_eq!(
        cluster.clock().to_bits(),
        oracle.clock.to_bits(),
        "clock {at}"
    );
    assert_eq!(cluster.queries_executed(), oracle.executed, "executed {at}");
    assert_eq!(cluster.fault_accounting(), oracle.accounting, "ledger {at}");
}

/// A storm mild enough that the clock keeps crossing fault-free windows
/// (the standard storm leaves about one window in seventy nominal).
fn patchy_storm(seed: u64) -> FaultPlan {
    FaultPlan {
        crash_rate: 0.08,
        straggle_rate: 0.08,
        link_degrade_rate: 0.08,
        window_seconds: 0.02,
        ..FaultPlan::storm(seed)
    }
}

/// What one [`memo_differential`] sequence exercised.
struct MemoCoverage {
    hits: u64,
    misses: u64,
    /// Executions that were faulted or timed.
    bypassed: u64,
    /// Completed executions that skipped the memo: faulted, or fault-free
    /// and timed (`SubstrateStats::bypassed_*`).
    completed_bypasses: [u64; 2],
    /// Clean repeats with a faulted or timed execution since the first.
    clean_repeats_after_a_storm: u64,
}

/// One seeded op sequence against `Cluster::run_query` and the oracle.
fn memo_differential(
    bench: &str,
    plan: FaultPlan,
    timeouts: bool,
    steps: usize,
    case: u64,
) -> MemoCoverage {
    let (schema, workload) = match bench {
        "ssb" => {
            let s = lpa::schema::ssb::schema(0.002).expect("schema builds");
            let w = lpa::workload::ssb::workload(&s).expect("workload builds");
            (s, w)
        }
        _ => {
            let s = lpa::schema::tpcch::schema(0.001).expect("schema builds");
            let w = lpa::workload::tpcch::workload(&s).expect("workload builds");
            (s, w)
        }
    };
    let config = ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard());
    let mut cluster = Cluster::new(schema.clone(), config).with_faults(plan);
    let mut oracle = Oracle::new(schema.clone(), config, plan);
    let uniform = workload.uniform_frequencies();
    let mut rng = StdRng::seed_from_u64(0x3E30_0000 + case);
    let mut p = Partitioning::initial(&schema);
    // What a clean execution of (query, layout, epoch) returned the first
    // time: every later clean one — a hit — must return the same bits,
    // however many storm windows passed in between.
    let mut first_clean: std::collections::BTreeMap<(usize, String, u64), (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut bypassed = 0u64;
    let mut clean_repeats_after_a_storm = 0u64;
    // A bulk update moves the cluster to a fresh substrate; keep the old
    // one's counts.
    let mut counted = [0u64; 4];
    let mut add_counts = |s: lpa::cluster::SubstrateStats| {
        let new = [
            s.memo_hits,
            s.memo_misses,
            s.bypassed_degraded,
            s.bypassed_timed,
        ];
        for (total, n) in counted.iter_mut().zip(new) {
            *total += n;
        }
    };

    let mut run = |cluster: &mut Cluster,
                   oracle: &mut Oracle,
                   p: &Partitioning,
                   qi: usize,
                   timeout: Option<f64>,
                   at: &str| {
        let query = &workload.queries()[qi];
        let entries = cluster.substrate().stats().memo_entries;
        let nominal = !plan
            .state_at(cluster.clock(), config.hardware.nodes)
            .any_fault();
        let got = cluster.run_query(query, timeout);
        let want = oracle.run_query(query, timeout);
        assert_eq!(got, want, "{at}: query {qi} timeout {timeout:?}");
        assert_in_step(cluster, oracle, at);
        if !nominal || timeout.is_some() {
            bypassed += 1;
            assert_eq!(
                cluster.substrate().stats().memo_entries,
                entries,
                "{at}: a faulted or timed execution wrote the memo"
            );
            return;
        }
        match got {
            QueryOutcome::Completed { seconds, .. } => {
                let key = (qi, format!("{:?}", p.table_states()), oracle.stats_epoch);
                let (first, bypassed_then) = *first_clean
                    .entry(key)
                    .or_insert((seconds.to_bits(), bypassed));
                assert_eq!(seconds.to_bits(), first, "{at}: clean repeat of query {qi}");
                if bypassed > bypassed_then {
                    clean_repeats_after_a_storm += 1;
                }
            }
            // A transient error can strike in a fault-free window.
            QueryOutcome::Failed { .. } => {}
            QueryOutcome::TimedOut { .. } => panic!("{at}: timed out without a timeout"),
        }
    };

    for step in 0..steps {
        let at = format!("{bench} case {case} step {step}");
        if step == steps / 2 {
            add_counts(cluster.substrate().stats());
            cluster.bulk_update(0.25);
            oracle.bulk_update(cluster.schema().clone());
            assert_eq!(
                cluster.substrate().stats().memo_entries,
                0,
                "{at}: copy-on-growth"
            );
        }
        match rng.gen_range(0..10usize) {
            0 | 1 => {
                let actions = valid_actions(cluster.schema(), &p);
                p = actions[rng.gen_range(0..actions.len())]
                    .apply(cluster.schema(), &p)
                    .expect("valid action applies");
                let seconds = direct_deploy(&mut cluster, &p);
                oracle.deploy(&p, seconds);
            }
            2 => {
                // Go back: the layouts the memo already knows come around.
                p = Partitioning::initial(&schema);
                let seconds = direct_deploy(&mut cluster, &p);
                oracle.deploy(&p, seconds);
            }
            3 => {
                let seconds = rng.gen_range(0.0..0.05);
                cluster.advance_clock(seconds);
                oracle.clock += seconds;
            }
            4 => {
                let total = cluster.run_workload(&workload, &uniform);
                let mut want = 0.0;
                for (qi, f) in uniform.as_slice().iter().enumerate() {
                    if *f != 0.0 {
                        want += f * oracle.run_query(&workload.queries()[qi], None).seconds();
                    }
                }
                assert_eq!(total.to_bits(), want.to_bits(), "{at}: run_workload");
            }
            _ => {
                let qi = rng.gen_range(0..workload.queries().len());
                let timeout = match rng.gen_range(0..4usize) {
                    0 if timeouts => Some(1e-4),
                    1 if timeouts => Some(5.0),
                    _ => None,
                };
                run(&mut cluster, &mut oracle, &p, qi, timeout, &at);
            }
        }
        assert_in_step(&cluster, &oracle, &at);
    }
    add_counts(cluster.substrate().stats());
    let [hits, misses, degraded, timed] = counted;
    // Every completed execution is a memo hit, a miss, or a bypass by cause.
    let ledger = cluster.fault_accounting();
    assert_eq!(degraded, ledger.degraded_completions, "{bench} case {case}");
    assert_eq!(
        degraded + timed + hits + misses,
        cluster.queries_executed() - ledger.queries_failed - ledger.timeouts,
        "{bench} case {case}: completed executions"
    );
    MemoCoverage {
        hits,
        misses,
        bypassed,
        completed_bypasses: [degraded, timed],
        clean_repeats_after_a_storm,
    }
}

#[test]
fn memoised_run_query_matches_a_fresh_executor() {
    for threads in [1usize, 8] {
        lpa::par::with_threads(threads, || {
            for bench in ["ssb", "tpcch"] {
                let c = memo_differential(bench, FaultPlan::none(), false, 60, 0);
                assert!(
                    c.hits > 0 && c.misses > 0,
                    "{bench}: {} hits, {} misses",
                    c.hits,
                    c.misses
                );
                assert_eq!(c.bypassed, 0, "{bench}: an inert plan never faults");
                assert_eq!(c.completed_bypasses, [0, 0], "{bench}");
            }
        });
    }
}

#[test]
fn faulted_and_timed_executions_never_touch_the_memo() {
    for threads in [1usize, 8] {
        lpa::par::with_threads(threads, || {
            for (case, bench) in ["ssb", "tpcch"].into_iter().enumerate() {
                let plan = patchy_storm(0x57_0000 + case as u64);
                let c = memo_differential(bench, plan, true, 160, 1);
                assert!(
                    c.hits > 0
                        && c.completed_bypasses.iter().all(|&n| n > 0)
                        && c.clean_repeats_after_a_storm > 0,
                    "{bench}: the sequence must cross clean and faulted windows \
                     ({} hits, {} misses, {} bypassed, {:?} completed bypasses, \
                     {} clean repeats after a storm)",
                    c.hits,
                    c.misses,
                    c.bypassed,
                    c.completed_bypasses,
                    c.clean_repeats_after_a_storm
                );
            }
        });
    }
}

/// Eight pool workers, each with its own cluster on one shared substrate,
/// walk the same three layouts from different starting points and run the
/// whole workload twice on each, so the same keys arrive from several
/// threads at once. Every result must carry the bits a private cluster
/// computes, every distinct key must execute exactly once, and the
/// substrate's stats must not depend on how the workers interleaved.
#[test]
fn concurrent_clusters_on_one_substrate_execute_each_key_once() {
    use lpa::cluster::Substrate;
    use lpa::partition::fingerprint::pack;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Barrier};

    const WORKERS: usize = 8;
    const PASSES: usize = 2;
    let schema = lpa::schema::tpcch::schema(0.001).expect("schema builds");
    let workload = lpa::workload::tpcch::workload(&schema).expect("workload builds");
    let config = ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard());
    let layouts: Vec<Partitioning> = (0..3)
        .map(|i| random_partitioning(&schema, &[7 * i + 1, 13 * i + 2, 5 * i]))
        .collect();
    let bits = |o: QueryOutcome| match o {
        QueryOutcome::Completed {
            seconds,
            output_rows,
            degraded: false,
        } => (seconds.to_bits(), output_rows),
        other => panic!("a clean execution must complete: {other:?}"),
    };
    // Worker `w` visits the layouts starting at `w % 3`.
    let walk = |cluster: &mut Cluster, w: usize| -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for k in 0..layouts.len() {
            direct_deploy(cluster, &layouts[(w + k) % layouts.len()]);
            for _ in 0..PASSES {
                for q in workload.queries() {
                    out.push(bits(cluster.run_query(q, None)));
                }
            }
        }
        out
    };
    let reference: Vec<Vec<(u64, u64)>> = (0..layouts.len())
        .map(|w| walk(&mut Cluster::new(schema.clone(), config), w))
        .collect();
    // A key is the query and the states of the tables it names (the
    // statistics epoch never moves here).
    let distinct: BTreeSet<(usize, Vec<u32>)> = layouts
        .iter()
        .flat_map(|p| {
            workload.queries().iter().enumerate().map(move |(i, q)| {
                let states = q.tables.iter().map(|&t| pack(p.table_state(t)));
                (i, states.collect())
            })
        })
        .collect();

    let run = |threads: usize| {
        let substrate = Arc::new(Substrate::new(schema.clone(), config));
        // With a thread per worker, every worker attaches before any runs
        // a query, so the workers start their walks together.
        let start = Barrier::new(if threads >= WORKERS { WORKERS } else { 1 });
        let outcomes = lpa::par::Pool::with_threads(threads).par_index_map(WORKERS, |w| {
            let mut cluster = Cluster::on_substrate(Arc::clone(&substrate));
            start.wait();
            walk(&mut cluster, w)
        });
        for (w, got) in outcomes.iter().enumerate() {
            assert_eq!(
                got,
                &reference[w % layouts.len()],
                "worker {w}, {threads} threads"
            );
        }
        substrate.stats()
    };
    let serial = run(1);
    let executions = (WORKERS * layouts.len() * PASSES * workload.queries().len()) as u64;
    assert_eq!(serial.memo_misses, distinct.len() as u64);
    assert_eq!(serial.memo_entries, distinct.len());
    assert_eq!(serial.memo_hits, executions - distinct.len() as u64);
    for threads in [8, 8, 1] {
        assert_eq!(run(threads), serial, "{threads} threads");
    }
}
