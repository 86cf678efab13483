//! `service_sql`: one `PartitioningService` ingesting generated SQL text
//! window after window.
//!
//! Chosen because `lpa-sql` (lex, parse, resolve) and the workload monitor
//! do most of the work here; the NN appears only as batch-1 inference and a
//! few short incremental trainings, and the executor appears as full
//! pinned-workload canary runs plus real repartitioning, without the
//! runtime cache `online_storm` puts in front of it. Nothing but the
//! statement mix drives the service: the dominant template rotates, new join
//! shapes appear, and the forecaster, advisor and guardrail decide what to
//! stage. On SSB that is four canaries in 75 windows (one layout is best for
//! every mix once the agent has found it), so 12 windows stage or observe a
//! canary and 4 train: the median window close is an idle one, the p90 one
//! stages a canary (baseline run of the pinned workload + repartitioning).

use crate::harness::{
    mean, mix, mix_str, Checks, Pass, RunCfg, Workload, FNV_OFFSET, TRAJECTORY_SEED,
};
use crate::offline_train::{cost_params, profile_begin, profile_end, untrained_advisor};
use crate::trace::Tracer;
use lpa_cluster::{Cluster, ClusterConfig, EngineProfile, GuardrailEvent, HardwareProfile};
use lpa_costmodel::NetworkCostModel;
use lpa_par::derive_stream;
use lpa_partition::Partitioning;
use lpa_rl::DqnConfig;
use lpa_service::{Observation, PartitioningService, ServiceConfig, ServiceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SALT_AGENT: u64 = 0x5E41_0001;
const SALT_CLUSTER: u64 = 0x5E41_0002;
const SALT_CORPUS: u64 = 0x5E41_0003;

const RESERVED_SLOTS: usize = 8;
/// Share of a window's statements drawn from the dominant template: high
/// enough that a rotation moves the forecast mix past the guardrail's
/// amortisation gate while the agent's advice still differs between mixes.
const DOMINANT_SHARE: f64 = 0.9;

const LO_DATE: &str = "l.lo_orderdate = d.d_datekey";
const LO_PART: &str = "l.lo_partkey = p.p_partkey";
const LO_SUPP: &str = "l.lo_suppkey = s.s_suppkey";
const LO_CUST: &str = "l.lo_custkey = c.c_custkey";

/// `n` distinct literals starting at a random offset inside `0..domain`.
fn in_list(rng: &mut StdRng, n: usize, domain: usize) -> String {
    let start = rng.gen_range(0..domain);
    (0..n)
        .map(|i| ((start + i) % domain).to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Statement templates that map onto the SSB workload's representative
/// queries (same tables, joins and selectivity buckets), literals varied
/// per statement.
const KNOWN_TEMPLATES: usize = 10;

fn known_statement(template: usize, rng: &mut StdRng) -> String {
    let year = 1992 + rng.gen_range(0..7);
    let key = rng.gen_range(10..100_000);
    let nation = rng.gen_range(0..25);
    let city = rng.gen_range(0..250);
    match template {
        // Flight 1: lineorder ⋈ date.
        0 => format!(
            "SELECT sum(l.lo_orderkey) FROM lineorder l, date d WHERE {LO_DATE} \
             AND d.d_year = {year} AND l.lo_orderkey < {key}"
        ),
        1 => format!(
            "SELECT sum(l.lo_orderkey) FROM lineorder l JOIN date d ON {LO_DATE} \
             WHERE d.d_year = {year} AND d.d_datekey < {key} AND l.lo_orderkey < {key} \
             AND l.lo_custkey < {} AND l.lo_partkey > {}",
            key + 7,
            key / 2
        ),
        // Flight 2: + part, supplier.
        2 => format!(
            "SELECT sum(l.lo_orderkey), p.p_brand FROM lineorder l, date d, part p, supplier s \
             WHERE {LO_DATE} AND {LO_PART} AND {LO_SUPP} AND p.p_category = {} \
             AND s.s_nation IN ({}) GROUP BY p.p_brand ORDER BY p.p_brand",
            rng.gen_range(0..25),
            in_list(rng, 5, 25)
        ),
        3 => format!(
            "SELECT sum(l.lo_orderkey), d.d_year FROM lineorder l, date d, part p, supplier s \
             WHERE {LO_DATE} AND {LO_PART} AND {LO_SUPP} AND p.p_brand = {} \
             AND s.s_nation IN ({}) GROUP BY d.d_year",
            rng.gen_range(0..1000),
            in_list(rng, 5, 25)
        ),
        // Flight 3: customer, supplier, date.
        4 => format!(
            "SELECT c.c_nation, s.s_nation, sum(l.lo_orderkey) FROM lineorder l, customer c, \
             supplier s, date d WHERE {LO_CUST} AND {LO_SUPP} AND {LO_DATE} \
             AND c.c_nation IN ({}) AND s.s_nation IN ({}) AND d.d_year IN ({}) \
             GROUP BY c.c_nation, s.s_nation",
            in_list(rng, 5, 25),
            in_list(rng, 5, 25),
            in_list(rng, 6, 7)
        ),
        5 => format!(
            "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, \
             supplier s, date d WHERE {LO_CUST} AND {LO_SUPP} AND {LO_DATE} \
             AND c.c_nation = {nation} AND s.s_nation = {nation} AND d.d_year IN ({}) \
             GROUP BY c.c_city, s.s_city",
            in_list(rng, 6, 7)
        ),
        6 => format!(
            "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, \
             supplier s, date d WHERE {LO_CUST} AND {LO_SUPP} AND {LO_DATE} \
             AND c.c_city = {city} AND s.s_city = {} AND d.d_year IN ({})",
            (city + 1) % 250,
            in_list(rng, 6, 7)
        ),
        7 => format!(
            "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, \
             supplier s, date d WHERE {LO_CUST} AND {LO_SUPP} AND {LO_DATE} \
             AND c.c_city = {city} AND s.s_city = {city} AND d.d_year = {year} \
             AND d.d_datekey < {key}"
        ),
        // Flight 4: all four dimensions.
        8 => format!(
            "SELECT d.d_year, c.c_nation, sum(l.lo_orderkey) FROM lineorder l, customer c, \
             supplier s, part p, date d WHERE {LO_CUST} AND {LO_SUPP} AND {LO_PART} AND {LO_DATE} \
             AND c.c_nation IN ({}) AND s.s_nation IN ({}) AND p.p_category IN ({}) \
             GROUP BY d.d_year, c.c_nation",
            in_list(rng, 5, 25),
            in_list(rng, 5, 25),
            in_list(rng, 10, 25)
        ),
        _ => format!(
            "SELECT d.d_year, s.s_city, p.p_brand, sum(l.lo_orderkey) FROM lineorder l, \
             customer c, supplier s, part p, date d WHERE {LO_CUST} AND {LO_SUPP} AND {LO_PART} \
             AND {LO_DATE} AND c.c_nation IN ({}) AND s.s_nation = {nation} \
             AND p.p_category = {} AND d.d_year IN ({}) GROUP BY d.d_year, s.s_city, p.p_brand",
            in_list(rng, 5, 25),
            rng.gen_range(0..25),
            in_list(rng, 2, 7)
        ),
    }
}

/// Join shapes the SSB workload does not contain; the monitor quarantines
/// them and the service trains on them incrementally.
fn new_statement(shape: usize, rng: &mut StdRng) -> String {
    match shape {
        0 => "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city".to_string(),
        1 => format!(
            "SELECT count(*) FROM part p, lineorder l WHERE {LO_PART} AND p.p_category = {}",
            rng.gen_range(0..25)
        ),
        2 => format!(
            "SELECT count(*) FROM lineorder l, customer c WHERE {LO_CUST} AND c.c_nation = {}",
            rng.gen_range(0..25)
        ),
        3 => format!(
            "SELECT count(*) FROM lineorder l, supplier s WHERE {LO_SUPP} AND s.s_city = {}",
            rng.gen_range(0..250)
        ),
        4 => format!(
            "SELECT count(*) FROM lineorder l, part p, supplier s WHERE {LO_PART} AND {LO_SUPP} \
             AND p.p_brand = {}",
            rng.gen_range(0..1000)
        ),
        5 => format!(
            "SELECT count(*) FROM lineorder l, customer c, part p WHERE {LO_CUST} AND {LO_PART} \
             AND c.c_city = {}",
            rng.gen_range(0..250)
        ),
        6 => format!(
            "SELECT count(*) FROM customer c, supplier s WHERE c.c_nation = s.s_nation \
             AND c.c_city = {}",
            rng.gen_range(0..250)
        ),
        _ => format!(
            "SELECT count(*) FROM lineorder l, date d, customer c WHERE {LO_DATE} AND {LO_CUST} \
             AND d.d_year = {} AND c.c_nation = {}",
            1992 + rng.gen_range(0..7),
            rng.gen_range(0..25)
        ),
    }
}

/// `new_statement` has this many shapes: two per incremental training,
/// filling the eight reserved slots.
const NEW_SHAPES: usize = 8;

struct Sizes {
    windows: usize,
    statements: usize,
    /// Windows between changes of the dominant template.
    rotate: usize,
    /// Windows at which two new join shapes first appear.
    new_shape_windows: &'static [usize],
    train_episodes: usize,
}

fn sizes(cfg: &RunCfg) -> Sizes {
    cfg.pick(
        Sizes {
            windows: 75,
            statements: 2000,
            rotate: 10,
            new_shape_windows: &[12, 25, 37, 50],
            train_episodes: 50,
        },
        Sizes {
            windows: 12,
            statements: 200,
            rotate: 4,
            new_shape_windows: &[4],
            train_episodes: 6,
        },
    )
}

/// How many statements of each template (known ones first, then the new
/// shapes seen so far) window `w` carries. The counts are the same for every
/// seed, so the mix the monitor reports, and with it everything the service
/// decides, is too.
fn template_counts(w: usize, sz: &Sizes) -> Vec<usize> {
    let dominant = (w / sz.rotate) % KNOWN_TEMPLATES;
    let shapes = 2 * sz.new_shape_windows.iter().filter(|at| **at <= w).count();
    let kinds = KNOWN_TEMPLATES + shapes;
    let focus = (sz.statements as f64 * DOMINANT_SHARE) as usize;
    let rest = sz.statements - focus;
    let mut counts: Vec<usize> = (0..kinds)
        .map(|k| rest / kinds + usize::from(k < rest % kinds))
        .collect();
    counts[dominant] += focus;
    // No two new shapes are equally hot: the service absorbs pending
    // queries hottest first, and a tie would leave their order (and so
    // their slots) to a hash map.
    for s in 0..shapes {
        counts[KNOWN_TEMPLATES + s] += 2 * s;
        counts[dominant] -= 2 * s;
    }
    counts
}

/// The statements of every window. `seed` draws the literals and the order
/// inside a window; how many statements of each template a window carries
/// does not depend on it.
fn corpus(seed: u64, sz: &Sizes) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..sz.windows)
        .map(|w| {
            let mut templates: Vec<usize> = template_counts(w, sz)
                .into_iter()
                .enumerate()
                .flat_map(|(k, n)| std::iter::repeat_n(k, n))
                .collect();
            for i in (1..templates.len()).rev() {
                templates.swap(i, rng.gen_range(0..i + 1));
            }
            templates
                .into_iter()
                .map(|k| {
                    if k < KNOWN_TEMPLATES {
                        known_statement(k, &mut rng)
                    } else {
                        new_statement(k - KNOWN_TEMPLATES, &mut rng)
                    }
                })
                .collect()
        })
        .collect()
}

/// `n` statements cycling through every template and new shape: the input
/// of the SQL-layer probes.
pub fn sample_statements(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(derive_stream(seed, SALT_CORPUS));
    (0..n)
        .map(|i| match i % (KNOWN_TEMPLATES + NEW_SHAPES) {
            t if t < KNOWN_TEMPLATES => known_statement(t, &mut rng),
            t => new_statement(t - KNOWN_TEMPLATES, &mut rng),
        })
        .collect()
}

pub struct ServiceSql;

pub struct State {
    service: PartitioningService,
    corpus: Vec<Vec<String>>,
    new_shape_events: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum WindowKind {
    Idle,
    Canary,
    Trained,
}

fn classify(events: &[ServiceEvent]) -> WindowKind {
    if events
        .iter()
        .any(|e| matches!(e, ServiceEvent::IncrementallyTrained { .. }))
    {
        return WindowKind::Trained;
    }
    let canary = events.iter().any(|e| {
        matches!(
            e,
            ServiceEvent::Guardrail(
                GuardrailEvent::CanaryStarted { .. } | GuardrailEvent::CanaryObserved { .. }
            )
        )
    });
    if canary {
        WindowKind::Canary
    } else {
        WindowKind::Idle
    }
}

impl Workload for ServiceSql {
    type State = State;

    fn name(&self) -> &'static str {
        "service_sql"
    }

    /// Train the SSB advisor, build the production cluster and the service,
    /// generate the SQL text.
    fn setup(&self, cfg: &RunCfg, _traced: bool) -> State {
        let sz = sizes(cfg);
        let schema = lpa_schema::ssb::schema(0.005).expect("SSB schema builds");
        let workload = lpa_workload::ssb::workload(&schema)
            .expect("SSB workload builds")
            .with_reserved_slots(RESERVED_SLOTS);
        let dqn = DqnConfig::simulation(sz.train_episodes, 16)
            .with_seed(derive_stream(TRAJECTORY_SEED, SALT_AGENT));
        let mut advisor = untrained_advisor(schema.clone(), workload, dqn);
        advisor.train_episodes(sz.train_episodes, |_| {});
        let cluster = Cluster::new(
            schema,
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard())
                .with_seed(derive_stream(TRAJECTORY_SEED, SALT_CLUSTER)),
        );
        State {
            service: PartitioningService::new(advisor, cluster, ServiceConfig::default()),
            corpus: corpus(derive_stream(cfg.seed, SALT_CORPUS), &sz),
            new_shape_events: sz.new_shape_windows.len(),
        }
    }

    fn run(&self, _cfg: &RunCfg, state: State, mut tracer: Option<&mut Tracer>) -> Pass {
        let State {
            mut service,
            corpus,
            new_shape_events,
        } = state;
        let mut checks = Checks::default();
        let (mut known, mut new, mut rejected) = (0u64, 0u64, 0u64);
        let mut observe_s = 0.0;
        let mut latencies_ms = Vec::with_capacity(corpus.len());
        let mut kinds = Vec::with_capacity(corpus.len());
        let mut fp = FNV_OFFSET;

        if tracer.is_some() {
            profile_begin();
        }
        let t0 = Instant::now();
        for (w, statements) in corpus.iter().enumerate() {
            let op = w as u64;
            let batch = tracer
                .as_deref_mut()
                .map(|tr| tr.begin("service.observe_batch", op, None));
            let t = Instant::now();
            for sql in statements {
                match service.observe_sql(sql) {
                    Observation::Known(_) => known += 1,
                    Observation::New(_) => new += 1,
                    Observation::Rejected(why) => {
                        rejected += 1;
                        checks.fail(1, format!("rejected {sql:?}: {why}"));
                    }
                }
            }
            observe_s += t.elapsed().as_secs_f64();
            if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), batch) {
                tr.end(id);
            }

            let t = Instant::now();
            let report = match tracer.as_deref_mut() {
                None => service.end_window(),
                Some(tr) => tr.span("service.end_window", op, None, || service.end_window()),
            };
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            kinds.push(classify(&report.events));
            fp = mix_str(fp, &format!("{:?}", report.deployed));
            fp = mix(fp, report.events.len() as u64);
        }
        let timed_s = t0.elapsed().as_secs_f64();

        let statements: u64 = corpus.iter().map(|w| w.len() as u64).sum();
        checks.ops(statements + corpus.len() as u64);
        checks.require(
            known + new == statements && rejected == 0,
            format!("known {known} + new {new} != {statements} statements ({rejected} rejected)"),
        );
        let trained = kinds.iter().filter(|k| **k == WindowKind::Trained).count();
        checks.require(
            trained == new_shape_events,
            format!("{trained} incremental trainings, expected {new_shape_events}"),
        );
        let acct = service.guardrail().accounting();
        let canary_windows = kinds.iter().filter(|k| **k == WindowKind::Canary).count();
        checks.require(
            acct.canaries_started > 0 && canary_windows > 0,
            "the rotating mix staged no canary",
        );

        let advisor = service.advisor();
        let fingerprint = vec![
            fp,
            known,
            new,
            advisor.weight_fingerprint(),
            acct.windows,
            acct.canaries_started,
            acct.commits,
            acct.rollbacks(),
            acct.kept_current,
            (acct.deploy_seconds + acct.rollback_seconds).to_bits(),
        ];

        // Cost-model cost of the layout the service ended on ÷ the initial
        // layout's, under the uniform mix over the (grown) workload.
        let (schema, workload) = (&advisor.env.schema, &advisor.env.workload);
        let model = NetworkCostModel::new(cost_params(HardwareProfile::standard()));
        let uniform = workload.uniform_frequencies();
        let cost = |p: &Partitioning| model.workload_cost(schema, workload, &uniform, p);
        let cost_ratio = cost(service.cluster().deployed()) / cost(&Partitioning::initial(schema));

        let mut layer = Vec::new();
        if tracer.is_some() {
            profile_end(timed_s, &mut layer);
            let of_kind = |kind: WindowKind| -> Vec<f64> {
                latencies_ms
                    .iter()
                    .zip(&kinds)
                    .filter(|(_, k)| **k == kind)
                    .map(|(ms, _)| *ms)
                    .collect()
            };
            layer.push(("service.observe_share", observe_s / timed_s.max(1e-9)));
            layer.push(("service.idle_close_ms", mean(&of_kind(WindowKind::Idle))));
            layer.push((
                "service.canary_close_ms",
                mean(&of_kind(WindowKind::Canary)),
            ));
            layer.push((
                "service.incremental_train_ms",
                mean(&of_kind(WindowKind::Trained)),
            ));
            layer.push((
                "service.canary_window_share",
                canary_windows as f64 / kinds.len() as f64,
            ));
            layer.push((
                "monitor.known_ratio",
                known as f64 / statements.max(1) as f64,
            ));
            layer.push(("sql.rejected", rejected as f64));
            layer.push(("guardrail.canaries_started", acct.canaries_started as f64));
            layer.push(("guardrail.commits", acct.commits as f64));
            layer.push(("guardrail.rollbacks", acct.rollbacks() as f64));
            layer.push((
                "cluster.queries_executed",
                service.cluster().queries_executed() as f64,
            ));
        }

        Pass {
            ops: statements,
            ops_s: observe_s,
            latencies_ms,
            cost_ratio,
            fingerprint,
            checks,
            layer,
        }
    }
}
