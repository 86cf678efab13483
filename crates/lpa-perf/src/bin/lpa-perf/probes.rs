//! Layer probes: the harness calls one public function of a layer directly,
//! warm, in a loop (≥ 1 000 calls or ≥ 0.2 s) and reports the time per call.
//!
//! Inputs are the same for every workload — the TPC-CH instance of
//! `offline_train` (scale 0.002, Table-1 128-64 net), the SQL text of
//! `service_sql`, one SSB and one TPC-CH tenant of `fleet_durable` — so a
//! probe reads the same on every workload's traced run and a change in it
//! is a change in the layer. A layer's busy seconds on a workload are about
//! probe time × the count the workload reports.

use crate::harness::{median, out_dir, RunCfg};
use crate::offline_train::cost_params;
use lpa_cluster::{
    direct_deploy, observe_window, Cluster, ClusterConfig, EngineProfile, GuardrailEvent,
    HardwareProfile,
};
use lpa_costmodel::NetworkCostModel;
use lpa_nn::{Adam, Matrix, Mlp, MlpScratch};
use lpa_par::Pool;
use lpa_partition::{valid_actions, Action, Partitioning, StateEncoder};
use lpa_service::{Benchmark, Fleet, FleetConfig, JournalRecord, TenantSpec, WorkloadMonitor};
use lpa_store::{
    capture_tenant, decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointStore,
    DeploymentJournal,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per call of `f`, after one warm-up call.
fn per_call(cfg: &RunCfg, mut f: impl FnMut()) -> f64 {
    let (max_calls, budget_s) = cfg.pick((1000, 0.2), (20, 0.01));
    f();
    let t = Instant::now();
    let mut calls = 0u32;
    while calls < max_calls && t.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(calls.max(1))
}

type Out = Vec<(&'static str, f64)>;

fn nn_partition_costmodel(cfg: &RunCfg, out: &mut Out) {
    let schema = lpa_schema::tpcch::schema(0.002).expect("TPC-CH schema builds");
    let workload = lpa_workload::tpcch::workload(&schema).expect("TPC-CH workload builds");
    let encoder = StateEncoder::new(&schema, workload.slots());
    let dim = encoder.input_dim();
    let initial = Partitioning::initial(&schema);
    let uniform = workload.uniform_frequencies();
    let actions = valid_actions(&schema, &initial);
    let batch: Vec<Action> = actions.iter().cycle().take(32).copied().collect();

    let mut row = vec![0.0f32; dim];
    out.push((
        "partition.encode_us",
        per_call(cfg, || {
            encoder.encode_input(&initial, &uniform, &actions[0], &mut row);
            black_box(&row);
        }) * 1e6,
    ));
    let mut x32 = Matrix::zeros(32, dim);
    out.push((
        "partition.encode_batch32_us",
        per_call(cfg, || {
            encoder.encode_batch(&initial, &uniform, &batch, x32.data_mut());
            black_box(x32.data());
        }) * 1e6,
    ));
    out.push((
        "partition.valid_actions_us",
        per_call(cfg, || {
            black_box(valid_actions(black_box(&schema), &initial));
        }) * 1e6,
    ));

    let model = NetworkCostModel::new(cost_params(HardwareProfile::standard()));
    out.push((
        "costmodel.workload_cost_us",
        per_call(cfg, || {
            black_box(model.workload_cost(&schema, &workload, &uniform, black_box(&initial)));
        }) * 1e6,
    ));

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut mlp = Mlp::new(&[dim, 128, 64, 1], &mut rng);
    let x1 = Matrix::from_rows(&[x32.row(0)]);
    let pool = Pool::current();
    let mut scratch = MlpScratch::new();
    let mut qs = Vec::new();
    out.push((
        "nn.forward_b1_us",
        per_call(cfg, || {
            mlp.predict_batch_into(pool, black_box(&x1), &mut scratch, &mut qs);
            black_box(&qs);
        }) * 1e6,
    ));
    out.push((
        "nn.forward_b32_us",
        per_call(cfg, || {
            mlp.predict_batch_into(pool, black_box(&x32), &mut scratch, &mut qs);
            black_box(&qs);
        }) * 1e6,
    ));
    let targets: Vec<f32> = (0..32).map(|_| rng.gen::<f32>()).collect();
    let mut opt = Adam::new(1e-3, mlp.layers());
    out.push((
        "nn.train_batch_ms",
        per_call(cfg, || {
            black_box(mlp.train_mse_with(pool, &x32, &targets, &mut opt, &mut scratch));
        }) * 1e3,
    ));
}

fn cluster(cfg: &RunCfg, out: &mut Out) {
    let schema = lpa_schema::tpcch::schema(0.002).expect("TPC-CH schema builds");
    let workload = lpa_workload::tpcch::workload(&schema).expect("TPC-CH workload builds");
    let uniform = workload.uniform_frequencies();
    let fresh = || {
        Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard())
                .with_seed(cfg.seed),
        )
        .sampled(0.25)
    };
    // First touch: generate the data, lay it out, run the workload once.
    let mut first = Vec::new();
    let mut sample = fresh();
    for _ in 0..3 {
        let t = Instant::now();
        sample = fresh();
        black_box(sample.run_workload(&workload, &uniform));
        first.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("cluster.materialize_ms", median(&first)));

    out.push((
        "cluster.run_workload_ms",
        per_call(cfg, || {
            black_box(sample.run_workload(&workload, &uniform));
        }) * 1e3,
    ));
    let mut next = 0usize;
    out.push((
        "cluster.run_query_us",
        per_call(cfg, || {
            let q = &workload.queries()[next % workload.queries().len()];
            next += 1;
            black_box(sample.run_query(q, None));
        }) * 1e6,
    ));
    out.push((
        "guardrail.observe_window_ms",
        per_call(cfg, || {
            black_box(observe_window(&mut sample, &workload, &uniform));
        }) * 1e3,
    ));

    // Repartition the largest table back and forth.
    let initial = Partitioning::initial(&schema);
    let largest = (0..schema.tables().len())
        .max_by_key(|t| schema.tables()[*t].rows)
        .unwrap_or(0);
    let other = valid_actions(&schema, &initial)
        .into_iter()
        .find(|a| matches!(a, Action::Partition { table, .. } if table.0 == largest))
        .and_then(|a| a.apply(&schema, &initial).ok())
        .expect("the largest table has a second partitioning key");
    let mut flip = false;
    out.push((
        "cluster.deploy_ms",
        per_call(cfg, || {
            flip = !flip;
            black_box(direct_deploy(
                &mut sample,
                if flip { &other } else { &initial },
            ));
        }) * 1e3,
    ));
}

fn sql(cfg: &RunCfg, out: &mut Out) {
    let schema = lpa_schema::ssb::schema(0.005).expect("SSB schema builds");
    let workload = lpa_workload::ssb::workload(&schema).expect("SSB workload builds");
    let statements = crate::service_sql::sample_statements(cfg.seed, cfg.pick(1000, 40));
    let mut next = 0usize;
    out.push((
        "sql.parse_us",
        per_call(cfg, || {
            let sql = &statements[next % statements.len()];
            next += 1;
            black_box(lpa_sql::parse_query(&schema, sql).is_ok());
        }) * 1e6,
    ));
    let mut monitor = WorkloadMonitor::new(schema.clone(), &workload);
    out.push((
        "monitor.observe_us",
        per_call(cfg, || {
            let sql = &statements[next % statements.len()];
            next += 1;
            black_box(monitor.observe(sql));
        }) * 1e6,
    ));
}

fn par(cfg: &RunCfg, out: &mut Out) {
    let pool = Pool::current();
    out.push(("par.threads", pool.threads() as f64));
    out.push((
        "par.pool_resolve_ns",
        per_call(cfg, || {
            black_box(Pool::current());
        }) * 1e9,
    ));
    out.push((
        "par.dispatch_us",
        per_call(cfg, || {
            black_box(pool.par_index_map(pool.threads(), black_box));
        }) * 1e6,
    ));
}

fn store(cfg: &RunCfg, out: &mut Out) {
    // One SSB and one TPC-CH tenant, a few rounds in, so the replay buffer,
    // optimizer moments and guardrail state are populated.
    let mut fleet = Fleet::new(FleetConfig {
        seed: cfg.seed,
        max_tenants: 2,
        ..FleetConfig::default()
    });
    for (i, bench) in [Benchmark::Ssb, Benchmark::TpcCh].into_iter().enumerate() {
        let spec = TenantSpec::new(format!("probe-{i}"), bench, 0.001, cfg.seed + i as u64);
        fleet.admit(spec).expect("probe tenant is admitted");
    }
    fleet.run_rounds(4);
    let round = fleet.round();
    let dir = out_dir().join(format!("probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (mut capture, mut encode, mut decode, mut save) = (0.0, 0.0, 0.0, 0.0);
    for tenant in 0..2 {
        let snap = || capture_tenant(&fleet, tenant, round).expect("tenant exists");
        capture += per_call(cfg, || {
            black_box(snap());
        });
        let ck = Checkpoint::Tenant(snap());
        encode += per_call(cfg, || {
            black_box(encode_checkpoint(&ck));
        });
        let bytes = encode_checkpoint(&ck);
        let schema = fleet.tenant_schema(tenant).expect("tenant exists");
        decode += per_call(cfg, || {
            black_box(decode_checkpoint(&bytes, schema).is_ok());
        });
        let mut lineage = CheckpointStore::open(dir.join(format!("tenant-{tenant}")))
            .expect("probe directory is writable");
        save += per_call(cfg, || {
            black_box(lineage.save(&ck).is_ok());
        });
    }
    out.push(("store.capture_ms", capture / 2.0 * 1e3));
    out.push(("store.encode_ms", encode / 2.0 * 1e3));
    out.push(("store.decode_ms", decode / 2.0 * 1e3));
    out.push(("store.save_ms", save / 2.0 * 1e3));

    // One round's worth of guardrail events for `fleet_durable`'s 32 tenants.
    let records: Vec<JournalRecord> = (0..32)
        .map(|tenant| JournalRecord {
            tenant,
            round,
            event: GuardrailEvent::KeptCurrent {
                window: round,
                benefit_per_run: 0.5,
                repartition_cost: 120.0,
            },
        })
        .collect();
    let mut journal =
        DeploymentJournal::open(dir.join("journal.lpa")).expect("probe directory is writable");
    out.push((
        "store.journal_append_ms",
        per_call(cfg, || {
            black_box(journal.append(&records).is_ok());
        }) * 1e3,
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every probe, in layer order.
pub fn run_all(cfg: &RunCfg) -> Out {
    let mut out = Vec::new();
    nn_partition_costmodel(cfg, &mut out);
    cluster(cfg, &mut out);
    sql(cfg, &mut out);
    par(cfg, &mut out);
    store(cfg, &mut out);
    out
}
