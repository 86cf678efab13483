//! Bit-level round-trip tests for every codec leaf: encode → decode →
//! encode must reproduce the exact byte stream, and the decoded value must
//! be bit-identical to the original — `f32::to_bits` equality, not
//! approximate equality. Resume correctness reduces to these leaves: if
//! any one of them loses a bit, the differential resume test diverges.

mod common;

use lpa_advisor::{Advisor, EnvState};
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_nn::{Adam, Matrix, Mlp};
use lpa_partition::{Action, KeyInterner, Partitioning};
use lpa_rl::{DqnConfig, ReplayBuffer, Transition};
use lpa_store::codec::{ByteReader, ByteWriter, Wire};
use lpa_store::{decode_checkpoint, encode_checkpoint, Checkpoint, SessionSnapshot};
use lpa_workload::{MixSampler, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn encode_with(f: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    f(&mut w);
    w.into_inner()
}

fn micro() -> (lpa_schema::Schema, Workload) {
    let schema = lpa_schema::microbench::schema(0.05).unwrap();
    let workload = lpa_workload::microbench::workload(&schema).unwrap();
    (schema, workload)
}

fn mlp_bits(m: &Mlp) -> Vec<u32> {
    let mut bits = Vec::new();
    for layer in m.layers() {
        bits.extend(layer.w.data().iter().map(|v| v.to_bits()));
        bits.extend(layer.b.iter().map(|v| v.to_bits()));
    }
    bits
}

/// A trained (net, optimizer) pair whose moments and step counter are all
/// non-trivial — fresh zeroed state would round-trip even through a lossy
/// codec.
fn trained_net() -> (Mlp, Adam) {
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = Mlp::new(&[6, 12, 8, 1], &mut rng);
    let mut adam = Adam::new(1e-3, net.layers());
    for _ in 0..7 {
        let x: Vec<f32> = (0..4 * 6)
            .map(|_| rng.gen_range(-1.0f64..1.0) as f32)
            .collect();
        let y: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f64..1.0) as f32).collect();
        net.train_mse(&Matrix::from_vec(4, 6, x), &y, &mut adam);
    }
    (net, adam)
}

#[test]
fn mlp_round_trips_bit_exactly() {
    let (net, _) = trained_net();
    let bytes = encode_with(|w| net.put(w));
    let mut r = ByteReader::new(&bytes);
    let back = Mlp::take(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(
        mlp_bits(&back),
        mlp_bits(&net),
        "weights must not lose a bit"
    );
    let again = encode_with(|w| back.put(w));
    assert_eq!(again, bytes, "re-encode must be byte-identical");
}

#[test]
fn adam_round_trips_bit_exactly() {
    let (_, adam) = trained_net();
    assert!(adam.step_count() > 0, "fixture must have stepped");
    let bytes = encode_with(|w| adam.put(w));
    let mut r = ByteReader::new(&bytes);
    let back = Adam::take(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(back.step_count(), adam.step_count());
    assert_eq!(back.lr.to_bits(), adam.lr.to_bits());
    for ((mw, vw, mb, vb), (mw2, vw2, mb2, vb2)) in
        adam.layer_moments().into_iter().zip(back.layer_moments())
    {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&mw), bits(&mw2));
        assert_eq!(bits(&vw), bits(&vw2));
        assert_eq!(bits(mb), bits(mb2));
        assert_eq!(bits(vb), bits(vb2));
    }
    let again = encode_with(|w| back.put(w));
    assert_eq!(again, bytes);
}

#[test]
fn replay_buffer_round_trips_including_ring_head() {
    let (schema, workload) = micro();
    let p0 = Partitioning::initial(&schema);
    let actions = lpa_partition::valid_actions(&schema, &p0);
    let freqs = workload.uniform_frequencies();
    let transition = |i: usize| {
        let a = actions[i % actions.len()];
        let p1 = a.apply(&schema, &p0).unwrap();
        Transition {
            state: EnvState {
                partitioning: p0.clone(),
                freqs: freqs.clone(),
            },
            action: a,
            reward: 0.25 * i as f64 - 1.5,
            next_state: EnvState {
                partitioning: p1,
                freqs: freqs.clone(),
            },
        }
    };
    // Overfill a capacity-3 ring so the head has wrapped to a non-zero slot.
    let mut buf: ReplayBuffer<EnvState, Action> = ReplayBuffer::new(3);
    for i in 0..5 {
        buf.push(transition(i));
    }
    assert_ne!(buf.head(), 0, "fixture must exercise a wrapped ring");
    let bytes = encode_with(|w| buf.put(w));
    let mut r = ByteReader::new(&bytes).with_schema(&schema);
    let back = ReplayBuffer::take(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(back.capacity(), buf.capacity());
    assert_eq!(back.head(), buf.head());
    assert_eq!(back.items().len(), buf.items().len());
    for (a, b) in buf.items().iter().zip(back.items()) {
        assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        assert_eq!(a.action, b.action);
        assert_eq!(a.state.partitioning, b.state.partitioning);
        assert_eq!(a.next_state.partitioning, b.next_state.partitioning);
    }
    let again = encode_with(|w| back.put(w));
    assert_eq!(again, bytes);
}

#[test]
fn key_interner_round_trips_with_ids_preserved() {
    let (schema, workload) = micro();
    let mut interner = KeyInterner::default();
    let mut p = Partitioning::initial(&schema);
    // Intern state keys and per-query keys over a few layouts so ids,
    // insertion order, and multi-table keys are all represented.
    for step in 0..4 {
        interner.state_key(&p);
        for q in workload.queries() {
            interner.query_key(&p, &q.tables);
        }
        let actions = lpa_partition::valid_actions(&schema, &p);
        p = actions[step % actions.len()].apply(&schema, &p).unwrap();
    }
    assert!(!interner.entries().is_empty());
    let bytes = encode_with(|w| interner.put(w));
    let mut r = ByteReader::new(&bytes);
    let mut back = KeyInterner::take(&mut r).unwrap();
    r.finish().unwrap();
    // Every key must map to the same dense id — an aliased id would point
    // cached rewards at the wrong partitioning after resume.
    assert_eq!(back.entries(), interner.entries());
    let again = encode_with(|w| back.put(w));
    assert_eq!(again, bytes);
    // And the restored interner must keep assigning fresh ids after the
    // persisted ones, not collide with them.
    let before = back.entries().len();
    let actions = lpa_partition::valid_actions(&schema, &p);
    let p_next = actions[0].apply(&schema, &p).unwrap();
    interner.state_key(&p_next);
    back.state_key(&p_next);
    assert_eq!(back.entries(), interner.entries());
    assert_eq!(back.entries().len(), before + 1);
}

/// A committee expert's cycling sampler, checkpointed after more draws
/// than it has vectors, decodes to the same cursor and keeps drawing the
/// same vectors.
#[test]
fn cycling_sampler_round_trips_after_a_full_cycle() {
    let (_, workload) = micro();
    let vectors = vec![
        workload.uniform_frequencies(),
        lpa_workload::FrequencyVector::from_counts(&[1.0, 0.25], workload.slots()),
    ];
    let mut sampler = MixSampler::cycle(vectors);
    let mut rng = StdRng::seed_from_u64(5);
    for draws in 0..7 {
        let bytes = encode_with(|w| sampler.put(w));
        let mut r = ByteReader::new(&bytes);
        let mut back = MixSampler::take(&mut r).unwrap_or_else(|e| panic!("after {draws}: {e:?}"));
        r.finish().unwrap();
        assert_eq!(encode_with(|w| back.put(w)), bytes);
        for _ in 0..3 {
            let (want, got) = (sampler.clone().sample(&mut rng), back.sample(&mut rng));
            assert_eq!(want.as_slice(), got.as_slice(), "after {draws} draws");
            sampler.sample(&mut rng);
        }
    }
}

#[test]
fn rng_state_round_trips_and_resumes_the_stream() {
    let mut rng = StdRng::seed_from_u64(0xFEED_5EED);
    // Burn some draws so the state is deep into the stream.
    for _ in 0..100 {
        let _: f64 = rng.gen_range(0.0..1.0);
    }
    let state = rng.state();
    let bytes = encode_with(|w| state.put(w));
    let mut r = ByteReader::new(&bytes);
    let back = <[u64; 4]>::take(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(back, state);
    let again = encode_with(|w| back.put(w));
    assert_eq!(again, bytes);
    // The restored generator must produce the exact same future stream.
    let mut resumed = StdRng::from_state(back);
    for _ in 0..50 {
        let a: u64 = rng.gen();
        let b: u64 = resumed.gen();
        assert_eq!(a, b);
    }
}

#[test]
fn full_session_checkpoint_round_trips_byte_identically() {
    let (schema, ck) = offline_session();
    let bytes = encode_checkpoint(&ck);
    let back = decode_checkpoint(&bytes, &schema).unwrap();
    assert_eq!(back.kind_name(), "session");
    assert_eq!(back.sequence(), 5);
    let again = encode_checkpoint(&back);
    assert_eq!(again, bytes, "decode → encode must reproduce the file");
}

/// A snapshot restores only into a template whose environment feeds its
/// networks. The micro session's Q network reads 24 inputs; the same
/// workload with two reserved slots encodes 26, and restoring into it must
/// answer `Incompatible` instead of handing back an advisor whose first
/// `suggest` panics on a matrix product. So must a target network of
/// another shape and optimizer moments of another network.
#[test]
fn restore_refuses_networks_that_do_not_fit_the_template() {
    use lpa_store::{restore_offline, OfflineTemplate, StoreError};

    let (schema, ck) = offline_session();
    let bytes = encode_checkpoint(&ck);
    let snapshot = || {
        decode_checkpoint(&bytes, &schema)
            .unwrap()
            .into_session()
            .unwrap()
    };
    let (_, workload) = micro();
    let template = |workload: Workload| OfflineTemplate {
        schema: schema.clone(),
        workload,
        model: NetworkCostModel::new(CostParams::standard()),
    };
    let mut advisor = restore_offline(snapshot(), &template(workload.clone())).unwrap();
    let _ = advisor.suggest(&workload.uniform_frequencies());

    let wider = template(workload.clone().with_reserved_slots(2));
    let refused = restore_offline(snapshot(), &wider).map(|_| ());
    assert!(
        matches!(refused, Err(StoreError::Incompatible(_))),
        "{refused:?}"
    );

    let mut rng = StdRng::seed_from_u64(3);
    let other = Mlp::new(&[24, 4, 1], &mut rng);
    let mut snap = snapshot();
    snap.target = other.clone();
    let refused = restore_offline(snap, &template(workload.clone())).map(|_| ());
    assert!(
        matches!(refused, Err(StoreError::Incompatible(_))),
        "{refused:?}"
    );
    let mut snap = snapshot();
    snap.opt = Adam::new(1e-3, other.layers());
    let refused = restore_offline(snap, &template(workload)).map(|_| ());
    assert!(
        matches!(refused, Err(StoreError::Incompatible(_))),
        "{refused:?}"
    );
}

fn ssb_cluster(schema: &lpa_schema::Schema) -> lpa_cluster::Cluster {
    use lpa_cluster::{Cluster, ClusterConfig, EngineProfile, HardwareProfile};

    Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    )
}

/// An SSB service, built on a workload with three reserved slots, that
/// absorbed three new queries in its first window and sits mid-window with
/// two more quarantined. One absorbed and one pending query are awkward on
/// purpose (selectivities and a CPU factor with no short decimal form, a
/// compound-key join with two pairs).
fn ssb_service() -> (
    lpa_schema::Schema,
    Workload,
    lpa_service::PartitioningService,
) {
    use lpa_service::{PartitioningService, ServiceConfig};
    use lpa_workload::{Query, QueryBuilder};

    let schema = lpa_schema::ssb::schema(0.002).unwrap();
    let base = lpa_workload::ssb::workload(&schema)
        .unwrap()
        .with_reserved_slots(3);
    let cfg = DqnConfig {
        batch_size: 4,
        hidden: vec![8],
        ..DqnConfig::simulation(4, 3)
    }
    .with_seed(23);
    let advisor = Advisor::train_offline(
        schema.clone(),
        base.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&base),
        cfg,
        true,
    );
    let mut service =
        PartitioningService::new(advisor, ssb_cluster(&schema), ServiceConfig::default());

    let awkward = |name: &str, other: &str, key: (&str, &str), second: (&str, &str)| {
        QueryBuilder::new(&schema, name)
            .join_multi(&[
                (("lineorder", key.0), (other, key.1)),
                (("lineorder", second.0), (other, second.1)),
            ])
            .join(("lineorder", "lo_orderdate"), ("date", "d_datekey"))
            .filter("lineorder", 0.47 * 3.0 / 11.0)
            .filter(other, f64::MIN_POSITIVE)
            .cpu(1.0 + 1.0 / 3.0)
            .finish()
            .unwrap()
    };
    // A `Query` reaches a live monitor's quarantine only as parsed SQL or
    // through its resume state; the latter takes any query.
    let inject = |service: &mut PartitioningService, query: Query, count: u64| {
        let mut state = service.resume_state();
        state.monitor_pending.push((query, count));
        service.restore_resume_state(state).unwrap();
    };

    let known = "SELECT sum(lo_revenue) FROM lineorder l, date d \
        WHERE l.lo_orderdate = d.d_datekey AND d.d_year = 1993 AND l.lo_orderkey < 500";
    let new_shapes = [
        "SELECT count(*) FROM customer c, supplier s WHERE c.c_city = s.s_city",
        "SELECT count(*) FROM part p, lineorder l WHERE l.lo_partkey = p.p_partkey",
        "SELECT count(*) FROM customer c, lineorder l WHERE l.lo_custkey = c.c_custkey",
    ];
    for sql in [new_shapes[0], new_shapes[1], known] {
        service.observe_sql(sql);
    }
    inject(
        &mut service,
        awkward(
            "awkward-absorbed",
            "customer",
            ("lo_custkey", "c_custkey"),
            ("lo_suppkey", "c_nation"),
        ),
        5,
    );
    service.end_window(); // absorbs the awkward query (hottest) and both shapes
    assert_eq!(service.absorbed_queries().len(), 3);
    for sql in [known, new_shapes[2], known, new_shapes[0]] {
        service.observe_sql(sql); // ...and the next window is open
    }
    inject(
        &mut service,
        awkward(
            "awkward-pending",
            "supplier",
            ("lo_suppkey", "s_suppkey"),
            ("lo_custkey", "s_nation"),
        ),
        2,
    );
    (schema, base, service)
}

/// The service snapshot carries only what no template rebuilds: the
/// service of [`ssb_service`] restores — through the bytes — around the
/// workload it was *built* with, and then closes the window exactly like
/// the original. Its queries travel as packed words, so every float of the
/// awkward ones comes back `to_bits`-equal.
#[test]
fn service_snapshot_round_trips_absorbed_queries_and_the_open_window() {
    use lpa_service::ServiceConfig;
    use lpa_store::{capture_service, restore_service, OfflineTemplate};
    use lpa_workload::Query;

    /// `encode_checkpoint` of this very service as format v4 wrote it:
    /// packed queries, and a DQN config that still carried its loss tag,
    /// double-DQN flag, replay capacity and ε start/floor (26 B).
    const FORMAT_V4_BYTES: usize = 42_864;

    let (schema, base, mut service) = ssb_service();
    let bits = |q: &Query| -> Vec<u64> {
        assert_eq!(q.joins[0].pairs.len(), 2, "{}", q.name);
        q.selectivity
            .iter()
            .chain([&q.cpu_factor])
            .map(|x| x.to_bits())
            .collect()
    };
    let awkward_bits = vec![
        (0.47 * 3.0 / 11.0f64).to_bits(),
        f64::MIN_POSITIVE.to_bits(),
        1.0f64.to_bits(),
        (1.0 + 1.0 / 3.0f64).to_bits(),
    ];

    let bytes = encode_checkpoint(&Checkpoint::Service(capture_service(1, &service).unwrap()));
    assert_eq!(
        bytes.len(),
        FORMAT_V4_BYTES - 26,
        "format v5 drops exactly the DQN config's constants"
    );
    let snapshot = decode_checkpoint(&bytes, &schema)
        .unwrap()
        .into_service()
        .unwrap();
    assert_eq!(snapshot.absorbed_queries.len(), 3);
    assert_eq!(snapshot.absorbed_queries[0].name, "awkward-absorbed");
    assert_eq!(bits(&snapshot.absorbed_queries[0]), awkward_bits);
    assert_eq!(snapshot.monitor_pending.len(), 2);
    assert_eq!(snapshot.monitor_pending[0].0.name, "awkward-pending");
    assert_eq!(bits(&snapshot.monitor_pending[0].0), awkward_bits);
    let mut restored = restore_service(
        snapshot,
        OfflineTemplate {
            schema: schema.clone(),
            workload: base.clone(),
            model: NetworkCostModel::new(CostParams::standard()),
        },
        ssb_cluster(&schema),
        ServiceConfig::default(),
    )
    .unwrap();

    let again = encode_checkpoint(&Checkpoint::Service(capture_service(1, &restored).unwrap()));
    assert_eq!(
        again, bytes,
        "re-capturing the restored service moved a byte"
    );
    assert_eq!(
        restored.advisor().env.workload.queries().len(),
        base.queries().len() + 3
    );
    assert_eq!(bits(&restored.absorbed_queries()[0]), awkward_bits);
    assert_eq!(
        bits(&restored.resume_state().monitor_pending[0].0),
        awkward_bits
    );
    let (a, b) = (service.end_window(), restored.end_window());
    assert_eq!(a.events, b.events);
    assert_eq!(a.mix_used, b.mix_used);
    assert_eq!(a.deployed.physical_key(), b.deployed.physical_key());
    assert_eq!(
        service.advisor().weight_fingerprint(),
        restored.advisor().weight_fingerprint()
    );
}

// ---------------------------------------------------------------------------
// Format v5 goldens.
//
// `fixtures/v5/` holds the bytes format v5 wrote for a fixed set of
// deterministic constructions, captured once and never regenerated: they
// are the proof that a change to the codec's code left its bytes alone.
// Each construction must encode to its golden byte for byte, and decoding
// the golden and encoding it again must reproduce it. The `distinct-`
// set repeats the checkpoints with every counter, accounting, config,
// fault-plan and retry field overwritten by a value no other field holds,
// so two same-typed fields written in each other's place change the bytes.

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/v5")
        .join(name)
}

fn assert_golden(name: &str, bytes: &[u8]) {
    let path = golden_path(name);
    let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let first_difference = golden.iter().zip(bytes).position(|(a, b)| a != b);
    assert!(
        golden == bytes,
        "{name}: encoded {} bytes, the golden holds {}; first difference at byte {first_difference:?}",
        bytes.len(),
        golden.len()
    );
}

/// The golden of `ck` under `name`: encoding matches it, and so does
/// decoding it and encoding the result.
fn assert_checkpoint_golden(name: &str, schema: &lpa_schema::Schema, ck: &Checkpoint) {
    assert_golden(name, &encode_checkpoint(ck));
    let golden = std::fs::read(golden_path(name)).unwrap();
    let back = decode_checkpoint(&golden, schema).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(encode_checkpoint(&back), golden, "{name}: decode → encode");
}

/// The micro offline session of
/// `full_session_checkpoint_round_trips_byte_identically`.
fn offline_session() -> (lpa_schema::Schema, Checkpoint) {
    let (schema, workload) = micro();
    let cfg = DqnConfig {
        batch_size: 8,
        hidden: vec![16],
        ..DqnConfig::simulation(6, 4)
    }
    .with_seed(5);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );
    // Touch the suggest path too so the backend has a tracked partitioning.
    let _ = advisor.suggest(&workload.uniform_frequencies());
    let snap = SessionSnapshot::capture(5, advisor.agent(), &advisor.env);
    (schema, Checkpoint::Session(snap))
}

/// A micro session two episodes into online refinement on a sampled
/// cluster under a fault storm: cluster state, fault accounting, runtime
/// cache with degraded entries.
fn online_session() -> (lpa_schema::Schema, Checkpoint) {
    use lpa_advisor::{shared_cache, shared_cluster, OnlineBackend, OnlineOptimizations};
    use lpa_cluster::{Cluster, ClusterConfig, EngineProfile, FaultPlan, HardwareProfile};

    let schema = lpa_schema::microbench::schema(0.02).unwrap();
    let workload = lpa_workload::microbench::workload(&schema).unwrap();
    let cfg = DqnConfig {
        batch_size: 4,
        hidden: vec![8],
        ..DqnConfig::simulation(4, 3)
    }
    .with_seed(31);
    let mut advisor = Advisor::train_offline(
        schema.clone(),
        workload.clone(),
        NetworkCostModel::new(CostParams::standard()),
        MixSampler::uniform(&workload),
        cfg,
        true,
    );
    let mut full = Cluster::new(
        schema.clone(),
        ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
    );
    let mut sample = full.sampled(0.25);
    let p_off = advisor
        .suggest(&workload.uniform_frequencies())
        .partitioning;
    let scale = OnlineBackend::compute_scale_factors(&mut full, &mut sample, &workload, &p_off);
    sample.set_fault_plan(FaultPlan::storm(0x5E5_0E5D).rescaled(0.25));
    let backend = OnlineBackend::new(
        shared_cluster(sample),
        shared_cache(),
        scale,
        OnlineOptimizations::default(),
    )
    .with_fallback(
        NetworkCostModel::new(CostParams::standard()),
        schema.clone(),
    );
    advisor.begin_online_refinement(backend);
    advisor.train_episodes(2, |_| {});
    let snap = lpa_store::capture_advisor(1, &advisor);
    (schema, Checkpoint::Session(snap))
}

/// The service of [`ssb_service`]; its first window staged a canary that
/// is still open.
fn ssb_service_checkpoint() -> (lpa_schema::Schema, Checkpoint) {
    let (schema, _, service) = ssb_service();
    let snap = lpa_store::capture_service(1, &service).unwrap();
    assert!(
        snap.guardrail.canary.is_some(),
        "the golden holds an open canary"
    );
    (schema, Checkpoint::Service(snap))
}

/// Tenant 0 of the two-tenant micro fleet after one round, quarantined by
/// step errors.
fn quarantined_tenant() -> (lpa_schema::Schema, Checkpoint) {
    use lpa_service::{Fleet, TenantErrorKind, TenantStatus};

    let mut fleet = Fleet::new(common::micro_cfg());
    for spec in common::micro_specs() {
        fleet.admit(spec).unwrap();
    }
    fleet.run_round();
    while fleet.tenant_status(0).unwrap() == TenantStatus::Active {
        fleet.record_tenant_error(0, TenantErrorKind::Step).unwrap();
    }
    let snap = lpa_store::capture_tenant(&fleet, 0, fleet.round()).unwrap();
    let schema = fleet.tenant_schema(0).unwrap().clone();
    (schema, Checkpoint::Tenant(snap))
}

/// Hands out 1, 2, 3, … so no two fields it fills hold the same value.
#[derive(Default)]
struct Distinct(u64);

impl Distinct {
    fn u64(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
    fn usize(&mut self) -> usize {
        self.u64() as usize
    }
    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }
    fn f64(&mut self) -> f64 {
        self.u64() as f64 + 0.25
    }
    fn f32(&mut self) -> f32 {
        self.u64() as f32 + 0.5
    }
    fn bool(&mut self) -> bool {
        self.u64() % 2 == 1
    }

    fn config(&mut self) -> DqnConfig {
        DqnConfig {
            learning_rate: self.f32(),
            tau: self.f32(),
            batch_size: self.usize(),
            epsilon_decay: self.f64(),
            gamma: self.f64(),
            tmax: self.usize(),
            episodes: self.usize(),
            hidden: vec![self.usize(), self.usize()],
            train_every: self.usize(),
            seed: self.u64(),
        }
    }

    fn env_counters(&mut self) -> lpa_rl::EnvCounters {
        lpa_rl::EnvCounters {
            reward_cache_hits: self.u64(),
            reward_cache_misses: self.u64(),
            delta_recosts: self.u64(),
            full_recosts: self.u64(),
            queries_recosted: self.u64(),
            rewards_evaluated: self.u64(),
            action_cache_hits: self.u64(),
            action_cache_misses: self.u64(),
            queries_failed: self.u64(),
            fault_retries: self.u64(),
            fault_failovers: self.u64(),
            fault_fallbacks: self.u64(),
            checkpoints_written: self.u64(),
            checkpoint_corruptions_detected: self.u64(),
            checkpoint_restores: self.u64(),
            checkpoint_fallbacks: self.u64(),
        }
    }

    fn fault_plan(&mut self) -> lpa_cluster::FaultPlan {
        lpa_cluster::FaultPlan {
            seed: self.u64(),
            window_seconds: self.f64(),
            crash_rate: self.f64(),
            straggle_rate: self.f64(),
            straggle_factor: self.f64(),
            link_degrade_rate: self.f64(),
            link_degrade_factor: self.f64(),
            transient_rate: self.f64(),
        }
    }

    fn fault_accounting(&mut self) -> lpa_cluster::FaultAccounting {
        lpa_cluster::FaultAccounting {
            queries_failed: self.u64(),
            node_down_failures: self.u64(),
            transient_failures: self.u64(),
            failovers: self.u64(),
            degraded_completions: self.u64(),
            timeouts: self.u64(),
            retries: self.u64(),
            fallbacks: self.u64(),
            cache_invalidations: self.u64(),
        }
    }

    fn cost_accounting(&mut self) -> lpa_advisor::CostAccounting {
        lpa_advisor::CostAccounting {
            actual_query_seconds: self.f64(),
            executed_query_seconds_full: self.f64(),
            cached_query_seconds: self.f64(),
            timeout_saved_seconds: self.f64(),
            lazy_repartition_seconds: self.f64(),
            full_repartition_seconds: self.f64(),
            queries_executed: self.u64(),
            queries_cached: self.u64(),
            timeouts_hit: self.u64(),
        }
    }

    fn guardrail_accounting(&mut self) -> lpa_cluster::GuardrailAccounting {
        lpa_cluster::GuardrailAccounting {
            windows: self.u64(),
            canaries_started: self.u64(),
            commits: self.u64(),
            rollbacks_regression: self.u64(),
            rollbacks_degraded: self.u64(),
            extensions: self.u64(),
            kept_current: self.u64(),
            rejected_cooldown: self.u64(),
            rejected_budget: self.u64(),
            rejected_fleet_budget: self.u64(),
            deferred_degraded_baseline: self.u64(),
            deploy_seconds: self.f64(),
            rollback_seconds: self.f64(),
        }
    }

    fn tenant_counters(&mut self) -> lpa_service::TenantCounters {
        lpa_service::TenantCounters {
            slices_issued: self.u64(),
            slices_run: self.u64(),
            slices_skipped: self.u64(),
            step_errors: self.u64(),
            restore_errors: self.u64(),
            checkpoint_errors: self.u64(),
            quarantines: self.u64(),
            rejoins: self.u64(),
            deployments: self.u64(),
            degraded_windows: self.u64(),
        }
    }

    fn cluster(&mut self, c: &mut lpa_cluster::ClusterResumeState) {
        c.faults = self.fault_plan();
        c.fault_accounting = self.fault_accounting();
    }

    fn session(&mut self, s: &mut SessionSnapshot) {
        s.cfg = self.config();
        match &mut s.backend {
            lpa_store::BackendState::Offline { stats, .. } => *stats = self.env_counters(),
            lpa_store::BackendState::Online {
                resume,
                cluster,
                cache_hits,
                cache_misses,
                ..
            } => {
                resume.opts = lpa_advisor::OnlineOptimizations {
                    runtime_cache: self.bool(),
                    lazy_repartitioning: self.bool(),
                    timeouts: self.bool(),
                };
                resume.accounting = self.cost_accounting();
                resume.retry = lpa_advisor::RetryPolicy {
                    max_retries: self.u32(),
                    backoff_seconds: self.f64(),
                    backoff_multiplier: self.f64(),
                };
                resume.faults = self.fault_accounting();
                self.cluster(cluster);
                *cache_hits = self.u64();
                *cache_misses = self.u64();
            }
        }
    }

    fn service(&mut self, s: &mut lpa_store::ServiceSnapshot) {
        self.session(&mut s.session);
        self.cluster(&mut s.cluster);
        s.guardrail.accounting = self.guardrail_accounting();
    }

    fn checkpoint(mut self, ck: &mut Checkpoint) {
        match ck {
            Checkpoint::Session(s) => self.session(s),
            Checkpoint::Service(s) => self.service(s),
            Checkpoint::Tenant(t) => {
                t.counters = self.tenant_counters();
                self.service(&mut t.service);
            }
        }
    }
}

#[test]
fn checkpoints_reproduce_their_v5_goldens() {
    type Construction = fn() -> (lpa_schema::Schema, Checkpoint);
    let constructions: [(&str, Construction); 4] = [
        ("session-offline.lpa", offline_session),
        ("session-online.lpa", online_session),
        ("service-ssb.lpa", ssb_service_checkpoint),
        ("tenant-quarantined.lpa", quarantined_tenant),
    ];
    for (name, construct) in constructions {
        let (schema, mut ck) = construct();
        assert_checkpoint_golden(name, &schema, &ck);
        Distinct::default().checkpoint(&mut ck);
        assert_checkpoint_golden(&format!("distinct-{name}"), &schema, &ck);
    }
}

/// One sampler of each variant, back to back; the cycling one a draw past
/// its first vector.
#[test]
fn samplers_reproduce_their_v5_golden() {
    let (_, workload) = micro();
    let mut cycle = MixSampler::cycle(vec![
        workload.uniform_frequencies(),
        lpa_workload::FrequencyVector::from_counts(&[1.0, 0.25], workload.slots()),
    ]);
    cycle.sample(&mut StdRng::seed_from_u64(9));
    let samplers = [
        MixSampler::uniform(&workload),
        MixSampler::emphasis(&workload, vec![lpa_workload::QueryId(1)], 2.5),
        MixSampler::Fixed(lpa_workload::FrequencyVector::from_counts(
            &[0.75, 2.0],
            workload.slots(),
        )),
        cycle,
    ];
    let bytes = encode_with(|w| samplers.iter().for_each(|s| s.put(w)));
    assert_golden("samplers.bin", &bytes);
    let golden = std::fs::read(golden_path("samplers.bin")).unwrap();
    let mut r = ByteReader::new(&golden);
    let back: Vec<MixSampler> = (0..samplers.len())
        .map(|_| MixSampler::take(&mut r).unwrap())
        .collect();
    r.finish().unwrap();
    assert_eq!(encode_with(|w| back.iter().for_each(|s| s.put(w))), golden);
}

#[test]
fn journal_and_manifest_reproduce_their_v5_goldens() {
    use lpa_store::{
        load_manifest, save_manifest, DeploymentJournal, FleetManifest, ManifestEntry,
    };

    let dir = std::env::temp_dir().join(format!("lpa-store-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal_at = |name: &str, records: &[lpa_service::JournalRecord]| {
        let path = dir.join(name);
        DeploymentJournal::open(&path)
            .unwrap()
            .append(records)
            .unwrap();
        std::fs::read(&path).unwrap()
    };
    assert_golden(
        "journal.lpa",
        &journal_at("encoded.lpa", &common::journal_records()),
    );
    std::fs::write(
        dir.join("golden.lpa"),
        std::fs::read(golden_path("journal.lpa")).unwrap(),
    )
    .unwrap();
    let replayed = DeploymentJournal::open(dir.join("golden.lpa"))
        .unwrap()
        .replay()
        .unwrap();
    assert_golden("journal.lpa", &journal_at("again.lpa", &replayed));

    let manifest = FleetManifest {
        round: 6,
        rejected_admissions: 3,
        stage_rounds: vec![2, 5, 6],
        entries: (0..3)
            .map(|tenant| ManifestEntry {
                tenant,
                sequence: 4 + tenant % 2 * 2,
            })
            .collect(),
    };
    let manifest_at = |name: &str, m: &FleetManifest| {
        let root = dir.join(name);
        save_manifest(&root, m).unwrap();
        std::fs::read(root.join(lpa_store::MANIFEST_FILE)).unwrap()
    };
    assert_golden("manifest.lpa", &manifest_at("encoded", &manifest));
    let root = dir.join("golden");
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(
        root.join(lpa_store::MANIFEST_FILE),
        std::fs::read(golden_path("manifest.lpa")).unwrap(),
    )
    .unwrap();
    let back = load_manifest(&root).unwrap().unwrap();
    assert_golden("manifest.lpa", &manifest_at("again", &back));
    let _ = std::fs::remove_dir_all(&dir);
}
