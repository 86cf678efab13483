//! Bit-level round-trip tests for every codec leaf: encode → decode →
//! encode must reproduce the exact byte stream, and the decoded value must
//! be bit-identical to the original — `f32::to_bits` equality, not
//! approximate equality. Resume correctness reduces to these leaves: if
//! any one of them loses a bit, the differential resume test diverges.

use lpa_advisor::{Advisor, EnvState};
use lpa_costmodel::{CostParams, NetworkCostModel};
use lpa_nn::{Adam, Matrix, Mlp};
use lpa_partition::{Action, KeyInterner, Partitioning};
use lpa_rl::{DqnConfig, ReplayBuffer, Transition};
use lpa_store::codec::{ByteReader, ByteWriter};
use lpa_store::snapshot::{
    put_adam, put_buffer, put_interner, put_mlp, put_rng, put_sampler, take_adam, take_buffer,
    take_interner, take_mlp, take_rng, take_sampler,
};
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
    let bytes = encode_with(|w| put_mlp(w, &net));
    let mut r = ByteReader::new(&bytes);
    let back = take_mlp(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(
        mlp_bits(&back),
        mlp_bits(&net),
        "weights must not lose a bit"
    );
    let again = encode_with(|w| put_mlp(w, &back));
    assert_eq!(again, bytes, "re-encode must be byte-identical");
}

#[test]
fn adam_round_trips_bit_exactly() {
    let (_, adam) = trained_net();
    assert!(adam.step_count() > 0, "fixture must have stepped");
    let bytes = encode_with(|w| put_adam(w, &adam));
    let mut r = ByteReader::new(&bytes);
    let back = take_adam(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(back.step_count(), adam.step_count());
    assert_eq!(back.lr.to_bits(), adam.lr.to_bits());
    for ((mw, vw, mb, vb), (mw2, vw2, mb2, vb2)) in
        adam.layer_moments().into_iter().zip(back.layer_moments())
    {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(mw), bits(mw2));
        assert_eq!(bits(vw), bits(vw2));
        assert_eq!(bits(mb), bits(mb2));
        assert_eq!(bits(vb), bits(vb2));
    }
    let again = encode_with(|w| put_adam(w, &back));
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
    let bytes = encode_with(|w| put_buffer(w, &buf));
    let mut r = ByteReader::new(&bytes);
    let back = take_buffer(&mut r, &schema).unwrap();
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
    let again = encode_with(|w| put_buffer(w, &back));
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
    let bytes = encode_with(|w| put_interner(w, &interner));
    let mut r = ByteReader::new(&bytes);
    let mut back = take_interner(&mut r).unwrap();
    r.finish().unwrap();
    // Every key must map to the same dense id — an aliased id would point
    // cached rewards at the wrong partitioning after resume.
    assert_eq!(back.entries(), interner.entries());
    let again = encode_with(|w| put_interner(w, &back));
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
        let bytes = encode_with(|w| put_sampler(w, &sampler));
        let mut r = ByteReader::new(&bytes);
        let mut back = take_sampler(&mut r).unwrap_or_else(|e| panic!("after {draws}: {e:?}"));
        r.finish().unwrap();
        assert_eq!(encode_with(|w| put_sampler(w, &back)), bytes);
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
    let bytes = encode_with(|w| put_rng(w, &state));
    let mut r = ByteReader::new(&bytes);
    let back = take_rng(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(back, state);
    let again = encode_with(|w| put_rng(w, &back));
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
    let bytes = encode_checkpoint(&Checkpoint::Session(snap));
    let back = decode_checkpoint(&bytes, &schema).unwrap();
    assert_eq!(back.kind_name(), "session");
    assert_eq!(back.sequence(), 5);
    let again = encode_checkpoint(&back);
    assert_eq!(again, bytes, "decode → encode must reproduce the file");
}

/// The service snapshot carries only what no template rebuilds: a service
/// that absorbed new queries and sits mid-window with more quarantined
/// restores — through the bytes — around the workload it was *built* with,
/// and then closes the window exactly like the original. One absorbed and
/// one pending query are awkward on purpose (selectivities and a CPU factor
/// with no short decimal form, a compound-key join with two pairs): they
/// travel as packed words, so every float comes back `to_bits`-equal.
#[test]
fn service_snapshot_round_trips_absorbed_queries_and_the_open_window() {
    use lpa_cluster::{Cluster, ClusterConfig, EngineProfile, HardwareProfile};
    use lpa_service::{PartitioningService, ServiceConfig};
    use lpa_store::{capture_service, restore_service, OfflineTemplate};
    use lpa_workload::{Query, QueryBuilder};

    /// `encode_checkpoint` of this very service as format v4 wrote it:
    /// packed queries, and a DQN config that still carried its loss tag,
    /// double-DQN flag, replay capacity and ε start/floor (26 B).
    const FORMAT_V4_BYTES: usize = 42_864;

    let schema = lpa_schema::ssb::schema(0.002).unwrap();
    let base = lpa_workload::ssb::workload(&schema)
        .unwrap()
        .with_reserved_slots(3);
    let model = NetworkCostModel::new(CostParams::standard());
    let cluster = || {
        Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        )
    };
    let cfg = DqnConfig {
        batch_size: 4,
        hidden: vec![8],
        ..DqnConfig::simulation(4, 3)
    }
    .with_seed(23);
    let advisor = Advisor::train_offline(
        schema.clone(),
        base.clone(),
        model.clone(),
        MixSampler::uniform(&base),
        cfg,
        true,
    );
    let service_cfg = ServiceConfig::default();
    let mut service = PartitioningService::new(advisor, cluster(), service_cfg);

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
            model,
        },
        cluster(),
        service_cfg,
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
