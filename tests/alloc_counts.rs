//! Heap allocations per steady-state call of the hot paths that are meant
//! to run on reused buffers: the columnar executor, the DQN train step,
//! the delta encoder, the SQL shape key and the monitor's memo-hit path.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` in a thread-local counter, so tests running side by side do
//! not see each other. Each entry point is warmed up until its buffers
//! reach their high-water mark, then measured call by call on one thread
//! (`lpa_par::with_threads(1, …)`). The pins are today's counts, zero but
//! for one executor call: a change that adds an allocation to one of these
//! paths, in the function itself or in anything it calls (`to_vec`, `Box`,
//! `String`, a fresh `Vec`), fails here. A change that removes one updates
//! its pin.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lpa::cluster::executor::{layout_table, Executor};
use lpa::cluster::{Database, ExecScratch, FaultState, OptimizerEstimator};
use lpa::partition::{valid_actions, DeltaEncoder};
use lpa::prelude::*;
use lpa::rl::{train, DqnAgent, QEnvironment};
use lpa::service::Observation;
use lpa::workload::FrequencyVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by each of `calls` calls of `f`, after `warm_up`
/// unmeasured calls. Runs on the calling thread with a one-thread pool.
fn allocs_per_call(warm_up: usize, calls: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    lpa::par::with_threads(1, || {
        for i in 0..warm_up {
            f(i);
        }
        (0..calls)
            .map(|i| {
                let before = ALLOCS.with(Cell::get);
                f(warm_up + i);
                ALLOCS.with(Cell::get) - before
            })
            .collect()
    })
}

/// The counter sees an allocation made in a callee: the negative control
/// for every zero below.
#[test]
fn counter_sees_allocations_in_callees() {
    #[inline(never)]
    fn boxed(n: usize) -> usize {
        std::hint::black_box(Box::new(n)).as_ref() + std::hint::black_box(vec![0u8; n]).len()
    }
    assert_eq!(allocs_per_call(0, 3, |i| _ = boxed(i + 1)), vec![2; 3]);
}

/// `Executor::execute_with` on a reused scratch: every TPC-CH query under
/// two layouts, once warm.
#[test]
fn columnar_executor_allocations_are_pinned() {
    let schema = lpa::schema::tpcch::schema(0.001).expect("schema builds");
    let workload = lpa::workload::tpcch::workload(&schema).expect("workload builds");
    let (engine, hw) = (EngineProfile::pgxl(), HardwareProfile::standard());
    let db = Database::generate(&schema, 0xA11C);
    let faults = FaultState::nominal(hw.nodes);
    let optimizer = OptimizerEstimator::new(engine, hw);
    let mut rng = StdRng::seed_from_u64(0xA11C);
    let mut p = Partitioning::initial(&schema);
    let mut cases = Vec::new();
    for _ in 0..2 {
        let layouts: Vec<_> = (0..schema.tables().len())
            .map(|t| {
                let t = lpa::schema::TableId(t);
                layout_table(&db, &engine, hw.nodes, t, p.table_state(t))
            })
            .collect();
        for q in workload.queries() {
            cases.push((q, optimizer.plan(&schema, q, &p, 0), layouts.clone()));
        }
        for _ in 0..6 {
            let actions = valid_actions(&schema, &p);
            p = actions[rng.gen_range(0..actions.len())]
                .apply(&schema, &p)
                .expect("valid action applies");
        }
    }
    let mut scratch = ExecScratch::default();
    let counts = allocs_per_call(cases.len(), cases.len(), |i| {
        let (query, plan, layouts) = &cases[i % cases.len()];
        let exec = Executor {
            schema: &schema,
            db: &db,
            engine: &engine,
            hw: &hw,
            layouts,
            faults: &faults,
        };
        let result = exec.execute_with(query, plan, None, &mut scratch);
        assert!(result.is_some(), "no budget, so every query completes");
    });
    // The first layout's 22 queries, then the second's. `ColInter::reset`
    // keeps the slot arenas a wider query grew, so a warm pass reuses
    // them; the one allocation left is the second layout's `ch_q03`,
    // where `seed_inter_col` grows a slot arena past what the warm-up
    // pass left in it.
    #[rustfmt::skip]
    const PINNED: [u64; 44] = [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert_eq!(counts, PINNED);
}

/// `DqnAgent::train_step` on an SSB advisor environment whose replay
/// buffer is already full enough to sample.
#[test]
fn dqn_train_step_allocates_nothing() {
    let schema = lpa::schema::ssb::schema(0.001).expect("schema builds");
    let workload = lpa::workload::ssb::workload(&schema).expect("workload builds");
    let mut env = AdvisorEnv::new(
        schema,
        workload.clone(),
        RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
        MixSampler::uniform(&workload),
        true,
        41,
    );
    let cfg = DqnConfig::simulation(6, 8).with_seed(41);
    let mut agent: DqnAgent<AdvisorEnv> = DqnAgent::new(env.input_dim(), cfg.clone());
    train(&mut agent, &mut env, cfg.episodes, |_| {});
    let counts = allocs_per_call(16, 16, |_| {
        assert!(agent.train_step(&env).is_some(), "buffer holds a batch");
    });
    // `ReplayBuffer::sample_indices` draws into the agent's index buffer,
    // `Pool::par_chunks_mut` on one thread builds no chunk list, and the
    // weight panels are repacked into their own buffers.
    assert_eq!(counts, vec![0; 16]);
}

/// `DeltaEncoder::{state_prefix, encode_input, encode_batch}` over a
/// cycle of TPC-CH layouts, each call patching the previous one's arena.
#[test]
fn delta_encoder_allocates_nothing_once_warm() {
    let schema = lpa::schema::tpcch::schema(0.001).expect("schema builds");
    let enc = StateEncoder::new(&schema, 13);
    let dim = enc.input_dim();
    let mut delta = DeltaEncoder::new(enc);
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    let mut p = Partitioning::initial(&schema);
    let mut walk = Vec::new();
    for step in 0..8 {
        let actions = valid_actions(&schema, &p);
        p = actions[rng.gen_range(0..actions.len())]
            .apply(&schema, &p)
            .expect("valid action applies");
        let counts: Vec<f64> = (0..13).map(|q| ((q * step + 1) % 5) as f64).collect();
        let freqs = FrequencyVector::from_counts(&counts, 13);
        walk.push((p.clone(), freqs, valid_actions(&schema, &p)));
    }
    let widest = walk.iter().map(|(_, _, a)| a.len()).max().unwrap_or(0);
    let mut batch = vec![0.0f32; widest * dim];
    let mut row = vec![0.0f32; dim];
    let n = walk.len();
    let counts = allocs_per_call(n, n, |i| {
        let (p, f, actions) = &walk[i % n];
        delta.state_prefix(p, f);
        delta.encode_input(p, f, &actions[0], &mut row);
        delta.encode_batch(p, f, actions, &mut batch[..actions.len() * dim]);
    });
    assert_eq!(counts, vec![0; n]);
}

/// Eight literal variants each of an SSB flight-3 and a flight-1
/// statement: two shapes, both of known queries.
fn ssb_statements() -> Vec<String> {
    (0..8)
        .flat_map(|w| {
            [
                format!(
                    "SELECT c.c_city, s.s_city, sum(l.lo_orderkey) FROM lineorder l, customer c, \
                     supplier s, date d WHERE l.lo_custkey = c.c_custkey \
                     AND l.lo_suppkey = s.s_suppkey AND l.lo_orderdate = d.d_datekey \
                     AND c.c_nation = {n} AND s.s_nation = {n} \
                     AND d.d_year IN (1992, 1993, 1994, 1995, 1996, 1997)",
                    n = w % 25
                ),
                format!(
                    "SELECT sum(l.lo_orderkey) FROM lineorder l, date d \
                     WHERE l.lo_orderdate = d.d_datekey AND d.d_year = {} \
                     AND l.lo_orderkey < {}",
                    1992 + w,
                    500 + w
                ),
            ]
        })
        .collect()
}

/// `lpa_sql::shape_key` with a reused key buffer.
#[test]
fn shape_key_allocates_nothing_on_a_reused_buffer() {
    let statements = ssb_statements();
    let mut key = Vec::new();
    let n = statements.len();
    let counts = allocs_per_call(n, n, |i| {
        assert!(lpa::sql::shape_key(&statements[i % n], &mut key).is_some());
    });
    assert_eq!(counts, vec![0; n]);
}

/// `WorkloadMonitor::observe` of known SSB queries whose shapes it has
/// already memoised.
#[test]
fn monitor_observe_allocates_nothing_on_a_known_shape() {
    let schema = lpa::schema::ssb::schema(0.001).expect("schema builds");
    let workload = lpa::workload::ssb::workload(&schema).expect("workload builds");
    let mut monitor = WorkloadMonitor::new(schema, &workload);
    let statements = ssb_statements();
    let n = statements.len();
    let counts = allocs_per_call(n, n, |i| {
        let obs = monitor.observe(&statements[i % n]);
        assert!(matches!(obs, Observation::Known(_)), "{obs:?}");
    });
    assert_eq!(counts, vec![0; n]);
}
