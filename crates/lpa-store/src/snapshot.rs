//! Domain codecs: every persisted component of an advisor session encodes
//! to and decodes from the byte stream, bit-exactly.
//!
//! Layout discipline: fixed field order matching the struct definitions,
//! little-endian primitives, `u64` length prefixes, one tag byte per enum.
//! Decoders that rebuild validated domain objects (partitionings, interner
//! tables, replay buffers) go through the domain crates' checked
//! `from_parts` constructors, so a corrupt payload that slips past the CRC
//! still surfaces as [`StoreError::Corrupt`] — never a panic and never a
//! silently aliased cache key.
//!
//! What is deliberately *not* persisted (see DESIGN.md §11): generated
//! table data, layouts and optimizer statistics (pure functions of schema +
//! config + growth, regenerated on restore), the delta engine's inverted
//! indexes (pure function of schema + workload, rebuilt lazily), the
//! action-set cache (a memo that refills identically), and the state
//! encoder (derived from schema + slot count).

use crate::codec::{ByteReader, ByteWriter};
use crate::StoreError;
use lpa_advisor::online::OnlineResumeState;
use lpa_advisor::{
    AdvisorEnv, CachedRuntime, CostAccounting, DeltaCostEngine, EnvState, OnlineOptimizations,
    RecostMode, RetryPolicy, RewardBackend,
};
use lpa_cluster::{
    CanaryState, ClusterResumeState, FaultAccounting, FaultPlan, GuardrailAccounting,
    GuardrailResumeState, WindowObservation,
};
use lpa_nn::{Adam, Dense, Matrix, Mlp};
use lpa_partition::{Action, InternedKey, KeyInterner, Partitioning, TableState};
use lpa_rl::{DqnAgent, DqnConfig, EnvCounters, QLoss, ReplayBuffer, Transition};
use lpa_schema::{AttrId, AttrRef, EdgeId, Schema, TableId};
use lpa_service::{FrequencyForecaster, TenantCounters, TenantStatus};
use lpa_workload::{FrequencyVector, JoinPred, MixSampler, Query, QueryId};

// ---------------------------------------------------------------------------
// Leaves: matrices, networks, optimizer.

pub fn put_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    for &x in m.data() {
        w.put_f32(x);
    }
}

pub fn take_matrix(r: &mut ByteReader) -> Result<Matrix, StoreError> {
    let rows = r.take_usize()?;
    let cols = r.take_usize()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| StoreError::Corrupt(format!("matrix shape {rows}×{cols} overflows")))?;
    if n.saturating_mul(4) > r.remaining() {
        return Err(StoreError::Corrupt(format!(
            "matrix shape {rows}×{cols} exceeds the {} bytes left",
            r.remaining()
        )));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.take_f32()?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

pub fn put_dense(w: &mut ByteWriter, d: &Dense) {
    put_matrix(w, &d.w);
    w.put_f32s(&d.b);
}

pub fn take_dense(r: &mut ByteReader) -> Result<Dense, StoreError> {
    let weights = take_matrix(r)?;
    let b = r.take_f32s()?;
    if b.len() != weights.rows() {
        return Err(StoreError::Corrupt(format!(
            "bias length {} for a {}-row weight matrix",
            b.len(),
            weights.rows()
        )));
    }
    Ok(Dense { w: weights, b })
}

pub fn put_mlp(w: &mut ByteWriter, m: &Mlp) {
    w.put_usize(m.layers().len());
    for layer in m.layers() {
        put_dense(w, layer);
    }
}

pub fn take_mlp(r: &mut ByteReader) -> Result<Mlp, StoreError> {
    let n = r.take_len(16)?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        layers.push(take_dense(r)?);
    }
    if layers.is_empty() {
        return Err(StoreError::Corrupt("MLP with zero layers".to_string()));
    }
    for pair in layers.windows(2) {
        if pair[1].input_dim() != pair[0].output_dim() {
            return Err(StoreError::Corrupt(
                "MLP layer dimensions do not chain".to_string(),
            ));
        }
    }
    Ok(Mlp::from_layers(layers))
}

pub fn put_adam(w: &mut ByteWriter, a: &Adam) {
    w.put_f32(a.lr);
    w.put_f32(a.beta1);
    w.put_f32(a.beta2);
    w.put_f32(a.eps);
    w.put_u64(a.step_count());
    let moments = a.layer_moments();
    w.put_usize(moments.len());
    for (mw, vw, mb, vb) in moments {
        w.put_f32s(mw);
        w.put_f32s(vw);
        w.put_f32s(mb);
        w.put_f32s(vb);
    }
}

pub fn take_adam(r: &mut ByteReader) -> Result<Adam, StoreError> {
    let lr = r.take_f32()?;
    let beta1 = r.take_f32()?;
    let beta2 = r.take_f32()?;
    let eps = r.take_f32()?;
    let t = r.take_u64()?;
    let n = r.take_len(32)?;
    let mut moments = Vec::with_capacity(n);
    for _ in 0..n {
        let mw = r.take_f32s()?;
        let vw = r.take_f32s()?;
        let mb = r.take_f32s()?;
        let vb = r.take_f32s()?;
        if mw.len() != vw.len() || mb.len() != vb.len() {
            return Err(StoreError::Corrupt(
                "Adam moment vectors disagree in length".to_string(),
            ));
        }
        moments.push((mw, vw, mb, vb));
    }
    Ok(Adam::from_raw_state(lr, beta1, beta2, eps, t, moments))
}

// ---------------------------------------------------------------------------
// Partitionings, actions, environment states.

/// One table state per `u32` word: `0` = replicated, `attr + 1` =
/// partitioned by `attr` — the same lossless packing the fingerprint layer
/// uses. (Format v2 spent a `u64` per table; a checkpoint holds two
/// partitionings per replay transition, so the narrower word more than pays
/// for the monitor and forecaster state v3 added.)
pub fn put_partitioning(w: &mut ByteWriter, p: &Partitioning) {
    w.put_usize(p.table_states().len());
    for s in p.table_states() {
        w.put_u32(match s {
            TableState::Replicated => 0,
            TableState::PartitionedBy(a) => a.0 as u32 + 1,
        });
    }
    w.put_bools(p.edge_flags());
}

pub fn take_partitioning(r: &mut ByteReader, schema: &Schema) -> Result<Partitioning, StoreError> {
    let tables = r
        .take_u32s()?
        .into_iter()
        .map(|word| match word {
            0 => TableState::Replicated,
            a => TableState::PartitionedBy(AttrId((a - 1) as usize)),
        })
        .collect();
    let edges = r.take_bools()?;
    Partitioning::from_parts(schema, tables, edges)
        .map_err(|e| StoreError::Corrupt(format!("partitioning: {e}")))
}

fn put_opt_partitioning(w: &mut ByteWriter, p: &Option<Partitioning>) {
    match p {
        None => w.put_bool(false),
        Some(p) => {
            w.put_bool(true);
            put_partitioning(w, p);
        }
    }
}

fn take_opt_partitioning(
    r: &mut ByteReader,
    schema: &Schema,
) -> Result<Option<Partitioning>, StoreError> {
    if r.take_bool()? {
        Ok(Some(take_partitioning(r, schema)?))
    } else {
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Deployment guardrail.

pub(crate) fn put_window_observation(w: &mut ByteWriter, o: &WindowObservation) {
    w.put_f64(o.weighted_seconds);
    w.put_u64(o.clean);
    w.put_u64(o.degraded);
    w.put_u64(o.failed);
}

pub(crate) fn take_window_observation(r: &mut ByteReader) -> Result<WindowObservation, StoreError> {
    Ok(WindowObservation {
        weighted_seconds: r.take_f64()?,
        clean: r.take_u64()?,
        degraded: r.take_u64()?,
        failed: r.take_u64()?,
    })
}

fn put_guardrail_accounting(w: &mut ByteWriter, a: &GuardrailAccounting) {
    w.put_u64(a.windows);
    w.put_u64(a.canaries_started);
    w.put_u64(a.commits);
    w.put_u64(a.rollbacks_regression);
    w.put_u64(a.rollbacks_degraded);
    w.put_u64(a.extensions);
    w.put_u64(a.kept_current);
    w.put_u64(a.rejected_cooldown);
    w.put_u64(a.rejected_budget);
    w.put_u64(a.rejected_fleet_budget);
    w.put_u64(a.deferred_degraded_baseline);
    w.put_f64(a.deploy_seconds);
    w.put_f64(a.rollback_seconds);
}

fn take_guardrail_accounting(r: &mut ByteReader) -> Result<GuardrailAccounting, StoreError> {
    Ok(GuardrailAccounting {
        windows: r.take_u64()?,
        canaries_started: r.take_u64()?,
        commits: r.take_u64()?,
        rollbacks_regression: r.take_u64()?,
        rollbacks_degraded: r.take_u64()?,
        extensions: r.take_u64()?,
        kept_current: r.take_u64()?,
        rejected_cooldown: r.take_u64()?,
        rejected_budget: r.take_u64()?,
        rejected_fleet_budget: r.take_u64()?,
        deferred_degraded_baseline: r.take_u64()?,
        deploy_seconds: r.take_f64()?,
        rollback_seconds: r.take_f64()?,
    })
}

/// An open canary window carries *two* full partitionings (the staged
/// candidate and the layout to roll back to) plus the frequency mix pinned
/// at stage time — all of it must survive a kill for the verdict to be
/// bit-identical on resume.
pub fn put_guardrail_state(w: &mut ByteWriter, s: &GuardrailResumeState) {
    w.put_u64(s.window);
    w.put_u64(s.cooldown_until);
    w.put_u64s(&s.recent_stages);
    match &s.canary {
        None => w.put_bool(false),
        Some(c) => {
            w.put_bool(true);
            put_partitioning(w, &c.previous);
            put_partitioning(w, &c.candidate);
            w.put_f64s(c.pinned_mix.as_slice());
            put_window_observation(w, &c.baseline);
            w.put_f64(c.benefit_per_run);
            w.put_f64(c.repartition_cost);
            w.put_u64(c.opened_window);
            w.put_u32(c.clean_windows);
            w.put_f64(c.observed_sum);
            w.put_u32(c.inconclusive_windows);
        }
    }
    put_guardrail_accounting(w, &s.accounting);
}

pub fn take_guardrail_state(
    r: &mut ByteReader,
    schema: &Schema,
) -> Result<GuardrailResumeState, StoreError> {
    let window = r.take_u64()?;
    let cooldown_until = r.take_u64()?;
    let recent_stages = r.take_u64s()?;
    let canary = if r.take_bool()? {
        Some(CanaryState {
            previous: take_partitioning(r, schema)?,
            candidate: take_partitioning(r, schema)?,
            pinned_mix: FrequencyVector::from_raw(r.take_f64s()?),
            baseline: take_window_observation(r)?,
            benefit_per_run: r.take_f64()?,
            repartition_cost: r.take_f64()?,
            opened_window: r.take_u64()?,
            clean_windows: r.take_u32()?,
            observed_sum: r.take_f64()?,
            inconclusive_windows: r.take_u32()?,
        })
    } else {
        None
    };
    Ok(GuardrailResumeState {
        window,
        cooldown_until,
        recent_stages,
        canary,
        accounting: take_guardrail_accounting(r)?,
    })
}

pub fn put_action(w: &mut ByteWriter, a: &Action) {
    match a {
        Action::Partition { table, attr } => {
            w.put_u8(0);
            w.put_u64(table.0 as u64);
            w.put_u64(attr.0 as u64);
        }
        Action::Replicate { table } => {
            w.put_u8(1);
            w.put_u64(table.0 as u64);
        }
        Action::ActivateEdge(e) => {
            w.put_u8(2);
            w.put_u64(e.0 as u64);
        }
        Action::DeactivateEdge(e) => {
            w.put_u8(3);
            w.put_u64(e.0 as u64);
        }
    }
}

pub fn take_action(r: &mut ByteReader) -> Result<Action, StoreError> {
    match r.take_u8()? {
        0 => Ok(Action::Partition {
            table: TableId(r.take_usize()?),
            attr: AttrId(r.take_usize()?),
        }),
        1 => Ok(Action::Replicate {
            table: TableId(r.take_usize()?),
        }),
        2 => Ok(Action::ActivateEdge(EdgeId(r.take_usize()?))),
        3 => Ok(Action::DeactivateEdge(EdgeId(r.take_usize()?))),
        t => Err(StoreError::Corrupt(format!("action tag {t}"))),
    }
}

fn put_env_state(w: &mut ByteWriter, s: &EnvState) {
    put_partitioning(w, &s.partitioning);
    w.put_f64s(s.freqs.as_slice());
}

fn take_env_state(r: &mut ByteReader, schema: &Schema) -> Result<EnvState, StoreError> {
    let partitioning = take_partitioning(r, schema)?;
    let freqs = FrequencyVector::from_raw(r.take_f64s()?);
    Ok(EnvState {
        partitioning,
        freqs,
    })
}

// ---------------------------------------------------------------------------
// Replay buffer, RNG words, counters.

pub fn put_buffer(w: &mut ByteWriter, b: &ReplayBuffer<EnvState, Action>) {
    w.put_usize(b.capacity());
    w.put_usize(b.head());
    w.put_usize(b.items().len());
    for t in b.items() {
        put_env_state(w, &t.state);
        put_action(w, &t.action);
        w.put_f64(t.reward);
        put_env_state(w, &t.next_state);
    }
}

pub fn take_buffer(
    r: &mut ByteReader,
    schema: &Schema,
) -> Result<ReplayBuffer<EnvState, Action>, StoreError> {
    let capacity = r.take_usize()?;
    let head = r.take_usize()?;
    let n = r.take_len(32)?;
    if capacity == 0
        || n > capacity
        || (n == capacity && head >= capacity)
        || (n < capacity && head != 0)
    {
        return Err(StoreError::Corrupt(format!(
            "replay buffer shape: capacity {capacity}, head {head}, {n} items"
        )));
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let state = take_env_state(r, schema)?;
        let action = take_action(r)?;
        let reward = r.take_f64()?;
        let next_state = take_env_state(r, schema)?;
        items.push(Transition {
            state,
            action,
            reward,
            next_state,
        });
    }
    Ok(ReplayBuffer::from_parts(capacity, items, head))
}

pub fn put_rng(w: &mut ByteWriter, s: &[u64; 4]) {
    for &x in s {
        w.put_u64(x);
    }
}

pub fn take_rng(r: &mut ByteReader) -> Result<[u64; 4], StoreError> {
    Ok([r.take_u64()?, r.take_u64()?, r.take_u64()?, r.take_u64()?])
}

pub fn put_counters(w: &mut ByteWriter, c: &EnvCounters) {
    for v in [
        c.reward_cache_hits,
        c.reward_cache_misses,
        c.delta_recosts,
        c.full_recosts,
        c.queries_recosted,
        c.rewards_evaluated,
        c.action_cache_hits,
        c.action_cache_misses,
        c.queries_failed,
        c.fault_retries,
        c.fault_failovers,
        c.fault_fallbacks,
        c.checkpoints_written,
        c.checkpoint_corruptions_detected,
        c.checkpoint_restores,
        c.checkpoint_fallbacks,
    ] {
        w.put_u64(v);
    }
}

pub fn take_counters(r: &mut ByteReader) -> Result<EnvCounters, StoreError> {
    Ok(EnvCounters {
        reward_cache_hits: r.take_u64()?,
        reward_cache_misses: r.take_u64()?,
        delta_recosts: r.take_u64()?,
        full_recosts: r.take_u64()?,
        queries_recosted: r.take_u64()?,
        rewards_evaluated: r.take_u64()?,
        action_cache_hits: r.take_u64()?,
        action_cache_misses: r.take_u64()?,
        queries_failed: r.take_u64()?,
        fault_retries: r.take_u64()?,
        fault_failovers: r.take_u64()?,
        fault_fallbacks: r.take_u64()?,
        checkpoints_written: r.take_u64()?,
        checkpoint_corruptions_detected: r.take_u64()?,
        checkpoint_restores: r.take_u64()?,
        checkpoint_fallbacks: r.take_u64()?,
    })
}

// ---------------------------------------------------------------------------
// Interner + keyed caches.

pub fn put_interner(w: &mut ByteWriter, i: &KeyInterner) {
    let entries = i.entries();
    w.put_usize(entries.len());
    for (key, id) in entries {
        w.put_u32s(key);
        w.put_u32(id);
    }
}

pub fn take_interner(r: &mut ByteReader) -> Result<KeyInterner, StoreError> {
    let n = r.take_len(12)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.take_u32s()?;
        let id = r.take_u32()?;
        entries.push((key, id));
    }
    KeyInterner::from_entries(entries).map_err(StoreError::Corrupt)
}

/// Interned memo-cache entry: `((query id, layout key), cost)`.
pub type MemoEntry = ((u32, InternedKey), f64);
/// Interned runtime-cache entry: `((query id, layout key), cached runtime)`.
pub type RuntimeEntry = ((u32, InternedKey), CachedRuntime);

fn put_memo(w: &mut ByteWriter, memo: &[MemoEntry]) {
    w.put_usize(memo.len());
    for &((q, key), cost) in memo {
        w.put_u32(q);
        w.put_u32(key.0);
        w.put_f64(cost);
    }
}

fn take_memo(r: &mut ByteReader) -> Result<Vec<MemoEntry>, StoreError> {
    let n = r.take_len(16)?;
    let mut memo = Vec::with_capacity(n);
    for _ in 0..n {
        let q = r.take_u32()?;
        let key = InternedKey(r.take_u32()?);
        let cost = r.take_f64()?;
        memo.push(((q, key), cost));
    }
    Ok(memo)
}

fn put_runtime_entries(w: &mut ByteWriter, entries: &[RuntimeEntry]) {
    w.put_usize(entries.len());
    for ((q, key), rt) in entries {
        w.put_u32(*q);
        w.put_u32(key.0);
        w.put_f64(rt.seconds);
        w.put_bool(rt.degraded);
    }
}

fn take_runtime_entries(r: &mut ByteReader) -> Result<Vec<RuntimeEntry>, StoreError> {
    let n = r.take_len(17)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let q = r.take_u32()?;
        let key = InternedKey(r.take_u32()?);
        let seconds = r.take_f64()?;
        let degraded = r.take_bool()?;
        entries.push(((q, key), CachedRuntime { seconds, degraded }));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Queries.

fn put_attr_ref(w: &mut ByteWriter, a: AttrRef) {
    w.put_u32(a.table.0 as u32);
    w.put_u32(a.attr.0 as u32);
}

fn take_attr_ref(r: &mut ByteReader) -> Result<AttrRef, StoreError> {
    Ok(AttrRef {
        table: TableId(r.take_u32()? as usize),
        attr: AttrId(r.take_u32()? as usize),
    })
}

/// A query learned from observed SQL, which no restore template can
/// rebuild: name, table ids, each join's attribute pairs as
/// `(table, attr)` words, selectivities and CPU factor by bit pattern.
pub fn put_query(w: &mut ByteWriter, q: &Query) {
    w.put_str(&q.name);
    let tables: Vec<u32> = q.tables.iter().map(|t| t.0 as u32).collect();
    w.put_u32s(&tables);
    w.put_usize(q.joins.len());
    for join in &q.joins {
        w.put_usize(join.pairs.len());
        for &(a, b) in &join.pairs {
            put_attr_ref(w, a);
            put_attr_ref(w, b);
        }
    }
    w.put_f64s(&q.selectivity);
    w.put_f64(q.cpu_factor);
}

/// Decodes and validates: whatever shape the bytes spell, the query
/// handed back passed [`Query::validate`] against `schema`.
pub fn take_query(r: &mut ByteReader, schema: &Schema) -> Result<Query, StoreError> {
    let name = r.take_str()?;
    let tables = r
        .take_u32s()?
        .into_iter()
        .map(|t| TableId(t as usize))
        .collect();
    let n = r.take_len(8)?;
    let mut joins = Vec::with_capacity(n);
    for _ in 0..n {
        let n = r.take_len(16)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push((take_attr_ref(r)?, take_attr_ref(r)?));
        }
        joins.push(JoinPred { pairs });
    }
    let query = Query {
        name,
        tables,
        joins,
        selectivity: r.take_f64s()?,
        cpu_factor: r.take_f64()?,
    };
    query
        .validate(schema)
        .map_err(|e| StoreError::Corrupt(format!("query: {e}")))?;
    Ok(query)
}

// ---------------------------------------------------------------------------
// DQN config, samplers.

pub fn put_config(w: &mut ByteWriter, c: &DqnConfig) {
    w.put_f32(c.learning_rate);
    w.put_f32(c.tau);
    w.put_usize(c.buffer_size);
    w.put_usize(c.batch_size);
    w.put_f64(c.epsilon_start);
    w.put_f64(c.epsilon_decay);
    w.put_f64(c.epsilon_min);
    w.put_f64(c.gamma);
    w.put_usize(c.tmax);
    w.put_usize(c.episodes);
    let hidden: Vec<u64> = c.hidden.iter().map(|&h| h as u64).collect();
    w.put_u64s(&hidden);
    w.put_usize(c.train_every);
    w.put_u64(c.seed);
    match c.loss {
        QLoss::Mse => w.put_u8(0),
        QLoss::Huber(d) => {
            w.put_u8(1);
            w.put_f32(d);
        }
    }
    w.put_bool(c.double_dqn);
}

pub fn take_config(r: &mut ByteReader) -> Result<DqnConfig, StoreError> {
    let learning_rate = r.take_f32()?;
    let tau = r.take_f32()?;
    let buffer_size = r.take_usize()?;
    let batch_size = r.take_usize()?;
    let epsilon_start = r.take_f64()?;
    let epsilon_decay = r.take_f64()?;
    let epsilon_min = r.take_f64()?;
    let gamma = r.take_f64()?;
    let tmax = r.take_usize()?;
    let episodes = r.take_usize()?;
    let hidden: Vec<usize> = r.take_u64s()?.into_iter().map(|h| h as usize).collect();
    let train_every = r.take_usize()?;
    let seed = r.take_u64()?;
    let loss = match r.take_u8()? {
        0 => QLoss::Mse,
        1 => QLoss::Huber(r.take_f32()?),
        t => return Err(StoreError::Corrupt(format!("loss tag {t}"))),
    };
    let double_dqn = r.take_bool()?;
    Ok(DqnConfig {
        learning_rate,
        tau,
        buffer_size,
        batch_size,
        epsilon_start,
        epsilon_decay,
        epsilon_min,
        gamma,
        tmax,
        episodes,
        hidden,
        train_every,
        seed,
        loss,
        double_dqn,
    })
}

pub fn put_sampler(w: &mut ByteWriter, s: &MixSampler) {
    match s {
        MixSampler::Uniform { slots, queries } => {
            w.put_u8(0);
            w.put_usize(*slots);
            w.put_usize(*queries);
        }
        MixSampler::Emphasis {
            slots,
            queries,
            hot,
            boost,
        } => {
            w.put_u8(1);
            w.put_usize(*slots);
            w.put_usize(*queries);
            w.put_usize(hot.len());
            for q in hot {
                w.put_u64(q.0 as u64);
            }
            w.put_f64(*boost);
        }
        MixSampler::Fixed(v) => {
            w.put_u8(2);
            w.put_f64s(v.as_slice());
        }
        MixSampler::Cycle { vectors, next } => {
            w.put_u8(3);
            w.put_usize(vectors.len());
            for v in vectors {
                w.put_f64s(v.as_slice());
            }
            w.put_usize(*next);
        }
    }
}

pub fn take_sampler(r: &mut ByteReader) -> Result<MixSampler, StoreError> {
    match r.take_u8()? {
        0 => Ok(MixSampler::Uniform {
            slots: r.take_usize()?,
            queries: r.take_usize()?,
        }),
        1 => {
            let slots = r.take_usize()?;
            let queries = r.take_usize()?;
            let n = r.take_len(8)?;
            let mut hot = Vec::with_capacity(n);
            for _ in 0..n {
                hot.push(QueryId(r.take_usize()?));
            }
            let boost = r.take_f64()?;
            Ok(MixSampler::Emphasis {
                slots,
                queries,
                hot,
                boost,
            })
        }
        2 => Ok(MixSampler::Fixed(FrequencyVector::from_raw(r.take_f64s()?))),
        3 => {
            let n = r.take_len(8)?;
            let mut vectors = Vec::with_capacity(n);
            for _ in 0..n {
                vectors.push(FrequencyVector::from_raw(r.take_f64s()?));
            }
            let next = r.take_usize()?;
            if !vectors.is_empty() && next >= vectors.len() {
                return Err(StoreError::Corrupt(format!(
                    "cycle cursor {next} out of {} vectors",
                    vectors.len()
                )));
            }
            Ok(MixSampler::Cycle { vectors, next })
        }
        t => Err(StoreError::Corrupt(format!("sampler tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Fault layer, accounting, cluster.

fn put_fault_plan(w: &mut ByteWriter, p: &FaultPlan) {
    w.put_u64(p.seed);
    w.put_f64(p.window_seconds);
    w.put_f64(p.crash_rate);
    w.put_f64(p.straggle_rate);
    w.put_f64(p.straggle_factor);
    w.put_f64(p.link_degrade_rate);
    w.put_f64(p.link_degrade_factor);
    w.put_f64(p.transient_rate);
}

fn take_fault_plan(r: &mut ByteReader) -> Result<FaultPlan, StoreError> {
    Ok(FaultPlan {
        seed: r.take_u64()?,
        window_seconds: r.take_f64()?,
        crash_rate: r.take_f64()?,
        straggle_rate: r.take_f64()?,
        straggle_factor: r.take_f64()?,
        link_degrade_rate: r.take_f64()?,
        link_degrade_factor: r.take_f64()?,
        transient_rate: r.take_f64()?,
    })
}

fn put_fault_accounting(w: &mut ByteWriter, a: &FaultAccounting) {
    for v in [
        a.queries_failed,
        a.node_down_failures,
        a.transient_failures,
        a.failovers,
        a.degraded_completions,
        a.timeouts,
        a.retries,
        a.fallbacks,
        a.cache_invalidations,
    ] {
        w.put_u64(v);
    }
}

fn take_fault_accounting(r: &mut ByteReader) -> Result<FaultAccounting, StoreError> {
    Ok(FaultAccounting {
        queries_failed: r.take_u64()?,
        node_down_failures: r.take_u64()?,
        transient_failures: r.take_u64()?,
        failovers: r.take_u64()?,
        degraded_completions: r.take_u64()?,
        timeouts: r.take_u64()?,
        retries: r.take_u64()?,
        fallbacks: r.take_u64()?,
        cache_invalidations: r.take_u64()?,
    })
}

fn put_cost_accounting(w: &mut ByteWriter, a: &CostAccounting) {
    w.put_f64(a.actual_query_seconds);
    w.put_f64(a.executed_query_seconds_full);
    w.put_f64(a.cached_query_seconds);
    w.put_f64(a.timeout_saved_seconds);
    w.put_f64(a.lazy_repartition_seconds);
    w.put_f64(a.full_repartition_seconds);
    w.put_u64(a.queries_executed);
    w.put_u64(a.queries_cached);
    w.put_u64(a.timeouts_hit);
}

fn take_cost_accounting(r: &mut ByteReader) -> Result<CostAccounting, StoreError> {
    Ok(CostAccounting {
        actual_query_seconds: r.take_f64()?,
        executed_query_seconds_full: r.take_f64()?,
        cached_query_seconds: r.take_f64()?,
        timeout_saved_seconds: r.take_f64()?,
        lazy_repartition_seconds: r.take_f64()?,
        full_repartition_seconds: r.take_f64()?,
        queries_executed: r.take_u64()?,
        queries_cached: r.take_u64()?,
        timeouts_hit: r.take_u64()?,
    })
}

pub fn put_cluster_state(w: &mut ByteWriter, s: &ClusterResumeState) {
    put_partitioning(w, &s.deployed);
    w.put_f64(s.clock_seconds);
    w.put_u64(s.stats_epoch);
    w.put_f64s(&s.growth);
    w.put_u64(s.queries_executed);
    w.put_u64(s.tables_repartitioned);
    put_fault_plan(w, &s.faults);
    put_fault_accounting(w, &s.fault_accounting);
}

pub fn take_cluster_state(
    r: &mut ByteReader,
    schema: &Schema,
) -> Result<ClusterResumeState, StoreError> {
    Ok(ClusterResumeState {
        deployed: take_partitioning(r, schema)?,
        clock_seconds: r.take_f64()?,
        stats_epoch: r.take_u64()?,
        growth: r.take_f64s()?,
        queries_executed: r.take_u64()?,
        tables_repartitioned: r.take_u64()?,
        faults: take_fault_plan(r)?,
        fault_accounting: take_fault_accounting(r)?,
    })
}

// ---------------------------------------------------------------------------
// Reward backends.

/// The checkpointable state of a reward backend — offline delta engine or
/// online measured-runtime backend (cluster + runtime cache included).
///
/// The online variant is much larger than the offline one; boxing it would
/// buy nothing on a type constructed a handful of times per checkpoint.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum BackendState {
    Offline {
        mode: RecostMode,
        interner: KeyInterner,
        memo: Vec<((u32, InternedKey), f64)>,
        costs: Vec<f64>,
        current: Option<Partitioning>,
        stats: EnvCounters,
    },
    Online {
        resume: OnlineResumeState,
        cluster: ClusterResumeState,
        cache_interner: KeyInterner,
        cache_entries: Vec<((u32, InternedKey), CachedRuntime)>,
        cache_hits: u64,
        cache_misses: u64,
    },
}

impl BackendState {
    /// Capture the backend of a live environment.
    pub fn capture(backend: &RewardBackend) -> Self {
        match backend {
            RewardBackend::CostModel(engine) => Self::Offline {
                mode: engine.mode(),
                interner: engine.interner().clone(),
                memo: engine.memo_entries(),
                costs: engine.cost_vector().to_vec(),
                current: engine.tracked().cloned(),
                stats: engine.stats,
            },
            RewardBackend::Cluster(b) => {
                let cluster = b.cluster().lock().resume_state();
                let cache = b.cache();
                let cache = cache.lock();
                Self::Online {
                    resume: b.resume_state(),
                    cluster,
                    cache_interner: cache.interner().clone(),
                    cache_entries: cache.entries(),
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                }
            }
        }
    }
}

fn put_retry(w: &mut ByteWriter, p: &RetryPolicy) {
    w.put_u32(p.max_retries);
    w.put_f64(p.backoff_seconds);
    w.put_f64(p.backoff_multiplier);
}

fn take_retry(r: &mut ByteReader) -> Result<RetryPolicy, StoreError> {
    Ok(RetryPolicy {
        max_retries: r.take_u32()?,
        backoff_seconds: r.take_f64()?,
        backoff_multiplier: r.take_f64()?,
    })
}

fn put_opts(w: &mut ByteWriter, o: &OnlineOptimizations) {
    w.put_bool(o.runtime_cache);
    w.put_bool(o.lazy_repartitioning);
    w.put_bool(o.timeouts);
}

fn take_opts(r: &mut ByteReader) -> Result<OnlineOptimizations, StoreError> {
    Ok(OnlineOptimizations {
        runtime_cache: r.take_bool()?,
        lazy_repartitioning: r.take_bool()?,
        timeouts: r.take_bool()?,
    })
}

pub fn put_backend(w: &mut ByteWriter, b: &BackendState) {
    match b {
        BackendState::Offline {
            mode,
            interner,
            memo,
            costs,
            current,
            stats,
        } => {
            w.put_u8(0);
            w.put_u8(match mode {
                RecostMode::Full => 0,
                RecostMode::Delta => 1,
            });
            put_interner(w, interner);
            put_memo(w, memo);
            w.put_f64s(costs);
            put_opt_partitioning(w, current);
            put_counters(w, stats);
        }
        BackendState::Online {
            resume,
            cluster,
            cache_interner,
            cache_entries,
            cache_hits,
            cache_misses,
        } => {
            w.put_u8(1);
            w.put_f64s(&resume.scale);
            put_opts(w, &resume.opts);
            put_cost_accounting(w, &resume.accounting);
            w.put_f64(resume.best_reward);
            put_opt_partitioning(w, &resume.eager_shadow);
            put_retry(w, &resume.retry);
            put_fault_accounting(w, &resume.faults);
            put_cluster_state(w, cluster);
            put_interner(w, cache_interner);
            put_runtime_entries(w, cache_entries);
            w.put_u64(*cache_hits);
            w.put_u64(*cache_misses);
        }
    }
}

pub fn take_backend(r: &mut ByteReader, schema: &Schema) -> Result<BackendState, StoreError> {
    match r.take_u8()? {
        0 => {
            let mode = match r.take_u8()? {
                0 => RecostMode::Full,
                1 => RecostMode::Delta,
                t => return Err(StoreError::Corrupt(format!("recost mode tag {t}"))),
            };
            let interner = take_interner(r)?;
            let memo = take_memo(r)?;
            let costs = r.take_f64s()?;
            let current = take_opt_partitioning(r, schema)?;
            let stats = take_counters(r)?;
            Ok(BackendState::Offline {
                mode,
                interner,
                memo,
                costs,
                current,
                stats,
            })
        }
        1 => {
            let scale = r.take_f64s()?;
            let opts = take_opts(r)?;
            let accounting = take_cost_accounting(r)?;
            let best_reward = r.take_f64()?;
            let eager_shadow = take_opt_partitioning(r, schema)?;
            let retry = take_retry(r)?;
            let faults = take_fault_accounting(r)?;
            let cluster = take_cluster_state(r, schema)?;
            let cache_interner = take_interner(r)?;
            let cache_entries = take_runtime_entries(r)?;
            let cache_hits = r.take_u64()?;
            let cache_misses = r.take_u64()?;
            Ok(BackendState::Online {
                resume: OnlineResumeState {
                    scale,
                    opts,
                    accounting,
                    best_reward,
                    eager_shadow,
                    retry,
                    faults,
                },
                cluster,
                cache_interner,
                cache_entries,
                cache_hits,
                cache_misses,
            })
        }
        t => Err(StoreError::Corrupt(format!("backend tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Session snapshot (agent + environment).

/// The full durable state of one advisor training session at an episode
/// boundary: Q/target networks, optimizer moments, replay buffer, ε, both
/// RNG streams, the sampler cursor and the complete reward backend.
#[derive(Debug)]
pub struct SessionSnapshot {
    /// Index of the last completed episode.
    pub episode: u64,
    pub cfg: DqnConfig,
    pub q: Mlp,
    pub target: Mlp,
    pub opt: Adam,
    pub epsilon: f64,
    pub buffer: ReplayBuffer<EnvState, Action>,
    pub agent_rng: [u64; 4],
    pub sampler: MixSampler,
    pub backend: BackendState,
    pub reward_scale: f64,
    pub env_rng: [u64; 4],
    pub allow_compound: bool,
}

impl SessionSnapshot {
    /// Capture a live agent + environment pair (the shape the training
    /// loop's `after_episode` hook provides).
    pub fn capture(episode: u64, agent: &DqnAgent<AdvisorEnv>, env: &AdvisorEnv) -> Self {
        Self {
            episode,
            cfg: agent.config().clone(),
            q: agent.q_network().clone(),
            target: agent.target_network().clone(),
            opt: agent.optimizer().clone(),
            epsilon: agent.epsilon(),
            buffer: agent.buffer().clone(),
            agent_rng: agent.rng_state(),
            sampler: env.sampler().clone(),
            backend: BackendState::capture(env.backend()),
            reward_scale: env.reward_scale(),
            env_rng: env.rng_state(),
            allow_compound: env.allow_compound(),
        }
    }

    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.episode);
        put_config(w, &self.cfg);
        put_mlp(w, &self.q);
        put_mlp(w, &self.target);
        put_adam(w, &self.opt);
        w.put_f64(self.epsilon);
        put_buffer(w, &self.buffer);
        put_rng(w, &self.agent_rng);
        put_sampler(w, &self.sampler);
        put_backend(w, &self.backend);
        w.put_f64(self.reward_scale);
        put_rng(w, &self.env_rng);
        w.put_bool(self.allow_compound);
    }

    pub fn decode(r: &mut ByteReader, schema: &Schema) -> Result<Self, StoreError> {
        Ok(Self {
            episode: r.take_u64()?,
            cfg: take_config(r)?,
            q: take_mlp(r)?,
            target: take_mlp(r)?,
            opt: take_adam(r)?,
            epsilon: r.take_f64()?,
            buffer: take_buffer(r, schema)?,
            agent_rng: take_rng(r)?,
            sampler: take_sampler(r)?,
            backend: take_backend(r, schema)?,
            reward_scale: r.take_f64()?,
            env_rng: take_rng(r)?,
            allow_compound: r.take_bool()?,
        })
    }
}

/// Rebuild a delta engine from offline backend state over a fresh model.
/// The inverted indexes are not persisted — `restore_state` clears them and
/// they rebuild lazily on the next reward, identically.
pub fn restore_engine(
    model: lpa_costmodel::NetworkCostModel,
    mode: RecostMode,
    interner: KeyInterner,
    memo: Vec<((u32, InternedKey), f64)>,
    costs: Vec<f64>,
    current: Option<Partitioning>,
    stats: EnvCounters,
) -> DeltaCostEngine {
    let mut engine = DeltaCostEngine::new(model, mode);
    engine.restore_state(interner, memo, costs, current, stats);
    engine
}

// ---------------------------------------------------------------------------
// Service snapshot.

/// The durable state of a running [`lpa_service::PartitioningService`] —
/// standalone or as a fleet tenant: the advisor session, the production
/// cluster, the monitor's mid-window counts and quarantined new queries,
/// the forecaster and the guardrail. Of the workload only the queries
/// absorbed from observed SQL travel with the checkpoint; the rest is
/// rebuilt from the restore template. The controller config is not
/// stored: like the guardrail's, it belongs to whoever owns the service.
#[derive(Debug)]
pub struct ServiceSnapshot {
    /// Decision windows completed so far.
    pub windows: u64,
    pub session: SessionSnapshot,
    /// Every query absorbed beyond the template's workload, in slot
    /// order. New queries arrive as parsed SQL, so no template can rebuild
    /// them.
    pub absorbed_queries: Vec<Query>,
    pub cluster: ClusterResumeState,
    pub monitor_counts: Vec<f64>,
    pub monitor_observed: u64,
    /// Pending (quarantined) queries as `(query, observed count)`, in the
    /// monitor's deterministic order.
    pub monitor_pending: Vec<(Query, u64)>,
    pub forecaster: FrequencyForecaster,
    /// Deployment-guardrail state: open canary (if any), cooldown,
    /// repartitioning budget history, accounting ledger.
    pub guardrail: GuardrailResumeState,
}

impl ServiceSnapshot {
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.windows);
        self.session.encode(w);
        w.put_usize(self.absorbed_queries.len());
        for query in &self.absorbed_queries {
            put_query(w, query);
        }
        put_cluster_state(w, &self.cluster);
        w.put_f64s(&self.monitor_counts);
        w.put_u64(self.monitor_observed);
        w.put_usize(self.monitor_pending.len());
        for (query, n) in &self.monitor_pending {
            put_query(w, query);
            w.put_u64(*n);
        }
        let (alpha, beta) = self.forecaster.factors();
        w.put_f64(alpha);
        w.put_f64(beta);
        w.put_f64s(self.forecaster.level());
        w.put_f64s(self.forecaster.trend());
        w.put_u64(self.forecaster.windows_seen());
        put_guardrail_state(w, &self.guardrail);
    }

    pub fn decode(r: &mut ByteReader, schema: &Schema) -> Result<Self, StoreError> {
        let windows = r.take_u64()?;
        let session = SessionSnapshot::decode(r, schema)?;
        let n = r.take_len(40)?;
        let mut absorbed_queries = Vec::with_capacity(n);
        for _ in 0..n {
            absorbed_queries.push(take_query(r, schema)?);
        }
        let cluster = take_cluster_state(r, schema)?;
        let monitor_counts = r.take_f64s()?;
        let monitor_observed = r.take_u64()?;
        let n = r.take_len(48)?;
        let mut monitor_pending = Vec::with_capacity(n);
        for _ in 0..n {
            let query = take_query(r, schema)?;
            let count = r.take_u64()?;
            monitor_pending.push((query, count));
        }
        Ok(Self {
            windows,
            session,
            absorbed_queries,
            cluster,
            monitor_counts,
            monitor_observed,
            monitor_pending,
            forecaster: FrequencyForecaster::from_parts(
                r.take_f64()?,
                r.take_f64()?,
                r.take_f64s()?,
                r.take_f64s()?,
                r.take_u64()?,
            )
            .map_err(StoreError::Corrupt)?,
            guardrail: take_guardrail_state(r, schema)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Tenant snapshot (fleet member).

/// One fleet tenant's complete resumable state: the fleet-level scheduling
/// fields (episode budget position, quarantine status, error budget,
/// fairness counters) around the tenant's [`ServiceSnapshot`] — a tenant
/// *is* a service, so its advisor session, cluster, monitor, forecaster and
/// guardrail go through that one codec. Schema and spec-derived workload
/// are *not* stored; they are rebuilt from the tenant's spec at restore.
#[derive(Debug)]
pub struct TenantSnapshot {
    /// Tenant id (slot index) inside the fleet.
    pub tenant: u64,
    /// Fleet round the snapshot was taken at — the store sequence number.
    pub round: u64,
    /// Training episodes completed.
    pub episode: u64,
    pub status: TenantStatus,
    pub errors_since_rejoin: u64,
    pub counters: TenantCounters,
    pub service: ServiceSnapshot,
}

fn put_tenant_status(w: &mut ByteWriter, s: &TenantStatus) {
    match s {
        TenantStatus::Active => w.put_u8(0),
        TenantStatus::Quarantined { until_round } => {
            w.put_u8(1);
            w.put_u64(*until_round);
        }
    }
}

fn take_tenant_status(r: &mut ByteReader) -> Result<TenantStatus, StoreError> {
    match r.take_u8()? {
        0 => Ok(TenantStatus::Active),
        1 => Ok(TenantStatus::Quarantined {
            until_round: r.take_u64()?,
        }),
        t => Err(StoreError::Corrupt(format!("tenant status tag {t}"))),
    }
}

fn put_tenant_counters(w: &mut ByteWriter, c: &TenantCounters) {
    w.put_u64(c.slices_issued);
    w.put_u64(c.slices_run);
    w.put_u64(c.slices_skipped);
    w.put_u64(c.step_errors);
    w.put_u64(c.restore_errors);
    w.put_u64(c.checkpoint_errors);
    w.put_u64(c.quarantines);
    w.put_u64(c.rejoins);
    w.put_u64(c.deployments);
    w.put_u64(c.degraded_windows);
}

fn take_tenant_counters(r: &mut ByteReader) -> Result<TenantCounters, StoreError> {
    Ok(TenantCounters {
        slices_issued: r.take_u64()?,
        slices_run: r.take_u64()?,
        slices_skipped: r.take_u64()?,
        step_errors: r.take_u64()?,
        restore_errors: r.take_u64()?,
        checkpoint_errors: r.take_u64()?,
        quarantines: r.take_u64()?,
        rejoins: r.take_u64()?,
        deployments: r.take_u64()?,
        degraded_windows: r.take_u64()?,
    })
}

impl TenantSnapshot {
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.tenant);
        w.put_u64(self.round);
        w.put_u64(self.episode);
        put_tenant_status(w, &self.status);
        w.put_u64(self.errors_since_rejoin);
        put_tenant_counters(w, &self.counters);
        self.service.encode(w);
    }

    pub fn decode(r: &mut ByteReader, schema: &Schema) -> Result<Self, StoreError> {
        Ok(Self {
            tenant: r.take_u64()?,
            round: r.take_u64()?,
            episode: r.take_u64()?,
            status: take_tenant_status(r)?,
            errors_since_rejoin: r.take_u64()?,
            counters: take_tenant_counters(r)?,
            service: ServiceSnapshot::decode(r, schema)?,
        })
    }
}

/// Everything a checkpoint file can hold.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one value per checkpoint file; boxing buys nothing
pub enum Checkpoint {
    Session(SessionSnapshot),
    Service(ServiceSnapshot),
    Tenant(TenantSnapshot),
}

impl Checkpoint {
    /// The sequence number a store files this checkpoint under.
    pub fn sequence(&self) -> u64 {
        match self {
            Self::Session(s) => s.episode,
            Self::Service(s) => s.windows,
            Self::Tenant(t) => t.round,
        }
    }

    pub fn into_session(self) -> Result<SessionSnapshot, StoreError> {
        match self {
            Self::Session(s) => Ok(s),
            other => Err(StoreError::Incompatible(format!(
                "expected a session checkpoint, found {}",
                other.kind_name()
            ))),
        }
    }

    pub fn into_service(self) -> Result<ServiceSnapshot, StoreError> {
        match self {
            Self::Service(s) => Ok(s),
            other => Err(StoreError::Incompatible(format!(
                "expected a service checkpoint, found {}",
                other.kind_name()
            ))),
        }
    }

    pub fn into_tenant(self) -> Result<TenantSnapshot, StoreError> {
        match self {
            Self::Tenant(t) => Ok(t),
            other => Err(StoreError::Incompatible(format!(
                "expected a tenant checkpoint, found {}",
                other.kind_name()
            ))),
        }
    }

    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::Session(_) => "session",
            Self::Service(_) => "service",
            Self::Tenant(_) => "tenant",
        }
    }

    /// Tag 3 is reserved (a retired kind) and decodes as `Corrupt`.
    pub(crate) fn kind_tag(&self) -> u8 {
        match self {
            Self::Session(_) => 1,
            Self::Service(_) => 2,
            Self::Tenant(_) => 4,
        }
    }

    pub(crate) fn encode_payload(&self, w: &mut ByteWriter) {
        match self {
            Self::Session(s) => s.encode(w),
            Self::Service(s) => s.encode(w),
            Self::Tenant(t) => t.encode(w),
        }
    }

    pub(crate) fn decode_payload(
        tag: u8,
        r: &mut ByteReader,
        schema: &Schema,
    ) -> Result<Self, StoreError> {
        match tag {
            1 => Ok(Self::Session(SessionSnapshot::decode(r, schema)?)),
            2 => Ok(Self::Service(ServiceSnapshot::decode(r, schema)?)),
            4 => Ok(Self::Tenant(TenantSnapshot::decode(r, schema)?)),
            t => Err(StoreError::Corrupt(format!("checkpoint kind tag {t}"))),
        }
    }
}
