//! Domain codecs: every persisted component of an advisor session encodes
//! to and decodes from the byte stream, bit-exactly.
//!
//! Layout discipline: one declaration per record. A [`wire_record!`] or
//! [`wire_enum!`] names each field once, in wire order, and both directions
//! of the codec come from that list; `put` destructures the struct with no
//! `..`, so a field added to a persisted type does not compile until its
//! declaration places it. Little-endian primitives, `u64` length prefixes,
//! one tag byte per enum variant. Four fields are stored at another width
//! than their type's own, and their declarations say so: a `usize` is a
//! `u64`, a `TableId` is a `u64` in an [`Action`] but a `u32` in an
//! [`AttrRef`] and in a query's table list, a partitioning's table state is
//! one packed `u32` word, and the DQN config's hidden widths are `u64`s.
//!
//! Decoding validates, so a corrupt payload that slips past the CRC still
//! surfaces as [`StoreError::Corrupt`] — never a panic and never a silently
//! aliased cache key. A declaration's `check` validates a decoded query
//! against the schema and a cycling sampler's cursor; impls are
//! hand-written only for the other checks: matrix shapes against the bytes
//! left, MLP layers chaining, Adam moment lengths, the replay ring's shape,
//! and the domain crates' checked constructors (partitionings, interner
//! tables, the forecaster). Schema-bound values validate against the schema
//! the [`ByteReader`] carries.
//!
//! The bytes are format v5's: `tests/fixtures/v5/` holds golden files of
//! deterministic checkpoints, captured before this codec was declared this
//! way and never regenerated, and `tests/roundtrip.rs` checks that encoding
//! reproduces them and that decoding and re-encoding them does too.
//!
//! What is deliberately *not* persisted (see DESIGN.md §11): generated
//! table data, layouts and optimizer statistics (pure functions of schema +
//! config + growth, regenerated on restore), the delta engine's inverted
//! indexes (pure function of schema + workload, rebuilt lazily), the
//! action-set cache (a memo that refills identically), and the state
//! encoder (derived from schema + slot count).

#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use crate::codec::{ByteReader, ByteWriter, Wire, WireAs};
use crate::{wire_enum, wire_record, StoreError};
use lpa_advisor::online::OnlineResumeState;
use lpa_advisor::{
    AdvisorEnv, CachedRuntime, CostAccounting, EnvState, OnlineOptimizations, RecostMode,
    RetryPolicy, RewardBackend,
};
use lpa_cluster::{
    CanaryState, ClusterResumeState, FaultAccounting, FaultPlan, GuardrailAccounting,
    GuardrailResumeState, WindowObservation,
};
use lpa_nn::{Adam, Dense, Matrix, Mlp};
use lpa_partition::{fingerprint, Action, InternedKey, KeyInterner, Partitioning, TableState};
use lpa_rl::{DqnAgent, DqnConfig, EnvCounters, ReplayBuffer, Transition};
use lpa_schema::{AttrId, AttrRef, EdgeId, TableId};
use lpa_service::{FrequencyForecaster, TenantCounters, TenantStatus};
use lpa_workload::{FrequencyVector, JoinPred, MixSampler, Query, QueryId};
use std::sync::PoisonError;

// ---------------------------------------------------------------------------
// Widths.

/// Ids are `usize` newtypes, stored as a `u64` or a `u32` word as the
/// declaration that holds them says.
macro_rules! id_widths {
    ($($id:ident),* as u64) => {$(
        impl WireAs<$id> for u64 {
            fn put_as(v: &$id, w: &mut ByteWriter) {
                w.put_usize(v.0);
            }

            fn take_as(r: &mut ByteReader) -> Result<$id, StoreError> {
                r.take_usize().map($id)
            }
        }
    )*};
    ($($id:ident),* as u32) => {$(
        impl WireAs<$id> for u32 {
            fn put_as(v: &$id, w: &mut ByteWriter) {
                (v.0 as u32).put(w);
            }

            fn take_as(r: &mut ByteReader) -> Result<$id, StoreError> {
                Ok($id(u32::take(r)? as usize))
            }
        }
    )*};
}

id_widths!(TableId, AttrId, EdgeId, QueryId as u64);
id_widths!(TableId, AttrId as u32);

/// One table state per `u32` word, [`fingerprint::pack`]ed: `0` =
/// replicated, `attr + 1` = partitioned by `attr`. (Format v2 spent a `u64`
/// per table; a checkpoint holds two partitionings per replay transition,
/// so the narrower word more than pays for the monitor and forecaster state
/// v3 added.)
impl WireAs<TableState> for u32 {
    fn put_as(v: &TableState, w: &mut ByteWriter) {
        fingerprint::pack(*v).put(w);
    }

    fn take_as(r: &mut ByteReader) -> Result<TableState, StoreError> {
        Ok(match u32::take(r)? {
            0 => TableState::Replicated,
            a => TableState::PartitionedBy(AttrId((a - 1) as usize)),
        })
    }
}

// ---------------------------------------------------------------------------
// Leaves: matrices, networks, optimizer.

impl Wire for Matrix {
    const MIN_BYTES: usize = 16;

    fn put(&self, w: &mut ByteWriter) {
        w.put_usize(self.rows());
        w.put_usize(self.cols());
        for &x in self.data() {
            x.put(w);
        }
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
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
            data.push(f32::take(r)?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl Wire for Dense {
    const MIN_BYTES: usize = Matrix::MIN_BYTES + 8;

    fn put(&self, w: &mut ByteWriter) {
        self.w.put(w);
        self.b.put(w);
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        let weights = Matrix::take(r)?;
        let b = Vec::<f32>::take(r)?;
        if b.len() != weights.rows() {
            return Err(StoreError::Corrupt(format!(
                "bias length {} for a {}-row weight matrix",
                b.len(),
                weights.rows()
            )));
        }
        Ok(Dense { w: weights, b })
    }
}

impl Wire for Mlp {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut ByteWriter) {
        w.put_slice(self.layers());
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "windows(2) yields two-element slices"
    )]
    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        let layers = Vec::<Dense>::take(r)?;
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
}

impl Wire for Adam {
    const MIN_BYTES: usize = 32;

    fn put(&self, w: &mut ByteWriter) {
        for x in [self.lr, self.beta1, self.beta2, self.eps] {
            x.put(w);
        }
        self.step_count().put(w);
        let moments = self.layer_moments();
        w.put_usize(moments.len());
        for (mw, vw, mb, vb) in moments {
            for v in [mw, vw, mb, vb] {
                w.put_slice(v);
            }
        }
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        let lr = f32::take(r)?;
        let beta1 = f32::take(r)?;
        let beta2 = f32::take(r)?;
        let eps = f32::take(r)?;
        let t = u64::take(r)?;
        let n = r.take_len(32)?;
        let mut moments = Vec::with_capacity(n);
        for _ in 0..n {
            let mw = Vec::<f32>::take(r)?;
            let vw = Vec::<f32>::take(r)?;
            let mb = Vec::<f32>::take(r)?;
            let vb = Vec::<f32>::take(r)?;
            if mw.len() != vw.len() || mb.len() != vb.len() {
                return Err(StoreError::Corrupt(
                    "Adam moment vectors disagree in length".to_string(),
                ));
            }
            moments.push((mw, vw, mb, vb));
        }
        Ok(Adam::from_raw_state(lr, beta1, beta2, eps, t, moments))
    }
}

// ---------------------------------------------------------------------------
// Partitionings, actions, environment states, replay buffer.

/// Validated by [`Partitioning::from_parts`] against the reader's schema.
impl Wire for Partitioning {
    const MIN_BYTES: usize = 16;

    fn put(&self, w: &mut ByteWriter) {
        w.put_slice_as::<u32, _>(self.table_states());
        w.put_slice(self.edge_flags());
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        let tables = r.take_vec_as::<u32, _>()?;
        let edges = r.take_vec()?;
        Partitioning::from_parts(r.schema()?, tables, edges)
            .map_err(|e| StoreError::Corrupt(format!("partitioning: {e}")))
    }
}

impl Wire for FrequencyVector {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut ByteWriter) {
        w.put_slice(self.as_slice());
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        Ok(FrequencyVector::from_raw(r.take_vec()?))
    }
}

wire_enum! {
    Action {
        0 => Partition {
            table: TableId as u64,
            attr: AttrId as u64,
        },
        1 => Replicate {
            table: TableId as u64,
        },
        2 => ActivateEdge(edge: EdgeId as u64),
        3 => DeactivateEdge(edge: EdgeId as u64),
    }
}

wire_record! {
    EnvState {
        partitioning: Partitioning,
        freqs: FrequencyVector,
    }
}

wire_record! {
    Transition<EnvState, Action> {
        state: EnvState,
        action: Action,
        reward: f64,
        next_state: EnvState,
    }
}

/// Capacity, ring head and the transitions, whose shape must be one a ring
/// can be in.
impl Wire for ReplayBuffer<EnvState, Action> {
    const MIN_BYTES: usize = 24;

    fn put(&self, w: &mut ByteWriter) {
        w.put_usize(self.capacity());
        w.put_usize(self.head());
        w.put_slice(self.items());
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        let capacity = r.take_usize()?;
        let head = r.take_usize()?;
        let n = r.take_len(Transition::<EnvState, Action>::MIN_BYTES)?;
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
            items.push(Transition::take(r)?);
        }
        Ok(ReplayBuffer::from_parts(capacity, items, head))
    }
}

// ---------------------------------------------------------------------------
// Counters, configs, accounting.

wire_record! {
    EnvCounters {
        reward_cache_hits: u64,
        reward_cache_misses: u64,
        delta_recosts: u64,
        full_recosts: u64,
        queries_recosted: u64,
        rewards_evaluated: u64,
        action_cache_hits: u64,
        action_cache_misses: u64,
        queries_failed: u64,
        fault_retries: u64,
        fault_failovers: u64,
        fault_fallbacks: u64,
        checkpoints_written: u64,
        checkpoint_corruptions_detected: u64,
        checkpoint_restores: u64,
        checkpoint_fallbacks: u64,
    }
}

wire_record! {
    DqnConfig {
        learning_rate: f32,
        tau: f32,
        batch_size: usize as u64,
        epsilon_decay: f64,
        gamma: f64,
        tmax: usize as u64,
        episodes: usize as u64,
        hidden: Vec<usize> as Vec<u64>,
        train_every: usize as u64,
        seed: u64,
    }
}

wire_record! {
    FaultPlan {
        seed: u64,
        window_seconds: f64,
        crash_rate: f64,
        straggle_rate: f64,
        straggle_factor: f64,
        link_degrade_rate: f64,
        link_degrade_factor: f64,
        transient_rate: f64,
    }
}

wire_record! {
    FaultAccounting {
        queries_failed: u64,
        node_down_failures: u64,
        transient_failures: u64,
        failovers: u64,
        degraded_completions: u64,
        timeouts: u64,
        retries: u64,
        fallbacks: u64,
        cache_invalidations: u64,
    }
}

wire_record! {
    CostAccounting {
        actual_query_seconds: f64,
        executed_query_seconds_full: f64,
        cached_query_seconds: f64,
        timeout_saved_seconds: f64,
        lazy_repartition_seconds: f64,
        full_repartition_seconds: f64,
        queries_executed: u64,
        queries_cached: u64,
        timeouts_hit: u64,
    }
}

wire_record! {
    RetryPolicy {
        max_retries: u32,
        backoff_seconds: f64,
        backoff_multiplier: f64,
    }
}

wire_record! {
    OnlineOptimizations {
        runtime_cache: bool,
        lazy_repartitioning: bool,
        timeouts: bool,
    }
}

wire_record! {
    TenantCounters {
        slices_issued: u64,
        slices_run: u64,
        slices_skipped: u64,
        step_errors: u64,
        restore_errors: u64,
        checkpoint_errors: u64,
        quarantines: u64,
        rejoins: u64,
        deployments: u64,
        degraded_windows: u64,
    }
}

wire_enum! {
    TenantStatus {
        0 => Active,
        1 => Quarantined {
            until_round: u64,
        },
    }
}

// ---------------------------------------------------------------------------
// Deployment guardrail.

wire_record! {
    WindowObservation {
        weighted_seconds: f64,
        clean: u64,
        degraded: u64,
        failed: u64,
    }
}

wire_record! {
    GuardrailAccounting {
        windows: u64,
        canaries_started: u64,
        commits: u64,
        rollbacks_regression: u64,
        rollbacks_degraded: u64,
        extensions: u64,
        kept_current: u64,
        rejected_cooldown: u64,
        rejected_budget: u64,
        rejected_fleet_budget: u64,
        deferred_degraded_baseline: u64,
        deploy_seconds: f64,
        rollback_seconds: f64,
    }
}

// An open canary window carries *two* full partitionings (the staged
// candidate and the layout to roll back to) plus the frequency mix pinned
// at stage time — all of it must survive a kill for the verdict to be
// bit-identical on resume.
wire_record! {
    CanaryState {
        previous: Partitioning,
        candidate: Partitioning,
        pinned_mix: FrequencyVector,
        baseline: WindowObservation,
        benefit_per_run: f64,
        repartition_cost: f64,
        opened_window: u64,
        clean_windows: u32,
        observed_sum: f64,
        inconclusive_windows: u32,
    }
}

wire_record! {
    GuardrailResumeState {
        window: u64,
        cooldown_until: u64,
        recent_stages: Vec<u64>,
        canary: Option<CanaryState>,
        accounting: GuardrailAccounting,
    }
}

// ---------------------------------------------------------------------------
// Interner + keyed caches.

/// Validated by [`KeyInterner::from_entries`]: ids dense and unaliased.
impl Wire for KeyInterner {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut ByteWriter) {
        let entries = self.entries();
        w.put_usize(entries.len());
        for (key, id) in entries {
            w.put_slice(key);
            id.put(w);
        }
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        KeyInterner::from_entries(r.take_vec::<(Vec<u32>, u32)>()?).map_err(StoreError::Corrupt)
    }
}

impl Wire for InternedKey {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        u32::take(r).map(InternedKey)
    }
}

/// Interned memo-cache entry: `((query id, layout key), cost)`.
pub type MemoEntry = ((u32, InternedKey), f64);
/// Interned runtime-cache entry: `((query id, layout key), cached runtime)`.
pub type RuntimeEntry = ((u32, InternedKey), CachedRuntime);

wire_record! {
    CachedRuntime {
        seconds: f64,
        degraded: bool,
    }
}

// ---------------------------------------------------------------------------
// Queries, samplers, forecaster.

wire_record! {
    AttrRef {
        table: TableId as u32,
        attr: AttrId as u32,
    }
}

wire_record! {
    JoinPred {
        pairs: Vec<(AttrRef, AttrRef)>,
    }
}

// A query learned from observed SQL, which no restore template can
// rebuild: name, table ids, each join's attribute pairs as `(table, attr)`
// words, selectivities and CPU factor by bit pattern.
wire_record! {
    Query {
        name: String,
        tables: Vec<TableId> as Vec<u32>,
        joins: Vec<JoinPred>,
        selectivity: Vec<f64>,
        cpu_factor: f64,
    }
    check query_fits_schema
}

/// Whatever shape the bytes spell, a decoded query passed
/// [`Query::validate`] against the reader's schema.
fn query_fits_schema(query: &Query, r: &ByteReader) -> Result<(), StoreError> {
    query
        .validate(r.schema()?)
        .map_err(|e| StoreError::Corrupt(format!("query: {e}")))
}

wire_enum! {
    MixSampler {
        0 => Uniform {
            slots: usize as u64,
            queries: usize as u64,
        },
        1 => Emphasis {
            slots: usize as u64,
            queries: usize as u64,
            hot: Vec<QueryId> as Vec<u64>,
            boost: f64,
        },
        2 => Fixed(mix: FrequencyVector),
        3 => Cycle {
            vectors: Vec<FrequencyVector>,
            next: usize as u64,
        },
    }
    check cycle_cursor_in_range
}

/// A cycling sampler's cursor must point at one of its vectors.
fn cycle_cursor_in_range(sampler: &MixSampler, _: &ByteReader) -> Result<(), StoreError> {
    match sampler {
        MixSampler::Cycle { vectors, next } if *next >= vectors.len() => Err(StoreError::Corrupt(
            format!("cycle cursor {next} out of {} vectors", vectors.len()),
        )),
        MixSampler::Uniform { .. }
        | MixSampler::Emphasis { .. }
        | MixSampler::Fixed(_)
        | MixSampler::Cycle { .. } => Ok(()),
    }
}

/// Validated by [`FrequencyForecaster::from_parts`].
impl Wire for FrequencyForecaster {
    const MIN_BYTES: usize = 40;

    fn put(&self, w: &mut ByteWriter) {
        let (alpha, beta) = self.factors();
        alpha.put(w);
        beta.put(w);
        w.put_slice(self.level());
        w.put_slice(self.trend());
        self.windows_seen().put(w);
    }

    fn take(r: &mut ByteReader) -> Result<Self, StoreError> {
        FrequencyForecaster::from_parts(
            f64::take(r)?,
            f64::take(r)?,
            r.take_vec()?,
            r.take_vec()?,
            u64::take(r)?,
        )
        .map_err(StoreError::Corrupt)
    }
}

// ---------------------------------------------------------------------------
// Cluster and reward backends.

wire_record! {
    ClusterResumeState {
        deployed: Partitioning,
        clock_seconds: f64,
        stats_epoch: u64,
        growth: Vec<f64>,
        queries_executed: u64,
        tables_repartitioned: u64,
        faults: FaultPlan,
        fault_accounting: FaultAccounting,
    }
}

wire_record! {
    OnlineResumeState {
        scale: Vec<f64>,
        opts: OnlineOptimizations,
        accounting: CostAccounting,
        best_reward: f64,
        eager_shadow: Option<Partitioning>,
        retry: RetryPolicy,
        faults: FaultAccounting,
    }
}

wire_enum! {
    RecostMode {
        0 => Full,
        1 => Delta,
    }
}

/// The checkpointable state of a reward backend — offline delta engine or
/// online measured-runtime backend (cluster + runtime cache included).
///
/// The online variant is much larger than the offline one; boxing it would
/// buy nothing on a type constructed a handful of times per checkpoint.
#[derive(Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "built a handful of times per checkpoint; boxing the online variant buys nothing"
)]
pub enum BackendState {
    Offline {
        mode: RecostMode,
        interner: KeyInterner,
        memo: Vec<MemoEntry>,
        costs: Vec<f64>,
        current: Option<Partitioning>,
        stats: EnvCounters,
    },
    Online {
        resume: OnlineResumeState,
        cluster: ClusterResumeState,
        cache_interner: KeyInterner,
        cache_entries: Vec<RuntimeEntry>,
        cache_hits: u64,
        cache_misses: u64,
    },
}

wire_enum! {
    BackendState {
        0 => Offline {
            mode: RecostMode,
            interner: KeyInterner,
            memo: Vec<MemoEntry>,
            costs: Vec<f64>,
            current: Option<Partitioning>,
            stats: EnvCounters,
        },
        1 => Online {
            resume: OnlineResumeState,
            cluster: ClusterResumeState,
            cache_interner: KeyInterner,
            cache_entries: Vec<RuntimeEntry>,
            cache_hits: u64,
            cache_misses: u64,
        },
    }
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
                let cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
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

wire_record! {
    SessionSnapshot {
        episode: u64,
        cfg: DqnConfig,
        q: Mlp,
        target: Mlp,
        opt: Adam,
        epsilon: f64,
        buffer: ReplayBuffer<EnvState, Action>,
        agent_rng: [u64; 4],
        sampler: MixSampler,
        backend: BackendState,
        reward_scale: f64,
        env_rng: [u64; 4],
        allow_compound: bool,
    }
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

wire_record! {
    ServiceSnapshot {
        windows: u64,
        session: SessionSnapshot,
        absorbed_queries: Vec<Query>,
        cluster: ClusterResumeState,
        monitor_counts: Vec<f64>,
        monitor_observed: u64,
        monitor_pending: Vec<(Query, u64)>,
        forecaster: FrequencyForecaster,
        guardrail: GuardrailResumeState,
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

wire_record! {
    TenantSnapshot {
        tenant: u64,
        round: u64,
        episode: u64,
        status: TenantStatus,
        errors_since_rejoin: u64,
        counters: TenantCounters,
        service: ServiceSnapshot,
    }
}

/// Everything a checkpoint file can hold.
#[derive(Debug)]
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
            other @ (Self::Service(_) | Self::Tenant(_)) => Err(StoreError::Incompatible(format!(
                "expected a session checkpoint, found {}",
                other.kind_name()
            ))),
        }
    }

    pub fn into_service(self) -> Result<ServiceSnapshot, StoreError> {
        match self {
            Self::Service(s) => Ok(s),
            other @ (Self::Session(_) | Self::Tenant(_)) => Err(StoreError::Incompatible(format!(
                "expected a service checkpoint, found {}",
                other.kind_name()
            ))),
        }
    }

    pub fn into_tenant(self) -> Result<TenantSnapshot, StoreError> {
        match self {
            Self::Tenant(t) => Ok(t),
            other @ (Self::Session(_) | Self::Service(_)) => Err(StoreError::Incompatible(
                format!("expected a tenant checkpoint, found {}", other.kind_name()),
            )),
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
            Self::Session(s) => s.put(w),
            Self::Service(s) => s.put(w),
            Self::Tenant(t) => t.put(w),
        }
    }

    /// The payload a file of kind `tag` holds; `r` carries the schema its
    /// partitionings and queries are validated against.
    pub(crate) fn decode_payload(tag: u8, r: &mut ByteReader) -> Result<Self, StoreError> {
        match tag {
            1 => Ok(Self::Session(SessionSnapshot::take(r)?)),
            2 => Ok(Self::Service(ServiceSnapshot::take(r)?)),
            4 => Ok(Self::Tenant(TenantSnapshot::take(r)?)),
            t => Err(StoreError::Corrupt(format!("checkpoint kind tag {t}"))),
        }
    }
}
