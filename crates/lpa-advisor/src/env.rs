//! The partitioning problem as a DQN environment (Section 3.2).

#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use crate::delta::{DeltaCostEngine, RecostMode};
use crate::online::OnlineBackend;
use lpa_costmodel::NetworkCostModel;
use lpa_partition::{
    valid_actions, Action, ActionSetCache, DeltaEncoder, Partitioning, StateEncoder,
};
use lpa_rl::{EnvCounters, QEnvironment};
use lpa_schema::Schema;
use lpa_workload::{FrequencyVector, MixSampler, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// DQN state: the current partitioning plus the episode's workload mix
/// (both are part of the Q-network input, Fig. 2c).
#[derive(Clone, Debug)]
pub struct EnvState {
    pub partitioning: Partitioning,
    pub freqs: FrequencyVector,
}

/// Where rewards come from.
#[derive(Debug)]
pub enum RewardBackend {
    /// Offline phase: the network-centric cost model behind the
    /// incremental [`DeltaCostEngine`] (per-query cost vector, inverted
    /// indexes, interned memo keys).
    CostModel(Box<DeltaCostEngine>),
    /// Online phase: measured runtimes on the sampled cluster.
    Cluster(Box<OnlineBackend>),
}

impl RewardBackend {
    /// Offline backend in delta mode (the default: steps re-cost only the
    /// queries the action touched).
    pub fn cost_model(model: NetworkCostModel) -> Self {
        Self::CostModel(Box::new(DeltaCostEngine::new(model, RecostMode::Delta)))
    }

    /// Offline backend that re-costs the full workload on every reward —
    /// the seed behaviour, kept as the equivalence reference for the
    /// differential suite and the before/after benchmark.
    pub fn cost_model_full(model: NetworkCostModel) -> Self {
        Self::CostModel(Box::new(DeltaCostEngine::new(model, RecostMode::Full)))
    }

    /// Access the online backend, if this is one.
    pub fn as_online(&self) -> Option<&OnlineBackend> {
        match self {
            Self::Cluster(b) => Some(b),
            Self::CostModel { .. } => None,
        }
    }

    /// Access the offline delta engine, if this is one.
    pub fn as_cost_model(&self) -> Option<&DeltaCostEngine> {
        match self {
            Self::CostModel(engine) => Some(engine),
            Self::Cluster(_) => None,
        }
    }

    /// Mutable access to the online backend (checkpoint restore).
    pub fn as_online_mut(&mut self) -> Option<&mut OnlineBackend> {
        match self {
            Self::Cluster(b) => Some(b),
            Self::CostModel { .. } => None,
        }
    }

    /// Mutable access to the offline delta engine (checkpoint restore).
    pub fn as_cost_model_mut(&mut self) -> Option<&mut DeltaCostEngine> {
        match self {
            Self::CostModel(engine) => Some(engine),
            Self::Cluster(_) => None,
        }
    }

    fn reward(
        &mut self,
        schema: &Schema,
        workload: &Workload,
        p: &Partitioning,
        freqs: &FrequencyVector,
    ) -> f64 {
        match self {
            Self::CostModel(engine) => engine.reward(schema, workload, p, freqs),
            Self::Cluster(backend) => backend.reward(workload, p, freqs),
        }
    }

    /// Reward after `action` turned `prev` into `next` — lets the offline
    /// engine re-cost only the queries the action touched.
    fn reward_for_step(
        &mut self,
        schema: &Schema,
        workload: &Workload,
        prev: &Partitioning,
        action: &Action,
        next: &Partitioning,
        freqs: &FrequencyVector,
    ) -> f64 {
        match self {
            Self::CostModel(engine) => {
                engine.reward_for_step(schema, workload, prev, action, next, freqs)
            }
            Self::Cluster(backend) => backend.reward(workload, next, freqs),
        }
    }
}

/// The advisor's environment.
#[derive(Debug)]
pub struct AdvisorEnv {
    pub schema: Schema,
    pub workload: Workload,
    pub encoder: StateEncoder,
    sampler: MixSampler,
    backend: RewardBackend,
    rng: StdRng,
    s0: Partitioning,
    /// Engines without compound-key support (Postgres-XL) exclude actions
    /// touching compound attributes.
    allow_compound: bool,
    /// Rewards are divided by this before reaching the agent so the
    /// Q-network sees O(1) targets regardless of the benchmark's absolute
    /// cost magnitude (cost-model costs at sample scale are milliseconds,
    /// far below the network's initial output scale). Ranking — and thus
    /// every argmax — is unaffected.
    reward_scale: f64,
    /// `valid_actions` (plus the compound filter) memoized per distinct
    /// partitioning. `RefCell` because [`QEnvironment::actions`] takes
    /// `&self`; never borrowed across a call boundary, and `RefCell<T:
    /// Send>` keeps the env `Send` for the committee's parallel map.
    action_sets: RefCell<ActionSetCache>,
    /// Incremental state encoder: patches only the feature slots the
    /// partitioning changed since the last encode instead of rebuilding
    /// the full state prefix. Wraps a clone of [`Self::encoder`] (the
    /// layout is fixed at construction, so the two can never diverge).
    /// `RefCell` for the same reason as `action_sets` —
    /// [`QEnvironment::encode`] takes `&self`. Bit-exactness versus the
    /// full rebuild is the [`DeltaEncoder`] contract, enforced by its
    /// `with_full_encode` oracle guard and this crate's differential
    /// tests.
    delta_enc: RefCell<DeltaEncoder>,
    /// [`Self::counters`] snapshot taken at the last `reset()`, so
    /// `episode_counters()` can report per-episode deltas while
    /// `counters()` stays cumulative for the training loop's own
    /// differencing.
    episode_base: EnvCounters,
}

impl AdvisorEnv {
    pub fn new(
        schema: Schema,
        workload: Workload,
        backend: RewardBackend,
        sampler: MixSampler,
        allow_compound: bool,
        seed: u64,
    ) -> Self {
        let encoder = StateEncoder::new(&schema, workload.slots());
        let delta_enc = RefCell::new(DeltaEncoder::new(encoder.clone()));
        let s0 = Partitioning::initial(&schema);
        let mut env = Self {
            encoder,
            delta_enc,
            sampler,
            backend,
            rng: StdRng::seed_from_u64(seed ^ 0xE27),
            s0,
            allow_compound,
            schema,
            workload,
            reward_scale: 1.0,
            action_sets: RefCell::new(ActionSetCache::new()),
            episode_base: EnvCounters::default(),
        };
        env.recompute_reward_scale();
        env
    }

    /// Construct an environment from checkpointed state without deriving a
    /// fresh reward normalization. [`Self::new`] executes the workload once
    /// against the backend to fix `reward_scale`; on the restore path that
    /// side effect would perturb the cluster clock and caches that were
    /// just put back into their recorded state, so the captured scale and
    /// RNG words are installed directly instead.
    pub fn for_restore(
        schema: Schema,
        workload: Workload,
        backend: RewardBackend,
        sampler: MixSampler,
        allow_compound: bool,
        reward_scale: f64,
        rng_state: [u64; 4],
    ) -> Self {
        let encoder = StateEncoder::new(&schema, workload.slots());
        let delta_enc = RefCell::new(DeltaEncoder::new(encoder.clone()));
        let s0 = Partitioning::initial(&schema);
        Self {
            encoder,
            delta_enc,
            sampler,
            backend,
            rng: StdRng::from_state(rng_state),
            s0,
            allow_compound,
            schema,
            workload,
            reward_scale,
            action_sets: RefCell::new(ActionSetCache::new()),
            episode_base: EnvCounters::default(),
        }
    }

    /// Patch/rebuild tallies of the incremental state encoder (observability
    /// for benchmarks; a rebuild happens on the first encode after
    /// construction or [`DeltaEncoder::invalidate`], a patch everywhere the
    /// delta path applied).
    pub fn encoder_stats(&self) -> (u64, u64) {
        let enc = self.delta_enc.borrow();
        (enc.patches(), enc.rebuilds())
    }

    /// Fix the normalization constant from the initial state's cost under
    /// a uniform mix. For the online backend this executes the workload
    /// once on the sampled cluster — cheap, and the runtime cache keeps
    /// the measurements for training anyway.
    fn recompute_reward_scale(&mut self) {
        let uniform = self.workload.uniform_frequencies();
        let raw = self
            .backend
            .reward(&self.schema, &self.workload, &self.s0, &uniform)
            .abs();
        self.reward_scale = if raw > 1e-12 { raw } else { 1.0 };
    }

    /// The current reward normalization constant.
    pub fn reward_scale(&self) -> f64 {
        self.reward_scale
    }

    /// Swap the workload-mix sampler (inference pins it to one vector).
    pub fn set_sampler(&mut self, sampler: MixSampler) -> MixSampler {
        std::mem::replace(&mut self.sampler, sampler)
    }

    /// Swap the reward backend (offline → online refinement). The reward
    /// normalization is re-derived for the new backend.
    pub fn set_backend(&mut self, backend: RewardBackend) -> RewardBackend {
        let old = std::mem::replace(&mut self.backend, backend);
        self.recompute_reward_scale();
        old
    }

    /// Install a backend together with a previously captured normalization
    /// constant, bit-for-bit. Unlike [`Self::set_backend`] this does *not*
    /// re-derive the scale — re-deriving would execute the workload against
    /// the backend, perturbing cluster clocks and caches that a checkpoint
    /// restore has just put back into their recorded state.
    pub fn restore_backend(&mut self, backend: RewardBackend, reward_scale: f64) {
        self.backend = backend;
        self.reward_scale = reward_scale;
    }

    /// The current mix sampler (checkpoint capture; includes cursor state
    /// for cycling samplers).
    pub fn sampler(&self) -> &MixSampler {
        &self.sampler
    }

    /// Raw words of the environment's episode-mix RNG.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restore the episode-mix RNG to previously captured raw words.
    pub fn set_rng_state(&mut self, s: [u64; 4]) {
        self.rng = StdRng::from_state(s);
    }

    pub fn backend(&self) -> &RewardBackend {
        &self.backend
    }

    pub fn backend_mut(&mut self) -> &mut RewardBackend {
        &mut self.backend
    }

    pub fn initial_partitioning(&self) -> &Partitioning {
        &self.s0
    }

    pub fn allow_compound(&self) -> bool {
        self.allow_compound
    }

    /// Normalized reward of an arbitrary partitioning under a mix —
    /// exposed for inference (best-state selection) and the committee's
    /// subspace assignment. Same units as the rewards the agent trains on.
    pub fn reward_of(&mut self, p: &Partitioning, freqs: &FrequencyVector) -> f64 {
        self.backend.reward(&self.schema, &self.workload, p, freqs) / self.reward_scale
    }

    /// Cost of a partitioning in the backend's raw units (estimated or
    /// scaled-measured seconds) — use this when comparing against real
    /// quantities like repartitioning time.
    pub fn cost_of(&mut self, p: &Partitioning, freqs: &FrequencyVector) -> f64 {
        -self.backend.reward(&self.schema, &self.workload, p, freqs)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "action attribute ids are minted by this env's schema"
    )]
    fn action_allowed(&self, a: &Action) -> bool {
        if self.allow_compound {
            return true;
        }
        match *a {
            Action::Partition { table, attr } => {
                !self.schema.table(table).attributes[attr.0].is_compound()
            }
            Action::Replicate { .. } => true,
            Action::ActivateEdge(e) | Action::DeactivateEdge(e) => {
                let edge = self.schema.edge(e);
                edge.endpoints()
                    .iter()
                    .all(|ep| !self.schema.attribute(*ep).is_compound())
            }
        }
    }
}

impl QEnvironment for AdvisorEnv {
    type State = EnvState;
    type Action = Action;

    fn input_dim(&self) -> usize {
        self.encoder.input_dim()
    }

    fn state_prefix_len(&self) -> usize {
        self.encoder.state_dim()
    }

    fn reset(&mut self) -> EnvState {
        self.episode_base = self.counters();
        let freqs = self.sampler.sample(&mut self.rng);
        EnvState {
            partitioning: self.s0.clone(),
            freqs,
        }
    }

    fn actions(&self, state: &EnvState) -> Vec<Action> {
        let mut out = Vec::new();
        self.actions_into(state, &mut out);
        out
    }

    fn actions_into(&self, state: &EnvState, out: &mut Vec<Action>) {
        out.extend_from_slice(self.action_sets.borrow_mut().get_or_insert_with(
            &state.partitioning,
            || {
                valid_actions(&self.schema, &state.partitioning)
                    .into_iter()
                    .filter(|a| self.action_allowed(a))
                    .collect()
            },
        ));
    }

    fn encode(&self, state: &EnvState, action: &Action, out: &mut [f32]) {
        self.delta_enc
            .borrow_mut()
            .encode_input(&state.partitioning, &state.freqs, action, out);
    }

    fn encode_batch(&self, state: &EnvState, actions: &[Action], out: &mut [f32]) {
        self.delta_enc
            .borrow_mut()
            .encode_batch(&state.partitioning, &state.freqs, actions, out);
    }

    fn encode_overwrites_fully(&self) -> bool {
        // `DeltaEncoder::encode_input` copies the full state prefix and
        // `StateEncoder::encode_action_into` zero-fills the action block
        // before writing its one-hots — every output slot is written, so
        // callers may skip zeroing reused buffers.
        true
    }

    fn step(&mut self, state: &EnvState, action: &Action) -> (EnvState, f64) {
        // Only valid actions are offered; a rejected action degrades to a
        // no-op step so a planner bug cannot abort a training episode.
        let next = action
            .apply(&self.schema, &state.partitioning)
            .unwrap_or_else(|_| state.partitioning.clone());
        let reward = self.backend.reward_for_step(
            &self.schema,
            &self.workload,
            &state.partitioning,
            action,
            &next,
            &state.freqs,
        ) / self.reward_scale;
        (
            EnvState {
                partitioning: next,
                freqs: state.freqs.clone(),
            },
            reward,
        )
    }

    fn counters(&self) -> EnvCounters {
        let mut c = match &self.backend {
            RewardBackend::CostModel(engine) => engine.stats,
            RewardBackend::Cluster(online) => {
                // Fault-layer activity (merged cluster + backend view)
                // flows into per-episode training stats.
                let fa = online.fault_accounting();
                EnvCounters {
                    queries_failed: fa.queries_failed,
                    fault_retries: fa.retries,
                    fault_failovers: fa.failovers,
                    fault_fallbacks: fa.fallbacks,
                    ..EnvCounters::default()
                }
            }
        };
        let sets = self.action_sets.borrow();
        c.action_cache_hits = sets.hits;
        c.action_cache_misses = sets.misses;
        c
    }

    fn episode_counters(&self) -> EnvCounters {
        self.counters().since(&self.episode_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_costmodel::CostParams;

    fn offline_env(allow_compound: bool) -> AdvisorEnv {
        let schema = lpa_schema::tpcch::schema(0.001).expect("schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let sampler = MixSampler::uniform(&workload);
        AdvisorEnv::new(
            schema,
            workload,
            RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
            sampler,
            allow_compound,
            1,
        )
    }

    #[test]
    fn compound_actions_filtered_for_pgxl() {
        let env_pg = offline_env(false);
        let env_sx = offline_env(true);
        let s = EnvState {
            partitioning: env_pg.initial_partitioning().clone(),
            freqs: FrequencyVector::uniform(env_pg.workload.slots()),
        };
        let pg_actions = env_pg.actions(&s);
        let sx_actions = env_sx.actions(&s);
        assert!(sx_actions.len() > pg_actions.len());
        let has_compound = |actions: &[Action], env: &AdvisorEnv| {
            actions.iter().any(|a| match *a {
                Action::Partition { table, attr } => {
                    env.schema.table(table).attributes[attr.0].is_compound()
                }
                _ => false,
            })
        };
        assert!(!has_compound(&pg_actions, &env_pg));
        assert!(has_compound(&sx_actions, &env_sx));
    }

    #[test]
    fn step_reward_matches_reward_of() {
        let mut env = offline_env(true);
        let s = {
            let mut s = env.reset();
            s.freqs = FrequencyVector::uniform(env.workload.slots());
            s
        };
        let a = env.actions(&s)[0];
        let (next, r) = env.step(&s, &a);
        let direct = env.reward_of(&next.partitioning, &s.freqs);
        assert!((r - direct).abs() < 1e-9);
        assert!(r < 0.0, "rewards are negative costs");
    }

    #[test]
    fn offline_cache_memoizes() {
        let mut env = offline_env(true);
        let s = env.reset();
        // An action that changes the physical state of a table some query
        // actually touches (the first enumerated actions can be state-level
        // no-ops or hit query-free tables — nothing to re-cost there).
        let a = env
            .actions(&s)
            .into_iter()
            .find(|a| {
                let touched = match *a {
                    Action::Partition { table, .. } | Action::Replicate { table } => env
                        .workload
                        .queries()
                        .iter()
                        .any(|q| q.tables.contains(&table)),
                    Action::ActivateEdge(_) | Action::DeactivateEdge(_) => false,
                };
                touched
                    && a.apply(&env.schema, &s.partitioning)
                        .map(|n| n != s.partitioning)
                        .unwrap_or(false)
            })
            .expect("a state-changing action on a queried table exists");
        let (_, r1) = env.step(&s, &a);
        let (_, r2) = env.step(&s, &a);
        assert_eq!(r1, r2);
        // Walking back to the initial partitioning re-costs the changed
        // tables from the memo cache (their s0 costs were cached when the
        // reward scale was derived).
        let p0 = env.initial_partitioning().clone();
        let _ = env.reward_of(&p0, &s.freqs.clone());
        let engine = env.backend().as_cost_model().expect("offline backend");
        assert!(engine.cache_len() > 0);
        assert!(engine.stats.reward_cache_hits > 0, "revisit memoized");
    }

    #[test]
    fn delta_env_matches_full_env_bitwise() {
        let schema = lpa_schema::tpcch::schema(0.001).expect("schema builds");
        let workload = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let mk = |backend| {
            AdvisorEnv::new(
                schema.clone(),
                workload.clone(),
                backend,
                MixSampler::uniform(&workload),
                true,
                7,
            )
        };
        let mut delta = mk(RewardBackend::cost_model(NetworkCostModel::new(
            CostParams::standard(),
        )));
        let mut full = mk(RewardBackend::cost_model_full(NetworkCostModel::new(
            CostParams::standard(),
        )));
        assert_eq!(
            delta.reward_scale().to_bits(),
            full.reward_scale().to_bits(),
            "normalization identical across modes"
        );
        let mut sd = delta.reset();
        let mut sf = full.reset();
        assert_eq!(sd.freqs, sf.freqs, "same seed, same mixes");
        for step in 0..30 {
            let actions = delta.actions(&sd);
            assert_eq!(actions, full.actions(&sf));
            let a = actions[step % actions.len()];
            let (nd, rd) = delta.step(&sd, &a);
            let (nf, rf) = full.step(&sf, &a);
            assert_eq!(rd.to_bits(), rf.to_bits(), "step {step} reward diverged");
            assert_eq!(nd.partitioning, nf.partitioning);
            if step % 11 == 10 {
                sd = delta.reset();
                sf = full.reset();
            } else {
                sd = nd;
                sf = nf;
            }
        }
        let c = delta.counters();
        assert!(c.delta_recosts > 0, "delta path exercised");
        assert!(c.action_cache_hits > 0, "action sets memoized");
    }

    /// The env's incremental encoder must emit exactly the bytes the plain
    /// [`StateEncoder`] would, across a step/reset walk that exercises the
    /// patch path, the first-call rebuild, and the forced-oracle guard.
    #[test]
    fn env_encode_matches_state_encoder_bitwise() {
        let mut env = offline_env(true);
        let dim = env.input_dim();
        let mut fast = vec![0.0f32; dim];
        let mut full = vec![0.0f32; dim];
        let mut s = env.reset();
        for step in 0..12 {
            let actions = env.actions(&s);
            for a in actions.iter().take(4) {
                env.encode(&s, a, &mut fast);
                env.encoder
                    .encode_input(&s.partitioning, &s.freqs, a, &mut full);
                let same = fast
                    .iter()
                    .zip(&full)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "step {step}: delta encode diverged");
            }
            let batch_n = actions.len().min(5);
            let mut fast_b = vec![0.0f32; batch_n * dim];
            let mut full_b = vec![0.0f32; batch_n * dim];
            env.encode_batch(&s, &actions[..batch_n], &mut fast_b);
            env.encoder
                .encode_batch(&s.partitioning, &s.freqs, &actions[..batch_n], &mut full_b);
            let same = fast_b
                .iter()
                .zip(&full_b)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "step {step}: delta encode_batch diverged");
            if step == 7 {
                s = env.reset(); // new mix → full-prefix distance from cache
            } else {
                let a = actions[step % actions.len()];
                s = env.step(&s, &a).0;
            }
        }
        let (patches, rebuilds) = env.encoder_stats();
        assert!(patches > 0, "patch path exercised");
        assert!(rebuilds >= 1, "first call rebuilds");
        // Under the oracle guard the env must still produce the same bytes.
        lpa_partition::with_full_encode(|| {
            let a = env.actions(&s)[0];
            env.encode(&s, &a, &mut fast);
            env.encoder
                .encode_input(&s.partitioning, &s.freqs, &a, &mut full);
            let same = fast
                .iter()
                .zip(&full)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "forced full encode diverged");
        });
    }

    /// `episode_counters()` reports activity since the last `reset()`, not
    /// since construction — the bug fixed here had multi-episode profiling
    /// runs reporting inflated cumulative cache-hit ratios per episode.
    #[test]
    fn episode_counters_reset_per_episode() {
        use lpa_rl::QEnvironment as _;
        let mut env = offline_env(true);
        let s = env.reset();
        let actions = env.actions(&s);
        let a = actions[0];
        let mut st = s.clone();
        for _ in 0..3 {
            let _ = env.actions(&st); // cache hits accumulate
            st = env.step(&st, &a).0;
        }
        let ep1 = env.episode_counters();
        let cum1 = env.counters();
        assert!(ep1.action_cache_hits > 0);
        assert_eq!(ep1.action_cache_hits, cum1.action_cache_hits);
        // Second episode: cumulative counters keep growing, per-episode
        // counters restart from the reset baseline.
        let s2 = env.reset();
        let fresh = env.episode_counters();
        assert_eq!(fresh.action_cache_hits, 0, "baseline taken at reset");
        let _ = env.actions(&s2);
        let ep2 = env.episode_counters();
        let cum2 = env.counters();
        assert!(cum2.action_cache_hits >= cum1.action_cache_hits);
        assert!(
            ep2.action_cache_hits < cum2.action_cache_hits,
            "episode view must not be cumulative"
        );
    }

    #[test]
    fn reset_samples_fresh_mixes() {
        let mut env = offline_env(true);
        let a = env.reset();
        let b = env.reset();
        assert_ne!(a.freqs, b.freqs, "uniform sampler varies per episode");
        assert_eq!(
            a.partitioning.table_states(),
            b.partitioning.table_states(),
            "always resets to s0"
        );
    }
}
