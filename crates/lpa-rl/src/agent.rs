//! The DQN agent: Q-network, target network, replay, ε-greedy policy.

use crate::buffer::{ReplayBuffer, Transition};
use crate::config::{DqnConfig, QLoss};
use crate::env::QEnvironment;
use crate::profile::{self, Phase};
use lpa_nn::{Adam, Matrix, Mlp, MlpScratch, Pool, RowGroups};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Greedy argmax over parallel Q-value / action slices, replicating the
/// agent's tie-breaking exactly: under `total_cmp`, the *last* maximum
/// wins. Every path that picks an action from a vector of Q-values routes
/// through this helper, so a tie cannot resolve differently between them.
pub fn greedy_argmax<A: Clone>(qs: &[f32], actions: &[A]) -> Option<A> {
    qs.iter()
        .zip(actions.iter())
        .max_by(|a, b| a.0.total_cmp(b.0))
        .map(|(_, a)| a.clone())
}

/// Borrowed pieces of one staged backward pass: network, encoded training
/// rows, targets, optimizer, Huber delta (`None` = MSE), network scratch.
pub(crate) type BackwardParts<'a> = (
    &'a mut Mlp,
    &'a Matrix,
    &'a [f32],
    &'a mut Adam,
    Option<f32>,
    &'a mut MlpScratch,
);

/// Reusable buffers for the agent's hot paths (action selection and the
/// replay-minibatch train step): network scratch plus the encoded input
/// matrices, Q-value vectors and flattened action arenas. Purely
/// transient — never checkpointed, never affects results. Generic over
/// the environment's action type so candidate actions land in reused
/// arenas instead of fresh vectors each step.
#[derive(Debug)]
struct AgentScratch<A> {
    mlp: MlpScratch,
    /// Encoded candidate actions for one state (action selection).
    input: Matrix,
    q_out: Vec<f32>,
    /// Candidate actions of the state being selected on.
    sel_actions: Vec<A>,
    /// Encoded next-state candidate actions for a whole minibatch.
    next_inputs: Matrix,
    next_q: Vec<f32>,
    next_q_online: Vec<f32>,
    /// Flattened next-state candidate actions, indexed by `ranges`.
    next_actions: Vec<A>,
    /// Replay-buffer slot indices of the current minibatch.
    sample_idx: Vec<usize>,
    /// Total candidate rows staged in `next_inputs` (see `ranges`).
    total: usize,
    /// Whether the staged step evaluates the online net (double DQN).
    use_online: bool,
    /// Encoded (state, action) training rows.
    inputs: Matrix,
    targets: Vec<f32>,
    ranges: Vec<(usize, usize)>,
}

// Manual impl: a derive would demand `A: Default` for no reason.
impl<A> Default for AgentScratch<A> {
    fn default() -> Self {
        Self {
            mlp: MlpScratch::default(),
            input: Matrix::default(),
            q_out: Vec::new(),
            sel_actions: Vec::new(),
            next_inputs: Matrix::default(),
            next_q: Vec::new(),
            next_q_online: Vec::new(),
            next_actions: Vec::new(),
            sample_idx: Vec::new(),
            total: 0,
            use_online: false,
            inputs: Matrix::default(),
            targets: Vec::new(),
            ranges: Vec::new(),
        }
    }
}

/// A Deep-Q agent over some environment type.
#[derive(Debug)]
pub struct DqnAgent<E: QEnvironment> {
    q: Mlp,
    target: Mlp,
    opt: Adam,
    cfg: DqnConfig,
    epsilon: f64,
    buffer: ReplayBuffer<E::State, E::Action>,
    rng: StdRng,
    scratch: AgentScratch<E::Action>,
}

impl<E: QEnvironment> DqnAgent<E> {
    pub fn new(input_dim: usize, cfg: DqnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dims = vec![input_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let q = Mlp::new(&dims, &mut rng);
        // Independent random target initialization (Algorithm 1, line 2).
        let target = Mlp::new(&dims, &mut rng);
        let opt = Adam::new(cfg.learning_rate, q.layers());
        Self {
            target,
            epsilon: cfg.epsilon_start,
            buffer: ReplayBuffer::new(cfg.buffer_size),
            rng,
            q,
            opt,
            cfg,
            scratch: AgentScratch::default(),
        }
    }

    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Warm-start exploration (online phase starts at the ε reached after
    /// half the offline episodes, Section 4.2).
    pub fn set_epsilon(&mut self, eps: f64) {
        self.epsilon = eps.clamp(0.0, 1.0);
    }

    pub fn q_network(&self) -> &Mlp {
        &self.q
    }

    /// Batch Q-values for every action in `actions` at `state`. The whole
    /// batch shares one state, so the rows are filled by
    /// [`QEnvironment::encode_batch`] and scored as one group (state prefix
    /// encoded and evaluated once). Allocating — [`Self::select_action`]
    /// and [`Self::train_step`] do the same through the agent's scratch.
    pub fn q_values(&self, env: &E, state: &E::State, actions: &[E::Action]) -> Vec<f32> {
        assert!(!actions.is_empty());
        let dim = env.input_dim();
        let mut batch = Matrix::zeros(actions.len(), dim);
        env.encode_batch(state, actions, batch.data_mut());
        let groups = RowGroups {
            prefix: env.state_prefix_len(),
            ranges: &[(0, actions.len())],
        };
        let mut out = Vec::new();
        self.q.predict_grouped_into(
            Pool::current(),
            &batch,
            groups,
            &mut MlpScratch::new(),
            &mut out,
        );
        out
    }

    /// ε-greedy action selection (greedy when `explore` is false):
    /// enumerate candidates into the scratch arena, take the ε draw, and —
    /// on the greedy path — encode the candidate rows, run one Q forward
    /// over them and take the [`greedy_argmax`].
    pub fn select_action(&mut self, env: &E, state: &E::State, explore: bool) -> E::Action {
        let s = &mut self.scratch;
        s.sel_actions.clear();
        let t0 = profile::start();
        env.actions_into(state, &mut s.sel_actions);
        profile::stop(t0, Phase::Env);
        assert!(
            !s.sel_actions.is_empty(),
            "environment has no valid actions"
        );
        if explore && self.rng.gen::<f64>() < self.epsilon {
            let i = self.rng.gen_range(0..s.sel_actions.len());
            if let Some(a) = s.sel_actions.get(i) {
                return a.clone();
            }
        }
        let dim = env.input_dim();
        let t1 = profile::start();
        // Zeroed unless the encoder promises full-row writes: sparse
        // encoders fill rows over the zero background the old
        // `Matrix::zeros` provided.
        if env.encode_overwrites_fully() {
            s.input.resize_for_overwrite(s.sel_actions.len(), dim);
        } else {
            s.input.resize_zeroed(s.sel_actions.len(), dim);
        }
        env.encode_batch(state, &s.sel_actions, s.input.data_mut());
        profile::stop(t1, Phase::Encode);
        let pool = Pool::current();
        let groups = RowGroups {
            prefix: env.state_prefix_len(),
            ranges: &[(0, s.sel_actions.len())],
        };
        let t2 = profile::start();
        self.q
            .predict_grouped_into(pool, &s.input, groups, &mut s.mlp, &mut s.q_out);
        profile::stop(t2, Phase::Nn);
        greedy_argmax(&s.q_out, &s.sel_actions).unwrap_or_else(|| s.sel_actions[0].clone())
    }

    /// Store a transition in the replay buffer.
    pub fn remember(&mut self, t: Transition<E::State, E::Action>) {
        self.buffer.push(t);
    }

    /// Drop all stored transitions. Called when the reward source changes
    /// (offline → online): cost-model rewards and measured runtimes live on
    /// different scales, and replaying stale transitions would poison the
    /// Q-targets.
    pub fn clear_buffer(&mut self) {
        self.buffer = ReplayBuffer::new(self.cfg.buffer_size);
    }

    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// One minibatch update (Algorithm 1, lines 10–11) plus a target-network
    /// soft update (line 13). Returns the batch loss, or `None` if the
    /// buffer is still smaller than the batch size.
    ///
    /// The `max_a' Q_target(s', a')` terms for the whole minibatch are
    /// evaluated in a single batched forward pass — the dominant cost of a
    /// training step.
    pub fn train_step(&mut self, env: &E) -> Option<f32> {
        if !self.train_begin(env) {
            return None;
        }
        // The ambient pool is resolved once per train step and passed
        // through every kernel below — no per-matmul environment lookups.
        let pool = Pool::current();
        let t0 = profile::start();
        // The dominant cost of a training step: one batched target-net
        // forward over every candidate row, one group per next state.
        let Self {
            q,
            target,
            scratch: s,
            ..
        } = self;
        let groups = RowGroups {
            prefix: env.state_prefix_len(),
            ranges: &s.ranges,
        };
        if s.total > 0 {
            target.predict_grouped_into(pool, &s.next_inputs, groups, &mut s.mlp, &mut s.next_q);
        } else {
            s.next_q.clear();
        }
        // Double DQN: the online network selects the next action, the
        // target network evaluates it.
        if s.use_online {
            q.predict_grouped_into(
                pool,
                &s.next_inputs,
                groups,
                &mut s.mlp,
                &mut s.next_q_online,
            );
        }
        profile::stop(t0, Phase::Nn);
        self.train_targets();
        let t1 = profile::start();
        let loss = {
            let (q, x, targets, opt, huber, mlp) = self.train_backward_parts();
            match huber {
                None => q.train_mse_with(pool, x, targets, opt, mlp),
                Some(d) => q.train_huber_with(pool, x, targets, opt, d, mlp),
            }
        };
        self.train_finish();
        profile::stop(t1, Phase::Nn);
        Some(loss)
    }

    /// Stage 1 of a train step: sample the
    /// minibatch, enumerate and encode every next-state candidate row and
    /// every `(state, action)` training row into the scratch arenas.
    /// Returns `false` (staging nothing) while the buffer is smaller than
    /// the batch size. RNG consumption and the encoder call sequence are
    /// exactly those of the former monolithic step — the current-state
    /// rows were always encoded with the same arguments in the same
    /// relative order, and the forwards in between touch no env state.
    pub(crate) fn train_begin(&mut self, env: &E) -> bool {
        if self.buffer.len() < self.cfg.batch_size {
            return false;
        }
        let dim = env.input_dim();
        let overwrites = env.encode_overwrites_fully();
        let Self {
            buffer,
            rng,
            cfg,
            scratch: s,
            ..
        } = self;
        let t0 = profile::start();
        buffer.sample_indices(rng, cfg.batch_size, &mut s.sample_idx);
        profile::stop(t0, Phase::Replay);
        // Enumerate next-state candidates into the flat arena, one
        // `(lo, hi)` range per transition.
        let t1 = profile::start();
        s.ranges.clear();
        s.next_actions.clear();
        let mut total = 0usize;
        for &bi in &s.sample_idx {
            let before = s.next_actions.len();
            env.actions_into(&buffer.items()[bi].next_state, &mut s.next_actions);
            let n = s.next_actions.len() - before;
            s.ranges.push((total, total + n));
            total += n;
        }
        s.total = total;
        s.use_online = cfg.double_dqn && total > 0;
        profile::stop(t1, Phase::Env);
        // Encode every candidate row (batched, prefix-reused) and every
        // training row, reusing the scratch matrices across steps.
        let t2 = profile::start();
        if overwrites {
            s.next_inputs.resize_for_overwrite(total.max(1), dim);
        } else {
            s.next_inputs.resize_zeroed(total.max(1), dim);
        }
        let mut row = 0usize;
        for (i, &bi) in s.sample_idx.iter().enumerate() {
            let (lo, hi) = s.ranges.get(i).copied().unwrap_or((0, 0));
            let actions = &s.next_actions[lo..hi];
            let span = &mut s.next_inputs.data_mut()[row * dim..(row + actions.len()) * dim];
            env.encode_batch(&buffer.items()[bi].next_state, actions, span);
            row += actions.len();
        }
        if overwrites {
            s.inputs.resize_for_overwrite(s.sample_idx.len(), dim);
        } else {
            s.inputs.resize_zeroed(s.sample_idx.len(), dim);
        }
        for (i, &bi) in s.sample_idx.iter().enumerate() {
            let t = &buffer.items()[bi];
            env.encode(&t.state, &t.action, s.inputs.row_mut(i));
        }
        profile::stop(t2, Phase::Encode);
        true
    }

    /// Stage 3: fold the staged forwards into Bellman targets — the exact
    /// per-transition loop of the monolithic step (including the
    /// last-max-wins `total_cmp` tie-breaking of double DQN).
    pub(crate) fn train_targets(&mut self) {
        let Self {
            buffer,
            cfg,
            scratch: s,
            ..
        } = self;
        s.targets.clear();
        for (i, &bi) in s.sample_idx.iter().enumerate() {
            let t = &buffer.items()[bi];
            let (lo, hi) = s.ranges.get(i).copied().unwrap_or((0, 0));
            let max_next = if lo == hi {
                0.0
            } else if s.use_online {
                let online = &s.next_q_online;
                let best = (lo..hi)
                    .max_by(|a, b| online[*a].total_cmp(&online[*b]))
                    .unwrap_or(lo);
                s.next_q.get(best).copied().unwrap_or(0.0) as f64
            } else {
                s.next_q[lo..hi]
                    .iter()
                    .cloned()
                    .fold(f32::NEG_INFINITY, f32::max) as f64
            };
            s.targets.push((t.reward + cfg.gamma * max_next) as f32);
        }
    }

    /// Borrow everything the backward pass needs for this agent's staged
    /// minibatch: online net, encoded rows, targets, optimizer,
    /// Huber delta (`None` = MSE) and network scratch.
    pub(crate) fn train_backward_parts(&mut self) -> BackwardParts<'_> {
        let Self {
            q,
            opt,
            cfg,
            scratch: s,
            ..
        } = self;
        let huber = match cfg.loss {
            QLoss::Mse => None,
            QLoss::Huber(d) => Some(d),
        };
        (q, &s.inputs, &s.targets, opt, huber, &mut s.mlp)
    }

    /// Final stage: the target-network soft update (Algorithm 1, l. 13).
    pub(crate) fn train_finish(&mut self) {
        self.target.soft_update_from(&self.q, self.cfg.tau);
    }

    /// Per-episode ε decay (Algorithm 1, line 12).
    pub fn decay_epsilon(&mut self) {
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_min);
    }

    /// RNG access for callers that need correlated randomness (tests).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Target network (read access for checkpointing).
    pub fn target_network(&self) -> &Mlp {
        &self.target
    }

    /// Optimizer (read access for checkpointing: Adam moments are part of
    /// the bit-identical resume contract).
    pub fn optimizer(&self) -> &Adam {
        &self.opt
    }

    /// Replay buffer (read access for checkpointing).
    pub fn buffer(&self) -> &ReplayBuffer<E::State, E::Action> {
        &self.buffer
    }

    /// Raw policy-RNG state words, for checkpointing.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuild an agent from fully checkpointed parts — unlike
    /// [`DqnAgent::restore`], this resumes training bit-identically:
    /// optimizer moments, replay contents and the RNG stream all continue
    /// exactly where they left off.
    pub fn from_raw_parts(
        cfg: DqnConfig,
        q: Mlp,
        target: Mlp,
        opt: Adam,
        epsilon: f64,
        buffer: ReplayBuffer<E::State, E::Action>,
        rng_state: [u64; 4],
    ) -> Self {
        Self {
            q,
            target,
            opt,
            cfg,
            epsilon,
            buffer,
            rng: StdRng::from_state(rng_state),
            scratch: AgentScratch::default(),
        }
    }

    /// Serializable snapshot of the trained policy (networks + ε + config).
    /// The replay buffer is transient and not included.
    pub fn snapshot(&self) -> AgentSnapshot {
        AgentSnapshot {
            q: self.q.clone(),
            target: self.target.clone(),
            epsilon: self.epsilon,
            cfg: self.cfg.clone(),
        }
    }

    /// Rebuild an agent from a snapshot (fresh optimizer state and replay
    /// buffer; further training continues from the restored weights).
    pub fn restore(snapshot: AgentSnapshot) -> Self {
        let opt = Adam::new(snapshot.cfg.learning_rate, snapshot.q.layers());
        let rng = StdRng::seed_from_u64(snapshot.cfg.seed ^ 0x5E57_0123);
        Self {
            opt,
            buffer: ReplayBuffer::new(snapshot.cfg.buffer_size),
            rng,
            epsilon: snapshot.epsilon,
            q: snapshot.q,
            target: snapshot.target,
            cfg: snapshot.cfg,
            scratch: AgentScratch::default(),
        }
    }
}

/// In-memory clone of a trained policy (networks, ε, config) — what the
/// committee and the weight tests copy an agent through. Durable state goes
/// through `lpa-store`, which captures the full session instead.
#[derive(Clone, Debug)]
pub struct AgentSnapshot {
    pub q: Mlp,
    pub target: Mlp,
    pub epsilon: f64,
    pub cfg: DqnConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DqnConfig;
    use crate::env::QEnvironment;

    struct TwoArm;
    impl QEnvironment for TwoArm {
        type State = u8;
        type Action = u8;
        fn input_dim(&self) -> usize {
            3
        }
        fn reset(&mut self) -> u8 {
            0
        }
        fn actions(&self, _s: &u8) -> Vec<u8> {
            vec![0, 1]
        }
        fn encode(&self, s: &u8, a: &u8, out: &mut [f32]) {
            out.fill(0.0);
            out[0] = *s as f32;
            out[1 + *a as usize] = 1.0;
        }
        fn step(&mut self, _s: &u8, a: &u8) -> (u8, f64) {
            (0, if *a == 1 { 1.0 } else { 0.0 })
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_policy() {
        let env = TwoArm;
        let cfg = DqnConfig::quick_test().with_seed(8);
        let mut agent: DqnAgent<TwoArm> = DqnAgent::new(env.input_dim(), cfg);
        agent.set_epsilon(0.25);
        let mut back: DqnAgent<TwoArm> = DqnAgent::restore(agent.snapshot());
        assert_eq!(back.epsilon(), 0.25);
        // Greedy decisions identical before/after.
        back.set_epsilon(0.0);
        agent.set_epsilon(0.0);
        for s in [0u8, 1] {
            assert_eq!(
                agent.select_action(&env, &s, true),
                back.select_action(&env, &s, true)
            );
        }
    }

    /// `TwoArm` keeps the default `state_prefix_len` of 0: its action sets
    /// go through the grouped kernel with nothing shared, and must score
    /// and train exactly like the dense kernels — plain and double DQN.
    #[test]
    fn env_without_a_state_prefix_matches_the_dense_kernels() {
        use lpa_nn::reference::mlp_bits;
        let mut env = TwoArm;
        assert_eq!(env.state_prefix_len(), 0);
        let base = DqnConfig::quick_test().with_seed(19);
        for cfg in [base.clone(), base.with_double_dqn()] {
            let mut run = || {
                let mut agent: DqnAgent<TwoArm> = DqnAgent::new(env.input_dim(), cfg.clone());
                crate::train::train(&mut agent, &mut env, cfg.episodes, |_| {});
                let q: Vec<u32> = [0u8, 1]
                    .iter()
                    .flat_map(|s| agent.q_values(&env, s, &[0, 1]))
                    .map(f32::to_bits)
                    .collect();
                (mlp_bits(&agent.q), mlp_bits(&agent.target), q, agent)
            };
            let (q_net, target_net, q_values, agent) = run();
            let naive = lpa_nn::with_naive_kernels(&mut run);
            assert_eq!(
                (&q_net, &target_net, &q_values),
                (&naive.0, &naive.1, &naive.2)
            );
            // And against rows encoded one at a time, scored densely.
            let mut rows = Matrix::zeros(4, env.input_dim());
            for (i, (s, a)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
                env.encode(s, a, rows.row_mut(i));
            }
            let dense: Vec<u32> = agent
                .q_network()
                .predict_batch(&rows)
                .into_iter()
                .map(f32::to_bits)
                .collect();
            assert_eq!(q_values, dense);
        }
    }
}
