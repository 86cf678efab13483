//! The environment abstraction Q-learning runs against.

/// Observability counters an environment may expose (all wall-less — lint
/// L003 forbids clocks in simulator code, so progress is counted, never
/// timed).
///
/// The offline advisor environment fills these from its delta-reward
/// engine and action-set cache; environments without caches return the
/// default (all zeros).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EnvCounters {
    /// Reward-cache lookups that found a memoized per-query cost.
    pub reward_cache_hits: u64,
    /// Reward-cache lookups that had to invoke the cost model.
    pub reward_cache_misses: u64,
    /// Rewards derived by re-costing only the affected queries.
    pub delta_recosts: u64,
    /// Rewards derived by re-costing the whole workload.
    pub full_recosts: u64,
    /// Individual query re-costs performed by the delta path.
    pub queries_recosted: u64,
    /// Total reward evaluations.
    pub rewards_evaluated: u64,
    /// Action-set cache hits.
    pub action_cache_hits: u64,
    /// Action-set cache misses (distinct partitionings enumerated).
    pub action_cache_misses: u64,
    /// Query executions aborted by the fault layer (online backends).
    pub queries_failed: u64,
    /// Measurement retries after failed executions.
    pub fault_retries: u64,
    /// Completions that survived node loss by reading replicas.
    pub fault_failovers: u64,
    /// Measurements that fell back to the cost-model estimate.
    pub fault_fallbacks: u64,
    /// Checkpoints durably written by the training loop.
    pub checkpoints_written: u64,
    /// Checkpoint files rejected as corrupt (CRC, length or framing).
    pub checkpoint_corruptions_detected: u64,
    /// Successful checkpoint restores.
    pub checkpoint_restores: u64,
    /// Restores that had to fall back to the last-good checkpoint.
    pub checkpoint_fallbacks: u64,
}

impl EnvCounters {
    /// Field-wise difference against an earlier snapshot (for per-episode
    /// deltas of monotonically increasing totals).
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            reward_cache_hits: self
                .reward_cache_hits
                .saturating_sub(earlier.reward_cache_hits),
            reward_cache_misses: self
                .reward_cache_misses
                .saturating_sub(earlier.reward_cache_misses),
            delta_recosts: self.delta_recosts.saturating_sub(earlier.delta_recosts),
            full_recosts: self.full_recosts.saturating_sub(earlier.full_recosts),
            queries_recosted: self
                .queries_recosted
                .saturating_sub(earlier.queries_recosted),
            rewards_evaluated: self
                .rewards_evaluated
                .saturating_sub(earlier.rewards_evaluated),
            action_cache_hits: self
                .action_cache_hits
                .saturating_sub(earlier.action_cache_hits),
            action_cache_misses: self
                .action_cache_misses
                .saturating_sub(earlier.action_cache_misses),
            queries_failed: self.queries_failed.saturating_sub(earlier.queries_failed),
            fault_retries: self.fault_retries.saturating_sub(earlier.fault_retries),
            fault_failovers: self.fault_failovers.saturating_sub(earlier.fault_failovers),
            fault_fallbacks: self.fault_fallbacks.saturating_sub(earlier.fault_fallbacks),
            checkpoints_written: self
                .checkpoints_written
                .saturating_sub(earlier.checkpoints_written),
            checkpoint_corruptions_detected: self
                .checkpoint_corruptions_detected
                .saturating_sub(earlier.checkpoint_corruptions_detected),
            checkpoint_restores: self
                .checkpoint_restores
                .saturating_sub(earlier.checkpoint_restores),
            checkpoint_fallbacks: self
                .checkpoint_fallbacks
                .saturating_sub(earlier.checkpoint_fallbacks),
        }
    }

    /// Fraction of reward-cache lookups served from the cache.
    pub fn reward_cache_hit_rate(&self) -> f64 {
        let total = self.reward_cache_hits + self.reward_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.reward_cache_hits as f64 / total as f64
    }
}

/// A Markov decision process with an enumerable per-state action set and a
/// fixed-length featurization of `(state, action)` pairs.
///
/// The partitioning advisor implements this twice: offline (rewards from
/// the network-centric cost model) and online (rewards from measured
/// runtimes on the sampled cluster).
pub trait QEnvironment {
    type State: Clone;
    type Action: Clone;

    /// Length of the encoded `(state, action)` vector (the Q-network input).
    fn input_dim(&self) -> usize;

    /// How many leading slots of an encoded row depend on the state alone:
    /// [`Self::encode`] must write the same bits there for every action of
    /// one state. The agent scores an action set by evaluating that prefix
    /// once. 0 (the default) promises nothing.
    fn state_prefix_len(&self) -> usize {
        0
    }

    /// Start a new episode (the paper resets to `s_0` and may sample a new
    /// workload mix).
    fn reset(&mut self) -> Self::State;

    /// Valid actions in a state. Must be non-empty for reachable states.
    fn actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// Append the valid actions for `state` to `out` — the arena form of
    /// [`Self::actions`], letting hot paths reuse one buffer instead of
    /// allocating a vector per step. Must push exactly the actions
    /// [`Self::actions`] would return, in the same order. The default
    /// delegates; environments with cached action sets override this to
    /// copy straight out of the cache.
    fn actions_into(&self, state: &Self::State, out: &mut Vec<Self::Action>) {
        out.extend(self.actions(state));
    }

    /// True when [`Self::encode`] / [`Self::encode_batch`] write *every*
    /// slot of their output rows. Callers may then skip re-zeroing reused
    /// row buffers before encoding into them. Defaults to `false` —
    /// encoders that fill rows sparsely over an assumed-zero background
    /// must keep the default.
    fn encode_overwrites_fully(&self) -> bool {
        false
    }

    /// Featurize `(state, action)` into `out` (length `input_dim`).
    fn encode(&self, state: &Self::State, action: &Self::Action, out: &mut [f32]);

    /// Featurize `(state, action_i)` for every action into `out`, a
    /// row-major `actions.len() × input_dim` buffer. Must be bit-identical
    /// to [`Self::encode`] row by row; implementors that share a state
    /// prefix across rows (the advisor's encoder) override this to encode
    /// the prefix once.
    fn encode_batch(&self, state: &Self::State, actions: &[Self::Action], out: &mut [f32]) {
        let dim = self.input_dim();
        assert_eq!(out.len(), actions.len() * dim, "output buffer size");
        for (row, a) in out.chunks_exact_mut(dim).zip(actions) {
            self.encode(state, a, row);
        }
    }

    /// Apply the action, returning the successor state and the reward
    /// observed in the successor.
    fn step(&mut self, state: &Self::State, action: &Self::Action) -> (Self::State, f64);

    /// Cumulative observability counters (see [`EnvCounters`]). Defaults
    /// to all zeros for environments without caches.
    fn counters(&self) -> EnvCounters {
        EnvCounters::default()
    }

    /// Counters accumulated since the start of the current episode (i.e.
    /// since the last [`Self::reset`]). Environments that snapshot a
    /// baseline at reset override this; the default returns the lifetime
    /// totals, which is only correct for single-episode probes.
    fn episode_counters(&self) -> EnvCounters {
        self.counters()
    }
}
