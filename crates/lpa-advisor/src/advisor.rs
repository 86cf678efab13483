//! The advisor: offline training, online refinement, inference.

use crate::env::{AdvisorEnv, RewardBackend};
use crate::online::OnlineBackend;
use lpa_costmodel::NetworkCostModel;
use lpa_partition::Partitioning;
use lpa_rl::{rollout, train, DqnAgent, DqnConfig, EpisodeStats, QEnvironment};
use lpa_schema::Schema;
use lpa_workload::{FrequencyVector, MixSampler, Workload};

/// A partitioning suggestion: the best state of a greedy rollout.
#[derive(Clone, Debug)]
pub struct Suggestion {
    pub partitioning: Partitioning,
    /// Reward of that state under the requested mix.
    pub reward: f64,
    /// Rollout step at which the state was reached (0 = initial state).
    pub step: usize,
}

/// The learned partitioning advisor: one DQN agent over an
/// [`AdvisorEnv`].
#[derive(Debug)]
pub struct Advisor {
    pub env: AdvisorEnv,
    agent: DqnAgent<AdvisorEnv>,
    cfg: DqnConfig,
}

impl Advisor {
    /// Phase 1 (Section 4.1): bootstrap the agent offline against the
    /// network-centric cost model.
    pub fn train_offline(
        schema: Schema,
        workload: Workload,
        model: NetworkCostModel,
        sampler: MixSampler,
        cfg: DqnConfig,
        allow_compound: bool,
    ) -> Self {
        let mut env = AdvisorEnv::new(
            schema,
            workload,
            RewardBackend::cost_model(model),
            sampler,
            allow_compound,
            cfg.seed,
        );
        let mut agent = DqnAgent::new(env.input_dim(), cfg.clone());
        train(&mut agent, &mut env, cfg.episodes, |_| {});
        Self { env, agent, cfg }
    }

    /// Construct from a pre-built environment without training (used by the
    /// committee, which trains with custom episode scheduling).
    pub fn untrained(env: AdvisorEnv, cfg: DqnConfig) -> Self {
        let agent = DqnAgent::new(env.input_dim(), cfg.clone());
        Self { env, agent, cfg }
    }

    /// Run additional training episodes against the current backend,
    /// reporting per-episode stats.
    pub fn train_episodes(&mut self, episodes: usize, on_episode: impl FnMut(&EpisodeStats)) {
        train(&mut self.agent, &mut self.env, episodes, on_episode);
    }

    /// Train episodes `start..episodes` with a post-episode observer — the
    /// checkpoint hook. The observer fires at the episode boundary (after
    /// the ε decay), where agent + environment are a complete resumable
    /// state; resuming a run killed after episode `k` means calling this
    /// with `start = k + 1` on the restored state.
    pub fn train_episodes_from(
        &mut self,
        start: usize,
        episodes: usize,
        on_episode: impl FnMut(&EpisodeStats),
        mut after_episode: impl FnMut(usize, &DqnAgent<AdvisorEnv>, &AdvisorEnv),
    ) {
        lpa_rl::train_from(
            &mut self.agent,
            &mut self.env,
            start,
            episodes,
            on_episode,
            |ep, agent, env| after_episode(ep, agent, env),
        );
    }

    /// Phase 2 (Section 4.2): refine online against measured runtimes on
    /// the sampled cluster. Exploration restarts at the ε the offline phase
    /// would have reached after half its episodes.
    pub fn refine_online(&mut self, backend: OnlineBackend, episodes: usize) {
        self.begin_online_refinement(backend);
        train(&mut self.agent, &mut self.env, episodes, |_| {});
    }

    /// The prologue of [`Self::refine_online`] without the training loop —
    /// lets checkpointing hosts drive the episodes themselves through
    /// [`Self::train_episodes_from`].
    pub fn begin_online_refinement(&mut self, backend: OnlineBackend) {
        let warm = self.cfg.epsilon_after(self.cfg.episodes / 2);
        self.agent.set_epsilon(warm);
        // Measured rewards live on a different scale than the cost model's
        // estimates; don't replay stale offline transitions against them.
        self.agent.clear_buffer();
        self.env
            .set_backend(RewardBackend::Cluster(Box::new(backend)));
    }

    /// Inference (Section 6): greedy rollout from `s_0`, return the state
    /// with the maximum reward (the agent oscillates around the optimum,
    /// so the last state is not necessarily the best).
    #[expect(
        clippy::indexing_slicing,
        reason = "a rollout records the initial state's reward slot before any step"
    )]
    pub fn suggest(&mut self, freqs: &FrequencyVector) -> Suggestion {
        let prev = self.env.set_sampler(MixSampler::Fixed(freqs.clone()));
        let mut traj = rollout(&mut self.agent, &mut self.env, self.cfg.tmax);
        // The rollout leaves the initial state's reward unknown; fill it in
        // so "change nothing" can win.
        let p0 = self.env.initial_partitioning().clone();
        let r0 = self.env.reward_of(&p0, freqs);
        traj.rewards[0] = r0;
        let i = traj.best_index();
        let suggestion = match (traj.states.get(i), traj.rewards.get(i)) {
            (Some(s), Some(&r)) => Suggestion {
                partitioning: s.partitioning.clone(),
                reward: r,
                step: i,
            },
            // A rollout always holds at least the initial state; if it ever
            // did not, suggest "change nothing" rather than panic
            // mid-inference.
            _ => Suggestion {
                partitioning: p0,
                reward: r0,
                step: 0,
            },
        };
        self.env.set_sampler(prev);
        suggestion
    }

    /// Reward of an arbitrary partitioning (backend-dependent: cost model
    /// offline, scaled measured runtimes online), in the agent's
    /// normalized units.
    pub fn reward_of(&mut self, p: &Partitioning, freqs: &FrequencyVector) -> f64 {
        self.env.reward_of(p, freqs)
    }

    /// Cost of a partitioning in raw backend units (seconds) — for
    /// comparisons against real quantities such as repartitioning time.
    pub fn cost_of(&mut self, p: &Partitioning, freqs: &FrequencyVector) -> f64 {
        self.env.cost_of(p, freqs)
    }

    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    pub fn epsilon(&self) -> f64 {
        self.agent.epsilon()
    }

    pub fn set_epsilon(&mut self, eps: f64) {
        self.agent.set_epsilon(eps);
    }

    pub fn agent(&self) -> &DqnAgent<AdvisorEnv> {
        &self.agent
    }

    /// Split borrows for callers driving custom rollouts (ablations).
    pub fn agent_env_mut(&mut self) -> (&mut DqnAgent<AdvisorEnv>, &mut AdvisorEnv) {
        (&mut self.agent, &mut self.env)
    }

    /// The online-training ledger, when the advisor runs against a cluster
    /// backend (used by the Table 2 experiment).
    pub fn online_accounting(&self) -> Option<crate::CostAccounting> {
        match self.env.backend() {
            RewardBackend::Cluster(b) => Some(b.accounting),
            RewardBackend::CostModel { .. } => None,
        }
    }

    /// Fault-layer counters of the online backend (its own retries,
    /// fallbacks and invalidations merged with the cluster's execution-side
    /// view); `None` for offline advisors.
    pub fn online_fault_accounting(&self) -> Option<lpa_cluster::FaultAccounting> {
        match self.env.backend() {
            RewardBackend::Cluster(b) => Some(b.fault_accounting()),
            RewardBackend::CostModel { .. } => None,
        }
    }

    /// Snapshot the trained policy for persistence (the environment —
    /// schema, workload, reward backend — is reconstructed by the caller
    /// at load time; only the learned part is stored).
    pub fn snapshot(&self) -> lpa_rl::AgentSnapshot {
        self.agent.snapshot()
    }

    /// A stable 64-bit fingerprint of the learned weights (Q and target
    /// networks, FNV-1a over raw `f32` bits). Equal fingerprints mean the
    /// advisor is bitwise the same trained artifact — the fleet's
    /// isolation tests compare these to prove chaos in one tenant never
    /// perturbs another tenant's training.
    pub fn weight_fingerprint(&self) -> u64 {
        let q = lpa_nn::reference::mlp_fingerprint(self.agent.q_network());
        let t = lpa_nn::reference::mlp_fingerprint(self.agent.target_network());
        q ^ t.rotate_left(32)
    }

    /// Rebuild an advisor from a persisted policy plus a freshly
    /// constructed environment. Panics if the environment's input
    /// dimension does not match the snapshot's network.
    pub fn from_snapshot(env: AdvisorEnv, snapshot: lpa_rl::AgentSnapshot) -> Self {
        assert_eq!(
            env.input_dim(),
            snapshot.q.input_dim(),
            "environment/network dimension mismatch"
        );
        let cfg = snapshot.cfg.clone();
        let agent = DqnAgent::restore(snapshot);
        Self { env, agent, cfg }
    }

    /// Rebuild an advisor from a fully reconstructed environment and agent —
    /// the checkpoint restore path, where (unlike [`Self::from_snapshot`])
    /// the agent carries its optimizer moments, replay buffer and RNG
    /// stream, so training can continue bit-identically.
    pub fn from_parts(env: AdvisorEnv, agent: DqnAgent<AdvisorEnv>) -> Self {
        let cfg = agent.config().clone();
        Self { env, agent, cfg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_costmodel::CostParams;
    use lpa_partition::TableState;

    /// End-to-end offline training on the microbenchmark: the agent must
    /// discover that `a` and `c` have to be co-partitioned.
    #[test]
    fn offline_agent_learns_microbench_copartitioning() {
        let schema = lpa_schema::microbench::schema(1.0).expect("schema builds");
        let workload = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let sampler = MixSampler::uniform(&workload);
        let cfg = DqnConfig {
            episodes: 80,
            tmax: 8,
            batch_size: 16,
            hidden: vec![48, 24],
            epsilon_decay: 0.95,
            learning_rate: 2e-3,
            tau: 0.02,
            ..DqnConfig::paper()
        }
        .with_seed(3);
        let mut advisor = Advisor::train_offline(
            schema.clone(),
            workload.clone(),
            NetworkCostModel::new(CostParams::standard()),
            sampler,
            cfg,
            true,
        );
        let freqs = FrequencyVector::uniform(workload.slots());
        let suggestion = advisor.suggest(&freqs);
        let a = schema.table_by_name("a").unwrap();
        let a_c = schema.attr_ref("a", "a_c_key").unwrap();
        let c = schema.table_by_name("c").unwrap();
        let c_pk = schema.attr_ref("c", "c_key").unwrap();
        let p = &suggestion.partitioning;
        let a_on_c = p.table_state(a) == TableState::PartitionedBy(a_c.attr)
            && p.table_state(c) == TableState::PartitionedBy(c_pk.attr);
        // The suggested partitioning must at least beat the initial one.
        let r0 = advisor.reward_of(&Partitioning::initial(&schema), &freqs);
        assert!(
            suggestion.reward >= r0,
            "suggestion {} must beat s0 {}",
            suggestion.reward,
            r0
        );
        // And in the common case it finds the co-partitioning exactly.
        assert!(
            a_on_c || suggestion.reward > r0 * 0.7,
            "expected a/c co-partitioning or a clear improvement; got {}",
            p.describe(&schema)
        );
    }

    #[test]
    fn suggestion_step_zero_when_s0_is_best() {
        // With an untrained agent the rollout may wander, but if we ask for
        // the reward of s0 it must be included in the comparison.
        let schema = lpa_schema::microbench::schema(0.01).expect("schema builds");
        let workload = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let sampler = MixSampler::uniform(&workload);
        let env = AdvisorEnv::new(
            schema,
            workload.clone(),
            RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
            sampler,
            true,
            7,
        );
        let mut advisor = Advisor::untrained(env, DqnConfig::quick_test());
        let s = advisor.suggest(&FrequencyVector::uniform(workload.slots()));
        assert!(s.reward.is_finite());
        assert!(s.step <= DqnConfig::quick_test().tmax);
    }
}
