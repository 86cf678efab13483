//! The committee of DRL subspace experts (Section 5).
//!
//! 1. Ask the naive (single-agent) advisor for a partitioning per
//!    "extreme" frequency vector (one query over-represented); the
//!    distinct results are the *reference partitionings*.
//! 2. A frequency vector belongs to the subspace of the reference
//!    partitioning with the highest reward for it.
//! 3. One expert agent is trained per subspace, only on mixes from its
//!    subspace; the shared Query Runtime Cache means this usually needs no
//!    new query executions.

use crate::advisor::{Advisor, Suggestion};
use crate::env::AdvisorEnv;
use lpa_par::Pool;
use lpa_partition::Partitioning;
use lpa_rl::DqnConfig;
use lpa_workload::{FrequencyVector, MixSampler, QueryId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frequencies used to build the extreme vectors.
pub const F_LOW: f64 = 0.1;
pub const F_HIGH: f64 = 1.0;

/// A committee of subspace experts built on top of a naive advisor.
#[derive(Debug)]
pub struct Committee {
    pub references: Vec<Partitioning>,
    pub experts: Vec<Advisor>,
}

impl Committee {
    /// Derive the reference partitionings from the naive advisor
    /// (Section 5: one extreme vector per query, deduplicated).
    ///
    /// Deduplication is two-stage: exact physical-layout equality, then
    /// reward equivalence under a uniform mix — suggestions that differ
    /// only in irrelevant small-table details collapse into one reference,
    /// which is how the paper ends up with `n << m` references.
    pub fn reference_partitionings(naive: &mut Advisor) -> Vec<Partitioning> {
        let m = naive.env.workload.slots();
        let queries = naive.env.workload.queries().len();
        let mut refs: Vec<Partitioning> = Vec::new();
        for i in 0..queries {
            let f = FrequencyVector::extreme(m, QueryId(i), F_LOW, F_HIGH);
            let s = naive.suggest(&f);
            if !refs
                .iter()
                .any(|r| r.physical_key() == s.partitioning.physical_key())
            {
                refs.push(s.partitioning);
            }
        }
        // Reward-equivalence merge (keep the better representative).
        let uniform = naive.env.workload.uniform_frequencies();
        let mut kept: Vec<(Partitioning, f64)> = Vec::new();
        for p in refs {
            let r = naive.reward_of(&p, &uniform);
            match kept
                .iter_mut()
                .find(|(_, kr)| (*kr - r).abs() <= 0.02 * kr.abs().max(1e-12))
            {
                Some(slot) => {
                    if r > slot.1 {
                        *slot = (p, r);
                    }
                }
                None => kept.push((p, r)),
            }
        }
        kept.into_iter().map(|(p, _)| p).collect()
    }

    /// Which subspace a mix belongs to: the reference partitioning with
    /// the maximum reward for it.
    pub fn assign(naive: &mut Advisor, refs: &[Partitioning], freqs: &FrequencyVector) -> usize {
        let mut best = 0;
        let mut best_r = f64::NEG_INFINITY;
        for (i, p) in refs.iter().enumerate() {
            let r = naive.reward_of(p, freqs);
            if r > best_r {
                best_r = r;
                best = i;
            }
        }
        best
    }

    /// Prelude of [`Self::train`]: derive the references and build, per
    /// subspace, a fresh environment plus the deterministic mix pool its
    /// expert trains on.
    fn expert_inputs(
        naive: &mut Advisor,
        expert_cfg: &DqnConfig,
        mut make_env: impl FnMut() -> AdvisorEnv,
    ) -> (Vec<Partitioning>, Vec<(AdvisorEnv, Vec<FrequencyVector>)>) {
        let refs = Self::reference_partitionings(naive);
        let slots = naive.env.workload.slots();
        let queries = naive.env.workload.queries().len();

        // Pool of uniform mixes, assigned to subspaces.
        let mut rng = StdRng::seed_from_u64(expert_cfg.seed ^ 0xC0117);
        let mut pools: Vec<Vec<FrequencyVector>> = vec![Vec::new(); refs.len()];
        let mut base = MixSampler::Uniform { slots, queries };
        let pool_target = expert_cfg.episodes.max(8) * 2;
        for _ in 0..pool_target * refs.len() {
            let f = base.sample(&mut rng);
            let s = Self::assign(naive, &refs, &f);
            if let Some(pool) = pools.get_mut(s) {
                pool.push(f);
            }
            if pools.iter().all(|p| p.len() >= pool_target) {
                break;
            }
        }

        let inputs: Vec<(AdvisorEnv, Vec<FrequencyVector>)> = pools
            .iter()
            .map(|pool| {
                let env = make_env();
                let vectors = if pool.is_empty() {
                    vec![FrequencyVector::uniform(slots)]
                } else {
                    pool.clone()
                };
                (env, vectors)
            })
            .collect();
        (refs, inputs)
    }

    /// One untrained expert, specialized from the naive policy: a copy of
    /// the naive agent with its subspace's cycling mix sampler, a small
    /// fine-tuning learning rate, a per-expert RNG stream derived from
    /// `(seed, expert_id)`, and low exploration.
    fn make_expert(
        naive_policy: &lpa_rl::AgentSnapshot,
        expert_cfg: &DqnConfig,
        expert_id: usize,
        mut env: AdvisorEnv,
        vectors: Vec<FrequencyVector>,
    ) -> Advisor {
        env.set_sampler(MixSampler::cycle(vectors));
        let mut snapshot = naive_policy.clone();
        // Experts fine-tune: small learning rate, little exploration —
        // they specialize the naive policy rather than re-learn it.
        let mut cfg = expert_cfg.clone();
        cfg.learning_rate = (expert_cfg.learning_rate * 0.3).max(1e-4);
        cfg.seed = lpa_par::derive_stream(expert_cfg.seed, expert_id as u64);
        snapshot.cfg = cfg;
        let mut expert = Advisor::from_snapshot(env, snapshot);
        expert.set_epsilon(0.05);
        expert
    }

    /// Build the committee: derive references, partition a pool of
    /// uniformly sampled mixes by subspace, and train one expert per
    /// subspace on its mixes. Experts share the naive advisor's reward
    /// backend machinery through `make_env`, which must build a fresh
    /// environment per expert (typically sharing the cluster and runtime
    /// cache handles).
    ///
    /// Parallelism is coarse: one task per expert. Each expert's RNG
    /// stream is derived from `(seed, expert_id)`, so its trajectory does
    /// not depend on how many experts run concurrently, and the experts
    /// come back in subspace order.
    pub fn train(
        naive: &mut Advisor,
        expert_cfg: DqnConfig,
        make_env: impl FnMut() -> AdvisorEnv,
    ) -> Committee {
        let (refs, inputs) = Self::expert_inputs(naive, &expert_cfg, make_env);
        let naive_policy = naive.snapshot();
        let experts = Pool::current().par_map_owned(inputs, |expert_id, (env, vectors)| {
            let mut expert = Self::make_expert(&naive_policy, &expert_cfg, expert_id, env, vectors);
            expert.train_episodes(expert_cfg.episodes, |_| {});
            expert
        });
        Committee {
            references: refs,
            experts,
        }
    }

    /// Committee inference (Section 6): route the mix to its subspace
    /// expert.
    pub fn suggest(&mut self, naive: &mut Advisor, freqs: &FrequencyVector) -> Suggestion {
        let i = Self::assign(naive, &self.references, freqs);
        match self.experts.get_mut(i) {
            Some(expert) => expert.suggest(freqs),
            // `assign` indexes the references, which are built one-to-one
            // with the experts; fall back to the naive advisor if that
            // invariant ever breaks rather than panic during serving.
            None => naive.suggest(freqs),
        }
    }

    pub fn len(&self) -> usize {
        self.experts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.experts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::RewardBackend;
    use lpa_costmodel::{CostParams, NetworkCostModel};
    use lpa_rl::DqnConfig;

    fn quick_cfg() -> DqnConfig {
        DqnConfig {
            episodes: 25,
            tmax: 6,
            batch_size: 8,
            hidden: vec![32],
            epsilon_decay: 0.9,
            learning_rate: 2e-3,
            tau: 0.05,
            ..DqnConfig::paper()
        }
        .with_seed(11)
    }

    fn offline_naive() -> Advisor {
        let schema = lpa_schema::microbench::schema(1.0).expect("schema builds");
        let workload = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let sampler = MixSampler::uniform(&workload);
        Advisor::train_offline(
            schema,
            workload,
            NetworkCostModel::new(CostParams::standard()),
            sampler,
            quick_cfg(),
            true,
        )
    }

    #[test]
    fn references_are_deduplicated_and_nonempty() {
        let mut naive = offline_naive();
        let refs = Committee::reference_partitionings(&mut naive);
        assert!(!refs.is_empty());
        assert!(refs.len() <= naive.env.workload.queries().len());
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                assert_ne!(refs[i].physical_key(), refs[j].physical_key());
            }
        }
    }

    #[test]
    fn assignment_is_stable_and_in_range() {
        let mut naive = offline_naive();
        let refs = Committee::reference_partitionings(&mut naive);
        let f = FrequencyVector::uniform(naive.env.workload.slots());
        let a = Committee::assign(&mut naive, &refs, &f);
        let b = Committee::assign(&mut naive, &refs, &f);
        assert_eq!(a, b);
        assert!(a < refs.len());
    }

    #[test]
    fn committee_trains_and_suggests() {
        let mut naive = offline_naive();
        let schema = lpa_schema::microbench::schema(1.0).expect("schema builds");
        let workload = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let cfg = quick_cfg();
        let mk_schema = schema.clone();
        let mk_workload = workload.clone();
        let mut committee = Committee::train(&mut naive, cfg, move || {
            AdvisorEnv::new(
                mk_schema.clone(),
                mk_workload.clone(),
                RewardBackend::cost_model(NetworkCostModel::new(CostParams::standard())),
                MixSampler::uniform(&mk_workload),
                true,
                99,
            )
        });
        assert_eq!(committee.len(), committee.references.len());
        let f = FrequencyVector::uniform(workload.slots());
        let s = committee.suggest(&mut naive, &f);
        assert!(s.reward.is_finite());
        s.partitioning.check(&schema).unwrap();
    }
}
