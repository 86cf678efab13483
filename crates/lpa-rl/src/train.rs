//! The episodic training loop (Algorithm 1) and greedy rollouts for
//! inference (Section 6).

use crate::agent::DqnAgent;
use crate::buffer::Transition;
use crate::env::{EnvCounters, QEnvironment};

/// Summary of one training episode.
#[derive(Clone, Debug)]
pub struct EpisodeStats {
    pub episode: usize,
    /// Sum of rewards over the episode's steps.
    pub total_reward: f64,
    /// Best (maximum) single-step reward seen in the episode.
    pub best_reward: f64,
    pub epsilon: f64,
    /// Mean training loss over the episode (0 before the buffer fills).
    pub mean_loss: f32,
    /// Environment steps taken this episode (wall-less progress counter).
    pub steps: usize,
    /// Minibatch updates performed this episode.
    pub train_steps: usize,
    /// Environment counter deltas for this episode (cache hits/misses,
    /// delta vs full re-costs); all zeros for counter-less environments.
    pub counters: EnvCounters,
}

/// A greedy rollout: the visited states with their rewards.
#[derive(Debug)]
pub struct Trajectory<S> {
    pub states: Vec<S>,
    pub rewards: Vec<f64>,
}

impl<S> Trajectory<S> {
    /// Index of the state with the maximum reward. The paper returns the
    /// best state of the rollout rather than the last one because the
    /// agent oscillates around the optimum (Section 6).
    pub fn best_index(&self) -> usize {
        self.rewards
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "a trajectory holds at least its initial state"
    )]
    pub fn best_state(&self) -> &S {
        self.states
            .get(self.best_index())
            .unwrap_or(&self.states[0])
    }
}

/// Run Algorithm 1 for `episodes` episodes, invoking `on_episode` with the
/// per-episode statistics.
pub fn train<E: QEnvironment>(
    agent: &mut DqnAgent<E>,
    env: &mut E,
    episodes: usize,
    on_episode: impl FnMut(&EpisodeStats),
) {
    train_from(agent, env, 0, episodes, on_episode, |_, _, _| {});
}

/// [`train`] with an explicit starting episode and a post-episode hook.
///
/// The hook fires after each episode's ε decay, when the agent sits at an
/// episode boundary — the checkpoint granularity: a resumed run restarted
/// with `start_episode = k + 1` from state captured at episode `k` replays
/// the remaining episodes bit-identically (the loop consumes no RNG or env
/// state between the hook and the next episode's `reset`).
pub fn train_from<E: QEnvironment>(
    agent: &mut DqnAgent<E>,
    env: &mut E,
    start_episode: usize,
    episodes: usize,
    mut on_episode: impl FnMut(&EpisodeStats),
    mut after_episode: impl FnMut(usize, &DqnAgent<E>, &E),
) {
    let tmax = agent.config().tmax;
    let train_every = agent.config().train_every.max(1);
    for episode in start_episode..episodes {
        let counters_at_start = env.counters();
        let mut state = env.reset();
        let mut total_reward = 0.0;
        let mut best_reward = f64::NEG_INFINITY;
        let mut loss_sum = 0.0f32;
        let mut loss_n = 0u32;
        let mut steps = 0usize;
        for t in 0..tmax {
            let action = agent.select_action(env, &state, true);
            let (next, reward) = env.step(&state, &action);
            steps += 1;
            total_reward += reward;
            best_reward = best_reward.max(reward);
            agent.remember(Transition {
                state: state.clone(),
                action,
                reward,
                next_state: next.clone(),
            });
            if t % train_every == 0 {
                if let Some(l) = agent.train_step(env) {
                    loss_sum += l;
                    loss_n += 1;
                }
            }
            state = next;
        }
        agent.decay_epsilon();
        on_episode(&EpisodeStats {
            episode,
            total_reward,
            best_reward,
            epsilon: agent.epsilon(),
            mean_loss: if loss_n > 0 {
                loss_sum / loss_n as f32
            } else {
                0.0
            },
            steps,
            train_steps: loss_n as usize,
            counters: env.counters().since(&counters_at_start),
        });
        after_episode(episode, agent, env);
    }
}

/// Greedy rollout from `env.reset()` for `tmax` steps; used at inference
/// time. Includes the initial state.
pub fn rollout<E: QEnvironment>(
    agent: &mut DqnAgent<E>,
    env: &mut E,
    tmax: usize,
) -> Trajectory<E::State> {
    let mut state = env.reset();
    let mut states = vec![state.clone()];
    let mut rewards = vec![f64::NEG_INFINITY];
    for _ in 0..tmax {
        let action = agent.select_action(env, &state, false);
        let (next, reward) = env.step(&state, &action);
        states.push(next.clone());
        rewards.push(reward);
        state = next;
    }
    Trajectory { states, rewards }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::DqnConfig;
    use crate::env::QEnvironment;

    /// A tiny deterministic MDP: states 0..8 on a line, actions ±1, reward
    /// peaks at state 6. Optimal behaviour walks right and stays.
    pub(crate) struct LineWorld {
        pos_dim: usize,
    }

    impl LineWorld {
        pub(crate) fn new() -> Self {
            Self { pos_dim: 8 }
        }
        fn reward_of(s: usize) -> f64 {
            // Peak at 6.
            -((s as f64) - 6.0).abs()
        }
    }

    impl QEnvironment for LineWorld {
        type State = usize;
        type Action = i32;

        fn input_dim(&self) -> usize {
            self.pos_dim + 2
        }

        fn reset(&mut self) -> usize {
            1
        }

        fn actions(&self, s: &usize) -> Vec<i32> {
            let mut a = Vec::new();
            if *s > 0 {
                a.push(-1);
            }
            if *s + 1 < self.pos_dim {
                a.push(1);
            }
            a
        }

        fn encode(&self, s: &usize, a: &i32, out: &mut [f32]) {
            out.fill(0.0);
            out[*s] = 1.0;
            out[self.pos_dim + usize::from(*a > 0)] = 1.0;
        }

        fn step(&mut self, s: &usize, a: &i32) -> (usize, f64) {
            let next = (*s as i64 + *a as i64).clamp(0, self.pos_dim as i64 - 1) as usize;
            (next, Self::reward_of(next))
        }
    }

    #[test]
    fn dqn_learns_lineworld() {
        let mut env = LineWorld::new();
        let cfg = DqnConfig {
            episodes: 60,
            tmax: 10,
            batch_size: 16,
            hidden: vec![32],
            epsilon_decay: 0.93,
            learning_rate: 3e-3,
            tau: 0.05,
            ..DqnConfig::paper()
        }
        .with_seed(5);
        let mut agent = DqnAgent::new(env.input_dim(), cfg.clone());
        let mut last_stats = None;
        train(&mut agent, &mut env, cfg.episodes, |s| {
            last_stats = Some(s.clone())
        });
        // After training, a greedy rollout must reach the peak state 6.
        let traj = rollout(&mut agent, &mut env, 10);
        let best = traj.best_state();
        assert_eq!(*best, 6, "rollout states: {:?}", traj.states);
        // Epsilon decayed.
        assert!(agent.epsilon() < 0.1, "ε = {}", agent.epsilon());
        let stats = last_stats.unwrap();
        assert!(stats.mean_loss.is_finite());
    }

    #[test]
    fn best_index_prefers_max_reward() {
        let t = Trajectory {
            states: vec!["a", "b", "c"],
            rewards: vec![f64::NEG_INFINITY, -2.0, -5.0],
        };
        assert_eq!(t.best_index(), 1);
        assert_eq!(*t.best_state(), "b");
    }

    #[test]
    fn epsilon_greedy_explores_then_exploits() {
        let mut env = LineWorld::new();
        let cfg = DqnConfig::quick_test().with_seed(1);
        let mut agent: DqnAgent<LineWorld> = DqnAgent::new(env.input_dim(), cfg);
        agent.set_epsilon(1.0);
        // With ε = 1 actions should be random-ish: both directions appear.
        let s = env.reset();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            seen.insert(agent.select_action(&env, &s, true));
        }
        assert_eq!(seen.len(), 2);
        // With ε = 0 the same action is always returned.
        agent.set_epsilon(0.0);
        let a0 = agent.select_action(&env, &s, true);
        for _ in 0..10 {
            assert_eq!(agent.select_action(&env, &s, true), a0);
        }
    }

    #[test]
    fn train_step_requires_full_batch() {
        let mut env = LineWorld::new();
        let cfg = DqnConfig::quick_test().with_seed(2);
        let mut agent: DqnAgent<LineWorld> = DqnAgent::new(env.input_dim(), cfg);
        assert!(agent.train_step(&env).is_none());
        let s = env.reset();
        for _ in 0..8 {
            let a = agent.select_action(&env, &s, true);
            let (n, r) = env.step(&s, &a);
            agent.remember(Transition {
                state: s,
                action: a,
                reward: r,
                next_state: n,
            });
        }
        assert!(agent.train_step(&env).is_some());
    }
}
