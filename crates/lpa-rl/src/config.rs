//! DQN hyperparameters (Table 1 of the paper).

/// Initial exploration probability ε. Table 1 does not list it; plain DQN
/// starts fully exploratory.
pub const EPSILON_START: f64 = 1.0;

/// Exploration floor the per-episode decay never goes below.
pub const EPSILON_MIN: f64 = 0.01;

/// Experience replay capacity (Table 1).
pub const REPLAY_CAPACITY: usize = 10_000;

/// The DQN knobs a paper experiment, keystone test or benchmark workload
/// varies. [`DqnConfig::paper`] plus the constants above reproduce Table 1
/// exactly.
#[derive(Clone, Debug)]
pub struct DqnConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Target-network soft-update coefficient τ.
    pub tau: f32,
    /// Minibatch size for experience replay.
    pub batch_size: usize,
    /// Per-episode multiplicative ε decay.
    pub epsilon_decay: f64,
    /// Reward discount γ.
    pub gamma: f64,
    /// Steps per episode (t_max ≥ number of tables).
    pub tmax: usize,
    /// Training episodes (600 for SSB, 1200 for TPC-DS / TPC-CH).
    pub episodes: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Train the Q-network every `train_every` environment steps.
    pub train_every: usize,
    /// RNG seed (networks, exploration, replay sampling).
    pub seed: u64,
}

impl DqnConfig {
    /// Table 1: lr 5·10⁻⁴, τ 10⁻³, batch 32, ε-decay 0.997, t_max 100,
    /// 600 episodes, layout 128-64, γ 0.99 (buffer: [`REPLAY_CAPACITY`]).
    pub fn paper() -> Self {
        Self {
            learning_rate: 5e-4,
            tau: 1e-3,
            batch_size: 32,
            epsilon_decay: 0.997,
            gamma: 0.99,
            tmax: 100,
            episodes: 600,
            hidden: vec![128, 64],
            train_every: 1,
            seed: 0,
        }
    }

    /// Table 1 with the 1200-episode budget used for the larger schemas
    /// (TPC-DS, TPC-CH).
    pub fn paper_large() -> Self {
        Self {
            episodes: 1200,
            ..Self::paper()
        }
    }

    /// A scaled-down configuration for the simulator-sized problem
    /// instances run by the experiment harness. Keeps the Table-1
    /// *relative* settings but shrinks episodes/steps so a full experiment
    /// suite completes in minutes instead of hours. Two knobs scale with
    /// the shorter episodes: the discount γ (the paper's 0.99 implies a
    /// ~100-step horizon matching its t_max = 100; shorter episodes get a
    /// proportionally shorter horizon) and the learning rate (fewer SGD
    /// steps overall).
    pub fn simulation(episodes: usize, tmax: usize) -> Self {
        Self {
            episodes,
            tmax,
            gamma: 1.0 - 1.0 / tmax as f64,
            learning_rate: 1e-3,
            // Reach a comparable final ε despite fewer episodes.
            epsilon_decay: 0.03f64.powf(1.0 / episodes as f64),
            ..Self::paper()
        }
    }

    /// Tiny settings for unit tests.
    pub fn quick_test() -> Self {
        Self {
            batch_size: 8,
            tmax: 8,
            episodes: 12,
            hidden: vec![32, 16],
            epsilon_decay: 0.8,
            ..Self::paper()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The ε value after `n` episodes of decay (used to warm-start the
    /// online phase at the ε reached halfway through offline training,
    /// Section 4.2).
    pub fn epsilon_after(&self, n: usize) -> f64 {
        (EPSILON_START * self.epsilon_decay.powi(n as i32)).max(EPSILON_MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table1() {
        let c = DqnConfig::paper();
        assert_eq!(c.learning_rate, 5e-4);
        assert_eq!(c.tau, 1e-3);
        assert_eq!(REPLAY_CAPACITY, 10_000);
        assert_eq!(c.batch_size, 32);
        assert_eq!(c.epsilon_decay, 0.997);
        assert_eq!(c.tmax, 100);
        assert_eq!(c.episodes, 600);
        assert_eq!(c.hidden, vec![128, 64]);
        assert_eq!(c.gamma, 0.99);
        assert_eq!(DqnConfig::paper_large().episodes, 1200);
    }

    #[test]
    fn epsilon_warm_start() {
        let c = DqnConfig::paper();
        let half = c.epsilon_after(600);
        assert!(half < 0.2 && half > 0.1, "0.997^600 ≈ 0.165, got {half}");
        assert_eq!(c.epsilon_after(100_000), EPSILON_MIN);
    }

    #[test]
    fn simulation_decay_reaches_comparable_floor() {
        let c = DqnConfig::simulation(100, 20);
        let end = c.epsilon_after(100);
        assert!((end - 0.03).abs() < 0.01, "got {end}");
    }
}
