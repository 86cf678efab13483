//! Workload-mix samplers.
//!
//! Training generalizes over workload mixes by sampling a fresh frequency
//! vector per episode; evaluation (Fig. 5 / Fig. 7b) samples mixes from two
//! *clusters*: uniform (A) and with certain queries over-represented (B).

use crate::query::QueryId;
use crate::workload::FrequencyVector;
use rand::Rng;

/// Samples frequency vectors for a workload of `m` query slots.
#[derive(Clone, Debug)]
pub enum MixSampler {
    /// Frequencies drawn i.i.d. uniform from `(0, 1]`, then normalized —
    /// workload cluster A in the paper's Fig. 5.
    Uniform { slots: usize, queries: usize },
    /// Like `Uniform`, but the listed queries receive `boost`-times higher
    /// raw frequency — cluster B ("queries joining Stock and Item are more
    /// likely to occur").
    Emphasis {
        slots: usize,
        queries: usize,
        hot: Vec<QueryId>,
        boost: f64,
    },
    /// Always returns the same fixed vector (degenerate sampler, useful for
    /// single-mix training and tests).
    Fixed(FrequencyVector),
    /// Cycle through a pre-computed list of vectors — used by the committee
    /// of subspace experts, whose training mixes are assigned to experts
    /// ahead of time (Section 5).
    Cycle {
        vectors: Vec<FrequencyVector>,
        next: usize,
    },
}

impl MixSampler {
    /// Uniform sampler over the active queries of a workload.
    pub fn uniform(workload: &crate::Workload) -> Self {
        Self::Uniform {
            slots: workload.slots(),
            queries: workload.queries().len(),
        }
    }

    /// Emphasis sampler boosting the given queries.
    pub fn emphasis(workload: &crate::Workload, hot: Vec<QueryId>, boost: f64) -> Self {
        assert!(boost >= 1.0);
        Self::Emphasis {
            slots: workload.slots(),
            queries: workload.queries().len(),
            hot,
            boost,
        }
    }

    /// Cycling sampler over a fixed list.
    pub fn cycle(vectors: Vec<FrequencyVector>) -> Self {
        assert!(!vectors.is_empty());
        Self::Cycle { vectors, next: 0 }
    }

    /// Draw one frequency vector.
    #[expect(
        clippy::indexing_slicing,
        reason = "q.0 < counts.len() is checked; a Cycle holds a vector: MixSampler::cycle asserts it and take_sampler rejects an empty one"
    )]
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> FrequencyVector {
        match self {
            Self::Uniform { slots, queries } => {
                let counts: Vec<f64> = (0..*queries).map(|_| rng.gen_range(0.05..=1.0)).collect();
                FrequencyVector::from_counts(&counts, *slots)
            }
            Self::Emphasis {
                slots,
                queries,
                hot,
                boost,
            } => {
                let mut counts: Vec<f64> =
                    (0..*queries).map(|_| rng.gen_range(0.05..=1.0)).collect();
                for q in hot.iter() {
                    if q.0 < counts.len() {
                        counts[q.0] *= *boost;
                    }
                }
                FrequencyVector::from_counts(&counts, *slots)
            }
            Self::Fixed(f) => f.clone(),
            Self::Cycle { vectors, next } => {
                let f = vectors[*next % vectors.len()].clone();
                *next = (*next + 1) % vectors.len();
                f
            }
        }
    }

    /// Number of slots in sampled vectors.
    #[expect(
        clippy::indexing_slicing,
        reason = "a Cycle holds a vector: MixSampler::cycle asserts it and take_sampler rejects an empty one"
    )]
    pub fn slots(&self) -> usize {
        match self {
            Self::Uniform { slots, .. } | Self::Emphasis { slots, .. } => *slots,
            Self::Fixed(f) => f.len(),
            Self::Cycle { vectors, .. } => vectors[0].len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_sampler_normalizes() {
        let mut s = MixSampler::Uniform {
            slots: 6,
            queries: 4,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let f = s.sample(&mut rng);
            assert_eq!(f.len(), 6);
            let max = f.as_slice().iter().cloned().fold(0.0_f64, f64::max);
            assert!((max - 1.0).abs() < 1e-12);
            assert_eq!(f.as_slice()[4], 0.0);
            assert_eq!(f.as_slice()[5], 0.0);
        }
    }

    #[test]
    fn emphasis_boosts_hot_queries() {
        let mut s = MixSampler::Emphasis {
            slots: 4,
            queries: 4,
            hot: vec![QueryId(2)],
            boost: 20.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut hot_wins = 0;
        for _ in 0..100 {
            let f = s.sample(&mut rng);
            if f.get(QueryId(2)) >= 0.999 {
                hot_wins += 1;
            }
        }
        // With a 20x boost the hot query should nearly always dominate.
        assert!(hot_wins > 90, "hot query dominated only {hot_wins}/100");
    }

    #[test]
    fn cycle_sampler_wraps() {
        let a = FrequencyVector::from_counts(&[1.0], 1);
        let b = FrequencyVector::from_counts(&[0.5, 1.0], 2).resized(2);
        let mut s = MixSampler::cycle(vec![a.clone(), b.clone()]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.sample(&mut rng), a);
        assert_eq!(s.sample(&mut rng), b);
        assert_eq!(s.sample(&mut rng), a);
    }

    #[test]
    fn fixed_sampler_is_deterministic() {
        let f = FrequencyVector::uniform(3);
        let mut s = MixSampler::Fixed(f.clone());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.sample(&mut rng), f);
        assert_eq!(s.slots(), 3);
    }
}
