//! The learned-cost-model alternative of Section 7.5.
//!
//! Instead of Q-learning, train a neural network to predict the workload
//! cost of a partitioning and minimize it with classical search. Like the
//! DRL advisor it is bootstrapped offline on the network-centric cost
//! model (the paper uses 100 k workload/partitioning pairs) and refined
//! online with measured runtimes; two variants differ in how they pick
//! the partitionings to measure:
//!
//! * **Exploit** — deploy the minimizer of the current model each
//!   iteration;
//! * **Explore** — deploy a random partitioning each iteration.
//!
//! The paper shows both are inferior to DRL because they traverse fewer
//! distinct partitionings in the same training time.

use lpa_advisor::OnlineBackend;
use lpa_costmodel::NetworkCostModel;
use lpa_nn::{Adam, Matrix, Mlp, MlpScratch, Pool};
use lpa_partition::{valid_actions, Partitioning, StateEncoder, TableState};
use lpa_schema::Schema;
use lpa_workload::{FrequencyVector, MixSampler, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the online iterations choose partitionings to measure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NeuralCostVariant {
    Exploit,
    Explore,
}

/// A neural cost model `f(partitioning, workload mix) → cost` plus the
/// search machinery that turns it into a partitioning advisor.
#[derive(Debug)]
pub struct NeuralCostAdvisor {
    schema: Schema,
    workload: Workload,
    encoder: StateEncoder,
    net: Mlp,
    opt: Adam,
    /// Normalization constant for targets (mean bootstrap cost).
    cost_norm: f64,
    variant: NeuralCostVariant,
    rng: StdRng,
    dataset: Vec<(Vec<f32>, f32)>,
    /// Distinct partitionings measured online (the paper's explanation for
    /// why DRL wins: it sees ~3x more).
    pub distinct_partitionings: std::collections::HashSet<Vec<TableState>>,
}

impl NeuralCostAdvisor {
    /// Offline bootstrap on random (partitioning, mix) pairs labeled by
    /// the network-centric cost model.
    pub fn bootstrap_offline(
        schema: Schema,
        workload: Workload,
        model: &NetworkCostModel,
        pairs: usize,
        epochs: usize,
        variant: NeuralCostVariant,
        seed: u64,
    ) -> Self {
        let encoder = StateEncoder::new(&schema, workload.slots());
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[encoder.state_dim(), 128, 64, 1], &mut rng);
        let opt = Adam::new(1e-3, net.layers());
        let mut advisor = Self {
            schema,
            workload,
            encoder,
            net,
            opt,
            cost_norm: 1.0,
            variant,
            rng,
            dataset: Vec::new(),
            distinct_partitionings: std::collections::HashSet::new(),
        };

        let mut sampler = MixSampler::uniform(&advisor.workload);
        let mut labels = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let p = advisor.random_partitioning();
            let f = sampler.sample(&mut advisor.rng);
            let cost = model.workload_cost(&advisor.schema, &advisor.workload, &f, &p);
            let x = advisor.encoder.encode_state(&p, &f);
            labels.push(cost);
            advisor.dataset.push((x, cost as f32));
        }
        advisor.cost_norm = (labels.iter().sum::<f64>() / labels.len().max(1) as f64).max(1e-9);
        for (_, y) in &mut advisor.dataset {
            *y /= advisor.cost_norm as f32;
        }
        advisor.fit(epochs);
        advisor
    }

    /// Online refinement: in each iteration, deploy a partitioning
    /// (model minimizer or random, per variant), measure the workload on
    /// the sampled cluster (sharing the runtime cache and optimizations
    /// with the DRL advisor for fairness), and retrain.
    pub fn refine_online(
        &mut self,
        backend: &mut OnlineBackend,
        iterations: usize,
        mixes_per_iteration: usize,
        epochs_per_iteration: usize,
    ) {
        let mut sampler = MixSampler::uniform(&self.workload);
        for _ in 0..iterations {
            let f0 = sampler.sample(&mut self.rng);
            let p = match self.variant {
                NeuralCostVariant::Exploit => self.minimize(&f0),
                NeuralCostVariant::Explore => self.random_partitioning(),
            };
            self.distinct_partitionings
                .insert(p.physical_key().to_vec());
            for _ in 0..mixes_per_iteration {
                let f = sampler.sample(&mut self.rng);
                let measured = -backend.reward(&self.workload, &p, &f);
                let x = self.encoder.encode_state(&p, &f);
                self.dataset.push((x, (measured / self.cost_norm) as f32));
            }
            self.fit(epochs_per_iteration);
        }
    }

    /// Suggest a partitioning for a mix by minimizing the model.
    pub fn suggest(&mut self, freqs: &FrequencyVector) -> Partitioning {
        self.minimize(freqs)
    }

    /// Model prediction (de-normalized).
    pub fn predicted_cost(&self, p: &Partitioning, freqs: &FrequencyVector) -> f64 {
        let x = self.encoder.encode_state(p, freqs);
        self.net.predict_scalar(&x) as f64 * self.cost_norm
    }

    /// Steepest-descent search over the action space using predictions.
    /// Each round scores all of the current state's candidates with one
    /// batched forward instead of one tiny network call per candidate;
    /// every batch row equals the scalar [`Self::predicted_cost`]
    /// bit-for-bit (rows of a matmul are independent), and the first-
    /// strict-minimum selection walks candidates in the same order, so
    /// the search trajectory is unchanged.
    fn minimize(&mut self, freqs: &FrequencyVector) -> Partitioning {
        let mut current = Partitioning::initial(&self.schema);
        let mut current_cost = self.predicted_cost(&current, freqs);
        let rounds = self.schema.tables().len() + self.schema.edges().len();
        // Pool and scratch hoisted out of the search loop.
        let pool = Pool::current();
        let mut scratch = MlpScratch::new();
        let mut inputs = Matrix::zeros(0, 0);
        let mut preds: Vec<f32> = Vec::new();
        let dim = self.encoder.state_dim();
        for _ in 0..rounds {
            let cands: Vec<Partitioning> = valid_actions(&self.schema, &current)
                .into_iter()
                .filter_map(|a| a.apply(&self.schema, &current).ok())
                .collect();
            if cands.is_empty() {
                break;
            }
            inputs.resize_zeroed(cands.len(), dim);
            for (cand, row) in cands.iter().zip(inputs.data_mut().chunks_exact_mut(dim)) {
                self.encoder.encode_state_into(cand, freqs, row);
            }
            preds.clear();
            self.net
                .predict_batch_into(pool, &inputs, &mut scratch, &mut preds);
            let mut best: Option<(f64, usize)> = None;
            for (i, &p) in preds.iter().enumerate() {
                let c = p as f64 * self.cost_norm;
                if best.map(|(b, _)| c < b).unwrap_or(true) {
                    best = Some((c, i));
                }
            }
            match best {
                Some((c, i)) if c < current_cost => {
                    let Some(cand) = cands.into_iter().nth(i) else {
                        break;
                    };
                    current_cost = c;
                    current = cand;
                }
                _ => break,
            }
        }
        current
    }

    fn random_partitioning(&mut self) -> Partitioning {
        let states = (0..self.schema.tables().len())
            .map(|t| {
                let table = self.schema.table(lpa_schema::TableId(t));
                let attrs: Vec<_> = table.partitionable_attrs().collect();
                let choice = self.rng.gen_range(0..=attrs.len());
                match attrs.get(choice) {
                    Some(&a) => TableState::PartitionedBy(a),
                    None => TableState::Replicated,
                }
            })
            .collect();
        Partitioning::from_states(&self.schema, states)
    }

    /// A few epochs of minibatch MSE training over the dataset.
    #[expect(
        clippy::indexing_slicing,
        reason = "order is a permutation of 0..dataset.len()"
    )]
    fn fit(&mut self, epochs: usize) {
        const BATCH: usize = 32;
        if self.dataset.is_empty() {
            return;
        }
        for _ in 0..epochs {
            // Deterministic shuffle via index permutation.
            let mut order: Vec<usize> = (0..self.dataset.len()).collect();
            for i in (1..order.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(BATCH) {
                let rows: Vec<&[f32]> = chunk
                    .iter()
                    .map(|&i| self.dataset[i].0.as_slice())
                    .collect();
                let x = Matrix::from_rows(&rows);
                let y: Vec<f32> = chunk.iter().map(|&i| self.dataset[i].1).collect();
                self.net.train_mse(&x, &y, &mut self.opt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_costmodel::CostParams;

    fn setup(variant: NeuralCostVariant) -> NeuralCostAdvisor {
        let schema = lpa_schema::microbench::schema(1.0).expect("schema builds");
        let workload = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let model = NetworkCostModel::new(CostParams::standard());
        NeuralCostAdvisor::bootstrap_offline(schema, workload, &model, 600, 30, variant, 17)
    }

    #[test]
    fn bootstrap_learns_cost_ordering() {
        let advisor = setup(NeuralCostVariant::Exploit);
        let schema = lpa_schema::microbench::schema(1.0).expect("schema builds");
        let model = NetworkCostModel::new(CostParams::standard());
        let f = FrequencyVector::uniform(2);
        // The model should prefer a/c co-partitioning over replicating a.
        let a = schema.table_by_name("a").unwrap();
        let good = {
            let a_c = schema.attr_ref("a", "a_c_key").unwrap();
            let mut s = Partitioning::initial(&schema).table_states().to_vec();
            s[a.0] = TableState::PartitionedBy(a_c.attr);
            Partitioning::from_states(&schema, s)
        };
        let bad = {
            let mut s = Partitioning::initial(&schema).table_states().to_vec();
            s[a.0] = TableState::Replicated;
            Partitioning::from_states(&schema, s)
        };
        let pg = advisor.predicted_cost(&good, &f);
        let pb = advisor.predicted_cost(&bad, &f);
        let tg = model.workload_cost(advisor.schema(), &advisor.workload, &f, &good);
        let tb = model.workload_cost(advisor.schema(), &advisor.workload, &f, &bad);
        assert!(tg < tb, "sanity: truth orders them");
        assert!(pg < pb, "model must order extremes correctly: {pg} vs {pb}");
    }

    #[test]
    fn minimize_improves_over_initial_prediction() {
        let mut advisor = setup(NeuralCostVariant::Exploit);
        let f = FrequencyVector::uniform(2);
        let s0 = Partitioning::initial(&advisor.schema().clone());
        let suggested = advisor.suggest(&f);
        let c0 = advisor.predicted_cost(&s0, &f);
        let c1 = advisor.predicted_cost(&suggested, &f);
        assert!(c1 <= c0 + 1e-6);
    }

    #[test]
    fn explore_variant_visits_many_partitionings() {
        let mut advisor = setup(NeuralCostVariant::Explore);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..30 {
            seen.insert(advisor.random_partitioning().physical_key().to_vec());
        }
        assert!(seen.len() > 10, "random sampling diversity: {}", seen.len());
    }

    impl NeuralCostAdvisor {
        fn schema(&self) -> &Schema {
            &self.schema
        }
    }
}
