//! Seeded fleet chaos: the [`SliceHook`] the keystone tests, the fleet demo
//! and `exp9` install to fail slices and poison advice. Test and experiment
//! machinery — production fleets run `lpa_service::NoHook`.

use lpa_cluster::CandidateDeploy;
use lpa_par::{derive_stream, derive_stream3};
use lpa_partition::{Partitioning, TableState};
use lpa_schema::{Schema, TableId};
use lpa_service::fleet::{SALT_POISON, SALT_STEP_ERR};
use lpa_service::SliceHook;
use std::collections::BTreeMap;

/// Seeded, per-tenant chaos: injected step errors and adversarially
/// poisoned advice, each drawn from its own salted stream of
/// `(fleet seed, tenant)` so chaos configured for tenant *i* is bit-neutral
/// for tenant *j*.
#[derive(Clone, Debug)]
pub struct SeededChaos {
    seed: u64,
    step_error_rate: BTreeMap<usize, f64>,
    poison_from_round: BTreeMap<usize, u64>,
}

impl SeededChaos {
    /// No chaos yet; `seed` must be the fleet's [`lpa_service::FleetConfig::seed`].
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            step_error_rate: BTreeMap::new(),
            poison_from_round: BTreeMap::new(),
        }
    }

    /// Fail each of `tenant`'s slices with probability `rate`.
    pub fn step_errors(mut self, tenant: usize, rate: f64) -> Self {
        self.step_error_rate.insert(tenant, rate);
        self
    }

    /// From round `from` on, replace every candidate `tenant`'s slice would
    /// stage by a known-bad layout presented with a fabricated predicted
    /// benefit that sails through the economic gate — the guardrail
    /// keystone's way of proving rollbacks fire from *observed* evidence.
    pub fn poison(mut self, tenant: usize, from: u64) -> Self {
        self.poison_from_round.insert(tenant, from);
        self
    }
}

impl SliceHook for SeededChaos {
    fn step_error(&self, tenant: usize, round: u64) -> bool {
        let Some(&rate) = self.step_error_rate.get(&tenant) else {
            return false;
        };
        if rate <= 0.0 {
            return false;
        }
        let stream = derive_stream3(self.seed, tenant as u64, SALT_STEP_ERR);
        let draw = derive_stream(stream, round);
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    /// Every table moved *away* from its currently deployed state onto a
    /// salted-stream-chosen partitioning attribute. Scrambling every
    /// co-partitioning at once forces network joins across the board — a
    /// known-bad layout by construction — while staying a valid
    /// [`Partitioning`] the advisor could have suggested.
    fn candidate(
        &self,
        tenant: usize,
        round: u64,
        schema: &Schema,
        deployed: &Partitioning,
    ) -> Option<CandidateDeploy> {
        let from = *self.poison_from_round.get(&tenant)?;
        if round < from {
            return None;
        }
        let stream = derive_stream3(self.seed, tenant as u64, SALT_POISON);
        let tables = schema
            .tables()
            .iter()
            .enumerate()
            .map(|(i, table)| {
                let attrs: Vec<_> = table.partitionable_attrs().collect();
                let draw = derive_stream(stream ^ round, i as u64) as usize;
                match deployed.table_state(TableId(i)) {
                    TableState::PartitionedBy(current) => {
                        let pool: Vec<_> =
                            attrs.iter().copied().filter(|a| *a != current).collect();
                        if pool.is_empty() {
                            TableState::Replicated
                        } else {
                            TableState::PartitionedBy(pool[draw % pool.len()])
                        }
                    }
                    TableState::Replicated => {
                        if attrs.is_empty() {
                            TableState::Replicated
                        } else {
                            TableState::PartitionedBy(attrs[draw % attrs.len()])
                        }
                    }
                }
            })
            .collect();
        // Fabricated benefit: the point of the poison is that *paper*
        // numbers lie, and only observed evidence catches the lie.
        Some(CandidateDeploy {
            partitioning: Partitioning::from_states(schema, tables),
            benefit_per_run: 1e12,
        })
    }
}
