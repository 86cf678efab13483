//! The "minimum optimizer cost" baseline (Section 7.1).
//!
//! Classical automated partitioning designers enumerate candidate designs
//! and pick the one with the minimal *optimizer* cost estimate. We search
//! the same action space as the DRL agent with steepest-descent hill
//! climbing over the engine's (erroneous) estimates — the errors, not the
//! search, are what the paper shows to be the weakness.
//!
//! Returns `None` on engines that do not expose optimizer estimates
//! (System-X), mirroring the "Not available" bars in Fig. 3.

use lpa_cluster::Cluster;
use lpa_partition::{valid_actions, Partitioning};
use lpa_workload::{FrequencyVector, Workload};

/// Estimated workload cost under the engine's optimizer; `None` when the
/// engine hides estimates.
fn estimated_cost(
    cluster: &Cluster,
    workload: &Workload,
    freqs: &FrequencyVector,
    p: &Partitioning,
) -> Option<f64> {
    let mut total = 0.0;
    for (j, q) in workload.queries().iter().enumerate() {
        let f = freqs.as_slice().get(j).copied().unwrap_or(0.0);
        if f == 0.0 {
            continue;
        }
        total += f * cluster.optimizer_estimate(q, p)?;
    }
    Some(total)
}

/// Search for the partitioning minimizing the optimizer's estimated
/// workload cost. `max_rounds` bounds the hill climbing.
#[expect(
    clippy::indexing_slicing,
    reason = "attribute ids come from the table they index"
)]
pub fn minimum_optimizer_partitioning(
    cluster: &Cluster,
    workload: &Workload,
    freqs: &FrequencyVector,
    max_rounds: usize,
) -> Option<Partitioning> {
    let schema = cluster.schema();
    let mut current = Partitioning::initial(schema);
    let mut current_cost = estimated_cost(cluster, workload, freqs, &current)?;
    for _ in 0..max_rounds {
        let mut best: Option<(f64, Partitioning)> = None;
        for action in valid_actions(schema, &current) {
            // Classical advisors cannot create partitionings the engine
            // does not support; compound keys follow engine capability.
            if !cluster.engine().supports_compound_keys {
                let compound = match action {
                    lpa_partition::Action::Partition { table, attr } => {
                        schema.table(table).attributes[attr.0].is_compound()
                    }
                    lpa_partition::Action::ActivateEdge(e)
                    | lpa_partition::Action::DeactivateEdge(e) => schema
                        .edge(e)
                        .endpoints()
                        .iter()
                        .any(|ep| schema.attribute(*ep).is_compound()),
                    lpa_partition::Action::Replicate { .. } => false,
                };
                if compound {
                    continue;
                }
            }
            // valid_actions only yields applicable actions; skip rather
            // than trust that invariant with a panic.
            let Ok(candidate) = action.apply(schema, &current) else {
                continue;
            };
            let cost = estimated_cost(cluster, workload, freqs, &candidate)?;
            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                best = Some((cost, candidate));
            }
        }
        match best {
            Some((cost, candidate)) if cost < current_cost * (1.0 - 1e-9) => {
                current_cost = cost;
                current = candidate;
            }
            _ => break,
        }
    }
    Some(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_cluster::{ClusterConfig, EngineProfile, HardwareProfile};

    #[test]
    fn unavailable_on_system_x() {
        let schema = lpa_schema::microbench::schema(0.002).expect("schema builds");
        let w = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let cluster = Cluster::new(
            schema,
            ClusterConfig::new(EngineProfile::system_x(), HardwareProfile::standard()),
        );
        let f = FrequencyVector::uniform(w.slots());
        assert!(minimum_optimizer_partitioning(&cluster, &w, &f, 5).is_none());
    }

    #[test]
    fn improves_over_initial_on_pgxl() {
        let schema = lpa_schema::microbench::schema(0.002).expect("schema builds");
        let w = lpa_workload::microbench::workload(&schema).expect("workload builds");
        let cluster = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
        );
        let f = FrequencyVector::uniform(w.slots());
        let p = minimum_optimizer_partitioning(&cluster, &w, &f, 10).unwrap();
        p.check(&schema).unwrap();
        let init = Partitioning::initial(&schema);
        let c0 = estimated_cost(&cluster, &w, &f, &init).unwrap();
        let c1 = estimated_cost(&cluster, &w, &f, &p).unwrap();
        assert!(c1 <= c0, "search must not regress: {c1} vs {c0}");
        assert_ne!(p.physical_key(), init.physical_key(), "found a change");
    }

    #[test]
    fn respects_compound_key_capability() {
        // On PgXL-like engines the returned partitioning never uses a
        // compound key.
        let schema = lpa_schema::tpcch::schema(0.0008).expect("schema builds");
        let w = lpa_workload::tpcch::workload(&schema).expect("workload builds");
        let cluster = Cluster::new(
            schema.clone(),
            ClusterConfig::new(EngineProfile::pgxl(), HardwareProfile::standard()),
        );
        let f = FrequencyVector::uniform(w.slots());
        let p = minimum_optimizer_partitioning(&cluster, &w, &f, 4).unwrap();
        for (i, s) in p.table_states().iter().enumerate() {
            if let lpa_partition::TableState::PartitionedBy(a) = s {
                assert!(
                    !schema.tables()[i].attributes[a.0].is_compound(),
                    "table {i} uses a compound key"
                );
            }
        }
    }
}
