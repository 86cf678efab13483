//! Capture and restore of the end-to-end partitioning service — the one
//! codec path for service state, standalone or as a fleet tenant
//! ([`crate::fleet`] wraps it with the tenant's scheduling fields).

use crate::session::{restore_offline, OfflineTemplate};
use crate::snapshot::{ServiceSnapshot, SessionSnapshot};
use crate::StoreError;
use lpa_advisor::Advisor;
use lpa_cluster::Cluster;
use lpa_service::{PartitioningService, ServiceConfig, ServiceResumeState};

/// Capture a running service at a window boundary (`windows` = decision
/// windows completed so far). Nothing in the capture can fail; the
/// `Result` is the shape fleet and bench callers already handle.
pub fn capture_service(
    windows: u64,
    service: &PartitioningService,
) -> Result<ServiceSnapshot, StoreError> {
    let advisor = service.advisor();
    let state = service.resume_state();
    Ok(ServiceSnapshot {
        windows,
        session: SessionSnapshot::capture(0, advisor.agent(), &advisor.env),
        absorbed_queries: service.absorbed_queries().to_vec(),
        cluster: state.cluster,
        monitor_counts: state.monitor_counts,
        monitor_observed: state.monitor_observed,
        monitor_pending: state.monitor_pending,
        forecaster: state.forecaster,
        guardrail: state.guardrail,
    })
}

/// Decode a snapshot into what a service is reassembled from. The advisor
/// must be offline-backed (the service trains against the cost model
/// between windows); its workload is the template's — the one the service
/// was *built* with, reserved slots included — plus the absorbed queries,
/// back in their slots.
pub(crate) fn restore_parts(
    snap: ServiceSnapshot,
    mut template: OfflineTemplate,
) -> Result<(Advisor, ServiceResumeState), StoreError> {
    let absorbed = snap.absorbed_queries.len();
    for query in snap.absorbed_queries {
        template.workload.add_query(query).map_err(|q| {
            StoreError::Incompatible(format!(
                "no reserved slot in the template workload for absorbed query {}",
                q.name
            ))
        })?;
    }
    let advisor = restore_offline(snap.session, &template)?;
    let state = ServiceResumeState {
        cluster: snap.cluster,
        monitor_counts: snap.monitor_counts,
        monitor_observed: snap.monitor_observed,
        monitor_pending: snap.monitor_pending,
        forecaster: snap.forecaster,
        guardrail: snap.guardrail,
        absorbed,
    };
    Ok((advisor, state))
}

/// Restore a standalone service from a snapshot: the restored advisor
/// wrapped around `cluster` — freshly built, same schema and config as the
/// original; its mutable state comes from the snapshot — under the owner's
/// `cfg`, then the mid-window state (cluster, monitor, forecaster,
/// guardrail) put back.
pub fn restore_service(
    snap: ServiceSnapshot,
    template: OfflineTemplate,
    cluster: Cluster,
    cfg: ServiceConfig,
) -> Result<PartitioningService, StoreError> {
    let (advisor, state) = restore_parts(snap, template)?;
    let mut service = PartitioningService::new(advisor, cluster, cfg);
    service
        .restore_resume_state(state)
        .map_err(StoreError::Incompatible)?;
    Ok(service)
}
