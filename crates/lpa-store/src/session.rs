//! Capture and restore of whole advisor sessions, plus the checkpointed
//! training driver.
//!
//! A checkpoint is taken at an episode boundary (after ε decay, before the
//! next reset), where the training loop holds no transient state — so a
//! run restored from episode `k` and resumed with `start_episode = k + 1`
//! replays the remaining episodes bit-identically.
//!
//! Restore templates carry what is deliberately not persisted: the schema,
//! the workload, the cost model, and (online) a freshly built cluster over
//! the same data seed. Everything mutable comes from the snapshot.

use crate::snapshot::{restore_engine, BackendState, Checkpoint, SessionSnapshot};
use crate::store::CheckpointStore;
use crate::StoreError;
use lpa_advisor::{
    shared_cluster, Advisor, AdvisorEnv, OnlineBackend, RewardBackend, RuntimeCache,
};
use lpa_cluster::{Cluster, FaultPlan};
use lpa_costmodel::NetworkCostModel;
use lpa_rl::{DqnAgent, EpisodeStats};
use lpa_schema::Schema;
use lpa_workload::Workload;
use parking_lot::Mutex;
use std::sync::Arc;

/// Reconstruction context for offline (cost-model-backed) sessions.
#[derive(Clone, Debug)]
pub struct OfflineTemplate {
    pub schema: Schema,
    pub workload: Workload,
    pub model: NetworkCostModel,
}

/// Reconstruction context for online (measured-runtime) sessions. The
/// cluster must be freshly built the same way the original was (same
/// schema, config and therefore generated data — data generation is a pure
/// function of the seed); the snapshot then re-applies clock, growth,
/// deployed partitioning and fault schedule.
#[derive(Debug)]
pub struct OnlineTemplate {
    pub schema: Schema,
    pub workload: Workload,
    pub cluster: Cluster,
    /// Re-attach the cost-model fallback (it holds no mutable state).
    pub fallback: Option<NetworkCostModel>,
    /// Replace the snapshot's fault schedule on restore — the "outage was
    /// resolved while the trainer was down" case. When the restored plan
    /// reports no active fault, cache entries measured under degraded
    /// conditions are dropped (and counted as invalidations) instead of
    /// surviving the restart untagged.
    pub fault_plan_override: Option<FaultPlan>,
}

/// Restore an offline advisor session from a snapshot.
pub fn restore_offline(
    snap: SessionSnapshot,
    template: &OfflineTemplate,
) -> Result<Advisor, StoreError> {
    let BackendState::Offline {
        mode,
        interner,
        memo,
        costs,
        current,
        stats,
    } = snap.backend
    else {
        return Err(StoreError::Incompatible(
            "snapshot holds an online backend; use restore_online".to_string(),
        ));
    };
    let engine = restore_engine(
        template.model.clone(),
        mode,
        interner,
        memo,
        costs,
        current,
        stats,
    );
    let env = AdvisorEnv::for_restore(
        template.schema.clone(),
        template.workload.clone(),
        RewardBackend::CostModel(Box::new(engine)),
        snap.sampler,
        snap.allow_compound,
        snap.reward_scale,
        snap.env_rng,
    );
    let agent = DqnAgent::from_raw_parts(
        snap.cfg,
        snap.q,
        snap.target,
        snap.opt,
        snap.epsilon,
        snap.buffer,
        snap.agent_rng,
    );
    Ok(Advisor::from_parts(env, agent))
}

/// Restore an online advisor session from a snapshot.
pub fn restore_online(
    snap: SessionSnapshot,
    template: OnlineTemplate,
) -> Result<Advisor, StoreError> {
    let BackendState::Online {
        mut resume,
        cluster: mut cluster_state,
        cache_interner,
        cache_entries,
        cache_hits,
        cache_misses,
    } = snap.backend
    else {
        return Err(StoreError::Incompatible(
            "snapshot holds an offline backend; use restore_offline".to_string(),
        ));
    };
    if let Some(plan) = template.fault_plan_override {
        cluster_state.faults = plan;
    }
    let mut cluster = template.cluster;
    cluster
        .restore_resume_state(cluster_state)
        .map_err(StoreError::Incompatible)?;
    let mut cache =
        RuntimeCache::from_parts(cache_interner, cache_entries, cache_hits, cache_misses);
    // A snapshot taken mid-outage carries degraded-tagged entries. If the
    // outage is over by the time we restore (e.g. the fault plan was
    // replaced), the usual recovery-event invalidation never fires — the
    // lookup path only compares against the *current* fault state — so
    // drop them here and account for it.
    if !cluster.fault_state().any_fault() {
        let dropped = cache.drop_degraded();
        resume.faults.cache_invalidations += dropped as u64;
    }
    let mut backend = OnlineBackend::new(
        shared_cluster(cluster),
        Arc::new(Mutex::new(cache)),
        resume.scale.clone(),
        resume.opts,
    );
    if let Some(model) = template.fallback {
        backend = backend.with_fallback(model, template.schema.clone());
    }
    backend.restore_resume_state(resume);
    let env = AdvisorEnv::for_restore(
        template.schema,
        template.workload,
        RewardBackend::Cluster(Box::new(backend)),
        snap.sampler,
        snap.allow_compound,
        snap.reward_scale,
        snap.env_rng,
    );
    let agent = DqnAgent::from_raw_parts(
        snap.cfg,
        snap.q,
        snap.target,
        snap.opt,
        snap.epsilon,
        snap.buffer,
        snap.agent_rng,
    );
    Ok(Advisor::from_parts(env, agent))
}

/// Capture a live advisor session at the given (last completed) episode.
pub fn capture_advisor(episode: u64, advisor: &Advisor) -> SessionSnapshot {
    SessionSnapshot::capture(episode, advisor.agent(), &advisor.env)
}

/// Outcome of a checkpointed training run. Checkpoint write failures are
/// non-fatal — training continues on the degraded-mode philosophy that a
/// lost checkpoint costs recovery granularity, not training progress — but
/// they are counted and the last error is kept for reporting.
#[derive(Clone, Debug, Default)]
pub struct CheckpointingReport {
    /// Episodes the loop actually ran.
    pub episodes_run: usize,
    /// Checkpoints durably written.
    pub written: u64,
    /// Failed checkpoint writes (training continued).
    pub write_failures: u64,
    /// The last write error observed, if any.
    pub last_error: Option<String>,
}

/// Train from `start_episode` up to (exclusive) `episodes`, writing a
/// session checkpoint to `store` every `checkpoint_every` completed
/// episodes (`0` disables checkpointing). On return, the store's
/// checkpoint counters are mirrored into the offline engine's stats (when
/// the backend is offline) so [`lpa_rl::QEnvironment::counters`] surfaces
/// them alongside the cache and recost counters.
pub fn train_checkpointed(
    advisor: &mut Advisor,
    store: &mut CheckpointStore,
    start_episode: usize,
    episodes: usize,
    checkpoint_every: usize,
    on_episode: impl FnMut(&EpisodeStats),
) -> CheckpointingReport {
    let mut report = CheckpointingReport {
        episodes_run: episodes.saturating_sub(start_episode),
        ..CheckpointingReport::default()
    };
    advisor.train_episodes_from(start_episode, episodes, on_episode, |ep, agent, env| {
        if checkpoint_every == 0 || (ep + 1) % checkpoint_every != 0 {
            return;
        }
        let snap = SessionSnapshot::capture(ep as u64, agent, env);
        match store.save(&Checkpoint::Session(snap)) {
            Ok(_) => report.written += 1,
            Err(e) => {
                report.write_failures += 1;
                report.last_error = Some(e.to_string());
            }
        }
    });
    let c = store.counters();
    if let Some(engine) = advisor.env.backend_mut().as_cost_model_mut() {
        engine.stats.checkpoints_written = c.checkpoints_written;
        engine.stats.checkpoint_corruptions_detected = c.checkpoint_corruptions_detected;
        engine.stats.checkpoint_restores = c.checkpoint_restores;
        engine.stats.checkpoint_fallbacks = c.checkpoint_fallbacks;
    }
    report
}
