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

use crate::snapshot::{BackendState, Checkpoint, SessionSnapshot};
use crate::store::CheckpointStore;
use crate::StoreError;
use lpa_advisor::{
    shared_cluster, Advisor, AdvisorEnv, DeltaCostEngine, OnlineBackend, RewardBackend,
    RuntimeCache,
};
use lpa_cluster::{Cluster, FaultPlan};
use lpa_costmodel::NetworkCostModel;
use lpa_rl::{DqnAgent, EpisodeStats, QEnvironment};
use lpa_schema::Schema;
use lpa_workload::Workload;
use std::sync::{Arc, Mutex};

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

/// Restore an offline advisor session from a snapshot. `Incompatible`
/// when the snapshot holds an online backend, or networks whose input
/// width, layer shapes or optimizer moments do not fit the template.
pub fn restore_offline(
    snap: SessionSnapshot,
    template: &OfflineTemplate,
) -> Result<Advisor, StoreError> {
    restore_offline_over(
        snap,
        template.schema.clone(),
        template.workload.clone(),
        &template.model,
    )
}

/// [`restore_offline`] over a schema and workload the advisor takes as
/// they are.
pub(crate) fn restore_offline_over(
    snap: SessionSnapshot,
    schema: Schema,
    workload: Workload,
    model: &NetworkCostModel,
) -> Result<Advisor, StoreError> {
    restore_session(snap, schema, workload, |backend| {
        let BackendState::Offline {
            mode: _,
            interner,
            memo,
            costs,
            current,
            stats,
        } = backend
        else {
            return Err(StoreError::Incompatible(
                "snapshot holds an online backend; use restore_online".to_string(),
            ));
        };
        // The inverted indexes are not persisted: `restore_state` clears
        // them and they rebuild lazily on the next reward, identically.
        let mut engine = DeltaCostEngine::new(model.clone());
        engine.restore_state(interner, memo, costs, current, stats);
        Ok(RewardBackend::CostModel(Box::new(engine)))
    })
}

/// Restore an online advisor session from a snapshot. `Incompatible` as
/// for [`restore_offline`], and when the template's cluster refuses the
/// snapshot's cluster state.
pub fn restore_online(
    snap: SessionSnapshot,
    template: OnlineTemplate,
) -> Result<Advisor, StoreError> {
    let OnlineTemplate {
        schema,
        workload,
        mut cluster,
        fallback,
        fault_plan_override,
    } = template;
    let fallback = fallback.map(|model| (model, schema.clone()));
    restore_session(snap, schema, workload, move |backend| {
        let BackendState::Online {
            mut resume,
            cluster: mut cluster_state,
            cache_interner,
            cache_entries,
            cache_hits,
            cache_misses,
        } = backend
        else {
            return Err(StoreError::Incompatible(
                "snapshot holds an offline backend; use restore_offline".to_string(),
            ));
        };
        if let Some(plan) = fault_plan_override {
            cluster_state.faults = plan;
        }
        cluster
            .restore_resume_state(cluster_state)
            .map_err(StoreError::Incompatible)?;
        let mut cache =
            RuntimeCache::from_parts(cache_interner, cache_entries, cache_hits, cache_misses);
        // A snapshot taken mid-outage carries degraded-tagged entries. If
        // the outage is over by the time we restore (e.g. the fault plan was
        // replaced), the usual recovery-event invalidation never fires —
        // the lookup path only compares against the *current* fault state —
        // so drop them here and account for it.
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
        if let Some((model, schema)) = fallback {
            backend = backend.with_fallback(model, schema);
        }
        backend.restore_resume_state(resume);
        Ok(RewardBackend::Cluster(Box::new(backend)))
    })
}

/// The environment over `schema` and `workload` with the reward backend
/// `backend` rebuilds from the snapshot's, and the agent the snapshot
/// holds — checked to fit that environment first: a network the
/// environment does not feed would fail its first forward pass or
/// optimizer step with a panic, far from the restore that caused it. So
/// `q` and `target` must read the environment's input width and have the
/// same layer shapes, and the optimizer must hold one moment set per layer
/// of `q`, each as long as the layer's weights and bias. Otherwise
/// `Incompatible`.
fn restore_session(
    snap: SessionSnapshot,
    schema: Schema,
    workload: Workload,
    backend: impl FnOnce(BackendState) -> Result<RewardBackend, StoreError>,
) -> Result<Advisor, StoreError> {
    let SessionSnapshot {
        episode: _,
        cfg,
        q,
        target,
        opt,
        epsilon,
        buffer,
        agent_rng,
        sampler,
        backend: state,
        reward_scale,
        env_rng,
        allow_compound,
    } = snap;
    let env = AdvisorEnv::for_restore(
        schema,
        workload,
        backend(state)?,
        sampler,
        allow_compound,
        reward_scale,
        env_rng,
    );
    let q_shape = q.layer_dims();
    let reads = q_shape.first().map(|&(input, _)| input);
    if reads != Some(env.input_dim()) {
        return Err(StoreError::Incompatible(format!(
            "the network reads {reads:?} inputs, the environment encodes {}",
            env.input_dim()
        )));
    }
    let target_shape = target.layer_dims();
    if target_shape != q_shape {
        return Err(StoreError::Incompatible(format!(
            "target network layers {target_shape:?}, Q network layers {q_shape:?}"
        )));
    }
    let moments = opt.layer_moments();
    let fits = moments.len() == q_shape.len()
        && moments
            .iter()
            .zip(&q_shape)
            .all(|((mw, vw, mb, vb), &(input, units))| {
                mw.len() == input * units
                    && vw.len() == mw.len()
                    && mb.len() == units
                    && vb.len() == mb.len()
            });
    if !fits {
        return Err(StoreError::Incompatible(
            "optimizer moments do not match the Q network's layers".to_string(),
        ));
    }
    let agent = DqnAgent::from_raw_parts(cfg, q, target, opt, epsilon, buffer, agent_rng);
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
