//! Opt-in phase timers for the training hot path.
//!
//! When enabled (`lpa-perf`'s `offline_train` workload turns this on), the
//! agent's action-selection and train-step code attribute their wall time
//! to four phases: state/action **encode**, **env** interaction (action
//! enumeration), **replay** sampling, and **nn** forward/backward work.
//! Accumulators are thread-local `u64` nanosecond counters — no floats
//! (determinism lint L005 covers this crate) and no cross-thread state.
//! When disabled, instrumented sites pay a single thread-local boolean
//! read and no clock calls, so training results and throughput are
//! unaffected. Timers never feed back into training — they are pure
//! observability and cannot change a single bit of the trajectory.

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ENCODE_NS: Cell<u64> = const { Cell::new(0) };
    static ENV_NS: Cell<u64> = const { Cell::new(0) };
    static REPLAY_NS: Cell<u64> = const { Cell::new(0) };
    static NN_NS: Cell<u64> = const { Cell::new(0) };
}

/// Which accumulator a timed section charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `(state, action)` featurization.
    Encode,
    /// Environment work: action enumeration and stepping.
    Env,
    /// Replay-buffer sampling.
    Replay,
    /// Network forwards, backward passes and target updates.
    Nn,
}

/// Accumulated per-phase nanoseconds for the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    pub encode_ns: u64,
    pub env_ns: u64,
    pub replay_ns: u64,
    pub nn_ns: u64,
}

/// Turn phase accounting on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether phase accounting is on for the calling thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Zero all phase accumulators for the calling thread.
pub fn reset() {
    ENCODE_NS.with(|c| c.set(0));
    ENV_NS.with(|c| c.set(0));
    REPLAY_NS.with(|c| c.set(0));
    NN_NS.with(|c| c.set(0));
}

/// Snapshot the calling thread's accumulators.
pub fn snapshot() -> PhaseNanos {
    PhaseNanos {
        encode_ns: ENCODE_NS.with(Cell::get),
        env_ns: ENV_NS.with(Cell::get),
        replay_ns: REPLAY_NS.with(Cell::get),
        nn_ns: NN_NS.with(Cell::get),
    }
}

/// Start a timed section: `None` (and no clock read) when disabled.
#[inline]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Close a timed section opened by [`start`], charging `phase`.
#[inline]
pub fn stop(t0: Option<Instant>, phase: Phase) {
    let Some(t0) = t0 else {
        return;
    };
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let cell = match phase {
        Phase::Encode => &ENCODE_NS,
        Phase::Env => &ENV_NS,
        Phase::Replay => &REPLAY_NS,
        Phase::Nn => &NN_NS,
    };
    cell.with(|c| c.set(c.get().saturating_add(ns)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sections_cost_nothing_and_record_nothing() {
        set_enabled(false);
        reset();
        let t = start();
        assert!(t.is_none());
        stop(t, Phase::Nn);
        assert_eq!(snapshot(), PhaseNanos::default());
    }

    #[test]
    fn enabled_sections_accumulate_into_their_phase() {
        set_enabled(true);
        reset();
        let t = start();
        assert!(t.is_some());
        std::hint::black_box(vec![0u8; 4096]);
        stop(t, Phase::Encode);
        let snap = snapshot();
        assert!(snap.encode_ns > 0);
        assert_eq!(snap.nn_ns, 0);
        set_enabled(false);
        reset();
    }
}
