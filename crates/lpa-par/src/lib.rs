//! `lpa-par`: the workspace's deterministic parallel execution layer.
//!
//! Every hot loop in the advisor — committee experts training on disjoint
//! subspaces, the simulator's per-node join work, batched Q-network
//! matmuls — is embarrassingly parallel, but the training signal must stay
//! *bit-identical* no matter how many OS threads run it (lint rules
//! L002/L003/L005 guard determinism at the source level; this crate guards
//! it at the scheduling level). The contract:
//!
//! 1. Work is split into **fixed, index-ordered chunks** whose boundaries
//!    depend only on the input length (and an explicit chunk size), never
//!    on the thread count.
//! 2. Each chunk's result is written into its own preallocated slot; which
//!    worker computes a chunk is irrelevant because chunks share no state.
//! 3. Reduction always happens **in chunk order on one thread**, so
//!    floating-point sums associate identically under `LPA_THREADS=1` and
//!    `LPA_THREADS=8`.
//!
//! The pool is std-only (scoped threads + an atomic chunk cursor; the
//! workspace `parking_lot` stand-in provides the panic-free slot mutexes)
//! and is the *only* place in the workspace allowed to touch
//! `std::thread` — lint rule L006 enforces that every other crate goes
//! through this API.
//!
//! Thread count resolution, in priority order:
//! 1. a [`with_threads`] scope (tests pin counts without touching the
//!    process environment),
//! 2. the `LPA_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Steps 2 and 3 are read **once per process**, on the first
//! [`Pool::current`] call that reaches them: set (or remove) `LPA_THREADS`
//! before that call, use [`with_threads`] afterwards.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod schedule;

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Scoped thread-count override (outermost wins for nested scopes).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside pool workers so nested `Pool::current()` calls degrade to
    /// serial execution instead of oversubscribing the machine.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the pool thread count pinned to `n` on this thread
/// (affects every `Pool::current()` call made inside `f`). Results are
/// bit-identical for any `n` — this exists so differential tests can
/// compare thread counts without mutating `LPA_THREADS` process-wide.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let result = f();
    THREAD_OVERRIDE.with(|o| o.set(prev));
    result
}

/// SplitMix64 finalizer — the workspace's standard bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent RNG stream seed from a base seed and a stream id
/// (e.g. `(cfg.seed, expert_id)` for committee experts). Streams are
/// decorrelated by SplitMix64 mixing, and the derivation is pure — the
/// same `(seed, stream)` always yields the same value, regardless of
/// which thread asks.
pub fn derive_stream(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_add(0xA5A5_0FF1_CE00_0001)))
}

/// Two-level stream derivation: the canonical way to salt a seed by both a
/// coarse partition (e.g. tenant id) and a purpose within that partition
/// (e.g. "agent rng" vs "fault plan"). Chaining [`derive_stream`] keeps
/// the two axes independent — `(a, b)` and `(b, a)` land in different
/// streams because each level adds its own mixing round — and the fleet's
/// salt-collision audit property-tests exactly this function.
pub fn derive_stream3(seed: u64, a: u64, b: u64) -> u64 {
    derive_stream(derive_stream(seed, a), b)
}

/// A scoped thread pool with a fixed worker count. Workers are spawned per
/// operation (`std::thread::scope`), so the pool itself is just a resolved
/// thread count — cheap to construct, `Copy`, and safe to create anywhere.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `n` worker threads (clamped to ≥ 1).
    pub fn with_threads(n: usize) -> Self {
        Self { threads: n.max(1) }
    }

    /// The ambient pool: a [`with_threads`] override if one is active,
    /// else `LPA_THREADS`, else the machine's available parallelism (the
    /// last two resolved once per process).
    /// Inside a pool worker this always resolves to 1 so nested parallel
    /// calls run inline instead of oversubscribing.
    pub fn current() -> Self {
        if IN_POOL_WORKER.with(Cell::get) {
            return Self::with_threads(1);
        }
        if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
            return Self::with_threads(n);
        }
        static AMBIENT: OnceLock<usize> = OnceLock::new();
        Self::with_threads(*AMBIENT.get_or_init(|| {
            std::env::var("LPA_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }))
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `task(0..n_tasks)` across the pool. Tasks are claimed from
    /// an atomic cursor; *which* worker runs a task is scheduling noise
    /// because tasks share no mutable state — determinism comes from the
    /// caller assembling task outputs in task order.
    fn run(&self, n_tasks: usize, task: impl Fn(usize) + Sync) {
        let workers = self.threads.min(n_tasks);
        if workers <= 1 {
            for i in 0..n_tasks {
                task(i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let work = || {
            let entered = IN_POOL_WORKER.with(|f| f.replace(true));
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                task(i);
            }
            IN_POOL_WORKER.with(|f| f.set(entered));
        };
        // `&closure` is itself `Fn()` and `Copy`, so every worker can share
        // the one closure without clippy's move/borrow lints fighting.
        let work = &work;
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            // The calling thread is worker 0.
            work();
        });
    }

    /// Map `f` over `items` in parallel, preserving order. Equivalent to
    /// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` — and
    /// bit-identical to it for any thread count.
    pub fn par_map<T: Sync, U: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> U + Sync,
    ) -> Vec<U> {
        self.par_map_chunked(items, default_chunk_len(items.len()), f)
    }

    /// [`Pool::par_map`] with an explicit chunk length. The chunk layout is
    /// a pure function of `(items.len(), chunk_len)`; output order is index
    /// order regardless of which worker ran which chunk.
    pub fn par_map_chunked<T: Sync, U: Send>(
        &self,
        items: &[T],
        chunk_len: usize,
        f: impl Fn(usize, &T) -> U + Sync,
    ) -> Vec<U> {
        let chunk_len = chunk_len.max(1);
        let n_chunks = items.len().div_ceil(chunk_len);
        let slots: Vec<Mutex<Vec<U>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();
        self.run(n_chunks, |c| {
            let lo = c * chunk_len;
            let hi = (lo + chunk_len).min(items.len());
            let mut out = Vec::with_capacity(hi - lo);
            for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
                out.push(f(i, item));
            }
            *slots[c].lock() = out;
        });
        let mut result = Vec::with_capacity(items.len());
        for s in slots {
            result.append(&mut s.into_inner());
        }
        result
    }

    /// Map over owned items (one task per item — meant for coarse work
    /// such as training one committee expert). Output order is item order.
    pub fn par_map_owned<T: Send, U: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(usize, T) -> U + Sync,
    ) -> Vec<U> {
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<U>>> = (0..inputs.len()).map(|_| Mutex::new(None)).collect();
        self.run(inputs.len(), |i| {
            if let Some(item) = inputs[i].lock().take() {
                *slots[i].lock() = Some(f(i, item));
            }
        });
        // `run` visits every index exactly once, so every slot is filled;
        // `flatten` (rather than unwrap) keeps the library panic-free.
        slots.into_iter().filter_map(Mutex::into_inner).collect()
    }

    /// Map `f` over the index range `0..n` with one task per index (coarse
    /// tasks, e.g. one simulated cluster node each). Output is in index
    /// order.
    pub fn par_index_map<U: Send>(&self, n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
        let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run(n, |i| {
            *slots[i].lock() = Some(f(i));
        });
        slots.into_iter().filter_map(Mutex::into_inner).collect()
    }

    /// Process disjoint `chunk_len`-sized chunks of `data` in parallel.
    /// `f` receives `(chunk_index, chunk)`; the element offset of a chunk
    /// is `chunk_index * chunk_len`. Used for row-range matmul parallelism
    /// where each output cell is computed exactly once.
    pub fn par_chunks_mut<U: Send>(
        &self,
        data: &mut [U],
        chunk_len: usize,
        f: impl Fn(usize, &mut [U]) + Sync,
    ) {
        let chunk_len = chunk_len.max(1);
        let chunks: Vec<Mutex<&mut [U]>> = data.chunks_mut(chunk_len).map(Mutex::new).collect();
        self.run(chunks.len(), |c| {
            f(c, &mut chunks[c].lock());
        });
    }

    /// Parallel map followed by a **serial, index-ordered** fold — the
    /// deterministic replacement for a parallel reduction. The expensive
    /// `map` runs on the pool; the cheap `fold` runs on the calling thread
    /// over the mapped values in element order, so the result is
    /// bit-identical to `items.iter().map(f).fold(init, fold)` even for
    /// non-associative operations (floating-point sums).
    pub fn par_map_fold<T: Sync, U: Send, A>(
        &self,
        items: &[T],
        chunk_len: usize,
        map: impl Fn(usize, &T) -> U + Sync,
        init: A,
        fold: impl FnMut(A, U) -> A,
    ) -> A {
        self.par_map_chunked(items, chunk_len, map)
            .into_iter()
            .fold(init, fold)
    }
}

/// Default chunk length: a pure function of the input length (never the
/// thread count — chunk boundaries are part of the determinism contract).
/// Targets enough chunks for load balancing at any plausible worker count
/// while keeping per-chunk overhead negligible.
const TARGET_CHUNKS: usize = 64;

pub fn default_chunk_len(len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 32] {
            let got = Pool::with_threads(threads).par_map(&items, |_, x| x * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn chunk_layout_is_thread_independent() {
        // Results must be identical across thread counts even when f is
        // index-sensitive and the chunk length is awkward.
        let items: Vec<f64> = (0..337).map(|i| (i as f64).sin()).collect();
        let ref_out = Pool::with_threads(1).par_map_chunked(&items, 7, |i, x| x * i as f64);
        for threads in [2, 5, 8] {
            let out = Pool::with_threads(threads).par_map_chunked(&items, 7, |i, x| x * i as f64);
            assert_eq!(out, ref_out);
        }
    }

    #[test]
    fn ordered_fold_is_bit_identical_to_serial() {
        // Summing many magnitudes in f64 is order-sensitive; the ordered
        // fold must reproduce the serial association exactly.
        let items: Vec<f64> = (0..10_000)
            .map(|i| (i as f64 * 0.7).sin() * 10f64.powi((i % 17) - 8))
            .collect();
        let serial: f64 = items.iter().map(|x| x * 1.000001).sum();
        for threads in [1, 2, 8] {
            let par = Pool::with_threads(threads).par_map_fold(
                &items,
                13,
                |_, x| x * 1.000001,
                0.0f64,
                |a, x| a + x,
            );
            assert!(
                par.to_bits() == serial.to_bits(),
                "threads={threads}: {par} vs {serial}"
            );
        }
    }

    #[test]
    fn par_map_owned_moves_items_in_order() {
        let items: Vec<String> = (0..40).map(|i| format!("x{i}")).collect();
        let expect: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        for threads in [1, 4] {
            let got =
                Pool::with_threads(threads).par_map_owned(items.clone(), |_, s| format!("{s}!"));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn par_index_map_covers_every_index_once() {
        let got = Pool::with_threads(8).par_index_map(100, |i| i * i);
        assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_every_cell_once() {
        let mut data = vec![0u32; 1003];
        Pool::with_threads(8).par_chunks_mut(&mut data, 17, |c, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (c * 17 + k) as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let outer = Pool::current().threads();
        let inner = with_threads(3, || Pool::current().threads());
        assert_eq!(inner, 3);
        assert_eq!(Pool::current().threads(), outer);
        // Nested overrides: innermost wins while active.
        let (a, b) = with_threads(5, || {
            let a = Pool::current().threads();
            let b = with_threads(2, || Pool::current().threads());
            (a, b)
        });
        assert_eq!((a, b), (5, 2));
    }

    #[test]
    fn nested_pool_calls_degrade_to_serial() {
        // A par_map inside a pool worker must not spawn a second tier of
        // threads; it still produces the same (ordered) result.
        let outer: Vec<Vec<usize>> = Pool::with_threads(4).par_index_map(6, |i| {
            assert_eq!(Pool::current().threads(), 1, "nested pool must be serial");
            Pool::current().par_index_map(5, move |j| i * 10 + j)
        });
        for (i, inner) in outer.iter().enumerate() {
            assert_eq!(inner, &(0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn derive_stream_is_pure_and_decorrelated() {
        assert_eq!(derive_stream(42, 7), derive_stream(42, 7));
        let s: Vec<u64> = (0..64).map(|i| derive_stream(123, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len(), "stream seeds must be distinct");
        assert!(s.iter().all(|&x| x != 123), "streams differ from the base");
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::with_threads(8).par_map(&empty, |_, x| *x).is_empty());
        assert_eq!(Pool::with_threads(8).par_map(&[9u8], |_, x| *x), vec![9]);
        assert_eq!(
            Pool::with_threads(8).par_map_fold(&empty, 4, |_, x| *x as u64, 5u64, |a, x| a + x),
            5
        );
    }
}
