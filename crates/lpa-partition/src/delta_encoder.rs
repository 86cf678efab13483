//! Dirty-tracked incremental state encoding.
//!
//! [`StateEncoder`] re-encodes the full state vector on every step even
//! though an [`Action`] touches exactly one table or edge. [`DeltaEncoder`]
//! keeps the previous `(Partitioning, FrequencyVector)` plus the encoded
//! state prefix in a reused arena buffer, and on each call patches only the
//! feature slots whose inputs changed: the one-hot block of a re-partitioned
//! table, a flipped edge bit, a moved frequency slot. Unchanged slots are
//! untouched bytes.
//!
//! Bit-exactness contract (DESIGN.md §13): every patched slot is written by
//! the *same* expression the full encoder would use (`fill(0.0)` + one-hot
//! writes per table block, `1.0`/`0.0` per edge bit, `*f as f32` per
//! frequency slot), so the arena is byte-for-byte equal to a fresh
//! [`StateEncoder::encode_state_into`] after every call. The full re-encode
//! stays available as the oracle: property tests drive hundreds of random
//! action sequences and compare byte-for-byte, and
//! [`with_full_encode`] forces the oracle path at runtime for full-training
//! differentials.
//!
//! Steady-state calls must not allocate: `tests/alloc_counts.rs` (rule
//! L013) pins `state_prefix`, `encode_input` and `encode_batch` at zero
//! allocations per warm call.

use std::cell::Cell;

use crate::action::Action;
use crate::encoder::{put, StateEncoder};
use crate::partitioning::{Partitioning, TableState};
use lpa_workload::FrequencyVector;

thread_local! {
    static FORCE_FULL: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the delta encoder forced onto the full re-encode oracle
/// path. Used by differential harnesses; composes with
/// `lpa_nn::with_naive_kernels`.
pub fn with_full_encode<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_FULL.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(FORCE_FULL.with(|c| c.replace(true)));
    f()
}

/// True while inside [`with_full_encode`] on this thread.
pub(crate) fn full_encode_forced() -> bool {
    FORCE_FULL.with(|c| c.get())
}

/// The inputs the cached state prefix was encoded from.
#[derive(Clone, Debug)]
struct CachedInputs {
    tables: Vec<TableState>,
    edges: Vec<bool>,
    freqs: Vec<f64>,
}

/// Incremental (dirty-tracked) wrapper around [`StateEncoder`].
///
/// Owns a reused `state_dim` arena holding the encoding of the last state
/// seen; [`Self::state_prefix`] patches it in place and returns it.
#[derive(Clone, Debug)]
pub struct DeltaEncoder {
    enc: StateEncoder,
    buf: Vec<f32>,
    cached: Option<CachedInputs>,
    patches: u64,
    rebuilds: u64,
}

impl DeltaEncoder {
    pub fn new(enc: StateEncoder) -> Self {
        let mut buf = Vec::with_capacity(enc.state_dim);
        buf.resize(enc.state_dim, 0.0);
        Self {
            enc,
            buf,
            cached: None,
            patches: 0,
            rebuilds: 0,
        }
    }

    /// The wrapped layout.
    pub fn encoder(&self) -> &StateEncoder {
        &self.enc
    }

    /// Calls answered by patching the cached arena.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Calls answered by a full re-encode (first use, forced oracle).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Drop the cached state (the next call re-encodes in full).
    pub fn invalidate(&mut self) {
        self.cached = None;
    }

    /// Encode `(p, f)` into the arena — patching dirty slots only — and
    /// return the `state_dim` prefix. Byte-for-byte equal to
    /// [`StateEncoder::encode_state_into`] on a zeroed buffer.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: ti and ei enumerate the schema's tables and edges, which sized the cache and offsets"
    )]
    pub fn state_prefix(&mut self, p: &Partitioning, f: &FrequencyVector) -> &[f32] {
        assert!(
            f.len() <= self.enc.freq_slots,
            "frequency vector longer than layout ({} > {})",
            f.len(),
            self.enc.freq_slots
        );
        match (&mut self.cached, full_encode_forced()) {
            (Some(c), false) => {
                self.patches += 1;
                for (ti, new) in p.table_states().iter().enumerate() {
                    if c.tables[ti] == *new {
                        continue;
                    }
                    let base = self.enc.table_offsets[ti];
                    let dim = self.enc.table_dims[ti];
                    self.buf[base..base + dim].fill(0.0);
                    match new {
                        TableState::Replicated => put(&mut self.buf, base, 1.0),
                        TableState::PartitionedBy(a) => {
                            debug_assert!(1 + a.0 < dim);
                            put(&mut self.buf, base + 1 + a.0, 1.0);
                        }
                    }
                    c.tables[ti] = *new;
                }
                for (ei, new) in p.edge_flags().iter().enumerate() {
                    if c.edges[ei] != *new {
                        put(
                            &mut self.buf,
                            self.enc.edge_offset + ei,
                            if *new { 1.0 } else { 0.0 },
                        );
                        c.edges[ei] = *new;
                    }
                }
                // Frequency tail: slots past the vector's length are 0.0 in
                // a full encode, so a shrink must zero the stale tail.
                let new_f = f.as_slice();
                let n = new_f.len().max(c.freqs.len());
                for i in 0..n {
                    let new_v = new_f.get(i).copied();
                    let old_v = c.freqs.get(i).copied();
                    if new_v.map(f64::to_bits) != old_v.map(f64::to_bits) {
                        put(
                            &mut self.buf,
                            self.enc.freq_offset + i,
                            new_v.unwrap_or(0.0) as f32,
                        );
                    }
                }
                c.freqs.clear();
                c.freqs.extend_from_slice(new_f);
            }
            (cached, _) => {
                self.rebuilds += 1;
                self.enc.encode_state_into(p, f, &mut self.buf);
                match cached {
                    Some(c) => {
                        c.tables.clear();
                        c.tables.extend_from_slice(p.table_states());
                        c.edges.clear();
                        c.edges.extend_from_slice(p.edge_flags());
                        c.freqs.clear();
                        c.freqs.extend_from_slice(f.as_slice());
                    }
                    None => {
                        let mut tables = Vec::with_capacity(p.table_states().len());
                        tables.extend_from_slice(p.table_states());
                        let mut edges = Vec::with_capacity(p.edge_flags().len());
                        edges.extend_from_slice(p.edge_flags());
                        let mut freqs = Vec::with_capacity(self.enc.freq_slots);
                        freqs.extend_from_slice(f.as_slice());
                        *cached = Some(CachedInputs {
                            tables,
                            edges,
                            freqs,
                        });
                    }
                }
            }
        }
        &self.buf
    }

    /// Incremental equivalent of [`StateEncoder::encode_input`].
    pub fn encode_input(
        &mut self,
        p: &Partitioning,
        f: &FrequencyVector,
        a: &Action,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.enc.input_dim());
        self.state_prefix(p, f);
        let (s, act) = out.split_at_mut(self.enc.state_dim);
        s.copy_from_slice(&self.buf);
        self.enc.encode_action_into(a, act);
    }

    /// Incremental equivalent of [`StateEncoder::encode_batch`]: the state
    /// prefix is patched once and block-copied into every row.
    pub fn encode_batch(
        &mut self,
        p: &Partitioning,
        f: &FrequencyVector,
        actions: &[Action],
        out: &mut [f32],
    ) {
        let dim = self.enc.input_dim();
        assert_eq!(out.len(), actions.len() * dim, "output buffer size");
        if actions.is_empty() {
            return;
        }
        self.state_prefix(p, f);
        for (row, a) in out.chunks_exact_mut(dim).zip(actions) {
            let (s, act) = row.split_at_mut(self.enc.state_dim);
            s.copy_from_slice(&self.buf);
            self.enc.encode_action_into(a, act);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::valid_actions;
    use lpa_schema::Schema;

    fn setup() -> (Schema, StateEncoder) {
        let s = lpa_schema::ssb::schema(0.001).expect("schema builds");
        let enc = StateEncoder::new(&s, 13);
        (s, enc)
    }

    fn assert_prefix_matches(
        enc: &StateEncoder,
        delta: &mut DeltaEncoder,
        p: &Partitioning,
        f: &FrequencyVector,
    ) {
        let want = enc.encode_state(p, f);
        let got = delta.state_prefix(p, f);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "slot {i}");
        }
    }

    #[test]
    fn walk_of_actions_patches_bitwise() {
        let (s, enc) = setup();
        let mut delta = DeltaEncoder::new(enc.clone());
        let mut p = Partitioning::initial(&s);
        let f = FrequencyVector::from_counts(&[1.0, 3.0, 0.5], 13);
        assert_prefix_matches(&enc, &mut delta, &p, &f);
        // Deterministic walk: always apply the middle valid action.
        for step in 0..40 {
            let acts = valid_actions(&s, &p);
            let a = acts[(step * 7 + 3) % acts.len()];
            p = a.apply(&s, &p).expect("valid action applies");
            assert_prefix_matches(&enc, &mut delta, &p, &f);
        }
        assert_eq!(delta.rebuilds(), 1, "only the first call re-encodes");
        assert_eq!(delta.patches(), 40);
    }

    #[test]
    fn frequency_resample_and_shrink_patch() {
        let (s, enc) = setup();
        let mut delta = DeltaEncoder::new(enc.clone());
        let p = Partitioning::initial(&s);
        let long = FrequencyVector::from_counts(&[1.0, 2.0, 3.0, 4.0], 13);
        let short = FrequencyVector::from_counts(&[5.0], 13);
        assert_prefix_matches(&enc, &mut delta, &p, &long);
        // Shrinking the vector must zero the stale tail slots.
        assert_prefix_matches(&enc, &mut delta, &p, &short);
        assert_prefix_matches(&enc, &mut delta, &p, &long);
    }

    #[test]
    fn batch_matches_full_encoder_bitwise() {
        let (s, enc) = setup();
        let mut delta = DeltaEncoder::new(enc.clone());
        let mut p = Partitioning::initial(&s);
        let f = FrequencyVector::from_counts(&[1.0, 3.0], 13);
        // Prime the cache, then mutate and batch-encode.
        let _ = delta.state_prefix(&p, &f);
        let acts = valid_actions(&s, &p);
        p = acts[0].apply(&s, &p).expect("applies");
        let acts = valid_actions(&s, &p);
        let dim = enc.input_dim();
        let mut want = vec![0.111f32; acts.len() * dim];
        let mut got = vec![0.222f32; acts.len() * dim];
        enc.encode_batch(&p, &f, &acts, &mut want);
        delta.encode_batch(&p, &f, &acts, &mut got);
        assert!(
            got.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "batch rows differ"
        );
        // Empty action set is a no-op.
        delta.encode_batch(&p, &f, &[], &mut []);
    }

    #[test]
    fn forced_full_encode_rebuilds_every_call() {
        let (s, enc) = setup();
        let mut delta = DeltaEncoder::new(enc.clone());
        let p = Partitioning::initial(&s);
        let f = FrequencyVector::uniform(13);
        with_full_encode(|| {
            assert_prefix_matches(&enc, &mut delta, &p, &f);
            assert_prefix_matches(&enc, &mut delta, &p, &f);
        });
        assert_eq!(delta.rebuilds(), 2);
        assert_eq!(delta.patches(), 0);
        assert!(!full_encode_forced());
        // Back outside the guard the cache resumes patching.
        assert_prefix_matches(&enc, &mut delta, &p, &f);
        assert_eq!(delta.patches(), 1);
    }

    #[test]
    fn invalidate_forces_one_rebuild() {
        let (s, enc) = setup();
        let mut delta = DeltaEncoder::new(enc.clone());
        let p = Partitioning::initial(&s);
        let f = FrequencyVector::uniform(13);
        let _ = delta.state_prefix(&p, &f);
        delta.invalidate();
        assert_prefix_matches(&enc, &mut delta, &p, &f);
        assert_eq!(delta.rebuilds(), 2);
    }
}
