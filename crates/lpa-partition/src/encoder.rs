//! Fixed-length state and action encodings for the Q-network (Fig. 2 of
//! the paper).
//!
//! The state vector appends, in order: one block per table
//! (`[replicated, attr_0, attr_1, …]` one-hot), one bit per candidate edge,
//! and the normalized query-frequency vector. The action vector appends a
//! one-hot action kind, table, attribute and edge. Q(s,a) is computed from
//! the concatenation of both.

use crate::action::Action;
use crate::partitioning::{Partitioning, TableState};
use lpa_schema::Schema;
use lpa_workload::FrequencyVector;

/// Number of action kinds (partition / replicate / activate / deactivate).
const ACTION_KINDS: usize = 4;

/// Write `v` at offset `i`, ignoring out-of-range offsets. Layout
/// invariants are asserted against the buffer length on entry to each
/// encode method; a stale offset must degrade the encoding, not abort the
/// training episode.
pub(crate) fn put(out: &mut [f32], i: usize, v: f32) {
    if let Some(slot) = out.get_mut(i) {
        *slot = v;
    }
}

/// Precomputed layout of the state/action encodings for one schema and one
/// workload size.
#[derive(Clone, Debug)]
pub struct StateEncoder {
    pub(crate) table_offsets: Vec<usize>,
    pub(crate) table_dims: Vec<usize>,
    pub(crate) edge_offset: usize,
    pub(crate) freq_offset: usize,
    pub(crate) freq_slots: usize,
    pub(crate) state_dim: usize,
    pub(crate) n_tables: usize,
    pub(crate) max_attrs: usize,
    pub(crate) action_dim: usize,
}

impl StateEncoder {
    /// Layout for `schema` with `freq_slots` query-frequency entries
    /// (active queries plus reserved slots).
    pub fn new(schema: &Schema, freq_slots: usize) -> Self {
        let mut table_offsets = Vec::with_capacity(schema.tables().len());
        let mut table_dims = Vec::with_capacity(schema.tables().len());
        let mut off = 0;
        for t in schema.tables() {
            table_offsets.push(off);
            let dim = 1 + t.attributes.len();
            table_dims.push(dim);
            off += dim;
        }
        let edge_offset = off;
        let n_edges = schema.edges().len();
        let freq_offset = edge_offset + n_edges;
        let state_dim = freq_offset + freq_slots;
        let n_tables = schema.tables().len();
        let max_attrs = schema
            .tables()
            .iter()
            .map(|t| t.attributes.len())
            .max()
            .unwrap_or(0);
        let action_dim = ACTION_KINDS + n_tables + max_attrs + n_edges;
        Self {
            table_offsets,
            table_dims,
            edge_offset,
            freq_offset,
            freq_slots,
            state_dim,
            n_tables,
            max_attrs,
            action_dim,
        }
    }

    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Dimension of the Q-network input (state ‖ action).
    pub fn input_dim(&self) -> usize {
        self.state_dim + self.action_dim
    }

    pub fn freq_slots(&self) -> usize {
        self.freq_slots
    }

    /// Encode a state into `out[..state_dim]` (zeroing it first).
    #[expect(
        clippy::indexing_slicing,
        reason = "ti enumerates the schema's tables, which sized the offset and dim tables"
    )]
    pub fn encode_state_into(
        &self,
        partitioning: &Partitioning,
        freqs: &FrequencyVector,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.state_dim, "output buffer size");
        assert!(
            freqs.len() <= self.freq_slots,
            "frequency vector longer than layout ({} > {})",
            freqs.len(),
            self.freq_slots
        );
        out.fill(0.0);
        for (ti, state) in partitioning.table_states().iter().enumerate() {
            let base = self.table_offsets[ti];
            match state {
                TableState::Replicated => put(out, base, 1.0),
                TableState::PartitionedBy(a) => {
                    debug_assert!(1 + a.0 < self.table_dims[ti]);
                    put(out, base + 1 + a.0, 1.0);
                }
            }
        }
        for e in partitioning.active_edges() {
            put(out, self.edge_offset + e.0, 1.0);
        }
        for (i, f) in freqs.as_slice().iter().enumerate() {
            put(out, self.freq_offset + i, *f as f32);
        }
    }

    /// Encode an action into `out[..action_dim]` (zeroing it first).
    #[expect(
        clippy::indexing_slicing,
        reason = "out.len() == action_dim is asserted, and action_dim counts the four action kinds first"
    )]
    pub fn encode_action_into(&self, action: &Action, out: &mut [f32]) {
        assert_eq!(out.len(), self.action_dim, "output buffer size");
        out.fill(0.0);
        let table_base = ACTION_KINDS;
        let attr_base = table_base + self.n_tables;
        let edge_base = attr_base + self.max_attrs;
        match *action {
            Action::Partition { table, attr } => {
                out[0] = 1.0;
                put(out, table_base + table.0, 1.0);
                put(out, attr_base + attr.0, 1.0);
            }
            Action::Replicate { table } => {
                out[1] = 1.0;
                put(out, table_base + table.0, 1.0);
            }
            Action::ActivateEdge(e) => {
                out[2] = 1.0;
                put(out, edge_base + e.0, 1.0);
            }
            Action::DeactivateEdge(e) => {
                out[3] = 1.0;
                put(out, edge_base + e.0, 1.0);
            }
        }
    }

    /// Convenience allocating variants.
    pub fn encode_state(&self, p: &Partitioning, f: &FrequencyVector) -> Vec<f32> {
        let mut v = vec![0.0; self.state_dim];
        self.encode_state_into(p, f, &mut v);
        v
    }

    pub fn encode_action(&self, a: &Action) -> Vec<f32> {
        let mut v = vec![0.0; self.action_dim];
        self.encode_action_into(a, &mut v);
        v
    }

    /// Encode state ‖ action in one buffer (the Q-network input).
    pub fn encode_input(&self, p: &Partitioning, f: &FrequencyVector, a: &Action, out: &mut [f32]) {
        assert_eq!(out.len(), self.input_dim());
        let (s, act) = out.split_at_mut(self.state_dim);
        self.encode_state_into(p, f, s);
        self.encode_action_into(a, act);
    }

    /// Encode `(state, action_i)` rows for every action into `out`, a
    /// row-major `actions.len() × input_dim` buffer.
    ///
    /// The Q-network scores every candidate action against the *same*
    /// state, so the state prefix is encoded once and block-copied into
    /// the remaining rows; only the short action suffix is written per
    /// row. Bit-identical to calling [`Self::encode_input`] per row (same
    /// writes, different write order).
    #[expect(
        clippy::indexing_slicing,
        reason = "out holds one state row plus one action row per action; actions is non-empty"
    )]
    pub fn encode_batch(
        &self,
        p: &Partitioning,
        f: &FrequencyVector,
        actions: &[Action],
        out: &mut [f32],
    ) {
        let dim = self.input_dim();
        assert_eq!(out.len(), actions.len() * dim, "output buffer size");
        if actions.is_empty() {
            return;
        }
        self.encode_state_into(p, f, &mut out[..self.state_dim]);
        let (first, rest) = out.split_at_mut(dim);
        let (state_prefix, first_action) = first.split_at_mut(self.state_dim);
        self.encode_action_into(&actions[0], first_action);
        for (row, a) in rest.chunks_exact_mut(dim).zip(&actions[1..]) {
            let (s, act) = row.split_at_mut(self.state_dim);
            s.copy_from_slice(state_prefix);
            self.encode_action_into(a, act);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::valid_actions;
    use lpa_schema::{AttrId, EdgeId, TableId};

    fn setup() -> (Schema, StateEncoder) {
        let s = lpa_schema::ssb::schema(0.001).expect("schema builds");
        let enc = StateEncoder::new(&s, 13);
        (s, enc)
    }

    #[test]
    fn dims_match_layout() {
        let (s, enc) = setup();
        // Tables: lineorder(1+5) + customer(1+3) + supplier(1+3) +
        // part(1+3) + date(1+2) = 21; edges 4; freqs 13.
        assert_eq!(enc.state_dim(), 21 + 4 + 13);
        // Actions: 4 kinds + 5 tables + 5 max attrs + 4 edges.
        assert_eq!(enc.action_dim(), 4 + 5 + 5 + 4);
        assert_eq!(enc.input_dim(), enc.state_dim() + enc.action_dim());
        assert_eq!(s.edges().len(), 4);
    }

    #[test]
    fn paper_figure2_style_encoding() {
        // Mirror Fig. 2: partitioned tables put a single 1 in the attribute
        // slot, replicated tables set the leading bit.
        let (s, enc) = setup();
        let mut p = Partitioning::initial(&s);
        let cust = s.table_by_name("customer").unwrap();
        p = Action::Replicate { table: cust }.apply(&s, &p).unwrap();
        let f = FrequencyVector::from_counts(&[1.0, 2.0], 13);
        let v = enc.encode_state(&p, &f);
        // customer block starts after lineorder (6 entries).
        assert_eq!(v[6], 1.0, "replicated bit");
        assert_eq!(&v[7..10], &[0.0, 0.0, 0.0]);
        // lineorder partitioned by PK → slot 1 within its block.
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 1.0);
        // Frequencies normalized to (0.5, 1.0) at the tail.
        let freq_base = 21 + 4;
        assert_eq!(v[freq_base], 0.5);
        assert_eq!(v[freq_base + 1], 1.0);
    }

    #[test]
    fn each_state_block_is_one_hot() {
        let (s, enc) = setup();
        let p = Partitioning::initial(&s);
        let f = FrequencyVector::uniform(13);
        let v = enc.encode_state(&p, &f);
        let mut off = 0;
        for t in s.tables() {
            let dim = 1 + t.attributes.len();
            let ones = v[off..off + dim].iter().filter(|x| **x == 1.0).count();
            assert_eq!(ones, 1, "exactly one bit per table block");
            off += dim;
        }
    }

    #[test]
    fn action_encodings_are_distinct() {
        let (s, enc) = setup();
        let p = Partitioning::initial(&s);
        let actions = valid_actions(&s, &p);
        let mut seen = std::collections::HashSet::new();
        for a in &actions {
            let key: Vec<u32> = enc.encode_action(a).iter().map(|x| x.to_bits()).collect();
            assert!(seen.insert(key), "duplicate encoding for {a:?}");
        }
    }

    #[test]
    fn edge_bits_set() {
        let (s, enc) = setup();
        let p = Action::ActivateEdge(EdgeId(2))
            .apply(&s, &Partitioning::initial(&s))
            .unwrap();
        let f = FrequencyVector::uniform(13);
        let v = enc.encode_state(&p, &f);
        assert_eq!(v[21 + 2], 1.0);
        assert_eq!(v[21], 0.0);
    }

    #[test]
    fn encode_input_concatenates() {
        let (s, enc) = setup();
        let p = Partitioning::initial(&s);
        let f = FrequencyVector::uniform(13);
        let a = Action::Partition {
            table: TableId(0),
            attr: AttrId(2),
        };
        let mut buf = vec![0.0; enc.input_dim()];
        enc.encode_input(&p, &f, &a, &mut buf);
        assert_eq!(&buf[..enc.state_dim()], enc.encode_state(&p, &f).as_slice());
        assert_eq!(&buf[enc.state_dim()..], enc.encode_action(&a).as_slice());
    }

    #[test]
    fn encode_batch_bitwise_matches_per_row_encode() {
        let (s, enc) = setup();
        let mut p = Partitioning::initial(&s);
        p = Action::ActivateEdge(EdgeId(1)).apply(&s, &p).unwrap();
        let f = FrequencyVector::from_counts(&[1.0, 3.0, 0.5], 13);
        let actions = valid_actions(&s, &p);
        assert!(actions.len() > 1);
        let dim = enc.input_dim();
        let mut batch = vec![0.123f32; actions.len() * dim];
        enc.encode_batch(&p, &f, &actions, &mut batch);
        for (i, a) in actions.iter().enumerate() {
            let mut row = vec![0.0f32; dim];
            enc.encode_input(&p, &f, a, &mut row);
            let got = &batch[i * dim..(i + 1) * dim];
            assert!(
                got.iter()
                    .zip(&row)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "row {i} differs"
            );
        }
        // Empty action set is a no-op on an empty buffer.
        enc.encode_batch(&p, &f, &[], &mut []);
    }

    #[test]
    fn shorter_frequency_vector_pads() {
        let (s, enc) = setup();
        let p = Partitioning::initial(&s);
        let f = FrequencyVector::uniform(5);
        let v = enc.encode_state(&p, &f);
        assert_eq!(v[21 + 4 + 4], 1.0);
        assert_eq!(v[21 + 4 + 5], 0.0);
    }
}
