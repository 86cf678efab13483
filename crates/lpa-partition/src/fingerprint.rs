//! Interned, fixed-width cache keys for partitioning states.
//!
//! The step-loop caches (offline cost cache, online runtime cache, the
//! action-set cache) all key on "physical states of some tables" — which
//! the seed code materialized as a fresh `Vec<TableState>` per lookup.
//! This module replaces that with *interning*: every distinct packed key
//! is assigned a dense [`InternedKey`] exactly once (through a `BTreeMap`,
//! never a `HashMap` — lint L002), and every later lookup packs the state
//! into a reused scratch buffer, so the hot path allocates nothing.
//!
//! Keys are fully collision-free by construction: the interner compares
//! the *complete* packed state, not a hash of it, so two distinct
//! physical layouts can never receive the same id. The 64-bit
//! [`fingerprint64`] is a convenience digest for logs and bench reports
//! only — never a cache key.

use crate::action::Action;
use crate::partitioning::{Partitioning, TableState};
use lpa_schema::TableId;
use std::collections::BTreeMap;

/// Dense id of one distinct packed key within a [`KeyInterner`].
///
/// Fixed-width (`u32`), `Copy`, and totally ordered — a `(query, key)`
/// pair is a two-word `BTreeMap` key with no heap indirection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct InternedKey(pub u32);

/// Packs one table state into a word: `0` = replicated, `attr + 1` =
/// partitioned by `attr`. Lossless for any schema with < 2^32 - 1
/// attributes per table.
#[inline]
pub fn pack(state: TableState) -> u32 {
    match state {
        TableState::Replicated => 0,
        TableState::PartitionedBy(a) => a.0 as u32 + 1,
    }
}

/// Tag words keep the two key spaces (per-query table subsets vs whole
/// partitionings including edge flags) disjoint inside one interner.
const TAG_QUERY: u32 = 0;
const TAG_STATE: u32 = 1;

/// Interns packed partitioning keys into dense [`InternedKey`]s.
///
/// Lookup of an already-seen key performs zero allocations: the packed
/// form is built in a reused scratch buffer and only cloned into the map
/// when the key is genuinely new.
#[derive(Clone, Debug, Default)]
pub struct KeyInterner {
    ids: BTreeMap<Box<[u32]>, u32>,
    scratch: Vec<u32>,
}

impl KeyInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys seen so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn intern_scratch(&mut self) -> InternedKey {
        if let Some(&id) = self.ids.get(self.scratch.as_slice()) {
            return InternedKey(id);
        }
        let id = self.ids.len() as u32;
        self.ids.insert(self.scratch.clone().into_boxed_slice(), id);
        InternedKey(id)
    }

    /// Key for one query: the physical states of exactly the tables it
    /// touches, in query-table order (the Section 4.2 cache-key argument —
    /// a query's cost depends only on the states of its own tables).
    pub fn query_key(&mut self, p: &Partitioning, tables: &[TableId]) -> InternedKey {
        self.scratch.clear();
        self.scratch.push(TAG_QUERY);
        let states = p.table_states();
        self.scratch
            .extend(tables.iter().map(|t| pack(states[t.0])));
        self.intern_scratch()
    }

    /// Dump every `(packed key, id)` pair in key order, for checkpointing.
    /// Ids are first-seen-order and therefore *not* reconstructible from a
    /// key list alone — the exact pairs must be persisted.
    pub fn entries(&self) -> Vec<(&[u32], u32)> {
        self.ids.iter().map(|(k, &v)| (k.as_ref(), v)).collect()
    }

    /// Rebuild an interner from checkpointed `(packed key, id)` pairs.
    /// `Err` if the ids are not a permutation of `0..n` (a corrupt dump
    /// would otherwise silently alias future keys).
    pub fn from_entries(entries: Vec<(Vec<u32>, u32)>) -> Result<Self, String> {
        let n = entries.len() as u32;
        let mut seen = vec![false; entries.len()];
        for (_, id) in &entries {
            if *id >= n || seen[*id as usize] {
                return Err(format!("interner ids are not a permutation of 0..{n}"));
            }
            seen[*id as usize] = true;
        }
        let mut ids = BTreeMap::new();
        for (k, id) in entries {
            if ids.insert(k.into_boxed_slice(), id).is_some() {
                return Err("duplicate interner key".to_string());
            }
        }
        Ok(Self {
            ids,
            scratch: Vec::new(),
        })
    }

    /// Key for a whole partitioning *including* edge activation flags —
    /// the action-set cache keys on this, because `valid_actions` depends
    /// on which tables are pinned by active edges.
    pub fn state_key(&mut self, p: &Partitioning) -> InternedKey {
        self.scratch.clear();
        self.scratch.push(TAG_STATE);
        self.scratch
            .extend(p.table_states().iter().map(|s| pack(*s)));
        // Edge flags bit-packed, 32 per word.
        let mut word = 0u32;
        let mut bits = 0u32;
        for e in p.edge_flags() {
            word |= u32::from(*e) << bits;
            bits += 1;
            if bits == 32 {
                self.scratch.push(word);
                word = 0;
                bits = 0;
            }
        }
        if bits > 0 {
            self.scratch.push(word);
        }
        self.intern_scratch()
    }
}

/// FNV-1a digest of a partitioning (tables + edge flags) — a stable
/// 64-bit label for logs, bench fingerprints and reports. Not a cache
/// key: collisions are astronomically unlikely but not impossible.
pub fn fingerprint64(p: &Partitioning) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for s in p.table_states() {
        mix(pack(*s) as u64);
    }
    for e in p.edge_flags() {
        mix(u64::from(*e));
    }
    h
}

/// Memoizes `valid_actions` per distinct partitioning (tables + edges).
///
/// `select_action` evaluates the action set once per step and `train_step`
/// once per replayed sample; partitionings repeat heavily within an
/// episode (t_max steps orbit a handful of states), so the enumeration +
/// validity checks are paid once per *distinct* state instead.
#[derive(Clone, Debug, Default)]
pub struct ActionSetCache {
    interner: KeyInterner,
    sets: BTreeMap<InternedKey, Vec<Action>>,
    pub hits: u64,
    pub misses: u64,
}

impl ActionSetCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached action set for `p`, or `compute(p)` on first sight.
    pub fn get_or_insert_with(
        &mut self,
        p: &Partitioning,
        compute: impl FnOnce() -> Vec<Action>,
    ) -> &[Action] {
        let key = self.interner.state_key(p);
        match self.sets.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(compute())
            }
        }
    }

    /// Distinct partitionings cached.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::valid_actions;
    use lpa_schema::{AttrId, EdgeId};

    fn ssb() -> lpa_schema::Schema {
        lpa_schema::ssb::schema(0.001).expect("schema builds")
    }

    #[test]
    fn query_keys_distinguish_states_and_dedupe() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let lo = s.table_by_name("lineorder").unwrap();
        let p1 = Action::Partition {
            table: lo,
            attr: AttrId(1),
        }
        .apply(&s, &p0)
        .unwrap();
        let mut i = KeyInterner::new();
        let tables = [lo, s.table_by_name("customer").unwrap()];
        let k0 = i.query_key(&p0, &tables);
        let k1 = i.query_key(&p1, &tables);
        assert_ne!(k0, k1);
        assert_eq!(i.query_key(&p0, &tables), k0, "revisits reuse the id");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn query_key_ignores_untouched_tables_and_edges() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        // Toggling an edge whose endpoints are outside `tables` must not
        // change the query key (cache survives edge churn elsewhere).
        let part = s.table_by_name("part").unwrap();
        let date = s.table_by_name("date").unwrap();
        let p1 = Action::ActivateEdge(EdgeId(0)).apply(&s, &p0).unwrap();
        let mut i = KeyInterner::new();
        let k0 = i.query_key(&p0, &[part, date]);
        let k1 = i.query_key(&p1, &[part, date]);
        assert_eq!(k0, k1);
    }

    #[test]
    fn state_key_sees_edge_flags() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let p1 = Action::ActivateEdge(EdgeId(0)).apply(&s, &p0).unwrap();
        let p2 = Action::DeactivateEdge(EdgeId(0)).apply(&s, &p1).unwrap();
        let mut i = KeyInterner::new();
        let k1 = i.state_key(&p1);
        let k2 = i.state_key(&p2);
        // Same table states (deactivation keeps them), different flags.
        assert_eq!(p1.physical_key(), p2.physical_key());
        assert_ne!(k1, k2);
    }

    #[test]
    fn key_spaces_are_disjoint() {
        let s = ssb();
        let p = Partitioning::initial(&s);
        let all: Vec<TableId> = (0..s.tables().len()).map(TableId).collect();
        let mut i = KeyInterner::new();
        let q = i.query_key(&p, &all);
        let st = i.state_key(&p);
        assert_ne!(q, st, "query and state keys never alias");
    }

    #[test]
    fn fingerprint_differs_across_states() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let p1 = Action::ActivateEdge(EdgeId(1)).apply(&s, &p0).unwrap();
        assert_ne!(fingerprint64(&p0), fingerprint64(&p1));
        assert_eq!(fingerprint64(&p0), fingerprint64(&p0.clone()));
    }

    #[test]
    fn action_cache_returns_identical_sets() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let p1 = Action::ActivateEdge(EdgeId(0)).apply(&s, &p0).unwrap();
        let mut c = ActionSetCache::new();
        let fresh0 = valid_actions(&s, &p0);
        let a0 = c
            .get_or_insert_with(&p0, || valid_actions(&s, &p0))
            .to_vec();
        let a1 = c
            .get_or_insert_with(&p1, || valid_actions(&s, &p1))
            .to_vec();
        let a0_again = c.get_or_insert_with(&p0, || unreachable!()).to_vec();
        assert_eq!(a0, fresh0);
        assert_eq!(a0, a0_again);
        assert_ne!(a0, a1);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
        assert_eq!(c.len(), 2);
    }
}
