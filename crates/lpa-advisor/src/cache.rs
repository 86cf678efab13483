//! The Query Runtime Cache (Section 4.2).
//!
//! A query's runtime depends only on the physical states of the tables it
//! touches, so the cache key is `(query, states of its tables)`. The cache
//! is shared — the committee of experts and incremental retraining reuse
//! the runtimes collected by the naive agent (Section 5).
//!
//! Keys are interned [`InternedKey`]s from [`lpa_partition::KeyInterner`]:
//! a lookup packs the relevant table states into a reused scratch buffer
//! instead of allocating a fresh `Vec<TableState>` per probe, and the map
//! is a `BTreeMap`, keeping iteration deterministic (lint L002) — the same
//! key discipline the offline delta engine uses.

#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use lpa_partition::{InternedKey, KeyInterner, Partitioning};
use lpa_schema::TableId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One cached measurement: the runtime plus the health of the epoch it was
/// taken in. Entries measured under active faults are kept (a degraded
/// estimate beats re-running a query on a degraded cluster) but tagged, so
/// the online backend can invalidate them once the cluster recovers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CachedRuntime {
    pub seconds: f64,
    pub degraded: bool,
}

/// Runtime cache with hit/miss counters.
#[derive(Debug, Default)]
pub struct RuntimeCache {
    interner: KeyInterner,
    map: BTreeMap<(u32, InternedKey), CachedRuntime>,
    pub hits: u64,
    pub misses: u64,
}

impl RuntimeCache {
    fn key(&mut self, query: usize, p: &Partitioning, tables: &[TableId]) -> (u32, InternedKey) {
        (query as u32, self.interner.query_key(p, tables))
    }

    /// Cached runtime of `query` under the states `p` gives its `tables`,
    /// counting a hit or miss.
    pub fn lookup(
        &mut self,
        query: usize,
        p: &Partitioning,
        tables: &[TableId],
    ) -> Option<CachedRuntime> {
        let key = self.key(query, p, tables);
        match self.map.get(&key) {
            Some(v) => {
                self.hits += 1;
                Some(*v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Lookup without touching counters (used by inference/committee
    /// reward probes). `&mut` because key interning shares the scratch
    /// buffer; the map itself is not modified.
    pub fn peek(&mut self, query: usize, p: &Partitioning, tables: &[TableId]) -> Option<f64> {
        let key = self.key(query, p, tables);
        self.map.get(&key).map(|v| v.seconds)
    }

    /// Record a healthy measurement.
    pub fn store(&mut self, query: usize, p: &Partitioning, tables: &[TableId], seconds: f64) {
        self.store_tagged(
            query,
            p,
            tables,
            CachedRuntime {
                seconds,
                degraded: false,
            },
        );
    }

    /// Record a measurement together with its epoch health.
    pub fn store_tagged(
        &mut self,
        query: usize,
        p: &Partitioning,
        tables: &[TableId],
        value: CachedRuntime,
    ) {
        let key = self.key(query, p, tables);
        self.map.insert(key, value);
    }

    /// Drop one entry (degraded-epoch invalidation on recovery). Returns
    /// whether an entry existed.
    pub fn invalidate(&mut self, query: usize, p: &Partitioning, tables: &[TableId]) -> bool {
        let key = self.key(query, p, tables);
        self.map.remove(&key).is_some()
    }

    /// Number of entries tagged as measured under active faults.
    pub fn degraded_entries(&self) -> usize {
        self.map.values().filter(|v| v.degraded).count()
    }

    /// Drop every degraded-tagged entry, returning how many were removed.
    /// Used when restoring a checkpoint taken mid-outage onto a cluster
    /// whose fault window has passed: recovery-time invalidation never ran
    /// for those entries, so they would poison healthy-epoch rewards.
    pub fn drop_degraded(&mut self) -> usize {
        let before = self.map.len();
        self.map.retain(|_, v| !v.degraded);
        before - self.map.len()
    }

    /// Every `(query, key) → runtime` entry in key order plus the interner,
    /// for checkpointing (degraded tags included).
    pub fn entries(&self) -> Vec<((u32, InternedKey), CachedRuntime)> {
        self.map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// The interner backing the keys.
    pub fn interner(&self) -> &KeyInterner {
        &self.interner
    }

    /// Rebuild a cache from checkpointed parts.
    pub fn from_parts(
        interner: KeyInterner,
        entries: Vec<((u32, InternedKey), CachedRuntime)>,
        hits: u64,
        misses: u64,
    ) -> Self {
        Self {
            interner,
            map: entries.into_iter().collect(),
            hits,
            misses,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shared handle: the naive agent, the subspace experts and incremental
/// retraining all read and write the same cache.
pub type SharedRuntimeCache = Arc<Mutex<RuntimeCache>>;

/// Fresh shared cache.
pub fn shared_cache() -> SharedRuntimeCache {
    Arc::new(Mutex::new(RuntimeCache::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpa_partition::Action;
    use lpa_schema::Schema;

    fn ssb() -> Schema {
        lpa_schema::ssb::schema(0.001).expect("schema builds")
    }

    #[test]
    fn hit_and_miss_counters() {
        let s = ssb();
        let p = Partitioning::initial(&s);
        let tables = [TableId(0), TableId(1)];
        let mut c = RuntimeCache::default();
        assert_eq!(c.lookup(0, &p, &tables), None);
        c.store(0, &p, &tables, 1.5);
        assert_eq!(
            c.lookup(0, &p, &tables),
            Some(CachedRuntime {
                seconds: 1.5,
                degraded: false
            })
        );
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degraded_entries_tag_and_invalidate() {
        let s = ssb();
        let p = Partitioning::initial(&s);
        let tables = [TableId(0)];
        let mut c = RuntimeCache::default();
        c.store_tagged(
            0,
            &p,
            &tables,
            CachedRuntime {
                seconds: 2.0,
                degraded: true,
            },
        );
        c.store(1, &p, &tables, 1.0);
        assert_eq!(c.degraded_entries(), 1);
        assert!(c
            .lookup(0, &p, &tables)
            .map(|v| v.degraded)
            .unwrap_or(false));
        assert!(c.invalidate(0, &p, &tables));
        assert!(!c.invalidate(0, &p, &tables), "already gone");
        assert_eq!(c.degraded_entries(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn key_distinguishes_states_not_edges() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let lo = s.table_by_name("lineorder").unwrap();
        let p1 = Action::Replicate { table: lo }.apply(&s, &p0).unwrap();
        // Edge toggle away from `tables` leaves the key unchanged.
        let p0_edge = Action::ActivateEdge(lpa_schema::EdgeId(2))
            .apply(&s, &p0)
            .unwrap();
        let tables = [lo, s.table_by_name("customer").unwrap()];
        let mut c = RuntimeCache::default();
        c.store(3, &p0, &tables, 1.0);
        c.store(3, &p1, &tables, 2.0);
        assert_eq!(c.peek(3, &p0, &tables), Some(1.0));
        assert_eq!(c.peek(3, &p1, &tables), Some(2.0));
        assert_eq!(c.len(), 2);
        // p0_edge differs from p0 only in lineorder's forced edge state;
        // if the toggle changed lineorder's state the key changes too, so
        // probe a query not touching the edge endpoints instead.
        let part = s.table_by_name("part").unwrap();
        let date = s.table_by_name("date").unwrap();
        c.store(5, &p0, &[part, date], 3.0);
        assert_eq!(c.peek(5, &p0_edge, &[part, date]), Some(3.0));
    }

    #[test]
    fn queries_do_not_alias() {
        let s = ssb();
        let p = Partitioning::initial(&s);
        let tables = [TableId(0)];
        let mut c = RuntimeCache::default();
        c.store(1, &p, &tables, 1.0);
        assert_eq!(c.peek(2, &p, &tables), None);
    }
}
