//! Engine profiles: the behavioural differences between the two systems
//! the paper evaluates on.

/// Which DBMS the simulator imitates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Postgres-XL-like: disk-based storage, optimizer cost estimates are
    /// accessible (EXPLAIN), partitioning only by plain columns.
    PgXlLike,
    /// System-X-like: in-memory storage, **no access to optimizer cost
    /// estimates** (the minimum-optimizer baseline cannot run, as in the
    /// paper), compound partition keys supported, and a cheaper naive
    /// modulo distribution hash that is extra-sensitive to skewed
    /// low-cardinality keys.
    SystemXLike,
}

/// Tunable engine behaviour.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EngineProfile {
    pub kind: EngineKind,
    /// Whether table scans hit disk (true) or memory (false).
    pub disk_based: bool,
    /// Whether the engine exposes optimizer cost estimates to tools.
    pub optimizer_access: bool,
    /// Whether compound (multi-column) partition keys are supported.
    pub supports_compound_keys: bool,
    /// Fixed per-query overhead in seconds (parse/plan/coordinate).
    pub query_overhead: f64,
    /// Fixed per-shuffle-stage overhead in seconds (exchange setup).
    pub shuffle_overhead: f64,
    /// Per-tuple cost of shipping a row between nodes (serialization and
    /// exchange-operator work) — the dominant shuffle cost in practice.
    pub ship_tuple_cost: f64,
    /// Multiplier on repartitioning time (disk engines rewrite tables).
    pub repartition_penalty: f64,
}

impl EngineProfile {
    pub fn pgxl() -> Self {
        Self {
            kind: EngineKind::PgXlLike,
            disk_based: true,
            optimizer_access: true,
            supports_compound_keys: false,
            query_overhead: 0.01,
            shuffle_overhead: 0.002,
            ship_tuple_cost: 1.2e-6,
            repartition_penalty: 250.0,
        }
    }

    pub fn system_x() -> Self {
        Self {
            kind: EngineKind::SystemXLike,
            disk_based: false,
            optimizer_access: false,
            supports_compound_keys: true,
            query_overhead: 0.002,
            shuffle_overhead: 0.0005,
            ship_tuple_cost: 1.5e-7,
            repartition_penalty: 40.0,
        }
    }

    /// Node assignment for a partition-key value. Postgres-XL mixes the
    /// value through a hash; System-X uses naive modulo, so consecutive or
    /// low-cardinality skewed keys shard badly.
    pub fn node_of(&self, value: u64, nodes: usize) -> usize {
        match self.kind {
            EngineKind::PgXlLike => (splitmix64(value) % nodes as u64) as usize,
            EngineKind::SystemXLike => (value % nodes as u64) as usize,
        }
    }

    /// Engine name as printed by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self.kind {
            EngineKind::PgXlLike => "Postgres-XL (simulated)",
            EngineKind::SystemXLike => "System-X (simulated)",
        }
    }
}

/// SplitMix64 finalizer — the deterministic mixing function used across
/// the simulator (data generation and Postgres-XL-style distribution).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_constraints() {
        let pg = EngineProfile::pgxl();
        let sx = EngineProfile::system_x();
        assert!(pg.optimizer_access && !sx.optimizer_access);
        assert!(!pg.supports_compound_keys && sx.supports_compound_keys);
        assert!(pg.disk_based && !sx.disk_based);
    }

    #[test]
    fn splitmix_spreads_consecutive_values() {
        let pg = EngineProfile::pgxl();
        let mut counts = [0usize; 4];
        for v in 0..10_000u64 {
            counts[pg.node_of(v, 4)] += 1;
        }
        for c in counts {
            assert!((2200..=2800).contains(&c), "balanced: {counts:?}");
        }
    }

    #[test]
    fn modulo_hash_is_skewed_for_low_cardinality() {
        // 10 district values over 4 nodes: System-X's modulo puts values
        // {0,4,8},{1,5,9},{2,6},{3,7} — nodes 0/1 get 3 values, 2/3 get 2.
        let sx = EngineProfile::system_x();
        let mut counts = [0usize; 4];
        for v in 0..10u64 {
            counts[sx.node_of(v, 4)] += 1;
        }
        assert_eq!(counts.iter().max(), Some(&3));
        assert_eq!(counts.iter().min(), Some(&2));
    }

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }
}
