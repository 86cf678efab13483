//! Fixture: hash collections and wall-clock time in determinism-critical
//! code. Linted under a costmodel path, expect one L002 per Hash* mention
//! outside tests and one L003 per Instant/SystemTime mention, including
//! the one under `cfg(not(test))`.

use std::collections::HashMap; // FINDING L002
use std::collections::HashSet; // FINDING L002

pub fn reward_by_table(costs: &HashMap<String, f64>) -> f64 {
    // FINDING L002 (the parameter type above) — iterating a HashMap here
    // would feed hash order into the reward.
    costs.values().sum()
}

pub fn touched(tables: &HashSet<u32>) -> usize {
    // FINDING L002
    tables.len()
}

pub fn wall_clock_cost() -> u64 {
    let t = std::time::Instant::now(); // FINDING L003
    t.elapsed().as_nanos() as u64
}

pub fn also_system_time() -> bool {
    std::time::SystemTime::now().elapsed().is_ok() // FINDING L003
}

#[cfg(not(test))]
mod live {
    pub fn shipped_clock() -> bool {
        std::time::Instant::now().elapsed().is_zero() // FINDING L003
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn hash_maps_are_fine_in_tests() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert!(m.is_empty());
    }
}
