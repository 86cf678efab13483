//! Fixture: hash collections in determinism-critical code. Linted under a
//! costmodel path, expect one L002 per Hash* mention outside tests,
//! including the one under `cfg(not(test))`.

use std::collections::HashMap; // FINDING L002
use std::collections::HashSet; // FINDING L002

pub fn reward_by_table(costs: &HashMap<String, f64>) -> f64 { // FINDING L002
    // Iterating a HashMap here would feed hash order into the reward.
    costs.values().sum()
}

pub fn touched(tables: &HashSet<u32>) -> usize { // FINDING L002
    tables.len()
}

#[cfg(not(test))]
mod live {
    pub fn shipped() -> usize {
        std::collections::HashMap::<u32, u32>::new().len() // FINDING L002
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
