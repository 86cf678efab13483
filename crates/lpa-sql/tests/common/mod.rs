//! Seeded input corpora shared by the SQL test files.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random string over a char pool, length 0..=max_len.
pub fn random_string(rng: &mut StdRng, pool: &[char], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect()
}

/// A printable-heavy pool including multi-byte and exotic chars, standing in
/// for proptest's `\PC` (any printable char) class.
pub fn printable_pool() -> Vec<char> {
    let mut pool: Vec<char> = (' '..='~').collect();
    pool.extend(['\t', '\n', 'é', 'ß', '漢', '🦀', '\u{2028}', 'Ω', '·', '«']);
    pool
}

/// The `lexer_never_panics` inputs: 256 printable strings of up to 200
/// chars, multi-byte characters included.
pub fn lexer_corpus() -> Vec<String> {
    let pool = printable_pool();
    (0..256u64)
        .map(|case| random_string(&mut StdRng::seed_from_u64(0x7000 + case), &pool, 200))
        .collect()
}
