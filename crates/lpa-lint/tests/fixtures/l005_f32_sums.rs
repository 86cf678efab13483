//! Fixture: f32 accumulation in reward/cost sums (L005). Linted under a
//! costmodel path.

pub fn f32_sum(costs: &[f32]) -> f32 {
    costs.iter().copied().sum::<f32>() // FINDING L005
}

pub fn f32_fold(costs: &[f32]) -> f32 {
    costs.iter().fold(0.0f32, |acc, c| acc + c) // FINDING L005
}

pub fn f32_loop(costs: &[f32]) -> f32 {
    let mut total: f32 = 0.0;
    for c in costs {
        total += c; // FINDING L005
    }
    total
}

pub fn f64_is_fine(costs: &[f32]) -> f64 {
    // Accumulator names are tracked per file, so this uses a distinct name
    // from the f32 accumulator above.
    let mut acc64: f64 = 0.0;
    for c in costs {
        acc64 += f64::from(*c);
    }
    acc64 + costs.iter().map(|c| f64::from(*c)).sum::<f64>()
}

/// f32 arithmetic that is not accumulation is fine.
pub fn scalar_f32_math(a: f32, b: f32) -> f32 {
    let scaled: f32 = a * b;
    scaled + 1.0
}
