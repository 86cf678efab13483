//! Fixture: refutable `let` patterns over `QueryOutcome` and renames of it
//! (L007). Catch-all match arms over it are clippy's
//! `wildcard_enum_match_arm` (see `tests/clippy_fixture`).

pub enum QueryOutcome {
    Completed { seconds: f64, output_rows: u64, degraded: bool },
    TimedOut { limit: f64 },
    Failed { seconds: f64 },
}

pub fn if_let_drops_failed(o: &QueryOutcome) -> f64 {
    let mut total = 0.0;
    if let QueryOutcome::Completed { seconds, .. } = o { // FINDING L007
        total += seconds;
    }
    total
}

pub fn while_let_drops_failed(mut next: impl FnMut() -> QueryOutcome) -> f64 {
    let mut total = 0.0;
    while let QueryOutcome::Completed { seconds, .. } = next() { // FINDING L007
        total += seconds;
    }
    total
}

pub fn let_else_drops_failed(o: &QueryOutcome) -> f64 {
    let QueryOutcome::Completed { seconds, .. } = o else { // FINDING L007
        return 0.0;
    };
    *seconds
}

mod renamed {
    use super::QueryOutcome as Outcome; // FINDING L007

    pub fn seconds(o: &Outcome) -> f64 {
        match o {
            Outcome::Completed { seconds, .. } | Outcome::Failed { seconds } => *seconds,
            Outcome::TimedOut { limit } => *limit,
        }
    }
}

pub fn exhaustive_is_fine(o: &QueryOutcome) -> f64 {
    match o {
        QueryOutcome::Completed { seconds, .. } => *seconds,
        QueryOutcome::TimedOut { limit } => *limit,
        QueryOutcome::Failed { seconds } => *seconds,
    }
}

pub fn annotated_let_is_fine(make: impl Fn() -> QueryOutcome) -> bool {
    // A type annotation names no variant.
    let o: QueryOutcome = make();
    matches!(o, QueryOutcome::Failed { .. })
}

pub fn unrelated_if_let(v: Option<u32>) -> u32 {
    // `if let` over other types stays legal.
    if let Some(n) = v {
        n
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::QueryOutcome;

    fn seconds(o: &QueryOutcome) -> f64 {
        if let QueryOutcome::Completed { seconds, .. } = o {
            *seconds
        } else {
            0.0
        }
    }
}
