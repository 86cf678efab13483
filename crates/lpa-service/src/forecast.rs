//! Workload forecasting (Holt's linear exponential smoothing) — the
//! paper's future work: predict the upcoming mix so the database can be
//! re-partitioned *pro-actively*.

use lpa_workload::FrequencyVector;

/// Per-query level + trend smoothing over the window frequency vectors.
#[derive(Clone, Debug)]
pub struct FrequencyForecaster {
    /// Level smoothing factor.
    alpha: f64,
    /// Trend smoothing factor.
    beta: f64,
    level: Vec<f64>,
    trend: Vec<f64>,
    windows_seen: u64,
}

impl FrequencyForecaster {
    pub fn new(slots: usize) -> Self {
        Self::with_factors(slots, 0.5, 0.3)
    }

    pub fn with_factors(slots: usize, alpha: f64, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&beta));
        Self {
            alpha,
            beta,
            level: vec![0.0; slots],
            trend: vec![0.0; slots],
            windows_seen: 0,
        }
    }

    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// `(alpha, beta)` smoothing factors (checkpoint capture).
    pub fn factors(&self) -> (f64, f64) {
        (self.alpha, self.beta)
    }

    /// Per-slot smoothed levels (checkpoint capture).
    pub fn level(&self) -> &[f64] {
        &self.level
    }

    /// Per-slot smoothed trends (checkpoint capture).
    pub fn trend(&self) -> &[f64] {
        &self.trend
    }

    /// Rebuild a forecaster from checkpointed parts, bit-for-bit. `Err`
    /// (never panics: runs on the recovery path) on inconsistent shapes or
    /// out-of-range factors.
    pub fn from_parts(
        alpha: f64,
        beta: f64,
        level: Vec<f64>,
        trend: Vec<f64>,
        windows_seen: u64,
    ) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&alpha) || !(0.0..=1.0).contains(&beta) {
            return Err(format!("smoothing factors out of range: {alpha}, {beta}"));
        }
        if level.len() != trend.len() {
            return Err(format!(
                "level slots {} != trend slots {}",
                level.len(),
                trend.len()
            ));
        }
        Ok(Self {
            alpha,
            beta,
            level,
            trend,
            windows_seen,
        })
    }

    /// Fold in one observed window.
    #[expect(
        clippy::indexing_slicing,
        reason = "observed.len() == level.len() is asserted; trend has the same length"
    )]
    pub fn update(&mut self, observed: &FrequencyVector) {
        assert_eq!(observed.len(), self.level.len(), "slot count");
        let first = self.windows_seen == 0;
        for (i, &x) in observed.as_slice().iter().enumerate() {
            if first {
                self.level[i] = x;
                self.trend[i] = 0.0;
            } else {
                let prev_level = self.level[i];
                self.level[i] = self.alpha * x + (1.0 - self.alpha) * (prev_level + self.trend[i]);
                self.trend[i] =
                    self.beta * (self.level[i] - prev_level) + (1.0 - self.beta) * self.trend[i];
            }
        }
        self.windows_seen += 1;
    }

    /// Forecast the mix `horizon` windows ahead (0 = smoothed current).
    /// Returns `None` before any window was observed.
    pub fn forecast(&self, horizon: f64) -> Option<FrequencyVector> {
        if self.windows_seen == 0 {
            return None;
        }
        let counts: Vec<f64> = self
            .level
            .iter()
            .zip(&self.trend)
            .map(|(l, t)| (l + t * horizon).max(0.0))
            .collect();
        if counts.iter().all(|c| *c <= 0.0) {
            return None;
        }
        Some(FrequencyVector::from_counts(&counts, counts.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(v: &[f64]) -> FrequencyVector {
        FrequencyVector::from_counts(v, v.len())
    }

    #[test]
    fn first_window_passes_through() {
        let mut f = FrequencyForecaster::new(3);
        assert!(f.forecast(0.0).is_none());
        f.update(&fv(&[1.0, 0.5, 0.25]));
        let out = f.forecast(0.0).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 0.5, 0.25]);
    }

    #[test]
    fn trend_extrapolates_growth() {
        let mut f = FrequencyForecaster::new(2);
        // Query 1 steadily grows relative to query 0.
        for i in 0..8 {
            let x = 0.1 + 0.1 * i as f64;
            f.update(&fv(&[1.0, x.min(1.0)]));
        }
        let now = f.forecast(0.0).unwrap();
        let later = f.forecast(3.0).unwrap();
        // Relative weight of query 1 keeps growing in the forecast.
        assert!(
            later.as_slice()[1] / later.as_slice()[0]
                > now.as_slice()[1] / now.as_slice()[0] - 1e-9
        );
    }

    #[test]
    fn forecast_never_negative() {
        let mut f = FrequencyForecaster::new(2);
        for i in (0..6).rev() {
            let x = 0.1 + 0.15 * i as f64;
            f.update(&fv(&[1.0, x]));
        }
        let far = f.forecast(50.0).unwrap();
        assert!(far.as_slice().iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn smoothing_dampens_noise() {
        // Slot 0 anchors normalization; slot 1 alternates between 1.0 and
        // 0.6 of it.
        let mut f = FrequencyForecaster::with_factors(2, 0.3, 0.1);
        for i in 0..20 {
            let noise = if i % 2 == 0 { 1.0 } else { 0.6 };
            f.update(&fv(&[1.0, noise]));
        }
        // Level settles strictly between the two alternating observations.
        let l = f.level[1];
        assert!(l > 0.6 && l < 1.0, "level {l}");
    }
}
