//! Latency statistics.

use iabc_types::Duration;

/// Running latency statistics with exact percentiles.
///
/// Stores every sample (runs are bounded), keeps a running mean, and
/// sorts lazily for percentiles.
///
/// # Example
///
/// ```
/// use iabc_types::Duration;
/// use iabc_workload::LatencyStats;
///
/// let mut s = LatencyStats::new();
/// for ms in [1u64, 2, 3, 4, 5] {
///     s.record(Duration::from_millis(ms));
/// }
/// assert_eq!(s.count(), 5);
/// assert!((s.mean_ms() - 3.0).abs() < 1e-9);
/// assert_eq!(s.percentile(0.5), Duration::from_millis(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<Duration>,
    sorted: bool,
    mean: f64,
    min: Option<Duration>,
    max: Option<Duration>,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Adds one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.sorted = false;
        let x = latency.as_secs_f64();
        let n = self.samples.len() as f64 + 1.0;
        self.mean += (x - self.mean) / n;
        self.min = Some(self.min.map_or(latency, |m| m.min(latency)));
        self.max = Some(self.max.map_or(latency, |m| m.max(latency)));
        self.samples.push(latency);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency in milliseconds (0 if empty).
    pub fn mean_ms(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean * 1e3
        }
    }

    /// Smallest sample (zero if empty).
    pub fn min(&self) -> Duration {
        self.min.unwrap_or(Duration::ZERO)
    }

    /// Largest sample (zero if empty).
    pub fn max(&self) -> Duration {
        self.max.unwrap_or(Duration::ZERO)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank; zero if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        // Classic nearest-rank: rank = ⌈q·N⌉ (1-based), clamped to [1, N].
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        self.samples[rank - 1]
    }

    /// Median latency in milliseconds.
    pub fn median_ms(&mut self) -> f64 {
        self.percentile(0.5).as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_ms(), 0.0);
        assert_eq!(s.percentile(0.99), Duration::ZERO);
        assert_eq!(s.min(), Duration::ZERO);
    }

    #[test]
    fn mean_min_and_max() {
        let mut s = LatencyStats::new();
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            s.record(ms(v));
        }
        assert!((s.mean_ms() - 5.0).abs() < 1e-9);
        assert_eq!(s.min(), ms(2));
        assert_eq!(s.max(), ms(9));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = LatencyStats::new();
        for v in 1..=100u64 {
            s.record(ms(v));
        }
        assert_eq!(s.percentile(0.0), ms(1));
        assert_eq!(s.percentile(1.0), ms(100));
        assert_eq!(s.percentile(0.5), ms(50));
        assert_eq!(s.percentile(0.95), ms(95));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        let mut s = LatencyStats::new();
        s.record(ms(1));
        let _ = s.percentile(1.5);
    }
}
