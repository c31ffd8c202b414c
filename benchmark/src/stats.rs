//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of an ascending-sorted slice, nearest-rank.
/// Returns 0 for an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of floats (mean of the middle two for an even count).
/// Returns 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The spread of repeated measurements as a share of their median. From
/// four values up it is the distance between the first and third
/// quartile, as Python's `statistics.quantiles(values, n=4)` places them
/// (the driver's acceptance measure); below four, the whole range.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (Some(&lo), Some(&hi)) = (v.first(), v.last()) else {
        return 0.0;
    };
    let width = if v.len() < 4 {
        hi - lo
    } else {
        // Quartile i sits at rank i * (n + 1) / 4 (1-based), interpolated
        // and clamped to the ends.
        let at = |i: usize| {
            let rank = (i * (v.len() + 1)) as f64 / 4.0;
            let below = (rank.floor() as usize).clamp(1, v.len() - 1);
            v[below - 1] + (rank - below as f64) * (v[below] - v[below - 1])
        };
        at(3) - at(1)
    };
    width / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn spread_is_the_range_below_four_values_and_the_quartile_distance_above() {
        assert_eq!(relative_spread(&[90.0, 110.0]), 0.2);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 100], n=4) == [1.25, 2.5, 75.75]
        assert!((relative_spread(&[100.0, 1.0, 3.0, 2.0]) - 74.5 / 2.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
