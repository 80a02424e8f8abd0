//! Order statistics for latency samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the summary tries, highest first, when it prints the
/// highest reportable one.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`: the value
/// of rank `ceil(p/100 * n)` in sorted order. Returns `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest percentile of the ladder 99.9, 99, 95, 90, 50 that
/// [`percentile`] accepts for `samples`, with its value.
pub fn highest_reportable(samples: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// [`percentile`], falling back to the highest reportable percentile
/// below `p` and then to the maximum, for per-layer figures from runs
/// too short to hold `p`. The second value is the percentile used.
pub fn percentile_or_lower(samples: &[f64], p: f64) -> (f64, f64) {
    if let Some(v) = percentile(samples, p) {
        return (v, p);
    }
    if let Some((q, v)) = LADDER
        .iter()
        .filter(|&&q| q < p)
        .find_map(|&q| percentile(samples, q).map(|v| (q, v)))
    {
        return (v, q);
    }
    (samples.iter().copied().fold(0.0, f64::max), 100.0)
}

/// Median of a small set of repeated measurements (mean of the middle
/// two for an even count). `0.0` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or `0.0` when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 89.5), Some(90.0));
    }

    #[test]
    fn percentile_without_ten_samples_beyond_is_refused() {
        // p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
        assert!(percentile(&one_to(100), 90.0).is_some());
        assert_eq!(percentile(&one_to(99), 90.0), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&one_to(999), 99.0), None);
        assert_eq!(percentile(&one_to(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&one_to(10), 50.0), None);
    }

    #[test]
    fn highest_reportable_walks_down_the_ladder() {
        assert_eq!(highest_reportable(&one_to(1000)), Some((99.0, 990.0)));
        assert_eq!(highest_reportable(&one_to(150)), Some((90.0, 135.0)));
        assert_eq!(highest_reportable(&one_to(5)), None);
        assert_eq!(percentile_or_lower(&one_to(150), 99.0), (135.0, 90.0));
        assert_eq!(percentile_or_lower(&one_to(5), 99.0), (5.0, 100.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
