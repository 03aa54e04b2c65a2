//! Order statistics used by every metric: nearest-rank percentiles and
//! the tail rule (a percentile is supported only when at least ten
//! samples lie beyond it).

/// Samples a percentile must leave beyond it to be reported as
/// supported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `[0, 100]`) of `sorted`, which must
/// be sorted ascending. Zero for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-th percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (q * n as f64 / 100.0).ceil() as usize;
    n - rank.clamp(1, n)
}

/// True when the `q`-th percentile of `n` samples leaves at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The `q`-th percentile of `sorted` when it leaves [`MIN_BEYOND`]
/// samples beyond it; otherwise the highest percentile that does. With
/// no more than [`MIN_BEYOND`] samples none does, and the `q`-th is
/// returned as is. Returns the value and the percentile it stands at.
pub fn tail(sorted: &[f64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    if supported(n, q) || n <= MIN_BEYOND {
        return (percentile(sorted, q), q);
    }
    let rank = n - MIN_BEYOND;
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Median of an unsorted sample (zero when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorts ascending; NaNs (which no metric produces) sort last.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Arithmetic mean (zero when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or zero when `den` is zero (a layer the workload does
/// not reach reads as zero).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 999 samples leave only 9 beyond the 99th percentile; 1000
        // leave exactly the ten the rule asks for.
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!supported(999, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), (1980.0, 99.0));
        // 330 samples: the value with ten beyond it, the 96.97th.
        let (value, at) = tail(&v[..330], 99.0);
        assert_eq!(value, 320.0);
        assert!((at - 96.969).abs() < 1e-3);
        // Too few samples for any percentile with ten beyond.
        assert_eq!(tail(&v[..5], 99.0), (5.0, 99.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
