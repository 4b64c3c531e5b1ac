//! Order statistics used by every workload: nearest-rank percentiles
//! and the sample-count rule that says which percentile a sample can
//! support.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted
/// slice: the smallest value with at least `p`% of the samples at or
/// below it. Empty input reads as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// How many samples lie strictly above the nearest-rank `p`th
/// percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The sample-count rule: a percentile is reported as supported only
/// when at least ten samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Odd count: the middle element, not an interpolation.
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 50.0), 2.0);
    }

    #[test]
    fn sample_count_rule() {
        // p99 of 1000 samples has exactly ten beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0) && !supports(99, 90.0));
        assert!(supports(20, 50.0) && !supports(19, 50.0));
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn median_of_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
