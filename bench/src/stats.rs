//! Order statistics.

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending sample.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it in a sample of `n`; `None` below twenty samples,
/// where not even the median has.
pub fn supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples it leaves beyond itself out of how many)
    [(0.999, 1000), (0.99, 100), (0.9, 10), (0.5, 2)]
        .into_iter()
        .find(|(_, one_in)| n >= 10 * one_in)
        .map(|(p, _)| p)
}

/// Samples a slice needs before its 99th percentile is reported.
pub const P99_MIN_SAMPLES: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(P99_MIN_SAMPLES), Some(0.99));
        assert_eq!(supported_percentile(9_999), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
