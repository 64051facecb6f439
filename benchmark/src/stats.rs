//! Sample summaries: the median always, and the highest percentile that
//! still has at least ten samples beyond it (a tail estimated from fewer
//! samples is noise, so it is not reported).

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The percentiles tried, highest first, each with the share of the
/// sample beyond it in per mille (integers keep the rule exact).
const TAIL_PERCENTILES: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Median, optional tail percentile and sample count of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The 50th percentile.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile the sample supports.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub count: usize,
}

/// Linear-interpolated percentile `p` (0–100) of an ascending slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Summarize a non-empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAIL_PERCENTILES
        .iter()
        .find(|&&(_, beyond)| n * beyond / 1000 >= MIN_BEYOND)
        .map(|&(p, _)| (p, percentile_sorted(&sorted, p)));
    Summary {
        median: percentile_sorted(&sorted, 50.0),
        tail,
        count: n,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4}", self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, "  p{p} {v:.4}")?;
        }
        write!(f, "  n={}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 39 samples: 25 % beyond p75 is 9.75 -> nine samples, not enough.
        assert_eq!(summarize(&ramp(39)).tail, None);
        assert_eq!(summarize(&ramp(40)).tail.unwrap().0, 75.0);
        assert_eq!(summarize(&ramp(99)).tail.unwrap().0, 75.0);
        assert_eq!(summarize(&ramp(100)).tail.unwrap().0, 90.0);
        assert_eq!(summarize(&ramp(200)).tail.unwrap().0, 95.0);
        assert_eq!(summarize(&ramp(1000)).tail.unwrap().0, 99.0);
        assert_eq!(summarize(&ramp(10_000)).tail.unwrap().0, 99.9);
    }

    #[test]
    fn tail_value_is_the_percentile() {
        let s = summarize(&ramp(101));
        assert_eq!(s.median, 50.0);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(s.count, 101);
    }
}
