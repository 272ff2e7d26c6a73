//! Order statistics over one run's samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `quantile` of all samples are at or below it.
/// Returns `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], quantile: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (quantile * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// A metric value plus the distribution it was read from: the sample
/// median, the nearest-rank quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value (a percentile, a median or a ratio).
    pub value: f64,
    /// Median of the samples behind the value.
    pub median: f64,
    /// First and third quartile of the samples.
    pub q1: f64,
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` and reports their `quantile` as the value.
    pub fn percentile(samples: &[f64], quantile: f64) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            value: nearest_rank(&sorted, quantile)?,
            median: nearest_rank(&sorted, 0.5)?,
            q1: nearest_rank(&sorted, 0.25)?,
            q3: nearest_rank(&sorted, 0.75)?,
            n: sorted.len(),
        })
    }

    /// A value that is not an order statistic (a share or a rate over
    /// the whole run), reported with the sample count behind it.
    pub fn single(value: f64, n: usize) -> Self {
        Self {
            value,
            median: value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of unsorted samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    Summary::percentile(samples, 0.5).map_or(0.0, |summary| summary.value)
}

/// Arithmetic mean (0 when there are no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&sorted, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&sorted, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&sorted, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn nearest_rank_p99_needs_a_hundred_samples_to_leave_the_maximum() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.99), Some(198.0));
        let short: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(nearest_rank(&short, 0.99), Some(50.0));
    }

    #[test]
    fn summary_sorts_and_reports_quartiles() {
        let samples = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        let summary = Summary::percentile(&samples, 0.9).expect("non-empty");
        assert_eq!(summary.value, 9.0);
        assert_eq!(summary.median, 5.0);
        assert_eq!((summary.q1, summary.q3), (3.0, 8.0));
        assert_eq!(summary.n, 10);
        assert!((summary.spread() - 1.0).abs() < 1e-12);
        assert!(Summary::percentile(&[], 0.5).is_none());
    }
}
