//! Summary statistics: one percentile helper for latency distributions
//! and a median for repeated phase timings.
//!
//! A [`Series`] holds the samples of exactly one kind of operation (one
//! opcode, reads or writes, one phase). There is no way to merge two
//! series, so a percentile can never blend opcodes or reads with writes.

/// Samples of a single operation kind, in the unit they were recorded in.
#[derive(Debug, Clone, Default)]
pub struct Series {
    values: Vec<f64>,
}

/// A percentile read from a [`Series`], with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (the value would be noise,
    /// and `0` would read as a measurement).
    pub value: Option<f64>,
    /// Samples in the series.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

impl Series {
    pub fn new() -> Self {
        Series::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// The `p`-th percentile (0 < p < 100) by nearest rank: the smallest
    /// sample such that at least `p`% of the samples are ≤ it.
    pub fn percentile(&self, p: f64) -> Percentile {
        assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
        let n = self.values.len();
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let value = (n >= 1 && n - rank.max(1) >= MIN_BEYOND).then(|| sorted[rank.max(1) - 1]);
        Percentile { value, samples: n }
    }
}

/// Median of repeated phase timings (the mean of the two middle values
/// for an even count). Repetitions are few and individually meaningful,
/// so no minimum applies; `None` only for no repetitions.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some((sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: impl IntoIterator<Item = f64>) -> Series {
        let mut s = Series::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s = series((1..=100).rev().map(f64::from));
        assert_eq!(s.percentile(50.0).value, Some(50.0));
        assert_eq!(s.percentile(90.0).value, Some(90.0));
        assert_eq!(s.percentile(50.0).samples, 100);
        // p99 has a single sample beyond it: unknown, not a number.
        assert_eq!(s.percentile(99.0).value, None);
        assert_eq!(s.percentile(99.0).samples, 100);
    }

    #[test]
    fn null_below_ten_samples_beyond() {
        // n = 19: rank(p50) = 10, 9 beyond -> null; n = 20: 10 beyond.
        assert_eq!(series((1..=19).map(f64::from)).percentile(50.0).value, None);
        assert_eq!(
            series((1..=20).map(f64::from)).percentile(50.0).value,
            Some(10.0)
        );
        // p90 needs n >= 100, p99 needs n >= 1000.
        assert_eq!(series((1..=99).map(f64::from)).percentile(90.0).value, None);
        let big = series((1..=1000).map(f64::from));
        assert_eq!(big.percentile(99.0).value, Some(990.0));
        assert_eq!(Series::new().percentile(50.0).value, None);
        assert_eq!(Series::new().percentile(50.0).samples, 0);
    }

    #[test]
    fn nearest_rank_returns_a_sample_never_an_interpolation() {
        let s = series([5.0, 1.0, 3.0].repeat(10));
        let p = s.percentile(50.0).value.unwrap();
        assert_eq!(p, 3.0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
