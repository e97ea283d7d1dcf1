//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even
/// count); `0.0` for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent of the sample count.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: in ascending order, the value at index `n − 11`, reported as
/// percentile `100 × (n − 10) / n`. `None` below 11 samples, where no
/// value has ten others above it.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(values);
    Some(Tail {
        value: sorted[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// Nearest-rank quantile `q ∈ [0, 1]` (the smallest value with at least
/// `q·n` samples at or below it); `f64::INFINITY` marks missed requests,
/// so a quantile that lands on one reads infinite. `0.0` for no
/// samples.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let values: Vec<f64> = (0..2000).map(f64::from).rev().collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 99.5);
        assert_eq!(t.value, 1989.0);
        let small: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&small).unwrap();
        assert_eq!(t.value, 0.0, "11 samples: only the minimum has ten above");
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        let mut missed = values.clone();
        missed.push(f64::INFINITY);
        assert_eq!(quantile(&missed, 1.0), f64::INFINITY);
    }
}
