//! Order statistics over timing samples.

use std::time::Duration;

/// Nearest-rank percentile of `samples` (`p` in 0..=100): the smallest value
/// with at least `p`% of the samples at or below it. Empty input gives 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The smallest value: the fastest of a run's repetitions. Empty input gives
/// infinity, which the run's final check on its end-to-end metrics rejects.
pub fn least(samples: impl IntoIterator<Item = f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
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

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 99.5% of 100 samples needs the 100th.
        assert_eq!(percentile(&xs, 99.5), 100.0);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0], 51.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 150.0), 3.0);
    }

    #[test]
    fn least_is_the_minimum() {
        assert_eq!(least([3.0, 1.5, 2.0]), 1.5);
        assert_eq!(least([]), f64::INFINITY);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
