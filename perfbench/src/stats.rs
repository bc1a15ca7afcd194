//! The arithmetic every reported number goes through: median over passes,
//! percentiles from raw samples, and the geometric mean over cells.

/// One metric's reported value (the median of its samples unless a
/// percentile is put in its place) with their minimum, maximum and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises a non-empty sample set.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        Self {
            value: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// A summary of a value that was computed once, not sampled.
    pub fn single(value: f64) -> Self {
        Self::of(&[value])
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// The highest percentile `n` raw samples support: a percentile is only
/// reported when at least ten samples lie beyond it, and never below the
/// median.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    let cap = if n >= 20 { 1.0 - 10.0 / n as f64 } else { 0.5 };
    wanted.min(cap).max(0.5)
}

/// Nearest-rank percentile `p` (in `0..=1`) of the raw samples, lowered to
/// the highest percentile the sample count supports. Returns the value and
/// the percentile actually used.
pub fn percentile(samples: &[f64], p: f64) -> (f64, f64) {
    assert!(!samples.is_empty(), "percentile of no samples");
    let used = supported_percentile(samples.len(), p);
    if used <= 0.5 {
        return (median(samples), 0.5);
    }
    let s = sorted(samples);
    let rank = (used * s.len() as f64).ceil() as usize;
    (s[rank.clamp(1, s.len()) - 1], used)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn summary_keeps_the_extremes() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.value, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 2 000 samples: p95 has 100 beyond it, p99 has 20, both stand.
        assert_eq!(supported_percentile(2000, 0.95), 0.95);
        assert_eq!(supported_percentile(2000, 0.99), 0.99);
        // 200 samples: p99 would have 2 beyond it; p95 is the highest kept.
        assert_eq!(supported_percentile(200, 0.99), 0.95);
        // 100 samples: ten beyond means p90.
        assert!((supported_percentile(100, 0.95) - 0.90).abs() < 1e-12);
        // Under 20 samples nothing above the median is supported.
        assert_eq!(supported_percentile(16, 0.95), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank_on_raw_samples() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.95), (950.0, 0.95));
        assert_eq!(percentile(&samples, 0.5).0, 500.5);
        // 40 samples support p75 at most: rank ceil(0.75 * 40) = 30.
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.95), (30.0, 0.75));
        // Too few samples: the median stands in.
        assert_eq!(percentile(&[1.0, 2.0, 30.0], 0.95), (2.0, 0.5));
    }

    #[test]
    fn geomean_weighs_every_value_the_same() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
        // Halving one value moves the mean as much as halving another.
        let a = geomean(&[2.0, 1000.0]);
        let b = geomean(&[4.0, 500.0]);
        assert!((a - b).abs() < 1e-9);
    }
}
