//! Online statistics and histogram helpers.
//!
//! The experiment harness summarises large numbers of latency samples and
//! execution times; these helpers provide numerically stable mean/variance
//! (Welford's algorithm), percentiles, and simple fixed-width histograms
//! without pulling in a statistics dependency.

use serde::{Deserialize, Serialize};

/// Numerically stable online mean / variance / min / max accumulator.
///
/// ```
/// use gnc_common::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n); 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `samples` using linear
/// interpolation between order statistics. Returns `None` for an empty
/// slice.
///
/// The input does not need to be sorted; a sorted copy is made internally.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A fixed-width histogram over `[lo, hi)` with values outside the range
/// clamped into the first / last bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Adds one sample, clamping out-of-range values into the edge bins.
    pub fn push(&mut self, x: f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = ((x - self.lo) / width).floor();
        let idx = idx.clamp(0.0, (self.bins.len() - 1) as f64) as usize;
        self.bins[idx] += 1;
    }

    /// The bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The inclusive lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + width * i as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let s: OnlineStats = xs.iter().copied().collect();
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let naive_var = xs.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - naive_mean).abs() < 1e-10);
        assert!((s.population_variance() - naive_var).abs() < 1e-10);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.7).collect();
        let ys: Vec<f64> = (0..30).map(|i| 100.0 - i as f64).collect();
        let mut merged: OnlineStats = xs.iter().copied().collect();
        let other: OnlineStats = ys.iter().copied().collect();
        merged.merge(&other);
        let seq: OnlineStats = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-10);
        assert!((merged.population_variance() - seq.population_variance()).abs() < 1e-9);
        assert_eq!(merged.min(), seq.min());
        assert_eq!(merged.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), Some(3.0));
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push(-1.0); // clamps to bin 0
        h.push(0.5);
        h.push(3.0);
        h.push(9.99);
        h.push(42.0); // clamps to last bin
        assert_eq!(h.bins(), &[2, 1, 0, 0, 2]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bin_lo(0), 0.0);
        assert_eq!(h.bin_lo(4), 8.0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
