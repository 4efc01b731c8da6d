//! Small statistics helpers shared across the workspace.
//!
//! Table I of the paper reports the mean and standard deviation of the market
//! value, reserve price, posted price, and per-round regret.  [`OnlineStats`]
//! accumulates those quantities in one pass (Welford's algorithm) without
//! storing the whole trace, which matters for the 10⁵-round sweeps.

use crate::error::{LinalgError, Result};

/// Arithmetic mean of a slice; zero for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation (divide by `n`); zero for fewer than one
/// element.
#[must_use]
pub fn population_std(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Sample standard deviation (divide by `n - 1`); zero for fewer than two
/// elements.
#[must_use]
pub fn sample_std(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

/// Linearly-interpolated quantile of an **ascending-sorted** slice, with `q`
/// clamped to `[0, 1]` (`q = 0.5` is the median, `q = 0.99` the p99).
///
/// A single element is every quantile of itself.
///
/// # Errors
/// Returns [`LinalgError::Empty`] for an empty slice — a quantile of nothing
/// is undefined, and silently producing `NaN` used to poison downstream
/// aggregates.  Callers that want a sentinel instead opt in explicitly with
/// `.unwrap_or(f64::NAN)`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Result<f64> {
    if sorted.is_empty() {
        return Err(LinalgError::Empty {
            operation: "quantile_sorted",
        });
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a copy of `values` and reads off one quantile per entry of `qs`.
///
/// Convenience wrapper over [`quantile_sorted`] for callers that hold an
/// unsorted latency trace and want, say, the p50 and p99 in one pass.
///
/// # Errors
/// Returns [`LinalgError::Empty`] when `values` is empty (see
/// [`quantile_sorted`]).
pub fn quantiles(values: &[f64], qs: &[f64]) -> Result<Vec<f64>> {
    if values.is_empty() {
        return Err(LinalgError::Empty {
            operation: "quantiles",
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    qs.iter().map(|&q| quantile_sorted(&sorted, q)).collect()
}

/// A bounded sliding window of the most recent samples, for quantile
/// estimation over unbounded streams.
///
/// Long-lived processes (serving engines, open-ended pricing sessions)
/// record one latency sample per request forever; retaining them all would
/// grow memory without bound.  `SampleWindow` keeps the most recent
/// `capacity` samples in a ring buffer — pair it with [`OnlineStats`] for
/// exact all-time mean/min/max alongside windowed percentiles.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    samples: Vec<f64>,
    capacity: usize,
    cursor: usize,
}

impl SampleWindow {
    /// An empty window retaining at most `capacity` samples (clamped to at
    /// least 1).  No memory is reserved up front; the buffer grows with the
    /// stream until it reaches capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            samples: Vec::new(),
            capacity: capacity.max(1),
            cursor: 0,
        }
    }

    /// Pushes one sample, evicting the oldest once the window is full.
    pub fn push(&mut self, sample: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.cursor] = sample;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// Number of samples currently retained (`<= capacity`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been retained yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The configured retention capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained samples in storage (not arrival) order — sufficient for
    /// order-insensitive consumers like [`quantiles`].
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.samples
    }

    /// The retained samples in oldest-to-newest order (once the ring has
    /// wrapped, storage indices `0..cursor` hold the newest samples).
    pub fn iter_chronological(&self) -> impl Iterator<Item = f64> + '_ {
        let (newest, oldest) = self.samples.split_at(self.cursor);
        oldest.iter().chain(newest.iter()).copied()
    }

    /// Quantiles over the retained window (e.g. `&[0.5, 0.99]`).
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] when the window holds no samples yet.
    pub fn quantiles(&self, qs: &[f64]) -> Result<Vec<f64>> {
        quantiles(&self.samples, qs)
    }
}

/// Streaming mean / variance / min / max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every observation in `values`.
    pub fn extend(&mut self, values: &[f64]) {
        for &v in values {
            self.push(v);
        }
    }

    /// Rebuilds an accumulator from previously captured raw state — the
    /// persistence path (e.g. `pdm-service` snapshots).  `m2` is the raw
    /// second central moment as returned by [`OnlineStats::m2`]; a restored
    /// accumulator continues bit-identically to the original.
    #[must_use]
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, sum: f64, min: f64, max: f64) -> Self {
        if count == 0 {
            return Self::new();
        }
        Self {
            count,
            mean,
            m2,
            min,
            max,
            sum,
        }
    }

    /// The raw aggregated second central moment `Σ (x − mean)²` (Welford's
    /// `M2`), exposed so persistence layers can round-trip the accumulator
    /// exactly; everyday callers want the variance accessors instead.
    #[must_use]
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (zero when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of the observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (zero when empty).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample variance (zero when fewer than two observations).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        let new_m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = new_mean;
        self.m2 = new_m2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn slice_helpers_match_known_values() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(approx_eq(mean(&data), 5.0, 1e-12));
        assert!(approx_eq(population_std(&data), 2.0, 1e-12));
        assert!(sample_std(&data) > population_std(&data));
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(population_std(&[]), 0.0);
        assert_eq!(sample_std(&[]), 0.0);
        assert_eq!(sample_std(&[1.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_and_handle_edges() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        let q = |s: &[f64], q: f64| quantile_sorted(s, q).unwrap();
        assert!(approx_eq(q(&sorted, 0.0), 1.0, 1e-12));
        assert!(approx_eq(q(&sorted, 0.5), 3.0, 1e-12));
        assert!(approx_eq(q(&sorted, 1.0), 5.0, 1e-12));
        assert!(approx_eq(q(&sorted, 0.25), 2.0, 1e-12));
        // Interpolation between ranks.
        assert!(approx_eq(q(&[1.0, 2.0], 0.75), 1.75, 1e-12));
        // Out-of-range q is clamped; single element is every quantile.
        assert!(approx_eq(q(&[7.0], 0.99), 7.0, 1e-12));
        assert!(approx_eq(q(&sorted, 2.0), 5.0, 1e-12));
    }

    #[test]
    fn empty_input_is_a_documented_error_not_nan() {
        assert_eq!(
            quantile_sorted(&[], 0.5),
            Err(LinalgError::Empty {
                operation: "quantile_sorted"
            })
        );
        assert_eq!(
            quantiles(&[], &[0.5, 0.99]),
            Err(LinalgError::Empty {
                operation: "quantiles"
            })
        );
        // The error message names the operation for actionable diagnostics.
        let message = quantiles(&[], &[0.5]).unwrap_err().to_string();
        assert!(message.contains("quantiles"), "{message}");
    }

    #[test]
    fn sample_window_evicts_oldest_and_iterates_chronologically() {
        let mut window = SampleWindow::new(4);
        assert!(window.is_empty());
        assert!(window.quantiles(&[0.5]).is_err());
        for i in 0..6 {
            window.push(i as f64);
        }
        // Capacity 4 retains the newest samples 2..=5.
        assert_eq!(window.len(), 4);
        assert_eq!(window.capacity(), 4);
        let chronological: Vec<f64> = window.iter_chronological().collect();
        assert_eq!(chronological, vec![2.0, 3.0, 4.0, 5.0]);
        let qs = window.quantiles(&[0.0, 1.0]).unwrap();
        assert_eq!(qs, vec![2.0, 5.0]);
        // Degenerate capacity is clamped to one sample.
        let mut tiny = SampleWindow::new(0);
        tiny.push(1.0);
        tiny.push(2.0);
        assert_eq!(tiny.as_slice(), &[2.0]);
    }

    #[test]
    fn quantiles_sorts_a_copy() {
        let unsorted = [5.0, 1.0, 3.0, 2.0, 4.0];
        let qs = quantiles(&unsorted, &[0.5, 0.99]).unwrap();
        assert!(approx_eq(qs[0], 3.0, 1e-12));
        assert!(approx_eq(qs[1], 4.96, 1e-12));
        // The input slice is untouched.
        assert_eq!(unsorted[0], 5.0);
    }

    #[test]
    fn online_matches_batch() {
        let data = [1.5, -2.0, 3.25, 0.0, 10.0, -7.5];
        let mut s = OnlineStats::new();
        s.extend(&data);
        assert_eq!(s.count(), data.len() as u64);
        assert!(approx_eq(s.mean(), mean(&data), 1e-12));
        assert!(approx_eq(s.population_std(), population_std(&data), 1e-12));
        assert!(approx_eq(s.sample_std(), sample_std(&data), 1e-12));
        assert!(approx_eq(s.sum(), data.iter().sum::<f64>(), 1e-12));
        assert_eq!(s.min(), -7.5);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn merge_matches_single_pass() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut sa = OnlineStats::new();
        sa.extend(&a);
        let mut sb = OnlineStats::new();
        sb.extend(&b);
        sa.merge(&sb);

        let mut all = OnlineStats::new();
        all.extend(&a);
        all.extend(&b);

        assert_eq!(sa.count(), all.count());
        assert!(approx_eq(sa.mean(), all.mean(), 1e-12));
        assert!(approx_eq(
            sa.population_variance(),
            all.population_variance(),
            1e-9
        ));
        assert_eq!(sa.min(), all.min());
        assert_eq!(sa.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.extend(&[1.0, 2.0]);
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s.count(), before.count());
        assert!(approx_eq(s.mean(), before.mean(), 1e-15));

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn empty_online_stats_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_std(), 0.0);
        assert_eq!(s.count(), 0);
    }
}
