//! Broker-side feature construction (Section II-B).
//!
//! The broker summarises a query's per-owner privacy-compensation profile
//! into an `n`-dimensional feature vector: sort the compensations, split them
//! into `n` equal partitions, sum each partition, and L2-normalise the
//! result.  The two extremes the paper mentions are `n = 1` (the single
//! feature is the total compensation) and `n = #owners` (one feature per
//! owner).

use pdm_linalg::Vector;

/// Aggregates per-owner compensations into a fixed-dimension feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureAggregator {
    dim: usize,
    normalize: bool,
}

impl FeatureAggregator {
    /// Creates an aggregator producing `dim`-dimensional features,
    /// L2-normalised as in the paper.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self {
            dim,
            normalize: true,
        }
    }

    /// Disables the final L2 normalisation (used by tests and by callers
    /// that need the raw partition sums).
    #[must_use]
    pub fn without_normalization(mut self) -> Self {
        self.normalize = false;
        self
    }

    /// Output feature dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Builds the feature vector from per-owner compensations.
    ///
    /// Owners whose compensation is zero still participate (they dilute their
    /// partition), matching the paper's construction where every owner's
    /// compensation is computed for every query.
    #[must_use]
    pub fn features(&self, compensations: &[f64]) -> Vector {
        let mut sorted: Vec<f64> = compensations.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        let mut sums = vec![0.0_f64; self.dim];
        if !sorted.is_empty() {
            let count = sorted.len();
            for (i, value) in sorted.iter().enumerate() {
                // Even split of the sorted list into `dim` contiguous
                // partitions; the last partition absorbs the remainder.
                let partition = (i * self.dim / count).min(self.dim - 1);
                sums[partition] += value;
            }
        }
        let vector = Vector::from_vec(sums);
        if self.normalize {
            vector.normalized()
        } else {
            vector
        }
    }

    /// Convenience: features plus the reserve price (the sum of the
    /// *normalised* features, i.e. the total compensation re-expressed in the
    /// normalised scale the posted prices live in).
    #[must_use]
    pub fn features_and_reserve(&self, compensations: &[f64]) -> (Vector, f64) {
        let features = self.features(compensations);
        let reserve = features.sum();
        (features, reserve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_all_compensations() {
        let agg = FeatureAggregator::new(3).without_normalization();
        let comps = vec![5.0, 1.0, 3.0, 2.0, 4.0, 6.0];
        let f = agg.features(&comps);
        // Sorted: 1 2 | 3 4 | 5 6.
        assert_eq!(f.as_slice(), &[3.0, 7.0, 11.0]);
        assert!((f.sum() - comps.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn uneven_population_assigns_remainder_to_last_partition() {
        let agg = FeatureAggregator::new(2).without_normalization();
        let comps = vec![1.0, 2.0, 3.0];
        let f = agg.features(&comps);
        // i*2/3: 0, 0, 1 → partitions {1,2}, {3}.
        assert_eq!(f.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn normalized_features_have_unit_norm() {
        let agg = FeatureAggregator::new(4);
        let comps: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let f = agg.features(&comps);
        assert!((f.norm() - 1.0).abs() < 1e-12);
        // Sorted partitions of an increasing sequence are themselves
        // increasing.
        for w in f.as_slice().windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn single_partition_is_total_compensation() {
        let agg = FeatureAggregator::new(1).without_normalization();
        let comps = vec![0.5, 1.5, 2.0];
        assert_eq!(agg.features(&comps).as_slice(), &[4.0]);
    }

    #[test]
    fn one_partition_per_owner_recovers_sorted_compensations() {
        let agg = FeatureAggregator::new(4).without_normalization();
        let comps = vec![3.0, 1.0, 4.0, 2.0];
        assert_eq!(agg.features(&comps).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_and_zero_compensations_are_safe() {
        let agg = FeatureAggregator::new(3);
        let f = agg.features(&[]);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| *x == 0.0));
        let f = agg.features(&[0.0, 0.0]);
        assert!(f.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn reserve_is_sum_of_normalized_features() {
        let agg = FeatureAggregator::new(5);
        let comps: Vec<f64> = (1..=50).map(|i| (i % 7) as f64 + 0.5).collect();
        let (features, reserve) = agg.features_and_reserve(&comps);
        assert!((reserve - features.sum()).abs() < 1e-12);
        assert!(reserve > 0.0);
        // For a unit-norm non-negative vector the sum lies in [1, √n].
        assert!(reserve <= (5.0_f64).sqrt() + 1e-12);
        assert!(reserve >= 1.0 - 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = FeatureAggregator::new(0);
    }
}
