//! Customised noisy linear queries from data consumers (Section II-A, V-A).
//!
//! A query bundles a data-analysis method — here a linear aggregate with
//! per-owner weights — and a tolerable noise level.  The noise both lets the
//! consumer trade accuracy for price and protects the owners' privacy.

use pdm_linalg::sampling;
use rand::Rng;

/// A noisy linear query `answer = Σ_i w_i · data_i + Laplace(b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearQuery {
    /// Sequential identifier assigned by the generator.
    pub id: u64,
    /// Per-owner weights of the linear aggregate.
    pub weights: Vec<f64>,
    /// Variance of the Laplace noise added to the true answer.
    pub noise_variance: f64,
}

impl LinearQuery {
    /// Creates a query.
    ///
    /// # Panics
    /// Panics when the noise variance is not strictly positive (a noiseless
    /// answer would leak the raw aggregate).
    #[must_use]
    pub fn new(id: u64, weights: Vec<f64>, noise_variance: f64) -> Self {
        assert!(noise_variance > 0.0, "noise variance must be positive");
        Self {
            id,
            weights,
            noise_variance,
        }
    }

    /// Number of data owners the query touches.
    #[must_use]
    pub fn num_owners(&self) -> usize {
        self.weights.len()
    }

    /// Scale `b` of the Laplace noise (variance = 2 b²).
    #[must_use]
    pub fn laplace_scale(&self) -> f64 {
        (self.noise_variance / 2.0).sqrt()
    }

    /// True (noiseless) answer over the given per-owner aggregates.
    ///
    /// # Panics
    /// Panics when `owner_values.len()` differs from the query's weight count.
    #[must_use]
    pub fn true_answer(&self, owner_values: &[f64]) -> f64 {
        assert_eq!(
            owner_values.len(),
            self.weights.len(),
            "owner values must match the query's weights"
        );
        self.weights
            .iter()
            .zip(owner_values.iter())
            .map(|(w, v)| w * v)
            .sum()
    }
}

/// How query weights are drawn (Section V-A uses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryWeightDistribution {
    /// Standard multivariate normal.
    Gaussian,
    /// I.i.d. uniform on `[-1, 1]`.
    Uniform,
}

/// Generates the stream of customised queries from online consumers.
///
/// The paper draws each query's parameters from a standard normal or a
/// uniform distribution and its Laplace-noise variance from
/// `{10^k : |k| ≤ 4}`.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    num_owners: usize,
    distribution: QueryWeightDistribution,
    next_id: u64,
}

impl QueryGenerator {
    /// Creates a generator over `num_owners` data owners.
    ///
    /// # Panics
    /// Panics when `num_owners == 0`.
    #[must_use]
    pub fn new(num_owners: usize, distribution: QueryWeightDistribution) -> Self {
        assert!(num_owners > 0, "a query needs at least one data owner");
        Self {
            num_owners,
            distribution,
            next_id: 0,
        }
    }

    /// Number of owners each generated query covers.
    #[must_use]
    pub fn num_owners(&self) -> usize {
        self.num_owners
    }

    /// Draws the next query.
    pub fn next_query<R: Rng + ?Sized>(&mut self, rng: &mut R) -> LinearQuery {
        let id = self.next_id;
        self.next_id += 1;
        let weights: Vec<f64> = (0..self.num_owners)
            .map(|_| match self.distribution {
                QueryWeightDistribution::Gaussian => sampling::standard_normal(rng),
                QueryWeightDistribution::Uniform => sampling::uniform(rng, -1.0, 1.0),
            })
            .collect();
        // Noise variance 10^k with k uniform on {-4, …, 4}.
        let k: i32 = rng.gen_range(-4..=4);
        let noise_variance = 10f64.powi(k);
        LinearQuery::new(id, weights, noise_variance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn query_answer_and_scale() {
        let q = LinearQuery::new(0, vec![1.0, -2.0, 0.5], 2.0);
        assert_eq!(q.num_owners(), 3);
        assert!((q.laplace_scale() - 1.0).abs() < 1e-12);
        assert!((q.true_answer(&[1.0, 1.0, 2.0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_noise_variance_rejected() {
        let _ = LinearQuery::new(0, vec![1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn answer_length_mismatch_panics() {
        let q = LinearQuery::new(0, vec![1.0, 2.0], 1.0);
        let _ = q.true_answer(&[1.0]);
    }

    #[test]
    fn generator_produces_well_formed_queries() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut generator = QueryGenerator::new(50, QueryWeightDistribution::Gaussian);
        for expected_id in 0..20u64 {
            let q = generator.next_query(&mut rng);
            assert_eq!(q.id, expected_id);
            assert_eq!(q.num_owners(), 50);
            assert!(q.noise_variance >= 1e-4 - 1e-12 && q.noise_variance <= 1e4 + 1e-8);
            // The exponent is an integer power of ten.
            let log = q.noise_variance.log10();
            assert!((log - log.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_generator_bounds_weights() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut generator = QueryGenerator::new(30, QueryWeightDistribution::Uniform);
        for _ in 0..10 {
            let q = generator.next_query(&mut rng);
            assert!(q.weights.iter().all(|w| (-1.0..=1.0).contains(w)));
        }
    }

    #[test]
    fn gaussian_weights_are_not_all_bounded_by_one() {
        // Sanity check that the two distributions genuinely differ.
        let mut rng = StdRng::seed_from_u64(5);
        let mut generator = QueryGenerator::new(200, QueryWeightDistribution::Gaussian);
        let q = generator.next_query(&mut rng);
        assert!(q.weights.iter().any(|w| w.abs() > 1.0));
    }
}
