//! Data consumers and their (hidden) valuations.
//!
//! The paper models the market value of a query as a function of its feature
//! vector shared across consumers (contextual/hedonic pricing), plus
//! idiosyncratic sub-Gaussian noise.  [`ConsumerPool`] holds that shared
//! valuation profile and mints a [`DataConsumer`] per round; the consumer
//! simply accepts any posted price not exceeding her value.

use pdm_linalg::{sampling, Vector};
use pdm_pricing::uncertainty::NoiseModel;
use rand::Rng;

/// One data consumer arriving in a trading round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataConsumer {
    /// Sequential identifier assigned by the pool.
    pub id: u64,
}

impl DataConsumer {
    /// The consumer's take-it-or-leave-it decision.
    #[must_use]
    pub fn decide(&self, posted_price: f64, market_value: f64) -> bool {
        posted_price <= market_value
    }
}

/// The shared valuation profile of the consumer population.
#[derive(Debug, Clone)]
pub struct ConsumerPool {
    theta_star: Vector,
    noise: NoiseModel,
    next_id: u64,
}

impl ConsumerPool {
    /// Creates a pool with an explicit valuation weight vector.
    ///
    /// # Panics
    /// Panics when the weight vector is empty.
    #[must_use]
    pub fn new(theta_star: Vector, noise: NoiseModel) -> Self {
        assert!(
            !theta_star.is_empty(),
            "valuation weights must be non-empty"
        );
        Self {
            theta_star,
            noise,
            next_id: 0,
        }
    }

    /// Samples a valuation profile with the paper's Section V-A scaling:
    /// positive per-feature markup ratios normalised to ‖θ*‖ = √(2n), so
    /// market values exceed the compensation-based reserve prices with high
    /// probability.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, feature_dim: usize, noise: NoiseModel) -> Self {
        assert!(feature_dim > 0, "feature dimension must be positive");
        let raw = Vector::from_fn(feature_dim, |_| {
            (1.0 + 0.2 * sampling::standard_normal(rng)).clamp(0.75, 1.25)
        });
        let target = (2.0 * feature_dim as f64).sqrt();
        let theta_star = raw.scaled(target / raw.norm().max(1e-12));
        Self::new(theta_star, noise)
    }

    /// The ground-truth valuation weights (hidden from the broker).
    #[must_use]
    pub fn theta_star(&self) -> &Vector {
        &self.theta_star
    }

    /// Dimension of the feature vectors the pool values.
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.theta_star.len()
    }

    /// The market value of a query with the given (normalised) features,
    /// including the idiosyncratic noise of the arriving consumer.
    ///
    /// # Panics
    /// Panics when the feature dimension does not match the pool.
    pub fn market_value<R: Rng + ?Sized>(&self, rng: &mut R, features: &Vector) -> f64 {
        let base = features
            .dot(&self.theta_star)
            // pdm-lint: allow(no-unwrap-in-lib) reason="valuation weights are sized to the market dimension by the consumer constructor"
            .expect("features must match the valuation dimension");
        base + self.noise.sample(rng)
    }

    /// Mints the next arriving consumer.
    pub fn next_consumer(&mut self) -> DataConsumer {
        let id = self.next_id;
        self.next_id += 1;
        DataConsumer { id }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn consumer_accepts_iff_price_not_above_value() {
        let c = DataConsumer { id: 0 };
        assert!(c.decide(1.0, 1.0));
        assert!(c.decide(0.5, 1.0));
        assert!(!c.decide(1.01, 1.0));
    }

    #[test]
    fn sampled_pool_matches_paper_scaling() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = ConsumerPool::sample(&mut rng, 16, NoiseModel::None);
        assert_eq!(pool.feature_dim(), 16);
        assert!((pool.theta_star().norm() - (32.0_f64).sqrt()).abs() < 1e-9);
        assert!(pool.theta_star().iter().all(|w| *w > 0.0));
    }

    #[test]
    fn market_value_is_linear_without_noise() {
        let pool = ConsumerPool::new(Vector::from_slice(&[1.0, 2.0]), NoiseModel::None);
        let mut rng = StdRng::seed_from_u64(2);
        let v = pool.market_value(&mut rng, &Vector::from_slice(&[0.5, 0.25]));
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_perturbs_values() {
        let pool = ConsumerPool::new(
            Vector::from_slice(&[1.0, 1.0]),
            NoiseModel::Gaussian { std_dev: 0.1 },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let x = Vector::from_slice(&[0.5, 0.5]);
        let values: Vec<f64> = (0..10).map(|_| pool.market_value(&mut rng, &x)).collect();
        assert!(values.iter().any(|v| (v - 1.0).abs() > 1e-6));
    }

    #[test]
    fn consumer_ids_are_sequential() {
        let mut pool = ConsumerPool::new(Vector::from_slice(&[1.0]), NoiseModel::None);
        assert_eq!(pool.next_consumer().id, 0);
        assert_eq!(pool.next_consumer().id, 1);
        assert_eq!(pool.next_consumer().id, 2);
    }
}
