//! Market value uncertainty (Section III-B).
//!
//! The random perturbation `δ_t` added to each market value is assumed to be
//! σ-sub-Gaussian.  Algorithm 2 absorbs it with a fixed *buffer*
//! `δ = √(2 ln C) · σ · ln T` that bounds every `|δ_t|` simultaneously with
//! probability at least `1 − 1/T` (Eq. 5–6 of the paper).
//!
//! [`NoiseModel`] enumerates the sub-Gaussian distributions the evaluation
//! uses; [`UncertaintyBudget`] packages the buffer computation so mechanisms
//! and environments agree on the same δ.

use pdm_linalg::sampling;
use rand::Rng;

/// A sub-Gaussian noise distribution for the market-value perturbation `δ_t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModel {
    /// No uncertainty: `δ_t = 0` (the setting of Algorithm 1 / 1*).
    None,
    /// Gaussian noise with the given standard deviation.
    Gaussian {
        /// Standard deviation σ.
        std_dev: f64,
    },
    /// Uniform noise on `[−half_width, half_width]`.
    Uniform {
        /// Half-width of the support.
        half_width: f64,
    },
    /// Rademacher noise: ±`magnitude` with equal probability.
    Rademacher {
        /// Magnitude of the two support points.
        magnitude: f64,
    },
}

impl NoiseModel {
    /// Draws one perturbation `δ_t`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            NoiseModel::None => 0.0,
            NoiseModel::Gaussian { std_dev } => sampling::normal(rng, 0.0, std_dev),
            NoiseModel::Uniform { half_width } => sampling::uniform(rng, -half_width, half_width),
            NoiseModel::Rademacher { magnitude } => sampling::rademacher(rng, magnitude),
        }
    }

    /// A sub-Gaussian parameter σ for the distribution (the smallest standard
    /// choice for each family).
    #[must_use]
    pub fn sub_gaussian_sigma(&self) -> f64 {
        match *self {
            NoiseModel::None => 0.0,
            NoiseModel::Gaussian { std_dev } => std_dev,
            // A bounded zero-mean variable on [−b, b] is b-sub-Gaussian.
            NoiseModel::Uniform { half_width } => half_width,
            NoiseModel::Rademacher { magnitude } => magnitude,
        }
    }

    /// Returns `true` when the model produces non-zero noise.
    #[must_use]
    pub fn is_noisy(&self) -> bool {
        self.sub_gaussian_sigma() > 0.0
    }
}

/// The δ buffer of Algorithm 2, derived from a noise model and a horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertaintyBudget {
    /// The buffer δ used when posting prices and positioning cuts.
    pub delta: f64,
    /// The sub-Gaussian parameter σ the buffer was derived from.
    pub sigma: f64,
    /// The horizon `T` the buffer was derived for.
    pub horizon: usize,
}

impl UncertaintyBudget {
    /// A zero buffer (the no-uncertainty setting).
    #[must_use]
    pub fn none() -> Self {
        Self {
            delta: 0.0,
            sigma: 0.0,
            horizon: 0,
        }
    }

    /// Computes the paper's buffer `δ = √(2 ln C) · σ · ln T` with the
    /// Gaussian constant `C = 2`.
    ///
    /// For `T < 8` the union-bound argument behind the buffer is vacuous, so
    /// the horizon is clamped below at 8.
    #[must_use]
    pub fn from_noise(noise: &NoiseModel, horizon: usize) -> Self {
        let sigma = noise.sub_gaussian_sigma();
        let t = horizon.max(8) as f64;
        let c: f64 = 2.0;
        Self {
            delta: (2.0 * c.ln()).sqrt() * sigma * t.ln(),
            sigma,
            horizon,
        }
    }

    /// Builds a budget from an explicit δ (used when reproducing the paper's
    /// evaluation, which fixes δ = 0.01 regardless of n and T).
    #[must_use]
    pub fn from_delta(delta: f64) -> Self {
        Self {
            delta: delta.max(0.0),
            sigma: 0.0,
            horizon: 0,
        }
    }

    /// The standard deviation an environment should use so that the paper's
    /// relation `σ = δ / (√(2 ln 2) · ln T)` holds (Section V-A).
    #[must_use]
    pub fn implied_gaussian_sigma(&self, horizon: usize) -> f64 {
        let t = (horizon.max(8)) as f64;
        self.delta / ((2.0 * 2.0_f64.ln()).sqrt() * t.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::OnlineStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_model_is_silent() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(NoiseModel::None.sample(&mut rng), 0.0);
        assert!(!NoiseModel::None.is_noisy());
        assert_eq!(NoiseModel::None.sub_gaussian_sigma(), 0.0);
    }

    #[test]
    fn gaussian_sample_statistics() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = NoiseModel::Gaussian { std_dev: 0.3 };
        let mut stats = OnlineStats::new();
        for _ in 0..30_000 {
            stats.push(model.sample(&mut rng));
        }
        assert!(stats.mean().abs() < 0.01);
        assert!((stats.population_std() - 0.3).abs() < 0.01);
        assert!(model.is_noisy());
    }

    #[test]
    fn uniform_and_rademacher_are_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let u = NoiseModel::Uniform { half_width: 0.2 };
        let r = NoiseModel::Rademacher { magnitude: 0.1 };
        for _ in 0..1000 {
            assert!(u.sample(&mut rng).abs() <= 0.2);
            assert!((r.sample(&mut rng).abs() - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn budget_formula_matches_paper() {
        let noise = NoiseModel::Gaussian { std_dev: 0.05 };
        let horizon = 100_000;
        let budget = UncertaintyBudget::from_noise(&noise, horizon);
        let expected = (2.0 * 2.0_f64.ln()).sqrt() * 0.05 * (horizon as f64).ln();
        assert!((budget.delta - expected).abs() < 1e-12);
        assert_eq!(budget.sigma, 0.05);
    }

    #[test]
    fn budget_bounds_noise_with_high_probability() {
        // With δ computed from the formula, essentially every draw should be
        // inside [−δ, δ].
        let noise = NoiseModel::Gaussian { std_dev: 0.01 };
        let horizon = 10_000;
        let budget = UncertaintyBudget::from_noise(&noise, horizon);
        let mut rng = StdRng::seed_from_u64(4);
        let violations = (0..horizon)
            .filter(|_| noise.sample(&mut rng).abs() > budget.delta)
            .count();
        assert_eq!(
            violations, 0,
            "the δ buffer should cover all {horizon} draws"
        );
    }

    #[test]
    fn explicit_delta_and_implied_sigma_roundtrip() {
        let budget = UncertaintyBudget::from_delta(0.01);
        assert_eq!(budget.delta, 0.01);
        let sigma = budget.implied_gaussian_sigma(100_000);
        let back = UncertaintyBudget::from_noise(&NoiseModel::Gaussian { std_dev: sigma }, 100_000);
        assert!((back.delta - 0.01).abs() < 1e-9);
    }

    #[test]
    fn negative_delta_is_clamped() {
        assert_eq!(UncertaintyBudget::from_delta(-1.0).delta, 0.0);
    }

    #[test]
    fn small_horizon_is_clamped() {
        let b = UncertaintyBudget::from_noise(&NoiseModel::Gaussian { std_dev: 1.0 }, 2);
        assert!(b.delta > 0.0);
        assert!(b.delta.is_finite());
    }
}
