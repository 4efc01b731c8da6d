//! Configuration shared by the contextual pricing mechanisms.

use crate::environment::Environment;

/// Configuration of a contextual posted-price mechanism.
///
/// The four versions evaluated in the paper map onto two switches:
///
/// | paper name                          | `use_reserve` | `delta`   |
/// |-------------------------------------|---------------|-----------|
/// | pure version (Algorithm 1*)         | `false`       | `0`       |
/// | with uncertainty (Algorithm 2*)     | `false`       | `> 0`     |
/// | with reserve price (Algorithm 1)    | `true`        | `0`       |
/// | with reserve price and uncertainty (Algorithm 2) | `true` | `> 0` |
///
/// `cut_on_conservative` enables the misbehaving variant analysed in Lemma 8
/// (conservative prices are allowed to refine the knowledge set), which the
/// ablation benchmark uses to demonstrate the Ω(T) blow-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricingConfig {
    /// Radius `R` of the initial knowledge-set ball (a bound on ‖θ*‖).
    pub initial_radius: f64,
    /// Bound `S` on the norm of the mapped feature vectors ‖φ(x)‖.
    pub feature_bound: f64,
    /// Horizon `T` used by the default exploration-threshold heuristic.
    pub horizon: usize,
    /// Explicit exploration threshold ε; when `None` the paper's choice
    /// (`ln²T / T` for `n = 1`, `n²/T` otherwise, floored at `4nδ`) is used.
    pub epsilon: Option<f64>,
    /// Uncertainty buffer δ of Algorithm 2 (zero disables it).
    pub delta: f64,
    /// Whether the reserve price constrains the posted price.
    pub use_reserve: bool,
    /// Lemma-8 ablation switch: allow conservative prices to cut.
    pub cut_on_conservative: bool,
}

impl PricingConfig {
    /// Creates a configuration with the given knowledge-set radius and
    /// horizon; every other field starts at the paper's defaults (unit
    /// feature bound, reserve enabled, no uncertainty).
    #[must_use]
    pub fn new(initial_radius: f64, horizon: usize) -> Self {
        Self {
            initial_radius,
            feature_bound: 1.0,
            horizon: horizon.max(1),
            epsilon: None,
            delta: 0.0,
            use_reserve: true,
            cut_on_conservative: false,
        }
    }

    /// Derives the radius and feature bound from an environment's hints.
    #[must_use]
    pub fn for_environment<E: Environment + ?Sized>(env: &E, horizon: usize) -> Self {
        let mut cfg = Self::new(env.weight_norm_bound(), horizon);
        cfg.feature_bound = env.feature_norm_bound();
        cfg
    }

    /// Enables or disables the reserve-price constraint.
    #[must_use]
    pub fn with_reserve(mut self, use_reserve: bool) -> Self {
        self.use_reserve = use_reserve;
        self
    }

    /// Sets the uncertainty buffer δ.
    #[must_use]
    pub fn with_uncertainty(mut self, delta: f64) -> Self {
        self.delta = delta.max(0.0);
        self
    }

    /// Sets an explicit exploration threshold ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon.max(0.0));
        self
    }

    /// Sets the feature-norm bound `S`.
    #[must_use]
    pub fn with_feature_bound(mut self, bound: f64) -> Self {
        self.feature_bound = bound.max(1e-12);
        self
    }

    /// Enables the Lemma-8 misbehaving variant that cuts on conservative
    /// prices.
    #[must_use]
    pub fn with_conservative_cuts(mut self, enabled: bool) -> Self {
        self.cut_on_conservative = enabled;
        self
    }

    /// The exploration threshold actually used for a mechanism learning an
    /// `n`-dimensional weight vector: the explicit ε if one was set, otherwise
    /// the paper's schedule `max(n²/T, 4nδ)` (with `ln²T / T` replacing
    /// `n²/T` in the one-dimensional case, per Theorem 3).
    #[must_use]
    pub fn effective_epsilon(&self, dim: usize) -> f64 {
        if let Some(eps) = self.epsilon {
            return eps;
        }
        let t = self.horizon.max(2) as f64;
        let n = dim.max(1) as f64;
        let schedule = if dim <= 1 {
            let ln_t = t.ln();
            ln_t * ln_t / t
        } else {
            n * n / t
        };
        schedule.max(4.0 * n * self.delta)
    }

    /// Human-readable name matching the paper's terminology for the four
    /// mechanism versions.
    #[must_use]
    pub fn version_name(&self) -> &'static str {
        match (self.use_reserve, self.delta > 0.0) {
            (false, false) => "pure version",
            (false, true) => "with uncertainty",
            (true, false) => "with reserve price",
            (true, true) => "with reserve price and uncertainty",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let cfg = PricingConfig::new(2.0, 1000)
            .with_reserve(false)
            .with_uncertainty(0.05)
            .with_feature_bound(3.0)
            .with_epsilon(0.1)
            .with_conservative_cuts(true);
        assert_eq!(cfg.initial_radius, 2.0);
        assert_eq!(cfg.horizon, 1000);
        assert!(!cfg.use_reserve);
        assert_eq!(cfg.delta, 0.05);
        assert_eq!(cfg.feature_bound, 3.0);
        assert_eq!(cfg.epsilon, Some(0.1));
        assert!(cfg.cut_on_conservative);
        assert_eq!(cfg.effective_epsilon(10), 0.1);
    }

    #[test]
    fn epsilon_schedule_matches_paper() {
        let cfg = PricingConfig::new(1.0, 10_000);
        // Multi-dimensional: n²/T.
        assert!((cfg.effective_epsilon(20) - 400.0 / 10_000.0).abs() < 1e-12);
        // One-dimensional: ln²T / T.
        let t = 10_000.0_f64;
        assert!((cfg.effective_epsilon(1) - t.ln() * t.ln() / t).abs() < 1e-12);
    }

    #[test]
    fn epsilon_floor_scales_with_delta() {
        let cfg = PricingConfig::new(1.0, 1_000_000).with_uncertainty(0.01);
        // n²/T is tiny here, so the 4nδ floor dominates.
        assert!((cfg.effective_epsilon(10) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn version_names_cover_all_variants() {
        let base = PricingConfig::new(1.0, 100);
        assert_eq!(base.with_reserve(false).version_name(), "pure version");
        assert_eq!(
            base.with_reserve(false)
                .with_uncertainty(0.1)
                .version_name(),
            "with uncertainty"
        );
        assert_eq!(base.version_name(), "with reserve price");
        assert_eq!(
            base.with_uncertainty(0.1).version_name(),
            "with reserve price and uncertainty"
        );
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let cfg = PricingConfig::new(1.0, 0)
            .with_uncertainty(-2.0)
            .with_epsilon(-0.5);
        assert_eq!(cfg.delta, 0.0);
        assert_eq!(cfg.epsilon, Some(0.0));
        assert!(cfg.horizon >= 1);
    }
}
