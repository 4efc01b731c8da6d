//! The logistic market value model used for impression pricing (Section IV-A
//! and the Avazu application of Section V-C).
//!
//! The market value of an impression is its click-through rate, modelled as a
//! sigmoid of a linear score.  The paper writes the sigmoid as
//! `1/(1 + exp(x^T θ*))`; because the framework requires a *non-decreasing*
//! link, we use the standard increasing parameterisation
//! `σ(z) = 1/(1 + exp(−z))` (the two differ only by the sign convention on
//! `θ*`).

use super::MarketValueModel;
use pdm_linalg::Vector;

/// CTR values are clamped into `[CLAMP, 1 − CLAMP]` before applying the logit
/// inverse link so reserve prices of exactly 0 or 1 stay finite.
const CLAMP: f64 = 1e-9;

/// Logistic model: identity feature map, sigmoid link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogisticModel {
    dim: usize,
}

impl LogisticModel {
    /// Creates a logistic model over `dim`-dimensional feature vectors.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self { dim }
    }

    /// The sigmoid `σ(z) = 1 / (1 + e^{−z})`, exposed for reuse by the
    /// FTRL-Proximal learner.
    #[must_use]
    pub fn sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }
}

impl MarketValueModel for LogisticModel {
    fn name(&self) -> &'static str {
        "logistic"
    }

    fn input_dim(&self) -> usize {
        self.dim
    }

    fn mapped_dim(&self) -> usize {
        self.dim
    }

    fn map_features(&self, features: &Vector) -> Vector {
        features.clone()
    }

    fn map_features_into(&self, features: &Vector, out: &mut Vector) {
        out.copy_from(features);
    }

    fn link(&self, z: f64) -> f64 {
        Self::sigmoid(z)
    }

    fn inverse_link(&self, value: f64) -> f64 {
        let v = value.clamp(CLAMP, 1.0 - CLAMP);
        (v / (1.0 - v)).ln()
    }

    fn lipschitz_constant(&self) -> f64 {
        // σ'(z) ≤ 1/4 everywhere.
        0.25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basic_values() {
        assert!((LogisticModel::sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(LogisticModel::sigmoid(10.0) > 0.9999);
        assert!(LogisticModel::sigmoid(-10.0) < 0.0001);
        // Numerically stable for extreme arguments.
        assert!(LogisticModel::sigmoid(-800.0) >= 0.0);
        assert!(LogisticModel::sigmoid(800.0) <= 1.0);
    }

    #[test]
    fn logit_inverts_sigmoid() {
        let m = LogisticModel::new(4);
        for &z in &[-3.0, -0.5, 0.0, 1.2, 4.0] {
            let v = m.link(z);
            assert!((m.inverse_link(v) - z).abs() < 1e-7);
        }
    }

    #[test]
    fn inverse_link_clamps_boundaries() {
        let m = LogisticModel::new(4);
        assert!(m.inverse_link(0.0).is_finite());
        assert!(m.inverse_link(1.0).is_finite());
        assert!(m.inverse_link(-0.3).is_finite());
        assert!(m.inverse_link(1.7).is_finite());
    }

    #[test]
    fn values_are_valid_ctrs() {
        let m = LogisticModel::new(3);
        let theta = Vector::from_slice(&[2.0, -1.0, 0.5]);
        for raw in [[1.0, 0.0, 0.0], [0.0, 5.0, 0.0], [1.0, 1.0, 1.0]] {
            let v = m.value(&Vector::from_slice(&raw), &theta);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
