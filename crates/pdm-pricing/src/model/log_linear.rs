//! The log-linear hedonic model `log v = x^T θ*` (Section IV-A).
//!
//! This is the model the paper fits to the Airbnb accommodation-rental data:
//! the logarithm of the lodging price is linear in the listing's features.

use super::MarketValueModel;
use pdm_linalg::Vector;

/// Smallest market value accepted by the inverse link; prices at or below
/// zero are clamped here so `ln` stays finite.
const MIN_VALUE: f64 = 1e-12;

/// Log-linear model: identity feature map, exponential link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogLinearModel {
    dim: usize,
}

impl LogLinearModel {
    /// Creates a log-linear model over `dim`-dimensional feature vectors.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self { dim }
    }
}

impl MarketValueModel for LogLinearModel {
    fn name(&self) -> &'static str {
        "log-linear"
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
        z.exp()
    }

    fn inverse_link(&self, value: f64) -> f64 {
        value.max(MIN_VALUE).ln()
    }

    fn lipschitz_constant(&self) -> f64 {
        // exp is not globally Lipschitz; callers provide the bound on the
        // link-value range via `PricingConfig`, and this constant covers link
        // values up to ln(L) = 3 (values up to ≈ 20), matching the magnitude
        // of the Airbnb log-price targets.
        3.0_f64.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_link() {
        let m = LogLinearModel::new(2);
        assert!((m.link(0.0) - 1.0).abs() < 1e-12);
        assert!((m.link(1.0) - std::f64::consts::E).abs() < 1e-12);
        assert!((m.inverse_link(std::f64::consts::E) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_link_clamps_non_positive_values() {
        let m = LogLinearModel::new(2);
        assert!(m.inverse_link(0.0).is_finite());
        assert!(m.inverse_link(-5.0).is_finite());
    }

    #[test]
    fn value_exponentiates_dot_product() {
        let m = LogLinearModel::new(2);
        let x = Vector::from_slice(&[1.0, 2.0]);
        let theta = Vector::from_slice(&[0.1, 0.2]);
        assert!((m.value(&x, &theta) - 0.5_f64.exp()).abs() < 1e-12);
    }
}
