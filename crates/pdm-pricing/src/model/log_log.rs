//! The log-log hedonic model `log v = Σ_i log(x_i) θ*_i` (Section IV-A).
//!
//! Both the market value and the features enter in logarithms; the weight
//! vector therefore collects price *elasticities*, the standard reading in
//! hedonic real-estate studies and in loan-rate modelling.

use super::MarketValueModel;
use pdm_linalg::Vector;

/// Features at or below zero are clamped to this floor before taking the
/// logarithm, so records with zero-valued amenities stay usable.
const MIN_FEATURE: f64 = 1e-9;
/// Floor on market values passed to the inverse link.
const MIN_VALUE: f64 = 1e-12;

/// Log-log model: elementwise-logarithm feature map, exponential link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogLogModel {
    dim: usize,
}

impl LogLogModel {
    /// Creates a log-log model over `dim`-dimensional feature vectors.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self { dim }
    }
}

impl MarketValueModel for LogLogModel {
    fn name(&self) -> &'static str {
        "log-log"
    }

    fn input_dim(&self) -> usize {
        self.dim
    }

    fn mapped_dim(&self) -> usize {
        self.dim
    }

    fn map_features(&self, features: &Vector) -> Vector {
        features.map(|x| x.max(MIN_FEATURE).ln())
    }

    fn map_features_into(&self, features: &Vector, out: &mut Vector) {
        out.copy_from(features);
        for x in out.as_mut_slice() {
            *x = x.max(MIN_FEATURE).ln();
        }
    }

    fn link(&self, z: f64) -> f64 {
        z.exp()
    }

    fn inverse_link(&self, value: f64) -> f64 {
        value.max(MIN_VALUE).ln()
    }

    fn lipschitz_constant(&self) -> f64 {
        3.0_f64.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_map_takes_logs() {
        let m = LogLogModel::new(3);
        let x = Vector::from_slice(&[1.0, std::f64::consts::E, 10.0]);
        let mapped = m.map_features(&x);
        assert!((mapped[0]).abs() < 1e-12);
        assert!((mapped[1] - 1.0).abs() < 1e-12);
        assert!((mapped[2] - 10.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn non_positive_features_are_clamped() {
        let m = LogLogModel::new(2);
        let x = Vector::from_slice(&[0.0, -3.0]);
        let mapped = m.map_features(&x);
        assert!(mapped.is_finite());
    }

    #[test]
    fn elasticity_interpretation() {
        // With θ = (2, 0), doubling the first feature multiplies the value by 4.
        let m = LogLogModel::new(2);
        let theta = Vector::from_slice(&[2.0, 0.0]);
        let v1 = m.value(&Vector::from_slice(&[1.0, 5.0]), &theta);
        let v2 = m.value(&Vector::from_slice(&[2.0, 5.0]), &theta);
        assert!((v2 / v1 - 4.0).abs() < 1e-9);
    }
}
