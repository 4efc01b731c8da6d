//! The fundamental linear market value model `v = x^T θ*` (Section III).

use super::MarketValueModel;
use pdm_linalg::Vector;

/// Linear model: identity feature map, identity link.
///
/// This is the model under which the paper develops Algorithms 1 and 2 and
/// under which the noisy-linear-query application (Section V-A) is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearModel {
    dim: usize,
}

impl LinearModel {
    /// Creates a linear model over `dim`-dimensional feature vectors.
    ///
    /// # Panics
    /// Panics when `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self { dim }
    }
}

impl MarketValueModel for LinearModel {
    fn name(&self) -> &'static str {
        "linear"
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
        z
    }

    fn inverse_link(&self, value: f64) -> f64 {
        value
    }

    fn lipschitz_constant(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_map_and_link() {
        let m = LinearModel::new(3);
        assert_eq!(m.input_dim(), 3);
        assert_eq!(m.mapped_dim(), 3);
        let x = Vector::from_slice(&[1.0, -2.0, 0.5]);
        assert_eq!(m.map_features(&x), x);
        assert_eq!(m.link(1.25), 1.25);
        assert_eq!(m.inverse_link(-0.5), -0.5);
    }

    #[test]
    fn value_is_dot_product() {
        let m = LinearModel::new(2);
        let x = Vector::from_slice(&[2.0, 3.0]);
        let theta = Vector::from_slice(&[0.5, 1.0]);
        assert!((m.value(&x, &theta) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = LinearModel::new(0);
    }
}
