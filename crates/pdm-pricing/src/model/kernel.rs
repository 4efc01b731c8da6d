//! The kernelized market value model (Section IV-A).
//!
//! The paper's kernelized model writes `v_t = Σ_{k<t} K(x_t, x_k) θ*_k`,
//! i.e. the weight vector lives on the (growing) set of previously seen
//! feature vectors.  A growing dimension is incompatible with a fixed
//! ellipsoid knowledge set, so — as is standard for online kernel methods —
//! we fix a set of *anchor* points up front (a Nyström-style approximation)
//! and learn weights over the kernel evaluations against those anchors:
//!
//! ```text
//! φ(x) = ( K(x, a_1), …, K(x, a_m) ),        v = φ(x)^T θ*.
//! ```
//!
//! This keeps the online mechanism unchanged while capturing the same
//! non-linear dependency on the raw features.

use super::MarketValueModel;
use pdm_linalg::Vector;

/// The Mercer kernels supported by [`KernelizedModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MercerKernel {
    /// `K(x, y) = x·y`
    Linear,
    /// `K(x, y) = (x·y + coef0)^degree`
    Polynomial {
        /// Polynomial degree (≥ 1).
        degree: u32,
        /// Additive constant inside the power.
        coef0: f64,
    },
    /// `K(x, y) = exp(−gamma · ‖x − y‖²)`
    Rbf {
        /// Bandwidth parameter (> 0).
        gamma: f64,
    },
}

impl MercerKernel {
    /// Evaluates the kernel on a pair of points.
    ///
    /// # Panics
    /// Panics when the two points have different dimensions.
    #[must_use]
    pub fn evaluate(&self, x: &Vector, y: &Vector) -> f64 {
        match *self {
            // pdm-lint: allow(no-unwrap-in-lib) reason="kernel arguments are dimension-checked at model entry before any kernel evaluation"
            MercerKernel::Linear => x.dot(y).expect("kernel arguments must share a dimension"),
            MercerKernel::Polynomial { degree, coef0 } => {
                // pdm-lint: allow(no-unwrap-in-lib) reason="kernel arguments are dimension-checked at model entry before any kernel evaluation"
                let base = x.dot(y).expect("kernel arguments must share a dimension") + coef0;
                // pdm-lint: allow(no-lossy-cast) reason="the polynomial degree is a small kernel hyper-parameter (single digits in every config); i32 cannot truncate it"
                base.powi(degree as i32)
            }
            MercerKernel::Rbf { gamma } => {
                let d = x
                    .distance(y)
                    // pdm-lint: allow(no-unwrap-in-lib) reason="kernel arguments are dimension-checked at model entry before any kernel evaluation"
                    .expect("kernel arguments must share a dimension");
                (-gamma * d * d).exp()
            }
        }
    }
}

/// Kernelized model over a fixed anchor set.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelizedModel {
    input_dim: usize,
    anchors: Vec<Vector>,
    kernel: MercerKernel,
}

impl KernelizedModel {
    /// Creates a kernelized model with the given anchors.
    ///
    /// # Panics
    /// Panics when the anchor list is empty or the anchors have inconsistent
    /// dimensions.
    #[must_use]
    pub fn new(anchors: Vec<Vector>, kernel: MercerKernel) -> Self {
        assert!(
            !anchors.is_empty(),
            "kernelized model requires at least one anchor"
        );
        let input_dim = anchors[0].len();
        assert!(
            anchors.iter().all(|a| a.len() == input_dim),
            "anchors must share a dimension"
        );
        Self {
            input_dim,
            anchors,
            kernel,
        }
    }

    /// The anchor points.
    #[must_use]
    pub fn anchors(&self) -> &[Vector] {
        &self.anchors
    }

    /// The kernel in use.
    #[must_use]
    pub fn kernel(&self) -> MercerKernel {
        self.kernel
    }
}

impl MarketValueModel for KernelizedModel {
    fn name(&self) -> &'static str {
        "kernelized"
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn mapped_dim(&self) -> usize {
        self.anchors.len()
    }

    fn map_features(&self, features: &Vector) -> Vector {
        Vector::from_fn(self.anchors.len(), |i| {
            self.kernel.evaluate(features, &self.anchors[i])
        })
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

    fn anchors() -> Vec<Vector> {
        vec![
            Vector::from_slice(&[0.0, 0.0]),
            Vector::from_slice(&[1.0, 0.0]),
            Vector::from_slice(&[0.0, 1.0]),
        ]
    }

    #[test]
    fn kernel_evaluations() {
        let x = Vector::from_slice(&[1.0, 2.0]);
        let y = Vector::from_slice(&[3.0, 4.0]);
        assert!((MercerKernel::Linear.evaluate(&x, &y) - 11.0).abs() < 1e-12);
        let poly = MercerKernel::Polynomial {
            degree: 2,
            coef0: 1.0,
        };
        assert!((poly.evaluate(&x, &y) - 144.0).abs() < 1e-12);
        let rbf = MercerKernel::Rbf { gamma: 0.5 };
        let d2 = 8.0_f64;
        assert!((rbf.evaluate(&x, &y) - (-0.5 * d2).exp()).abs() < 1e-12);
    }

    #[test]
    fn rbf_kernel_is_one_at_identical_points() {
        let rbf = MercerKernel::Rbf { gamma: 2.0 };
        let x = Vector::from_slice(&[0.3, -0.7]);
        assert!((rbf.evaluate(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mapped_dimension_equals_anchor_count() {
        let m = KernelizedModel::new(anchors(), MercerKernel::Rbf { gamma: 1.0 });
        assert_eq!(m.input_dim(), 2);
        assert_eq!(m.mapped_dim(), 3);
        let phi = m.map_features(&Vector::from_slice(&[0.0, 0.0]));
        assert_eq!(phi.len(), 3);
        assert!((phi[0] - 1.0).abs() < 1e-12); // K(x, x) for the RBF kernel
    }

    #[test]
    fn value_is_weighted_kernel_sum() {
        let m = KernelizedModel::new(anchors(), MercerKernel::Linear);
        let theta = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = Vector::from_slice(&[1.0, 1.0]);
        // φ(x) = (0, 1, 1) under the linear kernel with these anchors.
        assert!((m.value(&x, &theta) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one anchor")]
    fn empty_anchor_set_rejected() {
        let _ = KernelizedModel::new(vec![], MercerKernel::Linear);
    }
}
