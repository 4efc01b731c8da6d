//! FTRL-Proximal logistic regression (McMahan et al.), the online learner the
//! paper uses to recover the sparse CTR weight vector for impression pricing
//! (Section V-C).
//!
//! Per-coordinate adaptive learning rates plus L1/L2 regularisation give the
//! hallmark behaviour the paper relies on: excellent log-loss *and* a very
//! sparse weight vector (≈ 20 non-zeros at hashing dimensions 128 and 1024).

use pdm_linalg::Vector;

/// FTRL-Proximal trainer/predictor for binary logistic regression over dense
/// feature vectors (the hashed one-hot encodings are dense but short).
#[derive(Debug, Clone, PartialEq)]
pub struct FtrlProximal {
    alpha: f64,
    beta: f64,
    l1: f64,
    l2: f64,
    /// FTRL dual accumulator.
    z: Vec<f64>,
    /// Sum of squared gradients per coordinate.
    n: Vec<f64>,
}

impl FtrlProximal {
    /// Creates a learner for `dim`-dimensional inputs.
    ///
    /// Typical parameters: `alpha ≈ 0.1`, `beta = 1`, `l1 ≈ 1`, `l2 ≈ 1`.
    ///
    /// # Panics
    /// Panics when `dim == 0` or any hyper-parameter is negative
    /// (`alpha` must be strictly positive).
    #[must_use]
    pub fn new(dim: usize, alpha: f64, beta: f64, l1: f64, l2: f64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(
            beta >= 0.0 && l1 >= 0.0 && l2 >= 0.0,
            "hyper-parameters must be non-negative"
        );
        Self {
            alpha,
            beta,
            l1,
            l2,
            z: vec![0.0; dim],
            n: vec![0.0; dim],
        }
    }

    /// Input dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.z.len()
    }

    /// The current weight vector implied by the FTRL state (the proximal
    /// closed form with L1 soft-thresholding).
    #[must_use]
    pub fn weights(&self) -> Vector {
        Vector::from_fn(self.dim(), |i| self.weight(i))
    }

    fn weight(&self, i: usize) -> f64 {
        let z = self.z[i];
        if z.abs() <= self.l1 {
            0.0
        } else {
            let sign = z.signum();
            -(z - sign * self.l1) / ((self.beta + self.n[i].sqrt()) / self.alpha + self.l2)
        }
    }

    /// Number of non-zero weights (the sparsity the paper reports).
    #[must_use]
    pub fn num_nonzero_weights(&self) -> usize {
        (0..self.dim()).filter(|&i| self.weight(i) != 0.0).count()
    }

    /// Number of weights whose magnitude exceeds `tol`.
    ///
    /// On synthetic streams where every hash bucket receives events, the L1
    /// soft threshold leaves many *negligible* but formally non-zero weights;
    /// counting the significant ones is the robust way to report sparsity.
    #[must_use]
    pub fn num_significant_weights(&self, tol: f64) -> usize {
        (0..self.dim())
            .filter(|&i| self.weight(i).abs() > tol)
            .count()
    }

    /// Predicted click probability for one feature vector.
    ///
    /// # Panics
    /// Panics when the feature dimension does not match.
    #[must_use]
    pub fn predict(&self, features: &Vector) -> f64 {
        assert_eq!(features.len(), self.dim(), "feature dimension mismatch");
        let mut logit = 0.0;
        for i in 0..self.dim() {
            let x = features[i];
            if x != 0.0 {
                logit += self.weight(i) * x;
            }
        }
        sigmoid(logit)
    }

    /// One online update on a labelled example; returns the pre-update
    /// predicted probability (the quantity whose log-loss is reported).
    ///
    /// # Panics
    /// Panics when the feature dimension does not match.
    pub fn update(&mut self, features: &Vector, clicked: bool) -> f64 {
        let p = self.predict(features);
        let y = if clicked { 1.0 } else { 0.0 };
        for i in 0..self.dim() {
            let x = features[i];
            if x == 0.0 {
                continue;
            }
            let g = (p - y) * x;
            let sigma = ((self.n[i] + g * g).sqrt() - self.n[i].sqrt()) / self.alpha;
            self.z[i] += g - sigma * self.weight(i);
            self.n[i] += g * g;
        }
        p
    }

    /// Trains over a labelled stream and returns the average log-loss of the
    /// online predictions (progressive validation).
    pub fn fit_stream<'a, I>(&mut self, examples: I) -> f64
    where
        I: IntoIterator<Item = (&'a Vector, bool)>,
    {
        let mut total = 0.0;
        let mut count = 0usize;
        for (features, clicked) in examples {
            let p = self.update(features, clicked);
            total += log_loss(p, clicked);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Average log-loss of the current model over a labelled set (no
    /// updates).
    #[must_use]
    pub fn evaluate(&self, examples: &[(Vector, bool)]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        examples
            .iter()
            .map(|(x, y)| log_loss(self.predict(x), *y))
            .sum::<f64>()
            / examples.len() as f64
    }
}

/// Numerically stable sigmoid.
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy of a prediction, clamped away from 0/1.
#[must_use]
pub fn log_loss(probability: f64, clicked: bool) -> f64 {
    let p = probability.clamp(1e-12, 1.0 - 1e-12);
    if clicked {
        -p.ln()
    } else {
        -(1.0 - p).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::sampling;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Generates a stream from a sparse ground-truth logistic model.
    ///
    /// The base logit is zero (no global bias) so that, as in a production
    /// CTR pipeline with an explicit bias feature, only the informative
    /// tokens need non-zero weights and L1 can zero out the rest.
    fn synthetic_stream(
        n: usize,
        dim: usize,
        active: usize,
        seed: u64,
    ) -> (Vec<(Vector, bool)>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let active_idx: Vec<usize> = (0..active).map(|k| (k * dim / active) % dim).collect();
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            // Sparse binary features: ~8 active buckets per example.
            let mut x = Vector::zeros(dim);
            for _ in 0..8 {
                let idx = rng.gen_range(0..dim);
                x[idx] = 1.0;
            }
            let mut logit = 0.0;
            for (rank, &idx) in active_idx.iter().enumerate() {
                if x[idx] != 0.0 {
                    logit += if rank % 2 == 0 { 2.0 } else { -1.5 };
                }
            }
            let clicked =
                rng.gen::<f64>() < sigmoid(logit + 0.3 * sampling::standard_normal(&mut rng));
            data.push((x, clicked));
        }
        (data, active_idx)
    }

    #[test]
    fn log_loss_basics() {
        assert!(log_loss(0.9, true) < log_loss(0.1, true));
        assert!(log_loss(0.1, false) < log_loss(0.9, false));
        assert!(log_loss(1.0, true).is_finite());
        assert!(log_loss(0.0, true).is_finite());
    }

    #[test]
    fn untrained_model_predicts_one_half() {
        let model = FtrlProximal::new(16, 0.1, 1.0, 1.0, 1.0);
        let x = Vector::basis(16, 3);
        assert!((model.predict(&x) - 0.5).abs() < 1e-12);
        assert_eq!(model.num_nonzero_weights(), 0);
    }

    #[test]
    fn training_beats_the_constant_predictor() {
        let (data, _) = synthetic_stream(20_000, 64, 6, 5);
        let mut model = FtrlProximal::new(64, 0.15, 1.0, 0.5, 1.0);
        let refs: Vec<(&Vector, bool)> = data.iter().map(|(x, y)| (x, *y)).collect();
        let online_loss = model.fit_stream(refs);
        // Baseline: always predict the empirical CTR.
        let ctr = data.iter().filter(|(_, y)| *y).count() as f64 / data.len() as f64;
        let baseline: f64 =
            data.iter().map(|(_, y)| log_loss(ctr, *y)).sum::<f64>() / data.len() as f64;
        assert!(
            online_loss < baseline * 0.95,
            "FTRL loss {online_loss} should beat the constant baseline {baseline}"
        );
        // Holdout evaluation is also better.
        let holdout = model.evaluate(&data[..2000]);
        assert!(holdout < baseline);
    }

    #[test]
    fn l1_regularisation_produces_sparse_weights() {
        let (data, _) = synthetic_stream(15_000, 128, 6, 7);
        let refs: Vec<(&Vector, bool)> = data.iter().map(|(x, y)| (x, *y)).collect();
        let mut model = FtrlProximal::new(128, 0.1, 1.0, 3.0, 1.0);
        model.fit_stream(refs);
        let significant = model.num_significant_weights(0.1);
        assert!(significant > 0, "some weights must be learned");
        assert!(
            significant < 32,
            "only the informative tokens should carry significant weight, got {significant}"
        );
        assert!(model.num_nonzero_weights() >= significant);
    }

    #[test]
    fn stronger_l1_is_sparser() {
        let (data, _) = synthetic_stream(8_000, 64, 6, 9);
        let refs: Vec<(&Vector, bool)> = data.iter().map(|(x, y)| (x, *y)).collect();
        let mut weak = FtrlProximal::new(64, 0.1, 1.0, 0.1, 1.0);
        weak.fit_stream(refs.clone());
        let mut strong = FtrlProximal::new(64, 0.1, 1.0, 5.0, 1.0);
        strong.fit_stream(refs);
        assert!(strong.num_nonzero_weights() <= weak.num_nonzero_weights());
    }

    #[test]
    fn weights_vector_matches_per_coordinate_weights() {
        let (data, _) = synthetic_stream(2_000, 32, 4, 11);
        let refs: Vec<(&Vector, bool)> = data.iter().map(|(x, y)| (x, *y)).collect();
        let mut model = FtrlProximal::new(32, 0.1, 1.0, 1.0, 1.0);
        model.fit_stream(refs);
        let w = model.weights();
        assert_eq!(w.len(), 32);
        assert_eq!(
            w.count_nonzero(0.0),
            model.num_nonzero_weights(),
            "weights() and num_nonzero_weights() must agree"
        );
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn dimension_mismatch_panics() {
        let model = FtrlProximal::new(8, 0.1, 1.0, 1.0, 1.0);
        let _ = model.predict(&Vector::zeros(4));
    }
}
