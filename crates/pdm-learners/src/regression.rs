//! Ordinary least squares (with an optional ridge term), used to recover the
//! log-linear hedonic weights of the Airbnb application (Section V-B).

use pdm_linalg::{Cholesky, LinalgError, Matrix, Vector};

/// A fitted linear regression model `y ≈ x^T w (+ intercept)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    weights: Vector,
    intercept: f64,
    fit_intercept: bool,
    ridge: f64,
}

impl LinearRegression {
    /// Fits by solving the (ridge-regularised) normal equations with a
    /// Cholesky factorisation.
    ///
    /// `ridge = 0` gives plain OLS; a small positive value stabilises
    /// collinear designs (the interaction features of the Airbnb pipeline are
    /// mildly collinear).
    ///
    /// # Errors
    /// Returns an error when the design is empty, the row/target counts
    /// differ, a row or target is not finite, or the normal equations are
    /// singular.
    pub fn fit(
        rows: &[Vector],
        targets: &[f64],
        fit_intercept: bool,
        ridge: f64,
    ) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty {
                operation: "LinearRegression::fit",
            });
        }
        if rows.len() != targets.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LinearRegression::fit",
                expected: rows.len(),
                actual: targets.len(),
            });
        }
        let dim = rows[0].len();
        let aug = if fit_intercept { dim + 1 } else { dim };

        // Accumulate X^T X and X^T y over the (intercept-augmented) design.
        let mut xtx = Matrix::zeros(aug, aug);
        let mut xty = Vector::zeros(aug);
        let mut row_buffer = vec![0.0_f64; aug];
        for (row, &y) in rows.iter().zip(targets.iter()) {
            if row.len() != dim {
                return Err(LinalgError::DimensionMismatch {
                    operation: "LinearRegression::fit",
                    expected: dim,
                    actual: row.len(),
                });
            }
            // A NaN target would reach only `Xᵀy`, past the factorisation's
            // own finiteness check on `XᵀX`.
            if !row.is_finite() || !y.is_finite() {
                return Err(LinalgError::NonFinite {
                    operation: "LinearRegression::fit",
                });
            }
            row_buffer[..dim].copy_from_slice(row.as_slice());
            if fit_intercept {
                row_buffer[dim] = 1.0;
            }
            for i in 0..aug {
                let ri = row_buffer[i];
                if ri == 0.0 {
                    continue;
                }
                xty[i] += ri * y;
                for (j, &rj) in row_buffer[..aug].iter().enumerate() {
                    xtx.add_to(i, j, ri * rj);
                }
            }
        }
        // Ridge term (never applied to the intercept column).
        let effective_ridge = ridge.max(0.0) + 1e-10;
        for i in 0..dim {
            xtx.add_to(i, i, effective_ridge);
        }
        if fit_intercept {
            xtx.add_to(dim, dim, 1e-10);
        }

        let chol = Cholesky::factor(&xtx, 1e-6)?;
        let solution = chol.solve(&xty)?;
        let weights = Vector::from_fn(dim, |i| solution[i]);
        let intercept = if fit_intercept { solution[dim] } else { 0.0 };
        Ok(Self {
            weights,
            intercept,
            fit_intercept,
            ridge,
        })
    }

    /// The fitted weights (excluding the intercept).
    #[must_use]
    pub fn weights(&self) -> &Vector {
        &self.weights
    }

    /// The fitted intercept (zero when not requested).
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted weights with the intercept appended as the last element —
    /// convenient for feeding the pricing mechanism, whose feature map can
    /// append a constant `1`.
    #[must_use]
    pub fn weights_with_intercept(&self) -> Vector {
        let mut out = self.weights.as_slice().to_vec();
        out.push(self.intercept);
        Vector::from_vec(out)
    }

    /// Predicts the target for one row.
    ///
    /// # Panics
    /// Panics when the row dimension does not match the fitted weights.
    #[must_use]
    pub fn predict(&self, row: &Vector) -> f64 {
        self.weights
            .dot(row)
            // pdm-lint: allow(no-unwrap-in-lib) reason="the fitted weight vector shares the design-matrix dimension by construction of fit()"
            .expect("prediction row must match the fitted dimension")
            + self.intercept
    }

    /// Mean squared error over a labelled set.
    ///
    /// # Panics
    /// Panics when the slices have different lengths.
    #[must_use]
    pub fn mse(&self, rows: &[Vector], targets: &[f64]) -> f64 {
        assert_eq!(rows.len(), targets.len());
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter()
            .zip(targets.iter())
            .map(|(row, &y)| {
                let e = self.predict(row) - y;
                e * e
            })
            .sum::<f64>()
            / rows.len() as f64
    }

    /// Coefficient of determination R² over a labelled set.
    #[must_use]
    pub fn r_squared(&self, rows: &[Vector], targets: &[f64]) -> f64 {
        assert_eq!(rows.len(), targets.len());
        if rows.is_empty() {
            return 0.0;
        }
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;
        let ss_tot: f64 = targets.iter().map(|y| (y - mean) * (y - mean)).sum();
        let ss_res: f64 = rows
            .iter()
            .zip(targets.iter())
            .map(|(row, &y)| {
                let e = self.predict(row) - y;
                e * e
            })
            .sum();
        if ss_tot <= 0.0 {
            return 0.0;
        }
        1.0 - ss_res / ss_tot
    }

    /// Whether an intercept was fitted.
    #[must_use]
    pub fn has_intercept(&self) -> bool {
        self.fit_intercept
    }

    /// The ridge strength used at fit time.
    #[must_use]
    pub fn ridge(&self) -> f64 {
        self.ridge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synthetic(
        n: usize,
        dim: usize,
        noise: f64,
        seed: u64,
    ) -> (Vec<Vector>, Vec<f64>, Vector, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let true_w = Vector::from_fn(dim, |i| (i as f64 + 1.0) * 0.3 - 0.4);
        let intercept = 1.7;
        let mut rows = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let x = sampling::standard_normal_vector(&mut rng, dim);
            let y = x.dot(&true_w).unwrap() + intercept + sampling::normal(&mut rng, 0.0, noise);
            rows.push(x);
            targets.push(y);
        }
        (rows, targets, true_w, intercept)
    }

    #[test]
    fn recovers_noiseless_ground_truth() {
        let (rows, targets, true_w, intercept) = synthetic(200, 4, 0.0, 1);
        let model = LinearRegression::fit(&rows, &targets, true, 0.0).unwrap();
        for i in 0..4 {
            assert!((model.weights()[i] - true_w[i]).abs() < 1e-6);
        }
        assert!((model.intercept() - intercept).abs() < 1e-6);
        assert!(model.mse(&rows, &targets) < 1e-10);
        assert!(model.r_squared(&rows, &targets) > 0.999_999);
    }

    #[test]
    fn approximate_recovery_under_noise() {
        let (rows, targets, true_w, _) = synthetic(5_000, 6, 0.3, 2);
        let model = LinearRegression::fit(&rows, &targets, true, 0.0).unwrap();
        for i in 0..6 {
            assert!(
                (model.weights()[i] - true_w[i]).abs() < 0.05,
                "weight {i}: {} vs {}",
                model.weights()[i],
                true_w[i]
            );
        }
        let mse = model.mse(&rows, &targets);
        assert!(
            (mse - 0.09).abs() < 0.03,
            "MSE should approach σ² = 0.09, got {mse}"
        );
    }

    #[test]
    fn without_intercept_forces_origin() {
        let rows = vec![
            Vector::from_slice(&[1.0]),
            Vector::from_slice(&[2.0]),
            Vector::from_slice(&[3.0]),
        ];
        let targets = vec![2.0, 4.0, 6.0];
        let model = LinearRegression::fit(&rows, &targets, false, 0.0).unwrap();
        assert!((model.weights()[0] - 2.0).abs() < 1e-9);
        assert_eq!(model.intercept(), 0.0);
        assert!(!model.has_intercept());
    }

    #[test]
    fn ridge_shrinks_weights() {
        let (rows, targets, _, _) = synthetic(100, 3, 0.1, 3);
        let plain = LinearRegression::fit(&rows, &targets, true, 0.0).unwrap();
        let ridged = LinearRegression::fit(&rows, &targets, true, 50.0).unwrap();
        assert!(ridged.weights().norm() < plain.weights().norm());
        assert_eq!(ridged.ridge(), 50.0);
    }

    #[test]
    fn weights_with_intercept_appends_constant_term() {
        let (rows, targets, _, _) = synthetic(50, 2, 0.0, 4);
        let model = LinearRegression::fit(&rows, &targets, true, 0.0).unwrap();
        let w = model.weights_with_intercept();
        assert_eq!(w.len(), 3);
        assert!((w[2] - model.intercept()).abs() < 1e-12);
    }

    #[test]
    fn error_cases() {
        assert!(LinearRegression::fit(&[], &[], true, 0.0).is_err());
        let rows = vec![Vector::from_slice(&[1.0])];
        assert!(LinearRegression::fit(&rows, &[1.0, 2.0], true, 0.0).is_err());
        let ragged = vec![Vector::from_slice(&[1.0]), Vector::from_slice(&[1.0, 2.0])];
        assert!(LinearRegression::fit(&ragged, &[1.0, 2.0], true, 0.0).is_err());
    }

    #[test]
    fn non_finite_features_and_targets_are_refused() {
        let (rows, targets, _, _) = synthetic(20, 2, 0.1, 5);
        let non_finite = |result: Result<LinearRegression, LinalgError>| {
            matches!(result, Err(LinalgError::NonFinite { .. }))
        };
        for bad in [f64::NAN, f64::INFINITY] {
            let mut poisoned_rows = rows.clone();
            poisoned_rows[7][1] = bad;
            assert!(non_finite(LinearRegression::fit(
                &poisoned_rows,
                &targets,
                true,
                0.0
            )));
            // `XᵀX` stays finite here; the NaN enters only through `Xᵀy`.
            let mut poisoned_targets = targets.clone();
            poisoned_targets[3] = bad;
            assert!(non_finite(LinearRegression::fit(
                &rows,
                &poisoned_targets,
                true,
                0.0
            )));
        }
    }
}
