//! Feature standardisation (zero mean, unit variance per column).

use pdm_linalg::{LinalgError, Vector};

/// A fitted per-column standardiser.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vector,
    stds: Vector,
}

impl StandardScaler {
    /// Fits the scaler on a set of rows.
    ///
    /// Columns with (numerically) zero variance keep a unit scale so the
    /// transform stays well defined.
    ///
    /// # Errors
    /// Returns an error when the input is empty or ragged.
    pub fn fit(rows: &[Vector]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty {
                operation: "StandardScaler::fit",
            });
        }
        let dim = rows[0].len();
        for row in rows {
            if row.len() != dim {
                return Err(LinalgError::DimensionMismatch {
                    operation: "StandardScaler::fit",
                    expected: dim,
                    actual: row.len(),
                });
            }
        }
        let n = rows.len() as f64;
        let mut means = Vector::zeros(dim);
        for row in rows {
            means += row;
        }
        means.scale_mut(1.0 / n);
        let mut vars = Vector::zeros(dim);
        for row in rows {
            for i in 0..dim {
                let d = row[i] - means[i];
                vars[i] += d * d;
            }
        }
        vars.scale_mut(1.0 / n);
        let stds = vars.map(|v| if v.sqrt() < 1e-12 { 1.0 } else { v.sqrt() });
        Ok(Self { means, stds })
    }

    /// Per-column means.
    #[must_use]
    pub fn means(&self) -> &Vector {
        &self.means
    }

    /// Per-column standard deviations (unit for constant columns).
    #[must_use]
    pub fn stds(&self) -> &Vector {
        &self.stds
    }

    /// Standardises one row.
    ///
    /// # Panics
    /// Panics when the row dimension does not match.
    #[must_use]
    pub fn transform(&self, row: &Vector) -> Vector {
        assert_eq!(row.len(), self.means.len(), "dimension mismatch");
        Vector::from_fn(row.len(), |i| (row[i] - self.means[i]) / self.stds[i])
    }

    /// Standardises a set of rows.
    #[must_use]
    pub fn transform_all(&self, rows: &[Vector]) -> Vec<Vector> {
        rows.iter().map(|r| self.transform(r)).collect()
    }

    /// Undoes the standardisation of one row.
    #[must_use]
    pub fn inverse_transform(&self, row: &Vector) -> Vector {
        Vector::from_fn(row.len(), |i| row[i] * self.stds[i] + self.means[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vector> {
        vec![
            Vector::from_slice(&[1.0, 10.0, 5.0]),
            Vector::from_slice(&[2.0, 20.0, 5.0]),
            Vector::from_slice(&[3.0, 30.0, 5.0]),
        ]
    }

    #[test]
    fn transformed_columns_have_zero_mean_unit_variance() {
        let scaler = StandardScaler::fit(&rows()).unwrap();
        let transformed = scaler.transform_all(&rows());
        for col in 0..2 {
            let mean: f64 = transformed.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = transformed.iter().map(|r| r[col] * r[col]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_columns_are_left_centred_but_not_blown_up() {
        let scaler = StandardScaler::fit(&rows()).unwrap();
        let t = scaler.transform(&Vector::from_slice(&[2.0, 20.0, 5.0]));
        assert_eq!(t[2], 0.0);
        assert_eq!(scaler.stds()[2], 1.0);
    }

    #[test]
    fn inverse_transform_round_trips() {
        let scaler = StandardScaler::fit(&rows()).unwrap();
        let original = Vector::from_slice(&[1.5, 12.0, 5.0]);
        let back = scaler.inverse_transform(&scaler.transform(&original));
        for i in 0..3 {
            assert!((back[i] - original[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_empty_and_ragged_input() {
        assert!(StandardScaler::fit(&[]).is_err());
        let ragged = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(StandardScaler::fit(&ragged).is_err());
    }
}
