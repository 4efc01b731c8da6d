//! Principal component analysis, the dimensionality-reduction option the
//! paper mentions for compressing high-dimensional compensation profiles
//! (Section II-B).

use pdm_linalg::{jacobi_eigen, LinalgError, Matrix, Vector};

/// A fitted PCA transform.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vector,
    /// Columns are the principal directions, sorted by decreasing variance.
    components: Matrix,
    explained_variance: Vector,
    n_components: usize,
}

impl Pca {
    /// Fits a PCA keeping `n_components` directions.
    ///
    /// # Errors
    /// Returns an error when the input is empty, rows are ragged, or
    /// `n_components` exceeds the input dimension.
    pub fn fit(rows: &[Vector], n_components: usize) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty {
                operation: "Pca::fit",
            });
        }
        let dim = rows[0].len();
        if n_components == 0 || n_components > dim {
            return Err(LinalgError::InvalidArgument {
                message: format!("n_components {n_components} out of range for dimension {dim}"),
            });
        }
        for row in rows {
            if row.len() != dim {
                return Err(LinalgError::DimensionMismatch {
                    operation: "Pca::fit",
                    expected: dim,
                    actual: row.len(),
                });
            }
        }
        // Mean vector.
        let mut mean = Vector::zeros(dim);
        for row in rows {
            mean += row;
        }
        mean.scale_mut(1.0 / rows.len() as f64);
        // Covariance matrix.
        let mut cov = Matrix::zeros(dim, dim);
        for row in rows {
            let centered = row - &mean;
            cov.rank_one_update(1.0 / rows.len() as f64, &centered);
        }
        let eig = jacobi_eigen(&cov, 1e-6)?;
        // Keep the leading components.
        let mut components = Matrix::zeros(dim, n_components);
        for j in 0..n_components {
            let col = eig.eigenvectors.column(j);
            for i in 0..dim {
                components.set(i, j, col[i]);
            }
        }
        let explained_variance = Vector::from_fn(n_components, |i| eig.eigenvalues[i].max(0.0));
        Ok(Self {
            mean,
            components,
            explained_variance,
            n_components,
        })
    }

    /// Number of retained components.
    #[must_use]
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Variance explained by each retained component, in decreasing order.
    #[must_use]
    pub fn explained_variance(&self) -> &Vector {
        &self.explained_variance
    }

    /// Projects one row onto the retained components.
    ///
    /// # Panics
    /// Panics when the row dimension does not match the fitted data.
    #[must_use]
    pub fn transform(&self, row: &Vector) -> Vector {
        let centered = row - &self.mean;
        self.components.matvec_transposed(&centered)
    }

    /// Reconstructs a row from its projection (the inverse transform up to
    /// the discarded variance).
    #[must_use]
    pub fn inverse_transform(&self, projected: &Vector) -> Vector {
        &self.components.matvec(projected) + &self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Data concentrated along one direction in 3-D.
    fn anisotropic_rows(n: usize, seed: u64) -> Vec<Vector> {
        let mut rng = StdRng::seed_from_u64(seed);
        let direction = Vector::from_slice(&[0.6, 0.8, 0.0]);
        (0..n)
            .map(|_| {
                let main = 3.0 * sampling::standard_normal(&mut rng);
                let noise = sampling::standard_normal_vector(&mut rng, 3).scaled(0.1);
                &direction.scaled(main) + &noise
            })
            .collect()
    }

    #[test]
    fn first_component_captures_the_dominant_direction() {
        let rows = anisotropic_rows(2_000, 1);
        let pca = Pca::fit(&rows, 2).unwrap();
        let first = Vector::from_fn(3, |i| pca_component(&pca, i, 0));
        // Aligned (up to sign) with (0.6, 0.8, 0).
        let alignment = first
            .dot(&Vector::from_slice(&[0.6, 0.8, 0.0]))
            .unwrap()
            .abs();
        assert!(alignment > 0.99, "alignment was {alignment}");
        assert!(pca.explained_variance()[0] > 5.0 * pca.explained_variance()[1]);
    }

    fn pca_component(pca: &Pca, i: usize, j: usize) -> f64 {
        // transform of the i-th basis vector minus transform of the origin
        // gives the (i, j) entry of the component matrix.
        let e = Vector::basis(3, i);
        let zero = Vector::zeros(3);
        pca.transform(&e)[j] - pca.transform(&zero)[j]
    }

    #[test]
    fn transform_and_inverse_roundtrip_on_low_rank_data() {
        let rows = anisotropic_rows(500, 2);
        let pca = Pca::fit(&rows, 1).unwrap();
        // Reconstruction error should be small because the data is nearly
        // one-dimensional.
        let mut total = 0.0;
        for row in &rows {
            let recon = pca.inverse_transform(&pca.transform(row));
            total += row.distance(&recon).unwrap();
        }
        let avg = total / rows.len() as f64;
        assert!(avg < 0.25, "average reconstruction error was {avg}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Pca::fit(&[], 1).is_err());
        let rows = vec![Vector::zeros(3)];
        assert!(Pca::fit(&rows, 0).is_err());
        assert!(Pca::fit(&rows, 4).is_err());
        let ragged = vec![Vector::zeros(3), Vector::zeros(2)];
        assert!(Pca::fit(&ragged, 1).is_err());
    }

    #[test]
    fn projection_has_requested_dimension() {
        let rows = anisotropic_rows(200, 3);
        let pca = Pca::fit(&rows, 2).unwrap();
        assert_eq!(pca.n_components(), 2);
        assert_eq!(pca.transform(&rows[0]).len(), 2);
    }
}
