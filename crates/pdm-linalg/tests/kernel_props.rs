//! Property tests pinning the in-place kernels to naive reference
//! formulations, bit for bit.
//!
//! The hot path of the ellipsoid mechanism routes every per-round product
//! through scratch-buffer kernels: the packed shape's
//! [`PackedSymmetric::quadratic_form_with`] (`A x` and `xᵀ A x` in one pass
//! over the upper triangle) and [`PackedSymmetric::rank_one_update_scaled`]
//! (the cut's `(A + α v vᵀ) β`, in place), plus [`Cholesky::factor_into`].
//! These suites drive each kernel and a naive dense loop written out here,
//! in the same multiply/accumulate order, over seeded random inputs and
//! compare raw `f64` bit patterns: any reordering, however numerically
//! benign, fails here.  Separate properties bound the packed results
//! against the plain dense products, and check the finiteness bound the
//! ellipsoid cut decides on before it writes the shape in place.

use pdm_linalg::{sampling, Cholesky, Matrix, PackedSymmetric, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense random matrix with entries in `[-magnitude, magnitude]`.
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, magnitude: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        sampling::uniform(rng, -magnitude, magnitude)
    })
}

/// A random symmetric positive-definite matrix, built as `G Gᵀ + εI` so the
/// Cholesky factorisation cannot fail.
fn random_spd(rng: &mut StdRng, dim: usize, magnitude: f64) -> Matrix {
    let g = random_matrix(rng, dim, dim, magnitude);
    let mut spd = Matrix::from_fn(dim, dim, |i, j| {
        (0..dim).map(|k| g.get(i, k) * g.get(j, k)).sum()
    });
    for i in 0..dim {
        spd.add_to(i, i, 1e-3);
    }
    spd.symmetrize();
    spd
}

fn packed(m: &Matrix) -> PackedSymmetric {
    PackedSymmetric::from_dense(m).expect("finite square input")
}

/// Dimensions for the packed kernels: small cases, and sizes on either side
/// of the 32- and 64-float boundaries a vectorised row loop splits at.
const PACKED_DIMS: [usize; 11] = [1, 2, 3, 5, 7, 31, 32, 33, 64, 65, 100];

/// The reference `A x` in the packed kernel's order, on a dense symmetric
/// matrix: row `i` adds `Σ_{j ≥ i} aᵢⱼ xⱼ` to `yᵢ`, then `xᵢ aᵢⱼ` to every
/// later `yⱼ`.
fn triangle_order_matvec(a: &Matrix, x: &Vector) -> Vector {
    let n = x.len();
    let mut y = Vector::zeros(n);
    for i in 0..n {
        let dot: f64 = (i..n).map(|j| a.get(i, j) * x[j]).sum();
        y[i] += dot;
        for j in (i + 1)..n {
            y[j] += x[i] * a.get(i, j);
        }
    }
    y
}

/// The reference cut update on the full dense matrix:
/// `(aᵢⱼ + α·(vᵢ vⱼ)) · β` for every entry.
fn dense_rank_one_reference(a: &Matrix, alpha: f64, v: &Vector, beta: f64) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| {
        (a.get(i, j) + alpha * (v[i] * v[j])) * beta
    })
}

fn assert_bits_eq(actual: &[f64], expected: &[f64], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length mismatch");
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "{what}: slot {i} diverged ({a} vs {e})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_matvec_matches_triangle_order_reference_bitwise(
        dim_index in 0usize..PACKED_DIMS.len(),
        seed in 0u64..1_000,
    ) {
        let dim = PACKED_DIMS[dim_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, dim, 3.0);
        let x = sampling::uniform_vector(&mut rng, dim, -10.0, 10.0);
        let reference = triangle_order_matvec(&a, &x);
        // Scratch arrives dirty and wrongly sized on purpose: the kernel
        // must resize and overwrite every slot.
        let mut scratch = Vector::from_slice(&[f64::NAN; 3]);
        let form = packed(&a).quadratic_form_with(&x, &mut scratch);
        prop_assert_eq!(scratch.len(), dim);
        assert_bits_eq(scratch.as_slice(), reference.as_slice(), "packed A x");
        let reference_form: f64 = reference.iter().zip(x.iter()).map(|(m, d)| m * d).sum();
        prop_assert_eq!(form.to_bits(), reference_form.to_bits());
        // The allocating entry points are the same computation.
        prop_assert_eq!(packed(&a).quadratic_form(&x).to_bits(), form.to_bits());
        assert_bits_eq(packed(&a).matvec(&x).as_slice(), reference.as_slice(), "matvec");
    }

    #[test]
    fn packed_matvec_is_close_to_the_dense_product(
        dim in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, dim, 2.0);
        let x = sampling::uniform_vector(&mut rng, dim, -5.0, 5.0);
        let mut y = Vector::zeros(0);
        let form = packed(&a).quadratic_form_with(&x, &mut y);
        let dense = a.matvec(&x);
        for i in 0..dim {
            prop_assert!((y[i] - dense[i]).abs() <= 1e-10 * (1.0 + dense[i].abs()));
        }
        let dense_form = a.quadratic_form(&x);
        prop_assert!((form - dense_form).abs() <= 1e-10 * (1.0 + dense_form.abs()));
    }

    #[test]
    fn packed_rank_one_update_matches_dense_reference_bitwise(
        dim_index in 0usize..PACKED_DIMS.len(),
        seed in 0u64..1_000,
        poison in 0usize..5,
        alpha in -3.0..3.0_f64,
        beta in 0.1..3.0_f64,
    ) {
        let dim = PACKED_DIMS[dim_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = random_spd(&mut rng, dim, 2.0);
        let mut p = packed(&a);
        let mut v = sampling::uniform_vector(&mut rng, dim, -2.0, 2.0);
        // Non-finite entries of the shape or the vector must propagate
        // exactly as through the reference: the kernel checks nothing.
        let (i, j) = (rng.gen_range(0..dim), rng.gen_range(0..dim));
        match poison {
            0..=2 => {
                let bad = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][poison];
                p.set(i, j, bad);
                a.set(i, j, bad);
                a.set(j, i, bad);
            }
            3 => v[i] = f64::NAN,
            _ => {}
        }
        let reference = dense_rank_one_reference(&a, alpha, &v, beta);
        p.rank_one_update_scaled(alpha, &v, beta);
        let dense = p.to_dense();
        for (k, (got, want)) in dense.as_slice().iter().zip(reference.as_slice()).enumerate() {
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "slot {}: {} vs reference {}", k, got, want
            );
        }
    }

    #[test]
    fn packed_rank_one_update_is_close_to_naive(
        dim in 2usize..7,
        seed in 0u64..1_000,
        alpha in -2.0..2.0_f64,
        beta in 0.1..2.0_f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, dim, 2.0);
        let v = sampling::uniform_vector(&mut rng, dim, -2.0, 2.0);
        let mut p = packed(&a);
        p.rank_one_update_scaled(alpha, &v, beta);
        // The values agree with the mathematical definition
        // `β(A + α v vᵀ)` up to roundoff.
        for i in 0..dim {
            for j in 0..dim {
                let naive = beta * (a.get(i, j) + alpha * v[i] * v[j]);
                prop_assert!(
                    (p.get(i, j) - naive).abs() <= 1e-9 * (1.0 + naive.abs()),
                    "({}, {}): {} vs naive {}", i, j, p.get(i, j), naive
                );
            }
        }
    }

    #[test]
    fn finite_cut_bound_implies_a_finite_update(
        dim in 2usize..9,
        seed in 0u64..1_000,
        shape_exponent in 250i32..309,
        vector_exponent in 120i32..155,
        alpha in -3.0..0.0_f64,
        beta in 0.5..2.0_f64,
    ) {
        // The ellipsoid cut writes its shape in place only when
        // `(2·max aᵢᵢ + |α|·max vᵢ²)·β` is finite; on a positive definite
        // shape that must keep every updated entry finite.  Magnitudes
        // near f64::MAX make the bound fail as well as hold.
        let mut rng = StdRng::seed_from_u64(seed);
        let unit = random_spd(&mut rng, dim, 1.0);
        let mut p = packed(&unit);
        p.scale_mut(10f64.powi(shape_exponent) / p.max_diagonal());
        prop_assume!(p.is_finite());
        let v = sampling::uniform_vector(&mut rng, dim, -1.0, 1.0)
            .scaled(10f64.powi(vector_exponent));
        let longest_sq = v.iter().fold(0.0, |m: f64, x| m.max(x * x));
        let bound = (2.0 * p.max_diagonal() + alpha.abs() * longest_sq) * beta;
        p.rank_one_update_scaled(alpha, &v, beta);
        if bound.is_finite() {
            prop_assert!(p.is_finite(), "bound {} is finite but the update overflowed", bound);
        }
    }

    #[test]
    fn factor_into_matches_allocating_cholesky_bitwise(
        dim in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spd = random_spd(&mut rng, dim, 3.0);
        let reference = Cholesky::factor(&spd, 1e-6).expect("SPD by construction");
        // The buffer arrives dirty from a *larger* factorisation: resize and
        // zeroing must erase every stale entry.
        let mut lower = Matrix::from_fn(dim + 2, dim + 2, |_, _| f64::NAN);
        Cholesky::factor_into(&spd, 1e-6, &mut lower).expect("SPD by construction");
        prop_assert_eq!(lower.rows(), dim);
        assert_bits_eq(lower.as_slice(), reference.lower().as_slice(), "cholesky factor");
    }

    #[test]
    fn factor_into_rejects_what_factor_rejects(
        dim in 2usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Indefinite by construction: a random symmetric matrix minus a
        // large multiple of the identity.
        let mut indefinite = random_matrix(&mut rng, dim, dim, 1.0);
        indefinite.symmetrize();
        for i in 0..dim {
            indefinite.add_to(i, i, -100.0);
        }
        let mut lower = Matrix::default();
        let by_value = Cholesky::factor(&indefinite, 1e-6).err();
        let in_place = Cholesky::factor_into(&indefinite, 1e-6, &mut lower).err();
        prop_assert!(by_value.is_some());
        prop_assert_eq!(format!("{:?}", by_value), format!("{:?}", in_place));
    }

    #[test]
    fn scratch_buffers_survive_dimension_changes(
        seed in 0u64..500,
    ) {
        // One scratch vector reused across shrinking and growing shapes:
        // every slot of `A x` must be rewritten, none left over.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = Vector::zeros(0);
        for &dim in &[5usize, 2, 7, 1, 4] {
            let a = random_spd(&mut rng, dim, 2.0);
            let x = sampling::uniform_vector(&mut rng, dim, -4.0, 4.0);
            packed(&a).quadratic_form_with(&x, &mut scratch);
            let reference = triangle_order_matvec(&a, &x);
            assert_bits_eq(scratch.as_slice(), reference.as_slice(), "resized scratch");
        }
    }
}

#[test]
fn degenerate_shapes_do_not_panic() {
    // Dimension 1: every kernel degenerates to scalar arithmetic.
    let a = Matrix::from_fn(1, 1, |_, _| 4.0);
    let x = Vector::from_slice(&[3.0]);
    let mut scratch = Vector::zeros(0);
    let mut p = packed(&a);
    assert_eq!(
        p.quadratic_form_with(&x, &mut scratch).to_bits(),
        36.0_f64.to_bits()
    );
    assert_eq!(scratch[0].to_bits(), 12.0_f64.to_bits());
    p.rank_one_update_scaled(2.0, &x, 0.5);
    assert_eq!(
        p.get(0, 0).to_bits(),
        (0.5_f64 * (4.0 + 2.0 * 9.0)).to_bits()
    );
    let mut lower = Matrix::default();
    Cholesky::factor_into(&a, 1e-6, &mut lower).expect("positive scalar");
    assert_eq!(lower.get(0, 0).to_bits(), 2.0_f64.to_bits());
}

#[test]
fn zero_vector_inputs_are_exact_no_ops() {
    let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 + 1.0);
    let mut spd = a.clone();
    spd.symmetrize();
    for i in 0..3 {
        spd.add_to(i, i, 10.0);
    }
    let zero = Vector::zeros(3);
    let mut scratch = Vector::zeros(0);
    let mut p = packed(&spd);
    assert_eq!(p.quadratic_form_with(&zero, &mut scratch), 0.0);
    assert_eq!(scratch.as_slice(), &[0.0, 0.0, 0.0]);
    // A rank-one update with the zero vector must reproduce `β·A` exactly.
    p.rank_one_update_scaled(5.0, &zero, 1.0);
    assert_bits_eq(p.to_dense().as_slice(), spd.as_slice(), "zero update");
}
