//! Property tests pinning the fused in-place kernels to their allocating
//! reference formulations, bit for bit.
//!
//! The hot path of the ellipsoid mechanism routes every per-round product
//! through three scratch-buffer kernels — [`Matrix::mul_vec_into`],
//! [`Matrix::rank_one_scaled_symmetrized_into`], and
//! [`Cholesky::factor_into`] — that each promise *exactly* the values of the
//! allocating call they replaced.  These suites drive both paths over seeded
//! random inputs and compare raw `f64` bit patterns: any reordering of the
//! multiply/accumulate sequence, however numerically benign, fails here.
//! `Matrix::symmetrize` shares the rank-one kernel's tiled symmetrize, so
//! that kernel is checked against a naive `get`/`set` loop written out here.

use pdm_linalg::{sampling, Cholesky, Matrix, Vector};
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

/// Dimensions for the rank-one kernel: small cases, and sizes on either side
/// of one and of two `32 × 32` symmetrize tiles.
const RANK_ONE_DIMS: [usize; 11] = [1, 2, 3, 5, 7, 31, 32, 33, 64, 65, 100];

/// The reference symmetrize: average every off-diagonal pair, row by row,
/// through `get`/`set`.
fn naive_symmetrize(m: &mut Matrix) {
    for i in 0..m.rows() {
        for j in (i + 1)..m.cols() {
            let avg = 0.5 * (m.get(i, j) + m.get(j, i));
            m.set(i, j, avg);
            m.set(j, i, avg);
        }
    }
}

/// The allocating formulation the ellipsoid update used before the fused
/// kernel: clone, rank-one update, scale, symmetrize.
fn three_step_reference(a: &Matrix, alpha: f64, v: &Vector, beta: f64) -> Matrix {
    let mut reference = a.clone();
    reference.rank_one_update(alpha, v);
    reference.scale_mut(beta);
    naive_symmetrize(&mut reference);
    reference
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
    fn mul_vec_into_matches_matvec_bitwise(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, rows, cols, 10.0);
        let x = sampling::uniform_vector(&mut rng, cols, -10.0, 10.0);
        let reference = a.matvec(&x);
        // Scratch arrives dirty and wrongly sized on purpose: the kernel
        // must resize and overwrite every slot.
        let mut scratch = Vector::from_slice(&[f64::NAN; 3]);
        a.mul_vec_into(&x, &mut scratch);
        prop_assert_eq!(scratch.len(), rows);
        assert_bits_eq(scratch.as_slice(), reference.as_slice(), "mul_vec_into");
    }

    #[test]
    fn quadratic_form_with_matches_quadratic_form_bitwise(
        dim in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, dim, dim, 5.0);
        let x = sampling::uniform_vector(&mut rng, dim, -5.0, 5.0);
        let reference = a.quadratic_form(&x);
        let mut scratch = Vector::zeros(0);
        let fused = a.quadratic_form_with(&x, &mut scratch);
        prop_assert_eq!(fused.to_bits(), reference.to_bits());
        // The scratch contract: it ends up holding `A x`.
        assert_bits_eq(scratch.as_slice(), a.matvec(&x).as_slice(), "scratch = A x");
    }

    #[test]
    fn rank_one_fused_kernel_matches_three_step_reference_bitwise(
        dim_index in 0usize..RANK_ONE_DIMS.len(),
        seed in 0u64..1_000,
        alpha in -3.0..3.0_f64,
        beta in 0.1..3.0_f64,
    ) {
        let dim = RANK_ONE_DIMS[dim_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, dim, 2.0);
        let v = sampling::uniform_vector(&mut rng, dim, -2.0, 2.0);
        let reference = three_step_reference(&a, alpha, &v, beta);

        let mut out = Matrix::default();
        let finite = a.rank_one_scaled_symmetrized_into(alpha, &v, beta, &mut out);
        prop_assert_eq!(out.rows(), dim);
        assert_bits_eq(out.as_slice(), reference.as_slice(), "rank-one kernel");
        prop_assert_eq!(finite, out.is_finite());
    }

    #[test]
    fn rank_one_finiteness_flag_matches_is_finite_on_poisoned_inputs(
        dim_index in 0usize..RANK_ONE_DIMS.len(),
        seed in 0u64..1_000,
        poison in 0usize..6,
        alpha in -3.0..3.0_f64,
        beta in 0.1..3.0_f64,
    ) {
        let dim = RANK_ONE_DIMS[dim_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = random_matrix(&mut rng, dim, dim, 2.0);
        let v = sampling::uniform_vector(&mut rng, dim, -2.0, 2.0);
        let i = rng.gen_range(0..dim);
        let j = rng.gen_range(0..dim);
        let (alpha, beta) = match poison {
            0 => { a.set(i, j, f64::INFINITY); (alpha, beta) }
            1 => { a.set(i, j, f64::NEG_INFINITY); (alpha, beta) }
            2 => { a.set(i, j, f64::NAN); (alpha, beta) }
            // Two finite entries near `f64::MAX` whose sum overflows, and
            // two whose sum cancels.  The update is the identity so the
            // row pass leaves them exactly as set.
            3 | 4 => {
                let mirror = if poison == 3 { 0.75 } else { -0.75 };
                a.set(i, j, 0.75 * f64::MAX);
                a.set(j, i, mirror * f64::MAX);
                (0.0, 1.0)
            }
            _ => (alpha, beta),
        };
        let reference = three_step_reference(&a, alpha, &v, beta);

        let mut out = Matrix::default();
        let finite = a.rank_one_scaled_symmetrized_into(alpha, &v, beta, &mut out);
        prop_assert_eq!(finite, out.is_finite());
        prop_assert_eq!(finite, reference.is_finite());
        for (k, (got, want)) in out.as_slice().iter().zip(reference.as_slice()).enumerate() {
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "slot {}: {} vs reference {}", k, got, want
            );
        }
    }

    #[test]
    fn rank_one_fused_kernel_is_exactly_symmetric_and_close_to_naive(
        dim in 2usize..7,
        seed in 0u64..1_000,
        alpha in -2.0..2.0_f64,
        beta in 0.1..2.0_f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, dim, 2.0);
        let v = sampling::uniform_vector(&mut rng, dim, -2.0, 2.0);
        let mut out = Matrix::default();
        a.rank_one_scaled_symmetrized_into(alpha, &v, beta, &mut out);
        // Symmetrization is exact, not just within tolerance.
        prop_assert_eq!(out.max_asymmetry(), 0.0);
        // And the values agree with the mathematical definition
        // `β(A + α v vᵀ)` up to roundoff.
        for i in 0..dim {
            for j in 0..dim {
                let naive = beta * (a.get(i, j) + alpha * v[i] * v[j]);
                prop_assert!(
                    (out.get(i, j) - naive).abs() <= 1e-9 * (1.0 + naive.abs()),
                    "({}, {}): {} vs naive {}", i, j, out.get(i, j), naive
                );
            }
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
        // One scratch vector reused across shrinking and growing shapes —
        // exactly how a session-owned buffer lives across tenants of
        // different dimension.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = Vector::zeros(0);
        for &dim in &[5usize, 2, 7, 1, 4] {
            let a = random_matrix(&mut rng, dim, dim, 4.0);
            let x = sampling::uniform_vector(&mut rng, dim, -4.0, 4.0);
            a.mul_vec_into(&x, &mut scratch);
            assert_bits_eq(scratch.as_slice(), a.matvec(&x).as_slice(), "resized scratch");
        }
    }
}

#[test]
fn degenerate_shapes_do_not_panic() {
    // Dimension 1: every kernel degenerates to scalar arithmetic.
    let a = Matrix::from_fn(1, 1, |_, _| 4.0);
    let x = Vector::from_slice(&[3.0]);
    let mut scratch = Vector::zeros(0);
    a.mul_vec_into(&x, &mut scratch);
    assert_eq!(scratch[0].to_bits(), 12.0_f64.to_bits());
    assert_eq!(
        a.quadratic_form_with(&x, &mut scratch).to_bits(),
        36.0_f64.to_bits()
    );
    let mut out = Matrix::default();
    a.rank_one_scaled_symmetrized_into(2.0, &x, 0.5, &mut out);
    assert_eq!(
        out.get(0, 0).to_bits(),
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
    spd.mul_vec_into(&zero, &mut scratch);
    assert_eq!(scratch.as_slice(), &[0.0, 0.0, 0.0]);
    assert_eq!(spd.quadratic_form_with(&zero, &mut scratch), 0.0);
    // A rank-one update with the zero vector must reproduce `β·A` exactly.
    let mut out = Matrix::default();
    spd.rank_one_scaled_symmetrized_into(5.0, &zero, 1.0, &mut out);
    for (got, want) in out.as_slice().iter().zip(spd.as_slice()) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
}
