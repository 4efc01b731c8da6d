//! Differential suite pinning the in-place hot-path kernels to naive
//! allocating reference implementations, bit for bit.
//!
//! The quote→observe hot path runs on scratch-buffer kernels
//! (`support_bounds_mut`, the sign-threaded cut update of the packed shape,
//! in place).  Each test here re-implements the textbook formulation on a
//! dense matrix — allocating matvecs, materialised negated directions, a
//! fresh centre and shape per cut — in the kernels' rounding order, and
//! drives both formulations over seeded random inputs, asserting that every
//! quote, cut, counter, and knowledge-set coordinate carries the exact same
//! `f64` bit pattern.

use pdm_ellipsoid::{Cut, CutOutcome, Ellipsoid, KnowledgeSet};
use pdm_linalg::{sampling, Matrix, Vector};
use pdm_pricing::prelude::{
    EllipsoidPricing, LinearModel, LogLinearModel, MarketValueModel, PostedPriceMechanism,
    PricingConfig, Quote, QuoteKind,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIRECTION_TOL: f64 = 1e-12;

// ---------------------------------------------------------------------------
// Reference implementations (the pre-refactor, allocating formulations)
// ---------------------------------------------------------------------------

/// What the old-style cut produced: either a state-preserving outcome or the
/// freshly allocated centre/shape pair.
enum ReferenceCut {
    NoOp(CutOutcome),
    Updated {
        outcome: CutOutcome,
        center: Vector,
        shape: Matrix,
    },
}

/// `A x` for a dense symmetric `A`, summed in the order of the packed
/// kernel: row `i` adds `Σ_{j ≥ i} aᵢⱼ xⱼ` to `yᵢ`, then `xᵢ aᵢⱼ` to every
/// later `yⱼ`.
fn triangle_order_matvec(shape: &Matrix, x: &Vector) -> Vector {
    let n = x.len();
    let mut y = Vector::zeros(n);
    for i in 0..n {
        let dot: f64 = (i..n).map(|j| shape.get(i, j) * x[j]).sum();
        y[i] += dot;
        for j in (i + 1)..n {
            y[j] += x[i] * shape.get(i, j);
        }
    }
    y
}

/// `xᵀ A x` as `Σᵢ (A x)ᵢ xᵢ`, with the triangle-order `A x`.
fn quadratic_form(shape: &Matrix, x: &Vector) -> f64 {
    triangle_order_matvec(shape, x)
        .iter()
        .zip(x.iter())
        .map(|(m, d)| m * d)
        .sum()
}

/// The textbook Grötschel–Lovász–Schrijver update as a naive allocating
/// formulation: `cut_above` materialises the negated direction (here
/// threaded as `sign`, which IEEE-754 negation makes bit-equivalent), `b`
/// is a fresh matvec, the new centre a `clone` + `axpy`, and the new shape
/// is built entry by entry over the full dense matrix as
/// `(aᵢⱼ − c·(bᵢ bⱼ))·s`.  A result that is not finite is refused.
fn reference_cut(
    center: &Vector,
    shape: &Matrix,
    direction: &Vector,
    sign: f64,
    threshold: f64,
) -> ReferenceCut {
    let n = center.len();
    if n == 1 {
        return reference_cut_one_dim(center, shape, sign * direction[0], sign * threshold);
    }
    let scale = quadratic_form(shape, direction).max(0.0).sqrt();
    if scale <= DIRECTION_TOL {
        return ReferenceCut::NoOp(CutOutcome::DegenerateDirection);
    }
    let signed_centre = sign * direction.dot(center).expect("dimensions match");
    let mut signed_threshold = sign * threshold;
    let nf = n as f64;
    let mut alpha = (signed_centre - signed_threshold) / scale;
    loop {
        if alpha > 1.0 {
            return ReferenceCut::NoOp(CutOutcome::WouldBeEmpty { alpha });
        }
        if alpha < -1.0 / nf {
            return ReferenceCut::NoOp(CutOutcome::OutOfRange { alpha });
        }
        if alpha >= 1.0 - 1e-12 {
            // The allocating formulation recursed on a clamped threshold;
            // unrolled here exactly as the fused path unrolls it.
            signed_threshold = signed_centre - (1.0 - 1e-9) * scale;
            alpha = (signed_centre - signed_threshold) / scale;
            continue;
        }
        break;
    }

    let mut b = triangle_order_matvec(shape, direction);
    let inv_scale = 1.0 / scale;
    for slot in b.as_mut_slice() {
        *slot = (sign * *slot) * inv_scale;
    }

    let step = (1.0 + nf * alpha) / (nf + 1.0);
    let mut new_center = center.clone();
    new_center.axpy(-step, &b).expect("dimensions match");

    let outer_coeff = 2.0 * (1.0 + nf * alpha) / ((nf + 1.0) * (1.0 + alpha));
    let shape_scale = nf * nf * (1.0 - alpha * alpha) / (nf * nf - 1.0);
    let new_shape = Matrix::from_fn(n, n, |i, j| {
        (shape.get(i, j) - outer_coeff * (b[i] * b[j])) * shape_scale
    });

    if !new_shape.is_finite() || !new_center.is_finite() {
        return ReferenceCut::NoOp(CutOutcome::OutOfRange { alpha });
    }
    ReferenceCut::Updated {
        outcome: CutOutcome::Updated(Cut::from_alpha(alpha)),
        center: new_center,
        shape: new_shape,
    }
}

/// The one-dimensional interval specialisation, reproduced verbatim.
fn reference_cut_one_dim(center: &Vector, shape: &Matrix, x: f64, threshold: f64) -> ReferenceCut {
    if x.abs() <= DIRECTION_TOL {
        return ReferenceCut::NoOp(CutOutcome::DegenerateDirection);
    }
    let half_width = shape.get(0, 0).max(0.0).sqrt();
    let c = center[0];
    let (lo, hi) = (c - half_width, c + half_width);
    let bound = threshold / x;
    let (new_lo, new_hi) = if x > 0.0 {
        (lo, hi.min(bound))
    } else {
        (lo.max(bound), hi)
    };
    let alpha = {
        let scale = half_width * x.abs();
        if scale <= DIRECTION_TOL {
            0.0
        } else {
            (c * x - threshold) / scale
        }
    };
    if new_hi < new_lo {
        return ReferenceCut::NoOp(CutOutcome::WouldBeEmpty { alpha });
    }
    if new_hi >= hi - 1e-15 && new_lo <= lo + 1e-15 {
        return ReferenceCut::NoOp(CutOutcome::OutOfRange { alpha });
    }
    let new_c = 0.5 * (new_lo + new_hi);
    let new_r = (0.5 * (new_hi - new_lo)).max(1e-15);
    ReferenceCut::Updated {
        outcome: CutOutcome::Updated(Cut::from_alpha(alpha)),
        center: Vector::from_slice(&[new_c]),
        shape: Matrix::from_fn(1, 1, |_, _| new_r * new_r),
    }
}

/// The old-style quote: allocating `support_bounds`, fresh feature map.
fn reference_quote<M: MarketValueModel>(
    model: &M,
    knowledge: &Ellipsoid,
    config: &PricingConfig,
    epsilon: f64,
    features: &Vector,
    reserve_price: f64,
) -> Quote {
    let mapped = model.map_features(features);
    let (lower, upper) = knowledge.support_bounds(&mapped);
    let reserve_link = if config.use_reserve {
        model.inverse_link(reserve_price)
    } else {
        f64::NEG_INFINITY
    };
    let delta = config.delta;
    if config.use_reserve && reserve_link >= upper + delta {
        return Quote {
            posted_price: reserve_price,
            link_price: reserve_link,
            lower_bound: lower,
            upper_bound: upper,
            reserve_link,
            kind: QuoteKind::CertainNoSale,
        };
    }
    let width = upper - lower;
    let (kind, link_price) = if width > epsilon {
        (
            QuoteKind::Exploratory,
            (0.5 * (lower + upper)).max(reserve_link),
        )
    } else {
        (QuoteKind::Conservative, (lower - delta).max(reserve_link))
    };
    Quote {
        posted_price: model.link(link_price),
        link_price,
        lower_bound: lower,
        upper_bound: upper,
        reserve_link,
        kind,
    }
}

// ---------------------------------------------------------------------------
// Bit-level comparison helpers
// ---------------------------------------------------------------------------

fn assert_bits(actual: &[f64], expected: &[f64], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}: slot {i} ({a} vs {e})");
    }
}

fn assert_quote_bits(actual: &Quote, expected: &Quote, what: &str) {
    assert_eq!(actual.kind, expected.kind, "{what}: kind");
    for (field, a, e) in [
        ("posted_price", actual.posted_price, expected.posted_price),
        ("link_price", actual.link_price, expected.link_price),
        ("lower_bound", actual.lower_bound, expected.lower_bound),
        ("upper_bound", actual.upper_bound, expected.upper_bound),
        ("reserve_link", actual.reserve_link, expected.reserve_link),
    ] {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}: {field} ({a} vs {e})");
    }
}

fn assert_ellipsoid_bits(actual: &Ellipsoid, expected: &Ellipsoid, what: &str) {
    assert_bits(
        actual.center().as_slice(),
        expected.center().as_slice(),
        what,
    );
    assert_bits(actual.shape().as_slice(), expected.shape().as_slice(), what);
    assert_eq!(
        actual.cuts_applied(),
        expected.cuts_applied(),
        "{what}: cuts"
    );
}

/// Applies the reference prediction against the live cut and checks both the
/// outcome and the resulting state, bit for bit.
fn check_cut(e: &mut Ellipsoid, direction: &Vector, sign: f64, threshold: f64, what: &str) {
    let before_center = e.center().clone();
    let before_shape = e.shape().to_dense();
    let predicted = reference_cut(&before_center, &before_shape, direction, sign, threshold);
    let outcome = if sign >= 0.0 {
        e.cut_below(direction, threshold)
    } else {
        e.cut_above(direction, threshold)
    };
    match predicted {
        ReferenceCut::NoOp(expected) => {
            assert_eq!(outcome, expected, "{what}: no-op outcome");
            assert_bits(e.center().as_slice(), before_center.as_slice(), what);
            assert_bits(
                e.shape().to_dense().as_slice(),
                before_shape.as_slice(),
                what,
            );
        }
        ReferenceCut::Updated {
            outcome: expected,
            center,
            shape,
        } => {
            assert_eq!(outcome, expected, "{what}: updated outcome");
            assert_bits(e.center().as_slice(), center.as_slice(), what);
            assert_bits(e.shape().to_dense().as_slice(), shape.as_slice(), what);
        }
    }
}

/// A random ellipsoid evolved by a few seeded feasible cuts, so the tests
/// exercise shapes far from the initial ball.
fn evolved_ellipsoid(rng: &mut StdRng, dim: usize, cuts: usize) -> Ellipsoid {
    let mut e = Ellipsoid::ball(dim, sampling::uniform(rng, 0.5, 3.0));
    for _ in 0..cuts {
        let direction = sampling::unit_sphere(rng, dim);
        let (lo, hi) = e.support_bounds(&direction);
        let threshold = sampling::uniform(rng, lo, hi);
        if sampling::uniform(rng, 0.0, 1.0) < 0.5 {
            e.cut_below(&direction, threshold);
        } else {
            e.cut_above(&direction, threshold);
        }
    }
    e
}

fn mechanism(dim: usize, config: PricingConfig) -> EllipsoidPricing<LinearModel> {
    EllipsoidPricing::new(LinearModel::new(dim), config)
}

// ---------------------------------------------------------------------------
// Ellipsoid kernels vs the allocating formulation
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn support_bounds_mut_matches_allocating_reference(
        dim in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e = evolved_ellipsoid(&mut rng, dim, 6);
        for _ in 0..8 {
            let direction = sampling::unit_sphere(&mut rng, dim);
            let (lo, hi) = e.support_bounds(&direction);
            let (lo_mut, hi_mut) = e.support_bounds_mut(&direction);
            prop_assert_eq!(lo.to_bits(), lo_mut.to_bits());
            prop_assert_eq!(hi.to_bits(), hi_mut.to_bits());
        }
    }

    #[test]
    fn cut_below_matches_allocating_gls_reference(
        dim in 2usize..7,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e = evolved_ellipsoid(&mut rng, dim, 3);
        for round in 0..12 {
            let direction = sampling::unit_sphere(&mut rng, dim);
            let (lo, hi) = e.support_bounds(&direction);
            // Thresholds straddle the feasible band so every outcome branch
            // (updated / would-be-empty / out-of-range) gets exercised.
            let threshold = sampling::uniform(&mut rng, lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo));
            check_cut(&mut e, &direction, 1.0, threshold, &format!("round {round}"));
        }
    }

    #[test]
    fn cut_above_matches_allocating_gls_reference(
        dim in 2usize..7,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e = evolved_ellipsoid(&mut rng, dim, 3);
        for round in 0..12 {
            let direction = sampling::unit_sphere(&mut rng, dim);
            let (lo, hi) = e.support_bounds(&direction);
            let threshold = sampling::uniform(&mut rng, lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo));
            check_cut(&mut e, &direction, -1.0, threshold, &format!("round {round}"));
        }
    }

    #[test]
    fn quote_matches_reference_over_random_histories(
        dim in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PricingConfig::new(1.5, 512)
            .with_reserve(true)
            .with_uncertainty(0.01);
        let mut mech = mechanism(dim, config);
        for round in 0..24 {
            let features = sampling::uniform_vector(&mut rng, dim, -1.0, 1.0);
            let reserve = sampling::uniform(&mut rng, 0.0, 1.2);
            let expected = reference_quote(
                mech.model(),
                mech.knowledge(),
                mech.config(),
                mech.epsilon(),
                &features,
                reserve,
            );
            let quote = mech.quote(&features, reserve);
            assert_quote_bits(&quote, &expected, &format!("round {round}"));
            let accepted = sampling::uniform(&mut rng, 0.0, 1.0) < 0.5;
            mech.observe(&features, &quote, accepted);
        }
    }

    #[test]
    fn observe_cuts_match_manual_knowledge_cuts(
        dim in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PricingConfig::new(2.0, 256).with_uncertainty(0.02);
        let mut mech = mechanism(dim, config);
        for _ in 0..16 {
            let features = sampling::uniform_vector(&mut rng, dim, -1.0, 1.0);
            let quote = mech.quote(&features, 0.0);
            let accepted = sampling::uniform(&mut rng, 0.0, 1.0) < 0.5;
            // The old-style observe: remap the features, materialise the cut
            // on a cloned knowledge set.
            let mut manual = mech.knowledge().clone();
            if quote.kind == QuoteKind::Exploratory {
                let mapped = mech.model().map_features(&features);
                let delta = mech.config().delta;
                if accepted {
                    manual.cut_above(&mapped, quote.link_price - delta);
                } else {
                    manual.cut_below(&mapped, quote.link_price + delta);
                }
            }
            mech.observe(&features, &quote, accepted);
            assert_ellipsoid_bits(mech.knowledge(), &manual, "post-observe knowledge");
        }
    }
}

// ---------------------------------------------------------------------------
// Branch-targeted differentials
// ---------------------------------------------------------------------------

#[test]
fn tangent_cut_clamp_matches_reference() {
    // A threshold just inside the tangent band (α ≥ 1 − 1e-12) forces the
    // clamp-and-retry loop; both formulations must land on the same clamped
    // state.
    let direction = Vector::from_slice(&[0.6, -0.8, 0.1]);
    let mut e = Ellipsoid::ball(3, 1.0);
    let scale = e.direction_scale(&direction);
    let centre_value = direction.dot(e.center()).unwrap();
    let threshold = centre_value - (1.0 - 1e-13) * scale;
    check_cut(&mut e, &direction, 1.0, threshold, "tangent clamp");
    assert_eq!(e.cuts_applied(), 1, "the clamped cut must still apply");
}

#[test]
fn one_dim_cut_matches_interval_reference() {
    let x = Vector::from_slice(&[-0.7]);
    let mut e = Ellipsoid::ball(1, 2.0);
    for (sign, threshold) in [(1.0, 0.4), (-1.0, -0.9), (1.0, 1.6), (-1.0, 0.2)] {
        check_cut(&mut e, &x, sign, threshold, "one-dim interval");
    }
}

#[test]
fn degenerate_direction_is_a_noop_everywhere() {
    let zero2 = Vector::zeros(2);
    let mut e = Ellipsoid::ball(2, 1.0);
    let before = e.clone();
    assert_eq!(e.cut_below(&zero2, 0.3), CutOutcome::DegenerateDirection);
    assert_eq!(e.cut_above(&zero2, -0.3), CutOutcome::DegenerateDirection);
    let (lo, hi) = e.support_bounds_mut(&zero2);
    assert_eq!(lo.to_bits(), 0.0_f64.to_bits());
    assert_eq!(hi.to_bits(), 0.0_f64.to_bits());
    assert_ellipsoid_bits(&e, &before, "degenerate 2-d");

    let zero1 = Vector::zeros(1);
    let mut one = Ellipsoid::ball(1, 1.0);
    let frozen = one.clone();
    assert_eq!(one.cut_below(&zero1, 0.5), CutOutcome::DegenerateDirection);
    assert_ellipsoid_bits(&one, &frozen, "degenerate 1-d");
}

#[test]
fn infeasible_and_shallow_cuts_leave_state_bitwise_untouched() {
    let direction = Vector::from_slice(&[1.0, 0.3, -0.2]);
    let mut e = Ellipsoid::ball(3, 1.0);
    let before = e.clone();
    // α > 1: the halfspace misses the set entirely.
    assert!(matches!(
        e.cut_below(&direction, -5.0),
        CutOutcome::WouldBeEmpty { .. }
    ));
    assert_ellipsoid_bits(&e, &before, "would-be-empty");
    // α < −1/n: too shallow to improve the Löwner–John ellipsoid.
    assert!(matches!(
        e.cut_below(&direction, 5.0),
        CutOutcome::OutOfRange { .. }
    ));
    assert_ellipsoid_bits(&e, &before, "out-of-range");
}

#[test]
fn certain_no_sale_branch_is_bit_identical() {
    let config = PricingConfig::new(1.0, 64).with_reserve(true);
    let mut mech = mechanism(2, config);
    let features = Vector::from_slice(&[0.6, 0.8]);
    let expected = reference_quote(
        mech.model(),
        mech.knowledge(),
        mech.config(),
        mech.epsilon(),
        &features,
        7.5,
    );
    assert_eq!(expected.kind, QuoteKind::CertainNoSale);
    let quote = mech.quote(&features, 7.5);
    assert_quote_bits(&quote, &expected, "certain no-sale");
    assert_eq!(mech.certain_no_sale_rounds(), 1);
    // Feedback after a certain no-sale must not move the knowledge set.
    let before = mech.knowledge().clone();
    mech.observe(&features, &quote, false);
    assert_ellipsoid_bits(mech.knowledge(), &before, "no-sale observe");
}

#[test]
fn conservative_branch_is_bit_identical() {
    // ε pinned above any achievable width forces the conservative branch.
    let config = PricingConfig::new(1.0, 64)
        .with_reserve(true)
        .with_uncertainty(0.05)
        .with_epsilon(1e6);
    let mut mech = mechanism(2, config);
    let features = Vector::from_slice(&[0.8, -0.6]);
    let expected = reference_quote(
        mech.model(),
        mech.knowledge(),
        mech.config(),
        mech.epsilon(),
        &features,
        0.1,
    );
    assert_eq!(expected.kind, QuoteKind::Conservative);
    let quote = mech.quote(&features, 0.1);
    assert_quote_bits(&quote, &expected, "conservative");
    assert_eq!(mech.conservative_rounds(), 1);
}

#[test]
fn log_linear_model_quote_matches_reference() {
    let config = PricingConfig::new(2.0, 128).with_reserve(true);
    let mut mech = EllipsoidPricing::new(LogLinearModel::new(2), config);
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..16 {
        let features = sampling::uniform_vector(&mut rng, 2, 0.1, 1.0);
        let reserve = sampling::uniform(&mut rng, 0.5, 2.5);
        let expected = reference_quote(
            mech.model(),
            mech.knowledge(),
            mech.config(),
            mech.epsilon(),
            &features,
            reserve,
        );
        let quote = mech.quote(&features, reserve);
        assert_quote_bits(&quote, &expected, &format!("log-linear round {round}"));
        mech.observe(&features, &quote, round % 2 == 0);
    }
}

#[test]
fn observe_with_different_features_remaps_like_the_reference() {
    // A driver that observes with different features than it quoted must
    // cut along the *observe* features' mapping (the scratch cache refreshes
    // itself); the clone-and-cut reference pins that behaviour.
    let config = PricingConfig::new(2.0, 64).with_uncertainty(0.01);
    let mut mech = mechanism(3, config);
    let quoted = Vector::from_slice(&[0.2, 0.9, -0.4]);
    let observed = Vector::from_slice(&[-0.7, 0.1, 0.6]);
    let quote = mech.quote(&quoted, 0.0);
    assert_eq!(quote.kind, QuoteKind::Exploratory);
    let mut manual = mech.knowledge().clone();
    manual.cut_above(
        &mech.model().map_features(&observed),
        quote.link_price - mech.config().delta,
    );
    mech.observe(&observed, &quote, true);
    assert_ellipsoid_bits(mech.knowledge(), &manual, "cross-feature observe");
}
