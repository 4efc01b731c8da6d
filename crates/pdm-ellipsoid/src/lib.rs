//! # pdm-ellipsoid
//!
//! Knowledge-set machinery for the contextual dynamic pricing mechanism of
//! Niu et al., *Online Pricing with Reserve Price Constraint for Personal Data
//! Markets* (ICDE 2020).
//!
//! The data broker maintains a *knowledge set* of feasible weight vectors
//! `θ*`.  After every posted price she learns a single linear inequality
//! (accepted ⇒ `p ≤ x^T θ*`, rejected ⇒ `p ≥ x^T θ*`) and refines the set.
//! Three representations are provided:
//!
//! * [`Ellipsoid`] — the Löwner–John ellipsoid relaxation used by the paper's
//!   Algorithm 1/2.  Posting a price and updating the set costs a few
//!   matrix–vector products (`O(n²)` time, `O(n²)` memory).
//! * [`Polytope`] — the exact polytope (set of linear inequalities).  Price
//!   bounds require solving two linear programs; this is the computationally
//!   infeasible-in-online-mode representation the paper argues against, kept
//!   here for validation and for the latency ablation.
//! * [`Interval`] — the one-dimensional special case where the knowledge set
//!   is just an interval and bisection applies (Theorem 3).
//!
//! All three implement [`KnowledgeSet`], so the pricing mechanisms in
//! `pdm-pricing` can be instantiated against any of them in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cut;
pub mod ellipsoid;
pub mod interval;
pub mod polytope;

pub use cut::{Cut, CutKind, CutOutcome};
pub use ellipsoid::Ellipsoid;
pub use interval::Interval;
pub use polytope::Polytope;

use pdm_linalg::Vector;

/// A set of candidate weight vectors maintained by the data broker, refined
/// by one linear inequality per trading round.
///
/// `direction` below is always the (feature-mapped) feature vector `x_t` of
/// the product being priced; the *support bounds* are the minimum and maximum
/// of `x_t^T θ` over the knowledge set, i.e. the paper's `¯p_t` and `p̄_t`.
pub trait KnowledgeSet {
    /// Dimension of the weight vectors in the set.
    fn dim(&self) -> usize;

    /// Lower and upper bounds on `direction^T θ` over the set
    /// (`(¯p_t, p̄_t)` in the paper's notation).
    fn support_bounds(&self, direction: &Vector) -> (f64, f64);

    /// [`KnowledgeSet::support_bounds`] through a mutable receiver, so
    /// representations that own scratch buffers can answer without
    /// allocating.  Must return bit-for-bit the same pair as
    /// `support_bounds`; the default implementation simply delegates.
    fn support_bounds_mut(&mut self, direction: &Vector) -> (f64, f64) {
        self.support_bounds(direction)
    }

    /// Records the inequality `direction^T θ <= threshold` (the *rejection*
    /// feedback: the effective posted price was at least the market value).
    fn cut_below(&mut self, direction: &Vector, threshold: f64) -> CutOutcome;

    /// Records the inequality `direction^T θ >= threshold` (the *acceptance*
    /// feedback: the effective posted price was at most the market value).
    fn cut_above(&mut self, direction: &Vector, threshold: f64) -> CutOutcome;

    /// Returns `true` when `theta` is a member of the knowledge set
    /// (up to the representation's tolerance).
    fn contains(&self, theta: &Vector) -> bool;

    /// A scalar measure of the set's size along `direction`; for all three
    /// representations this equals `p̄_t − ¯p_t`, the quantity the mechanism
    /// compares against the exploration threshold ε.
    fn width_along(&self, direction: &Vector) -> f64 {
        let (lo, hi) = self.support_bounds(direction);
        hi - lo
    }

    /// Bytes of memory the set keeps for its learned state (Section V-D
    /// reports the knowledge-set footprint).  [`Ellipsoid`] counts what it
    /// has allocated; the default is the dense-ellipsoid estimate of
    /// `n² + n` floats, which the other representations report as a
    /// yardstick.
    fn memory_footprint_bytes(&self) -> usize {
        let n = self.dim();
        (n * n + n) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn width_along_is_upper_minus_lower_for_every_representation() {
        let x = Vector::from_slice(&[1.0, 0.0]);

        let ball = Ellipsoid::ball(2, 2.0);
        let (lo, hi) = ball.support_bounds(&x);
        assert!((ball.width_along(&x) - (hi - lo)).abs() < 1e-12);

        let poly = Polytope::from_box(&[-2.0, -2.0], &[2.0, 2.0]).unwrap();
        let (lo, hi) = poly.support_bounds(&x);
        assert!((poly.width_along(&x) - (hi - lo)).abs() < 1e-9);

        let iv = Interval::new(-2.0, 2.0);
        let x1 = Vector::from_slice(&[1.0]);
        let (lo, hi) = iv.support_bounds(&x1);
        assert!((iv.width_along(&x1) - (hi - lo)).abs() < 1e-12);
    }
}
