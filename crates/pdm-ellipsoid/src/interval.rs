//! The one-dimensional knowledge set: a closed interval.
//!
//! Section II-C of the paper introduces the mechanism through the
//! one-dimensional special case — the single feature is, e.g., the total
//! privacy compensation, and the unknown weight is a revenue-to-cost ratio.
//! The knowledge set is then just an interval `[lo, hi]` that bisection
//! shrinks; Theorem 3 shows O(log T) regret in this case.

use crate::cut::{Cut, CutOutcome};
use crate::KnowledgeSet;
use pdm_linalg::Vector;

/// A closed interval `[lo, hi]` of candidate scalar weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    /// Panics when `lo > hi` or either endpoint is non-finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "interval endpoints must be finite"
        );
        assert!(lo <= hi, "interval lower bound must not exceed upper bound");
        Self { lo, hi }
    }

    /// Lower endpoint.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Interval width `hi − lo`.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    #[must_use]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Intersects the interval with `{θ : x·θ ≤ threshold}` for a scalar
    /// feature `x`, returning the applied cut.
    fn intersect_le(&mut self, x: f64, threshold: f64) -> CutOutcome {
        if x.abs() <= 1e-15 {
            return CutOutcome::DegenerateDirection;
        }
        let bound = threshold / x;
        let (new_lo, new_hi) = if x > 0.0 {
            (self.lo, self.hi.min(bound))
        } else {
            (self.lo.max(bound), self.hi)
        };
        // Express the position of the cut like the ellipsoid does: signed
        // distance from the midpoint, normalised by the half width.
        let half_width = 0.5 * self.width();
        let alpha = if half_width <= 1e-15 {
            0.0
        } else {
            (self.midpoint() * x - threshold) / (half_width * x.abs())
        };
        if new_hi < new_lo {
            return CutOutcome::WouldBeEmpty { alpha };
        }
        if new_lo <= self.lo && new_hi >= self.hi {
            return CutOutcome::OutOfRange { alpha };
        }
        self.lo = new_lo;
        self.hi = new_hi;
        CutOutcome::Updated(Cut::from_alpha(alpha))
    }
}

impl KnowledgeSet for Interval {
    fn dim(&self) -> usize {
        1
    }

    fn support_bounds(&self, direction: &Vector) -> (f64, f64) {
        let x = direction[0];
        let a = x * self.lo;
        let b = x * self.hi;
        (a.min(b), a.max(b))
    }

    fn cut_below(&mut self, direction: &Vector, threshold: f64) -> CutOutcome {
        self.intersect_le(direction[0], threshold)
    }

    fn cut_above(&mut self, direction: &Vector, threshold: f64) -> CutOutcome {
        self.intersect_le(-direction[0], -threshold)
    }

    fn contains(&self, theta: &Vector) -> bool {
        theta.len() == 1 && self.lo - 1e-12 <= theta[0] && theta[0] <= self.hi + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::approx_eq;

    #[test]
    fn construction_and_accessors() {
        let iv = Interval::new(-1.0, 3.0);
        assert_eq!(iv.lo(), -1.0);
        assert_eq!(iv.hi(), 3.0);
        assert!(approx_eq(iv.width(), 4.0, 1e-12));
        assert!(approx_eq(iv.midpoint(), 1.0, 1e-12));
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn inverted_interval_panics() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn support_bounds_scale_with_feature() {
        let iv = Interval::new(1.0, 2.0);
        let x = Vector::from_slice(&[3.0]);
        assert_eq!(iv.support_bounds(&x), (3.0, 6.0));
        let neg = Vector::from_slice(&[-1.0]);
        assert_eq!(iv.support_bounds(&neg), (-2.0, -1.0));
    }

    #[test]
    fn cut_below_tightens_upper_end() {
        let mut iv = Interval::new(0.0, 2.0);
        let x = Vector::from_slice(&[1.0]);
        let outcome = iv.cut_below(&x, 1.0);
        assert!(outcome.is_updated());
        assert_eq!(iv.hi(), 1.0);
        assert_eq!(iv.lo(), 0.0);
    }

    #[test]
    fn cut_above_tightens_lower_end() {
        let mut iv = Interval::new(0.0, 2.0);
        let x = Vector::from_slice(&[1.0]);
        let outcome = iv.cut_above(&x, 0.5);
        assert!(outcome.is_updated());
        assert_eq!(iv.lo(), 0.5);
        assert_eq!(iv.hi(), 2.0);
    }

    #[test]
    fn negative_feature_flips_direction() {
        let mut iv = Interval::new(0.0, 2.0);
        let x = Vector::from_slice(&[-1.0]);
        // x·θ ≤ −1  ⇔  θ ≥ 1.
        iv.cut_below(&x, -1.0);
        assert_eq!(iv.lo(), 1.0);
        assert_eq!(iv.hi(), 2.0);
    }

    #[test]
    fn redundant_and_empty_cuts() {
        let mut iv = Interval::new(0.0, 1.0);
        let x = Vector::from_slice(&[1.0]);
        let before = iv;
        assert!(matches!(
            iv.cut_below(&x, 5.0),
            CutOutcome::OutOfRange { .. }
        ));
        assert_eq!(iv, before);
        assert!(matches!(
            iv.cut_below(&x, -1.0),
            CutOutcome::WouldBeEmpty { .. }
        ));
        assert_eq!(iv, before);
        let zero = Vector::from_slice(&[0.0]);
        assert_eq!(iv.cut_below(&zero, 0.0), CutOutcome::DegenerateDirection);
    }

    #[test]
    fn bisection_converges_to_true_weight() {
        let theta_star = 1.37_f64;
        let mut iv = Interval::new(0.0, 2.0);
        let x = Vector::from_slice(&[1.0]);
        for _ in 0..40 {
            let mid = iv.midpoint();
            if mid <= theta_star {
                iv.cut_above(&x, mid);
            } else {
                iv.cut_below(&x, mid);
            }
        }
        assert!(iv.contains(&Vector::from_slice(&[theta_star])));
        assert!(iv.width() < 1e-10);
    }

    #[test]
    fn contains_checks_dimension() {
        let iv = Interval::new(0.0, 1.0);
        assert!(iv.contains(&Vector::from_slice(&[0.5])));
        assert!(!iv.contains(&Vector::from_slice(&[0.5, 0.5])));
        assert!(!iv.contains(&Vector::from_slice(&[2.0])));
    }
}
