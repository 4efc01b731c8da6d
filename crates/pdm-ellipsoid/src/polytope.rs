//! The exact polytope knowledge set.
//!
//! Keeping the raw set of linear inequalities is what the paper calls
//! "computationally infeasible in online mode": computing the price bounds
//! `¯p_t` and `p̄_t` requires solving two linear programs whose constraint
//! count grows with the number of rounds.  We keep this representation for
//! two reasons:
//!
//! 1. **Validation** — in low dimension the ellipsoid's support bounds must
//!    always *enclose* the polytope's exact bounds (the ellipsoid contains the
//!    polytope by construction), and the integration tests check this.
//! 2. **Ablation** — the latency benchmark contrasts per-round costs of the
//!    exact-LP representation with the ellipsoid relaxation, reproducing the
//!    motivation for the paper's design.
//!
//! Internally the free variables `θ` are shifted by the box lower bound so
//! the simplex solver (which requires non-negative variables) applies.

use crate::cut::{Cut, CutOutcome};
use crate::KnowledgeSet;
use pdm_linalg::{LinalgError, LinearProgram, LpOutcome, Vector};

/// A bounded polytope `{θ : lower ≤ θ ≤ upper, Gθ ≤ h}` used as an exact
/// knowledge set.
#[derive(Debug, Clone, PartialEq)]
pub struct Polytope {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Accumulated halfspace constraints `g·θ ≤ h`.
    constraints: Vec<(Vec<f64>, f64)>,
}

impl Polytope {
    /// Creates the axis-aligned box `{θ : lowerᵢ ≤ θᵢ ≤ upperᵢ}`, the
    /// paper's initial knowledge set `K₁`.
    ///
    /// # Errors
    /// Returns an error when the bounds have mismatched lengths, are empty,
    /// or `lower[i] > upper[i]` for some `i`.
    pub fn from_box(lower: &[f64], upper: &[f64]) -> Result<Self, LinalgError> {
        if lower.len() != upper.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "Polytope::from_box",
                expected: lower.len(),
                actual: upper.len(),
            });
        }
        if lower.is_empty() {
            return Err(LinalgError::Empty {
                operation: "Polytope::from_box",
            });
        }
        for i in 0..lower.len() {
            if lower[i] > upper[i] {
                return Err(LinalgError::InvalidArgument {
                    message: format!("box bound {i} inverted: {} > {}", lower[i], upper[i]),
                });
            }
        }
        Ok(Self {
            lower: lower.to_vec(),
            upper: upper.to_vec(),
            constraints: Vec::new(),
        })
    }

    /// Creates the symmetric box `[-radius, radius]ⁿ`.
    ///
    /// # Panics
    /// Panics when `dim == 0` or `radius < 0`.
    #[must_use]
    pub fn symmetric_box(dim: usize, radius: f64) -> Self {
        assert!(dim > 0 && radius >= 0.0);
        // pdm-lint: allow(no-unwrap-in-lib) reason="the box bounds are built inline with lower = -radius < radius = upper; from_box cannot reject them"
        Self::from_box(&vec![-radius; dim], &vec![radius; dim]).expect("valid box by construction")
    }

    /// Number of accumulated halfspace constraints (excluding the box).
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Optimises `direction^T θ` over the polytope.
    ///
    /// Returns `None` when the polytope has become (numerically) infeasible.
    fn optimise(&self, direction: &Vector, maximise: bool) -> Option<f64> {
        let n = self.lower.len();
        // Shift θ = y + lower with 0 ≤ y ≤ upper − lower.
        let sign = if maximise { 1.0 } else { -1.0 };
        let objective: Vec<f64> = (0..n).map(|i| sign * direction[i]).collect();
        let mut lp = LinearProgram::new(objective);
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            lp.add_constraint_le(row, self.upper[i] - self.lower[i])
                // pdm-lint: allow(no-unwrap-in-lib) reason="every stored row was length-checked on insertion; this re-check cannot fail"
                .expect("row length matches");
        }
        for (g, h) in &self.constraints {
            let shift: f64 = g.iter().zip(self.lower.iter()).map(|(a, l)| a * l).sum();
            lp.add_constraint_le(g.clone(), h - shift)
                // pdm-lint: allow(no-unwrap-in-lib) reason="the constraint was built with the polytope dimension in this function"
                .expect("constraint length matches");
        }
        match lp.solve() {
            Ok(LpOutcome::Optimal(sol)) => {
                let offset: f64 = direction
                    .iter()
                    .zip(self.lower.iter())
                    .map(|(d, l)| d * l)
                    .sum();
                Some(sign * sol.objective + offset)
            }
            _ => None,
        }
    }

    /// Adds the halfspace `g·θ ≤ h`, reporting whether the set actually
    /// shrank (checked by comparing the support value before and after).
    fn add_halfspace(&mut self, direction: &Vector, threshold: f64) -> CutOutcome {
        if direction.norm() <= 1e-15 {
            return CutOutcome::DegenerateDirection;
        }
        let before_max = self.optimise(direction, true);
        let before_min = self.optimise(direction, false);
        let (Some(hi), Some(lo)) = (before_max, before_min) else {
            return CutOutcome::WouldBeEmpty { alpha: f64::NAN };
        };
        // Mirror the ellipsoid's α convention: signed distance from the
        // midpoint of the support interval, normalised by the half width.
        let half_width = 0.5 * (hi - lo);
        let alpha = if half_width <= 1e-15 {
            0.0
        } else {
            (0.5 * (hi + lo) - threshold) / half_width
        };
        if threshold >= hi {
            return CutOutcome::OutOfRange { alpha };
        }
        if threshold < lo {
            return CutOutcome::WouldBeEmpty { alpha };
        }
        self.constraints
            .push((direction.as_slice().to_vec(), threshold));
        CutOutcome::Updated(Cut::from_alpha(alpha))
    }
}

impl KnowledgeSet for Polytope {
    fn dim(&self) -> usize {
        self.lower.len()
    }

    fn support_bounds(&self, direction: &Vector) -> (f64, f64) {
        let lo = self.optimise(direction, false);
        let hi = self.optimise(direction, true);
        match (lo, hi) {
            (Some(l), Some(h)) => (l, h),
            // Infeasible polytope: collapse to an empty-ish interval at zero.
            _ => (0.0, 0.0),
        }
    }

    fn cut_below(&mut self, direction: &Vector, threshold: f64) -> CutOutcome {
        self.add_halfspace(direction, threshold)
    }

    fn cut_above(&mut self, direction: &Vector, threshold: f64) -> CutOutcome {
        self.add_halfspace(&(-direction), -threshold)
    }

    fn contains(&self, theta: &Vector) -> bool {
        if theta.len() != self.dim() {
            return false;
        }
        for i in 0..self.dim() {
            if theta[i] < self.lower[i] - 1e-9 || theta[i] > self.upper[i] + 1e-9 {
                return false;
            }
        }
        for (g, h) in &self.constraints {
            let value: f64 = g.iter().zip(theta.iter()).map(|(a, t)| a * t).sum();
            if value > h + 1e-9 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ellipsoid;
    use pdm_linalg::approx_eq;

    #[test]
    fn box_support_bounds() {
        let p = Polytope::from_box(&[-1.0, 0.0], &[2.0, 3.0]).unwrap();
        let x = Vector::from_slice(&[1.0, 1.0]);
        let (lo, hi) = p.support_bounds(&x);
        assert!(approx_eq(lo, -1.0, 1e-7));
        assert!(approx_eq(hi, 5.0, 1e-7));
    }

    #[test]
    fn from_box_validation() {
        assert!(Polytope::from_box(&[0.0], &[1.0, 2.0]).is_err());
        assert!(Polytope::from_box(&[], &[]).is_err());
        assert!(Polytope::from_box(&[2.0], &[1.0]).is_err());
    }

    #[test]
    fn cut_below_restricts_support() {
        let mut p = Polytope::symmetric_box(2, 1.0);
        let x = Vector::from_slice(&[1.0, 0.0]);
        let outcome = p.cut_below(&x, 0.25);
        assert!(outcome.is_updated());
        let (lo, hi) = p.support_bounds(&x);
        assert!(approx_eq(lo, -1.0, 1e-7));
        assert!(approx_eq(hi, 0.25, 1e-7));
        assert_eq!(p.num_constraints(), 1);
    }

    #[test]
    fn cut_above_restricts_support() {
        let mut p = Polytope::symmetric_box(2, 1.0);
        let x = Vector::from_slice(&[0.0, 1.0]);
        p.cut_above(&x, 0.5);
        let (lo, hi) = p.support_bounds(&x);
        assert!(approx_eq(lo, 0.5, 1e-7));
        assert!(approx_eq(hi, 1.0, 1e-7));
    }

    #[test]
    fn redundant_cut_is_reported() {
        let mut p = Polytope::symmetric_box(2, 1.0);
        let x = Vector::from_slice(&[1.0, 0.0]);
        assert!(matches!(
            p.cut_below(&x, 10.0),
            CutOutcome::OutOfRange { .. }
        ));
        assert_eq!(p.num_constraints(), 0);
    }

    #[test]
    fn empty_cut_is_refused() {
        let mut p = Polytope::symmetric_box(2, 1.0);
        let x = Vector::from_slice(&[1.0, 0.0]);
        assert!(matches!(
            p.cut_below(&x, -10.0),
            CutOutcome::WouldBeEmpty { .. }
        ));
        assert_eq!(p.num_constraints(), 0);
    }

    #[test]
    fn degenerate_direction() {
        let mut p = Polytope::symmetric_box(2, 1.0);
        assert_eq!(
            p.cut_below(&Vector::zeros(2), 0.0),
            CutOutcome::DegenerateDirection
        );
    }

    #[test]
    fn contains_respects_box_and_cuts() {
        let mut p = Polytope::symmetric_box(2, 1.0);
        let x = Vector::from_slice(&[1.0, 1.0]);
        p.cut_below(&x, 0.0);
        assert!(p.contains(&Vector::from_slice(&[-0.5, 0.3])));
        assert!(!p.contains(&Vector::from_slice(&[0.6, 0.6])));
        assert!(!p.contains(&Vector::from_slice(&[2.0, 0.0])));
        assert!(!p.contains(&Vector::from_slice(&[0.0])));
    }

    #[test]
    fn ellipsoid_bounds_enclose_polytope_bounds() {
        // The Löwner–John ellipsoid always contains the polytope it relaxes,
        // so its support interval must enclose the exact one after identical
        // cut sequences.
        let radius = 2.0;
        let mut poly = Polytope::symmetric_box(2, radius);
        let mut ell = Ellipsoid::enclosing_box(&[-radius, -radius], &[radius, radius]);
        let theta_star = Vector::from_slice(&[0.8, -0.4]);
        let directions = [
            Vector::from_slice(&[1.0, 0.2]),
            Vector::from_slice(&[0.4, 1.0]),
            Vector::from_slice(&[-0.7, 0.5]),
            Vector::from_slice(&[0.9, 0.9]),
            Vector::from_slice(&[0.1, -1.0]),
        ];
        for x in &directions {
            let truth = x.dot(&theta_star).unwrap();
            // Post the ellipsoid midpoint as the price, like the mechanism.
            let (elo, ehi) = ell.support_bounds(x);
            let price = 0.5 * (elo + ehi);
            if price <= truth {
                ell.cut_above(x, price);
                poly.cut_above(x, price);
            } else {
                ell.cut_below(x, price);
                poly.cut_below(x, price);
            }
            let (plo, phi) = poly.support_bounds(x);
            let (elo, ehi) = ell.support_bounds(x);
            assert!(
                elo <= plo + 1e-6,
                "ellipsoid lower bound must not exceed exact"
            );
            assert!(
                ehi >= phi - 1e-6,
                "ellipsoid upper bound must not fall below exact"
            );
            assert!(poly.contains(&theta_star));
            assert!(ell.contains(&theta_star));
        }
    }
}
