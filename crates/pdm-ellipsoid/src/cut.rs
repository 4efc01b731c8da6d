//! Cut descriptions and outcomes shared by every knowledge-set representation.
//!
//! A *cut* is the halfspace the data broker learns after observing the buyer's
//! accept/reject decision.  The paper classifies cuts by how much of the
//! ellipsoid survives: a *central* cut keeps exactly half, a *deep* cut keeps
//! less than half, and a *shallow* cut keeps more than half.  The position of
//! the cut is captured by the signed parameter `α` (`alpha`), the distance
//! from the ellipsoid's centre to the cutting hyperplane measured in the
//! ellipsoidal norm ‖·‖_{A⁻¹}.

/// Classification of a cut by its position parameter `α`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// `α = 0`: the hyperplane passes through the centre, half the volume is
    /// removed.
    Central,
    /// `α ∈ (0, 1]`: more than half the volume is removed.
    Deep,
    /// `α ∈ [-1/n, 0)`: less than half the volume is removed, but the update
    /// still shrinks the ellipsoid.
    Shallow,
}

/// A halfspace constraint `direction^T θ ≤ threshold` (for "below" cuts) or
/// `direction^T θ ≥ threshold` (for "above" cuts), recorded together with the
/// position parameter it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// Position parameter `α` of the cut at the time it was applied.
    pub alpha: f64,
    /// Classification derived from `alpha`.
    pub kind: CutKind,
}

impl Cut {
    /// Classifies a position parameter into a [`CutKind`].
    ///
    /// `alpha` values outside `[-1/n, 1]` do not correspond to a volume-
    /// reducing Löwner–John update and are reported through
    /// [`CutOutcome::OutOfRange`] / [`CutOutcome::WouldBeEmpty`] instead, so
    /// this function only deals with the valid range (values very close to
    /// zero are treated as central to absorb floating point noise).
    #[must_use]
    pub fn classify(alpha: f64) -> CutKind {
        if alpha.abs() < 1e-12 {
            CutKind::Central
        } else if alpha > 0.0 {
            CutKind::Deep
        } else {
            CutKind::Shallow
        }
    }

    /// Builds a [`Cut`] record from a position parameter.
    #[must_use]
    pub fn from_alpha(alpha: f64) -> Self {
        Self {
            alpha,
            kind: Self::classify(alpha),
        }
    }
}

/// Result of asking a knowledge set to record a new inequality.
#[derive(Debug, Clone, PartialEq)]
pub enum CutOutcome {
    /// The set was refined; the record describes the applied cut.
    Updated(Cut),
    /// The inequality was too shallow to be useful (`α < -1/n` for the
    /// ellipsoid representation): the Löwner–John ellipsoid of the surviving
    /// region is the current ellipsoid itself, so nothing changed.
    OutOfRange {
        /// The offending position parameter.
        alpha: f64,
    },
    /// The inequality would remove the entire set (`α > 1`).  The set is kept
    /// unchanged; the caller decides how to treat the inconsistency (with
    /// market-value uncertainty this can legitimately happen and is absorbed
    /// by the δ buffer).
    WouldBeEmpty {
        /// The offending position parameter.
        alpha: f64,
    },
    /// The direction vector was (numerically) zero, so no information is
    /// carried by the inequality.
    DegenerateDirection,
}

impl CutOutcome {
    /// Returns `true` when the knowledge set was actually refined.
    #[must_use]
    pub fn is_updated(&self) -> bool {
        matches!(self, CutOutcome::Updated(_))
    }

    /// Returns the applied cut, if any.
    #[must_use]
    pub fn cut(&self) -> Option<&Cut> {
        match self {
            CutOutcome::Updated(cut) => Some(cut),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_boundaries() {
        assert_eq!(Cut::classify(0.0), CutKind::Central);
        assert_eq!(Cut::classify(1e-15), CutKind::Central);
        assert_eq!(Cut::classify(0.3), CutKind::Deep);
        assert_eq!(Cut::classify(1.0), CutKind::Deep);
        assert_eq!(Cut::classify(-0.1), CutKind::Shallow);
    }

    #[test]
    fn from_alpha_round_trips() {
        let c = Cut::from_alpha(0.25);
        assert_eq!(c.alpha, 0.25);
        assert_eq!(c.kind, CutKind::Deep);
    }

    #[test]
    fn outcome_helpers() {
        let updated = CutOutcome::Updated(Cut::from_alpha(0.0));
        assert!(updated.is_updated());
        assert!(updated.cut().is_some());

        let skipped = CutOutcome::OutOfRange { alpha: -0.9 };
        assert!(!skipped.is_updated());
        assert!(skipped.cut().is_none());

        let empty = CutOutcome::WouldBeEmpty { alpha: 1.7 };
        assert!(!empty.is_updated());

        assert!(!CutOutcome::DegenerateDirection.is_updated());
    }
}
