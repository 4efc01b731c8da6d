//! The Löwner–John ellipsoid knowledge set (Definition 1 and Algorithm 1/2 of
//! the paper).
//!
//! An ellipsoid is parameterised by its centre `c ∈ Rⁿ` and a symmetric
//! positive-definite shape matrix `A ∈ Rⁿˣⁿ`:
//!
//! ```text
//! E = { θ ∈ Rⁿ : (θ − c)^T A⁻¹ (θ − c) ≤ 1 }
//! ```
//!
//! The two operations the pricing mechanism needs each round are
//!
//! * the support bounds `¯p = min_{θ∈E} x^T θ = x^T(c − b)` and
//!   `p̄ = max_{θ∈E} x^T θ = x^T(c + b)` with `b = A x / √(x^T A x)`
//!   (lines 5–7 of Algorithm 1), and
//! * the Löwner–John update of `(A, c)` after a cut with position parameter
//!   `α` (lines 14–21), using the Grötschel–Lovász–Schrijver deep/shallow cut
//!   formulas.
//!
//! Both are `O(n²)`; no inverse of `A` is ever formed on the hot path.
//!
//! `A` is stored once, as its packed upper triangle ([`PackedSymmetric`],
//! `n(n+1)/2` floats), and the cut updates it in place as
//! `aᵢⱼ ← (aᵢⱼ − c·(bᵢ bⱼ))·s`.  That update is exactly symmetric, so no
//! symmetrize pass and no second copy of the shape exist.  The analyses off
//! the hot path (volume, semi-axes, membership) expand the triangle to a
//! dense matrix when they are called.
//!
//! **Invariant:** the centre and every entry of the shape are finite.  The
//! constructors refuse anything else (`Ellipsoid::new` with
//! [`LinalgError::NonFinite`]), and `inflate` and the cut refuse any update
//! that could break it.  The cut's `O(n)` guard relies on it: for a finite
//! positive semi-definite shape `|aᵢⱼ| ≤ max aᵢᵢ`, so the diagonal bounds
//! every entry without reading the off-diagonal ones.

use crate::cut::{Cut, CutOutcome};
use crate::KnowledgeSet;
use pdm_linalg::{jacobi_eigen, Cholesky, LinalgError, Matrix, PackedSymmetric, Vector};

/// Numerical floor used when deciding whether a direction carries any
/// information (`√(x^T A x)` below this is treated as degenerate).
const DIRECTION_TOL: f64 = 1e-12;

/// Reusable `n`-float buffers for the per-round hot path
/// (`support_bounds_mut` and the cut update).  They take no part in
/// equality, serialization, or snapshots.  The shape itself is never
/// staged: the cut decides from `b`, the staged centre and the shape's
/// diagonal whether its result is finite, and only then writes the shape
/// in place.
///
/// Between a quote and the next cut they carry the quote's matvec forward.
/// After `support_bounds_mut(x)`, `b` holds `A x` in slots `0..n` and
/// `x^T A x` in slot `n`, and `center` holds `x`.  That tag, `b.len() ==
/// n + 1`, lets a cut along the bitwise-same `x` skip its own pass over
/// `A`.  Every change to the shape truncates `b` to `n` first, which clears
/// the tag; a fresh ellipsoid starts untagged.
#[derive(Debug, Clone, Default)]
struct CutScratch {
    /// `A x` (plus the tagged `x^T A x`), then the boundary displacement `b`.
    b: Vector,
    /// The quoted direction `x`, then the staging area for the centre `c'`.
    center: Vector,
}

impl CutScratch {
    /// Takes the `x^T A x` the last quote recorded, when it was for the
    /// bitwise-same `direction` of an `n`-dimensional shape that has not
    /// changed since.  Clears the tag either way.
    fn take_quadratic_form(&mut self, n: usize, direction: &Vector) -> Option<f64> {
        if self.b.len() != n + 1 {
            return None;
        }
        let quadratic_form = self.b[n];
        self.b.resize(n);
        let same_direction = self
            .center
            .iter()
            .map(|x| x.to_bits())
            .eq(direction.iter().map(|x| x.to_bits()));
        same_direction.then_some(quadratic_form)
    }

    /// Clears the tag; called before any change to the shape.
    fn clear_tag(&mut self, n: usize) {
        if self.b.len() == n + 1 {
            self.b.resize(n);
        }
    }
}

/// An ellipsoidal knowledge set `E = {θ : (θ−c)^T A⁻¹ (θ−c) ≤ 1}`.
#[derive(Debug, Clone)]
pub struct Ellipsoid {
    center: Vector,
    /// The packed upper triangle of `A`.
    shape: PackedSymmetric,
    /// Cumulative count of volume-reducing cuts applied, kept for
    /// diagnostics (the regret analysis bounds this count).
    cuts_applied: usize,
    scratch: CutScratch,
}

impl PartialEq for Ellipsoid {
    /// Equality ignores the scratch buffers: two ellipsoids are equal when
    /// they describe the same set and cut history.
    fn eq(&self, other: &Self) -> bool {
        self.center == other.center
            && self.shape == other.shape
            && self.cuts_applied == other.cuts_applied
    }
}

impl Ellipsoid {
    /// Creates the ball of the given radius centred at the origin
    /// (`A = radius² · I`, `c = 0`), the initial knowledge set of
    /// Algorithm 1/2.
    ///
    /// # Panics
    /// Panics if `dim == 0`, or if `radius` is not positive or `radius²`
    /// is not finite (see [`Ellipsoid::is_usable_radius`]).
    #[must_use]
    pub fn ball(dim: usize, radius: f64) -> Self {
        assert!(dim > 0, "ellipsoid dimension must be positive");
        assert!(
            Self::is_usable_radius(radius),
            "ellipsoid radius must be positive with a finite square, got {radius}"
        );
        Self {
            center: Vector::zeros(dim),
            shape: PackedSymmetric::scaled_identity(dim, radius * radius),
            cuts_applied: 0,
            scratch: CutScratch::default(),
        }
    }

    /// Whether [`Ellipsoid::ball`] accepts `radius`: it must be positive
    /// and its square finite, or the shape `radius² · I` overflows to
    /// infinity on the diagonal and NaN off it.
    #[must_use]
    pub fn is_usable_radius(radius: f64) -> bool {
        radius > 0.0 && (radius * radius).is_finite()
    }

    /// Creates an ellipsoid from an explicit centre and dense shape matrix,
    /// which is symmetrized and packed (a symmetric shape packs exactly).
    ///
    /// # Errors
    /// Returns [`LinalgError::NonFinite`] when the centre or any entry of
    /// the shape is NaN or infinite, and an error when `shape` is not
    /// symmetric positive definite or its dimension does not match the
    /// centre.
    pub fn new(center: Vector, shape: Matrix) -> Result<Self, LinalgError> {
        if shape.rows() != center.len() || shape.cols() != center.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "Ellipsoid::new",
                expected: center.len(),
                actual: shape.rows(),
            });
        }
        // NaN passes both the symmetry test and the Cholesky pivot test, so
        // finiteness is checked first, explicitly (packing checks the shape).
        if !center.is_finite() {
            return Err(LinalgError::NonFinite {
                operation: "Ellipsoid::new",
            });
        }
        let packed = PackedSymmetric::from_dense(&shape)?;
        // Positive-definiteness check via Cholesky; the factor itself is not
        // retained because the hot path never needs A⁻¹ explicitly.
        Cholesky::factor(&shape, 1e-6)?;
        Ok(Self {
            center,
            shape: packed,
            cuts_applied: 0,
            scratch: CutScratch::default(),
        })
    }

    /// Creates the initial knowledge set used by the paper for a box
    /// `[lowerᵢ, upperᵢ]ⁿ`: the origin-centred ball of radius
    /// `R = √(Σᵢ max(lᵢ², uᵢ²))` that encloses the box.
    ///
    /// # Panics
    /// Panics when the slices have different lengths, are empty, or the
    /// resulting radius is zero.
    #[must_use]
    pub fn enclosing_box(lower: &[f64], upper: &[f64]) -> Self {
        assert_eq!(lower.len(), upper.len(), "box bounds length mismatch");
        assert!(!lower.is_empty(), "box must have at least one dimension");
        let radius_sq: f64 = lower
            .iter()
            .zip(upper.iter())
            .map(|(&l, &u)| (l * l).max(u * u))
            .sum();
        Self::ball(lower.len(), radius_sq.sqrt())
    }

    /// The centre `c`.
    #[must_use]
    pub fn center(&self) -> &Vector {
        &self.center
    }

    /// The shape matrix `A`, as its packed upper triangle.
    #[must_use]
    pub fn shape(&self) -> &PackedSymmetric {
        &self.shape
    }

    /// Number of volume-reducing cuts applied since construction.
    #[must_use]
    pub fn cuts_applied(&self) -> usize {
        self.cuts_applied
    }

    /// `√(x^T A x)` — the half-width of the ellipsoid along `x`, i.e. the
    /// denominator of the position parameter `α`.
    #[must_use]
    pub fn direction_scale(&self, direction: &Vector) -> f64 {
        self.shape.quadratic_form(direction).max(0.0).sqrt()
    }

    /// The boundary displacement `b = A x / √(x^T A x)` (line 5 of
    /// Algorithm 1).  Returns `None` when the direction is degenerate.
    #[must_use]
    pub fn boundary_vector(&self, direction: &Vector) -> Option<Vector> {
        let scale = self.direction_scale(direction);
        if scale <= DIRECTION_TOL {
            return None;
        }
        Some(self.shape.matvec(direction).scaled(1.0 / scale))
    }

    /// The position parameter `α = (x^T c − threshold) / √(x^T A x)` of the
    /// hyperplane `x^T θ = threshold` (the signed distance from the centre in
    /// the ‖·‖_{A⁻¹} norm). Returns `None` for a degenerate direction.
    #[must_use]
    pub fn cut_alpha(&self, direction: &Vector, threshold: f64) -> Option<f64> {
        let scale = self.direction_scale(direction);
        if scale <= DIRECTION_TOL {
            return None;
        }
        let centre_value = direction
            .dot(&self.center)
            // pdm-lint: allow(no-unwrap-in-lib) reason="quadratic_form validated the dimension on the line above"
            .expect("dimension verified by quadratic_form");
        Some((centre_value - threshold) / scale)
    }

    /// Natural logarithm of the ellipsoid volume,
    /// `ln V_n + ½ ln det A` where `V_n` is the unit-ball volume.
    ///
    /// Uses the Cholesky log-determinant, which stays finite long after the
    /// raw determinant has underflowed.
    #[must_use]
    pub fn log_volume(&self) -> f64 {
        let logdet = match Cholesky::factor(&self.shape.to_dense(), 1e-6) {
            Ok(chol) => chol.log_determinant(),
            // A numerically semi-definite shape matrix means the volume has
            // collapsed to (effectively) zero.
            Err(_) => return f64::NEG_INFINITY,
        };
        ln_unit_ball_volume(self.dim()) + 0.5 * logdet
    }

    /// Ellipsoid volume (may underflow to zero for very flat ellipsoids; use
    /// [`Ellipsoid::log_volume`] in analyses).
    #[must_use]
    pub fn volume(&self) -> f64 {
        self.log_volume().exp()
    }

    /// Lengths of the semi-axes (square roots of the shape eigenvalues),
    /// sorted in descending order.
    ///
    /// # Panics
    /// Panics if the eigendecomposition fails, which cannot happen for the
    /// symmetric matrices maintained by this type.
    #[must_use]
    pub fn semi_axes(&self) -> Vector {
        // pdm-lint: allow(no-unwrap-in-lib) reason="the expanded packed shape is exactly symmetric; jacobi_eigen fails only on asymmetry"
        let eig = jacobi_eigen(&self.shape.to_dense(), 1e-6).expect("shape matrix is symmetric");
        eig.eigenvalues.map(|v| v.max(0.0).sqrt())
    }

    /// Smallest eigenvalue of the shape matrix (`γ_n(A)` in Lemmas 4–5).
    #[must_use]
    pub fn smallest_eigenvalue(&self) -> f64 {
        // pdm-lint: allow(no-unwrap-in-lib) reason="the expanded packed shape is exactly symmetric; jacobi_eigen fails only on asymmetry"
        let eig = jacobi_eigen(&self.shape.to_dense(), 1e-6).expect("shape matrix is symmetric");
        eig.smallest()
    }

    /// Uniformly inflates the ellipsoid: every semi-axis grows by `factor`
    /// (the shape matrix is scaled by `factor²`).
    ///
    /// This is the *forgetting* primitive of the discounted knowledge set:
    /// applying a factor slightly above 1 after every round makes old cuts
    /// decay geometrically, so a drifting `θ*` that has left the set is
    /// eventually re-admitted.  Growth is **relative**, so a converged
    /// (narrow) direction re-opens gently — it takes `ln(1.5)/ln(factor)`
    /// rounds to regain 50% width — and it is **self-limiting along
    /// queried directions**: once a width crosses the exploration
    /// threshold, the mechanism explores and the resulting cut shrinks it
    /// again.  Unqueried directions grow unchecked, exactly as the
    /// Löwner–John cut update itself already widens them (the relaxation's
    /// standard behaviour); callers that query no direction also observe
    /// no rounds, so a discounting driver never inflates in a vacuum.
    /// A `factor ≤ 1`, a non-finite input, or a factor that would overflow
    /// the shape matrix is a no-op.
    pub fn inflate(&mut self, factor: f64) {
        // NaN fails the comparison too, so non-finite inputs are no-ops.
        if factor <= 1.0 || !factor.is_finite() {
            return;
        }
        let factor_sq = factor * factor;
        // For a positive semi-definite shape |aᵢⱼ| ≤ max aᵢᵢ, so a finite
        // scaled diagonal keeps every scaled entry finite.  The product
        // also catches an overflowing `factor²`: the maximum is ≥ 0, and
        // 0 · ∞ is NaN.
        if !(self.shape.max_diagonal() * factor_sq).is_finite() {
            return;
        }
        self.scratch.clear_tag(self.dim());
        self.shape.scale_mut(factor_sq);
    }

    /// Shared implementation of the Löwner–John update for the halfspace
    /// `{θ : sign · direction^T θ ≤ sign · threshold}` with `sign ∈ {−1, +1}`.
    ///
    /// The formulas are the deep/shallow-cut update of Grötschel et al.; the
    /// "keep above" case threads `sign = −1` instead of materialising the
    /// negated direction vector.  This is bit-for-bit the computation the
    /// negated-vector formulation performs: IEEE-754 negation is exact and
    /// distributes exactly over rounded sums and products, so
    /// `(−x)^T A (−x)`, `(A(−x))ᵢ = −(Ax)ᵢ`, and `(−x)^T c = −(x^T c)` all
    /// hold at the bit level.  No allocation happens on any path: the
    /// candidate centre is staged in [`CutScratch`] and committed by
    /// swapping, and the shape is updated in place once an `O(n)` guard
    /// has shown the result finite.  A cut along the direction the last
    /// quote used reuses that quote's `A x` and `x^T A x` instead of
    /// recomputing them.
    fn apply_cut_signed(&mut self, direction: &Vector, sign: f64, threshold: f64) -> CutOutcome {
        let n = self.dim();
        if n == 1 {
            return self.apply_cut_one_dim(sign * direction[0], sign * threshold);
        }
        // `x^T A x` is sign-invariant; the scratch ends up holding `A x`,
        // untagged, whichever branch runs.
        let quadratic_form = match self.scratch.take_quadratic_form(n, direction) {
            Some(quadratic_form) => quadratic_form,
            None => self
                .shape
                .quadratic_form_with(direction, &mut self.scratch.b),
        };
        let scale = quadratic_form.max(0.0).sqrt();
        if scale <= DIRECTION_TOL {
            return CutOutcome::DegenerateDirection;
        }
        let signed_centre = sign
            * direction
                .dot(&self.center)
                // pdm-lint: allow(no-unwrap-in-lib) reason="dimensions checked by quadratic_form, or by the tag match, at the top of this cut step"
                .expect("dimensions checked by quadratic_form");
        let mut signed_threshold = sign * threshold;
        let nf = n as f64;

        let mut alpha = (signed_centre - signed_threshold) / scale;
        loop {
            if alpha > 1.0 {
                // The halfspace misses the ellipsoid entirely.
                return CutOutcome::WouldBeEmpty { alpha };
            }
            if alpha < -1.0 / nf {
                // Too shallow: the Löwner–John ellipsoid of the surviving
                // region is the current ellipsoid.
                return CutOutcome::OutOfRange { alpha };
            }
            if alpha >= 1.0 - 1e-12 {
                // Tangent cut: the surviving region is a single point; the
                // update formula would collapse the shape matrix to zero and
                // destroy positive definiteness, so we clamp just inside the
                // valid range and re-evaluate (the state is untouched, so
                // this loop is the recursion of the allocating formulation
                // unrolled).
                signed_threshold = signed_centre - (1.0 - 1e-9) * scale;
                alpha = (signed_centre - signed_threshold) / scale;
                continue;
            }
            break;
        }

        // b = A (sign·x) / scale, reusing the `A x` already in scratch.
        let inv_scale = 1.0 / scale;
        for slot in self.scratch.b.as_mut_slice() {
            *slot = (sign * *slot) * inv_scale;
        }

        // c' = c − (1 + nα)/(n + 1) · b
        let step = (1.0 + nf * alpha) / (nf + 1.0);
        self.scratch.center.copy_from(&self.center);
        self.scratch
            .center
            .axpy(-step, &self.scratch.b)
            // pdm-lint: allow(no-unwrap-in-lib) reason="center and the cut vector b share the ellipsoid dimension established at construction"
            .expect("center and b share the dimension");

        // A' = s · (A − c · b bᵀ) with s = n²(1 − α²)/(n² − 1) and
        // c = 2(1 + nα)/((n + 1)(1 + α)).
        let outer_coeff = 2.0 * (1.0 + nf * alpha) / ((nf + 1.0) * (1.0 + alpha));
        let shape_scale = nf * nf * (1.0 - alpha * alpha) / (nf * nf - 1.0);

        // The shape is written in place, so whether the result is finite is
        // decided before any entry changes.  The shape is finite and
        // positive semi-definite, so |aᵢⱼ| ≤ max aᵢᵢ, and |bᵢ bⱼ| ≤ max bᵢ²:
        // every new entry is at most (max aᵢᵢ + |c|·max bᵢ²)·s in magnitude.
        // The factor 2 leaves room for rounding in both bounds.  `f64::max`
        // drops a NaN `bᵢ`, but every `bᵢ` is finite once the staged centre
        // is: `c` is finite, and `step · bᵢ` is NaN or infinite whenever `bᵢ`
        // is (even at `step = 0`).
        let longest_sq = self.scratch.b.iter().fold(0.0, |m: f64, b| m.max(b * b));
        let bound =
            (2.0 * self.shape.max_diagonal() + outer_coeff.abs() * longest_sq) * shape_scale;
        if !bound.is_finite() || !self.scratch.center.is_finite() {
            // Refuse to poison the knowledge set with NaNs; treat as a no-op.
            return CutOutcome::OutOfRange { alpha };
        }

        // aᵢⱼ ← (aᵢⱼ + (−c)·(bᵢ bⱼ))·s, bit for bit (aᵢⱼ − c·(bᵢ bⱼ))·s.
        self.shape
            .rank_one_update_scaled(-outer_coeff, &self.scratch.b, shape_scale);
        std::mem::swap(&mut self.center, &mut self.scratch.center);
        self.cuts_applied += 1;
        CutOutcome::Updated(Cut::from_alpha(alpha))
    }

    /// One-dimensional specialisation: the ellipsoid `[c − √A, c + √A]` is an
    /// interval and the general update formula is singular (`n² − 1 = 0`), so
    /// the interval is intersected exactly with the halfline.  `x` and
    /// `threshold` are already sign-adjusted scalars.
    fn apply_cut_one_dim(&mut self, x: f64, threshold: f64) -> CutOutcome {
        self.scratch.clear_tag(1);
        if x.abs() <= DIRECTION_TOL {
            return CutOutcome::DegenerateDirection;
        }
        let half_width = self.shape.get(0, 0).max(0.0).sqrt();
        let c = self.center[0];
        let lo = c - half_width;
        let hi = c + half_width;
        // direction^T θ ≤ threshold  ⇔  θ ≤ threshold / x  (x > 0) or ≥ (x < 0)
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
            return CutOutcome::WouldBeEmpty { alpha };
        }
        if new_hi >= hi - 1e-15 && new_lo <= lo + 1e-15 {
            return CutOutcome::OutOfRange { alpha };
        }
        let new_c = 0.5 * (new_lo + new_hi);
        let new_r = (0.5 * (new_hi - new_lo)).max(1e-15);
        self.center[0] = new_c;
        self.shape.set(0, 0, new_r * new_r);
        self.cuts_applied += 1;
        CutOutcome::Updated(Cut::from_alpha(alpha))
    }
}

impl KnowledgeSet for Ellipsoid {
    fn dim(&self) -> usize {
        self.center.len()
    }

    fn support_bounds(&self, direction: &Vector) -> (f64, f64) {
        let centre_value = direction
            .dot(&self.center)
            // pdm-lint: allow(no-unwrap-in-lib) reason="dimension invariant pinned by the constructor; a mismatch here is internal corruption, not caller input"
            .expect("direction must match the ellipsoid dimension");
        match self.boundary_vector(direction) {
            Some(b) => {
                // pdm-lint: allow(no-unwrap-in-lib) reason="the same direction passed the dimension check two lines above"
                let spread = direction.dot(&b).expect("dimensions already checked");
                (centre_value - spread, centre_value + spread)
            }
            None => (centre_value, centre_value),
        }
    }

    fn support_bounds_mut(&mut self, direction: &Vector) -> (f64, f64) {
        let centre_value = direction
            .dot(&self.center)
            // pdm-lint: allow(no-unwrap-in-lib) reason="dimension invariant pinned by the constructor; a mismatch here is internal corruption, not caller input"
            .expect("direction must match the ellipsoid dimension");
        // Same arithmetic as the allocating path: `x^T A x` accumulated in
        // the order of `matvec(x).dot(x)`, then the spread accumulated as
        // `Σ xᵢ · ((A x)ᵢ / scale)`.
        let n = self.dim();
        // Sizing `b` for the tag slot before the matvec shrinks it to `n`
        // keeps room for the tag, so tagging never reallocates.
        self.scratch.b.resize(n + 1);
        let quadratic_form = self
            .shape
            .quadratic_form_with(direction, &mut self.scratch.b);
        // Tag the quote so the cut that usually follows can reuse `A x`
        // (see `CutScratch`); `zip` below stops before the tag slot.
        self.scratch.b.resize(n + 1);
        self.scratch.b[n] = quadratic_form;
        self.scratch.center.copy_from(direction);
        let scale = quadratic_form.max(0.0).sqrt();
        if scale <= DIRECTION_TOL {
            return (centre_value, centre_value);
        }
        let inv_scale = 1.0 / scale;
        let spread: f64 = direction
            .iter()
            .zip(self.scratch.b.iter())
            .map(|(d, m)| d * (m * inv_scale))
            .sum();
        (centre_value - spread, centre_value + spread)
    }

    fn cut_below(&mut self, direction: &Vector, threshold: f64) -> CutOutcome {
        self.apply_cut_signed(direction, 1.0, threshold)
    }

    fn cut_above(&mut self, direction: &Vector, threshold: f64) -> CutOutcome {
        // {θ : x^T θ ≥ h} = {θ : (−x)^T θ ≤ −h}, threaded as sign = −1
        // (applied to both the direction and the threshold internally).
        self.apply_cut_signed(direction, -1.0, threshold)
    }

    fn contains(&self, theta: &Vector) -> bool {
        if theta.len() != self.dim() {
            return false;
        }
        let diff = theta - &self.center;
        // Solve A z = diff so that diff^T A⁻¹ diff = diff^T z.
        match self.shape.to_dense().solve(&diff) {
            Ok(z) => diff.dot(&z).map(|q| q <= 1.0 + 1e-8).unwrap_or(false),
            Err(_) => false,
        }
    }

    /// The heap the ellipsoid has allocated, by capacity: the packed shape,
    /// the centre, and the two scratch vectors.
    fn memory_footprint_bytes(&self) -> usize {
        let floats = self.shape.capacity()
            + self.center.capacity()
            + self.scratch.b.capacity()
            + self.scratch.center.capacity();
        floats * std::mem::size_of::<f64>()
    }
}

/// Natural log of the volume of the n-dimensional unit ball,
/// `ln(π^{n/2} / Γ(n/2 + 1))`.
#[must_use]
pub fn ln_unit_ball_volume(n: usize) -> f64 {
    let nf = n as f64;
    0.5 * nf * std::f64::consts::PI.ln() - ln_gamma_half(n + 2)
}

/// `ln Γ(m / 2)` for a positive integer `m`, computed exactly from the
/// recurrences `Γ(k) = (k−1)!` and `Γ(k + ½) = (2k)! √π / (4ᵏ k!)`.
fn ln_gamma_half(m: usize) -> f64 {
    assert!(m >= 1, "ln_gamma_half requires a positive argument");
    if m.is_multiple_of(2) {
        // Γ(k) with k = m / 2.
        let k = m / 2;
        (1..k).map(|i| (i as f64).ln()).sum()
    } else {
        // Γ(k + 1/2) with k = (m − 1) / 2.
        let k = (m - 1) / 2;
        let ln_sqrt_pi = 0.5 * std::f64::consts::PI.ln();
        let ln_fact = |j: usize| -> f64 { (1..=j).map(|i| (i as f64).ln()).sum() };
        ln_fact(2 * k) + ln_sqrt_pi - (k as f64) * 4.0_f64.ln() - ln_fact(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::approx_eq;

    #[test]
    fn ball_support_bounds() {
        let e = Ellipsoid::ball(3, 2.0);
        let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
        let (lo, hi) = e.support_bounds(&x);
        assert!(approx_eq(lo, -2.0, 1e-12));
        assert!(approx_eq(hi, 2.0, 1e-12));

        // A non-axis-aligned direction of norm ‖x‖ = √2 spans 2·r·‖x‖.
        let d = Vector::from_slice(&[1.0, 1.0, 0.0]);
        let (lo, hi) = e.support_bounds(&d);
        assert!(approx_eq(hi - lo, 4.0 * 2.0_f64.sqrt(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "finite square")]
    fn ball_refuses_a_radius_whose_square_overflows() {
        let _ = Ellipsoid::ball(2, 1e160);
    }

    #[test]
    fn enclosing_box_radius_matches_paper_formula() {
        let e = Ellipsoid::enclosing_box(&[-1.0, -2.0], &[0.5, 3.0]);
        // R = sqrt(max(1, 0.25) + max(4, 9)) = sqrt(10)
        let x = Vector::from_slice(&[1.0, 0.0]);
        let (_, hi) = e.support_bounds(&x);
        assert!(approx_eq(hi, 10.0_f64.sqrt(), 1e-12));
    }

    #[test]
    fn new_rejects_bad_shapes() {
        let c = Vector::zeros(2);
        let not_pd = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(Ellipsoid::new(c.clone(), not_pd).is_err());
        let wrong_dim = Matrix::identity(3);
        assert!(Ellipsoid::new(c, wrong_dim).is_err());
    }

    #[test]
    fn new_refuses_non_finite_centres_and_shapes() {
        let non_finite = |result: Result<Ellipsoid, LinalgError>| {
            matches!(result, Err(LinalgError::NonFinite { .. }))
        };
        let spd = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // Off-diagonal NaNs pass the symmetry check and the Cholesky
            // pivot test, so only the explicit check stands in their way.
            let mut both = spd.clone();
            both.set(0, 1, bad);
            both.set(1, 0, bad);
            assert!(non_finite(Ellipsoid::new(Vector::zeros(2), both)), "{bad}");
            let mut diagonal = spd.clone();
            diagonal.set(1, 1, bad);
            assert!(
                non_finite(Ellipsoid::new(Vector::zeros(2), diagonal)),
                "{bad}"
            );
            let centre = Vector::from_slice(&[0.0, bad]);
            assert!(non_finite(Ellipsoid::new(centre, spd.clone())), "{bad}");
        }
        assert!(Ellipsoid::new(Vector::zeros(2), spd).is_ok());
    }

    #[test]
    fn central_cut_halves_log_volume_by_known_factor() {
        let mut e = Ellipsoid::ball(4, 1.0);
        let before = e.log_volume();
        let x = Vector::from_slice(&[1.0, 0.0, 0.0, 0.0]);
        // Cutting through the centre: threshold = x^T c = 0.
        let outcome = e.cut_below(&x, 0.0);
        assert!(outcome.is_updated());
        assert_eq!(outcome.cut().unwrap().kind, crate::CutKind::Central);
        let after = e.log_volume();
        // Lemma 2 with α = 0: volume ratio ≤ exp(-1/(5n)); the actual central
        // cut ratio for the Löwner–John ellipsoid is strictly below 1.
        assert!(after < before);
        assert!(after - before <= -1.0 / (5.0 * 4.0) + 1e-9);
    }

    #[test]
    fn deep_cut_shrinks_more_than_central_cut() {
        let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
        let mut central = Ellipsoid::ball(3, 1.0);
        let mut deep = Ellipsoid::ball(3, 1.0);
        central.cut_below(&x, 0.0);
        deep.cut_below(&x, -0.5); // keep {θ₁ ≤ −0.5}: a deep cut
        assert!(deep.log_volume() < central.log_volume());
    }

    #[test]
    fn shallow_cut_still_shrinks_within_validity_range() {
        let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
        let mut e = Ellipsoid::ball(3, 1.0);
        let before = e.log_volume();
        // α = −0.2 ∈ [−1/3, 0): shallow but valid.
        let outcome = e.cut_below(&x, 0.2);
        assert!(outcome.is_updated());
        assert_eq!(outcome.cut().unwrap().kind, crate::CutKind::Shallow);
        assert!(e.log_volume() < before);
    }

    #[test]
    fn too_shallow_cut_is_a_no_op() {
        let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
        let mut e = Ellipsoid::ball(3, 1.0);
        let before = e.clone();
        // α = −0.9 < −1/3.
        let outcome = e.cut_below(&x, 0.9);
        assert!(matches!(outcome, CutOutcome::OutOfRange { .. }));
        assert_eq!(e, before);
    }

    #[test]
    fn infeasible_cut_reports_would_be_empty() {
        let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
        let mut e = Ellipsoid::ball(3, 1.0);
        let before = e.clone();
        // Keep {θ₁ ≤ −2}: misses the unit ball entirely (α = 2 > 1).
        let outcome = e.cut_below(&x, -2.0);
        assert!(matches!(outcome, CutOutcome::WouldBeEmpty { .. }));
        assert_eq!(e, before);
    }

    #[test]
    fn degenerate_direction_is_detected() {
        let mut e = Ellipsoid::ball(2, 1.0);
        let zero = Vector::zeros(2);
        assert_eq!(e.cut_below(&zero, 0.0), CutOutcome::DegenerateDirection);
    }

    #[test]
    fn cut_above_mirrors_cut_below() {
        let x = Vector::from_slice(&[0.0, 1.0]);
        let mut below = Ellipsoid::ball(2, 1.0);
        let mut above = Ellipsoid::ball(2, 1.0);
        below.cut_below(&x, 0.0);
        above.cut_above(&x, 0.0);
        // Mirror images: centres are opposite, volumes identical.
        assert!(approx_eq(below.center()[1], -above.center()[1], 1e-12));
        assert!(approx_eq(below.log_volume(), above.log_volume(), 1e-10));
    }

    #[test]
    fn cut_preserves_feasible_weight_vector() {
        // The true θ* must survive any sequence of consistent cuts.
        let theta_star = Vector::from_slice(&[0.6, -0.3, 0.2]);
        let mut e = Ellipsoid::ball(3, 2.0);
        let directions = [
            Vector::from_slice(&[1.0, 0.0, 0.0]),
            Vector::from_slice(&[0.3, 0.8, 0.1]),
            Vector::from_slice(&[-0.5, 0.4, 0.9]),
            Vector::from_slice(&[0.2, 0.2, 0.2]),
        ];
        for (i, x) in directions.iter().enumerate() {
            let value = x.dot(&theta_star).unwrap();
            // Alternate accept/reject consistent with θ*.
            if i % 2 == 0 {
                e.cut_below(x, value + 0.05);
            } else {
                e.cut_above(x, value - 0.05);
            }
            assert!(e.contains(&theta_star), "θ* expelled after cut {i}");
        }
    }

    #[test]
    fn support_bounds_shrink_toward_truth_under_bisection() {
        let theta_star = Vector::from_slice(&[0.5, 0.5]);
        let x = Vector::from_slice(&[1.0, 1.0]).normalized();
        let truth = x.dot(&theta_star).unwrap();
        let mut e = Ellipsoid::ball(2, 2.0);
        for _ in 0..30 {
            let (lo, hi) = e.support_bounds(&x);
            let mid = 0.5 * (lo + hi);
            if mid <= truth {
                e.cut_above(&x, mid);
            } else {
                e.cut_below(&x, mid);
            }
        }
        let (lo, hi) = e.support_bounds(&x);
        assert!(lo <= truth + 1e-6 && truth - 1e-6 <= hi);
        assert!(
            hi - lo < 0.05,
            "bisection should tighten the width, got {}",
            hi - lo
        );
    }

    #[test]
    fn one_dimensional_cuts_behave_like_interval() {
        let mut e = Ellipsoid::ball(1, 2.0); // interval [−2, 2]
        let x = Vector::from_slice(&[1.0]);
        let outcome = e.cut_below(&x, 1.0); // keep [−2, 1]
        assert!(outcome.is_updated());
        let (lo, hi) = e.support_bounds(&x);
        assert!(approx_eq(lo, -2.0, 1e-9));
        assert!(approx_eq(hi, 1.0, 1e-9));

        let outcome = e.cut_above(&x, -1.0); // keep [−1, 1]
        assert!(outcome.is_updated());
        let (lo, hi) = e.support_bounds(&x);
        assert!(approx_eq(lo, -1.0, 1e-9));
        assert!(approx_eq(hi, 1.0, 1e-9));

        // Empty intersection is refused.
        let before = e.clone();
        assert!(matches!(
            e.cut_below(&x, -5.0),
            CutOutcome::WouldBeEmpty { .. }
        ));
        assert_eq!(e, before);
    }

    #[test]
    fn volume_of_unit_ball_matches_closed_form() {
        // V_1 = 2, V_2 = π, V_3 = 4π/3.
        assert!(approx_eq(ln_unit_ball_volume(1).exp(), 2.0, 1e-9));
        assert!(approx_eq(
            ln_unit_ball_volume(2).exp(),
            std::f64::consts::PI,
            1e-9
        ));
        assert!(approx_eq(
            ln_unit_ball_volume(3).exp(),
            4.0 * std::f64::consts::PI / 3.0,
            1e-9
        ));
        // And the scaled ball volume: radius 2 in 2-D is 4π.
        let e = Ellipsoid::ball(2, 2.0);
        assert!(approx_eq(e.volume(), 4.0 * std::f64::consts::PI, 1e-6));
    }

    #[test]
    fn semi_axes_and_smallest_eigenvalue() {
        let shape = Matrix::diagonal(&[4.0, 1.0]);
        let e = Ellipsoid::new(Vector::zeros(2), shape).unwrap();
        let axes = e.semi_axes();
        assert!(approx_eq(axes[0], 2.0, 1e-9));
        assert!(approx_eq(axes[1], 1.0, 1e-9));
        assert!(approx_eq(e.smallest_eigenvalue(), 1.0, 1e-9));
    }

    #[test]
    fn lemma2_volume_ratio_bound_holds_across_alpha_range() {
        // Check V(E') / V(E) ≤ exp(−(1 + nα)² / (5n)) for several α in
        // [−1/n, 1), n = 4.
        let n = 4usize;
        let x = Vector::from_slice(&[1.0, 0.0, 0.0, 0.0]);
        for &alpha in &[-0.24, -0.1, 0.0, 0.2, 0.5, 0.8] {
            let mut e = Ellipsoid::ball(n, 1.0);
            let before = e.log_volume();
            // threshold chosen so the position parameter equals alpha:
            // α = (x^T c − h)/√(x^T A x) = −h   for the unit ball.
            let outcome = e.cut_below(&x, -alpha);
            assert!(outcome.is_updated(), "alpha = {alpha} should be valid");
            let after = e.log_volume();
            let bound = -(1.0 + n as f64 * alpha).powi(2) / (5.0 * n as f64);
            assert!(
                after - before <= bound + 1e-9,
                "Lemma 2 violated for alpha = {alpha}: got {} > {}",
                after - before,
                bound
            );
        }
    }

    #[test]
    fn cuts_whose_result_would_not_be_finite_leave_the_set_untouched() {
        // A diagonal near f64::MAX: a central cut along e₁ scales a₂₂ by
        // n²/(n² − 1) = 4/3, past f64::MAX.
        let huge = Ellipsoid::ball(2, (1.5e308_f64).sqrt());
        let e1 = Vector::from_slice(&[1.0, 0.0]);
        let nan_direction = Vector::from_slice(&[0.6, f64::NAN]);
        let x = Vector::from_slice(&[0.6, 0.8]);
        let cases: [(&str, Ellipsoid, &Vector, f64); 3] = [
            ("overflowing update", huge, &e1, 0.0),
            (
                "NaN direction entry",
                Ellipsoid::ball(2, 1.0),
                &nan_direction,
                0.0,
            ),
            ("NaN threshold", Ellipsoid::ball(2, 1.0), &x, f64::NAN),
        ];
        for (what, mut e, direction, threshold) in cases {
            // Quote first, so a tagged `A x` is in play as well.
            e.support_bounds_mut(direction);
            let (center, shape) = (e.center().clone(), e.shape().clone());
            for outcome in [
                e.cut_below(direction, threshold),
                e.cut_above(direction, threshold),
            ] {
                assert!(!outcome.is_updated(), "{what}: {outcome:?}");
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(e.center().as_slice()),
                bits(center.as_slice()),
                "{what}"
            );
            assert_eq!(bits(e.shape().as_slice()), bits(shape.as_slice()), "{what}");
            assert_eq!(e.cuts_applied(), 0, "{what}");
        }
    }

    #[test]
    fn cuts_applied_counter_increments_only_on_updates() {
        let mut e = Ellipsoid::ball(2, 1.0);
        let x = Vector::from_slice(&[1.0, 0.0]);
        assert_eq!(e.cuts_applied(), 0);
        e.cut_below(&x, 0.0);
        assert_eq!(e.cuts_applied(), 1);
        e.cut_below(&x, 5.0); // out of range, no-op
        assert_eq!(e.cuts_applied(), 1);
    }

    #[test]
    fn contains_rejects_wrong_dimension() {
        let e = Ellipsoid::ball(3, 1.0);
        assert!(!e.contains(&Vector::zeros(2)));
        assert!(e.contains(&Vector::zeros(3)));
    }

    #[test]
    fn cut_above_is_bitwise_the_negated_cut_below() {
        // The sign-threaded path must reproduce, bit for bit, the textbook
        // formulation that materialises the negated direction vector.
        let x = Vector::from_slice(&[0.37, -1.21, 0.89]);
        let mut via_sign = Ellipsoid::ball(3, 1.5);
        let mut via_negation = Ellipsoid::ball(3, 1.5);
        for &th in &[0.2, -0.35, 0.11, 0.6] {
            let a = via_sign.cut_above(&x, th);
            let b = via_negation.cut_below(&(-&x), -th);
            assert_eq!(a, b);
            assert_eq!(
                via_sign.center().as_slice(),
                via_negation.center().as_slice()
            );
            assert_eq!(via_sign.shape(), via_negation.shape());
        }
        // And in one dimension, where the interval specialisation kicks in.
        let x1 = Vector::from_slice(&[-0.8]);
        let mut one_sign = Ellipsoid::ball(1, 2.0);
        let mut one_neg = Ellipsoid::ball(1, 2.0);
        assert_eq!(
            one_sign.cut_above(&x1, 0.4),
            one_neg.cut_below(&(-&x1), -0.4)
        );
        assert_eq!(one_sign, one_neg);
    }

    #[test]
    fn support_bounds_mut_matches_support_bounds_bitwise() {
        let mut e = Ellipsoid::ball(4, 1.3);
        let dirs = [
            Vector::from_slice(&[1.0, 0.25, -0.5, 2.0]),
            Vector::from_slice(&[0.0, -1.7, 0.0, 0.33]),
            Vector::zeros(4), // degenerate
        ];
        for d in &dirs {
            let (lo, hi) = e.support_bounds(d);
            let (lo_m, hi_m) = e.support_bounds_mut(d);
            assert_eq!(lo.to_bits(), lo_m.to_bits());
            assert_eq!(hi.to_bits(), hi_m.to_bits());
        }
        // Still identical after the shape matrix has evolved.
        e.cut_below(&dirs[0], 0.1);
        for d in &dirs {
            let (lo, hi) = e.support_bounds(d);
            let (lo_m, hi_m) = e.support_bounds_mut(d);
            assert_eq!(lo.to_bits(), lo_m.to_bits());
            assert_eq!(hi.to_bits(), hi_m.to_bits());
        }
    }

    #[test]
    fn equality_ignores_scratch_buffers() {
        let x = Vector::from_slice(&[1.0, 0.0]);
        let mut used = Ellipsoid::ball(2, 1.0);
        // Populate the scratch via a rejected (out-of-range) cut and a
        // support query; the set itself is untouched.
        used.cut_below(&x, 5.0);
        used.support_bounds_mut(&x);
        let fresh = Ellipsoid::ball(2, 1.0);
        assert_eq!(used, fresh);
    }

    #[test]
    fn inflate_grows_axes_geometrically() {
        let x = Vector::from_slice(&[1.0, 0.0]);
        let mut e = Ellipsoid::ball(2, 1.0);
        // Shrink along x first so there is something to forget.
        e.cut_below(&x, 0.2);
        e.cut_below(&x, 0.1);
        let width_before = e.width_along(&x);
        e.inflate(1.1);
        let width_after = e.width_along(&x);
        assert!(
            (width_after - 1.1 * width_before).abs() < 1e-9,
            "inflation must widen the set by exactly the factor \
             ({width_after} vs {width_before})"
        );
        // Inflation followed by a fresh cut keeps the set valid: the
        // re-opened direction can immediately be re-cut.
        e.cut_below(&x, 0.05);
        assert!(e.shape().is_finite());
        assert!(e.width_along(&x) < width_after);

        // Degenerate factors are no-ops.
        let frozen = e.clone();
        e.inflate(1.0);
        e.inflate(0.5);
        e.inflate(f64::NAN);
        assert_eq!(e, frozen);

        // So are finite factors that would overflow the shape: one whose
        // square overflows, and one whose square times the widest diagonal
        // entry does.  Either used to leave infinities and NaNs behind.
        let x2 = Vector::from_slice(&[1.0, 1.0]);
        for (radius, factor) in [(1.0, 1e200), (1e150, 1e5)] {
            let mut e = Ellipsoid::ball(2, radius);
            let frozen = e.clone();
            let bounds = e.support_bounds(&x2);
            e.inflate(factor);
            assert_eq!(e, frozen, "inflate({factor:e}) on radius {radius:e}");
            assert!(e.shape().is_finite());
            assert_eq!(e.support_bounds(&x2), bounds);
        }
    }
}
