//! The contextual dynamic pricing engine (Algorithms 1, 1*, 2, 2*).
//!
//! [`ContextualPricing`] is generic over the knowledge-set representation so
//! the same control flow serves
//!
//! * [`EllipsoidPricing`] — the paper's mechanism (Löwner–John ellipsoid,
//!   `O(n²)` per round),
//! * [`ExactPolytopePricing`] — the exact-LP variant kept for validation and
//!   the latency ablation, and
//! * [`OneDimPricing`] — the interval/bisection variant of the
//!   one-dimensional case (Theorem 3).
//!
//! The engine works entirely in *link space* (`z = φ(x)^T θ`): the reserve
//! price is pulled through `g⁻¹`, the exploratory/conservative prices are
//! chosen on the `z` scale, and the buyer-facing price is `g(z)`.

use super::{PostedPriceMechanism, PricingConfig, Quote, QuoteKind};
use crate::model::{LinearModel, MarketValueModel};
use pdm_ellipsoid::{Ellipsoid, Interval, KnowledgeSet, Polytope};
use pdm_linalg::Vector;

/// Contextual posted-price mechanism over an arbitrary knowledge set.
#[derive(Debug, Clone)]
pub struct ContextualPricing<M, K> {
    model: M,
    knowledge: K,
    config: PricingConfig,
    epsilon: f64,
    exploratory_rounds: usize,
    conservative_rounds: usize,
    certain_no_sale_rounds: usize,
    cuts_applied: usize,
    // Scratch buffers for the quote/observe hot path: φ(x) of the most
    // recent quote plus the raw features it was computed from, so the
    // feedback cut reuses the mapping instead of re-allocating it.
    mapped_scratch: Vector,
    raw_scratch: Vector,
    scratch_valid: bool,
}

/// The paper's mechanism: contextual pricing over a Löwner–John ellipsoid.
pub type EllipsoidPricing<M> = ContextualPricing<M, Ellipsoid>;
/// Validation/ablation variant: contextual pricing over the exact polytope.
pub type ExactPolytopePricing<M> = ContextualPricing<M, Polytope>;
/// One-dimensional variant: contextual pricing over an interval (Theorem 3).
pub type OneDimPricing = ContextualPricing<LinearModel, Interval>;

impl<M: MarketValueModel, K: KnowledgeSet> ContextualPricing<M, K> {
    /// Builds a mechanism from an explicit knowledge set.
    ///
    /// # Panics
    /// Panics when the knowledge set's dimension does not match the model's
    /// mapped feature dimension.
    #[must_use]
    pub fn with_knowledge(model: M, knowledge: K, config: PricingConfig) -> Self {
        assert_eq!(
            knowledge.dim(),
            model.mapped_dim(),
            "knowledge-set dimension must equal the model's mapped feature dimension"
        );
        let epsilon = config.effective_epsilon(model.mapped_dim());
        let mapped_dim = model.mapped_dim();
        Self {
            model,
            knowledge,
            config,
            epsilon,
            exploratory_rounds: 0,
            conservative_rounds: 0,
            certain_no_sale_rounds: 0,
            cuts_applied: 0,
            mapped_scratch: Vector::zeros(mapped_dim),
            raw_scratch: Vector::zeros(0),
            scratch_valid: false,
        }
    }

    /// Ensures the scratch buffers hold `φ(features)`; reuses the cached
    /// mapping when `features` are bit-identical to the previous call's.
    fn refresh_scratch(&mut self, features: &Vector) {
        if self.scratch_valid && self.raw_scratch == *features {
            return;
        }
        self.model
            .map_features_into(features, &mut self.mapped_scratch);
        self.raw_scratch.copy_from(features);
        self.scratch_valid = true;
    }

    /// The market value model in use.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The current knowledge set.
    #[must_use]
    pub fn knowledge(&self) -> &K {
        &self.knowledge
    }

    /// Mutable access to the knowledge set.
    ///
    /// Advanced: the drift-aware wrappers of [`crate::drift`] use this to
    /// inflate (discount) the set between rounds; ordinary drivers never
    /// mutate the set outside [`PostedPriceMechanism::observe`].
    pub fn knowledge_mut(&mut self) -> &mut K {
        &mut self.knowledge
    }

    /// Replaces the knowledge set wholesale — the *restart* primitive of the
    /// drift-aware mechanisms: on a detected distribution shift the learned
    /// set is discarded and the broker falls back to her prior.
    ///
    /// Diagnostic counters (cut/exploration tallies) are deliberately kept:
    /// they describe the mechanism's lifetime, not one knowledge set.
    ///
    /// # Panics
    /// Panics when the new set's dimension does not match the model.
    pub fn replace_knowledge(&mut self, knowledge: K) {
        assert_eq!(
            knowledge.dim(),
            self.model.mapped_dim(),
            "knowledge-set dimension must equal the model's mapped feature dimension"
        );
        self.knowledge = knowledge;
    }

    /// The configuration the mechanism was built with.
    #[must_use]
    pub fn config(&self) -> &PricingConfig {
        &self.config
    }

    /// The exploration threshold ε in effect.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of rounds in which the exploratory price was posted.
    #[must_use]
    pub fn exploratory_rounds(&self) -> usize {
        self.exploratory_rounds
    }

    /// Number of rounds in which the conservative price was posted.
    #[must_use]
    pub fn conservative_rounds(&self) -> usize {
        self.conservative_rounds
    }

    /// Number of rounds skipped because the reserve exceeded every possible
    /// market value.
    #[must_use]
    pub fn certain_no_sale_rounds(&self) -> usize {
        self.certain_no_sale_rounds
    }

    /// Number of knowledge-set refinements actually applied.
    #[must_use]
    pub fn cuts_applied(&self) -> usize {
        self.cuts_applied
    }

    /// Link-space support bounds `(¯p_t, p̄_t)` of the knowledge set along the
    /// mapped features of `features` — exposed so adversarial drivers (the
    /// Lemma-8 experiment) and diagnostics can inspect the mechanism's state.
    #[must_use]
    pub fn support_bounds(&self, features: &Vector) -> (f64, f64) {
        let mapped = self.model.map_features(features);
        self.knowledge.support_bounds(&mapped)
    }

    /// The link-space reserve price used for a market-space reserve.
    fn reserve_link(&self, reserve_price: f64) -> f64 {
        if self.config.use_reserve {
            self.model.inverse_link(reserve_price)
        } else {
            f64::NEG_INFINITY
        }
    }
}

impl<M: MarketValueModel, K: KnowledgeSet> PostedPriceMechanism for ContextualPricing<M, K> {
    fn name(&self) -> String {
        format!("ellipsoid pricing ({})", self.config.version_name())
    }

    fn quote(&mut self, features: &Vector, reserve_price: f64) -> Quote {
        self.refresh_scratch(features);
        // `support_bounds_mut` lets the knowledge set reuse its own scratch
        // buffers (bit-identical to `support_bounds`, but allocation-free on
        // the ellipsoid hot path).
        let (lower, upper) = self.knowledge.support_bounds_mut(&self.mapped_scratch);
        let reserve_link = self.reserve_link(reserve_price);
        let delta = self.config.delta;

        // Lines 8–10: a certain no-sale when even the most optimistic market
        // value cannot reach the reserve price.
        if self.config.use_reserve && reserve_link >= upper + delta {
            self.certain_no_sale_rounds += 1;
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
        let (kind, link_price) = if width > self.epsilon {
            // Lines 12–13: exploratory price, the larger of the reserve and
            // the middle price.
            self.exploratory_rounds += 1;
            let midpoint = 0.5 * (lower + upper);
            (QuoteKind::Exploratory, midpoint.max(reserve_link))
        } else {
            // Lines 22–23 (27 with uncertainty): conservative price.
            self.conservative_rounds += 1;
            (QuoteKind::Conservative, (lower - delta).max(reserve_link))
        };

        Quote {
            posted_price: self.model.link(link_price),
            link_price,
            lower_bound: lower,
            upper_bound: upper,
            reserve_link,
            kind,
        }
    }

    fn observe(&mut self, features: &Vector, quote: &Quote, accepted: bool) {
        let refine = match quote.kind {
            QuoteKind::Exploratory => true,
            // Conservative prices are forbidden from cutting (line 24);
            // flipping `cut_on_conservative` reproduces the Lemma-8 failure.
            QuoteKind::Conservative => self.config.cut_on_conservative,
            QuoteKind::CertainNoSale | QuoteKind::Baseline => false,
        };
        if !refine {
            return;
        }
        // Reuses the mapping computed by the matching `quote` call; only a
        // caller that observes with *different* features pays for a remap.
        self.refresh_scratch(features);
        let delta = self.config.delta;
        // The effective posted price of Algorithm 2: pretend we posted p + δ
        // on a rejection and p − δ on an acceptance, which keeps θ* inside the
        // knowledge set with probability ≥ 1 − 1/T.
        let outcome = if accepted {
            self.knowledge
                .cut_above(&self.mapped_scratch, quote.link_price - delta)
        } else {
            self.knowledge
                .cut_below(&self.mapped_scratch, quote.link_price + delta)
        };
        if outcome.is_updated() {
            self.cuts_applied += 1;
        }
    }

    fn memory_footprint_bytes(&self) -> usize {
        self.knowledge.memory_footprint_bytes()
    }
}

impl<M: MarketValueModel> ContextualPricing<M, Ellipsoid> {
    /// Creates the paper's mechanism: the initial knowledge set is the ball
    /// of radius `config.initial_radius` centred at the origin.
    #[must_use]
    pub fn new(model: M, config: PricingConfig) -> Self {
        let knowledge = Ellipsoid::ball(model.mapped_dim(), config.initial_radius);
        Self::with_knowledge(model, knowledge, config)
    }

    /// Creates the mechanism with the initial knowledge set enclosing the box
    /// `[lowerᵢ, upperᵢ]ⁿ` (the paper's `K₁`).
    ///
    /// # Panics
    /// Panics when the box dimension does not match the model.
    #[must_use]
    pub fn with_initial_box(model: M, config: PricingConfig, lower: &[f64], upper: &[f64]) -> Self {
        let knowledge = Ellipsoid::enclosing_box(lower, upper);
        Self::with_knowledge(model, knowledge, config)
    }
}

impl<M: MarketValueModel> ContextualPricing<M, Polytope> {
    /// Creates the exact-polytope variant with the symmetric box
    /// `[−R, R]ⁿ` as the initial knowledge set.
    #[must_use]
    pub fn exact(model: M, config: PricingConfig) -> Self {
        let knowledge = Polytope::symmetric_box(model.mapped_dim(), config.initial_radius);
        Self::with_knowledge(model, knowledge, config)
    }
}

impl ContextualPricing<LinearModel, Interval> {
    /// Creates the one-dimensional bisection variant over the interval
    /// `[−R, R]` (Theorem 3).
    #[must_use]
    pub fn one_dimensional(config: PricingConfig) -> Self {
        let knowledge = Interval::new(-config.initial_radius, config.initial_radius);
        Self::with_knowledge(LinearModel::new(1), knowledge, config)
    }

    /// Creates the one-dimensional variant over an explicit interval.
    #[must_use]
    pub fn over_interval(interval: Interval, config: PricingConfig) -> Self {
        Self::with_knowledge(LinearModel::new(1), interval, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearModel, LogLinearModel};

    fn linear_mech(
        dim: usize,
        radius: f64,
        horizon: usize,
        use_reserve: bool,
        delta: f64,
    ) -> EllipsoidPricing<LinearModel> {
        let config = PricingConfig::new(radius, horizon)
            .with_reserve(use_reserve)
            .with_uncertainty(delta);
        EllipsoidPricing::new(LinearModel::new(dim), config)
    }

    #[test]
    fn exploratory_price_is_midpoint_without_reserve() {
        let mut mech = linear_mech(3, 2.0, 1000, false, 0.0);
        let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
        let quote = mech.quote(&x, 0.5);
        assert_eq!(quote.kind, QuoteKind::Exploratory);
        // The initial ball is symmetric, so the midpoint is 0 regardless of
        // the reserve (which is ignored by the pure version).
        assert!((quote.link_price - 0.0).abs() < 1e-12);
        assert!((quote.posted_price - 0.0).abs() < 1e-12);
        assert_eq!(mech.exploratory_rounds(), 1);
    }

    #[test]
    fn reserve_lifts_the_exploratory_price() {
        let mut mech = linear_mech(3, 2.0, 1000, true, 0.0);
        let x = Vector::from_slice(&[1.0, 0.0, 0.0]);
        let quote = mech.quote(&x, 0.5);
        assert_eq!(quote.kind, QuoteKind::Exploratory);
        // Midpoint is 0 < reserve 0.5, so the reserve is posted.
        assert!((quote.posted_price - 0.5).abs() < 1e-12);
    }

    #[test]
    fn certain_no_sale_when_reserve_exceeds_upper_bound() {
        let mut mech = linear_mech(2, 1.0, 1000, true, 0.0);
        let x = Vector::from_slice(&[1.0, 0.0]);
        // Upper bound of the unit ball along x is 1; reserve 5 ≥ 1.
        let quote = mech.quote(&x, 5.0);
        assert_eq!(quote.kind, QuoteKind::CertainNoSale);
        assert_eq!(mech.certain_no_sale_rounds(), 1);
        // Feedback after a certain no-sale never mutates the knowledge set.
        let before = mech.knowledge().clone();
        mech.observe(&x, &quote, false);
        assert_eq!(mech.knowledge(), &before);
    }

    #[test]
    fn rejection_and_acceptance_cut_opposite_sides() {
        let x = Vector::from_slice(&[1.0, 0.0]);
        let mut rejected = linear_mech(2, 1.0, 1000, false, 0.0);
        let q = rejected.quote(&x, 0.0);
        rejected.observe(&x, &q, false);
        let (_, hi) = rejected.support_bounds(&x);
        assert!(hi < 1.0 - 1e-6, "rejection must lower the upper bound");

        let mut accepted = linear_mech(2, 1.0, 1000, false, 0.0);
        let q = accepted.quote(&x, 0.0);
        accepted.observe(&x, &q, true);
        let (lo, _) = accepted.support_bounds(&x);
        assert!(lo > -1.0 + 1e-6, "acceptance must raise the lower bound");
        assert_eq!(accepted.cuts_applied(), 1);
    }

    #[test]
    fn conservative_price_never_cuts_by_default() {
        let mut mech = linear_mech(2, 1.0, 10, false, 0.0).into_narrow();
        let x = Vector::from_slice(&[1.0, 0.0]);
        let quote = mech.quote(&x, 0.0);
        assert_eq!(quote.kind, QuoteKind::Conservative);
        let before = mech.knowledge().clone();
        mech.observe(&x, &quote, true);
        assert_eq!(mech.knowledge(), &before);
        assert_eq!(mech.cuts_applied(), 0);
    }

    // Helper: force a mechanism into the conservative regime by raising ε
    // above any achievable width.
    trait IntoNarrow {
        fn into_narrow(self) -> Self;
    }
    impl IntoNarrow for EllipsoidPricing<LinearModel> {
        fn into_narrow(self) -> Self {
            let config = (*self.config()).with_epsilon(1e6);
            EllipsoidPricing::new(*self.model(), config)
        }
    }

    #[test]
    fn conservative_cut_ablation_switch() {
        // With a reserve at the centre of the knowledge set, the conservative
        // price is lifted to the midpoint (the Lemma-8 adversary's trick); the
        // ablation switch then lets its feedback cut the ellipsoid, which the
        // correct mechanism would never do.
        let config = PricingConfig::new(1.0, 10)
            .with_reserve(true)
            .with_epsilon(1e6)
            .with_conservative_cuts(true);
        let mut mech = EllipsoidPricing::new(LinearModel::new(2), config);
        let x = Vector::from_slice(&[1.0, 0.0]);
        let quote = mech.quote(&x, 0.0);
        assert_eq!(quote.kind, QuoteKind::Conservative);
        mech.observe(&x, &quote, true);
        assert_eq!(mech.cuts_applied(), 1);

        // The correct mechanism (no ablation switch) refuses the same cut.
        let mut correct =
            EllipsoidPricing::new(LinearModel::new(2), config.with_conservative_cuts(false));
        let quote = correct.quote(&x, 0.0);
        correct.observe(&x, &quote, true);
        assert_eq!(correct.cuts_applied(), 0);
    }

    #[test]
    fn uncertainty_buffer_softens_cuts_and_prices() {
        let x = Vector::from_slice(&[1.0, 0.0]);
        let delta = 0.1;
        let mut with_buffer = linear_mech(2, 1.0, 1000, false, delta);
        let mut without = linear_mech(2, 1.0, 1000, false, 0.0);

        let qb = with_buffer.quote(&x, 0.0);
        let q0 = without.quote(&x, 0.0);
        assert_eq!(
            qb.link_price, q0.link_price,
            "exploratory price is unchanged"
        );

        with_buffer.observe(&x, &qb, false);
        without.observe(&x, &q0, false);
        let (_, hi_buffer) = with_buffer.support_bounds(&x);
        let (_, hi_plain) = without.support_bounds(&x);
        assert!(
            hi_buffer > hi_plain,
            "the δ buffer must make the rejection cut shallower ({hi_buffer} vs {hi_plain})"
        );
    }

    #[test]
    fn conservative_price_subtracts_delta() {
        let config = PricingConfig::new(1.0, 10)
            .with_reserve(false)
            .with_uncertainty(0.05)
            .with_epsilon(1e6);
        let mut mech = EllipsoidPricing::new(LinearModel::new(2), config);
        let x = Vector::from_slice(&[1.0, 0.0]);
        let quote = mech.quote(&x, 0.0);
        assert_eq!(quote.kind, QuoteKind::Conservative);
        assert!((quote.link_price - (-1.0 - 0.05)).abs() < 1e-9);
    }

    #[test]
    fn bisection_converges_to_market_value_under_truthful_feedback() {
        // Repeatedly pricing the same product with truthful feedback should
        // drive the posted price to the market value (the sell-or-learn
        // property behind the regret bound).
        let theta_star = Vector::from_slice(&[0.7, -0.2, 0.4]);
        let x = Vector::from_slice(&[0.5, 0.5, 0.5]);
        let value = x.dot(&theta_star).unwrap();
        let mut mech = linear_mech(3, 1.5, 100_000, false, 0.0);
        for _ in 0..200 {
            let quote = mech.quote(&x, 0.0);
            let accepted = quote.posted_price <= value;
            mech.observe(&x, &quote, accepted);
        }
        let quote = mech.quote(&x, 0.0);
        assert!(
            (quote.posted_price - value).abs() < 0.05,
            "posted price {} should approach the market value {}",
            quote.posted_price,
            value
        );
    }

    #[test]
    fn log_linear_model_posts_market_space_prices() {
        let config = PricingConfig::new(2.0, 1000).with_reserve(true);
        let mut mech = EllipsoidPricing::new(LogLinearModel::new(2), config);
        let x = Vector::from_slice(&[0.5, 0.5]);
        // Reserve of 2.0 in market space is ln(2) in link space.
        let quote = mech.quote(&x, 2.0);
        assert!((quote.reserve_link - 2.0_f64.ln()).abs() < 1e-12);
        // The posted market price is the exponential of the link price.
        assert!((quote.posted_price - quote.link_price.exp()).abs() < 1e-9);
        assert!(quote.posted_price >= 2.0 - 1e-9, "reserve must be honoured");
    }

    #[test]
    fn one_dimensional_variant_uses_interval() {
        let config = PricingConfig::new(2.0, 100).with_reserve(true);
        let mut mech = OneDimPricing::one_dimensional(config);
        let x = Vector::from_slice(&[1.0]);
        let quote = mech.quote(&x, 1.0);
        // Midpoint of [−2, 2] is 0 < reserve 1 ⇒ reserve is posted.
        assert!((quote.posted_price - 1.0).abs() < 1e-12);
        mech.observe(&x, &quote, true);
        let (lo, _) = mech.support_bounds(&x);
        assert!(
            lo >= 1.0 - 1e-9,
            "acceptance at the reserve lifts the lower bound"
        );
    }

    #[test]
    fn exact_polytope_variant_matches_ellipsoid_decisions_early_on() {
        let config = PricingConfig::new(1.0, 1000).with_reserve(false);
        let mut ell = EllipsoidPricing::new(LinearModel::new(2), config);
        let mut poly = ExactPolytopePricing::exact(LinearModel::new(2), config);
        let x = Vector::from_slice(&[0.6, 0.8]);
        let qe = ell.quote(&x, 0.0);
        let qp = poly.quote(&x, 0.0);
        assert_eq!(qe.kind, QuoteKind::Exploratory);
        assert_eq!(qp.kind, QuoteKind::Exploratory);
        // Both start centred at the origin, so both midpoints are ≈ 0.
        assert!(qe.link_price.abs() < 1e-9);
        assert!(qp.link_price.abs() < 1e-9);
    }

    #[test]
    fn memory_footprint_counts_the_allocated_knowledge_buffers() {
        let n = 100;
        let mut mech = linear_mech(n, 1.0, 100_000, false, 0.0);
        // A fresh ball: the packed shape and the centre, nothing staged.
        let packed = n * (n + 1) / 2;
        assert_eq!(mech.memory_footprint_bytes(), (packed + n) * 8);
        // One warm-up quote and cut allocate the scratch: `A x` with its
        // tag slot (n + 1) and the staged centre (n).  The shape is cut in
        // place, so there is still exactly one packed buffer.
        let x = Vector::from_fn(n, |i| if i % 3 == 0 { 1.0 } else { 0.0 });
        let quote = mech.quote(&x, 0.0);
        assert_eq!(quote.kind, QuoteKind::Exploratory);
        mech.observe(&x, &quote, true);
        assert_eq!(mech.cuts_applied(), 1);
        let scratch = (n + 1) + n;
        assert_eq!(mech.memory_footprint_bytes(), (packed + n + scratch) * 8);
        // Later rounds reuse those buffers.
        let quote = mech.quote(&x, 0.0);
        mech.observe(&x, &quote, false);
        assert_eq!(mech.memory_footprint_bytes(), (packed + n + scratch) * 8);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn knowledge_dimension_mismatch_panics() {
        let config = PricingConfig::new(1.0, 10);
        let _ =
            ContextualPricing::with_knowledge(LinearModel::new(3), Ellipsoid::ball(2, 1.0), config);
    }

    #[test]
    fn name_reflects_version() {
        let m = linear_mech(2, 1.0, 10, true, 0.1);
        assert!(m.name().contains("with reserve price and uncertainty"));
    }
}
