//! Posted-price mechanisms (Algorithms 1, 1*, 2, 2* and the baselines).
//!
//! All mechanisms implement [`PostedPriceMechanism`]: given the raw feature
//! vector and the round's reserve price they return a [`Quote`], and after the
//! buyer's accept/reject decision they receive the feedback through
//! [`PostedPriceMechanism::observe`].  The simulation loop in
//! [`crate::simulation`] owns the ground-truth market value, so mechanisms can
//! never peek at it.

mod baseline;
mod config;
mod contextual;

pub use baseline::{FixedPriceBaseline, OraclePricing, ReservePriceBaseline};
pub use config::PricingConfig;
pub use contextual::{ContextualPricing, EllipsoidPricing, ExactPolytopePricing, OneDimPricing};

use pdm_linalg::Vector;

/// Which branch of the mechanism produced a quote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuoteKind {
    /// The exploratory price `max(q, (¯p + p̄)/2)`: riskier, but its feedback
    /// cuts the knowledge set (lines 12–21 of Algorithm 1).
    Exploratory,
    /// The conservative price `max(q, ¯p − δ)`: sells with the highest
    /// probability and never refines the knowledge set (lines 22–24).
    Conservative,
    /// The reserve price is above every possible market value
    /// (`q ≥ p̄ + δ`), so the round is a certain no-sale (lines 8–10).
    CertainNoSale,
    /// Produced by baselines that do not follow the explore/exploit split.
    Baseline,
}

/// A price offered to the buyer, together with the diagnostics the simulation
/// and benches report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quote {
    /// The price shown to the buyer, in market space.
    pub posted_price: f64,
    /// The same price in link space (`g⁻¹` of the posted price).
    pub link_price: f64,
    /// Lower support bound `¯p_t` of the knowledge set along `φ(x_t)`.
    pub lower_bound: f64,
    /// Upper support bound `p̄_t` of the knowledge set along `φ(x_t)`.
    pub upper_bound: f64,
    /// The reserve price translated into link space (−∞ when the mechanism
    /// ignores reserve prices).
    pub reserve_link: f64,
    /// Which branch produced the quote.
    pub kind: QuoteKind,
}

impl Quote {
    /// Width of the knowledge set along the query direction, the quantity
    /// compared against the exploration threshold ε.
    #[must_use]
    pub fn uncertainty_width(&self) -> f64 {
        self.upper_bound - self.lower_bound
    }
}

/// A posted-price mechanism: quotes a price for each arriving product and
/// learns from the buyer's accept/reject feedback.
pub trait PostedPriceMechanism {
    /// Human-readable name used in reports and figures (e.g. "with reserve
    /// price and uncertainty").
    fn name(&self) -> String;

    /// Quotes a price for a product with the given raw features and reserve
    /// price.
    fn quote(&mut self, features: &Vector, reserve_price: f64) -> Quote;

    /// Receives the buyer's decision for a previously issued quote.
    fn observe(&mut self, features: &Vector, quote: &Quote, accepted: bool);

    /// Approximate resident memory of the mechanism's learned state, in
    /// bytes (Section V-D reports the knowledge-set footprint).
    fn memory_footprint_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_width_helper() {
        let q = Quote {
            posted_price: 1.0,
            link_price: 1.0,
            lower_bound: 0.25,
            upper_bound: 1.75,
            reserve_link: 0.5,
            kind: QuoteKind::Exploratory,
        };
        assert!((q.uncertainty_width() - 1.5).abs() < 1e-12);
    }
}
