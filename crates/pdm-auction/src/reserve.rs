//! The non-session reserve policies of the grid: static, and the empirical
//! data-driven setter.
//!
//! The trait itself ([`ReserveSetter`]) and the bridge that turns a
//! [`pdm_pricing::session::PricingSession`] into a learned policy live in
//! `pdm_pricing::reserve`; this module adds the two policies that need no
//! pricing mechanism:
//!
//! * [`StaticReserve`] — a fixed mark-up over the round's floor.  With a
//!   zero mark-up this is the pure reserve-price-constraint auction (the
//!   seller never asks for more than the privacy compensation), the natural
//!   baseline the learned policies must beat.
//! * [`EmpiricalReserve`] — the data-driven policy in the spirit of the
//!   LP-based approximation of Derakhshan–Golrezaei–Paes Leme: among the
//!   candidate reserves that matter (the historical top bids, which are the
//!   only points where the clearing outcome changes), pick the one that
//!   maximises the empirical objective over a sliding window of observed
//!   rounds.  The objective is revenue, optionally blended with welfare.

use crate::auction::clear_second_price;
use pdm_pricing::reserve::{ReserveFeedback, ReserveSetter};
use std::collections::VecDeque;

pub use pdm_pricing::reserve::{ReserveFeedback as Feedback, ReserveSetter as Setter};

/// A fixed mark-up over the round's floor: `reserve = floor + markup`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticReserve {
    markup: f64,
}

impl StaticReserve {
    /// A static policy adding `markup` (clamped at 0) to every floor.
    #[must_use]
    pub fn new(markup: f64) -> Self {
        Self {
            markup: markup.max(0.0),
        }
    }

    /// The pure reserve-constraint policy: quote exactly the floor.
    #[must_use]
    pub fn at_floor() -> Self {
        Self::new(0.0)
    }

    /// The configured mark-up.
    #[must_use]
    pub fn markup(&self) -> f64 {
        self.markup
    }
}

impl ReserveSetter for StaticReserve {
    fn name(&self) -> String {
        if self.markup == 0.0 {
            "static reserve (floor)".to_owned()
        } else {
            format!("static reserve (floor + {})", self.markup)
        }
    }

    fn reserve(&mut self, _features: &pdm_linalg::Vector, floor: f64) -> f64 {
        floor + self.markup
    }

    fn observe(&mut self, _feedback: ReserveFeedback) {}
}

/// Configuration of the [`EmpiricalReserve`] policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalConfig {
    /// Sliding window of observed `(top, second)` bid pairs the grid search
    /// runs over; memory and refit cost are `O(window)` and `O(window²)`.
    pub window: usize,
    /// Weight of the welfare term in the objective: a candidate reserve `r`
    /// scores `Σ 1[top ≥ r]·(max(second, r) + welfare_weight · top)` over
    /// the window.  Zero (the default) is the pure revenue objective; a
    /// positive weight trades reserve aggressiveness for allocation.
    pub welfare_weight: f64,
}

impl Default for EmpiricalConfig {
    fn default() -> Self {
        Self {
            window: 64,
            welfare_weight: 0.0,
        }
    }
}

/// The empirical data-driven reserve: a grid search over historical top
/// bids, refit after every observed round.
///
/// The policy is feature-blind *within* a tenant — its personalisation is
/// per market (one setter per tenant/owner, each converging to its own bid
/// landscape), which is the unit the personalized-reserve literature
/// optimises.  It needs uncensored feedback to learn: rounds whose
/// [`ReserveFeedback::top_bid`] is `None` update nothing (the quoted
/// reserve still applies).
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalReserve {
    config: EmpiricalConfig,
    /// Observed `(top, second)` pairs, oldest first; `second` is 0 for
    /// single-bidder rounds (bidding below zero is dominated).
    history: VecDeque<(f64, f64)>,
    /// The current fitted mark-up over the floor (0 until the first refit).
    fitted: f64,
}

impl EmpiricalReserve {
    /// A fresh policy with the given configuration.
    ///
    /// # Panics
    /// Panics when the window is zero.
    #[must_use]
    pub fn new(config: EmpiricalConfig) -> Self {
        assert!(config.window > 0, "empirical window must be positive");
        Self {
            config,
            // The history grows on demand: the window is a bound, not an
            // allocation.
            history: VecDeque::new(),
            fitted: 0.0,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> EmpiricalConfig {
        self.config
    }

    /// The currently fitted reserve level (before the per-round floor
    /// clamp).
    #[must_use]
    pub fn fitted(&self) -> f64 {
        self.fitted
    }

    /// The retained `(top, second)` history, oldest first — the snapshot
    /// writer's view of the learned state.
    pub fn history(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.history.iter().copied()
    }

    /// Rebuilds a policy from persisted parts (the snapshot-restore path).
    /// History beyond the window keeps only the most recent entries; the
    /// fitted level is re-derived from the history rather than trusted, so
    /// a restored policy always agrees with its own refit.
    #[must_use]
    pub fn from_history(config: EmpiricalConfig, history: &[(f64, f64)]) -> Self {
        let mut policy = Self::new(config);
        let start = history.len().saturating_sub(config.window);
        policy.history.extend(history[start..].iter().copied());
        policy.refit();
        policy
    }

    /// Empirical objective of a candidate reserve over the window.
    fn score(&self, candidate: f64) -> f64 {
        let mut total = 0.0;
        for &(top, second) in &self.history {
            let cleared = clear_second_price(&[top, second], candidate);
            total += cleared.revenue() + self.config.welfare_weight * cleared.welfare();
        }
        total
    }

    /// Grid search over the candidate set: 0 (never bind above the floor)
    /// plus every retained top bid.  Ties pick the **lowest** reserve, so
    /// the policy never binds without empirical evidence that binding pays.
    fn refit(&mut self) {
        let mut best_reserve = 0.0;
        let mut best_score = self.score(0.0);
        for index in 0..self.history.len() {
            let candidate = self.history[index].0;
            let score = self.score(candidate);
            if score > best_score || (score == best_score && candidate < best_reserve) {
                best_score = score;
                best_reserve = candidate;
            }
        }
        self.fitted = best_reserve;
    }
}

impl ReserveSetter for EmpiricalReserve {
    fn name(&self) -> String {
        format!("empirical reserve (window {})", self.config.window)
    }

    fn reserve(&mut self, _features: &pdm_linalg::Vector, floor: f64) -> f64 {
        self.fitted.max(floor)
    }

    fn observe(&mut self, feedback: ReserveFeedback) {
        let Some(top) = feedback.top_bid else {
            return; // censored round: nothing to learn from
        };
        let second = feedback.second_bid.unwrap_or(0.0).max(0.0);
        if self.history.len() == self.config.window {
            self.history.pop_front();
        }
        self.history.push_back((top, second));
        self.refit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::Vector;

    fn x() -> Vector {
        Vector::from_slice(&[1.0])
    }

    fn observe_pair(policy: &mut EmpiricalReserve, top: f64, second: f64) {
        policy.observe(ReserveFeedback {
            sold: true,
            reserve: 0.0,
            top_bid: Some(top),
            second_bid: Some(second),
        });
    }

    #[test]
    fn static_reserve_is_the_floor_plus_markup() {
        let mut floor_only = StaticReserve::at_floor();
        assert_eq!(floor_only.reserve(&x(), 0.7), 0.7);
        assert_eq!(floor_only.markup(), 0.0);
        let mut marked_up = StaticReserve::new(0.3);
        assert_eq!(marked_up.reserve(&x(), 0.7), 1.0);
        assert!(StaticReserve::new(-1.0).markup() == 0.0);
        assert!(floor_only.name().contains("floor"));
        // Feedback is a no-op.
        floor_only.observe(ReserveFeedback::censored(true, 0.7));
        assert_eq!(floor_only.reserve(&x(), 0.7), 0.7);
    }

    #[test]
    fn empirical_reserve_starts_at_the_floor() {
        let mut policy = EmpiricalReserve::new(EmpiricalConfig::default());
        assert_eq!(policy.reserve(&x(), 0.4), 0.4);
        assert_eq!(policy.fitted(), 0.0);
    }

    #[test]
    fn empirical_reserve_learns_to_bind_when_binding_pays() {
        // Top bids near 1.0, second bids near 0.1: an unreserved auction
        // earns ~0.1/round, a reserve just under the top bids earns ~0.9.
        let mut policy = EmpiricalReserve::new(EmpiricalConfig::default());
        for i in 0..32 {
            observe_pair(&mut policy, 0.9 + 0.001 * f64::from(i), 0.1);
        }
        let fitted = policy.fitted();
        assert!(
            (0.9..=0.95).contains(&fitted),
            "fitted reserve {fitted} should sit at the bottom of the top-bid cluster"
        );
        // The fitted level dominates the floor when it is higher...
        assert_eq!(policy.reserve(&x(), 0.2), fitted);
        // ...and the floor wins when the constraint binds harder.
        assert_eq!(policy.reserve(&x(), 2.0), 2.0);
    }

    #[test]
    fn empirical_reserve_stays_at_zero_when_second_bids_carry_the_revenue() {
        // Second bids equal top bids: no reserve can earn more than the
        // second-price baseline, so the tie-break keeps the policy unbound.
        let mut policy = EmpiricalReserve::new(EmpiricalConfig::default());
        for i in 0..16 {
            let bid = 0.5 + 0.01 * f64::from(i);
            observe_pair(&mut policy, bid, bid);
        }
        assert_eq!(policy.fitted(), 0.0);
    }

    #[test]
    fn welfare_weight_softens_the_reserve() {
        let fit = |welfare_weight: f64| {
            let mut policy = EmpiricalReserve::new(EmpiricalConfig {
                window: 64,
                welfare_weight,
            });
            // A mixed landscape: half the rounds have a weak top bid that a
            // binding reserve would turn into a no-sale.
            for i in 0..16 {
                observe_pair(&mut policy, 1.0 + 0.002 * f64::from(i), 0.1);
                observe_pair(&mut policy, 0.4 + 0.002 * f64::from(i), 0.1);
            }
            policy.fitted()
        };
        let aggressive = fit(0.0);
        let softened = fit(5.0);
        assert!(
            aggressive >= 1.0,
            "revenue-only fit should bind at the strong cluster ({aggressive})"
        );
        assert!(
            softened < 0.5,
            "the welfare term must retreat to a reserve that loses no sale \
             (revenue-only {aggressive}, blended {softened})"
        );
    }

    #[test]
    fn window_is_bounded_and_censored_rounds_teach_nothing() {
        let mut policy = EmpiricalReserve::new(EmpiricalConfig {
            window: 4,
            welfare_weight: 0.0,
        });
        for _ in 0..10 {
            observe_pair(&mut policy, 1.0, 0.2);
        }
        assert_eq!(policy.history().count(), 4);
        let before = policy.clone();
        policy.observe(ReserveFeedback::censored(false, 0.9));
        assert_eq!(policy, before);
    }

    #[test]
    fn a_huge_window_allocates_only_what_it_observes() {
        let config = EmpiricalConfig {
            window: usize::MAX / 2,
            welfare_weight: 0.0,
        };
        let mut policy = EmpiricalReserve::new(config);
        for _ in 0..3 {
            observe_pair(&mut policy, 1.0, 0.2);
        }
        assert_eq!(policy.history().count(), 3);
        assert_eq!(policy.fitted(), 1.0);
        let saved: Vec<(f64, f64)> = policy.history().collect();
        assert_eq!(EmpiricalReserve::from_history(config, &saved), policy);
    }

    #[test]
    fn from_history_round_trips_and_truncates() {
        let mut policy = EmpiricalReserve::new(EmpiricalConfig {
            window: 8,
            welfare_weight: 0.0,
        });
        for i in 0..12 {
            observe_pair(&mut policy, 0.8 + 0.01 * f64::from(i), 0.3);
        }
        let saved: Vec<(f64, f64)> = policy.history().collect();
        let restored = EmpiricalReserve::from_history(policy.config(), &saved);
        assert_eq!(restored, policy);
        // Oversized persisted history keeps only the most recent window.
        let mut oversized = vec![(9.0, 8.0); 20];
        oversized.extend_from_slice(&saved);
        let truncated = EmpiricalReserve::from_history(policy.config(), &oversized);
        assert_eq!(truncated, policy);
    }
}
