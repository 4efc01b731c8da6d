//! The re-entrant pricing session: the paper's trading loop, one round at a
//! time.
//!
//! [`Simulation`](crate::simulation::Simulation) owns the whole loop — it
//! pulls rounds from an environment until the horizon is exhausted.  A
//! serving system cannot work that way: queries arrive from the outside, one
//! at a time, interleaved across thousands of tenants.  [`PricingSession`] is
//! the loop body extracted into a drivable object:
//!
//! 1. [`PricingSession::step`] quotes a price for one arriving query, and
//! 2. [`PricingSession::observe`] feeds back the buyer's accept/reject
//!    decision (plus the ground-truth market value, when the driver knows
//!    it), closing the round.
//!
//! `Simulation` is now a thin client of this type, so the serial simulations
//! and the sharded `pdm-service` engine execute *bit-identical* mechanism
//! arithmetic — the property the `bench serve` workload verifies end to end.
//!
//! The session also owns the scratch state of the hot loop: the features of
//! the in-flight round live in a long-lived buffer that is overwritten each
//! round instead of cloned, and per-round latency is accumulated without
//! per-round allocation.

use crate::mechanism::{PostedPriceMechanism, Quote};
use crate::regret::RegretTracker;
use crate::simulation::{
    log_spaced_checkpoints, SimulationOptions, SimulationOutcome, TraceSample,
};
use pdm_linalg::{OnlineStats, SampleWindow, Vector};
use std::time::Instant;

/// Maximum latency samples a session retains for the percentile trace.  A
/// session "keeps working past the horizon", so an uncapped trace would grow
/// one `f64` per round forever; beyond this many samples the trace is a
/// sliding window and the reported p50/p99 cover the most recent
/// `LATENCY_TRACE_CAP` rounds (the streaming mean/min/max stay all-time).
/// The cap exceeds the paper's largest full-scale horizon (10⁵ rounds), so
/// every simulation percentile still covers its whole run.
const LATENCY_TRACE_CAP: usize = 131_072;

/// The buyer-side outcome of one priced round, reported to
/// [`PricingSession::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Whether the buyer accepted the posted price.
    pub accepted: bool,
    /// The ground-truth market value, when the driver knows it (simulations,
    /// replay workloads).  `None` for production feedback, where only the
    /// accept/reject bit exists; regret is then not accounted and the
    /// session's regret *proxy* (cumulative quote uncertainty width) is the
    /// only learning-progress signal.
    pub market_value: Option<f64>,
}

impl StepOutcome {
    /// An outcome with ground truth: full regret accounting.
    #[must_use]
    pub fn with_value(accepted: bool, market_value: f64) -> Self {
        Self {
            accepted,
            market_value: Some(market_value),
        }
    }

    /// A production-style outcome: only the accept/reject bit.
    #[must_use]
    pub fn accept_only(accepted: bool) -> Self {
        Self {
            accepted,
            market_value: None,
        }
    }
}

/// What [`PricingSession::observe`] reports about the round it just closed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedRound {
    /// 1-based count of closed rounds in this session.
    pub round: u64,
    /// Whether the buyer accepted.
    pub accepted: bool,
    /// The price that was posted.
    pub posted_price: f64,
    /// Revenue earned this round (`posted_price` on a sale, zero otherwise).
    pub revenue: f64,
    /// Exact single-round regret, when the outcome carried a market value.
    pub regret: Option<f64>,
    /// Width of the knowledge set along the query direction when the quote
    /// was issued — the regret *proxy* available without ground truth.
    pub uncertainty_width: f64,
}

/// A round that has been quoted but not yet observed.
#[derive(Debug, Clone)]
struct PendingStep {
    quote: Quote,
    reserve_price: f64,
    /// When the quote was issued; `None` when latency tracking is disabled
    /// (serving sessions skip the clock read on the hot path entirely).
    started: Option<Instant>,
}

/// A drivable pricing session: one mechanism, one regret ledger, stepped one
/// query at a time.
///
/// The session is *re-entrant* in the serving sense: every call to
/// [`PricingSession::step`] opens a round and every call to
/// [`PricingSession::observe`] closes it, so a driver can hold thousands of
/// sessions and interleave their rounds freely.  A `step` issued while a
/// round is still open abandons the open round (counted in
/// [`PricingSession::abandoned_rounds`]) rather than panicking — a serving
/// engine must survive clients that never report back.
#[derive(Debug, Clone)]
pub struct PricingSession<M> {
    mechanism: M,
    options: SimulationOptions,
    tracker: RegretTracker,
    checkpoints: Vec<usize>,
    next_checkpoint: usize,
    trace: Vec<TraceSample>,
    latency: OnlineStats,
    latency_trace: SampleWindow,
    track_latency: bool,
    pending: Option<PendingStep>,
    pending_features: Vector,
    rounds_closed: u64,
    abandoned_rounds: u64,
    sales: u64,
    revenue: f64,
    width_sum: f64,
}

impl<M: PostedPriceMechanism> PricingSession<M> {
    /// Creates a session around a mechanism.
    ///
    /// `horizon` is a hint for the regret-trace checkpoints (the session
    /// keeps working past it); `options` control trace recording exactly as
    /// they do for [`Simulation`](crate::simulation::Simulation).
    #[must_use]
    pub fn new(mechanism: M, horizon: usize, options: SimulationOptions) -> Self {
        let checkpoints = log_spaced_checkpoints(horizon, options.trace_points);
        Self {
            mechanism,
            options,
            tracker: RegretTracker::new(options.keep_full_trace),
            trace: Vec::with_capacity(checkpoints.len()),
            checkpoints,
            next_checkpoint: 0,
            latency: OnlineStats::new(),
            latency_trace: SampleWindow::new(LATENCY_TRACE_CAP),
            track_latency: true,
            pending: None,
            pending_features: Vector::zeros(0),
            rounds_closed: 0,
            abandoned_rounds: 0,
            sales: 0,
            revenue: 0.0,
            width_sum: 0.0,
        }
    }

    /// Disables the per-round latency trace (the service measures service
    /// latency per shard instead; the step→observe wall-clock gap would
    /// measure the *driver's* round trip, not the mechanism).
    #[must_use]
    pub fn without_latency_tracking(mut self) -> Self {
        self.track_latency = false;
        self
    }

    /// Seeds the session with a previously captured regret ledger — the
    /// snapshot-restore path of `pdm-service`.  The tracker continues
    /// accumulating from the report bit-identically, and the session-level
    /// revenue/sales/round counters are rebuilt from it so the accessors
    /// stay consistent with [`PricingSession::tracker`].
    ///
    /// A report only covers rounds that carried ground-truth market values;
    /// a session that also served production (accept-only) rounds should
    /// follow up with [`PricingSession::restore_counters`] to reinstate the
    /// exact session-level totals.
    pub fn restore_ledger(&mut self, report: &crate::regret::RegretReport) {
        self.tracker = RegretTracker::from_report(report);
        self.rounds_closed = report.rounds as u64;
        self.sales = report.sales as u64;
        self.revenue = report.cumulative_revenue;
    }

    /// Restores the session-level counters captured alongside a persisted
    /// ledger.  These are wider than the regret report: production
    /// (accept-only) rounds carry no ground truth, so they count here —
    /// [`PricingSession::rounds_closed`], [`PricingSession::sales`],
    /// [`PricingSession::revenue`], [`PricingSession::regret_proxy`] — but
    /// not in the tracker.
    pub fn restore_counters(
        &mut self,
        rounds_closed: u64,
        sales: u64,
        revenue: f64,
        width_sum: f64,
    ) {
        self.rounds_closed = rounds_closed;
        self.sales = sales;
        self.revenue = revenue;
        self.width_sum = width_sum;
    }

    /// Quotes a price for one arriving query, opening a round.
    ///
    /// If a previous round is still open it is abandoned (no feedback, no
    /// regret accounting) and counted in
    /// [`PricingSession::abandoned_rounds`].
    pub fn step(&mut self, features: &Vector, reserve_price: f64) -> Quote {
        self.abandon_round();
        // pdm-lint: allow(no-ambient-clock) reason="optional latency trace for simulation figures; serving sessions run without_latency_tracking and never read the clock"
        let started = self.track_latency.then(Instant::now);
        let quote = self.mechanism.quote(features, reserve_price);
        self.pending_features.copy_from(features);
        self.pending = Some(PendingStep {
            quote,
            reserve_price,
            started,
        });
        quote
    }

    /// Quotes a price for a query whose sellable supply has been throttled:
    /// coordinates whose owners can no longer sell (e.g. their privacy
    /// budgets are exhausted) are zeroed before the mechanism prices the
    /// query, so the posted price reflects only the data that is actually
    /// for sale.
    ///
    /// Returns `None` — without opening a round or abandoning a pending one
    /// — when the mask retires every non-zero coordinate: nothing is left
    /// to sell, so there is nothing to quote.  Otherwise this is exactly
    /// [`PricingSession::step`] on the throttled vector.
    ///
    /// # Panics
    /// Panics when `active.len() != features.len()`.
    pub fn step_throttled(
        &mut self,
        features: &Vector,
        active: &[bool],
        reserve_price: f64,
    ) -> Option<Quote> {
        assert_eq!(
            active.len(),
            features.len(),
            "supply mask must cover every feature coordinate"
        );
        let mut throttled = features.clone();
        let mut sellable = false;
        for (coordinate, &keep) in throttled.as_mut_slice().iter_mut().zip(active) {
            if !keep {
                *coordinate = 0.0;
            } else if *coordinate != 0.0 {
                sellable = true;
            }
        }
        if !sellable {
            return None;
        }
        Some(self.step(&throttled, reserve_price))
    }

    /// Abandons the open round without feedback or regret accounting,
    /// counted in [`PricingSession::abandoned_rounds`]; a no-op when no
    /// round is open.  Callers that refuse a request after a quote was
    /// issued use this to drop the round state explicitly instead of
    /// leaving it for the next [`PricingSession::step`] to overwrite.
    pub fn abandon_round(&mut self) {
        if self.pending.take().is_some() {
            self.abandoned_rounds += 1;
        }
    }

    /// Closes the open round with the buyer's decision.
    ///
    /// Returns `None` when no round is open (the feedback is dropped).  When
    /// the outcome carries a market value, the session's regret ledger
    /// assumes the standard acceptance rule `p ≤ v` — the same rule the
    /// simulation loop applies.
    pub fn observe(&mut self, outcome: StepOutcome) -> Option<ObservedRound> {
        let pending = self.pending.take()?;
        self.mechanism
            .observe(&self.pending_features, &pending.quote, outcome.accepted);
        if let Some(started) = pending.started {
            let micros = started.elapsed().as_secs_f64() * 1e6;
            self.latency.push(micros);
            self.latency_trace.push(micros);
        }

        self.rounds_closed += 1;
        let round_revenue = if outcome.accepted {
            self.sales += 1;
            self.revenue += pending.quote.posted_price;
            pending.quote.posted_price
        } else {
            0.0
        };
        let width = pending.quote.uncertainty_width();
        self.width_sum += width;

        let regret = outcome.market_value.map(|value| {
            let record =
                self.tracker
                    .record(value, pending.reserve_price, pending.quote.posted_price);
            let t = self.tracker.rounds();
            while self.next_checkpoint < self.checkpoints.len()
                && self.checkpoints[self.next_checkpoint] <= t
            {
                if self.checkpoints[self.next_checkpoint] == t {
                    self.trace.push(TraceSample {
                        round: t,
                        cumulative_regret: self.tracker.cumulative_regret(),
                        cumulative_market_value: self.tracker.cumulative_market_value(),
                        regret_ratio: self.tracker.regret_ratio(),
                    });
                }
                self.next_checkpoint += 1;
            }
            record.regret
        });

        Some(ObservedRound {
            round: self.rounds_closed,
            accepted: outcome.accepted,
            posted_price: pending.quote.posted_price,
            revenue: round_revenue,
            regret,
            uncertainty_width: width,
        })
    }

    /// The mechanism being driven.
    #[must_use]
    pub fn mechanism(&self) -> &M {
        &self.mechanism
    }

    /// Approximate resident memory of this session: the mechanism's
    /// learned state (its [`PostedPriceMechanism::memory_footprint_bytes`]
    /// hook) plus
    /// the fixed-size session bookkeeping itself.  A serving layer that
    /// pages tenant sessions in and out reads this to budget its resident
    /// set and to report memory-per-tenant.
    #[must_use]
    pub fn memory_footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.mechanism.memory_footprint_bytes()
    }

    /// The regret ledger accumulated from outcomes that carried a market
    /// value.
    #[must_use]
    pub fn tracker(&self) -> &RegretTracker {
        &self.tracker
    }

    /// Number of rounds closed via [`PricingSession::observe`].
    #[must_use]
    pub fn rounds_closed(&self) -> u64 {
        self.rounds_closed
    }

    /// Number of rounds abandoned by a `step` issued over an open round.
    #[must_use]
    pub fn abandoned_rounds(&self) -> u64 {
        self.abandoned_rounds
    }

    /// Number of accepted quotes.
    #[must_use]
    pub fn sales(&self) -> u64 {
        self.sales
    }

    /// Cumulative revenue across closed rounds.
    #[must_use]
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// Cumulative quote uncertainty width — the regret proxy available
    /// without ground-truth market values (it shrinks as learning
    /// converges).
    #[must_use]
    pub fn regret_proxy(&self) -> f64 {
        self.width_sum
    }

    /// Whether a round is currently open (quoted but not observed).
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Recording options the session was created with.
    #[must_use]
    pub fn options(&self) -> SimulationOptions {
        self.options
    }

    /// Finalises the session into the same [`SimulationOutcome`] the
    /// monolithic loop produced, handing the trained mechanism back.
    #[must_use]
    pub fn finish(self) -> (SimulationOutcome, M) {
        let percentiles = self
            .latency_trace
            .quantiles(&[0.50, 0.99])
            .unwrap_or_else(|_| vec![f64::NAN, f64::NAN]);
        let outcome = SimulationOutcome {
            mechanism_name: self.mechanism.name(),
            report: self.tracker.report(),
            trace: self.trace,
            full_trace: self.tracker.trace().to_vec(),
            round_latency_micros: self.latency,
            round_latency_p50_micros: percentiles[0],
            round_latency_p99_micros: percentiles[1],
            memory_footprint_bytes: self.mechanism.memory_footprint_bytes(),
        };
        (outcome, self.mechanism)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{Environment, SyntheticLinearEnvironment};
    use crate::mechanism::{EllipsoidPricing, PricingConfig};
    use crate::model::LinearModel;
    use crate::uncertainty::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session(dim: usize, horizon: usize) -> PricingSession<EllipsoidPricing<LinearModel>> {
        let config = PricingConfig::new(2.0 * (dim as f64).sqrt(), horizon).with_reserve(true);
        PricingSession::new(
            EllipsoidPricing::new(LinearModel::new(dim), config),
            horizon,
            SimulationOptions::default(),
        )
    }

    #[test]
    fn step_then_observe_closes_a_round() {
        let mut s = session(3, 100);
        let x = Vector::from_slice(&[0.5, 0.5, 0.5]);
        let quote = s.step(&x, 0.2);
        assert!(s.has_pending());
        let record = s
            .observe(StepOutcome::with_value(quote.posted_price <= 1.0, 1.0))
            .expect("a round was open");
        assert!(!s.has_pending());
        assert_eq!(record.round, 1);
        assert_eq!(s.rounds_closed(), 1);
        assert_eq!(s.tracker().rounds(), 1);
        assert_eq!(record.posted_price, quote.posted_price);
        assert!(record.regret.is_some());
        assert!(record.uncertainty_width > 0.0);
    }

    #[test]
    fn throttled_step_prices_the_masked_vector() {
        // A fully-open mask is a plain step; a fully-throttled one declines
        // to quote without opening (or abandoning) anything.
        let mut a = session(3, 100);
        let mut b = session(3, 100);
        let x = Vector::from_slice(&[0.5, 0.5, 0.5]);
        let open = a.step_throttled(&x, &[true, true, true], 0.2).unwrap();
        assert_eq!(
            open.posted_price.to_bits(),
            b.step(&x, 0.2).posted_price.to_bits()
        );
        a.observe(StepOutcome::accept_only(true));
        assert!(a.step_throttled(&x, &[false, false, false], 0.2).is_none());
        assert!(!a.has_pending());
        assert_eq!(a.abandoned_rounds(), 0);

        // A partial mask prices exactly the zeroed vector.
        let masked = a
            .step_throttled(&x, &[true, false, true], 0.2)
            .expect("two coordinates still sell");
        b.observe(StepOutcome::accept_only(true));
        let by_hand = b.step(&Vector::from_slice(&[0.5, 0.0, 0.5]), 0.2);
        assert_eq!(
            masked.posted_price.to_bits(),
            by_hand.posted_price.to_bits()
        );

        // A mask that keeps only zero coordinates has nothing to sell.
        let mut c = session(3, 100);
        let sparse = Vector::from_slice(&[0.0, 0.7, 0.0]);
        assert!(c
            .step_throttled(&sparse, &[true, false, true], 0.1)
            .is_none());
        assert_eq!(c.rounds_closed(), 0);
    }

    #[test]
    fn observe_without_step_is_dropped() {
        let mut s = session(2, 10);
        assert!(s.observe(StepOutcome::accept_only(true)).is_none());
        assert_eq!(s.rounds_closed(), 0);
    }

    #[test]
    fn restepping_abandons_the_open_round() {
        let mut s = session(2, 10);
        let x = Vector::from_slice(&[1.0, 0.0]);
        let _ = s.step(&x, 0.0);
        let _ = s.step(&x, 0.0);
        assert_eq!(s.abandoned_rounds(), 1);
        assert!(s.observe(StepOutcome::accept_only(false)).is_some());
        assert_eq!(s.rounds_closed(), 1);
        // The abandoned round never reached the tracker.
        assert_eq!(s.tracker().rounds(), 0);
    }

    #[test]
    fn accept_only_outcomes_track_revenue_but_not_regret() {
        let mut s = session(2, 50);
        let x = Vector::from_slice(&[0.6, 0.8]);
        let quote = s.step(&x, 0.1);
        let record = s.observe(StepOutcome::accept_only(true)).unwrap();
        assert!(record.regret.is_none());
        assert_eq!(record.revenue, quote.posted_price);
        assert_eq!(s.sales(), 1);
        assert_eq!(s.revenue(), quote.posted_price);
        assert!(s.regret_proxy() > 0.0);
        // No ground truth ⇒ the regret ledger stays empty.
        assert_eq!(s.tracker().rounds(), 0);
        let (outcome, _mechanism) = s.finish();
        assert_eq!(outcome.report.rounds, 0);
    }

    #[test]
    fn session_driven_loop_matches_simulation_bit_for_bit() {
        // The load-bearing property: driving the session round by round
        // reproduces the monolithic Simulation exactly, because Simulation
        // *is* a thin client of the session.
        let dim = 4;
        let rounds = 400;
        let build_env = || {
            let mut rng = StdRng::seed_from_u64(42);
            SyntheticLinearEnvironment::builder(dim)
                .rounds(rounds)
                .noise(NoiseModel::Gaussian { std_dev: 0.01 })
                .build(&mut rng)
        };
        let config = PricingConfig::for_environment(&build_env(), rounds).with_reserve(true);

        // Hand-driven session.
        let mut env = build_env();
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = PricingSession::new(
            EllipsoidPricing::new(LinearModel::new(dim), config),
            rounds,
            SimulationOptions::default(),
        );
        while let Some(round) = env.next_round(&mut rng) {
            let quote = s.step(&round.features, round.reserve_price);
            let accepted = quote.posted_price <= round.market_value;
            s.observe(StepOutcome::with_value(accepted, round.market_value));
        }
        let (by_hand, _mechanism) = s.finish();

        // The packaged loop.
        let mut rng = StdRng::seed_from_u64(7);
        let mechanism = EllipsoidPricing::new(LinearModel::new(dim), config);
        let by_simulation =
            crate::simulation::Simulation::new(build_env(), mechanism).run(&mut rng);

        assert_eq!(
            by_hand.report.cumulative_regret,
            by_simulation.report.cumulative_regret
        );
        assert_eq!(
            by_hand.report.cumulative_revenue,
            by_simulation.report.cumulative_revenue
        );
        assert_eq!(by_hand.report.sales, by_simulation.report.sales);
        assert_eq!(by_hand.trace.len(), by_simulation.trace.len());
        for (a, b) in by_hand.trace.iter().zip(&by_simulation.trace) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.cumulative_regret, b.cumulative_regret);
        }
    }

    #[test]
    fn latency_trace_is_bounded_for_long_lived_sessions() {
        let mut s = session(2, 10);
        let x = Vector::from_slice(&[0.6, 0.8]);
        let rounds = LATENCY_TRACE_CAP + 50;
        for _ in 0..rounds {
            let _ = s.step(&x, 0.1);
            s.observe(StepOutcome::accept_only(false));
        }
        // The percentile trace capped out; the streaming summary saw all.
        assert_eq!(s.latency_trace.len(), LATENCY_TRACE_CAP);
        assert_eq!(s.latency.count(), rounds as u64);
        let (outcome, _m) = s.finish();
        assert!(outcome.round_latency_p50_micros.is_finite());
    }

    #[test]
    fn latency_tracking_can_be_disabled() {
        let mut s = session(2, 10).without_latency_tracking();
        let x = Vector::from_slice(&[1.0, 0.0]);
        let _ = s.step(&x, 0.0);
        s.observe(StepOutcome::with_value(false, 0.5));
        let (outcome, _m) = s.finish();
        assert_eq!(outcome.round_latency_micros.count(), 0);
        assert!(outcome.round_latency_p50_micros.is_nan());
        // The report itself is still complete.
        assert_eq!(outcome.report.rounds, 1);
    }
}
