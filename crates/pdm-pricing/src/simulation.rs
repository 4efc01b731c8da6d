//! The online trading loop (Fig. 2 of the paper, seller side).
//!
//! A [`Simulation`] repeatedly pulls a [`Round`](crate::environment::Round)
//! from an [`Environment`], asks the mechanism for a
//! [`Quote`](crate::mechanism::Quote), resolves
//! acceptance against the hidden market value, feeds the decision back to the
//! mechanism, and accumulates regret.  It also measures per-round wall-clock
//! latency and the mechanism's knowledge-set memory footprint, which Section
//! V-D of the paper reports.

use crate::environment::Environment;
use crate::mechanism::PostedPriceMechanism;
use crate::regret::{RegretReport, RoundOutcome};
use crate::session::{PricingSession, StepOutcome};
use pdm_linalg::OnlineStats;

/// Options controlling what a simulation records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulationOptions {
    /// Approximate number of (log-spaced) checkpoints at which cumulative
    /// regret and the regret ratio are sampled for plotting.
    pub trace_points: usize,
    /// Whether to retain every per-round outcome (memory: one record per
    /// round).
    pub keep_full_trace: bool,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        Self {
            trace_points: 256,
            keep_full_trace: false,
        }
    }
}

/// A sampled point of the cumulative-regret curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Round index (1-based).
    pub round: usize,
    /// Cumulative regret after this round.
    pub cumulative_regret: f64,
    /// Cumulative market value after this round.
    pub cumulative_market_value: f64,
    /// Regret ratio after this round.
    pub regret_ratio: f64,
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// The mechanism's self-reported name.
    pub mechanism_name: String,
    /// Aggregate regret/revenue statistics (Table I, Fig. 4/5 endpoints).
    pub report: RegretReport,
    /// Log-spaced samples of the cumulative-regret curve (Fig. 4/5 series).
    pub trace: Vec<TraceSample>,
    /// Full per-round outcomes (empty unless requested).
    pub full_trace: Vec<RoundOutcome>,
    /// Distribution of per-round latency in microseconds (quote + observe).
    pub round_latency_micros: OnlineStats,
    /// Median per-round latency in microseconds (`NaN` when no round ran or
    /// the outcome was synthesised via [`SimulationOutcome::from_report`]).
    pub round_latency_p50_micros: f64,
    /// 99th-percentile per-round latency in microseconds (`NaN` when
    /// unavailable, like the p50).
    pub round_latency_p99_micros: f64,
    /// Approximate memory footprint of the mechanism's learned state.
    pub memory_footprint_bytes: usize,
}

impl SimulationOutcome {
    /// Wraps a bare [`RegretReport`] in an outcome with no trace and no
    /// latency measurements.
    ///
    /// Drivers that bypass [`Simulation`] (the Lemma-8 adversary plays the
    /// mechanism directly) use this so downstream aggregation can treat every
    /// experiment uniformly; the latency percentiles are `NaN` and the
    /// memory footprint zero.
    #[must_use]
    pub fn from_report(mechanism_name: String, report: RegretReport) -> Self {
        Self {
            mechanism_name,
            report,
            trace: Vec::new(),
            full_trace: Vec::new(),
            round_latency_micros: OnlineStats::new(),
            round_latency_p50_micros: f64::NAN,
            round_latency_p99_micros: f64::NAN,
            memory_footprint_bytes: 0,
        }
    }

    /// Cumulative regret at the end of the simulation.
    #[must_use]
    pub fn cumulative_regret(&self) -> f64 {
        self.report.cumulative_regret
    }

    /// Regret ratio at the end of the simulation.
    #[must_use]
    pub fn regret_ratio(&self) -> f64 {
        self.report.regret_ratio()
    }

    /// The trace sample closest to (but not beyond) the given round.
    #[must_use]
    pub fn trace_at(&self, round: usize) -> Option<&TraceSample> {
        self.trace.iter().rfind(|s| s.round <= round)
    }
}

/// Generates roughly `points` log-spaced checkpoints in `[1, horizon]`.
pub(crate) fn log_spaced_checkpoints(horizon: usize, points: usize) -> Vec<usize> {
    if horizon == 0 || points == 0 {
        return Vec::new();
    }
    let mut checkpoints = Vec::with_capacity(points + 2);
    checkpoints.push(1);
    let ln_t = (horizon as f64).ln();
    for i in 1..=points {
        let value = (ln_t * i as f64 / points as f64).exp().round() as usize;
        checkpoints.push(value.clamp(1, horizon));
    }
    checkpoints.push(horizon);
    checkpoints.sort_unstable();
    checkpoints.dedup();
    checkpoints
}

/// Couples an environment with a mechanism and runs the trading loop.
#[derive(Debug, Clone)]
pub struct Simulation<E, M> {
    environment: E,
    mechanism: M,
    options: SimulationOptions,
}

impl<E: Environment, M: PostedPriceMechanism> Simulation<E, M> {
    /// Creates a simulation with default recording options.
    #[must_use]
    pub fn new(environment: E, mechanism: M) -> Self {
        Self {
            environment,
            mechanism,
            options: SimulationOptions::default(),
        }
    }

    /// Overrides the recording options.
    #[must_use]
    pub fn with_options(mut self, options: SimulationOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the simulation to the environment's horizon.
    pub fn run<R: rand::Rng>(self, rng: &mut R) -> SimulationOutcome {
        self.run_with_state(rng).0
    }

    /// Runs the simulation and additionally hands back the mechanism and the
    /// environment, so callers can inspect learned state (e.g. the final
    /// ellipsoid) or continue the run.
    ///
    /// The loop body lives in [`PricingSession`] — this method is a thin
    /// client that pulls rounds from the environment, resolves acceptance
    /// against the hidden market value, and feeds the outcome back.  The
    /// sharded serving engine drives the *same* session type one query at a
    /// time, which is what makes service aggregates bit-comparable to serial
    /// simulations.
    pub fn run_with_state<R: rand::Rng>(mut self, rng: &mut R) -> (SimulationOutcome, M, E) {
        let horizon = self.environment.horizon();
        let mut session = PricingSession::new(self.mechanism, horizon, self.options);
        while let Some(round) = self.environment.next_round(rng) {
            let quote = session.step(&round.features, round.reserve_price);
            let accepted = quote.posted_price <= round.market_value;
            session.observe(StepOutcome::with_value(accepted, round.market_value));
        }
        let (outcome, mechanism) = session.finish();
        (outcome, mechanism, self.environment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{ReservePolicy, SyntheticLinearEnvironment};
    use crate::mechanism::{EllipsoidPricing, OraclePricing, PricingConfig, ReservePriceBaseline};
    use crate::model::LinearModel;
    use crate::regret::RegretTracker;
    use crate::uncertainty::NoiseModel;
    use pdm_ellipsoid::KnowledgeSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn environment(dim: usize, rounds: usize, seed: u64) -> SyntheticLinearEnvironment {
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticLinearEnvironment::builder(dim)
            .rounds(rounds)
            .noise(NoiseModel::None)
            .build(&mut rng)
    }

    #[test]
    fn checkpoints_are_sorted_unique_and_span_the_horizon() {
        let cps = log_spaced_checkpoints(100_000, 50);
        assert_eq!(*cps.first().unwrap(), 1);
        assert_eq!(*cps.last().unwrap(), 100_000);
        for pair in cps.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(log_spaced_checkpoints(0, 10).is_empty());
        assert!(log_spaced_checkpoints(10, 0).is_empty());
    }

    #[test]
    fn oracle_simulation_has_zero_regret() {
        let env = environment(5, 500, 21);
        let oracle = OraclePricing::new(LinearModel::new(5), env.theta_star().clone());
        let mut rng = StdRng::seed_from_u64(99);
        let outcome = Simulation::new(env, oracle).run(&mut rng);
        assert!(outcome.cumulative_regret() < 1e-9);
        assert_eq!(outcome.report.rounds, 500);
        // The oracle posts max(q, v), so it sells exactly the sellable rounds.
        let sellable = outcome.report.rounds - outcome.report.unsellable_rounds;
        assert_eq!(outcome.report.sales, sellable);
        assert!(outcome.report.acceptance_rate() > 0.9);
    }

    #[test]
    fn ellipsoid_mechanism_beats_reserve_baseline() {
        // Reproduces the qualitative claim of Fig. 5(a): the learning
        // mechanism ends with a much lower regret ratio than the risk-averse
        // baseline that always posts the reserve price.
        let rounds = 3_000;
        let env_mech = environment(5, rounds, 33);
        let env_base = environment(5, rounds, 33);

        let config = PricingConfig::for_environment(&env_mech, rounds).with_reserve(true);
        let mechanism = EllipsoidPricing::new(LinearModel::new(5), config);

        let mut rng = StdRng::seed_from_u64(1);
        let mech_outcome = Simulation::new(env_mech, mechanism).run(&mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let base_outcome = Simulation::new(env_base, ReservePriceBaseline::new()).run(&mut rng);

        assert!(
            mech_outcome.regret_ratio() < base_outcome.regret_ratio(),
            "ellipsoid {} must beat baseline {}",
            mech_outcome.regret_ratio(),
            base_outcome.regret_ratio()
        );
        assert!(mech_outcome.regret_ratio() < 0.25);
    }

    #[test]
    fn trace_is_monotone_in_rounds_and_regret() {
        let rounds = 2_000;
        let env = environment(10, rounds, 7);
        let config = PricingConfig::for_environment(&env, rounds);
        let mechanism = EllipsoidPricing::new(LinearModel::new(10), config);
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = Simulation::new(env, mechanism).run(&mut rng);
        assert!(!outcome.trace.is_empty());
        assert_eq!(outcome.trace.last().unwrap().round, rounds);
        for pair in outcome.trace.windows(2) {
            assert!(pair[0].round < pair[1].round);
            assert!(pair[0].cumulative_regret <= pair[1].cumulative_regret + 1e-9);
        }
        // trace_at returns the last sample not beyond the requested round.
        let sample = outcome.trace_at(rounds).unwrap();
        assert_eq!(sample.round, rounds);
        assert!(outcome.trace_at(0).is_none());
    }

    #[test]
    fn full_trace_is_kept_only_on_request() {
        let env = environment(3, 100, 2);
        let config = PricingConfig::for_environment(&env, 100);
        let mechanism = EllipsoidPricing::new(LinearModel::new(3), config);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = Simulation::new(env, mechanism)
            .with_options(SimulationOptions {
                trace_points: 16,
                keep_full_trace: true,
            })
            .run(&mut rng);
        assert_eq!(outcome.full_trace.len(), 100);
        assert!(outcome.round_latency_micros.count() == 100);
        assert!(outcome.memory_footprint_bytes > 0);
    }

    #[test]
    fn latency_percentiles_are_finite_and_ordered() {
        let env = environment(3, 200, 6);
        let config = PricingConfig::for_environment(&env, 200);
        let mechanism = EllipsoidPricing::new(LinearModel::new(3), config);
        let mut rng = StdRng::seed_from_u64(61);
        let outcome = Simulation::new(env, mechanism).run(&mut rng);
        assert!(outcome.round_latency_p50_micros.is_finite());
        assert!(outcome.round_latency_p99_micros.is_finite());
        assert!(outcome.round_latency_p50_micros >= 0.0);
        assert!(outcome.round_latency_p99_micros >= outcome.round_latency_p50_micros);
        assert!(outcome.round_latency_micros.max() >= outcome.round_latency_p99_micros);
    }

    #[test]
    fn from_report_synthesises_an_aggregation_friendly_outcome() {
        let mut tracker = RegretTracker::new(false);
        tracker.record(4.0, 1.0, 3.0);
        let outcome = SimulationOutcome::from_report("adversary".to_owned(), tracker.report());
        assert_eq!(outcome.mechanism_name, "adversary");
        assert_eq!(outcome.report.rounds, 1);
        assert!(outcome.trace.is_empty());
        assert!(outcome.round_latency_p50_micros.is_nan());
        assert!(outcome.round_latency_p99_micros.is_nan());
        assert_eq!(outcome.memory_footprint_bytes, 0);
    }

    #[test]
    fn run_with_state_returns_the_trained_mechanism() {
        let env = environment(4, 300, 8);
        let config = PricingConfig::for_environment(&env, 300);
        let mechanism = EllipsoidPricing::new(LinearModel::new(4), config);
        let mut rng = StdRng::seed_from_u64(4);
        let (outcome, mechanism, env) = Simulation::new(env, mechanism).run_with_state(&mut rng);
        assert_eq!(outcome.report.rounds, 300);
        // The trained mechanism should have applied at least one cut and the
        // true weights must still be inside its knowledge set.
        assert!(mechanism.cuts_applied() > 0);
        assert!(mechanism.knowledge().contains(env.theta_star()));
    }

    #[test]
    fn reserve_version_reduces_cold_start_regret() {
        // The core qualitative finding: with the reserve price as an extra
        // lower bound, early-round cumulative regret is no larger than the
        // pure version's (cold-start mitigation).
        let rounds = 2_000;
        let dim = 10;
        let env_pure = environment(dim, rounds, 55);
        let env_reserve = environment(dim, rounds, 55);

        let config = PricingConfig::for_environment(&env_pure, rounds);
        let pure = EllipsoidPricing::new(LinearModel::new(dim), config.with_reserve(false));
        let with_reserve = EllipsoidPricing::new(LinearModel::new(dim), config.with_reserve(true));

        let mut rng = StdRng::seed_from_u64(9);
        let pure_outcome = Simulation::new(env_pure, pure).run(&mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let reserve_outcome = Simulation::new(env_reserve, with_reserve).run(&mut rng);

        assert!(
            reserve_outcome.cumulative_regret() <= pure_outcome.cumulative_regret() * 1.05,
            "reserve version ({}) should not exceed the pure version ({})",
            reserve_outcome.cumulative_regret(),
            pure_outcome.cumulative_regret()
        );
    }

    #[test]
    fn environment_without_reserve_still_simulates() {
        let mut rng = StdRng::seed_from_u64(77);
        let env = SyntheticLinearEnvironment::builder(3)
            .rounds(200)
            .without_reserve()
            .build(&mut rng);
        assert!(matches!(
            // Internal check: the builder really disabled the reserve.
            {
                let mut env = env.clone();
                let r = env.next_round(&mut rng).unwrap();
                if r.reserve_price == 0.0 {
                    ReservePolicy::None
                } else {
                    ReservePolicy::SumOfFeatures
                }
            },
            ReservePolicy::None
        ));
        let config = PricingConfig::for_environment(&env, 200).with_reserve(false);
        let mechanism = EllipsoidPricing::new(LinearModel::new(3), config);
        let outcome = Simulation::new(env, mechanism).run(&mut rng);
        assert_eq!(outcome.report.rounds, 200);
    }
}
