//! The non-stationarity layer: drifting markets and drift-aware mechanisms.
//!
//! The paper's mechanism assumes one fixed weight vector `θ*` per data
//! query; a production personal-data market faces *drifting* valuations —
//! the regime where reserve/pricing policies must be re-tested (Paes Leme
//! et al.'s field guide to personalized reserves; Derakhshan et al.'s
//! data-driven reserve setting).  This module supplies both sides of that
//! stress test:
//!
//! * **Drifting markets.**  A [`DriftSchedule`] describes how the hidden
//!   weights move — [`DriftKind::PiecewiseJumps`] (stationary phases
//!   separated by abrupt re-draws), [`DriftKind::Rotation`] (a slow
//!   continuous rotation of `θ*` through markup space), and
//!   [`DriftKind::AdversarialShift`] (a single worst-case reversal that
//!   flips high-markup features to low exactly once).  [`DriftProcess`] is
//!   the seeded, deterministic evolution of a raw markup vector under a
//!   schedule; [`DriftingLinearEnvironment`] plugs it into the paper's
//!   Section V-A linear market, and `pdm-auction` reuses the same process
//!   to move bidder valuations.
//!
//! * **Drift-aware mechanisms.**  [`DriftAwarePricing`] wraps the paper's
//!   ellipsoid engine with a per-tenant [`DriftPolicy`]:
//!   [`DriftPolicy::Restart`] re-initialises the knowledge set to the prior
//!   ball when a windowed [`SurprisalDriftDetector`] on accept/reject
//!   surprisal fires, and [`DriftPolicy::Discounted`] inflates the
//!   ellipsoid a little every round (the forgetting-factor analogue of a
//!   sliding window) so old cuts decay and a moved `θ*` is re-admitted.
//!   [`DriftPolicy::Static`] delegates bit-for-bit to the wrapped
//!   mechanism, so stationary tenants pay nothing.
//!
//! The *surprisal* signal is feedback that contradicts the entire knowledge
//! set: a **rejected conservative** price (the set claimed the sale was
//! near-certain) or an **accepted certain-no-sale** quote (the set claimed
//! no value could reach the reserve).  Under the stationary model both are
//! `O(δ)`-probability events, so a handful inside a short window is strong
//! evidence that `θ*` moved.

use crate::environment::{Environment, ReservePolicy, Round};
use crate::mechanism::{EllipsoidPricing, PostedPriceMechanism, PricingConfig, Quote, QuoteKind};
use crate::model::{LinearModel, MarketValueModel};
use crate::uncertainty::NoiseModel;
use pdm_ellipsoid::Ellipsoid;
use pdm_linalg::{sampling, Vector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Lower end of the markup band fresh drift draws come from (matches the
/// Section V-A weight construction: per-feature revenue-to-cost ratios
/// spread around a common level).
const MARKUP_LO: f64 = 0.75;
/// Upper end of the markup band fresh drift draws come from.
const MARKUP_HI: f64 = 1.25;

/// Default surprisal window of the restart policy's drift detector.
pub const DEFAULT_DETECTOR_WINDOW: usize = 24;
/// Default firing threshold (surprises inside the window) of the detector.
pub const DEFAULT_DETECTOR_THRESHOLD: usize = 6;

/// How the hidden weights move over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftKind {
    /// Piecewise-stationary: every `period` rounds the markup vector jumps
    /// towards a fresh draw (`magnitude` 1 is a full re-draw, 0 is no
    /// drift).
    PiecewiseJumps {
        /// Rounds per stationary phase.
        period: u64,
        /// Blend weight of the fresh draw at each jump, clamped to `[0, 1]`.
        magnitude: f64,
    },
    /// Slow rotation: every round the markup vector moves `rate` of the way
    /// towards a seeded target; reached targets are re-drawn, so `θ*`
    /// wanders continuously through markup space.
    Rotation {
        /// Per-round blend rate towards the current target, in `[0, 1]`.
        rate: f64,
    },
    /// A single worst-case shift at `at_round`: the markup vector is
    /// reflected about its own mean, so the features the mechanism learned
    /// to price high become the cheap ones and vice versa.
    AdversarialShift {
        /// The (0-based) round count after which the shift applies.
        at_round: u64,
        /// Blend weight of the reflection, clamped to `[0, 1]`.
        magnitude: f64,
    },
}

impl DriftKind {
    /// Machine-readable kind name used in grid labels and the BENCH schema.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::PiecewiseJumps { .. } => "piecewise",
            DriftKind::Rotation { .. } => "rotation",
            DriftKind::AdversarialShift { .. } => "adversarial",
        }
    }

    /// The round count after which the first discrete shift has been
    /// applied (0 for the continuous rotation, whose drift starts
    /// immediately).  Benchmarks use this to split *post-shift* regret out
    /// of the cumulative total.
    #[must_use]
    pub fn first_shift_round(&self) -> u64 {
        match *self {
            DriftKind::PiecewiseJumps { period, .. } => period.max(1),
            DriftKind::Rotation { .. } => 0,
            DriftKind::AdversarialShift { at_round, .. } => at_round,
        }
    }
}

/// A drift kind plus the seed of its private randomness: the full,
/// reproducible description of one market's non-stationarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSchedule {
    /// How the weights move.
    pub kind: DriftKind,
    /// Seed of the drift's own RNG stream (jump targets, rotation targets).
    /// Independent of the feature/bidder streams, so two policies facing
    /// the same schedule see the exact same moving market.
    pub seed: u64,
}

/// The seeded, deterministic evolution of a raw markup vector under a
/// [`DriftSchedule`].
///
/// The process is scale-free: fresh draws are scaled to the current
/// vector's mean, so the same machinery drifts the pricing environment's
/// `θ*` (norm `√(2n)`) and the auction market's unit-norm value direction.
#[derive(Debug, Clone)]
pub struct DriftProcess {
    schedule: DriftSchedule,
    rng: StdRng,
    raw: Vector,
    target: Option<Vector>,
    rounds: u64,
    shifts: u64,
}

impl DriftProcess {
    /// Builds the process with its own seeded initial markup vector.
    #[must_use]
    pub fn new(schedule: DriftSchedule, dim: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(schedule.seed);
        let raw = sampling::uniform_vector(&mut rng, dim.max(1), MARKUP_LO, MARKUP_HI);
        Self {
            schedule,
            rng,
            raw,
            target: None,
            rounds: 0,
            shifts: 0,
        }
    }

    /// Builds the process around an externally drawn initial vector (the
    /// auction market keeps its legacy `θ` draw and drifts it from there).
    ///
    /// # Panics
    /// Panics when `raw` is empty.
    #[must_use]
    pub fn with_raw(schedule: DriftSchedule, raw: Vector) -> Self {
        assert!(!raw.is_empty(), "drift process needs at least one weight");
        Self {
            schedule,
            rng: StdRng::seed_from_u64(schedule.seed),
            raw,
            target: None,
            rounds: 0,
            shifts: 0,
        }
    }

    /// The schedule driving the process.
    #[must_use]
    pub fn schedule(&self) -> DriftSchedule {
        self.schedule
    }

    /// The current raw markup vector (strictly positive entries).
    #[must_use]
    pub fn raw(&self) -> &Vector {
        &self.raw
    }

    /// Rounds advanced so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Discrete shifts (jumps/reversals) applied so far.  Continuous
    /// rotation never counts here.
    #[must_use]
    pub fn shifts(&self) -> u64 {
        self.shifts
    }

    /// A fresh markup draw scaled to the current vector's mean, so drift
    /// moves the *direction* of the weights without inflating their scale.
    fn fresh_draw(&mut self) -> Vector {
        let mean = {
            let m = self.raw.mean();
            if m.is_finite() && m > 0.0 {
                m
            } else {
                1.0
            }
        };
        sampling::uniform_vector(&mut self.rng, self.raw.len(), MARKUP_LO, MARKUP_HI).scaled(mean)
    }

    /// Blends `towards` into the raw vector with weight `m ∈ [0, 1]`.
    fn blend(&mut self, towards: &Vector, m: f64) {
        let m = m.clamp(0.0, 1.0);
        for (slot, &t) in self.raw.as_mut_slice().iter_mut().zip(towards.iter()) {
            *slot = (1.0 - m) * *slot + m * t;
        }
    }

    /// Advances the process by one round, mutating the raw vector per the
    /// schedule.  Returns `true` when a *discrete* shift was applied this
    /// round (piecewise jump or the adversarial reversal).
    pub fn advance(&mut self) -> bool {
        let t = self.rounds;
        self.rounds += 1;
        match self.schedule.kind {
            DriftKind::PiecewiseJumps { period, magnitude } => {
                let period = period.max(1);
                if t > 0 && t.is_multiple_of(period) {
                    let fresh = self.fresh_draw();
                    self.blend(&fresh, magnitude);
                    self.shifts += 1;
                    return true;
                }
                false
            }
            DriftKind::Rotation { rate } => {
                let rate = rate.clamp(0.0, 1.0);
                if rate > 0.0 {
                    let need_target = match &self.target {
                        None => true,
                        Some(target) => {
                            let distance = target
                                .distance(&self.raw)
                                // pdm-lint: allow(no-unwrap-in-lib) reason="the target was (re)built with the raw dimension in ensure_target just above"
                                .expect("target shares the raw dimension");
                            distance < 0.05 * self.raw.norm().max(1e-12)
                        }
                    };
                    if need_target {
                        self.target = Some(self.fresh_draw());
                    }
                    // pdm-lint: allow(no-unwrap-in-lib) reason="ensure_target installed the target on the previous line"
                    let target = self.target.clone().expect("target was just ensured");
                    self.blend(&target, rate);
                }
                false
            }
            DriftKind::AdversarialShift {
                at_round,
                magnitude,
            } => {
                if t == at_round {
                    // Reflect every markup about the vector's own mean:
                    // high-value features become the cheap ones.  Scale-free
                    // and fully deterministic (no RNG draw).
                    let mean = self.raw.mean();
                    let floor = 0.05 * mean.max(1e-12);
                    let reflected = self.raw.map(|r| (2.0 * mean - r).max(floor));
                    self.blend(&reflected, magnitude);
                    self.shifts += 1;
                    return true;
                }
                false
            }
        }
    }
}

/// The Section V-A linear market with a drifting `θ*`.
///
/// Identical to the stationary [`SyntheticLinearEnvironment`] construction
/// — non-negative unit-norm features, positive markup weights rescaled to
/// `‖θ*‖ = √(2n)`, sum-of-features reserve — except that the markup vector
/// evolves per a [`DriftSchedule`] before every round.  The rescaling keeps
/// the broker prior `‖θ*‖ ≤ 2√n` valid through every shift, so the
/// *stationary* mechanism's assumptions fail only in the way drift is
/// supposed to make them fail: the knowledge set excludes the moved `θ*`.
///
/// [`SyntheticLinearEnvironment`]: crate::environment::SyntheticLinearEnvironment
#[derive(Debug, Clone)]
pub struct DriftingLinearEnvironment {
    model: LinearModel,
    process: DriftProcess,
    theta_star: Vector,
    horizon: usize,
    produced: usize,
    noise: NoiseModel,
    reserve_policy: ReservePolicy,
}

impl DriftingLinearEnvironment {
    /// Creates the drifting market for `dim` features over `horizon`
    /// rounds.
    #[must_use]
    pub fn new(dim: usize, horizon: usize, schedule: DriftSchedule, noise: NoiseModel) -> Self {
        let dim = dim.max(1);
        let process = DriftProcess::new(schedule, dim);
        let mut env = Self {
            model: LinearModel::new(dim),
            process,
            theta_star: Vector::zeros(dim),
            horizon: horizon.max(1),
            produced: 0,
            noise,
            reserve_policy: ReservePolicy::SumOfFeatures,
        };
        env.rescale();
        env
    }

    /// Overrides the reserve policy (the default is the data-market
    /// sum-of-features rule).
    #[must_use]
    pub fn with_reserve_policy(mut self, policy: ReservePolicy) -> Self {
        self.reserve_policy = policy;
        self
    }

    /// The current ground-truth weights (they move between rounds).
    #[must_use]
    pub fn theta_star(&self) -> &Vector {
        &self.theta_star
    }

    /// The drift process driving the weights.
    #[must_use]
    pub fn process(&self) -> &DriftProcess {
        &self.process
    }

    /// Discrete shifts applied so far.
    #[must_use]
    pub fn shifts(&self) -> u64 {
        self.process.shifts()
    }

    /// Rescales the process's markup vector to the paper normalisation
    /// `‖θ*‖ = √(2n)`.
    fn rescale(&mut self) {
        let dim = self.model.input_dim();
        let target_norm = (2.0 * dim as f64).sqrt();
        let norm = self.process.raw().norm().max(1e-12);
        self.theta_star = self.process.raw().scaled(target_norm / norm);
    }
}

impl Environment for DriftingLinearEnvironment {
    fn input_dim(&self) -> usize {
        self.model.input_dim()
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn weight_norm_bound(&self) -> f64 {
        // The paper's broker prior ‖θ*‖ ≤ 2√n — valid in every phase
        // because the rescaling pins ‖θ*‖ = √(2n) throughout.
        2.0 * (self.model.input_dim() as f64).sqrt()
    }

    fn feature_norm_bound(&self) -> f64 {
        1.0
    }

    fn next_round(&mut self, rng: &mut dyn rand::RngCore) -> Option<Round> {
        if self.produced >= self.horizon {
            return None;
        }
        self.produced += 1;
        // The drift stream is private to the process, so the feature/noise
        // stream (the caller's rng) is identical across schedules and
        // policies — apples-to-apples post-shift comparisons.
        self.process.advance();
        self.rescale();
        let features = sampling::standard_normal_vector(rng, self.model.input_dim())
            .map(f64::abs)
            .normalized();
        let noiseless = features
            .dot(&self.theta_star)
            // pdm-lint: allow(no-unwrap-in-lib) reason="the shadow model is fitted on the same feature dimension it now predicts"
            .expect("features match the model dimension");
        let market_value = noiseless + self.noise.sample(rng);
        let reserve_price = match self.reserve_policy {
            ReservePolicy::None => 0.0,
            ReservePolicy::SumOfFeatures => features.sum(),
            ReservePolicy::FractionOfValue(frac) => frac * noiseless,
            ReservePolicy::FractionOfLinkValue(frac) => frac * noiseless,
        };
        Some(Round {
            features,
            reserve_price,
            market_value,
        })
    }
}

/// Sizing of the windowed accept/reject surprisal detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftDetectorConfig {
    /// Sliding window length, in observed rounds.
    pub window: usize,
    /// Surprises inside the window that trigger a firing.
    pub threshold: usize,
}

impl Default for DriftDetectorConfig {
    fn default() -> Self {
        Self {
            window: DEFAULT_DETECTOR_WINDOW,
            threshold: DEFAULT_DETECTOR_THRESHOLD,
        }
    }
}

/// Windowed drift detector over accept/reject surprisal.
///
/// Each observed round contributes one boolean flag — *was the outcome
/// inconsistent with the whole knowledge set?* — and the detector fires
/// when at least `threshold` of the most recent `window` flags are set.
/// Firing clears the window (the restart that follows makes old evidence
/// stale anyway), so a sustained shift produces one firing, not one per
/// round.
#[derive(Debug, Clone, PartialEq)]
pub struct SurprisalDriftDetector {
    config: DriftDetectorConfig,
    flags: VecDeque<bool>,
    in_window: usize,
    fires: u64,
}

impl SurprisalDriftDetector {
    /// An empty detector.
    #[must_use]
    pub fn new(config: DriftDetectorConfig) -> Self {
        let config = DriftDetectorConfig {
            window: config.window.max(1),
            threshold: config.threshold.clamp(1, config.window.max(1)),
        };
        // The window grows on demand: a configured (or restored) window
        // is a bound, not an allocation.
        Self {
            flags: VecDeque::new(),
            config,
            in_window: 0,
            fires: 0,
        }
    }

    /// The sizing in effect.
    #[must_use]
    pub fn config(&self) -> DriftDetectorConfig {
        self.config
    }

    /// Total firings since construction (or restore).
    #[must_use]
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// Surprises currently inside the window.
    #[must_use]
    pub fn surprises_in_window(&self) -> usize {
        self.in_window
    }

    /// The window flags, oldest first — the state a snapshot persists.
    pub fn window_flags(&self) -> impl Iterator<Item = bool> + '_ {
        self.flags.iter().copied()
    }

    /// Restores the persisted state: the firing counter plus the window
    /// flags (oldest first; truncated to the configured window).
    pub fn restore(&mut self, fires: u64, flags: &[bool]) {
        self.fires = fires;
        self.flags.clear();
        for &flag in flags.iter().rev().take(self.config.window).rev() {
            self.flags.push_back(flag);
        }
        self.in_window = self.flags.iter().filter(|&&f| f).count();
    }

    /// Records one observed round's surprisal flag; returns `true` when the
    /// detector fires (and clears its window).
    pub fn observe(&mut self, surprise: bool) -> bool {
        if self.flags.len() == self.config.window && self.flags.pop_front() == Some(true) {
            self.in_window -= 1;
        }
        self.flags.push_back(surprise);
        if surprise {
            self.in_window += 1;
        }
        if self.in_window >= self.config.threshold {
            self.fires += 1;
            self.flags.clear();
            self.in_window = 0;
            return true;
        }
        false
    }
}

/// The per-tenant drift policy: how a mechanism reacts to a moving `θ*`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftPolicy {
    /// The paper's stationary mechanism, unchanged (bit-for-bit).
    Static,
    /// Re-initialise the knowledge set to the prior ball when the windowed
    /// surprisal detector fires.
    Restart {
        /// Detector window, in observed rounds.
        window: usize,
        /// Surprises inside the window that trigger the restart.
        threshold: usize,
    },
    /// Inflate every semi-axis of the ellipsoid by `inflation` after every
    /// observed round **that applied no cut**: the forgetting-factor
    /// analogue of a sliding window over cuts.  Gating the inflation on
    /// "not currently learning" keeps convergence phases untouched (cuts
    /// flow freely) while a converged set slowly re-opens, so old
    /// refinements decay, a moved `θ*` is re-admitted within tens of
    /// rounds, and the steady state oscillates just above the exploration
    /// threshold at a small perpetual-exploration cost — the price of
    /// tracking.
    Discounted {
        /// Per-round semi-axis growth factor (slightly above 1, e.g. 1.01).
        inflation: f64,
    },
}

impl DriftPolicy {
    /// The restart policy at the default detector sizing.
    #[must_use]
    pub fn restart_default() -> Self {
        DriftPolicy::Restart {
            window: DEFAULT_DETECTOR_WINDOW,
            threshold: DEFAULT_DETECTOR_THRESHOLD,
        }
    }

    /// Machine-readable policy name used in labels and snapshots.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DriftPolicy::Static => "static",
            DriftPolicy::Restart { .. } => "restart",
            DriftPolicy::Discounted { .. } => "discounted",
        }
    }
}

/// The paper's ellipsoid mechanism wrapped with a [`DriftPolicy`].
///
/// [`DriftPolicy::Static`] delegates every call unchanged, so wrapping a
/// stationary tenant is free (and bit-identical — the property the serving
/// engine's snapshot tests pin).  The drift-aware policies act strictly
/// *between* rounds: quotes and knowledge-set cuts are the inner
/// mechanism's own, then the restart/inflation step runs after the cut.
#[derive(Debug, Clone)]
pub struct DriftAwarePricing<M> {
    inner: EllipsoidPricing<M>,
    policy: DriftPolicy,
    detector: Option<SurprisalDriftDetector>,
    restarts: u64,
}

impl<M: MarketValueModel> DriftAwarePricing<M> {
    /// Builds the mechanism from scratch: the inner engine starts at the
    /// prior ball, exactly like [`EllipsoidPricing::new`].
    #[must_use]
    pub fn new(model: M, config: PricingConfig, policy: DriftPolicy) -> Self {
        Self::wrap(EllipsoidPricing::new(model, config), policy)
    }

    /// Wraps an existing engine (the snapshot-restore path, where the
    /// knowledge set comes from a document instead of the prior).
    #[must_use]
    pub fn wrap(inner: EllipsoidPricing<M>, policy: DriftPolicy) -> Self {
        let detector = match policy {
            DriftPolicy::Restart { window, threshold } => {
                Some(SurprisalDriftDetector::new(DriftDetectorConfig {
                    window,
                    threshold,
                }))
            }
            _ => None,
        };
        Self {
            inner,
            policy,
            detector,
            restarts: 0,
        }
    }

    /// The wrapped ellipsoid engine.
    #[must_use]
    pub fn inner(&self) -> &EllipsoidPricing<M> {
        &self.inner
    }

    /// The current knowledge set (passthrough for snapshot writers).
    #[must_use]
    pub fn knowledge(&self) -> &Ellipsoid {
        self.inner.knowledge()
    }

    /// The configuration of the wrapped engine.
    #[must_use]
    pub fn config(&self) -> &PricingConfig {
        self.inner.config()
    }

    /// The policy in effect.
    #[must_use]
    pub fn policy(&self) -> DriftPolicy {
        self.policy
    }

    /// The restart policy's detector, when one exists.
    #[must_use]
    pub fn detector(&self) -> Option<&SurprisalDriftDetector> {
        self.detector.as_ref()
    }

    /// Total detector firings (zero for static/discounted policies).
    #[must_use]
    pub fn detector_fires(&self) -> u64 {
        self.detector
            .as_ref()
            .map_or(0, SurprisalDriftDetector::fires)
    }

    /// Knowledge-set restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Restores the drift-side state a snapshot persisted: the firing and
    /// restart counters plus the detector's window flags (oldest first).
    /// A no-op for policies without a detector, except the restart counter.
    pub fn restore_drift_state(&mut self, fires: u64, restarts: u64, flags: &[bool]) {
        self.restarts = restarts;
        if let Some(detector) = self.detector.as_mut() {
            detector.restore(fires, flags);
        }
    }

    /// Whether an outcome contradicts the entire knowledge set: a rejected
    /// conservative price (the set promised a near-certain sale) or an
    /// accepted certain-no-sale quote (the set promised no value could
    /// reach the reserve).  Exploratory feedback is surprising only when
    /// the effective price lands strictly outside the support bounds.
    fn surprising(quote: &Quote, accepted: bool, delta: f64) -> bool {
        match quote.kind {
            QuoteKind::Conservative => !accepted,
            QuoteKind::CertainNoSale => accepted,
            QuoteKind::Exploratory => {
                if accepted {
                    quote.link_price - delta > quote.upper_bound
                } else {
                    quote.link_price + delta < quote.lower_bound
                }
            }
            QuoteKind::Baseline => false,
        }
    }
}

impl<M: MarketValueModel> PostedPriceMechanism for DriftAwarePricing<M> {
    fn name(&self) -> String {
        match self.policy {
            DriftPolicy::Static => self.inner.name(),
            DriftPolicy::Restart { .. } => format!("{} + restart-on-drift", self.inner.name()),
            DriftPolicy::Discounted { .. } => {
                format!("{} + discounted knowledge", self.inner.name())
            }
        }
    }

    fn quote(&mut self, features: &Vector, reserve_price: f64) -> Quote {
        self.inner.quote(features, reserve_price)
    }

    fn observe(&mut self, features: &Vector, quote: &Quote, accepted: bool) {
        let cuts_before = self.inner.cuts_applied();
        self.inner.observe(features, quote, accepted);
        match self.policy {
            DriftPolicy::Static => {}
            DriftPolicy::Restart { .. } => {
                let delta = self.inner.config().delta;
                let surprise = Self::surprising(quote, accepted, delta);
                let fired = self
                    .detector
                    .as_mut()
                    // pdm-lint: allow(no-unwrap-in-lib) reason="the restart policy constructor always installs a detector for this variant"
                    .expect("restart policy always carries a detector")
                    .observe(surprise);
                if fired {
                    let dim = self.inner.model().mapped_dim();
                    let radius = self.inner.config().initial_radius;
                    self.inner.replace_knowledge(Ellipsoid::ball(dim, radius));
                    self.restarts += 1;
                }
            }
            DriftPolicy::Discounted { inflation } => {
                // Forget only when not learning: a round that refined the
                // set costs nothing; a round the converged set could not
                // learn from re-opens it a little.
                if self.inner.cuts_applied() == cuts_before {
                    self.inner.knowledge_mut().inflate(inflation);
                }
            }
        }
    }

    fn memory_footprint_bytes(&self) -> usize {
        self.inner.memory_footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{PricingSession, StepOutcome};
    use crate::simulation::SimulationOptions;
    use pdm_ellipsoid::KnowledgeSet;

    fn schedule(kind: DriftKind) -> DriftSchedule {
        DriftSchedule { kind, seed: 17 }
    }

    #[test]
    fn piecewise_process_jumps_only_at_period_multiples() {
        let mut p = DriftProcess::new(
            schedule(DriftKind::PiecewiseJumps {
                period: 5,
                magnitude: 1.0,
            }),
            4,
        );
        let initial = p.raw().clone();
        let mut shift_rounds = Vec::new();
        for t in 0..12u64 {
            if p.advance() {
                shift_rounds.push(t);
            }
        }
        assert_eq!(shift_rounds, vec![5, 10]);
        assert_eq!(p.shifts(), 2);
        assert_ne!(p.raw(), &initial, "a full-magnitude jump must move θ");
        // Deterministic in the seed.
        let mut q = DriftProcess::new(
            schedule(DriftKind::PiecewiseJumps {
                period: 5,
                magnitude: 1.0,
            }),
            4,
        );
        for _ in 0..12 {
            q.advance();
        }
        assert_eq!(p.raw(), q.raw());
    }

    #[test]
    fn zero_magnitude_jumps_leave_theta_in_place() {
        let mut p = DriftProcess::new(
            schedule(DriftKind::PiecewiseJumps {
                period: 3,
                magnitude: 0.0,
            }),
            3,
        );
        let initial = p.raw().clone();
        for _ in 0..10 {
            p.advance();
        }
        // Shifts are *counted* (the schedule fired) but the blend is a no-op.
        assert_eq!(p.shifts(), 3);
        assert_eq!(p.raw(), &initial);
    }

    #[test]
    fn rotation_moves_continuously_without_discrete_shifts() {
        let mut p = DriftProcess::new(schedule(DriftKind::Rotation { rate: 0.05 }), 4);
        let initial = p.raw().clone();
        for _ in 0..50 {
            assert!(!p.advance(), "rotation never reports discrete shifts");
        }
        assert_eq!(p.shifts(), 0);
        let moved = p.raw().distance(&initial).unwrap();
        assert!(moved > 0.01, "50 rounds at rate 0.05 must move θ ({moved})");
        // Entries stay strictly positive (market values stay positive).
        assert!(p.raw().iter().all(|&r| r > 0.0));
    }

    #[test]
    fn adversarial_shift_reverses_the_markup_ordering_once() {
        let mut p = DriftProcess::new(
            schedule(DriftKind::AdversarialShift {
                at_round: 4,
                magnitude: 1.0,
            }),
            6,
        );
        let before = p.raw().clone();
        let mean = before.mean();
        let mut shift_rounds = Vec::new();
        for t in 0..10u64 {
            if p.advance() {
                shift_rounds.push(t);
            }
        }
        assert_eq!(shift_rounds, vec![4]);
        // Features above the mean fell below it and vice versa.
        for (b, a) in before.iter().zip(p.raw().iter()) {
            if (b - mean).abs() > 1e-9 {
                assert_eq!(
                    (b - mean).signum(),
                    -(a - mean).signum(),
                    "reflection must flip {b} about {mean} (got {a})"
                );
            }
        }
        assert!(p.raw().iter().all(|&r| r > 0.0));
    }

    #[test]
    fn drifting_environment_keeps_the_paper_normalisation_through_shifts() {
        let mut env = DriftingLinearEnvironment::new(
            5,
            60,
            schedule(DriftKind::PiecewiseJumps {
                period: 20,
                magnitude: 1.0,
            }),
            NoiseModel::None,
        );
        let target_norm = (2.0 * 5.0_f64).sqrt();
        let mut rng = StdRng::seed_from_u64(3);
        let theta_before = env.theta_star().clone();
        let mut rounds = 0;
        while let Some(round) = env.next_round(&mut rng) {
            rounds += 1;
            assert!((round.features.norm() - 1.0).abs() < 1e-9);
            assert!((round.reserve_price - round.features.sum()).abs() < 1e-9);
            assert!(round.market_value.is_finite());
            assert!((env.theta_star().norm() - target_norm).abs() < 1e-9);
        }
        assert_eq!(rounds, 60);
        assert_eq!(env.shifts(), 2);
        assert_ne!(env.theta_star(), &theta_before);
        assert!((env.weight_norm_bound() - 2.0 * 5.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn detector_fires_at_the_threshold_and_clears_its_window() {
        let mut d = SurprisalDriftDetector::new(DriftDetectorConfig {
            window: 8,
            threshold: 3,
        });
        assert!(!d.observe(true));
        assert!(!d.observe(false));
        assert!(!d.observe(true));
        assert!(d.observe(true), "third surprise in the window fires");
        assert_eq!(d.fires(), 1);
        assert_eq!(d.surprises_in_window(), 0, "firing clears the window");
        // Old surprises age out of the window.
        let mut d = SurprisalDriftDetector::new(DriftDetectorConfig {
            window: 4,
            threshold: 3,
        });
        d.observe(true);
        d.observe(true);
        for _ in 0..4 {
            d.observe(false);
        }
        assert!(!d.observe(true), "aged-out surprises must not accumulate");
        assert_eq!(d.fires(), 0);
    }

    #[test]
    fn a_huge_window_allocates_only_what_it_observes() {
        let mut d = SurprisalDriftDetector::new(DriftDetectorConfig {
            window: usize::MAX / 2,
            threshold: 3,
        });
        assert!(!d.observe(true));
        assert!(!d.observe(false));
        assert!(!d.observe(true));
        assert!(d.observe(true), "the third surprise fires");
        assert_eq!(d.fires(), 1);
        d.observe(false);
        d.restore(2, &[true, false]);
        assert_eq!(d.window_flags().collect::<Vec<_>>(), [true, false]);
        assert_eq!(d.surprises_in_window(), 1);
    }

    #[test]
    fn detector_state_restores_exactly() {
        let config = DriftDetectorConfig {
            window: 6,
            threshold: 4,
        };
        let mut d = SurprisalDriftDetector::new(config);
        for &s in &[true, false, true, false, false, true] {
            d.observe(s);
        }
        let flags: Vec<bool> = d.window_flags().collect();
        let mut restored = SurprisalDriftDetector::new(config);
        restored.restore(d.fires(), &flags);
        assert_eq!(restored, d);
        // Both continue identically.
        assert_eq!(d.observe(true), restored.observe(true));
        assert_eq!(d, restored);
    }

    #[test]
    fn static_policy_is_bit_identical_to_the_bare_mechanism() {
        let config = PricingConfig::new(2.0, 500).with_reserve(true);
        let mut bare = EllipsoidPricing::new(LinearModel::new(3), config);
        let mut wrapped = DriftAwarePricing::new(LinearModel::new(3), config, DriftPolicy::Static);
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..100 {
            let x = sampling::standard_normal_vector(&mut rng, 3)
                .map(f64::abs)
                .normalized();
            let reserve = 0.3 + 0.001 * f64::from(round);
            let qa = bare.quote(&x, reserve);
            let qb = wrapped.quote(&x, reserve);
            assert_eq!(qa.posted_price.to_bits(), qb.posted_price.to_bits());
            let accepted = qa.posted_price <= 1.0;
            bare.observe(&x, &qa, accepted);
            wrapped.observe(&x, &qb, accepted);
        }
        assert_eq!(bare.knowledge(), wrapped.knowledge());
        assert_eq!(wrapped.restarts(), 0);
        assert_eq!(wrapped.detector_fires(), 0);
    }

    /// Drives a policy through a hard downward value shift: the mechanism
    /// converges on value 1.0, then the value drops to `post_value`.
    /// Returns (sales after the shift, restarts).
    fn post_shift_sales(policy: DriftPolicy, post_value: f64) -> (u64, u64) {
        let config = PricingConfig::new(2.0, 2_000)
            .with_reserve(true)
            .with_uncertainty(0.02);
        let mut session = PricingSession::new(
            DriftAwarePricing::new(LinearModel::new(2), config, policy),
            2_000,
            SimulationOptions::default(),
        )
        .without_latency_tracking();
        let x = Vector::from_slice(&[0.6, 0.8]);
        for _ in 0..400 {
            let quote = session.step(&x, 0.1);
            let accepted = quote.posted_price <= 1.0;
            session.observe(StepOutcome::with_value(accepted, 1.0));
        }
        let sales_before = session.sales();
        for _ in 0..400 {
            let quote = session.step(&x, 0.1);
            let accepted = quote.posted_price <= post_value;
            session.observe(StepOutcome::with_value(accepted, post_value));
        }
        let restarts = session.mechanism().restarts();
        (session.sales() - sales_before, restarts)
    }

    #[test]
    fn restart_policy_recovers_sales_after_a_downward_shift() {
        let (static_sales, _) = post_shift_sales(DriftPolicy::Static, 0.3);
        let (restart_sales, restarts) = post_shift_sales(DriftPolicy::restart_default(), 0.3);
        assert!(restarts >= 1, "the shift must trigger at least one restart");
        assert!(
            restart_sales > static_sales + 100,
            "restart must recover the market the static mechanism lost \
             ({restart_sales} vs {static_sales} post-shift sales)"
        );
    }

    #[test]
    fn discounted_policy_recovers_sales_after_a_downward_shift() {
        let (static_sales, _) = post_shift_sales(DriftPolicy::Static, 0.3);
        let (discounted_sales, restarts) =
            post_shift_sales(DriftPolicy::Discounted { inflation: 1.05 }, 0.3);
        assert_eq!(restarts, 0, "discounting never restarts");
        assert!(
            discounted_sales > static_sales + 100,
            "inflation must re-admit the moved θ* \
             ({discounted_sales} vs {static_sales} post-shift sales)"
        );
    }

    #[test]
    fn restart_resets_the_knowledge_set_to_the_prior_ball() {
        let config = PricingConfig::new(1.5, 100).with_reserve(false);
        let mut mech = DriftAwarePricing::new(
            LinearModel::new(2),
            config,
            DriftPolicy::Restart {
                window: 4,
                threshold: 2,
            },
        );
        let x = Vector::from_slice(&[1.0, 0.0]);
        // Narrow the set with genuine cuts first.
        for _ in 0..30 {
            let quote = mech.quote(&x, 0.0);
            let accepted = quote.posted_price <= 0.5;
            mech.observe(&x, &quote, accepted);
        }
        let narrowed = mech.knowledge().width_along(&x);
        assert!(narrowed < 3.0, "cuts must narrow the set ({narrowed})");
        // Force surprisal: conservative quotes rejected repeatedly.  If the
        // set is still exploratory, keep rejecting until conservative.
        let mut guard = 0;
        while mech.restarts() == 0 {
            let quote = mech.quote(&x, 0.0);
            mech.observe(&x, &quote, false);
            guard += 1;
            assert!(guard < 500, "detector must eventually fire");
        }
        let width = mech.knowledge().width_along(&x);
        assert!(
            (width - 3.0).abs() < 1e-9,
            "restart must restore the radius-1.5 prior ball (width {width})"
        );
        assert_eq!(mech.detector_fires(), mech.restarts());
    }

    #[test]
    fn policy_names_cover_the_grid() {
        assert_eq!(DriftPolicy::Static.name(), "static");
        assert_eq!(DriftPolicy::restart_default().name(), "restart");
        assert_eq!(
            DriftPolicy::Discounted { inflation: 1.01 }.name(),
            "discounted"
        );
        assert_eq!(
            DriftKind::PiecewiseJumps {
                period: 5,
                magnitude: 0.5
            }
            .name(),
            "piecewise"
        );
        assert_eq!(DriftKind::Rotation { rate: 0.01 }.name(), "rotation");
        assert_eq!(
            DriftKind::AdversarialShift {
                at_round: 10,
                magnitude: 1.0
            }
            .name(),
            "adversarial"
        );
        assert_eq!(
            DriftKind::PiecewiseJumps {
                period: 5,
                magnitude: 0.5
            }
            .first_shift_round(),
            5
        );
        assert_eq!(DriftKind::Rotation { rate: 0.01 }.first_shift_round(), 0);
    }
}
