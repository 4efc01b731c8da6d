//! # pdm-pricing
//!
//! The primary contribution of Niu et al., *Online Pricing with Reserve Price
//! Constraint for Personal Data Markets* (ICDE 2020): a contextual dynamic
//! posted-price mechanism that maximises the data broker's cumulative revenue
//! while respecting a per-round reserve price (the total privacy compensation
//! owed to the data owners).
//!
//! ## What lives here
//!
//! * [`model`] — market value models: the linear model `v = x^T θ*` plus the
//!   non-linear family `v = g(φ(x)^T θ*)` (log-linear, log-log, logistic,
//!   kernelized) from Section IV-A.
//! * [`mechanism`] — the posted-price mechanisms: the ellipsoid-based
//!   Algorithm 1 / 1\* / 2 / 2\* in one configurable engine
//!   ([`mechanism::ContextualPricing`]), the one-dimensional bisection variant
//!   (Theorem 3), the risk-averse reserve-price baseline, and the exact
//!   polytope variant used for validation/ablation.
//! * [`regret`] — the single-round regret of Eq. (1), cumulative regret and
//!   regret-ratio tracking (the metrics of Figures 4–5 and Table I).
//! * [`uncertainty`] — sub-Gaussian noise models for the market value and the
//!   δ buffer of Algorithm 2.
//! * [`environment`] — round generators (synthetic linear/non-linear markets,
//!   plus the Lemma-8 adversarial sequence).
//! * [`drift`] — the non-stationarity layer: drifting-θ* markets
//!   (piecewise jumps, slow rotation, a one-shot adversarial reversal) and
//!   the drift-aware mechanism wrapper (restart on a windowed surprisal
//!   detector, or a discounted/forgetting knowledge set).
//! * [`session`] — the re-entrant `step`/`observe` loop body: one mechanism
//!   driven one query at a time, the unit the `pdm-service` serving engine
//!   shards across tenants.
//! * [`reserve`] — the auction bridge: the [`reserve::ReserveSetter`] trait
//!   a second-price auction market drives, with the blanket implementation
//!   that turns any [`session::PricingSession`] into a learned personalized
//!   reserve policy (censored win/lose-at-reserve feedback).
//! * [`simulation`] — the online trading loop tying an environment to a
//!   mechanism; a thin client of [`session`] that records regret traces,
//!   Table-I statistics, and per-round latency.
//!
//! ## Quickstart
//!
//! ```
//! use pdm_pricing::prelude::*;
//! use rand::SeedableRng;
//!
//! // A 5-dimensional linear market with mild uncertainty and reserve prices.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let env = SyntheticLinearEnvironment::builder(5)
//!     .rounds(2_000)
//!     .reserve_fraction(0.7)
//!     .noise(NoiseModel::Gaussian { std_dev: 0.01 })
//!     .build(&mut rng);
//!
//! let config = PricingConfig::for_environment(&env, 2_000)
//!     .with_reserve(true)
//!     .with_uncertainty(0.01);
//! let mechanism = EllipsoidPricing::new(LinearModel::new(5), config);
//!
//! let outcome = Simulation::new(env, mechanism).run(&mut rng);
//! assert!(outcome.report.regret_ratio() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod environment;
pub mod mechanism;
pub mod model;
pub mod regret;
pub mod reserve;
pub mod session;
pub mod simulation;
pub mod uncertainty;

/// Convenient re-exports of the types most applications need.
pub mod prelude {
    pub use crate::drift::{
        DriftAwarePricing, DriftDetectorConfig, DriftKind, DriftPolicy, DriftProcess,
        DriftSchedule, DriftingLinearEnvironment, SurprisalDriftDetector,
    };
    pub use crate::environment::{
        AdversarialLemma8Environment, Environment, ReplayEnvironment, Round,
        SyntheticLinearEnvironment, SyntheticModelEnvironment,
    };
    pub use crate::mechanism::{
        ContextualPricing, EllipsoidPricing, ExactPolytopePricing, OneDimPricing,
        PostedPriceMechanism, PricingConfig, Quote, QuoteKind, ReservePriceBaseline,
    };
    pub use crate::model::{
        KernelizedModel, LinearModel, LogLinearModel, LogLogModel, LogisticModel, MarketValueModel,
        MercerKernel,
    };
    pub use crate::regret::{single_round_regret, RegretReport, RegretTracker};
    pub use crate::reserve::{ReserveFeedback, ReserveSetter};
    pub use crate::session::{ObservedRound, PricingSession, StepOutcome};
    pub use crate::simulation::{Simulation, SimulationOptions, SimulationOutcome, TraceSample};
    pub use crate::uncertainty::{NoiseModel, UncertaintyBudget};
}

pub use prelude::*;
