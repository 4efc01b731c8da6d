//! # personal-data-pricing
//!
//! Umbrella crate for the reproduction of Niu et al., *Online Pricing with
//! Reserve Price Constraint for Personal Data Markets* (ICDE 2020).
//!
//! It re-exports the workspace crates under one roof so applications can
//! depend on a single crate:
//!
//! * [`pricing`] — the contextual dynamic pricing mechanism (Algorithms 1/2),
//!   market value models, regret accounting, the simulation loop, and the
//!   drift layer (drifting environments, the surprisal drift detector, and
//!   the restart/discounted drift-aware mechanism policies).
//! * [`market`] — the personal-data-market substrate (owners, queries,
//!   privacy leakage, tanh compensations, broker, consumers).
//! * [`auction`] — the multi-bidder auction market: eager second-price
//!   clearing with personalized reserves (static, session-learned, or
//!   empirical data-driven), seeded bidder populations.
//! * [`service`] — the sharded, concurrent multi-tenant serving engine
//!   (stable tenant→shard routing, ingest/drain, bounded admission,
//!   snapshots, per-shard metrics, mixed posted-price + auction tenants).
//! * [`ellipsoid`] — the knowledge-set machinery (Löwner–John ellipsoid,
//!   exact polytope, interval).
//! * [`datasets`] — seeded synthetic stand-ins for MovieLens, Airbnb, Avazu,
//!   and a loan-application scenario.
//! * [`learners`] — OLS, FTRL-Proximal, encoders, PCA.
//! * [`linalg`] — the dense linear-algebra substrate everything is built on.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the `pdm-bench`
//! crate for the binaries that regenerate every table and figure of the
//! paper's evaluation.
//!
//! ## Quickstart
//!
//! Price a short stream of products on a synthetic linear market with
//! reserve prices, using Algorithm 2 (ellipsoid knowledge set + reserve
//! constraint + uncertainty buffer):
//!
//! ```
//! use personal_data_pricing::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let rounds = 500;
//! let env = SyntheticLinearEnvironment::builder(8)
//!     .rounds(rounds)
//!     .reserve_fraction(0.7)
//!     .noise(NoiseModel::Gaussian { std_dev: 0.01 })
//!     .build(&mut rng);
//!
//! let config = PricingConfig::for_environment(&env, rounds)
//!     .with_reserve(true)
//!     .with_uncertainty(0.01);
//! let mechanism = EllipsoidPricing::new(LinearModel::new(8), config);
//!
//! let outcome = Simulation::new(env, mechanism).run(&mut rng);
//! assert_eq!(outcome.report.rounds, rounds);
//! assert!(outcome.cumulative_regret().is_finite());
//! assert!(outcome.cumulative_regret() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pdm_auction as auction;
pub use pdm_datasets as datasets;
pub use pdm_ellipsoid as ellipsoid;
pub use pdm_learners as learners;
pub use pdm_linalg as linalg;
pub use pdm_market as market;
pub use pdm_obs as obs;
pub use pdm_pricing as pricing;
pub use pdm_service as service;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use pdm_auction::{
        clear_second_price, AuctionLedger, AuctionMarket, AuctionMarketConfig, AuctionResult,
        EmpiricalReserve, ReserveSetter, StaticReserve, ValuationDistribution,
    };
    pub use pdm_market::{
        CompensationContract, ConsumerPool, DataBroker, DataOwner, Market, MarketEnvironment,
        QueryGenerator,
    };
    pub use pdm_pricing::prelude::*;
    pub use pdm_service::{
        AuctionPolicy, AuctionRequest, MarketKind, MarketService, OutcomeReport, QueryRequest,
        ServiceConfig, TenantConfig, TenantId,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        // A compile-time smoke test: the core types are nameable from the
        // umbrella prelude.
        let _config = PricingConfig::new(1.0, 10);
        let _baseline = ReservePriceBaseline::new();
    }
}
