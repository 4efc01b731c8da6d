//! Per-tenant pricing state.
//!
//! A tenant is one independent instance of the paper's mechanism: its own
//! ellipsoidal knowledge set, its own reserve-price handling, its own
//! learning trajectory.  The service holds one [`TenantState`] per tenant,
//! sharded by [`crate::routing::shard_of`], and drives each through the
//! re-entrant [`PricingSession`] interface of `pdm-pricing`.
//!
//! Tenants come in three **market kinds**, and one service serves them all
//! side by side:
//!
//! * [`MarketKind::PostedPrice`] — the paper's posted-price loop: a quote
//!   request opens a round, an outcome report closes it.
//! * [`MarketKind::Auction`] — an eager second-price auction with a
//!   personalized reserve: one self-contained request carries the item and
//!   the bids, the tenant's [`AuctionPolicy`] quotes the reserve, the round
//!   clears and feeds back immediately (no open round to abandon).
//! * [`MarketKind::Privacy`] — the posted-price loop over an explicit data
//!   owner population with per-owner privacy-budget ledgers
//!   ([`crate::ledger::LedgerBank`]): each quote debits leakage, accrues
//!   compensation, and retires owners whose budgets run out, shrinking the
//!   sellable supply the mechanism prices.

use crate::ledger::LedgerBank;
use crate::routing::TenantId;
use pdm_auction::{
    run_auction_round, ClearedRound, EmpiricalConfig, EmpiricalReserve, StaticReserve,
};
use pdm_ellipsoid::Ellipsoid;
use pdm_linalg::Vector;
use pdm_pricing::prelude::{
    DriftAwarePricing, DriftPolicy, LinearModel, PricingConfig, PricingSession, SimulationOptions,
};

/// The δ uncertainty buffer auction tenants run the paper's mechanism with.
///
/// Under auction feedback the "market value" the session observes is the
/// **top bid**, which scatters around the item's base value by the bidder
/// valuation noise — a noise-free configuration (δ = 0) would let wrong
/// cuts slice the true weights out of the knowledge set.  0.1 is the buffer
/// validated against the bench grid's valuation distributions.
pub const AUCTION_SESSION_DELTA: f64 = 0.1;

/// How an auction tenant sets its personalized reserve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuctionPolicy {
    /// The paper's online mechanism: the tenant's [`PricingSession`] quotes
    /// the reserve and learns from censored win/lose-at-reserve feedback
    /// (the `pdm_pricing::reserve` bridge).
    Session,
    /// A fixed mark-up over the round's floor; zero mark-up is the pure
    /// reserve-constraint auction.
    Static {
        /// Mark-up added to every floor.
        markup: f64,
    },
    /// The empirical data-driven setter: a grid search over a sliding
    /// window of historical bids.
    Empirical {
        /// Window of retained `(top, second)` pairs.
        window: usize,
        /// Welfare weight of the empirical objective (0 = pure revenue).
        welfare_weight: f64,
    },
}

impl AuctionPolicy {
    /// Machine-readable policy name used in labels and the snapshot schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AuctionPolicy::Session => "session",
            AuctionPolicy::Static { .. } => "static",
            AuctionPolicy::Empirical { .. } => "empirical",
        }
    }
}

/// Market parameters of a privacy tenant.  The owner population is the
/// tenant's feature dimension: coordinate `i` of a query is owner `i`'s
/// weight, so the `pdm-market` quantifier prices each owner's leakage
/// `ε_i = |w_i|·Δ/b` directly from the query vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyParams {
    /// Per-owner privacy budget: an owner whose spent ε cannot absorb the
    /// next query's leakage is retired for good (sticky exhaustion).
    pub epsilon_budget: f64,
    /// Base payment of the tanh compensation contract (must be positive).
    pub compensation_base: f64,
    /// Sensitivity of the tanh compensation contract (must be positive).
    pub compensation_sensitivity: f64,
    /// Bound Δ on how much one owner's data can move the true answer.
    pub data_range: f64,
    /// Laplace noise scale `b` sold queries are answered with.
    pub laplace_scale: f64,
}

impl Default for PrivacyParams {
    /// Unit-scale defaults: budget 1 ε per owner, a 0.1·tanh(2ε) contract,
    /// unit data range and unit noise.
    fn default() -> Self {
        Self {
            epsilon_budget: 1.0,
            compensation_base: 0.1,
            compensation_sensitivity: 2.0,
            data_range: 1.0,
            laplace_scale: 1.0,
        }
    }
}

/// Which market a tenant trades in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarketKind {
    /// The paper's posted-price loop (quote → outcome).
    PostedPrice,
    /// Eager second-price auction with a personalized reserve.
    Auction(AuctionPolicy),
    /// The posted-price loop over a budgeted data-owner population with
    /// per-owner privacy ledgers and compensation accounting.
    Privacy(PrivacyParams),
}

impl MarketKind {
    /// Whether this kind serves plain posted-price (quote/observe)
    /// requests with no ledger accounting.
    #[must_use]
    pub fn is_posted(self) -> bool {
        matches!(self, MarketKind::PostedPrice)
    }

    /// The auction policy, when this is an auction tenant.
    #[must_use]
    pub fn auction_policy(self) -> Option<AuctionPolicy> {
        match self {
            MarketKind::Auction(policy) => Some(policy),
            MarketKind::PostedPrice | MarketKind::Privacy(_) => None,
        }
    }

    /// The privacy-market parameters, when this is a privacy tenant.
    #[must_use]
    pub fn privacy_params(self) -> Option<PrivacyParams> {
        match self {
            MarketKind::Privacy(params) => Some(params),
            MarketKind::PostedPrice | MarketKind::Auction(_) => None,
        }
    }
}

/// Configuration a tenant is registered with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    /// Feature dimension of the tenant's queries.
    pub dim: usize,
    /// Mechanism configuration (knowledge-set radius, horizon, reserve and
    /// uncertainty switches).
    pub pricing: PricingConfig,
    /// The market this tenant trades in.
    pub market: MarketKind,
    /// How the tenant's mechanism reacts to a drifting market:
    /// [`DriftPolicy::Static`] is the paper's stationary mechanism
    /// (bit-identical to the pre-drift service), `Restart` re-initialises
    /// the knowledge set when the surprisal detector fires, `Discounted`
    /// inflates it after every round that applied no cut.
    pub drift: DriftPolicy,
}

impl TenantConfig {
    /// A posted-price tenant with the paper's defaults: reserve enabled, no
    /// uncertainty buffer, knowledge-set radius `2√n` (the broker prior of
    /// Section V-A), stationary (no drift handling).
    #[must_use]
    pub fn standard(dim: usize, horizon: usize) -> Self {
        let dim = dim.max(1);
        Self {
            dim,
            pricing: PricingConfig::new(2.0 * (dim as f64).sqrt(), horizon),
            market: MarketKind::PostedPrice,
            drift: DriftPolicy::Static,
        }
    }

    /// An auction tenant under the given reserve policy.  The session runs
    /// with the [`AUCTION_SESSION_DELTA`] uncertainty buffer — bid noise is
    /// part of the auction market model, not an option.
    #[must_use]
    pub fn auction(dim: usize, horizon: usize, policy: AuctionPolicy) -> Self {
        let mut config = Self::standard(dim, horizon);
        config.pricing = config.pricing.with_uncertainty(AUCTION_SESSION_DELTA);
        config.market = MarketKind::Auction(policy);
        config
    }

    /// A privacy tenant over a population of `dim` data owners: the
    /// paper's posted-price loop, with per-owner privacy-budget ledgers
    /// debited on every sale and the sellable supply shrinking as owners
    /// exhaust their budgets.
    #[must_use]
    pub fn privacy(dim: usize, horizon: usize, params: PrivacyParams) -> Self {
        let mut config = Self::standard(dim, horizon);
        config.market = MarketKind::Privacy(params);
        config
    }

    /// Attaches a drift policy to the tenant's mechanism (posted-price and
    /// session-learned auction tenants alike).
    #[must_use]
    pub fn with_drift(mut self, drift: DriftPolicy) -> Self {
        self.drift = drift;
        self
    }

    /// Checks what building the tenant would otherwise panic on: a zero
    /// dimension, an initial radius that is not positive with a finite
    /// square (a drift restart rebuilds the ball from it inside a drain),
    /// and a privacy parameter that is not positive and finite (the
    /// compensation contract panics on one).  Registration reports the
    /// reason as [`crate::ServiceError::InvalidConfig`], a restore as
    /// [`crate::ServiceError::MalformedSnapshot`].
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("`dim` must be at least 1".to_owned());
        }
        let radius = self.pricing.initial_radius;
        if !Ellipsoid::is_usable_radius(radius) {
            return Err(format!(
                "`initial_radius` must be positive with a finite square, got {radius}"
            ));
        }
        if let MarketKind::Privacy(params) = self.market {
            for (name, value) in [
                ("epsilon_budget", params.epsilon_budget),
                ("compensation_base", params.compensation_base),
                ("compensation_sensitivity", params.compensation_sensitivity),
                ("data_range", params.data_range),
                ("laplace_scale", params.laplace_scale),
            ] {
                if !(value > 0.0 && value.is_finite()) {
                    return Err(format!(
                        "privacy `{name}` must be positive and finite, got {value}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The mechanism type every tenant session drives: the paper's ellipsoid
/// engine over the linear market-value model, wrapped with the tenant's
/// drift policy ([`DriftPolicy::Static`] delegates bit-for-bit).
pub type TenantMechanism = DriftAwarePricing<LinearModel>;

/// The live state of one tenant: its pricing session plus the registration
/// config (kept for snapshots), plus the learned state of a non-session
/// auction policy.
#[derive(Debug, Clone)]
pub struct TenantState {
    /// The tenant's id.
    pub id: TenantId,
    /// The registration config (needed to rebuild the tenant on restore).
    pub config: TenantConfig,
    /// The drivable mechanism session.  Auction tenants under the
    /// [`AuctionPolicy::Session`] policy learn through it; static/empirical
    /// auction tenants keep it untouched at its prior.
    pub session: PricingSession<TenantMechanism>,
    /// The learned state of an [`AuctionPolicy::Empirical`] tenant.
    pub empirical: Option<EmpiricalReserve>,
    /// The privacy-budget ledger bank of a [`MarketKind::Privacy`] tenant.
    pub privacy: Option<LedgerBank>,
}

impl TenantState {
    /// The ledger bank of a privacy tenant (the quote/settle charge paths).
    ///
    /// # Panics
    /// Only the privacy paths call this; a privacy tenant without its bank
    /// is a construction bug worth aborting on, not a recoverable error.
    pub(crate) fn bank_mut(&mut self) -> &mut LedgerBank {
        self.privacy
            .as_mut()
            // pdm-lint: allow(no-unwrap-in-lib) reason="construction invariant: every MarketKind::Privacy tenant is built with a bank; the shard privacy paths run only for those"
            .expect("privacy tenants carry a ledger bank")
    }

    /// Builds a fresh tenant from its registration config.
    #[must_use]
    pub fn new(id: TenantId, config: TenantConfig) -> Self {
        let mechanism =
            DriftAwarePricing::new(LinearModel::new(config.dim), config.pricing, config.drift);
        Self::with_mechanism(id, config, mechanism)
    }

    /// Builds a tenant around an explicit mechanism (the restore path, where
    /// the knowledge set comes from a snapshot instead of the initial ball).
    #[must_use]
    pub fn with_mechanism(id: TenantId, config: TenantConfig, mechanism: TenantMechanism) -> Self {
        // Serving sessions keep no regret trace (the horizon is open-ended
        // and per-tenant memory must stay O(n²) for the knowledge set, not
        // O(T)) and no latency trace (the step→observe gap would measure
        // the client's round trip; shards time their own processing).
        let options = SimulationOptions {
            trace_points: 0,
            keep_full_trace: false,
        };
        let session = PricingSession::new(mechanism, config.pricing.horizon, options)
            .without_latency_tracking();
        let empirical = match config.market {
            MarketKind::Auction(AuctionPolicy::Empirical {
                window,
                welfare_weight,
            }) => Some(EmpiricalReserve::new(EmpiricalConfig {
                window: window.max(1),
                welfare_weight,
            })),
            _ => None,
        };
        let privacy = config
            .market
            .privacy_params()
            .map(|params| LedgerBank::new(config.dim, params));
        Self {
            id,
            config,
            session,
            empirical,
            privacy,
        }
    }

    /// Approximate resident memory of this tenant: the pricing session
    /// (knowledge set + bookkeeping, via
    /// [`PricingSession::memory_footprint_bytes`]) plus the empirical
    /// setter's bid-history window when the tenant carries one.  The
    /// cold-tenant pager reads this to report memory-per-tenant.
    #[must_use]
    pub fn memory_footprint_bytes(&self) -> usize {
        let empirical = self
            .empirical
            .as_ref()
            .map_or(0, |setter| setter.history().count() * 2 * 8);
        let ledgers = self
            .privacy
            .as_ref()
            .map_or(0, LedgerBank::memory_footprint_bytes);
        std::mem::size_of::<Self>() + self.session.memory_footprint_bytes() + empirical + ledgers
    }

    /// Settles one auction round through the tenant's reserve policy —
    /// quote, clear, feed back — via the shared
    /// [`pdm_auction::run_auction_round`] path, so the sharded service and
    /// a serial replay execute bit-identical arithmetic.
    ///
    /// Returns `None` when the tenant is not an auction tenant.
    pub fn serve_auction(
        &mut self,
        features: &Vector,
        floor: f64,
        bids: &[f64],
    ) -> Option<ClearedRound> {
        let policy = self.config.market.auction_policy()?;
        Some(match policy {
            AuctionPolicy::Session => run_auction_round(&mut self.session, features, floor, bids),
            AuctionPolicy::Static { markup } => {
                // The policy is stateless: rebuilding it per round is free
                // and keeps the tenant's persistent state minimal.
                run_auction_round(&mut StaticReserve::new(markup), features, floor, bids)
            }
            AuctionPolicy::Empirical { .. } => {
                let setter = self
                    .empirical
                    .as_mut()
                    // pdm-lint: allow(no-unwrap-in-lib) reason="construction invariant: AuctionPolicy::Empirical tenants are built with their setter; this arm runs only for them"
                    .expect("empirical tenants carry their setter state");
                run_auction_round(setter, features, floor, bids)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::Vector;
    use pdm_pricing::prelude::StepOutcome;

    #[test]
    fn standard_config_uses_the_paper_prior() {
        let config = TenantConfig::standard(9, 1_000);
        assert_eq!(config.dim, 9);
        assert!((config.pricing.initial_radius - 6.0).abs() < 1e-12);
        assert!(config.pricing.use_reserve);
        assert_eq!(config.market, MarketKind::PostedPrice);
        assert!(config.market.is_posted());
        // Degenerate dimension is clamped.
        assert_eq!(TenantConfig::standard(0, 10).dim, 1);
    }

    #[test]
    fn auction_config_applies_the_delta_buffer() {
        let config = TenantConfig::auction(4, 500, AuctionPolicy::Session);
        assert_eq!(config.pricing.delta, AUCTION_SESSION_DELTA);
        assert_eq!(config.market.auction_policy(), Some(AuctionPolicy::Session));
        assert!(!config.market.is_posted());
        assert_eq!(AuctionPolicy::Session.name(), "session");
        assert_eq!(AuctionPolicy::Static { markup: 0.0 }.name(), "static");
    }

    #[test]
    fn fresh_tenant_serves_a_round() {
        let mut tenant = TenantState::new(TenantId(1), TenantConfig::standard(3, 100));
        let x = Vector::from_slice(&[0.5, 0.5, 0.5]);
        let quote = tenant.session.step(&x, 0.2);
        assert!(quote.posted_price.is_finite());
        let record = tenant.session.observe(StepOutcome::accept_only(true));
        assert!(record.is_some());
        assert_eq!(tenant.session.rounds_closed(), 1);
        // A posted-price tenant has no auction path.
        assert!(tenant.serve_auction(&x, 0.2, &[1.0]).is_none());
    }

    #[test]
    fn auction_tenants_settle_rounds_per_policy() {
        let x = Vector::from_slice(&[0.5, 0.5, 0.5]);
        let bids = [0.9, 0.4];

        let mut fixed = TenantState::new(
            TenantId(2),
            TenantConfig::auction(3, 100, AuctionPolicy::Static { markup: 0.0 }),
        );
        let cleared = fixed.serve_auction(&x, 0.3, &bids).expect("auction tenant");
        assert_eq!(cleared.reserve, 0.3);
        assert!(cleared.result.sold());
        assert_eq!(cleared.result.price, 0.4);
        assert_eq!(
            fixed.session.rounds_closed(),
            0,
            "static policy never steps"
        );

        let mut learned = TenantState::new(
            TenantId(3),
            TenantConfig::auction(3, 100, AuctionPolicy::Session),
        );
        let cleared = learned
            .serve_auction(&x, 0.3, &bids)
            .expect("auction tenant");
        assert!(cleared.reserve >= 0.3);
        assert_eq!(learned.session.rounds_closed(), 1, "session policy learns");

        let mut empirical = TenantState::new(
            TenantId(4),
            TenantConfig::auction(
                3,
                100,
                AuctionPolicy::Empirical {
                    window: 8,
                    welfare_weight: 0.0,
                },
            ),
        );
        let cleared = empirical
            .serve_auction(&x, 0.3, &bids)
            .expect("auction tenant");
        assert_eq!(cleared.reserve, 0.3, "unfitted empirical quotes the floor");
        assert_eq!(
            empirical.empirical.as_ref().unwrap().history().count(),
            1,
            "uncensored feedback feeds the window"
        );
    }
}
