//! # pdm-service
//!
//! A sharded, concurrent market-serving engine for the personal-data
//! pricing mechanism of Niu et al. (ICDE 2020).
//!
//! The paper's mechanism is an *online* posted-price loop: a broker quotes
//! a price per arriving query and refines its uncertainty set from the
//! binary accept/reject signal.  The rest of the workspace runs that loop
//! inside offline, single-tenant simulations; this crate is the serving
//! layer that runs **many** such loops — one independent pricing session per
//! data owner or survey — behind a production-shaped API:
//!
//! * **Stable sharding** — tenants are routed to one of `N` shards by a
//!   seedless hash ([`routing::shard_of`]), so routing survives restarts
//!   and snapshot/restore cycles.
//! * **Ingest/drain** — [`MarketService::ingest`], the one admission call,
//!   admits a [`Request`] into its tenant's shard queue; [`MarketService::drain`] serves every queued
//!   request on a persistent worker pool whose helper threads park between
//!   drains, one shard per worker at a time, with **no global lock**.
//!   Per-shard FIFO processing makes every computed value independent of
//!   the worker count — `bench serve` in `pdm-bench` verifies service
//!   aggregates against a serial simulation bit for bit.
//! * **Bounded admission** — shard queues have a hard capacity; overload is
//!   shed with [`ServiceError::QueueFull`] and counted, instead of growing
//!   memory without bound.
//! * **Mixed markets** — a tenant is either a posted-price session (the
//!   paper's loop) or an **auction tenant**: one request carries an item,
//!   a floor, and sealed bids; the tenant's [`AuctionPolicy`] (static /
//!   session-learned / empirical) quotes a personalized reserve, the eager
//!   second-price auction clears, and the policy learns from the outcome —
//!   all in one FIFO slot.  Both kinds share shards, snapshots, and
//!   metrics.
//! * **Privacy-budget ledgers** — a third tenant kind
//!   ([`TenantConfig::privacy`]) gives every data owner a compact budget
//!   ledger ([`LedgerBank`]): each quote's per-owner leakage is computed
//!   with the paper's privacy quantifier, owners whose ε budget is spent
//!   are retired (shrinking the sellable supply the mechanism prices),
//!   accepted sales debit ε and accrue tanh-contract compensation, the
//!   owed compensation rides the reserve so every sale covers its payouts,
//!   and quotes are clamped to an arbitrage-free band above the
//!   compensation curve ([`arbitrage_clamp`]).  Ledgers persist through
//!   snapshots (schema v6, packed upper triangle) and the WAL, and their
//!   totals join the determinism fingerprint.
//! * **Drift policies** — every tenant config carries a
//!   [`DriftPolicy`]: `Static` runs the
//!   paper's stationary mechanism unchanged, `Restart` re-initialises the
//!   knowledge set when a windowed accept/reject surprisal detector fires,
//!   and `Discounted` inflates the ellipsoid a little after every round
//!   that taught it nothing, so old cuts decay and a moved `θ*` is
//!   re-admitted.  Detector firings and restarts are counted per shard and
//!   the detector state survives snapshots (schema v3).
//! * **Per-shard metrics** — quotes served, accept rate, revenue, exact
//!   regret (when ground truth is supplied) plus an uncertainty-width
//!   regret proxy, shed/rejected counts, paging and privacy counters, and
//!   the auction ledger (settled rounds, reserve hit-rate, clearing
//!   revenue, welfare, no-reserve baseline) ([`ShardMetrics`]); shard
//!   ledgers fold into one service-wide aggregate via
//!   [`MarketService::aggregate_metrics`].  Per-request service latency
//!   is the `shard.request.wall_nanos` histogram of the scrape.
//! * **Continuous ingest** — [`MarketService::ingest`] admits requests
//!   through a shared `&self` reference into the tenant's shard queue,
//!   holding the shard lock for one push: producer threads ingest
//!   concurrently with each other, and with a
//!   [`MarketService::checkpoint`] or [`MarketService::scrape`] of the same
//!   shard by waiting for its lock.  A drain takes `&mut self`, so traffic
//!   queues between drains.
//! * **Snapshots & WAL** — the whole service state serialises to
//!   deterministic JSON ([`MarketService::snapshot`]) and restores to a
//!   service that quotes bit-identically ([`MarketService::restore`]).
//!   With [`ServiceConfig::wal_segment_size`] set, shards track dirty
//!   tenants and [`MarketService::checkpoint`] persists only those as
//!   numbered WAL segments; [`MarketService::restore_with_wal`] replays
//!   base-plus-segments to the same bit-identical guarantee.
//! * **Cold-tenant paging** — with [`ServiceConfig::resident_capacity`]
//!   set, least-recently-served quiescent tenants page out and rehydrate
//!   on the next request, bounding the resident set under tenant churn.
//!   A page holds the fields of the tenant's snapshot document as a
//!   typed little-endian image (raw float bits, no `Json` tree) and reads
//!   back through the snapshot restore's checks and constructors, so
//!   paging skips float formatting and parsing; it stays in memory, and
//!   snapshots and the WAL stay JSON text.
//! * **Observability** — every shard carries a `pdm-obs`
//!   [`MetricRegistry`] behind its existing lock: the serving stages
//!   (`shard.drain`, `shard.quote`, `shard.observe`, `ledger.settle`,
//!   `shard.auction`) record spans over deterministic
//!   log-bucket histograms, and [`MarketService::scrape`] folds shard
//!   registries, the aggregate [`ShardMetrics`] counters, and point-in-time
//!   gauges into one registry renderable as Prometheus text or
//!   deterministic JSON.  Registry state is process-local: snapshots and
//!   the WAL never carry it, and a restored service scrapes fresh span
//!   histograms while the persisted ledger counters carry on.
//!
//! ## Quickstart
//!
//! ```
//! use pdm_linalg::Vector;
//! use pdm_service::{MarketService, OutcomeReport, QueryRequest, Request, ServiceConfig, TenantConfig, TenantId};
//!
//! let mut service = MarketService::new(ServiceConfig { shards: 4, queue_capacity: 64, ..ServiceConfig::default() })?;
//! service.register_tenant(TenantId::from_name("survey-7"), TenantConfig::standard(3, 1_000))?;
//! service.ingest(Request::Quote(QueryRequest {
//!     tenant: TenantId::from_name("survey-7"),
//!     features: Vector::from_slice(&[0.2, 0.3, 0.5]),
//!     reserve_price: 0.4,
//! }))?;
//! let quote = *service.drain(4)[0].quote().expect("a quote response");
//! service.ingest(Request::Observe(OutcomeReport {
//!     tenant: TenantId::from_name("survey-7"),
//!     accepted: true,
//!     market_value: None, // production feedback: only the accept bit
//! }))?;
//! service.drain(4);
//! assert!(quote.posted_price >= 0.4); // the reserve price is honoured
//! assert_eq!(service.aggregate_metrics().sales, 1);
//! # Ok::<(), pdm_service::ServiceError>(())
//! ```
//!
//! ## Where this sits in the workspace
//!
//! `pdm-pricing` owns the mechanism and its re-entrant
//! [`PricingSession`](pdm_pricing::session::PricingSession) interface; this
//! crate owns tenancy, routing, queues, concurrency, metrics, and
//! persistence.  The `bench serve` subcommand of `pdm-bench` drives this
//! service with a closed-loop traffic generator and reports throughput and
//! latency into the versioned BENCH report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod ledger;
pub mod metrics;
mod obs;
mod page;
mod pool;
mod reader;
pub mod routing;
mod shard;
pub mod snapshot;
mod sync;
pub mod tenant;
pub mod wal;

mod service;

pub use api::{
    AuctionRequest, OutcomeReport, Payload, QueryRequest, Request, RequestError, Response,
    ServiceError, Ticket,
};
pub use ledger::{
    arbitrage_clamp, LedgerBank, OwnerLedger, SettledCharge, SupplyQuote, ARBITRAGE_PRICE_MARKUP,
};
pub use metrics::ShardMetrics;
pub use pdm_obs::MetricRegistry;
pub use pdm_pricing::drift::DriftPolicy;
pub use routing::{shard_of, TenantId};
pub use service::{drain_workers, MarketService, ServiceConfig};
pub use snapshot::SNAPSHOT_SCHEMA_VERSION;
pub use tenant::{
    AuctionPolicy, MarketKind, PrivacyParams, TenantConfig, TenantMechanism, TenantState,
    AUCTION_SESSION_DELTA,
};
pub use wal::WAL_SEGMENT_KIND;
