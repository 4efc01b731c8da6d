//! The request/response surface of the serving engine.
//!
//! Clients speak two message kinds, mirroring the mechanism's own
//! `step`/`observe` split: a [`QueryRequest`] asks for a price quote and an
//! [`OutcomeReport`] closes the quoted round with the buyer's decision.
//! Both are addressed by tenant; [`crate::MarketService::ingest`], the one
//! admission call, routes a [`Request`] to the tenant's shard and returns a
//! [`Ticket`], and the next
//! [`crate::MarketService::drain`] turns every queued message into a
//! [`Response`] carrying the same ticket sequence number.

use crate::routing::TenantId;
use pdm_auction::ClearedRound;
use pdm_linalg::Vector;
use pdm_market::PricedQuery;
use pdm_pricing::prelude::{ObservedRound, Quote};
use std::fmt;

/// A price-quote request for one arriving query of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The tenant whose model prices this query.
    pub tenant: TenantId,
    /// Raw feature vector `x_t` of the query.
    pub features: Vector,
    /// Reserve price `q_t` (the total privacy compensation owed).
    pub reserve_price: f64,
}

impl QueryRequest {
    /// Builds a request from a broker-prepared [`PricedQuery`] — the bridge
    /// between the `pdm-market` privacy-accounting substrate and the
    /// serving engine.
    #[must_use]
    pub fn from_priced(tenant: TenantId, priced: &PricedQuery) -> Self {
        let (features, reserve_price) = priced.pricing_inputs();
        Self {
            tenant,
            features: features.clone(),
            reserve_price,
        }
    }
}

/// The buyer's decision for the tenant's open quote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeReport {
    /// The tenant whose open round this closes.
    pub tenant: TenantId,
    /// Whether the buyer accepted the posted price.
    pub accepted: bool,
    /// Ground-truth market value when the driver knows it (replay/benchmark
    /// workloads); `None` in production, where only the accept bit exists.
    pub market_value: Option<f64>,
}

/// One self-contained auction round for an auction tenant: the item, the
/// floor, and the sealed bids.
///
/// Unlike the posted-price quote/outcome pair, an auction round needs no
/// second message: the service quotes the tenant's personalized reserve,
/// clears the eager second-price auction against the submitted bids, feeds
/// the outcome back to the reserve policy, and answers with the settled
/// [`ClearedRound`] — all inside one FIFO slot, so there is never an open
/// auction round to abandon.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionRequest {
    /// The auction tenant whose reserve policy prices this round.
    pub tenant: TenantId,
    /// Raw feature vector `x_t` of the auctioned item.
    pub features: Vector,
    /// The round's floor `q_t` (the total privacy compensation owed) —
    /// the reserve never drops below it.
    pub floor: f64,
    /// Sealed bids, in bidder order (ties resolve to the earliest index).
    pub bids: Vec<f64>,
}

/// One message submitted to the service.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ask for a price quote.
    Quote(QueryRequest),
    /// Close the open quote with the buyer's decision.
    Observe(OutcomeReport),
    /// Settle one auction round (auction tenants only).
    Auction(AuctionRequest),
}

impl Request {
    /// The tenant the message is addressed to.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        match self {
            Request::Quote(q) => q.tenant,
            Request::Observe(o) => o.tenant,
            Request::Auction(a) => a.tenant,
        }
    }
}

/// Admission receipt for a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Global submission sequence number; responses echo it.
    pub seq: u64,
    /// The tenant the request was addressed to.
    pub tenant: TenantId,
    /// The shard the request was queued on.
    pub shard: usize,
}

/// What the shard produced for one queued request.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// The quote for a [`Request::Quote`].
    Quoted(Quote),
    /// The closed round for a [`Request::Observe`].
    Observed(ObservedRound),
    /// The settled round for a [`Request::Auction`].
    Cleared(ClearedRound),
    /// The request could not be served (e.g. an observe with no open round).
    Failed(RequestError),
}

/// A served request, returned by [`crate::MarketService::drain`] in
/// deterministic (shard, submission) order.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Sequence number of the ticket this answers.
    pub seq: u64,
    /// The tenant the request was addressed to.
    pub tenant: TenantId,
    /// The shard that served it.
    pub shard: usize,
    /// The result.
    pub payload: Payload,
}

impl Response {
    /// The quote, when this response answered a [`Request::Quote`].
    #[must_use]
    pub fn quote(&self) -> Option<&Quote> {
        match &self.payload {
            Payload::Quoted(quote) => Some(quote),
            _ => None,
        }
    }

    /// The closed round, when this response answered a
    /// [`Request::Observe`].
    #[must_use]
    pub fn observed(&self) -> Option<&ObservedRound> {
        match &self.payload {
            Payload::Observed(round) => Some(round),
            _ => None,
        }
    }

    /// The settled round, when this response answered a
    /// [`Request::Auction`].
    #[must_use]
    pub fn cleared(&self) -> Option<&ClearedRound> {
        match &self.payload {
            Payload::Cleared(cleared) => Some(cleared),
            _ => None,
        }
    }
}

/// A request that reached its shard but could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// An [`OutcomeReport`] arrived while the tenant had no open quote.
    NoOpenRound,
    /// The request kind does not match the tenant's market: an auction
    /// round addressed a posted-price tenant, or a quote/outcome addressed
    /// an auction tenant.
    MarketMismatch,
    /// A quote addressed a privacy tenant whose sellable supply is gone:
    /// every owner the query weights has exhausted her privacy budget, so
    /// there is nothing left to price.
    BudgetExhausted,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::NoOpenRound => write!(f, "no open round to observe"),
            RequestError::MarketMismatch => {
                write!(f, "request kind does not match the tenant's market")
            }
            RequestError::BudgetExhausted => {
                write!(
                    f,
                    "every weighted data owner has exhausted her privacy budget"
                )
            }
        }
    }
}

/// Errors of the service control plane (registration, admission, snapshot).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The service sizing is unusable (zero shards or a zero queue
    /// capacity).  Rejected at construction — a zero capacity would
    /// otherwise shed *every* request, and silently clamping it hid
    /// misconfigured deployments.
    InvalidConfig(String),
    /// A tenant with this id is already registered.
    DuplicateTenant(TenantId),
    /// The request addressed a tenant the service does not know.
    UnknownTenant(TenantId),
    /// The tenant's shard queue is full: the request is **shed**, not
    /// queued — the bounded-queue admission policy under overload.
    QueueFull {
        /// The shard whose queue overflowed.
        shard: usize,
        /// The configured per-shard capacity.
        capacity: usize,
    },
    /// A snapshot was requested while requests were still queued or rounds
    /// still open; drain (and close) them first.
    PendingWork {
        /// Requests still sitting in shard queues.
        queued: usize,
        /// Tenants with a quoted-but-unobserved round.
        open_rounds: usize,
    },
    /// A snapshot document did not match the expected schema.
    MalformedSnapshot(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidConfig(message) => {
                write!(f, "invalid service config: {message}")
            }
            ServiceError::DuplicateTenant(t) => write!(f, "{t} is already registered"),
            ServiceError::UnknownTenant(t) => write!(f, "{t} is not registered"),
            ServiceError::QueueFull { shard, capacity } => {
                write!(
                    f,
                    "shard {shard} queue is full (capacity {capacity}); request shed"
                )
            }
            ServiceError::PendingWork {
                queued,
                open_rounds,
            } => write!(
                f,
                "cannot snapshot with pending work ({queued} queued requests, \
                 {open_rounds} open rounds)"
            ),
            ServiceError::MalformedSnapshot(message) => {
                write!(f, "malformed snapshot: {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_exposes_its_tenant() {
        let quote = Request::Quote(QueryRequest {
            tenant: TenantId(3),
            features: Vector::from_slice(&[1.0]),
            reserve_price: 0.0,
        });
        assert_eq!(quote.tenant(), TenantId(3));
        let observe = Request::Observe(OutcomeReport {
            tenant: TenantId(4),
            accepted: true,
            market_value: None,
        });
        assert_eq!(observe.tenant(), TenantId(4));
    }

    #[test]
    fn errors_render_actionable_messages() {
        let shed = ServiceError::QueueFull {
            shard: 2,
            capacity: 64,
        };
        let message = shed.to_string();
        assert!(message.contains("shard 2"), "{message}");
        assert!(message.contains("shed"), "{message}");
        assert!(ServiceError::UnknownTenant(TenantId(9))
            .to_string()
            .contains("tenant-9"));
        assert!(RequestError::NoOpenRound.to_string().contains("open round"));
    }
}
