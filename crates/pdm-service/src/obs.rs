//! Service-side wiring of the `pdm-obs` observability layer.
//!
//! Placement follows the engine's locking model: each [`crate::shard::Shard`]
//! owns a [`ShardObs`] — a private [`MetricRegistry`] plus the pre-registered
//! span handles for its serving stages — mutated only by the worker holding
//! that shard's lock, so recording on the hot path takes no lock at all.  The
//! service itself owns a [`ServiceObs`] for the stages that run outside any
//! one shard (WAL checkpoints, restores) and the bounded post-mortem event
//! journal.  [`crate::MarketService::scrape`] clones the service registry,
//! folds every shard registry in shard-index order, exports the aggregate
//! [`ShardMetrics`] ledger as named counters, and sets the point-in-time
//! gauges — producing one merged registry whose deterministic half is a pure
//! function of the request stream, independent of worker count.
//!
//! The registry is process-local scratch: it is **not** persisted by
//! snapshots or the WAL, and a restored service starts with an empty one.
//! The serving counters survive anyway because their source of truth is the
//! [`ShardMetrics`] ledger, which *is* persisted — the export below simply
//! re-reads it at every scrape.

use crate::metrics::{ShardMetrics, LATENCY_HISTOGRAM};
use pdm_obs::{EventJournal, HistId, MetricRegistry, SpanId};

/// Events retained by the service's post-mortem journal.
pub(crate) const JOURNAL_CAPACITY: usize = 256;

/// Per-shard observability state: the shard's registry and the span handles
/// of every stage its serving loop times.  Lives behind the shard lock.
#[derive(Debug)]
pub(crate) struct ShardObs {
    pub(crate) registry: MetricRegistry,
    /// Ingest-stripe → shard-FIFO transfers (work = requests moved).
    pub(crate) transfer: SpanId,
    /// Whole-queue drains (work = requests served; reuses the drain's
    /// existing single latency measurement, adding no clock reads).
    pub(crate) drain: SpanId,
    /// Posted-price fused quote→observe segments (work = segment length)
    /// and privacy quotes (work = 1 each).
    pub(crate) quote: SpanId,
    /// Privacy outcome observations, settle included (work = 1 each).
    pub(crate) observe: SpanId,
    /// The owner-ledger settlement sub-step of a privacy observe.
    pub(crate) settle: SpanId,
    /// Self-contained auction rounds (work = bids in the round).
    pub(crate) auction: SpanId,
    /// Per-request service latency ([`LATENCY_HISTOGRAM`]): each drain's
    /// wall-clock split evenly over its requests.
    pub(crate) latency: HistId,
}

impl ShardObs {
    pub(crate) fn new() -> Self {
        let mut registry = MetricRegistry::new();
        let transfer = registry.span(
            "ingest.transfer",
            "Ingest-stripe to shard-FIFO queue transfers",
        );
        let drain = registry.span("shard.drain", "Whole-queue shard drains");
        let quote = registry.span(
            "shard.quote",
            "Posted-price serve segments and privacy quotes",
        );
        let observe = registry.span("shard.observe", "Privacy outcome observations");
        let settle = registry.span(
            "ledger.settle",
            "Privacy charge settlements against owner ledgers",
        );
        let auction = registry.span("shard.auction", "Self-contained auction rounds");
        let latency = registry.wall_histogram(
            LATENCY_HISTOGRAM,
            "Per-request service latency: each drain's wall-clock split evenly over its \
             requests (nanoseconds)",
        );
        Self {
            registry,
            transfer,
            drain,
            quote,
            observe,
            settle,
            auction,
            latency,
        }
    }
}

/// Service-level observability state: spans for the stages that run outside
/// any one shard, plus the bounded post-mortem event journal.
#[derive(Debug)]
pub(crate) struct ServiceObs {
    pub(crate) registry: MetricRegistry,
    /// Incremental WAL checkpoints (work = segments emitted).
    pub(crate) checkpoint: SpanId,
    /// WAL replays on top of a base snapshot (work = segments replayed).
    pub(crate) restore: SpanId,
    /// Last [`JOURNAL_CAPACITY`] notable events (checkpoints, restores).
    pub(crate) journal: EventJournal,
}

impl ServiceObs {
    pub(crate) fn new() -> Self {
        let mut registry = MetricRegistry::new();
        let checkpoint = registry.span("wal.checkpoint", "Incremental WAL checkpoints");
        let restore = registry.span("wal.restore", "WAL segment replays over a base snapshot");
        Self {
            registry,
            checkpoint,
            restore,
            journal: EventJournal::with_capacity(JOURNAL_CAPACITY),
        }
    }
}

/// Exports one (typically aggregated) [`ShardMetrics`] ledger into `registry`
/// as named counters — the exposition view of the ledger.  The ledger stays
/// the source of truth (it is what snapshots persist and the fingerprint
/// covers); the export re-derives the counters at every scrape, so the two
/// can never drift apart.
pub(crate) fn export_shard_metrics(registry: &mut MetricRegistry, metrics: &ShardMetrics) {
    fn add(registry: &mut MetricRegistry, name: &str, help: &str, value: f64) {
        let id = registry.counter(name, help);
        registry.inc(id, value);
    }
    add(
        registry,
        "quotes_served_total",
        "Price quotes served",
        metrics.quotes_served as f64,
    );
    add(
        registry,
        "observations_total",
        "Outcome reports applied",
        metrics.observations as f64,
    );
    add(
        registry,
        "sales_total",
        "Accepted quotes",
        metrics.sales as f64,
    );
    add(
        registry,
        "revenue_total",
        "Cumulative revenue from accepted quotes",
        metrics.revenue,
    );
    add(
        registry,
        "regret_total",
        "Exact cumulative regret (ground-truth outcomes only)",
        metrics.regret,
    );
    add(
        registry,
        "regret_proxy_total",
        "Cumulative quote uncertainty width",
        metrics.regret_proxy,
    );
    add(
        registry,
        "shed_total",
        "Requests shed at admission (queue full)",
        metrics.shed as f64,
    );
    add(
        registry,
        "rejected_total",
        "Requests that reached a shard but could not be served",
        metrics.rejected as f64,
    );
    add(
        registry,
        "drift_fires_total",
        "Drift-detector firings",
        metrics.drift_fires as f64,
    );
    add(
        registry,
        "drift_restarts_total",
        "Knowledge-set restarts",
        metrics.drift_restarts as f64,
    );
    add(
        registry,
        "evictions_total",
        "Tenant sessions paged out by the cold-tenant pager",
        metrics.evictions as f64,
    );
    add(
        registry,
        "rehydrations_total",
        "Paged-out tenant sessions materialised back in",
        metrics.rehydrations as f64,
    );
    add(
        registry,
        "epsilon_spent_total",
        "Privacy leakage debited across privacy tenants",
        metrics.epsilon_spent,
    );
    add(
        registry,
        "compensation_paid_total",
        "Compensation accrued to data owners",
        metrics.compensation_paid,
    );
    add(
        registry,
        "owners_exhausted_total",
        "Data owners retired on budget exhaustion",
        metrics.owners_exhausted as f64,
    );
    add(
        registry,
        "privacy_throttled_total",
        "Privacy quotes refused for exhausted supply",
        metrics.privacy_throttled as f64,
    );
    add(
        registry,
        "arbitrage_clamps_total",
        "Posted prices clamped to the arbitrage-free ceiling",
        metrics.arbitrage_clamps as f64,
    );
    add(
        registry,
        "auction.rounds_total",
        "Auction rounds settled",
        metrics.auction.auctions as f64,
    );
    add(
        registry,
        "auction.sales_total",
        "Auction rounds that sold",
        metrics.auction.sales as f64,
    );
    add(
        registry,
        "auction.reserve_hits_total",
        "Sold auction rounds priced by the reserve",
        metrics.auction.reserve_hits as f64,
    );
    add(
        registry,
        "auction.revenue_total",
        "Cumulative auction clearing revenue",
        metrics.auction.revenue,
    );
    add(
        registry,
        "auction.welfare_total",
        "Cumulative allocative welfare (winning bids)",
        metrics.auction.welfare,
    );
    add(
        registry,
        "auction.baseline_revenue_total",
        "Second-price-no-reserve baseline revenue",
        metrics.auction.baseline_revenue,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_covers_the_ledger_and_rereads_cleanly() {
        let mut metrics = ShardMetrics::new();
        metrics.quotes_served = 7;
        metrics.revenue = 3.5;
        metrics.epsilon_spent = 0.25;
        metrics.auction.auctions = 2;
        metrics.auction.revenue = 1.5;

        let mut registry = MetricRegistry::new();
        export_shard_metrics(&mut registry, &metrics);
        assert_eq!(registry.counter_value("quotes_served_total"), Some(7.0));
        assert_eq!(registry.counter_value("revenue_total"), Some(3.5));
        assert_eq!(registry.counter_value("epsilon_spent_total"), Some(0.25));
        assert_eq!(registry.counter_value("auction.rounds_total"), Some(2.0));
        assert_eq!(registry.counter_value("auction.revenue_total"), Some(1.5));

        // Scrapes export into a fresh merge each time, so a second export
        // into a fresh registry reads the same values, not doubled ones.
        let mut again = MetricRegistry::new();
        export_shard_metrics(&mut again, &metrics);
        assert_eq!(
            again.to_json(true).render(),
            registry.to_json(true).render()
        );
    }
}
