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
//! [`ShardMetrics`] ledger as named counters (a walk over its one field
//! list, [`ShardMetrics::fields`]), and sets the point-in-time gauges —
//! producing one merged registry whose deterministic half is a pure
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
    /// Whole-queue drains (work = requests served; reuses the drain's
    /// existing single latency measurement, adding no clock reads).
    pub(crate) drain: SpanId,
    /// Posted-price same-tenant runs (work = quotes and observes in the
    /// run) and privacy quotes (work = 1 each).
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
        let drain = registry.span("shard.drain", "Whole-queue shard drains");
        let quote = registry.span(
            "shard.quote",
            "Posted-price same-tenant runs and privacy quotes",
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
/// as named counters — the exposition view of the ledger — by walking its
/// field list ([`ShardMetrics::fields`]), one counter per field.  The ledger
/// stays the source of truth (it is what snapshots persist and the
/// fingerprint covers); the export re-derives the counters at every scrape,
/// so the two can never drift apart.
pub(crate) fn export_shard_metrics(registry: &mut MetricRegistry, metrics: &ShardMetrics) {
    for (field, figure) in metrics.fields() {
        let id = registry.counter(field.counter, field.help);
        registry.inc(id, figure.as_f64());
    }
}
