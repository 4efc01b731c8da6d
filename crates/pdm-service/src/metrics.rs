//! Per-shard serving metrics.
//!
//! Each shard counts what it served (quotes, observations, sales), what it
//! earned (revenue), how much it may have left on the table (exact regret
//! when the workload supplies ground truth, the uncertainty-width *proxy*
//! always), what it refused (shed and rejected requests), how its
//! drift-aware tenants reacted to a moving market (surprisal-detector
//! firings and knowledge-set restarts), and how fast it was (an all-time
//! mean/min/max summary of per-request service latency).
//!
//! Auction tenants report through the same ledger: the nested
//! [`AuctionLedger`] counts settled rounds, sales, reserve hits, clearing
//! revenue, allocative welfare, and the second-price-no-reserve baseline —
//! the figures the `bench auction` workload and the reserve-uplift
//! dashboards read per shard.
//!
//! Everything except the latency figures is **deterministic**: counts and
//! monetary sums depend only on the request stream, never on thread timing,
//! which is what lets `bench serve` compare worker counts byte for byte.
//! Latency is wall-clock and lives strictly apart.  Its quantiles come from
//! the [`LATENCY_HISTOGRAM`] wall histogram of each shard's `pdm-obs`
//! registry, which merges exactly across shards and runs and holds a fixed
//! number of buckets however many requests it has seen.

use pdm_auction::AuctionLedger;
use pdm_linalg::OnlineStats;
use std::time::Duration;

/// Name of the per-request service-latency histogram (wall-clock
/// nanoseconds, one observation per request) in every shard registry and
/// so in [`crate::MarketService::scrape`].  Read quantiles off it with
/// [`pdm_obs::LogHistogram::quantile`].
pub const LATENCY_HISTOGRAM: &str = "shard.request.wall_nanos";

/// Counters and the latency summary of one shard (or of a whole service,
/// after [`ShardMetrics::merge`]).
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Price quotes served.
    pub quotes_served: u64,
    /// Outcome reports applied.
    pub observations: u64,
    /// Accepted quotes (sales).
    pub sales: u64,
    /// Cumulative revenue from accepted quotes.
    pub revenue: f64,
    /// Exact cumulative regret, accumulated only from outcomes that carried
    /// a ground-truth market value.
    pub regret: f64,
    /// Cumulative quote uncertainty width — the regret proxy that needs no
    /// ground truth (it shrinks as each tenant's knowledge set converges).
    pub regret_proxy: f64,
    /// Requests shed at admission because the shard queue was full.
    pub shed: u64,
    /// Requests that reached the shard but could not be served (e.g. an
    /// observe with no open round, or a request whose kind does not match
    /// the tenant's market).
    pub rejected: u64,
    /// The auction side of the shard: settled rounds, sales, reserve hits,
    /// clearing revenue, welfare, and the no-reserve baseline.  All zero on
    /// a shard serving only posted-price tenants.
    pub auction: AuctionLedger,
    /// Drift-detector firings across the shard's tenants (restart-policy
    /// tenants only; deterministic — the detector sees only the request
    /// stream).
    pub drift_fires: u64,
    /// Knowledge-set restarts performed across the shard's tenants.
    pub drift_restarts: u64,
    /// Tenant sessions paged out of the resident set by the cold-tenant
    /// pager (deterministic for a given request stream: the LRU order
    /// depends only on the per-shard serve sequence).
    pub evictions: u64,
    /// Paged-out tenant sessions materialised back in to serve a request.
    pub rehydrations: u64,
    /// Total privacy leakage ε debited across the shard's privacy tenants
    /// (sold queries only; deterministic — debits accumulate in FIFO serve
    /// order).
    pub epsilon_spent: f64,
    /// Total compensation accrued to data owners across the shard's
    /// privacy tenants (sold queries only).
    pub compensation_paid: f64,
    /// Data owners retired because a query's leakage exceeded their
    /// remaining budget.  Monotone: exhaustion is sticky.
    pub owners_exhausted: u64,
    /// Privacy quotes refused because every weighted owner was exhausted —
    /// the sellable supply was gone ([`crate::RequestError::BudgetExhausted`]).
    pub privacy_throttled: u64,
    /// Posted prices clamped down to the arbitrage-free ceiling
    /// ([`crate::ledger::ARBITRAGE_PRICE_MARKUP`] × total compensation).
    pub arbitrage_clamps: u64,
    /// Streaming all-time summary of per-request service latency, in
    /// microseconds (wall-clock; excluded from all determinism
    /// comparisons).
    latency_stats: OnlineStats,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardMetrics {
    /// An empty metrics ledger.
    #[must_use]
    pub fn new() -> Self {
        Self {
            quotes_served: 0,
            observations: 0,
            sales: 0,
            revenue: 0.0,
            regret: 0.0,
            regret_proxy: 0.0,
            shed: 0,
            rejected: 0,
            auction: AuctionLedger::default(),
            drift_fires: 0,
            drift_restarts: 0,
            evictions: 0,
            rehydrations: 0,
            epsilon_spent: 0.0,
            compensation_paid: 0.0,
            owners_exhausted: 0,
            privacy_throttled: 0,
            arbitrage_clamps: 0,
            latency_stats: OnlineStats::new(),
        }
    }

    /// Fraction of sold auction rounds whose price was set by the reserve
    /// rather than the second bid (zero before any auction sale) — the
    /// per-shard **reserve hit-rate**.
    #[must_use]
    pub fn reserve_hit_rate(&self) -> f64 {
        self.auction.reserve_hit_rate()
    }

    /// Fraction of settled rounds that ended in a sale (zero before any
    /// round).
    ///
    /// Auction rounds settle in one request without touching
    /// `observations`, so the denominator is `observations +
    /// auction.auctions` and the numerator `sales + auction.sales` —
    /// counting only posted-price rounds used to report a hard 0% on
    /// auction-only shards no matter how much they sold.
    #[must_use]
    pub fn accept_rate(&self) -> f64 {
        let rounds = self.observations + self.auction.auctions;
        if rounds == 0 {
            0.0
        } else {
            (self.sales + self.auction.sales) as f64 / rounds as f64
        }
    }

    /// Fraction of admission attempts that were shed (zero before any
    /// traffic).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        let attempts = self.quotes_served
            + self.observations
            + self.auction.auctions
            + self.rejected
            + self.shed;
        if attempts == 0 {
            0.0
        } else {
            self.shed as f64 / attempts as f64
        }
    }

    /// Records one request's service time.
    pub fn record_latency(&mut self, elapsed: Duration) {
        self.latency_stats.push(elapsed.as_secs_f64() * 1e6);
    }

    /// Records the service time of a batch of `count` requests drained in
    /// one go: the batch wall-clock is split evenly, counting as `count`
    /// samples of the per-request share, folded in O(1).  A `count` of zero
    /// is a no-op.
    pub fn record_latency_batch(&mut self, elapsed: Duration, count: usize) {
        if count == 0 {
            return;
        }
        let micros = elapsed.as_secs_f64() * 1e6 / count as f64;
        self.latency_stats.merge(&OnlineStats::from_raw_parts(
            count as u64,
            micros,
            0.0,
            micros * count as f64,
            micros,
            micros,
        ));
    }

    /// Streaming all-time mean/min/max summary of the service latency.
    #[must_use]
    pub fn latency_stats(&self) -> &OnlineStats {
        &self.latency_stats
    }

    /// Accumulates another ledger into this one (used to roll shards up
    /// into service-level totals).
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.quotes_served += other.quotes_served;
        self.observations += other.observations;
        self.sales += other.sales;
        self.revenue += other.revenue;
        self.regret += other.regret;
        self.regret_proxy += other.regret_proxy;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.auction.merge(&other.auction);
        self.drift_fires += other.drift_fires;
        self.drift_restarts += other.drift_restarts;
        self.evictions += other.evictions;
        self.rehydrations += other.rehydrations;
        self.epsilon_spent += other.epsilon_spent;
        self.compensation_paid += other.compensation_paid;
        self.owners_exhausted += other.owners_exhausted;
        self.privacy_throttled += other.privacy_throttled;
        self.arbitrage_clamps += other.arbitrage_clamps;
        self.latency_stats.merge(&other.latency_stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_report_zero_rates_and_no_latency() {
        let metrics = ShardMetrics::new();
        assert_eq!(metrics.latency_stats().count(), 0);
        assert_eq!(metrics.accept_rate(), 0.0);
        assert_eq!(metrics.shed_rate(), 0.0);
    }

    #[test]
    fn a_latency_batch_counts_one_even_share_per_request() {
        let mut batched = ShardMetrics::new();
        batched.record_latency_batch(Duration::from_micros(300), 3);
        batched.record_latency_batch(Duration::from_micros(50), 0);
        let mut single = ShardMetrics::new();
        for _ in 0..3 {
            single.record_latency(Duration::from_micros(100));
        }
        for stats in [batched.latency_stats(), single.latency_stats()] {
            assert_eq!(stats.count(), 3);
            assert!((stats.mean() - 100.0).abs() < 1e-9);
            assert!((stats.min() - 100.0).abs() < 1e-9);
            assert!((stats.max() - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rates_and_merge() {
        let mut a = ShardMetrics::new();
        a.quotes_served = 10;
        a.observations = 10;
        a.sales = 7;
        a.revenue = 70.0;
        a.shed = 5;
        let mut b = ShardMetrics::new();
        b.quotes_served = 2;
        b.observations = 2;
        b.sales = 1;
        b.revenue = 8.0;
        b.record_latency(Duration::from_micros(50));

        assert!((a.accept_rate() - 0.7).abs() < 1e-12);
        assert!((a.shed_rate() - 5.0 / 25.0).abs() < 1e-12);

        a.merge(&b);
        assert_eq!(a.quotes_served, 12);
        assert_eq!(a.sales, 8);
        assert!((a.revenue - 78.0).abs() < 1e-12);
        assert_eq!(a.latency_stats().count(), 1);
    }

    #[test]
    fn accept_and_shed_rates_count_auction_rounds_as_settled_attempts() {
        // Regression: auction rounds settle without touching
        // `observations`, so a pure-auction shard used to report a 0%
        // accept rate (and its shed rate was computed against an attempt
        // count that ignored the settled rounds).
        let mut m = ShardMetrics::new();
        m.auction.auctions = 20;
        m.auction.sales = 15;
        assert!(
            (m.accept_rate() - 0.75).abs() < 1e-12,
            "pure-auction accept rate must be auction sales / auction rounds, got {}",
            m.accept_rate()
        );
        m.shed = 20;
        // Attempts = 20 settled auctions + 20 shed.
        assert!((m.shed_rate() - 0.5).abs() < 1e-12);

        // Mixed traffic folds both markets into one rate.
        m.observations = 20;
        m.sales = 5;
        assert!((m.accept_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drift_counters_merge() {
        let mut a = ShardMetrics::new();
        a.drift_fires = 3;
        a.drift_restarts = 2;
        let mut b = ShardMetrics::new();
        b.drift_fires = 1;
        b.drift_restarts = 1;
        a.merge(&b);
        assert_eq!(a.drift_fires, 4);
        assert_eq!(a.drift_restarts, 3);
    }

    #[test]
    fn paging_counters_merge() {
        let mut a = ShardMetrics::new();
        a.evictions = 4;
        a.rehydrations = 3;
        let mut b = ShardMetrics::new();
        b.evictions = 2;
        b.rehydrations = 1;
        a.merge(&b);
        assert_eq!(a.evictions, 6);
        assert_eq!(a.rehydrations, 4);
    }

    #[test]
    fn privacy_counters_merge() {
        let mut a = ShardMetrics::new();
        a.epsilon_spent = 1.5;
        a.compensation_paid = 0.25;
        a.owners_exhausted = 3;
        a.privacy_throttled = 2;
        a.arbitrage_clamps = 1;
        let mut b = ShardMetrics::new();
        b.epsilon_spent = 0.5;
        b.compensation_paid = 0.75;
        b.owners_exhausted = 1;
        b.privacy_throttled = 4;
        b.arbitrage_clamps = 2;
        a.merge(&b);
        assert!((a.epsilon_spent - 2.0).abs() < 1e-12);
        assert!((a.compensation_paid - 1.0).abs() < 1e-12);
        assert_eq!(a.owners_exhausted, 4);
        assert_eq!(a.privacy_throttled, 6);
        assert_eq!(a.arbitrage_clamps, 3);
    }

    #[test]
    fn auction_ledger_merges_and_reports_the_hit_rate() {
        let mut a = ShardMetrics::new();
        a.auction.auctions = 10;
        a.auction.sales = 8;
        a.auction.reserve_hits = 2;
        a.auction.revenue = 16.0;
        a.auction.welfare = 20.0;
        a.auction.baseline_revenue = 12.0;
        assert!((a.reserve_hit_rate() - 0.25).abs() < 1e-12);
        // Auction rounds count as admission attempts in the shed rate.
        a.shed = 10;
        assert!((a.shed_rate() - 0.5).abs() < 1e-12);

        let mut b = ShardMetrics::new();
        b.auction.auctions = 5;
        b.auction.sales = 4;
        b.auction.reserve_hits = 4;
        a.merge(&b);
        assert_eq!(a.auction.auctions, 15);
        assert_eq!(a.auction.sales, 12);
        assert_eq!(a.auction.reserve_hits, 6);
        assert!((a.reserve_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(ShardMetrics::new().reserve_hit_rate(), 0.0);
    }
}
