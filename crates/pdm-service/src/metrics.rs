//! Per-shard serving metrics.
//!
//! Each shard counts what it served (quotes, observations, sales), what it
//! earned (revenue), how much it may have left on the table (exact regret
//! when the workload supplies ground truth, the uncertainty-width *proxy*
//! always), what it refused (shed and rejected requests), and how its
//! drift-aware tenants reacted to a moving market (surprisal-detector
//! firings and knowledge-set restarts).
//!
//! Auction tenants report through the same ledger: the nested
//! [`AuctionLedger`] counts settled rounds, sales, reserve hits, clearing
//! revenue, allocative welfare, and the second-price-no-reserve baseline —
//! the figures the `bench auction` workload and the reserve-uplift
//! dashboards read per shard.
//!
//! Every figure is **deterministic**: counts and monetary sums depend only
//! on the request stream, never on thread timing, which is what lets
//! `bench serve` compare worker counts byte for byte.  Latency is
//! wall-clock and lives strictly apart, in the [`LATENCY_HISTOGRAM`] wall
//! histogram of each shard's `pdm-obs` registry, which merges exactly
//! across shards and runs and holds a fixed number of buckets however many
//! requests it has seen.
//!
//! The ledger's fields are listed once, in [`ShardMetrics::fields`]: the
//! merge, the snapshot codec, the scrape export and the crash-cut check
//! all walk that list, so a field cannot be persisted but not exported,
//! or merged but not compared.

use pdm_auction::AuctionLedger;
use std::fmt;

/// Name of the per-request service-latency histogram (wall-clock
/// nanoseconds, one observation per request) in every shard registry and
/// so in [`crate::MarketService::scrape`].  Read quantiles off it with
/// [`pdm_obs::LogHistogram::quantile`].
pub const LATENCY_HISTOGRAM: &str = "shard.request.wall_nanos";

/// Number of fields in a [`ShardMetrics`] ledger, the auction ones included.
pub const FIELDS: usize = 23;

/// The counters of one shard (or of a whole service, after
/// [`ShardMetrics::merge`]).
#[derive(Debug, Clone, Default)]
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
}

/// What the code around a ledger needs to know about one of its fields.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// Key in a snapshot's ledger object (or in its nested `auction`
    /// object).
    pub key: &'static str,
    /// Name of the counter [`crate::MarketService::scrape`] exports.
    pub counter: &'static str,
    /// Help text of that counter.
    pub help: &'static str,
    /// Whether the key sits in the snapshot's nested `auction` object.
    pub nested: bool,
    /// Whether a snapshot must carry the key.  The v1 and auction keys
    /// must; the keys added in schema v3–v5 read as zero when absent.
    pub required: bool,
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nested {
            f.write_str("auction.")?;
        }
        f.write_str(self.key)
    }
}

/// The value of one ledger field.
#[derive(Debug, Clone, Copy)]
pub enum Figure {
    /// An event count.
    Count(u64),
    /// A money (or privacy-leakage) sum.
    Money(f64),
}

impl Figure {
    /// The value as the number snapshots and counters carry.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Figure::Count(count) => count as f64,
            Figure::Money(money) => money,
        }
    }

    /// The value's bits: two ledgers agree on a field when these match.
    #[must_use]
    pub fn to_bits(self) -> u64 {
        match self {
            Figure::Count(count) => count,
            Figure::Money(money) => money.to_bits(),
        }
    }
}

/// A mutable handle on one ledger field.
#[derive(Debug)]
pub(crate) enum Slot<'a> {
    Count(&'a mut u64),
    Money(&'a mut f64),
}

impl<'a> Slot<'a> {
    /// A schema-v1 field: a snapshot must carry it.
    fn required(self, key: &'static str, counter: &'static str, help: &'static str) -> Entry<'a> {
        self.entry(key, counter, help, false, true)
    }

    /// A field added in schema v3–v5: it reads as zero when absent.
    fn optional(self, key: &'static str, counter: &'static str, help: &'static str) -> Entry<'a> {
        self.entry(key, counter, help, false, false)
    }

    /// A field of the nested `auction` object (schema v2), which a snapshot
    /// either carries in full or not at all.
    fn nested(self, key: &'static str, counter: &'static str, help: &'static str) -> Entry<'a> {
        self.entry(key, counter, help, true, true)
    }

    fn entry(
        self,
        key: &'static str,
        counter: &'static str,
        help: &'static str,
        nested: bool,
        required: bool,
    ) -> Entry<'a> {
        let field = Field {
            key,
            counter,
            help,
            nested,
            required,
        };
        (field, self)
    }

    fn get(&self) -> Figure {
        match self {
            Slot::Count(count) => Figure::Count(**count),
            Slot::Money(money) => Figure::Money(**money),
        }
    }

    /// Adds the same field's figure from another ledger.
    fn add(self, figure: Figure) {
        match (self, figure) {
            (Slot::Count(mine), Figure::Count(theirs)) => *mine += theirs,
            (Slot::Money(mine), Figure::Money(theirs)) => *mine += theirs,
            // Two walks of the one list pair fields of the same kind.
            (Slot::Count(_), Figure::Money(_)) | (Slot::Money(_), Figure::Count(_)) => {}
        }
    }
}

/// One entry of the field list: a field's metadata beside a handle on its
/// value.
type Entry<'a> = (Field, Slot<'a>);

impl ShardMetrics {
    /// An empty metrics ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The one list of the ledger's fields, in snapshot order.
    #[rustfmt::skip]
    pub(crate) fn fields_mut(&mut self) -> [Entry<'_>; FIELDS] {
        use Slot::{Count, Money};
        let a = &mut self.auction;
        [
            Count(&mut self.quotes_served).required("quotes_served", "quotes_served_total",
                "Price quotes served"),
            Count(&mut self.observations).required("observations", "observations_total",
                "Outcome reports applied"),
            Count(&mut self.sales).required("sales", "sales_total",
                "Accepted quotes"),
            Money(&mut self.revenue).required("revenue", "revenue_total",
                "Cumulative revenue from accepted quotes"),
            Money(&mut self.regret).required("regret", "regret_total",
                "Exact cumulative regret (ground-truth outcomes only)"),
            Money(&mut self.regret_proxy).required("regret_proxy", "regret_proxy_total",
                "Cumulative quote uncertainty width"),
            Count(&mut self.shed).required("shed", "shed_total",
                "Requests shed at admission (queue full)"),
            Count(&mut self.rejected).required("rejected", "rejected_total",
                "Requests that reached a shard but could not be served"),
            Count(&mut self.drift_fires).optional("drift_fires", "drift_fires_total",
                "Drift-detector firings"),
            Count(&mut self.drift_restarts).optional("drift_restarts", "drift_restarts_total",
                "Knowledge-set restarts"),
            Count(&mut self.evictions).optional("evictions", "evictions_total",
                "Tenant sessions paged out by the cold-tenant pager"),
            Count(&mut self.rehydrations).optional("rehydrations", "rehydrations_total",
                "Paged-out tenant sessions materialised back in"),
            Money(&mut self.epsilon_spent).optional("epsilon_spent", "epsilon_spent_total",
                "Privacy leakage debited across privacy tenants"),
            Money(&mut self.compensation_paid).optional("compensation_paid",
                "compensation_paid_total", "Compensation accrued to data owners"),
            Count(&mut self.owners_exhausted).optional("owners_exhausted", "owners_exhausted_total",
                "Data owners retired on budget exhaustion"),
            Count(&mut self.privacy_throttled).optional("privacy_throttled",
                "privacy_throttled_total", "Privacy quotes refused for exhausted supply"),
            Count(&mut self.arbitrage_clamps).optional("arbitrage_clamps", "arbitrage_clamps_total",
                "Posted prices clamped to the arbitrage-free ceiling"),
            Count(&mut a.auctions).nested("auctions", "auction.rounds_total",
                "Auction rounds settled"),
            Count(&mut a.sales).nested("sales", "auction.sales_total",
                "Auction rounds that sold"),
            Count(&mut a.reserve_hits).nested("reserve_hits", "auction.reserve_hits_total",
                "Sold auction rounds priced by the reserve"),
            Money(&mut a.revenue).nested("revenue", "auction.revenue_total",
                "Cumulative auction clearing revenue"),
            Money(&mut a.welfare).nested("welfare", "auction.welfare_total",
                "Cumulative allocative welfare (winning bids)"),
            Money(&mut a.baseline_revenue).nested("baseline_revenue",
                "auction.baseline_revenue_total", "Second-price-no-reserve baseline revenue"),
        ]
    }

    /// Every field of the ledger with its value, in snapshot order.
    #[must_use]
    pub fn fields(&self) -> [(Field, Figure); FIELDS] {
        self.clone()
            .fields_mut()
            .map(|(field, slot)| (field, slot.get()))
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
    ///
    /// A refused privacy quote reaches the shard but counts only in
    /// `privacy_throttled`, so it is an attempt of its own.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        let attempts = self.quotes_served
            + self.observations
            + self.auction.auctions
            + self.rejected
            + self.privacy_throttled
            + self.shed;
        if attempts == 0 {
            0.0
        } else {
            self.shed as f64 / attempts as f64
        }
    }

    /// Accumulates another ledger into this one (used to roll shards up
    /// into service-level totals).
    pub fn merge(&mut self, other: &ShardMetrics) {
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(other.fields()) {
            mine.add(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_linalg::Json;

    #[test]
    fn empty_metrics_report_zero_rates() {
        let metrics = ShardMetrics::new();
        assert_eq!(metrics.accept_rate(), 0.0);
        assert_eq!(metrics.shed_rate(), 0.0);
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

        assert!((a.accept_rate() - 0.7).abs() < 1e-12);
        assert!((a.shed_rate() - 5.0 / 25.0).abs() < 1e-12);

        a.merge(&b);
        assert_eq!(a.quotes_served, 12);
        assert_eq!(a.sales, 8);
        assert!((a.revenue - 78.0).abs() < 1e-12);
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

        // A refused privacy quote never reaches `quotes_served` or
        // `rejected`, but it was an attempt: 4 throttled and 4 shed
        // requests shed half of the attempts.
        let mut privacy = ShardMetrics::new();
        privacy.privacy_throttled = 4;
        privacy.shed = 4;
        assert!((privacy.shed_rate() - 0.5).abs() < 1e-12);
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

    #[test]
    fn every_field_round_trips_through_the_snapshot_and_the_export() {
        // A struct literal without `..`: a new field does not compile here
        // until it gets a value, and the size check below fails until it
        // is listed.
        let ledger = ShardMetrics {
            quotes_served: 1,
            observations: 2,
            sales: 3,
            revenue: 4.5,
            regret: 5.25,
            regret_proxy: 6.125,
            shed: 7,
            rejected: 8,
            auction: AuctionLedger {
                auctions: 9,
                sales: 10,
                reserve_hits: 11,
                revenue: 12.5,
                welfare: 13.25,
                baseline_revenue: 14.125,
            },
            drift_fires: 15,
            drift_restarts: 16,
            evictions: 17,
            rehydrations: 18,
            epsilon_spent: 19.5,
            compensation_paid: 20.25,
            owners_exhausted: 21,
            privacy_throttled: 22,
            arbitrage_clamps: 23,
        };
        assert_eq!(std::mem::size_of::<ShardMetrics>(), FIELDS * 8);
        let fields = ledger.fields();
        let mut values: Vec<u64> = fields.iter().map(|(_, figure)| figure.to_bits()).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), FIELDS, "every field is listed once");
        assert!(fields.iter().all(|(_, figure)| figure.as_f64() != 0.0));

        let json = crate::snapshot::metrics_json(&ledger);
        let reread = crate::snapshot::metrics_from_json(&crate::reader::Reader::new(
            &json,
            crate::reader::Label::Numbered("shard", 0),
        ))
        .unwrap();
        for ((field, want), (_, got)) in fields.iter().zip(reread.fields()) {
            assert_eq!(want.to_bits(), got.to_bits(), "{field}");
        }

        let mut registry = pdm_obs::MetricRegistry::new();
        crate::obs::export_shard_metrics(&mut registry, &ledger);
        let exported = registry.to_json(true);
        let counters = exported.get("counters").unwrap();
        assert!(matches!(counters, Json::Obj(pairs) if pairs.len() == FIELDS));
        for (field, figure) in &fields {
            assert_eq!(
                registry.counter_value(field.counter),
                Some(figure.as_f64()),
                "{field}"
            );
        }

        // Scrapes export into a fresh merge each time, so a second export
        // into a fresh registry reads the same values, not doubled ones.
        let mut again = pdm_obs::MetricRegistry::new();
        crate::obs::export_shard_metrics(&mut again, &ledger);
        assert_eq!(again.to_json(true), exported);
    }
}
