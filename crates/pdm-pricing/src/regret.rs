//! Regret accounting (Eq. 1, Fig. 1, and the regret-ratio metric of
//! Section V).
//!
//! The single-round regret of a posted price `p` against a market value `v`
//! under reserve price `q` is
//!
//! ```text
//! R = 0                      if q > v            (the query could never sell)
//! R = v − p · 1{p ≤ v}       otherwise
//! ```
//!
//! so a slight under-estimate of `v` costs only the gap, while a slight
//! over-estimate forfeits the entire value — the asymmetry drawn in Fig. 1.
//! [`RegretTracker`] accumulates this quantity along with the cumulative
//! market value so the *regret ratio* `Σ R_t / Σ v_t` of Fig. 5 can be
//! reported at any checkpoint.

use pdm_linalg::OnlineStats;

/// The single-round regret of Eq. (1).
///
/// `posted_price` is the price actually shown to the buyer (in market space),
/// `market_value` the buyer's value, and `reserve_price` the seller-side
/// floor. A sale happens iff `posted_price <= market_value`.
#[must_use]
pub fn single_round_regret(posted_price: f64, market_value: f64, reserve_price: f64) -> f64 {
    if reserve_price > market_value {
        return 0.0;
    }
    if posted_price <= market_value {
        market_value - posted_price
    } else {
        market_value
    }
}

/// Whether a posted price is accepted by a buyer with the given value.
#[must_use]
pub fn is_accepted(posted_price: f64, market_value: f64) -> bool {
    posted_price <= market_value
}

/// Per-round record retained by the tracker when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Round index (1-based, like the paper's `t`).
    pub round: usize,
    /// Market value `v_t`.
    pub market_value: f64,
    /// Reserve price `q_t`.
    pub reserve_price: f64,
    /// Posted price `p_t`.
    pub posted_price: f64,
    /// Whether the buyer accepted.
    pub accepted: bool,
    /// Single-round regret `R_t`.
    pub regret: f64,
}

/// Aggregated regret statistics for a finished (or in-progress) simulation.
#[derive(Debug, Clone)]
pub struct RegretReport {
    /// Number of rounds recorded.
    pub rounds: usize,
    /// Cumulative regret `Σ R_t`.
    pub cumulative_regret: f64,
    /// Cumulative market value `Σ v_t`.
    pub cumulative_market_value: f64,
    /// Cumulative revenue earned by the broker `Σ p_t · 1{sale}`.
    pub cumulative_revenue: f64,
    /// Number of rounds in which a sale occurred.
    pub sales: usize,
    /// Number of rounds in which the reserve exceeded the market value (no
    /// regret is possible in those rounds).
    pub unsellable_rounds: usize,
    /// Distribution of market values (for Table I).
    pub market_value_stats: OnlineStats,
    /// Distribution of reserve prices (for Table I).
    pub reserve_price_stats: OnlineStats,
    /// Distribution of posted prices (for Table I).
    pub posted_price_stats: OnlineStats,
    /// Distribution of per-round regrets (for Table I).
    pub regret_stats: OnlineStats,
}

impl RegretReport {
    /// The regret ratio `Σ R_t / Σ v_t` (zero when no value has accrued).
    #[must_use]
    pub fn regret_ratio(&self) -> f64 {
        if self.cumulative_market_value <= 0.0 {
            0.0
        } else {
            self.cumulative_regret / self.cumulative_market_value
        }
    }

    /// Fraction of rounds that ended in a sale.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.sales as f64 / self.rounds as f64
        }
    }

    /// An empty report (zero rounds), the identity of [`RegretReport::merge`].
    #[must_use]
    pub fn empty() -> Self {
        RegretTracker::new(false).report()
    }

    /// Accumulates another report into this one: counters and cumulative
    /// sums add, the per-round distributions merge via the parallel Welford
    /// combination.
    ///
    /// This is how multi-tenant aggregates are formed: the serving engine
    /// folds every tenant's report together **in tenant order**, which keeps
    /// the floating-point sums deterministic and lets `bench serve` compare
    /// a sharded run against its serial reference bit for bit.
    pub fn merge(&mut self, other: &RegretReport) {
        self.rounds += other.rounds;
        self.cumulative_regret += other.cumulative_regret;
        self.cumulative_market_value += other.cumulative_market_value;
        self.cumulative_revenue += other.cumulative_revenue;
        self.sales += other.sales;
        self.unsellable_rounds += other.unsellable_rounds;
        self.market_value_stats.merge(&other.market_value_stats);
        self.reserve_price_stats.merge(&other.reserve_price_stats);
        self.posted_price_stats.merge(&other.posted_price_stats);
        self.regret_stats.merge(&other.regret_stats);
    }
}

/// Accumulates per-round outcomes into cumulative regret, revenue, and the
/// Table-I statistics; optionally keeps the full per-round trace.
#[derive(Debug, Clone)]
pub struct RegretTracker {
    rounds: usize,
    cumulative_regret: f64,
    cumulative_market_value: f64,
    cumulative_revenue: f64,
    sales: usize,
    unsellable_rounds: usize,
    market_value_stats: OnlineStats,
    reserve_price_stats: OnlineStats,
    posted_price_stats: OnlineStats,
    regret_stats: OnlineStats,
    keep_trace: bool,
    trace: Vec<RoundOutcome>,
}

impl Default for RegretTracker {
    fn default() -> Self {
        Self::new(false)
    }
}

impl RegretTracker {
    /// Rebuilds a tracker from a previously captured [`RegretReport`] — the
    /// persistence path (`pdm-service` snapshots).  The restored tracker
    /// continues accumulating bit-identically to the original; the full
    /// per-round trace is not part of a report, so a restored tracker never
    /// traces.
    #[must_use]
    pub fn from_report(report: &RegretReport) -> Self {
        Self {
            rounds: report.rounds,
            cumulative_regret: report.cumulative_regret,
            cumulative_market_value: report.cumulative_market_value,
            cumulative_revenue: report.cumulative_revenue,
            sales: report.sales,
            unsellable_rounds: report.unsellable_rounds,
            market_value_stats: report.market_value_stats.clone(),
            reserve_price_stats: report.reserve_price_stats.clone(),
            posted_price_stats: report.posted_price_stats.clone(),
            regret_stats: report.regret_stats.clone(),
            keep_trace: false,
            trace: Vec::new(),
        }
    }

    /// Creates a tracker; set `keep_trace` to retain every [`RoundOutcome`].
    #[must_use]
    pub fn new(keep_trace: bool) -> Self {
        Self {
            rounds: 0,
            cumulative_regret: 0.0,
            cumulative_market_value: 0.0,
            cumulative_revenue: 0.0,
            sales: 0,
            unsellable_rounds: 0,
            market_value_stats: OnlineStats::new(),
            reserve_price_stats: OnlineStats::new(),
            posted_price_stats: OnlineStats::new(),
            regret_stats: OnlineStats::new(),
            keep_trace,
            trace: Vec::new(),
        }
    }

    /// Records one round and returns its outcome record.
    pub fn record(
        &mut self,
        market_value: f64,
        reserve_price: f64,
        posted_price: f64,
    ) -> RoundOutcome {
        let accepted = is_accepted(posted_price, market_value);
        let regret = single_round_regret(posted_price, market_value, reserve_price);
        self.rounds += 1;
        self.cumulative_regret += regret;
        self.cumulative_market_value += market_value;
        if accepted {
            self.cumulative_revenue += posted_price;
            self.sales += 1;
        }
        if reserve_price > market_value {
            self.unsellable_rounds += 1;
        }
        self.market_value_stats.push(market_value);
        self.reserve_price_stats.push(reserve_price);
        self.posted_price_stats.push(posted_price);
        self.regret_stats.push(regret);
        let outcome = RoundOutcome {
            round: self.rounds,
            market_value,
            reserve_price,
            posted_price,
            accepted,
            regret,
        };
        if self.keep_trace {
            self.trace.push(outcome);
        }
        outcome
    }

    /// Number of rounds recorded so far.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Cumulative regret so far.
    #[must_use]
    pub fn cumulative_regret(&self) -> f64 {
        self.cumulative_regret
    }

    /// Cumulative market value so far.
    #[must_use]
    pub fn cumulative_market_value(&self) -> f64 {
        self.cumulative_market_value
    }

    /// Cumulative broker revenue so far.
    #[must_use]
    pub fn cumulative_revenue(&self) -> f64 {
        self.cumulative_revenue
    }

    /// Current regret ratio `Σ R_t / Σ v_t`.
    #[must_use]
    pub fn regret_ratio(&self) -> f64 {
        if self.cumulative_market_value <= 0.0 {
            0.0
        } else {
            self.cumulative_regret / self.cumulative_market_value
        }
    }

    /// The retained per-round trace (empty unless tracing was enabled).
    #[must_use]
    pub fn trace(&self) -> &[RoundOutcome] {
        &self.trace
    }

    /// Produces the aggregate report.
    #[must_use]
    pub fn report(&self) -> RegretReport {
        RegretReport {
            rounds: self.rounds,
            cumulative_regret: self.cumulative_regret,
            cumulative_market_value: self.cumulative_market_value,
            cumulative_revenue: self.cumulative_revenue,
            sales: self.sales,
            unsellable_rounds: self.unsellable_rounds,
            market_value_stats: self.market_value_stats.clone(),
            reserve_price_stats: self.reserve_price_stats.clone(),
            posted_price_stats: self.posted_price_stats.clone(),
            regret_stats: self.regret_stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_is_zero_when_reserve_exceeds_value() {
        // Fig. 1, left of the reserve price: nothing could ever sell.
        assert_eq!(single_round_regret(5.0, 1.0, 2.0), 0.0);
        assert_eq!(single_round_regret(0.5, 1.0, 2.0), 0.0);
    }

    #[test]
    fn underpricing_costs_the_gap() {
        // v = 10, posted 8, reserve 1: sale happens, regret 2.
        assert_eq!(single_round_regret(8.0, 10.0, 1.0), 2.0);
        // Posting exactly the value is optimal.
        assert_eq!(single_round_regret(10.0, 10.0, 1.0), 0.0);
    }

    #[test]
    fn overpricing_forfeits_the_whole_value() {
        // v = 10, posted 10.01: no sale, regret 10 (the Fig. 1 cliff).
        assert_eq!(single_round_regret(10.01, 10.0, 1.0), 10.0);
    }

    #[test]
    fn regret_function_shape_matches_fig1() {
        // Sweep the posted price across [q, v·1.5] and verify the piecewise
        // shape: decreasing to 0 at p = v, then jumping to v.
        let v = 4.0;
        let q = 1.0;
        let mut last = f64::INFINITY;
        let mut p = q;
        while p <= v {
            let r = single_round_regret(p, v, q);
            assert!(
                r <= last + 1e-12,
                "regret must decrease as p grows toward v"
            );
            last = r;
            p += 0.1;
        }
        assert_eq!(single_round_regret(v + 1e-6, v, q), v);
    }

    #[test]
    fn tracker_accumulates_and_reports() {
        let mut tracker = RegretTracker::new(true);
        tracker.record(10.0, 1.0, 8.0); // sale, regret 2
        tracker.record(10.0, 1.0, 11.0); // no sale, regret 10
        tracker.record(1.0, 2.0, 2.0); // reserve above value: no regret, no sale
        assert_eq!(tracker.rounds(), 3);
        assert_eq!(tracker.cumulative_regret(), 12.0);
        assert_eq!(tracker.cumulative_market_value(), 21.0);
        assert_eq!(tracker.cumulative_revenue(), 8.0);
        let report = tracker.report();
        assert_eq!(report.sales, 1);
        assert_eq!(report.unsellable_rounds, 1);
        assert!((report.regret_ratio() - 12.0 / 21.0).abs() < 1e-12);
        assert!((report.acceptance_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(tracker.trace().len(), 3);
        assert!(tracker.trace()[0].accepted);
        assert!(!tracker.trace()[1].accepted);
    }

    #[test]
    fn tracker_without_trace_stays_empty() {
        let mut tracker = RegretTracker::new(false);
        tracker.record(1.0, 0.5, 0.9);
        assert!(tracker.trace().is_empty());
        assert_eq!(tracker.report().rounds, 1);
    }

    #[test]
    fn empty_report_ratios_are_zero() {
        let report = RegretTracker::new(false).report();
        assert_eq!(report.regret_ratio(), 0.0);
        assert_eq!(report.acceptance_rate(), 0.0);
    }

    #[test]
    fn merge_is_order_deterministic_and_matches_one_tracker() {
        let mut a = RegretTracker::new(false);
        a.record(10.0, 1.0, 8.0);
        a.record(4.0, 1.0, 5.0);
        let mut b = RegretTracker::new(false);
        b.record(6.0, 2.0, 3.0);

        let mut merged = RegretReport::empty();
        merged.merge(&a.report());
        merged.merge(&b.report());

        let mut single = RegretTracker::new(false);
        single.record(10.0, 1.0, 8.0);
        single.record(4.0, 1.0, 5.0);
        single.record(6.0, 2.0, 3.0);
        let single = single.report();

        assert_eq!(merged.rounds, single.rounds);
        assert_eq!(merged.cumulative_regret, single.cumulative_regret);
        assert_eq!(merged.cumulative_revenue, single.cumulative_revenue);
        assert_eq!(merged.sales, single.sales);
        assert_eq!(
            merged.market_value_stats.count(),
            single.market_value_stats.count()
        );
        assert!(
            (merged.regret_stats.mean() - single.regret_stats.mean()).abs() < 1e-12,
            "welford merge must agree with the single-pass tracker"
        );
        // Identity element.
        let before = merged.cumulative_regret;
        merged.merge(&RegretReport::empty());
        assert_eq!(merged.cumulative_regret, before);
    }

    #[test]
    fn table_one_statistics_track_distributions() {
        let mut tracker = RegretTracker::new(false);
        for i in 1..=100 {
            let v = i as f64;
            tracker.record(v, v * 0.5, v * 0.9);
        }
        let report = tracker.report();
        assert!((report.market_value_stats.mean() - 50.5).abs() < 1e-9);
        assert!((report.reserve_price_stats.mean() - 25.25).abs() < 1e-9);
        assert!((report.posted_price_stats.mean() - 45.45).abs() < 1e-9);
        assert!(report.regret_stats.mean() > 0.0);
    }
}
