//! The `bench auction` workload: the multi-bidder auction market driven
//! through the sharded [`pdm_service::MarketService`] engine.
//!
//! The grid crosses **bidder count × valuation distribution × reserve
//! policy**.  Every cell registers `tenants` auction tenants (one
//! independent bid landscape each), pumps `waves` auction rounds per tenant
//! through the service — submit one [`AuctionRequest`] per tenant,
//! [`MarketService::drain`] on the requested worker count — and then
//! **replays every tenant's round stream through a fresh serial
//! [`TenantState::serve_auction`]**, requiring the quoted reserves and
//! clearing prices to match the threaded run **bit for bit**.  Reserve
//! policy arithmetic is shared code ([`pdm_auction::run_auction_round`]),
//! so a divergence means the engine broke, and the bench fails loudly.
//!
//! Deterministic aggregates (settled rounds, sales, reserve hits, clearing
//! revenue, welfare, and the second-price-no-reserve baseline) are folded
//! **per tenant in tenant order** from the verified replay, so they are
//! byte-identical for any `--workers`; wall-clock figures (rounds/sec,
//! drain latency percentiles) live strictly apart, exactly like the serve
//! workload.
//!
//! [`MarketService::drain`]: pdm_service::MarketService::drain
//! [`TenantState::serve_auction`]: pdm_service::TenantState::serve_auction

use crate::closed_loop;
use crate::grid::derive_seed;
use crate::report::{check_stat, check_throughput, gate_tolerance, BenchReport, Column};
use crate::runner::AggStat;
use crate::table;
use crate::workload::{Cell, Rep, Workload};
use crate::Scale;
use pdm_auction::{AuctionLedger, AuctionMarket, AuctionMarketConfig, ValuationDistribution};
use pdm_linalg::Vector;
use pdm_service::{
    AuctionPolicy, AuctionRequest, Request, ServiceConfig, ShardMetrics, TenantConfig, TenantId,
    TenantState,
};
use std::time::{Duration, Instant};

/// Base seed of the auction grid; each cell derives its streams from
/// `derive_seed(AUCTION_SEED_BASE + cell_index, rep)`.
const AUCTION_SEED_BASE: u64 = 0xA0C7;

/// Floors (privacy compensation) are this fraction of the hidden base
/// value, matching the `reserve_fraction` convention of the synthetic
/// environments.
const FLOOR_FRACTION: f64 = 0.3;

/// The empirical policy's window in the grid.
const EMPIRICAL_WINDOW: usize = 64;

/// One cell of the auction grid.
#[derive(Debug, Clone)]
pub struct AuctionCellSpec {
    /// Row label, e.g. `bidders=2/dist=lognormal/policy=session`.
    pub label: String,
    /// Registered auction tenants (independent bid landscapes).
    pub tenants: usize,
    /// Bidders per round.
    pub bidders: usize,
    /// Feature dimension of the auctioned items.
    pub dim: usize,
    /// Shard count of the service.
    pub shards: usize,
    /// Auction rounds per tenant.
    pub waves: usize,
    /// The valuation distribution bidders draw from.
    pub distribution: ValuationDistribution,
    /// The reserve policy every tenant of the cell runs.
    pub policy: AuctionPolicy,
    /// Base seed of the cell's streams.
    pub seed: u64,
}

/// Wall-clock figures of one auction cell (excluded from the determinism
/// fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionPerf {
    /// End-to-end seconds for the cell (generation + service + verify).
    pub wall_clock_secs: f64,
    /// Auction rounds settled per second of drain (service) time.
    pub rounds_per_sec: f64,
    /// Mean per-request service latency in µs, over *every* request of the
    /// cell (the mean of its merged latency histogram).
    pub latency_mean_micros: f64,
    /// Median per-request service latency in µs, read off the cell's
    /// merged latency histogram (an upper bucket edge, ≤ 19% high).
    pub latency_p50_micros: f64,
    /// p99 per-request service latency in µs, from the same histogram.
    pub latency_p99_micros: f64,
}

/// Everything the BENCH v3 report records about one auction cell.
#[derive(Debug, Clone)]
pub struct AuctionCellReport {
    /// Row label (from the cell spec).
    pub label: String,
    /// Valuation-distribution name.
    pub distribution: String,
    /// Reserve-policy name (`static` / `session` / `empirical`).
    pub policy: String,
    /// Registered tenants.
    pub tenants: u64,
    /// Bidders per round.
    pub bidders: u64,
    /// Service shard count.
    pub shards: u64,
    /// Rounds per tenant per repetition.
    pub waves: u64,
    /// Repetitions aggregated.
    pub reps: u64,
    /// The service ledger, merged over repetitions: its `auction` part
    /// counts the rounds settled, the rounds sold and the sales priced by
    /// the reserve.
    pub metrics: ShardMetrics,
    /// Cumulative clearing revenue per repetition.
    pub revenue: AggStat,
    /// What second-price-with-no-reserve would have earned per repetition.
    pub baseline_revenue: AggStat,
    /// Cumulative allocative welfare per repetition.
    pub welfare: AggStat,
    /// Reserve hit-rate per repetition.
    pub hit_rate: AggStat,
    /// Wall-clock figures.
    pub perf: AuctionPerf,
}

impl AuctionCellReport {
    /// Revenue uplift over the no-reserve baseline (1.0 = no uplift;
    /// `NaN`-free: a zero baseline — e.g. single-bidder cells — reports the
    /// uplift as infinite only when revenue is positive, and 1 otherwise).
    #[must_use]
    pub fn uplift(&self) -> f64 {
        if self.baseline_revenue.mean > 0.0 {
            self.revenue.mean / self.baseline_revenue.mean
        } else if self.revenue.mean > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }

    /// Whether the cell runs a *learned* reserve policy (session or
    /// empirical — the cells the full-scale revenue gate applies to).
    #[must_use]
    pub fn is_learned_policy(&self) -> bool {
        self.policy != "static"
    }
}

/// The reserve policies of the grid, in column order.
#[must_use]
pub fn grid_policies() -> [AuctionPolicy; 3] {
    [
        AuctionPolicy::Static { markup: 0.0 },
        AuctionPolicy::Session,
        AuctionPolicy::Empirical {
            window: EMPIRICAL_WINDOW,
            welfare_weight: 0.0,
        },
    ]
}

/// One recorded auction round, replayed serially during verification.
struct RecordedRound {
    features: Vector,
    floor: f64,
    bids: Vec<f64>,
    reserve_bits: u64,
    price_bits: u64,
}

/// Runs one repetition of one cell and verifies it against the serial
/// replay.  Returns the deterministic per-rep aggregates.
fn run_rep(spec: &AuctionCellSpec, workers: usize, rep: u64) -> Result<Rep<AuctionLedger>, String> {
    let traffic_seed = derive_seed(spec.seed, rep);
    let tenant_config = TenantConfig::auction(spec.dim, spec.waves, spec.policy);

    let config = ServiceConfig {
        shards: spec.shards,
        queue_capacity: spec.tenants.max(4),
        ..ServiceConfig::default()
    };
    let mut service = closed_loop::build_service(&spec.label, config, spec.tenants, tenant_config)?;
    let mut markets: Vec<AuctionMarket> = (0..spec.tenants as u64)
        .map(|id| {
            AuctionMarket::new(AuctionMarketConfig {
                bidders: spec.bidders,
                dim: spec.dim,
                distribution: spec.distribution,
                floor_fraction: FLOOR_FRACTION,
                seed: derive_seed(traffic_seed, id.wrapping_add(1)),
                drift: None,
            })
        })
        .collect();

    let mut recorded: Vec<Vec<RecordedRound>> = (0..spec.tenants).map(|_| Vec::new()).collect();
    let mut drain_time = Duration::ZERO;
    for _ in 0..spec.waves {
        for (id, market) in markets.iter_mut().enumerate() {
            let round = market.next_round();
            service
                .ingest(Request::Auction(AuctionRequest {
                    tenant: TenantId(id as u64),
                    features: round.features.clone(),
                    floor: round.floor,
                    bids: round.bids.clone(),
                }))
                .map_err(|e| format!("{}: submit: {e}", spec.label))?;
            recorded[id].push(RecordedRound {
                features: round.features,
                floor: round.floor,
                bids: round.bids,
                reserve_bits: 0,
                price_bits: 0,
            });
        }
        let started = Instant::now();
        let responses = service.drain(workers);
        drain_time += started.elapsed();
        for response in &responses {
            let cleared = response
                .cleared()
                .ok_or_else(|| format!("{}: expected a cleared response", spec.label))?;
            let slot = response.tenant.0 as usize;
            let round = recorded[slot]
                .last_mut()
                .ok_or_else(|| format!("{}: response without a submitted round", spec.label))?;
            round.reserve_bits = cleared.reserve.to_bits();
            round.price_bits = cleared.result.price.to_bits();
        }
    }

    // Serial verification: replay every tenant's round stream through a
    // fresh single-threaded tenant state (the same `serve_auction` path the
    // shards run) and require bit-identical reserves and clearing prices.
    // The replay also rebuilds the deterministic cell ledger, folded per
    // tenant in tenant order, which is what the report aggregates.
    let mut ledger = AuctionLedger::default();
    for (id, rounds) in recorded.iter().enumerate() {
        let mut tenant = TenantState::new(TenantId(id as u64), tenant_config);
        for round in rounds {
            let cleared = tenant
                .serve_auction(&round.features, round.floor, &round.bids)
                .ok_or_else(|| format!("{}: tenant {id} lost its auction market", spec.label))?;
            if cleared.reserve.to_bits() != round.reserve_bits
                || cleared.result.price.to_bits() != round.price_bits
            {
                return Err(format!(
                    "{}: tenant {id}: serial replay quoted reserve {} / price {} but the \
                     service produced reserve {} / price {} — sharded and serial auction \
                     arithmetic diverged",
                    spec.label,
                    cleared.reserve,
                    cleared.result.price,
                    f64::from_bits(round.reserve_bits),
                    f64::from_bits(round.price_bits),
                ));
            }
            ledger.record(&cleared);
        }
    }

    // The service's own (FIFO-ordered) ledger must agree on every counter;
    // monetary sums legitimately differ in addition order, so they are
    // compared through the counters and the per-round bits above.
    let served = service.aggregate_metrics().auction;
    if served.auctions != ledger.auctions
        || served.sales != ledger.sales
        || served.reserve_hits != ledger.reserve_hits
    {
        return Err(format!(
            "{}: service ledger ({} auctions, {} sales, {} hits) disagrees with the \
             serial replay ({} auctions, {} sales, {} hits)",
            spec.label,
            served.auctions,
            served.sales,
            served.reserve_hits,
            ledger.auctions,
            ledger.sales,
            ledger.reserve_hits,
        ));
    }

    Ok(closed_loop::rep(&service, drain_time, ledger))
}

impl Workload for AuctionCellSpec {
    const NAME: &'static str = "auction";
    const VERIFIED: &'static str = "reserves, clearing prices, ledger counters";
    /// The repetition's serial-replay ledger, folded in tenant order.
    type Outcome = AuctionLedger;
    type Row = AuctionCellReport;

    /// The auction grid: bidder count × distribution × policy at the given
    /// scale.
    fn grid(scale: Scale) -> Vec<Self> {
        let bidder_counts = [1usize, 2, 4];
        let tenants = scale.pick(4, 8);
        let dim = scale.pick(3, 4);
        let shards = scale.pick(4, 8);
        let waves = scale.pick(48, 768);
        let mut cells = Vec::new();
        for &bidders in &bidder_counts {
            for distribution in ValuationDistribution::bench_defaults() {
                for policy in grid_policies() {
                    let index = cells.len() as u64;
                    cells.push(AuctionCellSpec {
                        label: format!(
                            "bidders={bidders}/dist={}/policy={}",
                            distribution.name(),
                            policy.name()
                        ),
                        tenants,
                        bidders,
                        dim,
                        shards,
                        waves,
                        distribution,
                        policy,
                        seed: AUCTION_SEED_BASE + index,
                    });
                }
            }
        }
        cells
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn shards(&self) -> usize {
        self.shards
    }

    fn run_rep(&self, workers: usize, rep: u64) -> Result<Rep<AuctionLedger>, String> {
        run_rep(self, workers, rep)
    }

    fn fold(&self, cell: &Cell<AuctionLedger>) -> AuctionCellReport {
        let (p50, p99) = cell.latency_p50_p99_micros();
        AuctionCellReport {
            label: self.label.clone(),
            distribution: self.distribution.name().to_owned(),
            policy: self.policy.name().to_owned(),
            tenants: self.tenants as u64,
            bidders: self.bidders as u64,
            shards: self.shards as u64,
            waves: self.waves as u64,
            reps: cell.rep_count(),
            metrics: cell.metrics.clone(),
            revenue: cell.stat(|rep| rep.outcome.revenue),
            baseline_revenue: cell.stat(|rep| rep.outcome.baseline_revenue),
            welfare: cell.stat(|rep| rep.outcome.welfare),
            hit_rate: cell.stat(|rep| rep.outcome.reserve_hit_rate()),
            perf: AuctionPerf {
                wall_clock_secs: cell.wall_clock_secs,
                rounds_per_sec: cell.per_drain_sec(cell.metrics.auction.auctions),
                latency_mean_micros: cell.latency.mean() / 1e3,
                latency_p50_micros: p50,
                latency_p99_micros: p99,
            },
        }
    }

    fn validate(rows: &[AuctionCellReport], full_scale: bool, violations: &mut Vec<String>) {
        for cell in rows {
            let place = format!("auction / {}", cell.label);
            for (what, stat, upper) in [
                ("revenue", &cell.revenue, None),
                ("baseline revenue", &cell.baseline_revenue, None),
                ("welfare", &cell.welfare, None),
                ("reserve hit rate", &cell.hit_rate, Some(1.0)),
            ] {
                check_stat(violations, &place, what, stat, upper);
            }
            let ledger = &cell.metrics.auction;
            if ledger.auctions == 0 {
                violations.push(format!("{place}: settled no auction rounds at all"));
            }
            if ledger.sales == 0 {
                violations.push(format!("{place}: sold nothing in any round"));
            }
            // A sale never prices above the winning bid, so welfare
            // dominates revenue identically per round and in every sum.
            // The comparison tolerance scales with the pair's magnitude.
            let tolerance = gate_tolerance(cell.welfare.mean.abs().max(cell.revenue.mean.abs()));
            if cell.welfare.mean + tolerance < cell.revenue.mean {
                violations.push(format!(
                    "{place}: welfare {} fell below revenue {}",
                    cell.welfare.mean, cell.revenue.mean
                ));
            }
            let rate = cell.perf.rounds_per_sec;
            check_throughput(violations, &place, "rounds/sec", ledger.auctions, rate);
            // The reserve-uplift gate of the auction workload: at full
            // scale, every *learned* reserve policy must earn at least the
            // second-price-no-reserve baseline in the thin-competition
            // cells (≤ 2 bidders) — the regime personalized reserves exist
            // for.  With thicker competition the second bid already
            // extracts the surplus and the optimal reserve is non-binding,
            // so those cells are gated only on the invariants above.
            // Quick-scale horizons are too short for the learners to
            // converge, so the gate is a full-scale contract.
            if full_scale && cell.is_learned_policy() && cell.bidders <= 2 {
                let baseline = cell.baseline_revenue.mean;
                let tolerance = gate_tolerance(baseline.abs().max(cell.revenue.mean.abs()));
                if cell.revenue.mean + tolerance < baseline {
                    violations.push(format!(
                        "{place}: learned-reserve revenue {} fell below the no-reserve \
                         second-price baseline {}",
                        cell.revenue.mean, baseline
                    ));
                }
            }
        }
    }

    fn columns(cell: &AuctionCellReport) -> Vec<Column<'_>> {
        let (ledger, perf) = (&cell.metrics.auction, &cell.perf);
        vec![
            Column::new("label", &cell.label).show("cell"),
            Column::new("distribution", &cell.distribution),
            Column::new("policy", &cell.policy),
            Column::new("tenants", cell.tenants),
            Column::new("bidders", cell.bidders),
            Column::new("shards", cell.shards),
            Column::new("waves", cell.waves),
            Column::new("reps", cell.reps),
            Column::new("auctions", ledger.auctions).show("rounds"),
            Column::new("sales", ledger.sales).show("sales"),
            Column::new("reserve_hits", ledger.reserve_hits),
            Column::new("revenue", &cell.revenue).fixed("revenue", 2),
            Column::new("baseline_revenue", &cell.baseline_revenue).fixed("no-rsv", 2),
            Column::table("uplift", table::fmt(cell.uplift(), 3)),
            Column::new("welfare", &cell.welfare).fixed("welfare", 2),
            Column::new("hit_rate", &cell.hit_rate).pct("hit"),
            Column::perf("wall_clock_secs", perf.wall_clock_secs),
            Column::perf("rounds_per_sec", perf.rounds_per_sec).fixed("rounds/s", 0),
            Column::perf("latency_mean_micros", perf.latency_mean_micros),
            Column::perf("latency_p50_micros", perf.latency_p50_micros),
            Column::perf("latency_p99_micros", perf.latency_p99_micros).fixed("p99 µs", 1),
        ]
    }

    fn rows(report: &mut BenchReport) -> &mut Vec<AuctionCellReport> {
        &mut report.auction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_table;
    use crate::workload::{run_cell, run_test_cell as run};
    use pdm_service::MetricRegistry;

    fn tiny_cell(bidders: usize, policy: AuctionPolicy) -> AuctionCellSpec {
        AuctionCellSpec {
            label: format!("bidders={bidders}/dist=uniform/policy={}", policy.name()),
            tenants: 4,
            bidders,
            dim: 3,
            shards: 2,
            waves: 12,
            distribution: ValuationDistribution::Uniform { spread: 0.95 },
            policy,
            seed: 1234,
        }
    }

    #[test]
    fn grid_crosses_bidders_distributions_and_policies() {
        let quick = AuctionCellSpec::grid(Scale::Quick);
        assert_eq!(quick.len(), 3 * 3 * 3);
        let labels: Vec<&str> = quick.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"bidders=1/dist=uniform/policy=static"));
        assert!(labels.contains(&"bidders=2/dist=lognormal/policy=session"));
        assert!(labels.contains(&"bidders=4/dist=hot-cold/policy=empirical"));
        let mut seeds: Vec<u64> = quick.iter().map(|c| c.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), quick.len());
        let full = AuctionCellSpec::grid(Scale::Full);
        assert!(full[0].waves > quick[0].waves);
        assert!(full[0].tenants > quick[0].tenants);
    }

    #[test]
    fn cell_runs_and_passes_its_own_serial_verification() {
        for policy in grid_policies() {
            let report = run(&tiny_cell(2, policy), 2, 1);
            assert_eq!(report.metrics.auction.auctions, 4 * 12, "{policy:?}");
            assert!(report.metrics.auction.sales > 0, "{policy:?}");
            assert!(report.revenue.mean > 0.0, "{policy:?}");
            assert!(
                report.welfare.mean >= report.revenue.mean,
                "{policy:?}: welfare must dominate revenue"
            );
            assert!(report.perf.rounds_per_sec > 0.0, "{policy:?}");
        }
    }

    #[test]
    fn single_bidder_cells_report_a_zero_baseline() {
        let report = run(&tiny_cell(1, AuctionPolicy::Static { markup: 0.0 }), 1, 1);
        assert_eq!(report.baseline_revenue.mean, 0.0);
        assert!(report.uplift().is_infinite());
        // Every single-bidder sale is priced by the reserve, by definition.
        let ledger = &report.metrics.auction;
        assert_eq!(ledger.reserve_hits, ledger.sales);
        assert!((report.hit_rate.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worker_count_does_not_move_deterministic_aggregates() {
        for policy in grid_policies() {
            let one = run(&tiny_cell(2, policy), 1, 2);
            let four = run(&tiny_cell(2, policy), 4, 2);
            let (a, b) = (&one.metrics.auction, &four.metrics.auction);
            assert_eq!(a.auctions, b.auctions, "{policy:?}");
            assert_eq!(a.sales, b.sales, "{policy:?}");
            assert_eq!(a.reserve_hits, b.reserve_hits, "{policy:?}");
            assert_eq!(
                one.revenue.mean.to_bits(),
                four.revenue.mean.to_bits(),
                "{policy:?}"
            );
            assert_eq!(
                one.welfare.mean.to_bits(),
                four.welfare.mean.to_bits(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn latency_mean_pools_the_histogram_across_reps() {
        // Regression: the cell mean must come from the merged latency
        // histogram, not be dropped (NaN).
        let mut obs = MetricRegistry::new();
        let report = run_cell(&tiny_cell(2, AuctionPolicy::Session), 2, 2, &mut obs).unwrap();
        assert!(
            report.perf.latency_mean_micros.is_finite() && report.perf.latency_mean_micros > 0.0,
            "mean {} must be a real pooled figure",
            report.perf.latency_mean_micros
        );
        // The scrape folded both repetitions' auction rounds.
        let rounds = obs
            .counter_value("auction.rounds_total")
            .expect("the scrape exports the auction ledger");
        assert_eq!(rounds as u64, report.metrics.auction.auctions);
    }

    #[test]
    fn reps_reseed_the_traffic() {
        let spec = tiny_cell(2, AuctionPolicy::Session);
        let one = run(&spec, 2, 1);
        let three = run(&spec, 2, 3);
        assert_eq!(
            three.metrics.auction.auctions,
            3 * one.metrics.auction.auctions
        );
        assert!(three.revenue.std > 0.0);
    }

    #[test]
    fn render_lists_every_cell_with_uplift() {
        let report = run(&tiny_cell(2, AuctionPolicy::Session), 1, 1);
        let rendered = render_table(std::slice::from_ref(&report), AuctionCellSpec::columns);
        assert!(rendered.contains("bidders=2/dist=uniform/policy=session"));
        table::tests::assert_headers(
            &rendered,
            &[
                "cell", "rounds", "sales", "hit", "revenue", "no-rsv", "uplift", "welfare",
                "rounds/s", "p99 µs",
            ],
        );
    }
}
