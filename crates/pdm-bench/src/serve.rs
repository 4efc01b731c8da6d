//! The `bench serve` workload: a closed-loop traffic generator driving the
//! sharded [`pdm_service::MarketService`] engine.
//!
//! Every cell of the serve grid spins up a multi-tenant service, registers
//! `tenants` independent pricing sessions, and pumps `waves` rounds of the
//! closed loop in `closed_loop.rs`, which `drift`, `longhaul` and `privacy`
//! share: admit one price-quote request per participating tenant,
//! [`MarketService::drain_into`] on the requested worker count, answer
//! every quote with the buyer's accept/reject decision, drain again.  The
//! arrival mix decides *which* tenants participate in a wave, in ascending
//! id order:
//!
//! * **uniform** — every tenant, every wave (steady state);
//! * **hot-cold** — a hot quarter of the tenants every wave, the cold rest
//!   staggered over every fourth wave (skewed per-shard load);
//! * **bursty** — everyone for four waves, nobody for the next four, with a
//!   deliberately small queue so bursts overflow the bounded admission
//!   queue and exercise the shed path.
//!
//! Two kinds of results come out of a cell:
//!
//! * **Deterministic aggregates** — revenue, regret, acceptance rate, and
//!   the request counters.  These are per-tenant quantities folded in tenant
//!   order, so they are *byte-identical for any `--workers`*; the
//!   determinism suite pins that.  On top of the cross-worker guarantee,
//!   every run **replays each tenant's admitted request stream through a
//!   fresh serial [`PricingSession`]** (the shared loop's serial replay)
//!   and verifies the posted prices and per-tenant ledgers bit for bit —
//!   the sharded concurrent engine must price exactly like the paper's
//!   serial loop, or the bench fails.
//! * **Perf figures** — throughput (quotes served per second of service
//!   time) and p50/p99 per-request service latency, reported into the
//!   BENCH v2 schema and explicitly excluded from the determinism
//!   fingerprint.
//!
//! [`MarketService::drain_into`]: pdm_service::MarketService::drain_into
//! [`PricingSession`]: pdm_pricing::prelude::PricingSession

use crate::closed_loop;
use crate::grid::derive_seed;
use crate::report::{check_stat, check_throughput, render_table, BenchReport, Column, PerfSummary};
use crate::runner::AggStat;
use crate::table;
use crate::workload::{Cell, Rep, Workload};
use crate::Scale;
use pdm_pricing::prelude::RegretReport;
use pdm_service::{ServiceConfig, ShardMetrics, TenantConfig};

/// Base seed of the serve grid; each cell derives its traffic streams from
/// `derive_seed(SERVE_SEED_BASE + cell_index, rep)`.
const SERVE_SEED_BASE: u64 = 0x5E4E;

/// Which tenants send traffic in a given wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMix {
    /// Every tenant, every wave.
    Uniform,
    /// A hot quarter of the tenants every wave; the cold rest staggered
    /// over every fourth wave.
    HotCold,
    /// Four waves of everyone, four waves of silence, against a small
    /// queue — the overload/shed scenario.
    Bursty,
}

impl ArrivalMix {
    /// Machine-readable name used in labels and the JSON schema.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArrivalMix::Uniform => "uniform",
            ArrivalMix::HotCold => "hot-cold",
            ArrivalMix::Bursty => "bursty",
        }
    }

    /// Whether tenant `id` (of `tenants`) sends a query in `wave`.
    #[must_use]
    fn participates(self, id: u64, tenants: u64, wave: usize) -> bool {
        match self {
            ArrivalMix::Uniform => true,
            ArrivalMix::HotCold => {
                let hot = (tenants / 4).max(1);
                id < hot || wave % 4 == (id % 4) as usize
            }
            ArrivalMix::Bursty => (wave / 4).is_multiple_of(2),
        }
    }

    /// Per-shard queue capacity for this mix.  The bursty mix is sized to
    /// overflow under a full-burst wave so the bounded-admission shed path
    /// runs; the steady mixes never shed.
    #[must_use]
    fn queue_capacity(self, tenants: usize, shards: usize) -> usize {
        match self {
            ArrivalMix::Uniform | ArrivalMix::HotCold => tenants.max(4),
            ArrivalMix::Bursty => (tenants / (shards * 2)).max(2),
        }
    }
}

/// One cell of the serve grid: a sized service under one arrival mix.
#[derive(Debug, Clone)]
pub struct ServeCellSpec {
    /// Row label, e.g. `tenants=48/mix=bursty`.
    pub label: String,
    /// Number of registered tenants.
    pub tenants: usize,
    /// Feature dimension of every tenant's queries.
    pub dim: usize,
    /// Shard count of the service.
    pub shards: usize,
    /// Closed-loop waves to pump.
    pub waves: usize,
    /// The arrival mix.
    pub mix: ArrivalMix,
    /// Base seed of the cell's traffic streams.
    pub seed: u64,
}

/// Wall-clock figures of one serve cell (excluded from the determinism
/// fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct ServePerf {
    /// End-to-end seconds for the cell (generation + service + verify).
    pub wall_clock_secs: f64,
    /// Quotes served per second of drain (service) time.
    pub quotes_per_sec: f64,
    /// Mean per-request service latency in µs, over *every* request of the
    /// cell (the mean of its merged latency histogram).
    pub latency_mean_micros: f64,
    /// Median per-request service latency in µs, read off the cell's
    /// merged latency histogram (an upper bucket edge, ≤ 19% high).
    pub latency_p50_micros: f64,
    /// p99 per-request service latency in µs, from the same histogram.
    pub latency_p99_micros: f64,
}

/// Everything the BENCH v2 report records about one serve cell.
#[derive(Debug, Clone)]
pub struct ServeCellReport {
    /// Row label (from the cell spec).
    pub label: String,
    /// Arrival-mix name.
    pub mix: String,
    /// Registered tenants.
    pub tenants: u64,
    /// Service shard count.
    pub shards: u64,
    /// Closed-loop waves per repetition.
    pub waves: u64,
    /// Repetitions aggregated.
    pub reps: u64,
    /// The service ledger, merged over repetitions: quotes served,
    /// outcomes applied, sales, requests shed at admission and rejected.
    pub metrics: ShardMetrics,
    /// Cumulative revenue per repetition.
    pub revenue: AggStat,
    /// Cumulative exact regret per repetition.
    pub regret: AggStat,
    /// Acceptance rate per repetition.
    pub accept_rate: AggStat,
    /// Wall-clock throughput/latency figures.
    pub perf: ServePerf,
}

/// The per-repetition ledger totals, folded over tenants in tenant order.
pub struct ServeOutcome {
    revenue: f64,
    regret: f64,
    accept_rate: f64,
}

/// Runs one repetition of one cell through the shared closed loop and
/// verifies it against the serial replay.  Returns the deterministic
/// per-rep aggregates.
fn run_rep(spec: &ServeCellSpec, workers: usize, rep: u64) -> Result<Rep<ServeOutcome>, String> {
    let label = &spec.label;
    let tenants = spec.tenants;
    let mix = spec.mix;
    // Each wave admits its participating tenants in ascending id order:
    // under the bursty mix that order decides which quotes the full queue
    // sheds.
    let waves = (0..spec.waves).map(|wave| {
        (0..tenants).filter(move |&id| mix.participates(id as u64, tenants as u64, wave))
    });
    let trace = closed_loop::build_trace(tenants, spec.dim, derive_seed(spec.seed, rep), waves)
        .map_err(|e| format!("{label}: {e}"))?;
    let config = ServiceConfig {
        shards: spec.shards,
        queue_capacity: mix.queue_capacity(tenants, spec.shards),
        ..ServiceConfig::default()
    };
    let tenant_config = TenantConfig::standard(spec.dim, spec.waves);
    let mut service = closed_loop::build_service(label, config, tenants, tenant_config)?;
    let served = closed_loop::serve(label, &mut service, &trace, workers)?;
    let states = closed_loop::replay_serially(
        label,
        &service,
        &trace,
        &served.posted,
        tenants,
        tenant_config,
        |_, _| {},
    )?;
    let mut merged = RegretReport::empty();
    for state in &states {
        merged.merge(&state.session.tracker().report());
    }
    Ok(closed_loop::rep(
        &service,
        served.drain_time,
        ServeOutcome {
            revenue: merged.cumulative_revenue,
            regret: merged.cumulative_regret,
            accept_rate: merged.acceptance_rate(),
        },
    ))
}

impl Workload for ServeCellSpec {
    const NAME: &'static str = "serve";
    const VERIFIED: &'static str = "posted prices, revenue, regret";
    type Outcome = ServeOutcome;
    type Row = ServeCellReport;

    /// The serve grid: tenant count × arrival mix at the given scale.
    fn grid(scale: Scale) -> Vec<Self> {
        let tenant_counts = scale.pick(vec![16usize, 48], vec![192, 768]);
        let dim = scale.pick(3, 8);
        let shards = scale.pick(8, 16);
        let waves = scale.pick(24, 96);
        let mixes = [ArrivalMix::Uniform, ArrivalMix::HotCold, ArrivalMix::Bursty];
        let mut cells = Vec::new();
        for &tenants in &tenant_counts {
            for &mix in &mixes {
                let index = cells.len() as u64;
                cells.push(ServeCellSpec {
                    label: format!("tenants={tenants}/mix={}", mix.name()),
                    tenants,
                    dim,
                    shards,
                    waves,
                    mix,
                    seed: SERVE_SEED_BASE + index,
                });
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

    fn run_rep(&self, workers: usize, rep: u64) -> Result<Rep<ServeOutcome>, String> {
        run_rep(self, workers, rep)
    }

    fn fold(&self, cell: &Cell<ServeOutcome>) -> ServeCellReport {
        let (p50, p99) = cell.latency_p50_p99_micros();
        ServeCellReport {
            label: self.label.clone(),
            mix: self.mix.name().to_owned(),
            tenants: self.tenants as u64,
            shards: self.shards as u64,
            waves: self.waves as u64,
            reps: cell.rep_count(),
            metrics: cell.metrics.clone(),
            revenue: cell.stat(|rep| rep.outcome.revenue),
            regret: cell.stat(|rep| rep.outcome.regret),
            accept_rate: cell.stat(|rep| rep.outcome.accept_rate),
            perf: ServePerf {
                wall_clock_secs: cell.wall_clock_secs,
                quotes_per_sec: cell.per_drain_sec(cell.metrics.quotes_served),
                latency_mean_micros: cell.latency.mean() / 1e3,
                latency_p50_micros: p50,
                latency_p99_micros: p99,
            },
        }
    }

    fn validate(rows: &[ServeCellReport], _full_scale: bool, violations: &mut Vec<String>) {
        for cell in rows {
            let place = format!("serve / {}", cell.label);
            for (what, stat, upper) in [
                ("revenue", &cell.revenue, None),
                ("regret", &cell.regret, None),
                ("acceptance rate", &cell.accept_rate, Some(1.0)),
            ] {
                check_stat(violations, &place, what, stat, upper);
            }
            // Throughput sanity: a cell that served anything must report a
            // positive quotes/sec, and overload shedding must never starve
            // the service completely.
            let served = cell.metrics.quotes_served;
            check_throughput(
                violations,
                &place,
                "quotes/sec",
                served,
                cell.perf.quotes_per_sec,
            );
            if served == 0 {
                violations.push(format!("{place}: served no quotes at all"));
            }
            let shed_rate = cell.metrics.shed_rate();
            if !shed_rate.is_finite() || shed_rate >= 1.0 {
                violations.push(format!("{place}: shed rate reached 100% ({shed_rate})"));
            }
        }
    }

    fn columns(cell: &ServeCellReport) -> Vec<Column<'_>> {
        let (metrics, perf) = (&cell.metrics, &cell.perf);
        vec![
            Column::new("label", &cell.label).show("cell"),
            Column::new("mix", &cell.mix),
            Column::new("tenants", cell.tenants),
            Column::new("shards", cell.shards),
            Column::new("waves", cell.waves),
            Column::new("reps", cell.reps),
            Column::new("quotes_served", metrics.quotes_served).show("quotes"),
            Column::new("observations", metrics.observations),
            Column::new("sales", metrics.sales).show("sales"),
            Column::new("shed", metrics.shed),
            Column::new("rejected", metrics.rejected),
            Column::new("revenue", &cell.revenue).fixed("revenue", 2),
            Column::new("regret", &cell.regret).fixed("regret", 2),
            Column::new("accept_rate", &cell.accept_rate).pct("accept"),
            Column::table("shed", table::pct(metrics.shed_rate())),
            Column::perf("wall_clock_secs", perf.wall_clock_secs),
            Column::perf("quotes_per_sec", perf.quotes_per_sec).fixed("quotes/s", 0),
            Column::perf("latency_mean_micros", perf.latency_mean_micros),
            Column::perf("latency_p50_micros", perf.latency_p50_micros).fixed("p50 µs", 1),
            Column::perf("latency_p99_micros", perf.latency_p99_micros).fixed("p99 µs", 1),
        ]
    }

    fn rows(report: &mut BenchReport) -> &mut Vec<ServeCellReport> {
        &mut report.serve
    }
}

/// Renders the grid-wide summary line `bench serve` prints under the
/// per-cell table: every cell's service ledger merged across the grid, the
/// per-repetition revenue and regret means summed, and the grid throughput
/// of the report's headline summary.
#[must_use]
pub fn render_summary(cells: &[ServeCellReport], perf: &PerfSummary) -> String {
    let mut totals = ShardMetrics::new();
    let (mut revenue, mut regret) = (0.0, 0.0);
    for cell in cells {
        totals.merge(&cell.metrics);
        revenue += cell.revenue.mean;
        regret += cell.regret.mean;
    }
    render_table(&[totals], |totals| {
        vec![
            Column::table("grid total", format!("{} cells", cells.len())),
            Column::table("quotes", totals.quotes_served.to_string()),
            Column::table("sales", totals.sales.to_string()),
            Column::table("accept", table::pct(totals.accept_rate())),
            Column::table("shed", table::pct(totals.shed_rate())),
            Column::table("revenue/rep", table::fmt(revenue, 2)),
            Column::table("regret/rep", table::fmt(regret, 2)),
            Column::table("quotes/s", table::fmt(perf.serve_quotes_per_sec, 0)),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_test_cell as run;

    fn tiny_cell(mix: ArrivalMix) -> ServeCellSpec {
        ServeCellSpec {
            label: format!("tenants=12/mix={}", mix.name()),
            tenants: 12,
            dim: 3,
            shards: 4,
            waves: 8,
            mix,
            seed: 99,
        }
    }

    #[test]
    fn grid_covers_tenant_counts_and_mixes() {
        let quick = ServeCellSpec::grid(Scale::Quick);
        assert_eq!(quick.len(), 6);
        let labels: Vec<&str> = quick.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"tenants=16/mix=uniform"));
        assert!(labels.contains(&"tenants=48/mix=bursty"));
        // Seeds are distinct per cell, and full scale is strictly bigger.
        let mut seeds: Vec<u64> = quick.iter().map(|c| c.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), quick.len());
        let full = ServeCellSpec::grid(Scale::Full);
        assert!(full[0].tenants > quick[0].tenants);
        assert!(full[0].waves > quick[0].waves);
    }

    #[test]
    fn arrival_mixes_shape_traffic() {
        // Uniform: everyone, always.
        assert!(ArrivalMix::Uniform.participates(7, 16, 3));
        // Hot-cold: tenant 0 is hot (always on); a cold tenant only every
        // fourth wave.
        assert!(ArrivalMix::HotCold.participates(0, 16, 1));
        let cold = 9u64; // >= 16/4
        let on: Vec<usize> = (0..8)
            .filter(|&w| ArrivalMix::HotCold.participates(cold, 16, w))
            .collect();
        assert_eq!(on, vec![1, 5]);
        // Bursty: four on, four off.
        assert!(ArrivalMix::Bursty.participates(3, 16, 0));
        assert!(!ArrivalMix::Bursty.participates(3, 16, 4));
        // The bursty queue is deliberately small.
        assert!(
            ArrivalMix::Bursty.queue_capacity(48, 8) < ArrivalMix::Uniform.queue_capacity(48, 8)
        );
    }

    #[test]
    fn cell_runs_and_passes_its_own_serial_verification() {
        let report = run(&tiny_cell(ArrivalMix::Uniform), 2, 1);
        let metrics = &report.metrics;
        assert_eq!(metrics.quotes_served, 12 * 8);
        assert_eq!(metrics.observations, metrics.quotes_served);
        assert_eq!(metrics.shed, 0);
        assert!(report.revenue.mean > 0.0);
        assert!(report.regret.mean >= 0.0);
        assert!(report.accept_rate.mean > 0.0 && report.accept_rate.mean <= 1.0);
        assert!(report.perf.quotes_per_sec > 0.0);
        assert!(report.perf.latency_p99_micros >= report.perf.latency_p50_micros);
    }

    #[test]
    fn bursty_cells_shed_but_stay_consistent() {
        let spec = ServeCellSpec {
            shards: 2,
            ..tiny_cell(ArrivalMix::Bursty)
        };
        let report = run(&spec, 2, 1);
        let metrics = &report.metrics;
        assert!(
            metrics.shed > 0,
            "the bursty mix must exercise the shed path"
        );
        assert!(metrics.shed_rate() < 1.0);
        // Shed requests never became rounds, and the replay verification
        // still passed (the run would have errored otherwise).
        assert_eq!(metrics.observations, metrics.quotes_served);
    }

    #[test]
    fn worker_count_does_not_move_deterministic_aggregates() {
        for mix in [ArrivalMix::Uniform, ArrivalMix::HotCold, ArrivalMix::Bursty] {
            let one = run(&tiny_cell(mix), 1, 2);
            let four = run(&tiny_cell(mix), 4, 2);
            let (a, b) = (&one.metrics, &four.metrics);
            assert_eq!(a.quotes_served, b.quotes_served, "{mix:?}");
            assert_eq!(a.sales, b.sales, "{mix:?}");
            assert_eq!(a.shed, b.shed, "{mix:?}");
            assert_eq!(
                one.revenue.mean.to_bits(),
                four.revenue.mean.to_bits(),
                "{mix:?}"
            );
            assert_eq!(
                one.regret.mean.to_bits(),
                four.regret.mean.to_bits(),
                "{mix:?}"
            );
        }
    }

    #[test]
    fn reps_reseed_the_traffic() {
        let one = run(&tiny_cell(ArrivalMix::Uniform), 2, 1);
        let three = run(&tiny_cell(ArrivalMix::Uniform), 2, 3);
        assert_eq!(three.metrics.quotes_served, 3 * one.metrics.quotes_served);
        // Different seeds ⇒ the repetitions spread.
        assert!(three.revenue.std > 0.0);
    }

    #[test]
    fn render_lists_every_cell_with_throughput() {
        let report = run(&tiny_cell(ArrivalMix::Uniform), 1, 1);
        let table = render_table(std::slice::from_ref(&report), ServeCellSpec::columns);
        assert!(table.contains("tenants=12/mix=uniform"));
        table::tests::assert_headers(
            &table,
            &[
                "cell", "quotes", "sales", "accept", "shed", "revenue", "regret", "quotes/s",
                "p50 µs", "p99 µs",
            ],
        );
    }

    #[test]
    fn summary_folds_the_grid_totals() {
        let a = run(&tiny_cell(ArrivalMix::Uniform), 1, 1);
        let b = run(&tiny_cell(ArrivalMix::HotCold), 1, 1);
        let cells = [a, b];
        let perf = PerfSummary::from_serve(&cells).expect("serve cells");
        let summary = render_summary(&cells, &perf);
        assert!(summary.contains("2 cells"));
        let quotes = cells[0].metrics.quotes_served + cells[1].metrics.quotes_served;
        assert!(summary.contains(&quotes.to_string()));
        table::tests::assert_headers(
            &summary,
            &[
                "grid total",
                "quotes",
                "sales",
                "accept",
                "shed",
                "revenue/rep",
                "regret/rep",
                "quotes/s",
            ],
        );
    }
}
