//! The `bench drift` workload: drifting posted-price markets driven through
//! the sharded [`MarketService`] engine, stress-testing the drift-aware
//! mechanism policies against the paper's stationary mechanism.
//!
//! The grid crosses **drift kind × magnitude × drift policy**.  Every cell
//! registers `tenants` posted-price tenants under one [`DriftPolicy`]
//! (static / restart / discounted), each facing its own
//! [`DriftingLinearEnvironment`] — piecewise-stationary jumps, a slow
//! rotation of `θ*`, or a one-shot adversarial reversal.  Crucially, the
//! **environment seeds depend only on the drift kind and magnitude**, never
//! on the policy, so the three policy columns of a row price the *exact
//! same* moving market and their regret columns are directly comparable.
//!
//! Every repetition runs the closed loop in `closed_loop.rs` that `serve`,
//! `longhaul` and `privacy` share, with the environments' rounds as its
//! trace, and is verified against its serial per-tenant replay bit for bit
//! (posted prices, ledgers, detector firings, restarts), exactly like the
//! serve workload; deterministic aggregates are folded per tenant in tenant
//! order.  Beyond the cumulative ledgers, each cell reports
//! **post-shift regret** — regret accumulated from the first discrete shift
//! onwards — which is the figure the BENCH v4 `validate()` gate reads: at
//! `--full` scale the restart and discounted policies must both beat the
//! static mechanism's post-shift regret in every piecewise-stationary cell.
//!
//! [`MarketService`]: pdm_service::MarketService

use crate::closed_loop::{self, TraceRequest};
use crate::grid::derive_seed;
use crate::report::{check_stat, check_throughput, BenchReport, Column};
use crate::runner::AggStat;
use crate::workload::{Cell, Rep, Workload};
use crate::Scale;
use pdm_pricing::prelude::{
    DriftKind, DriftPolicy, DriftSchedule, DriftingLinearEnvironment, Environment, NoiseModel,
};
use pdm_service::{ServiceConfig, ShardMetrics, TenantConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Base seed of the drift grid; environment streams derive from the *row*
/// (kind × magnitude), not the cell, so policies face identical markets.
const DRIFT_SEED_BASE: u64 = 0xD21F;

/// Market-value noise of the drifting environments.
const NOISE_STD: f64 = 0.01;

/// The δ uncertainty buffer drift-grid tenants run with: it absorbs the
/// environment noise (σ = 0.01 ≪ δ) so surprisal is drift evidence, not
/// noise, and it keeps cuts sound under the noisy values.
const DRIFT_SESSION_DELTA: f64 = 0.02;

/// Per-round semi-axis inflation of the discounted policy in the grid.
///
/// Tuned against the full-scale grid: isotropic inflation must be re-cut
/// across every dimension, so the steady-state exploratory fraction is
/// roughly `4n²·ln(inflation)`; 1.002 keeps that near 7% (cheap enough to
/// beat the static mechanism even under mild mag-0.5 jumps) while still
/// re-opening a stale set within ~a hundred rounds of a shift.
const DISCOUNT_INFLATION: f64 = 1.002;

/// One cell of the drift grid.
#[derive(Debug, Clone)]
pub struct DriftCellSpec {
    /// Row label, e.g. `kind=piecewise/mag=1/policy=restart`.
    pub label: String,
    /// The drift kind every tenant's environment follows.
    pub kind: DriftKind,
    /// The shift magnitude knob of the row (blend weight / rate scale).
    pub magnitude: f64,
    /// The drift policy every tenant of the cell runs.
    pub policy: DriftPolicy,
    /// Registered posted-price tenants (independent drifting markets).
    pub tenants: usize,
    /// Feature dimension of the queries.
    pub dim: usize,
    /// Shard count of the service.
    pub shards: usize,
    /// Closed-loop rounds per tenant.
    pub waves: usize,
    /// Base seed of the row's environment streams (shared across the
    /// row's policy cells).
    pub env_seed: u64,
}

/// Wall-clock figures of one drift cell (excluded from the determinism
/// fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPerf {
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

/// Everything the BENCH v4 report records about one drift cell.
#[derive(Debug, Clone)]
pub struct DriftCellReport {
    /// Row label (from the cell spec).
    pub label: String,
    /// Drift-kind name (`piecewise` / `rotation` / `adversarial`).
    pub kind: String,
    /// The row's shift magnitude.
    pub magnitude: f64,
    /// Drift-policy name (`static` / `restart` / `discounted`).
    pub policy: String,
    /// Registered tenants.
    pub tenants: u64,
    /// Service shard count.
    pub shards: u64,
    /// Rounds per tenant per repetition.
    pub waves: u64,
    /// Repetitions aggregated.
    pub reps: u64,
    /// The service ledger, merged over repetitions: rounds observed
    /// (`observations`), sales, drift-detector firings and knowledge-set
    /// restarts, each checked against the serial replay.
    pub metrics: ShardMetrics,
    /// Cumulative revenue per repetition.
    pub revenue: AggStat,
    /// Cumulative regret per repetition.
    pub regret: AggStat,
    /// Regret accumulated from the first discrete shift onwards, per
    /// repetition (equals `regret` for the continuous rotation kind).
    pub post_shift_regret: AggStat,
    /// Acceptance rate per repetition.
    pub accept_rate: AggStat,
    /// Wall-clock figures.
    pub perf: DriftPerf,
}

/// The drift policies of the grid, in column order.
#[must_use]
pub fn grid_policies() -> [DriftPolicy; 3] {
    [
        DriftPolicy::Static,
        DriftPolicy::restart_default(),
        DriftPolicy::Discounted {
            inflation: DISCOUNT_INFLATION,
        },
    ]
}

/// The drift kinds of the grid for a given horizon and magnitude: one
/// piecewise-stationary schedule (three phases), one slow rotation, one
/// adversarial reversal at half time.
#[must_use]
pub fn grid_kinds(waves: usize, magnitude: f64) -> [DriftKind; 3] {
    [
        DriftKind::PiecewiseJumps {
            period: (waves as u64 / 3).max(1),
            magnitude,
        },
        DriftKind::Rotation {
            rate: 0.02 * magnitude,
        },
        DriftKind::AdversarialShift {
            at_round: (waves as u64 / 2).max(1),
            magnitude,
        },
    ]
}

/// The per-repetition totals of the serial replay.
pub struct DriftOutcome {
    revenue: f64,
    regret: f64,
    post_shift_regret: f64,
}

/// The tenant config of one cell: the paper's posted-price defaults with
/// the drift-grid δ buffer and the cell's drift policy.
fn tenant_config(spec: &DriftCellSpec) -> TenantConfig {
    let mut config = TenantConfig::standard(spec.dim, spec.waves).with_drift(spec.policy);
    config.pricing = config.pricing.with_uncertainty(DRIFT_SESSION_DELTA);
    config
}

/// Runs one repetition of one cell through the shared closed loop and
/// verifies it against the serial replay.  Returns the deterministic
/// per-rep aggregates.
fn run_rep(spec: &DriftCellSpec, workers: usize, rep: u64) -> Result<Rep<DriftOutcome>, String> {
    let label = &spec.label;
    // Environment streams derive from the row seed (kind × magnitude) and
    // the repetition — NOT the policy — so policy columns are comparable.
    let row_seed = derive_seed(spec.env_seed, rep);
    let mut environments: Vec<(DriftingLinearEnvironment, StdRng)> = (0..spec.tenants as u64)
        .map(|id| {
            let environment = DriftingLinearEnvironment::new(
                spec.dim,
                spec.waves,
                DriftSchedule {
                    kind: spec.kind,
                    seed: derive_seed(row_seed, id.wrapping_add(1)),
                },
                NoiseModel::Gaussian { std_dev: NOISE_STD },
            );
            let stream = StdRng::seed_from_u64(derive_seed(row_seed, id.wrapping_add(1_000)));
            (environment, stream)
        })
        .collect();
    let mut trace = Vec::with_capacity(spec.waves);
    for _ in 0..spec.waves {
        let mut requests = Vec::with_capacity(spec.tenants);
        for (id, (environment, stream)) in environments.iter_mut().enumerate() {
            let round = environment
                .next_round(stream)
                .ok_or_else(|| format!("{label}: environment exhausted early"))?;
            requests.push(TraceRequest {
                tenant: id as u64,
                features: round.features,
                value: round.market_value,
                reserve: round.reserve_price,
            });
        }
        trace.push(requests);
    }

    let config = tenant_config(spec);
    let service_config = ServiceConfig {
        shards: spec.shards,
        queue_capacity: spec.tenants.max(4),
        ..ServiceConfig::default()
    };
    let mut service = closed_loop::build_service(label, service_config, spec.tenants, config)?;
    let served = closed_loop::serve(label, &mut service, &trace, workers)?;

    // The replay also rebuilds the deterministic ledgers — total and
    // post-shift regret folded per tenant in tenant order — which is what
    // the report aggregates.
    let first_shift = spec.kind.first_shift_round() as usize;
    let mut revenue = 0.0;
    let mut regret = 0.0;
    let mut post_shift_regret = 0.0;
    let mut rounds = 0u64;
    let mut sales = 0u64;
    let states = closed_loop::replay_serially(
        label,
        &service,
        &trace,
        &served.posted,
        spec.tenants,
        config,
        |index, observed| {
            rounds += 1;
            if observed.accepted {
                sales += 1;
            }
            revenue += observed.revenue;
            let round_regret = observed.regret.unwrap_or(0.0);
            regret += round_regret;
            if index >= first_shift {
                post_shift_regret += round_regret;
            }
        },
    )?;
    let fires: u64 = states
        .iter()
        .map(|tenant| tenant.session.mechanism().detector_fires())
        .sum();
    let restarts: u64 = states
        .iter()
        .map(|tenant| tenant.session.mechanism().restarts())
        .sum();

    // The service's own (FIFO-ordered) drift counters must agree with the
    // serial replay — the detector is deterministic in the request stream.
    let metrics = service.aggregate_metrics();
    if metrics.drift_fires != fires || metrics.drift_restarts != restarts {
        return Err(format!(
            "{label}: service drift counters ({} fires, {} restarts) disagree with the serial \
             replay ({fires} fires, {restarts} restarts)",
            metrics.drift_fires, metrics.drift_restarts,
        ));
    }
    if metrics.sales != sales || metrics.observations != rounds {
        return Err(format!(
            "{label}: service ledger ({} sales / {} rounds) disagrees with the serial replay \
             ({sales} sales / {rounds} rounds)",
            metrics.sales, metrics.observations,
        ));
    }

    let outcome = DriftOutcome {
        revenue,
        regret,
        post_shift_regret,
    };
    Ok(closed_loop::rep(&service, served.drain_time, outcome))
}

impl Workload for DriftCellSpec {
    const NAME: &'static str = "drift";
    const VERIFIED: &'static str = "posted prices, ledgers, detector firings, restarts";
    type Outcome = DriftOutcome;
    type Row = DriftCellReport;

    /// The drift grid: kind × magnitude × policy at the given scale.
    fn grid(scale: Scale) -> Vec<Self> {
        let tenants = scale.pick(4, 8);
        let dim = scale.pick(3, 3);
        let shards = scale.pick(4, 8);
        // Phases must be long enough for the mechanism to converge into the
        // conservative regime before a jump — that is where drift hurts the
        // static mechanism and where the surprisal signal lives.  Quick runs
        // three 60-round phases; full runs three 300-round phases.
        let waves = scale.pick(180, 900);
        let magnitudes = [0.5f64, 1.0];
        let mut cells = Vec::new();
        let mut row = 0u64;
        for &magnitude in &magnitudes {
            for kind in grid_kinds(waves, magnitude) {
                // One seed per (kind, magnitude) row: every policy column of
                // the row faces the exact same drifting markets.
                let env_seed = DRIFT_SEED_BASE + row;
                row += 1;
                for policy in grid_policies() {
                    cells.push(DriftCellSpec {
                        label: format!(
                            "kind={}/mag={magnitude:.1}/policy={}",
                            kind.name(),
                            policy.name()
                        ),
                        kind,
                        magnitude,
                        policy,
                        tenants,
                        dim,
                        shards,
                        waves,
                        env_seed,
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

    fn run_rep(&self, workers: usize, rep: u64) -> Result<Rep<DriftOutcome>, String> {
        run_rep(self, workers, rep)
    }

    fn fold(&self, cell: &Cell<DriftOutcome>) -> DriftCellReport {
        let (p50, p99) = cell.latency_p50_p99_micros();
        DriftCellReport {
            label: self.label.clone(),
            kind: self.kind.name().to_owned(),
            magnitude: self.magnitude,
            policy: self.policy.name().to_owned(),
            tenants: self.tenants as u64,
            shards: self.shards as u64,
            waves: self.waves as u64,
            reps: cell.rep_count(),
            metrics: cell.metrics.clone(),
            revenue: cell.stat(|rep| rep.outcome.revenue),
            regret: cell.stat(|rep| rep.outcome.regret),
            post_shift_regret: cell.stat(|rep| rep.outcome.post_shift_regret),
            accept_rate: cell.stat(|rep| rep.metrics.accept_rate()),
            perf: DriftPerf {
                wall_clock_secs: cell.wall_clock_secs,
                quotes_per_sec: cell.per_drain_sec(cell.metrics.quotes_served),
                latency_mean_micros: cell.latency.mean() / 1e3,
                latency_p50_micros: p50,
                latency_p99_micros: p99,
            },
        }
    }

    fn validate(rows: &[DriftCellReport], full_scale: bool, violations: &mut Vec<String>) {
        for cell in rows {
            let place = format!("drift / {}", cell.label);
            for (what, stat, upper) in [
                ("revenue", &cell.revenue, None),
                ("regret", &cell.regret, None),
                ("post-shift regret", &cell.post_shift_regret, None),
                ("acceptance rate", &cell.accept_rate, Some(1.0)),
            ] {
                check_stat(violations, &place, what, stat, upper);
            }
            let rounds = cell.metrics.observations;
            if rounds == 0 {
                violations.push(format!("{place}: served no rounds at all"));
            }
            if cell.metrics.sales == 0 {
                violations.push(format!("{place}: sold nothing in any round"));
            }
            let throughput = cell.perf.quotes_per_sec;
            check_throughput(violations, &place, "quotes/sec", rounds, throughput);
            // The drift-adaptivity gate: at full scale, in every
            // piecewise-stationary cell, the drift-aware policies must beat
            // the static mechanism's post-shift regret (the static
            // mechanism's knowledge set excludes the moved θ*, so its
            // conservative prices go stale; restart and discounting exist
            // to recover exactly this).  Environment seeds are shared
            // across the row's policy columns, so the comparison is over
            // identical markets.  Quick-scale phases are too short for the
            // comparison to separate, so the gate is a full-scale contract.
            if full_scale && cell.kind == "piecewise" && cell.policy != "static" {
                let static_cell = rows.iter().find(|other| {
                    other.kind == cell.kind
                        && other.magnitude == cell.magnitude
                        && other.policy == "static"
                });
                if let Some(static_cell) = static_cell {
                    let aware = cell.post_shift_regret.mean;
                    let stationary = static_cell.post_shift_regret.mean;
                    if aware >= stationary {
                        violations.push(format!(
                            "{place}: post-shift regret {aware} did not beat the static \
                             mechanism's {stationary}"
                        ));
                    }
                }
            }
        }
    }

    fn columns(cell: &DriftCellReport) -> Vec<Column<'_>> {
        let (metrics, perf) = (&cell.metrics, &cell.perf);
        vec![
            Column::new("label", &cell.label).show("cell"),
            Column::new("kind", &cell.kind),
            Column::new("magnitude", cell.magnitude),
            Column::new("policy", &cell.policy),
            Column::new("tenants", cell.tenants),
            Column::new("shards", cell.shards),
            Column::new("waves", cell.waves),
            Column::new("reps", cell.reps),
            Column::new("rounds", metrics.observations).show("rounds"),
            Column::new("sales", metrics.sales),
            Column::new("drift_fires", metrics.drift_fires).show("fires"),
            Column::new("drift_restarts", metrics.drift_restarts).show("restarts"),
            Column::new("revenue", &cell.revenue).fixed("revenue", 2),
            Column::new("regret", &cell.regret).fixed("regret", 2),
            Column::new("post_shift_regret", &cell.post_shift_regret).fixed("post-shift", 2),
            Column::new("accept_rate", &cell.accept_rate).pct("accept"),
            Column::perf("wall_clock_secs", perf.wall_clock_secs),
            Column::perf("quotes_per_sec", perf.quotes_per_sec).fixed("quotes/s", 0),
            Column::perf("latency_mean_micros", perf.latency_mean_micros),
            Column::perf("latency_p50_micros", perf.latency_p50_micros),
            Column::perf("latency_p99_micros", perf.latency_p99_micros).fixed("p99 µs", 1),
        ]
    }

    fn rows(report: &mut BenchReport) -> &mut Vec<DriftCellReport> {
        &mut report.drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_table;
    use crate::table;
    use crate::workload::{run_cell, run_test_cell as run};
    use pdm_service::MetricRegistry;

    fn tiny_cell(kind: DriftKind, policy: DriftPolicy) -> DriftCellSpec {
        DriftCellSpec {
            label: format!("kind={}/mag=1.0/policy={}", kind.name(), policy.name()),
            kind,
            magnitude: 1.0,
            policy,
            tenants: 3,
            dim: 3,
            shards: 2,
            waves: 30,
            env_seed: 4242,
        }
    }

    fn piecewise(waves: usize) -> DriftKind {
        DriftKind::PiecewiseJumps {
            period: waves as u64 / 3,
            magnitude: 1.0,
        }
    }

    #[test]
    fn grid_crosses_kinds_magnitudes_and_policies() {
        let quick = DriftCellSpec::grid(Scale::Quick);
        assert_eq!(quick.len(), 2 * 3 * 3);
        let labels: Vec<&str> = quick.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"kind=piecewise/mag=0.5/policy=static"));
        assert!(labels.contains(&"kind=rotation/mag=1.0/policy=restart"));
        assert!(labels.contains(&"kind=adversarial/mag=1.0/policy=discounted"));
        // Every policy column of a row shares the row's environment seed.
        for row in quick.chunks(3) {
            assert!(row.iter().all(|c| c.env_seed == row[0].env_seed));
            assert!(row.iter().all(|c| c.kind == row[0].kind));
        }
        let full = DriftCellSpec::grid(Scale::Full);
        assert!(full[0].waves > quick[0].waves);
    }

    #[test]
    fn cell_runs_and_passes_its_own_serial_verification() {
        for policy in grid_policies() {
            let report = run(&tiny_cell(piecewise(30), policy), 2, 1);
            assert_eq!(report.metrics.observations, 3 * 30, "{policy:?}");
            assert!(report.metrics.sales > 0, "{policy:?}");
            assert!(report.revenue.mean > 0.0, "{policy:?}");
            assert!(
                report.regret.mean >= report.post_shift_regret.mean,
                "{policy:?}"
            );
            assert!(report.perf.quotes_per_sec > 0.0, "{policy:?}");
        }
    }

    #[test]
    fn worker_count_does_not_move_deterministic_aggregates() {
        for policy in grid_policies() {
            let spec = tiny_cell(piecewise(30), policy);
            let one = run(&spec, 1, 2);
            let four = run(&spec, 4, 2);
            let (a, b) = (&one.metrics, &four.metrics);
            assert_eq!(a.observations, b.observations, "{policy:?}");
            assert_eq!(a.sales, b.sales, "{policy:?}");
            assert_eq!(a.drift_fires, b.drift_fires, "{policy:?}");
            assert_eq!(a.drift_restarts, b.drift_restarts, "{policy:?}");
            assert_eq!(
                one.revenue.mean.to_bits(),
                four.revenue.mean.to_bits(),
                "{policy:?}"
            );
            assert_eq!(
                one.post_shift_regret.mean.to_bits(),
                four.post_shift_regret.mean.to_bits(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn latency_mean_pools_the_histogram_across_reps() {
        // Regression: the cell mean must come from the merged latency
        // histogram, not be dropped (NaN).
        let mut obs = MetricRegistry::new();
        let report = run_cell(
            &tiny_cell(piecewise(30), DriftPolicy::Static),
            2,
            2,
            &mut obs,
        )
        .unwrap();
        assert!(
            report.perf.latency_mean_micros.is_finite() && report.perf.latency_mean_micros > 0.0,
            "mean {} must be a real pooled figure",
            report.perf.latency_mean_micros
        );
        // The scrape folded both repetitions: the quote-span work histogram
        // counts every served request of the cell.
        let quotes = obs
            .counter_value("quotes_served_total")
            .expect("the scrape exports the served counter");
        assert_eq!(quotes as u64, report.metrics.observations);
    }

    #[test]
    fn restart_cells_actually_fire_and_restart_under_full_magnitude_jumps() {
        // Phases must be long enough for the mechanism to converge into
        // the conservative regime before the jump — that is where the
        // surprisal signal (rejected "certain" sales) lives.
        let mut spec = tiny_cell(piecewise(180), DriftPolicy::restart_default());
        spec.waves = 180;
        let report = run(&spec, 2, 1);
        let metrics = &report.metrics;
        assert!(
            metrics.drift_fires >= 1,
            "full-magnitude jumps must trigger the detector"
        );
        assert_eq!(metrics.drift_fires, metrics.drift_restarts);
        // Static cells never fire.
        let static_report = run(&tiny_cell(piecewise(30), DriftPolicy::Static), 2, 1);
        assert_eq!(static_report.metrics.drift_fires, 0);
        assert_eq!(static_report.metrics.drift_restarts, 0);
    }

    #[test]
    fn render_lists_every_cell_with_post_shift_regret() {
        let report = run(&tiny_cell(piecewise(30), DriftPolicy::Static), 1, 1);
        let rendered = render_table(std::slice::from_ref(&report), DriftCellSpec::columns);
        assert!(rendered.contains("kind=piecewise/mag=1.0/policy=static"));
        table::tests::assert_headers(
            &rendered,
            &[
                "cell",
                "rounds",
                "accept",
                "fires",
                "restarts",
                "revenue",
                "regret",
                "post-shift",
                "quotes/s",
                "p99 µs",
            ],
        );
    }
}
