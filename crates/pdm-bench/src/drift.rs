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
//! Every repetition is verified against a serial per-tenant replay bit for
//! bit (posted prices, detector firings, restarts), exactly like the serve
//! and auction workloads; deterministic aggregates are folded per tenant in
//! tenant order.  Beyond the cumulative ledgers, each cell reports
//! **post-shift regret** — regret accumulated from the first discrete shift
//! onwards — which is the figure the BENCH v4 `validate()` gate reads: at
//! `--full` scale the restart and discounted policies must both beat the
//! static mechanism's post-shift regret in every piecewise-stationary cell.
//!
//! [`MarketService`]: pdm_service::MarketService

use crate::grid::derive_seed;
use crate::json::Json;
use crate::report::{agg_stat_json, check_stat, check_throughput, BenchReport};
use crate::runner::AggStat;
use crate::table;
use crate::workload::{Cell, Rep, Workload};
use crate::Scale;
use pdm_pricing::prelude::{
    DriftKind, DriftPolicy, DriftSchedule, DriftingLinearEnvironment, Environment, NoiseModel,
    StepOutcome,
};
use pdm_service::{
    MarketService, OutcomeReport, QueryRequest, ServiceConfig, TenantConfig, TenantId, TenantState,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

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
    /// cell (the all-time streaming stats).
    pub latency_mean_micros: f64,
    /// Median per-request service latency in µs, read off the cell's
    /// merged latency histogram (an upper bucket edge, ≤ 19% high).
    pub latency_p50_micros: f64,
    /// p99 per-request service latency in µs, from the same histogram.
    pub latency_p99_micros: f64,
}

/// Everything the BENCH v4 report records about one drift cell.
#[derive(Debug, Clone, PartialEq)]
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
    /// Rounds served and observed, summed over repetitions.
    pub rounds: u64,
    /// Accepted quotes, summed over repetitions.
    pub sales: u64,
    /// Drift-detector firings, summed over repetitions.
    pub drift_fires: u64,
    /// Knowledge-set restarts, summed over repetitions.
    pub drift_restarts: u64,
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

/// One recorded posted-price round, replayed serially during verification.
struct RecordedRound {
    features: pdm_linalg::Vector,
    reserve: f64,
    value: f64,
    accepted: bool,
    posted_bits: u64,
}

/// The per-repetition totals of the serial replay.
pub struct DriftOutcome {
    revenue: f64,
    regret: f64,
    post_shift_regret: f64,
    accept_rate: f64,
    rounds: u64,
    sales: u64,
    fires: u64,
    restarts: u64,
}

/// The tenant config of one cell: the paper's posted-price defaults with
/// the drift-grid δ buffer and the cell's drift policy.
fn tenant_config(spec: &DriftCellSpec) -> TenantConfig {
    let mut config = TenantConfig::standard(spec.dim, spec.waves).with_drift(spec.policy);
    config.pricing = config.pricing.with_uncertainty(DRIFT_SESSION_DELTA);
    config
}

/// Runs one repetition of one cell and verifies it against the serial
/// replay.  Returns the deterministic per-rep aggregates.
fn run_rep(spec: &DriftCellSpec, workers: usize, rep: u64) -> Result<Rep<DriftOutcome>, String> {
    // Environment streams derive from the row seed (kind × magnitude) and
    // the repetition — NOT the policy — so policy columns are comparable.
    let row_seed = derive_seed(spec.env_seed, rep);
    let config = tenant_config(spec);

    let mut service = MarketService::new(ServiceConfig {
        shards: spec.shards,
        queue_capacity: spec.tenants.max(4),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("{}: config: {e}", spec.label))?;
    let mut environments: Vec<DriftingLinearEnvironment> = Vec::with_capacity(spec.tenants);
    let mut streams: Vec<StdRng> = Vec::with_capacity(spec.tenants);
    for id in 0..spec.tenants as u64 {
        service
            .register_tenant(TenantId(id), config)
            .map_err(|e| format!("{}: register: {e}", spec.label))?;
        environments.push(DriftingLinearEnvironment::new(
            spec.dim,
            spec.waves,
            DriftSchedule {
                kind: spec.kind,
                seed: derive_seed(row_seed, id.wrapping_add(1)),
            },
            NoiseModel::Gaussian { std_dev: NOISE_STD },
        ));
        streams.push(StdRng::seed_from_u64(derive_seed(
            row_seed,
            id.wrapping_add(1_000),
        )));
    }

    let mut recorded: Vec<Vec<RecordedRound>> = (0..spec.tenants).map(|_| Vec::new()).collect();
    let mut pending: Vec<Option<(pdm_linalg::Vector, f64, f64)>> = vec![None; spec.tenants];
    let mut drain_time = Duration::ZERO;
    for _ in 0..spec.waves {
        for id in 0..spec.tenants {
            let round = environments[id]
                .next_round(&mut streams[id])
                .ok_or_else(|| format!("{}: environment exhausted early", spec.label))?;
            service
                .submit_quote(QueryRequest {
                    tenant: TenantId(id as u64),
                    features: round.features.clone(),
                    reserve_price: round.reserve_price,
                })
                .map_err(|e| format!("{}: submit: {e}", spec.label))?;
            pending[id] = Some((round.features, round.reserve_price, round.market_value));
        }
        let started = Instant::now();
        let responses = service.drain(workers);
        drain_time += started.elapsed();
        for response in &responses {
            let quote = response
                .quote()
                .ok_or_else(|| format!("{}: expected a quote response", spec.label))?;
            let slot = response.tenant.0 as usize;
            let (features, reserve, value) = pending[slot]
                .take()
                .ok_or_else(|| format!("{}: response without a pending quote", spec.label))?;
            let accepted = quote.posted_price <= value;
            recorded[slot].push(RecordedRound {
                features,
                reserve,
                value,
                accepted,
                posted_bits: quote.posted_price.to_bits(),
            });
            service
                .submit_outcome(OutcomeReport {
                    tenant: response.tenant,
                    accepted,
                    market_value: Some(value),
                })
                .map_err(|e| format!("{}: outcome: {e}", spec.label))?;
        }
        let started = Instant::now();
        service.drain(workers);
        drain_time += started.elapsed();
    }

    // Serial verification: replay every tenant's round stream through a
    // fresh single-threaded session under the same drift policy and require
    // bit-identical posted prices.  The replay also rebuilds the
    // deterministic ledgers — total and post-shift regret folded per tenant
    // in tenant order — which is what the report aggregates.
    let first_shift = spec.kind.first_shift_round() as usize;
    let mut revenue = 0.0;
    let mut regret = 0.0;
    let mut post_shift_regret = 0.0;
    let mut rounds = 0u64;
    let mut sales = 0u64;
    let mut fires = 0u64;
    let mut restarts = 0u64;
    for (id, tenant_rounds) in recorded.iter().enumerate() {
        let mut tenant = TenantState::new(TenantId(id as u64), config);
        for (index, round) in tenant_rounds.iter().enumerate() {
            let quote = tenant.session.step(&round.features, round.reserve);
            if quote.posted_price.to_bits() != round.posted_bits {
                return Err(format!(
                    "{}: tenant {id}: serial replay posted {} but the service posted {} — \
                     sharded and serial drift-aware pricing diverged",
                    spec.label,
                    quote.posted_price,
                    f64::from_bits(round.posted_bits),
                ));
            }
            let observed = tenant
                .session
                .observe(StepOutcome::with_value(round.accepted, round.value))
                .ok_or_else(|| format!("{}: replay lost an open round", spec.label))?;
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
        }
        fires += tenant.session.mechanism().detector_fires();
        restarts += tenant.session.mechanism().restarts();
    }

    // The service's own (FIFO-ordered) drift counters must agree with the
    // serial replay — the detector is deterministic in the request stream.
    let metrics = service.aggregate_metrics();
    if metrics.drift_fires != fires || metrics.drift_restarts != restarts {
        return Err(format!(
            "{}: service drift counters ({} fires, {} restarts) disagree with the serial \
             replay ({fires} fires, {restarts} restarts)",
            spec.label, metrics.drift_fires, metrics.drift_restarts,
        ));
    }
    if metrics.sales != sales || metrics.observations != rounds {
        return Err(format!(
            "{}: service ledger ({} sales / {} rounds) disagrees with the serial replay \
             ({sales} sales / {rounds} rounds)",
            spec.label, metrics.sales, metrics.observations,
        ));
    }

    Ok(Rep {
        outcome: DriftOutcome {
            revenue,
            regret,
            post_shift_regret,
            accept_rate: if rounds == 0 {
                0.0
            } else {
                sales as f64 / rounds as f64
            },
            rounds,
            sales,
            fires,
            restarts,
        },
        metrics,
        drain_time,
        scrape: service.scrape(),
    })
}

impl Workload for DriftCellSpec {
    const NAME: &'static str = "drift";
    const VERIFIED: &'static str = "posted prices, detector firings, restarts";
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
        let total = |count: fn(&DriftOutcome) -> u64| -> u64 {
            cell.reps.iter().map(|rep| count(&rep.outcome)).sum()
        };
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
            rounds: total(|outcome| outcome.rounds),
            sales: total(|outcome| outcome.sales),
            drift_fires: total(|outcome| outcome.fires),
            drift_restarts: total(|outcome| outcome.restarts),
            revenue: cell.stat(|rep| rep.outcome.revenue),
            regret: cell.stat(|rep| rep.outcome.regret),
            post_shift_regret: cell.stat(|rep| rep.outcome.post_shift_regret),
            accept_rate: cell.stat(|rep| rep.outcome.accept_rate),
            perf: DriftPerf {
                wall_clock_secs: cell.wall_clock_secs,
                quotes_per_sec: cell.per_drain_sec(cell.metrics.quotes_served),
                latency_mean_micros: cell.metrics.latency_stats().mean(),
                latency_p50_micros: p50,
                latency_p99_micros: p99,
            },
        }
    }

    fn render(rows: &[DriftCellReport]) -> Vec<String> {
        vec![render_drift(rows)]
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
            if cell.rounds == 0 {
                violations.push(format!("{place}: served no rounds at all"));
            }
            if cell.sales == 0 {
                violations.push(format!("{place}: sold nothing in any round"));
            }
            let throughput = cell.perf.quotes_per_sec;
            check_throughput(violations, &place, "quotes/sec", cell.rounds, throughput);
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

    fn deterministic_json(cell: &DriftCellReport) -> Vec<(&'static str, Json)> {
        vec![
            ("label", Json::str(&cell.label)),
            ("kind", Json::str(&cell.kind)),
            ("magnitude", Json::Num(cell.magnitude)),
            ("policy", Json::str(&cell.policy)),
            ("tenants", Json::Num(cell.tenants as f64)),
            ("shards", Json::Num(cell.shards as f64)),
            ("waves", Json::Num(cell.waves as f64)),
            ("reps", Json::Num(cell.reps as f64)),
            ("rounds", Json::Num(cell.rounds as f64)),
            ("sales", Json::Num(cell.sales as f64)),
            ("drift_fires", Json::Num(cell.drift_fires as f64)),
            ("drift_restarts", Json::Num(cell.drift_restarts as f64)),
            ("revenue", agg_stat_json(&cell.revenue)),
            ("regret", agg_stat_json(&cell.regret)),
            ("post_shift_regret", agg_stat_json(&cell.post_shift_regret)),
            ("accept_rate", agg_stat_json(&cell.accept_rate)),
        ]
    }

    fn perf_json(cell: &DriftCellReport) -> Vec<(&'static str, Json)> {
        vec![
            ("wall_clock_secs", Json::Num(cell.perf.wall_clock_secs)),
            ("quotes_per_sec", Json::Num(cell.perf.quotes_per_sec)),
            (
                "latency_mean_micros",
                Json::Num(cell.perf.latency_mean_micros),
            ),
            (
                "latency_p50_micros",
                Json::Num(cell.perf.latency_p50_micros),
            ),
            (
                "latency_p99_micros",
                Json::Num(cell.perf.latency_p99_micros),
            ),
        ]
    }

    fn rows(report: &mut BenchReport) -> &mut Vec<DriftCellReport> {
        &mut report.drift
    }
}

/// Renders the drift cells as the console table `bench drift` prints.
#[must_use]
fn render_drift(cells: &[DriftCellReport]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.label.clone(),
                cell.rounds.to_string(),
                table::pct(cell.accept_rate.mean),
                cell.drift_fires.to_string(),
                cell.drift_restarts.to_string(),
                table::fmt(cell.revenue.mean, 2),
                table::fmt(cell.regret.mean, 2),
                table::fmt(cell.post_shift_regret.mean, 2),
                table::fmt(cell.perf.quotes_per_sec, 0),
                table::fmt(cell.perf.latency_p99_micros, 1),
            ]
        })
        .collect();
    table::render(
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
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert_eq!(report.rounds, 3 * 30, "{policy:?}");
            assert!(report.sales > 0, "{policy:?}");
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
            assert_eq!(one.rounds, four.rounds, "{policy:?}");
            assert_eq!(one.sales, four.sales, "{policy:?}");
            assert_eq!(one.drift_fires, four.drift_fires, "{policy:?}");
            assert_eq!(one.drift_restarts, four.drift_restarts, "{policy:?}");
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
    fn latency_mean_pools_the_all_time_stats_across_reps() {
        // Regression: the cell mean must come from the merged all-time
        // streaming stats, not be dropped (NaN).
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
        assert_eq!(quotes as u64, report.rounds);
    }

    #[test]
    fn restart_cells_actually_fire_and_restart_under_full_magnitude_jumps() {
        // Phases must be long enough for the mechanism to converge into
        // the conservative regime before the jump — that is where the
        // surprisal signal (rejected "certain" sales) lives.
        let mut spec = tiny_cell(piecewise(180), DriftPolicy::restart_default());
        spec.waves = 180;
        let report = run(&spec, 2, 1);
        assert!(
            report.drift_fires >= 1,
            "full-magnitude jumps must trigger the detector"
        );
        assert_eq!(report.drift_fires, report.drift_restarts);
        // Static cells never fire.
        let static_report = run(&tiny_cell(piecewise(30), DriftPolicy::Static), 2, 1);
        assert_eq!(static_report.drift_fires, 0);
        assert_eq!(static_report.drift_restarts, 0);
    }

    #[test]
    fn render_lists_every_cell_with_post_shift_regret() {
        let report = run(&tiny_cell(piecewise(30), DriftPolicy::Static), 1, 1);
        let rendered = render_drift(std::slice::from_ref(&report));
        assert!(rendered.contains("kind=piecewise/mag=1.0/policy=static"));
        assert!(rendered.contains("post-shift"));
        assert!(rendered.contains("restarts"));
    }
}
