//! The `bench privacy` workload: privacy-budget economics at serving
//! scale, where data owners' ε budgets exhaust mid-run and the mechanism
//! must price around the shrinking supply.
//!
//! Every cell spins up a [`MarketService`] of privacy tenants — each
//! carrying a per-owner ε ledger and compensation contract — and pumps a
//! precomputed closed-loop trace through it.  Accepted sales debit every
//! weighted owner's budget, so as the run progresses owners retire
//! (stickily, at quote time), the sellable supply shrinks, and eventually
//! whole tenants refuse to quote (`BudgetExhausted`).  The cell records
//! the economics of that decline:
//!
//! * **Revenue vs. compensation** — every sale accrues tanh-concave
//!   payouts to its participating owners; the shard lifts the reserve to
//!   cover them, so cumulative compensation can never exceed cumulative
//!   revenue (a `--check` gate).
//! * **Exhaustion trajectory** — the cumulative owners-exhausted counter
//!   is sampled after every wave.  Retirement is sticky, so the
//!   trajectory must be monotone non-decreasing and must actually climb
//!   above zero (the grid is sized so budgets bind mid-run); both are
//!   `--check` gates.
//! * **Supply throttling** — once every owner of a tenant retires, its
//!   quotes fail instead of pricing, so the second half of the run must
//!   serve strictly fewer quotes than the first (`quoted_late <
//!   quoted_early` whenever anyone exhausted) — the "budget exhaustion
//!   measurably throttles supply" gate.
//! * **Bit-identical restore with ledgers** — as in the longhaul
//!   workload, a WAL checkpoint is taken every `checkpoint_every` waves,
//!   the service is rebuilt at the halfway cut, and both services replay
//!   the identical second half.  Every posted price, every
//!   budget-exhausted refusal, and the per-wave exhaustion trajectory
//!   must agree bit for bit, and the cut aggregates — including the ε and
//!   compensation totals — must match exactly.
//!
//! [`MarketService`]: pdm_service::MarketService

use crate::grid::derive_seed;
use crate::report::{agg_stat_json, check_stat, check_throughput, gate_tolerance, BenchReport};
use crate::runner::AggStat;
use crate::table;
use crate::workload::{Cell, Rep, Workload};
use crate::Scale;
use pdm_linalg::{sampling, Json, Vector};
use pdm_service::{
    MarketService, OutcomeReport, Payload, PrivacyParams, QueryRequest, ServiceConfig,
    TenantConfig, TenantId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Base seed of the privacy grid; each cell derives its traffic trace from
/// `derive_seed(PRIVACY_SEED_BASE + cell_index, rep)`.
const PRIVACY_SEED_BASE: u64 = 0x11E9;

/// Reserve prices are this fraction of the hidden market value (the shard
/// then lifts the effective reserve to cover owner compensation).
const RESERVE_FRACTION: f64 = 0.6;

/// One cell of the privacy grid: a population of privacy tenants whose
/// owners share one ε budget level, under a closed-loop trace with
/// periodic WAL checkpoints and a mid-run restore.
#[derive(Debug, Clone)]
pub struct PrivacyCellSpec {
    /// Row label, e.g. `budget=1.5/owners=4`.
    pub label: String,
    /// Number of registered privacy tenants.
    pub tenants: usize,
    /// Data owners per tenant — the feature dimension of every query.
    pub owners: usize,
    /// Shard count of the service.
    pub shards: usize,
    /// Closed-loop waves to pump (the restore cut falls at the midpoint).
    pub waves: usize,
    /// Per-owner ε budget — sized so owners exhaust mid-run.
    pub epsilon_budget: f64,
    /// Base payout of the tanh compensation contract.
    pub compensation_base: f64,
    /// Tenant records per WAL segment.
    pub wal_segment_size: usize,
    /// A WAL checkpoint is taken every this many waves.
    pub checkpoint_every: usize,
    /// Base seed of the cell's traffic trace.
    pub seed: u64,
}

/// Wall-clock figures of one privacy cell (excluded from the determinism
/// fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyPerf {
    /// End-to-end seconds for the cell (trace + both runs + verify).
    pub wall_clock_secs: f64,
    /// Quotes served per second of drain time on the original service.
    pub quotes_per_sec: f64,
    /// Mean µs for one [`restore_with_wal`] rebuild (base + segments).
    ///
    /// [`restore_with_wal`]: pdm_service::MarketService::restore_with_wal
    pub restore_latency_micros: f64,
}

/// Everything the BENCH v7 report records about one privacy cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyCellReport {
    /// Row label (from the cell spec).
    pub label: String,
    /// Registered privacy tenants.
    pub tenants: u64,
    /// Service shard count.
    pub shards: u64,
    /// Closed-loop waves per repetition.
    pub waves: u64,
    /// Repetitions aggregated.
    pub reps: u64,
    /// Data owners per tenant.
    pub owners: u64,
    /// The per-owner ε budget of the cell.
    pub epsilon_budget: f64,
    /// Quote requests submitted, summed over repetitions.
    pub requests: u64,
    /// Quotes actually served (not throttled), summed over repetitions.
    pub quotes_served: u64,
    /// Outcome reports applied, summed over repetitions.
    pub observations: u64,
    /// Accepted quotes, summed over repetitions.
    pub sales: u64,
    /// Quote requests refused because every weighted owner had exhausted
    /// her budget, summed over repetitions.
    pub throttled: u64,
    /// Posted prices clamped by the arbitrage-free band, summed over reps.
    pub arbitrage_clamps: u64,
    /// Owners retired by the end of the run, summed over repetitions.
    pub owners_exhausted: u64,
    /// WAL segments written, summed over repetitions.
    pub wal_segments: u64,
    /// Quotes served in the first half of the trace, summed over reps.
    pub quoted_early: u64,
    /// Quotes served in the second half — strictly fewer than
    /// `quoted_early` once exhaustion starts throttling supply.
    pub quoted_late: u64,
    /// Cumulative owners-exhausted after each wave, summed element-wise
    /// over repetitions: monotone non-decreasing by construction (sticky
    /// retirement), gated in `validate()`.
    pub exhausted_trajectory: Vec<u64>,
    /// Cumulative revenue per repetition.
    pub revenue: AggStat,
    /// Cumulative owner compensation per repetition (never above revenue).
    pub compensation: AggStat,
    /// Cumulative ε disclosed across all owners per repetition.
    pub epsilon_spent: AggStat,
    /// Acceptance rate per repetition.
    pub accept_rate: AggStat,
    /// Wall-clock throughput/latency figures.
    pub perf: PrivacyPerf,
}

/// One precomputed request of the traffic trace.
struct TraceRequest {
    tenant: u64,
    features: Vector,
    value: f64,
    reserve: f64,
}

/// The per-repetition supply, WAL and restore figures.  The repetition's
/// metrics and scrape are the *original* service's (the restored twin
/// replays the same second half, so folding both would double-count the
/// post-cut traffic).
pub struct PrivacyOutcome {
    quoted_early: u64,
    trajectory: Vec<u64>,
    wal_segments: u64,
    restore_latency: Duration,
}

/// Precomputes the full trace: one query per tenant per wave, drawn from
/// per-tenant streams so the identical requests can replay against the
/// original service and the restored one.
fn build_trace(
    spec: &PrivacyCellSpec,
    traffic_seed: u64,
) -> Result<Vec<Vec<TraceRequest>>, String> {
    let mut streams: Vec<StdRng> = Vec::with_capacity(spec.tenants);
    let mut thetas: Vec<Vector> = Vec::with_capacity(spec.tenants);
    for id in 0..spec.tenants as u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(traffic_seed, id.wrapping_add(1)));
        thetas.push(
            sampling::unit_sphere(&mut rng, spec.owners)
                .map(f64::abs)
                .normalized(),
        );
        streams.push(rng);
    }
    let mut trace = Vec::with_capacity(spec.waves);
    for _ in 0..spec.waves {
        let mut requests = Vec::with_capacity(spec.tenants);
        for id in 0..spec.tenants as u64 {
            let rng = &mut streams[id as usize];
            let features = sampling::standard_normal_vector(rng, spec.owners)
                .map(f64::abs)
                .normalized();
            let value = thetas[id as usize]
                .dot(&features)
                .map_err(|e| format!("{}: dot: {e}", spec.label))?;
            requests.push(TraceRequest {
                tenant: id,
                features,
                value,
                reserve: RESERVE_FRACTION * value,
            });
        }
        trace.push(requests);
    }
    Ok(trace)
}

/// Builds the cell's service and registers its privacy tenants.
fn build_service(spec: &PrivacyCellSpec) -> Result<MarketService, String> {
    let mut service = MarketService::new(ServiceConfig {
        shards: spec.shards,
        queue_capacity: spec.tenants.max(4),
        wal_segment_size: Some(spec.wal_segment_size),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("{}: config: {e}", spec.label))?;
    let params = PrivacyParams {
        epsilon_budget: spec.epsilon_budget,
        compensation_base: spec.compensation_base,
        ..PrivacyParams::default()
    };
    let config = TenantConfig::privacy(spec.owners, spec.waves, params);
    for id in 0..spec.tenants as u64 {
        service
            .register_tenant(TenantId(id), config)
            .map_err(|e| format!("{}: register: {e}", spec.label))?;
    }
    Ok(service)
}

/// Replays `waves` of the trace against `service`.  Served quotes push
/// their posted-price bits; budget-exhausted refusals push a `u64::MAX`
/// sentinel — both must reproduce exactly on a restored service.  After
/// each wave the cumulative owners-exhausted counter is appended to
/// `trajectory`.  Returns the accumulated drain time.
fn run_waves(
    label: &str,
    service: &mut MarketService,
    trace: &[Vec<TraceRequest>],
    workers: usize,
    bits: &mut Vec<(u64, u64)>,
    trajectory: &mut Vec<u64>,
) -> Result<Duration, String> {
    let mut drain_time = Duration::ZERO;
    let mut responses = Vec::new();
    for requests in trace {
        for request in requests {
            service
                .submit_quote(QueryRequest {
                    tenant: TenantId(request.tenant),
                    features: request.features.clone(),
                    reserve_price: request.reserve,
                })
                .map_err(|e| format!("{label}: submit: {e}"))?;
        }
        responses.clear();
        let started = Instant::now();
        service.drain_into(workers, &mut responses);
        drain_time += started.elapsed();
        for response in &responses {
            match &response.payload {
                Payload::Quoted(quote) => {
                    let request = requests
                        .iter()
                        .find(|r| r.tenant == response.tenant.0)
                        .ok_or_else(|| format!("{label}: response without a request"))?;
                    bits.push((response.tenant.0, quote.posted_price.to_bits()));
                    service
                        .submit_outcome(OutcomeReport {
                            tenant: response.tenant,
                            accepted: quote.posted_price <= request.value,
                            market_value: Some(request.value),
                        })
                        .map_err(|e| format!("{label}: outcome: {e}"))?;
                }
                Payload::Failed(_) => bits.push((response.tenant.0, u64::MAX)),
                other => {
                    return Err(format!(
                        "{label}: privacy tenants only quote or throttle, got {other:?}"
                    ))
                }
            }
        }
        responses.clear();
        let started = Instant::now();
        service.drain_into(workers, &mut responses);
        drain_time += started.elapsed();
        trajectory.push(service.aggregate_metrics().owners_exhausted);
    }
    Ok(drain_time)
}

/// Runs one repetition of one cell: first half with checkpoints under
/// traffic, the timed restore at the cut, then the identical second half
/// on both services with bit-for-bit comparison — prices, refusals, the
/// exhaustion trajectory, and the ε/compensation ledger totals.
fn run_rep(
    spec: &PrivacyCellSpec,
    workers: usize,
    rep: u64,
) -> Result<Rep<PrivacyOutcome>, String> {
    let trace = build_trace(spec, derive_seed(spec.seed, rep))?;
    let cut = spec.waves / 2;

    let mut original = build_service(spec)?;
    let base = original
        .snapshot()
        .map_err(|e| format!("{}: base snapshot: {e}", spec.label))?;
    let mut stream: Vec<Json> = Vec::new();
    let mut drain_time = Duration::ZERO;
    let mut pre_cut_bits = Vec::new();
    let mut trajectory = Vec::with_capacity(spec.waves);
    for (wave, requests) in trace[..cut].iter().enumerate() {
        drain_time += run_waves(
            &spec.label,
            &mut original,
            std::slice::from_ref(requests),
            workers,
            &mut pre_cut_bits,
            &mut trajectory,
        )?;
        if (wave + 1) % spec.checkpoint_every == 0 {
            stream.extend(
                original
                    .checkpoint()
                    .map_err(|e| format!("{}: checkpoint: {e}", spec.label))?,
            );
        }
    }
    stream.extend(
        original
            .checkpoint()
            .map_err(|e| format!("{}: cut checkpoint: {e}", spec.label))?,
    );

    let restore_started = Instant::now();
    let mut restored = MarketService::restore_with_wal(&base, &stream)
        .map_err(|e| format!("{}: restore: {e}", spec.label))?;
    let restore_latency = restore_started.elapsed();

    // The restored service must agree with the original on everything the
    // ledgers promise to carry: the pricing counters AND the privacy
    // economics — ε spent, compensation accrued, owners retired.
    let original_cut = original.aggregate_metrics();
    let restored_cut = restored.aggregate_metrics();
    if restored_cut.quotes_served != original_cut.quotes_served
        || restored_cut.sales != original_cut.sales
        || restored_cut.revenue.to_bits() != original_cut.revenue.to_bits()
        || restored_cut.epsilon_spent.to_bits() != original_cut.epsilon_spent.to_bits()
        || restored_cut.compensation_paid.to_bits() != original_cut.compensation_paid.to_bits()
        || restored_cut.owners_exhausted != original_cut.owners_exhausted
        || restored_cut.privacy_throttled != original_cut.privacy_throttled
    {
        return Err(format!(
            "{}: the WAL restore lost ledger state at the cut (ε {} vs {}, compensation \
             {} vs {}, exhausted {} vs {})",
            spec.label,
            restored_cut.epsilon_spent,
            original_cut.epsilon_spent,
            restored_cut.compensation_paid,
            original_cut.compensation_paid,
            restored_cut.owners_exhausted,
            original_cut.owners_exhausted,
        ));
    }
    let quoted_early = original_cut.quotes_served;

    // Second half: the identical trace against both services.
    let mut expected = Vec::new();
    drain_time += run_waves(
        &spec.label,
        &mut original,
        &trace[cut..],
        workers,
        &mut expected,
        &mut trajectory,
    )?;
    let mut actual = Vec::new();
    let mut restored_trajectory = Vec::with_capacity(spec.waves - cut);
    run_waves(
        &spec.label,
        &mut restored,
        &trace[cut..],
        workers,
        &mut actual,
        &mut restored_trajectory,
    )?;
    if expected != actual {
        return Err(format!(
            "{}: the restored service diverged from the original over the post-cut trace \
             — ledger restore is not bit-identical",
            spec.label
        ));
    }
    if trajectory[cut..] != restored_trajectory[..] {
        return Err(format!(
            "{}: the restored service's exhaustion trajectory diverged from the original",
            spec.label
        ));
    }

    Ok(Rep {
        outcome: PrivacyOutcome {
            quoted_early,
            trajectory,
            wal_segments: original.wal_segments_written(),
            restore_latency,
        },
        metrics: original.aggregate_metrics(),
        drain_time,
        scrape: original.scrape(),
    })
}

impl Workload for PrivacyCellSpec {
    const NAME: &'static str = "privacy";
    const VERIFIED: &'static str = "posted prices, refusals, ε ledgers, exhaustion trajectory";
    type Outcome = PrivacyOutcome;
    type Row = PrivacyCellReport;

    /// The privacy grid at the given scale: one tenant population under two ε
    /// budget levels (tight and looser), both sized to bind before the run
    /// ends so the supply-throttling gates have something to measure.
    fn grid(scale: Scale) -> Vec<Self> {
        let tenants = scale.pick(6usize, 16);
        let owners = scale.pick(4usize, 8);
        let shards = scale.pick(2usize, 4);
        let waves = scale.pick(24usize, 64);
        let budgets = scale.pick(vec![1.5f64, 3.0], vec![3.0, 6.0]);
        let wal_segment_size = scale.pick(4usize, 16);
        let checkpoint_every = scale.pick(4usize, 8);
        budgets
            .into_iter()
            .enumerate()
            .map(|(index, budget)| PrivacyCellSpec {
                label: format!("budget={budget}/owners={owners}"),
                tenants,
                owners,
                shards,
                waves,
                epsilon_budget: budget,
                compensation_base: 0.05,
                wal_segment_size,
                checkpoint_every,
                seed: PRIVACY_SEED_BASE + index as u64,
            })
            .collect()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn shards(&self) -> usize {
        self.shards
    }

    fn run_rep(&self, workers: usize, rep: u64) -> Result<Rep<PrivacyOutcome>, String> {
        run_rep(self, workers, rep)
    }

    fn fold(&self, cell: &Cell<PrivacyOutcome>) -> PrivacyCellReport {
        let metrics = &cell.metrics;
        let reps = cell.rep_count();
        let quoted_early: u64 = cell.reps.iter().map(|rep| rep.outcome.quoted_early).sum();
        let mut trajectory = vec![0u64; self.waves];
        for rep in &cell.reps {
            for (slot, sample) in trajectory.iter_mut().zip(&rep.outcome.trajectory) {
                *slot += sample;
            }
        }
        let restore_time: Duration = cell
            .reps
            .iter()
            .map(|rep| rep.outcome.restore_latency)
            .sum();
        PrivacyCellReport {
            label: self.label.clone(),
            tenants: self.tenants as u64,
            shards: self.shards as u64,
            waves: self.waves as u64,
            reps,
            owners: self.owners as u64,
            epsilon_budget: self.epsilon_budget,
            requests: reps * (self.waves as u64) * (self.tenants as u64),
            quotes_served: metrics.quotes_served,
            observations: metrics.observations,
            sales: metrics.sales,
            throttled: metrics.privacy_throttled,
            arbitrage_clamps: metrics.arbitrage_clamps,
            owners_exhausted: metrics.owners_exhausted,
            wal_segments: cell.reps.iter().map(|rep| rep.outcome.wal_segments).sum(),
            quoted_early,
            quoted_late: metrics.quotes_served - quoted_early,
            exhausted_trajectory: trajectory,
            revenue: cell.stat(|rep| rep.metrics.revenue),
            compensation: cell.stat(|rep| rep.metrics.compensation_paid),
            epsilon_spent: cell.stat(|rep| rep.metrics.epsilon_spent),
            accept_rate: cell.stat(|rep| rep.metrics.accept_rate()),
            perf: PrivacyPerf {
                wall_clock_secs: cell.wall_clock_secs,
                quotes_per_sec: cell.per_drain_sec(metrics.quotes_served),
                restore_latency_micros: restore_time.as_secs_f64() * 1e6 / reps as f64,
            },
        }
    }

    fn render(rows: &[PrivacyCellReport]) -> Vec<String> {
        vec![render_privacy(rows)]
    }

    fn validate(rows: &[PrivacyCellReport], _full_scale: bool, violations: &mut Vec<String>) {
        for cell in rows {
            let place = format!("privacy / {}", cell.label);
            for (what, stat, upper) in [
                ("revenue", &cell.revenue, None),
                ("compensation", &cell.compensation, None),
                ("epsilon spent", &cell.epsilon_spent, None),
                ("acceptance rate", &cell.accept_rate, Some(1.0)),
            ] {
                check_stat(violations, &place, what, stat, upper);
            }
            if cell.quotes_served == 0 {
                violations.push(format!("{place}: served no quotes at all"));
            }
            // The arbitrage-free accounting identity: the shard lifts every
            // reserve to cover owner payouts, so cumulative compensation can
            // never exceed cumulative revenue.
            let tolerance =
                gate_tolerance(cell.revenue.mean.abs().max(cell.compensation.mean.abs()));
            if cell.compensation.mean > cell.revenue.mean + tolerance {
                violations.push(format!(
                    "{place}: owner compensation {} exceeded revenue {}",
                    cell.compensation.mean, cell.revenue.mean
                ));
            }
            // Retirement is sticky, so the per-wave exhaustion trajectory
            // must be monotone non-decreasing...
            if cell
                .exhausted_trajectory
                .windows(2)
                .any(|pair| pair[1] < pair[0])
            {
                violations.push(format!(
                    "{place}: the owners-exhausted trajectory decreased — retirement \
                     must be sticky"
                ));
            }
            // ...and the grid is sized so budgets actually bind: a run where
            // no owner ever exhausted measured nothing.
            if cell.owners_exhausted == 0 {
                violations.push(format!(
                    "{place}: no owner ever exhausted her budget — the cell never \
                     exercised the throttling it exists to measure"
                ));
            } else {
                // Exhaustion must measurably throttle supply: the second
                // half of the trace serves strictly fewer quotes.
                if cell.quoted_late >= cell.quoted_early {
                    violations.push(format!(
                        "{place}: budget exhaustion did not throttle supply ({} quotes \
                         served late vs {} early)",
                        cell.quoted_late, cell.quoted_early
                    ));
                }
                if cell.throttled == 0 {
                    violations.push(format!(
                        "{place}: owners exhausted but no quote was ever refused"
                    ));
                }
            }
            // A privacy run that wrote no WAL segments never exercised the
            // ledger-persistence path it exists to verify.
            if cell.wal_segments == 0 {
                violations.push(format!("{place}: wrote no WAL segments at all"));
            }
            let throughput = cell.perf.quotes_per_sec;
            check_throughput(
                violations,
                &place,
                "quotes/sec",
                cell.quotes_served,
                throughput,
            );
            if !cell.perf.restore_latency_micros.is_finite()
                || cell.perf.restore_latency_micros < 0.0
            {
                violations.push(format!(
                    "{place}: restore latency µs is not a sane figure ({})",
                    cell.perf.restore_latency_micros
                ));
            }
        }
    }

    fn deterministic_json(cell: &PrivacyCellReport) -> Vec<(&'static str, Json)> {
        vec![
            ("label", Json::str(&cell.label)),
            ("tenants", Json::Num(cell.tenants as f64)),
            ("shards", Json::Num(cell.shards as f64)),
            ("waves", Json::Num(cell.waves as f64)),
            ("reps", Json::Num(cell.reps as f64)),
            ("owners", Json::Num(cell.owners as f64)),
            ("epsilon_budget", Json::Num(cell.epsilon_budget)),
            ("requests", Json::Num(cell.requests as f64)),
            ("quotes_served", Json::Num(cell.quotes_served as f64)),
            ("observations", Json::Num(cell.observations as f64)),
            ("sales", Json::Num(cell.sales as f64)),
            ("throttled", Json::Num(cell.throttled as f64)),
            ("arbitrage_clamps", Json::Num(cell.arbitrage_clamps as f64)),
            ("owners_exhausted", Json::Num(cell.owners_exhausted as f64)),
            ("wal_segments", Json::Num(cell.wal_segments as f64)),
            ("quoted_early", Json::Num(cell.quoted_early as f64)),
            ("quoted_late", Json::Num(cell.quoted_late as f64)),
            (
                "exhausted_trajectory",
                Json::Arr(
                    cell.exhausted_trajectory
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            ("revenue", agg_stat_json(&cell.revenue)),
            ("compensation", agg_stat_json(&cell.compensation)),
            ("epsilon_spent", agg_stat_json(&cell.epsilon_spent)),
            ("accept_rate", agg_stat_json(&cell.accept_rate)),
        ]
    }

    fn perf_json(cell: &PrivacyCellReport) -> Vec<(&'static str, Json)> {
        vec![
            ("wall_clock_secs", Json::Num(cell.perf.wall_clock_secs)),
            ("quotes_per_sec", Json::Num(cell.perf.quotes_per_sec)),
            (
                "restore_latency_micros",
                Json::Num(cell.perf.restore_latency_micros),
            ),
        ]
    }

    fn rows(report: &mut BenchReport) -> &mut Vec<PrivacyCellReport> {
        &mut report.privacy
    }
}

/// Renders the privacy cells as the console table `bench privacy` prints.
#[must_use]
fn render_privacy(cells: &[PrivacyCellReport]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.label.clone(),
                cell.quotes_served.to_string(),
                cell.throttled.to_string(),
                format!(
                    "{}/{}",
                    cell.owners_exhausted,
                    cell.owners * cell.tenants * cell.reps
                ),
                cell.arbitrage_clamps.to_string(),
                cell.wal_segments.to_string(),
                table::fmt(cell.revenue.mean, 2),
                table::fmt(cell.compensation.mean, 2),
                table::fmt(cell.epsilon_spent.mean, 2),
                table::fmt(cell.perf.restore_latency_micros, 1),
                table::fmt(cell.perf.quotes_per_sec, 0),
            ]
        })
        .collect();
    table::render(
        &[
            "cell",
            "quotes",
            "throttled",
            "exhausted",
            "clamps",
            "wal segs",
            "revenue",
            "payouts",
            "ε spent",
            "restore µs",
            "quotes/s",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_cell;
    use pdm_service::MetricRegistry;

    fn run(spec: &PrivacyCellSpec, workers: usize, reps: u64) -> PrivacyCellReport {
        run_cell(spec, workers, reps, &mut MetricRegistry::new()).unwrap()
    }

    fn tiny_cell() -> PrivacyCellSpec {
        PrivacyCellSpec {
            label: "budget=1.5/owners=4".to_owned(),
            tenants: 4,
            owners: 4,
            shards: 2,
            waves: 16,
            epsilon_budget: 1.5,
            compensation_base: 0.05,
            wal_segment_size: 4,
            checkpoint_every: 4,
            seed: 7,
        }
    }

    #[test]
    fn grid_scales_and_labels_carry_the_budget() {
        let quick = PrivacyCellSpec::grid(Scale::Quick);
        assert_eq!(quick.len(), 2);
        assert!(quick[0].label.contains("budget="));
        assert!(quick[0].epsilon_budget < quick[1].epsilon_budget);
        let full = PrivacyCellSpec::grid(Scale::Full);
        assert!(full[0].tenants > quick[0].tenants);
        assert!(full[0].waves > quick[0].waves);
    }

    #[test]
    fn cell_exhausts_owners_and_throttles_supply() {
        let report = run(&tiny_cell(), 2, 1);
        assert!(report.quotes_served > 0);
        assert!(report.sales > 0, "the session must make sales to spend ε");
        assert!(
            report.owners_exhausted > 0,
            "the budget must bind mid-run, or the cell measures nothing"
        );
        assert!(report.throttled > 0, "exhausted tenants must refuse quotes");
        assert!(
            report.quoted_late < report.quoted_early,
            "throttling must shrink the served supply ({} late vs {} early)",
            report.quoted_late,
            report.quoted_early
        );
        assert!(report.wal_segments > 0);
        assert!(report.revenue.mean > 0.0);
        assert!(report.compensation.mean > 0.0);
        assert!(
            report.compensation.mean <= report.revenue.mean,
            "the reserve lift must keep payouts under revenue"
        );
        assert!(report.epsilon_spent.mean > 0.0);
        // Sticky retirement: the sampled trajectory never decreases and
        // ends at the final counter.
        let mut last = 0u64;
        for &sample in &report.exhausted_trajectory {
            assert!(sample >= last, "trajectory must be monotone");
            last = sample;
        }
        assert_eq!(last, report.owners_exhausted);
        assert!(report.perf.restore_latency_micros > 0.0);
    }

    #[test]
    fn worker_count_does_not_move_deterministic_aggregates() {
        let one = run(&tiny_cell(), 1, 1);
        let two = run(&tiny_cell(), 2, 1);
        assert_eq!(one.quotes_served, two.quotes_served);
        assert_eq!(one.sales, two.sales);
        assert_eq!(one.throttled, two.throttled);
        assert_eq!(one.owners_exhausted, two.owners_exhausted);
        assert_eq!(one.arbitrage_clamps, two.arbitrage_clamps);
        assert_eq!(one.exhausted_trajectory, two.exhausted_trajectory);
        assert_eq!(one.quoted_early, two.quoted_early);
        assert_eq!(one.quoted_late, two.quoted_late);
        assert_eq!(one.revenue.mean.to_bits(), two.revenue.mean.to_bits());
        assert_eq!(
            one.compensation.mean.to_bits(),
            two.compensation.mean.to_bits()
        );
        assert_eq!(
            one.epsilon_spent.mean.to_bits(),
            two.epsilon_spent.mean.to_bits()
        );
    }

    #[test]
    fn render_lists_every_column() {
        let report = run(&tiny_cell(), 1, 1);
        let rendered = render_privacy(std::slice::from_ref(&report));
        assert!(rendered.contains("budget=1.5/owners=4"));
        assert!(rendered.contains("throttled"));
        assert!(rendered.contains("payouts"));
        assert!(rendered.contains("ε spent"));
    }
}
