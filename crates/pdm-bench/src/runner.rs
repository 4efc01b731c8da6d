//! The parallel experiment runner and the aggregation of repeated runs.
//!
//! [`run_jobs`] executes a flat [`JobSpec`] list across a `std::thread::scope`
//! worker pool.  Workers pull job indices from a shared atomic counter and
//! write each result into its own pre-allocated slot, so the returned vector
//! is in job order no matter which worker finished what when — combined with
//! the per-job seeding of [`crate::grid`], the *deterministic* half of every
//! aggregate is bit-identical for 1 worker and for N.
//!
//! [`aggregate_cell`] folds the repetitions of one grid cell into
//! mean / sample-std / 95 %-CI summaries ([`AggStat`]) plus the throughput
//! and latency figures ([`CellPerf`]).  Wall-clock derived numbers are kept
//! strictly apart from the deterministic aggregates: they live in
//! [`CellAggregate::perf`] and are excluded from the determinism fingerprint
//! (see [`crate::report`]).

use crate::grid::{Checkpoint, JobSpec};
use pdm_linalg::{mean, sample_std};
use pdm_obs::{LogHistogram, MetricRegistry};
use pdm_pricing::prelude::SimulationOutcome;
use pdm_service::metrics::LATENCY_HISTOGRAM;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One executed job: the simulation outcome plus its wall-clock cost.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The outcome of the simulation.
    pub outcome: SimulationOutcome,
    /// Wall-clock seconds this job took on its worker.
    pub wall_clock_secs: f64,
}

/// Executes every job across `workers` OS threads, returning results in job
/// order.
///
/// Each job is fully self-contained (its spec carries its own seeds), so the
/// execution schedule cannot affect any outcome.  Jobs whose specs are
/// identical (the `all` grid's `table1` cells repeat `fig4`'s with-reserve
/// cells, for example) run once: later duplicates reuse the first job's
/// result, including its wall clock — the same workload has the same perf
/// profile.  `workers` is clamped to `[1, jobs.len()]`.
///
/// # Panics
/// Propagates a panic from any job (the scope joins all workers first).
#[must_use]
pub fn run_jobs(jobs: &[JobSpec], workers: usize) -> Vec<JobResult> {
    if jobs.is_empty() {
        return Vec::new();
    }
    // canonical[i] is the index of the first job with an identical spec
    // (i itself when unique).  O(n²) scan over at most a few hundred jobs.
    let canonical: Vec<usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| jobs[..i].iter().position(|other| other == job).unwrap_or(i))
        .collect();

    let workers = workers.clamp(1, jobs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                if canonical[index] != index {
                    continue;
                }
                let start = Instant::now();
                let outcome = job.run();
                let result = JobResult {
                    outcome,
                    wall_clock_secs: start.elapsed().as_secs_f64(),
                };
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    let mut executed: Vec<Option<JobResult>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect();
    let mut results: Vec<JobResult> = Vec::with_capacity(jobs.len());
    for (index, &first) in canonical.iter().enumerate() {
        let result = if first == index {
            executed[index]
                .take()
                .expect("every canonical job was claimed and executed")
        } else {
            // The canonical index is always smaller, so it is already final.
            results[first].clone()
        };
        results.push(result);
    }
    results
}

/// Mean / spread summary of one scalar across repetitions.
///
/// `std` is the sample standard deviation and `ci95_half` the half-width of
/// the normal-approximation 95 % confidence interval (`1.96 · std / √reps`);
/// both are zero for a single repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggStat {
    /// Mean across repetitions.
    pub mean: f64,
    /// Sample standard deviation across repetitions.
    pub std: f64,
    /// Half-width of the 95 % confidence interval around the mean.
    pub ci95_half: f64,
    /// Smallest repetition value.
    pub min: f64,
    /// Largest repetition value.
    pub max: f64,
}

impl AggStat {
    /// Summarises the values in repetition order (deterministic fold).
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: f64::NAN,
                std: f64::NAN,
                ci95_half: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
            };
        }
        let std = sample_std(values);
        Self {
            mean: mean(values),
            std,
            ci95_half: 1.96 * std / (values.len() as f64).sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// A plain mean/std pair (per-round statistics averaged over repetitions,
/// for the Table-I columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Mean of the per-round statistic.
    pub mean: f64,
    /// Population standard deviation of the per-round statistic.
    pub std: f64,
}

/// One aggregated checkpoint of the cumulative-regret curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointAggregate {
    /// Round index the checkpoint resolved to.
    pub round: usize,
    /// Cumulative regret at the checkpoint, across repetitions.
    pub cumulative_regret: AggStat,
    /// Regret ratio at the checkpoint, across repetitions.
    pub regret_ratio: AggStat,
}

/// Throughput and latency figures for one cell (wall-clock derived, **not**
/// part of the determinism fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct CellPerf {
    /// Total wall-clock seconds across the cell's repetitions.
    pub wall_clock_secs: f64,
    /// Simulated rounds per wall-clock second (all repetitions pooled).
    pub rounds_per_sec: f64,
    /// Mean per-round latency in µs (averaged over repetitions).
    pub latency_mean_micros: f64,
    /// Median per-round latency in µs (averaged over repetitions; NaN when
    /// the workload bypasses the instrumented simulation loop).
    pub latency_p50_micros: f64,
    /// p99 per-round latency in µs (averaged over repetitions).
    pub latency_p99_micros: f64,
    /// Worst single-round latency in µs across all repetitions.
    pub latency_max_micros: f64,
    /// Largest knowledge-set memory footprint across repetitions, in bytes.
    pub memory_bytes: usize,
}

/// Everything the report records about one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAggregate {
    /// Row label (from the cell spec).
    pub label: String,
    /// The mechanism's self-reported name (from the first repetition).
    pub mechanism_name: String,
    /// Number of repetitions aggregated.
    pub reps: u64,
    /// Rounds per repetition (from the first repetition).
    pub rounds: usize,
    /// Final cumulative regret across repetitions.
    pub cumulative_regret: AggStat,
    /// Final regret ratio across repetitions.
    pub regret_ratio: AggStat,
    /// Final cumulative revenue across repetitions.
    pub revenue: AggStat,
    /// Acceptance rate across repetitions.
    pub acceptance_rate: AggStat,
    /// Per-round market value (Table I column), averaged over repetitions.
    pub market_value_per_round: MeanStd,
    /// Per-round reserve price (Table I column).
    pub reserve_price_per_round: MeanStd,
    /// Per-round posted price (Table I column).
    pub posted_price_per_round: MeanStd,
    /// Per-round regret (Table I column).
    pub regret_per_round: MeanStd,
    /// Aggregated regret-curve checkpoints.
    pub checkpoints: Vec<CheckpointAggregate>,
    /// Wall-clock derived throughput/latency figures.
    pub perf: CellPerf,
}

/// Folds the repetitions of one cell into a [`CellAggregate`].
///
/// `results` must hold the cell's repetitions in repetition order; the
/// checkpoints are resolved against the first repetition's realised horizon.
///
/// # Panics
/// Panics when `results` is empty.
#[must_use]
pub fn aggregate_cell(
    label: &str,
    checkpoints: &[Checkpoint],
    results: &[JobResult],
) -> CellAggregate {
    assert!(!results.is_empty(), "a cell needs at least one repetition");
    let outcomes: Vec<&SimulationOutcome> = results.iter().map(|r| &r.outcome).collect();
    let first = outcomes[0];
    let rounds = first.report.rounds;

    let stat = |f: &dyn Fn(&SimulationOutcome) -> f64| {
        AggStat::from_values(&outcomes.iter().map(|o| f(o)).collect::<Vec<f64>>())
    };
    let mean_over = |f: &dyn Fn(&SimulationOutcome) -> f64| {
        mean(&outcomes.iter().map(|o| f(o)).collect::<Vec<f64>>())
    };

    let checkpoint_aggregates = checkpoints
        .iter()
        .map(|cp| {
            let round = cp.resolve(rounds);
            CheckpointAggregate {
                round,
                cumulative_regret: stat(&|o| {
                    o.trace_at(round).map_or(f64::NAN, |s| s.cumulative_regret)
                }),
                regret_ratio: stat(&|o| o.trace_at(round).map_or(f64::NAN, |s| s.regret_ratio)),
            }
        })
        .collect();

    let wall_clock_secs: f64 = results.iter().map(|r| r.wall_clock_secs).sum();
    let total_rounds: usize = outcomes.iter().map(|o| o.report.rounds).sum();
    let perf = CellPerf {
        wall_clock_secs,
        rounds_per_sec: if wall_clock_secs > 0.0 {
            total_rounds as f64 / wall_clock_secs
        } else {
            f64::NAN
        },
        latency_mean_micros: mean_over(&|o| o.round_latency_micros.mean()),
        latency_p50_micros: mean_over(&|o| o.round_latency_p50_micros),
        latency_p99_micros: mean_over(&|o| o.round_latency_p99_micros),
        // An empty latency accumulator (Lemma-8 jobs bypass the simulation
        // loop) reports max = -inf; normalise to NaN like the percentiles,
        // the one "no figure" value the report knows (written as null).
        latency_max_micros: {
            let max = outcomes
                .iter()
                .map(|o| o.round_latency_micros.max())
                .fold(f64::NEG_INFINITY, f64::max);
            if max.is_finite() {
                max
            } else {
                f64::NAN
            }
        },
        memory_bytes: outcomes
            .iter()
            .map(|o| o.memory_footprint_bytes)
            .max()
            .unwrap_or(0),
    };

    CellAggregate {
        label: label.to_owned(),
        mechanism_name: first.mechanism_name.clone(),
        reps: results.len() as u64,
        rounds,
        cumulative_regret: stat(&|o| o.report.cumulative_regret),
        regret_ratio: stat(&|o| o.report.regret_ratio()),
        revenue: stat(&|o| o.report.cumulative_revenue),
        acceptance_rate: stat(&|o| o.report.acceptance_rate()),
        market_value_per_round: MeanStd {
            mean: mean_over(&|o| o.report.market_value_stats.mean()),
            std: mean_over(&|o| o.report.market_value_stats.population_std()),
        },
        reserve_price_per_round: MeanStd {
            mean: mean_over(&|o| o.report.reserve_price_stats.mean()),
            std: mean_over(&|o| o.report.reserve_price_stats.population_std()),
        },
        posted_price_per_round: MeanStd {
            mean: mean_over(&|o| o.report.posted_price_stats.mean()),
            std: mean_over(&|o| o.report.posted_price_stats.population_std()),
        },
        regret_per_round: MeanStd {
            mean: mean_over(&|o| o.report.regret_stats.mean()),
            std: mean_over(&|o| o.report.regret_stats.population_std()),
        },
        checkpoints: checkpoint_aggregates,
        perf,
    }
}

/// Folds one repetition's per-request service-latency histogram (from its
/// final service scrape) into a cell's pooled histogram.
pub(crate) fn pool_latency(pooled: &mut LogHistogram, scrape: &MetricRegistry) {
    if let Some(latency) = scrape.histogram_counts(LATENCY_HISTOGRAM) {
        pooled.merge(latency);
    }
}

/// Median and p99 per-request service latency in µs, read off a pooled
/// latency histogram (`NaN` when nothing was served).
pub(crate) fn latency_p50_p99_micros(pooled: &LogHistogram) -> (f64, f64) {
    let micros = |q| pooled.quantile(q).map_or(f64::NAN, |nanos| nanos / 1e3);
    (micros(0.50), micros(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{expand_jobs, CellSpec, JobSpec};

    fn tiny_grid() -> Vec<Vec<CellSpec>> {
        vec![vec![
            CellSpec::new(
                "correct",
                JobSpec::Lemma8 {
                    horizon: 40,
                    conservative_cuts: false,
                },
            ),
            CellSpec::new(
                "conservative",
                JobSpec::Lemma8 {
                    horizon: 40,
                    conservative_cuts: true,
                },
            ),
        ]]
    }

    #[test]
    fn worker_counts_do_not_change_outcomes() {
        let jobs = expand_jobs(&tiny_grid(), 2);
        let serial = run_jobs(&jobs, 1);
        let parallel = run_jobs(&jobs, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(
                a.outcome.report.cumulative_regret,
                b.outcome.report.cumulative_regret
            );
            assert_eq!(a.outcome.mechanism_name, b.outcome.mechanism_name);
        }
    }

    #[test]
    fn duplicate_specs_run_once_and_share_their_result() {
        // Two experiments whose cells carry the identical spec (the `all`
        // grid's table1-vs-fig4 overlap): the duplicate must reuse the first
        // job's result verbatim instead of re-simulating.
        let spec = JobSpec::Synthetic {
            dim: 2,
            rounds: 90,
            env_seed: 21,
            run_seed: 22,
            reserve: Some(true),
            epsilon: None,
            mechanism: crate::grid::SyntheticMechanism::Ellipsoid,
        };
        let grid = vec![
            vec![CellSpec::new("first", spec.clone())],
            vec![CellSpec::new("again", spec)],
        ];
        let jobs = expand_jobs(&grid, 1);
        let results = run_jobs(&jobs, 2);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].outcome.report.cumulative_regret,
            results[1].outcome.report.cumulative_regret
        );
        // The duplicate inherits the canonical wall clock (same workload,
        // same perf profile) rather than a fresh measurement of zero work.
        assert_eq!(results[0].wall_clock_secs, results[1].wall_clock_secs);
        assert!(results[0].wall_clock_secs > 0.0);
    }

    #[test]
    fn run_jobs_handles_empty_and_oversized_worker_counts() {
        assert!(run_jobs(&[], 8).is_empty());
        let jobs = expand_jobs(&tiny_grid(), 1);
        let results = run_jobs(&jobs, 64);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.wall_clock_secs >= 0.0));
    }

    #[test]
    fn agg_stat_matches_hand_computed_values() {
        let stat = AggStat::from_values(&[1.0, 2.0, 3.0]);
        assert!((stat.mean - 2.0).abs() < 1e-12);
        assert!((stat.std - 1.0).abs() < 1e-12);
        assert!((stat.ci95_half - 1.96 / 3.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(stat.min, 1.0);
        assert_eq!(stat.max, 3.0);

        let single = AggStat::from_values(&[5.0]);
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.std, 0.0);
        assert_eq!(single.ci95_half, 0.0);

        assert!(AggStat::from_values(&[]).mean.is_nan());
    }

    #[test]
    fn aggregate_cell_summarises_repetitions() {
        let grid = vec![vec![CellSpec::new(
            "synthetic",
            JobSpec::Synthetic {
                dim: 2,
                rounds: 120,
                env_seed: 3,
                run_seed: 4,
                reserve: Some(true),
                epsilon: None,
                mechanism: crate::grid::SyntheticMechanism::Ellipsoid,
            },
        )
        .with_checkpoints(vec![Checkpoint::Round(10), Checkpoint::Fraction(1.0)])]];
        let jobs = expand_jobs(&grid, 3);
        let results = run_jobs(&jobs, 2);
        let cell = aggregate_cell("synthetic", &grid[0][0].checkpoints, &results);

        assert_eq!(cell.reps, 3);
        assert_eq!(cell.rounds, 120);
        assert!(cell.cumulative_regret.mean.is_finite());
        assert!(cell.cumulative_regret.mean >= 0.0);
        assert!(cell.regret_ratio.mean >= 0.0 && cell.regret_ratio.mean <= 1.0);
        // Three different seeds: the reps should not all coincide.
        assert!(cell.cumulative_regret.std > 0.0);
        assert_eq!(cell.checkpoints.len(), 2);
        assert_eq!(cell.checkpoints[1].round, 120);
        assert!(cell.checkpoints[0].cumulative_regret.mean <= cell.cumulative_regret.max);
        assert!(cell.perf.wall_clock_secs > 0.0);
        assert!(cell.perf.rounds_per_sec > 0.0);
        assert!(cell.perf.latency_p99_micros >= cell.perf.latency_p50_micros);
    }
}
