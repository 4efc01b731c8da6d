//! The one driver behind the closed-loop service workloads (`bench serve`,
//! `auction`, `drift`, `longhaul`, `privacy`).
//!
//! A workload is a [`Workload`] impl on its cell-spec type: the grid, one
//! verified repetition ([`Workload::run_rep`]), the fold of a cell's
//! repetitions into a report row, the row's one column list (which the
//! report cell and the console table both read) and the `--check` gates.
//! [`run_cells`] owns everything else: the repetition loop, the cell wall
//! clock, the summed drain time, the [`ShardMetrics`] merge, latency
//! pooling and the fold of every repetition's scrape into the run-wide
//! registry.
//!
//! The registry merges are exact integer folds, so neither the cell order
//! nor the repetition order moves a bucket; everything a fold feeds into
//! the deterministic half of a row is folded in repetition order.

use crate::report::{BenchReport, Column};
use crate::runner::{latency_p50_p99_micros, pool_latency, AggStat};
use crate::Scale;
use pdm_obs::LogHistogram;
use pdm_service::{MetricRegistry, ShardMetrics};
use std::time::{Duration, Instant};

/// One closed-loop service workload, implemented on its cell-spec type.
pub trait Workload: Sized {
    /// The `bench` subcommand, the banner name and the report section key.
    const NAME: &'static str;
    /// What every cell's serial replay checked, for the console footer.
    const VERIFIED: &'static str;
    /// What one repetition reports beyond the parts every workload shares.
    type Outcome;
    /// The report row one cell folds into.
    type Row;

    /// The grid at the given scale.
    fn grid(scale: Scale) -> Vec<Self>;
    /// The cell's label, which `--filter` matches against.
    fn label(&self) -> &str;
    /// The cell's shard count, which bounds the useful drain workers.
    fn shards(&self) -> usize;
    /// Runs and verifies one repetition.
    ///
    /// # Errors
    /// A message naming the cell when the run or its verification fails.
    fn run_rep(&self, workers: usize, rep: u64) -> Result<Rep<Self::Outcome>, String>;
    /// Folds a cell's repetitions into its report row.
    fn fold(&self, cell: &Cell<Self::Outcome>) -> Self::Row;
    /// The row's columns, in report order: the report cell, its `perf`
    /// object and the console table all read this one list.
    fn columns(row: &Self::Row) -> Vec<Column<'_>>;
    /// Appends the `--check` violations of a report section.
    fn validate(rows: &[Self::Row], full_scale: bool, violations: &mut Vec<String>);
    /// The report section this workload's rows live in.
    fn rows(report: &mut BenchReport) -> &mut Vec<Self::Row>;
}

/// One verified repetition: the workload's own outcome plus the
/// service-side parts the driver folds the same way for every workload.
pub struct Rep<O> {
    /// What the workload reports beyond the shared parts.
    pub outcome: O,
    /// The service-wide metrics fold at the end of the repetition.
    pub metrics: ShardMetrics,
    /// Time spent inside the service's drains.
    pub drain_time: Duration,
    /// The service's final `pdm-obs` scrape.
    pub scrape: MetricRegistry,
}

/// A cell's repetitions, with the parts every workload folds the same way
/// already folded.
pub struct Cell<O> {
    /// The repetitions, in order.
    pub reps: Vec<Rep<O>>,
    /// Every repetition's metrics, merged in order.
    pub metrics: ShardMetrics,
    /// Every repetition's per-request latency histogram, pooled.
    pub latency: LogHistogram,
    /// Summed drain seconds over every repetition.
    pub drain_secs: f64,
    /// End-to-end seconds for the cell.
    pub wall_clock_secs: f64,
}

impl<O> Cell<O> {
    /// The repetition count.
    #[must_use]
    pub fn rep_count(&self) -> u64 {
        self.reps.len() as u64
    }

    /// `count` per second of drain time (0 when no drain time accrued).
    #[must_use]
    pub fn per_drain_sec(&self, count: u64) -> f64 {
        if self.drain_secs > 0.0 {
            count as f64 / self.drain_secs
        } else {
            0.0
        }
    }

    /// A per-repetition figure aggregated over the repetitions, in order.
    #[must_use]
    pub fn stat(&self, value: impl Fn(&Rep<O>) -> f64) -> AggStat {
        AggStat::from_values(&self.reps.iter().map(value).collect::<Vec<_>>())
    }

    /// The pooled latency histogram's (p50, p99) in µs.
    #[must_use]
    pub fn latency_p50_p99_micros(&self) -> (f64, f64) {
        latency_p50_p99_micros(&self.latency)
    }
}

/// Runs one cell (`reps` repetitions, at least one) and folds it into its
/// report row, merging every repetition's scrape into `obs`.
///
/// # Errors
/// The first repetition's failure.
pub fn run_cell<W: Workload>(
    spec: &W,
    workers: usize,
    reps: u64,
    obs: &mut MetricRegistry,
) -> Result<W::Row, String> {
    let started = Instant::now();
    let mut cell = Cell {
        reps: Vec::new(),
        metrics: ShardMetrics::new(),
        latency: LogHistogram::new(),
        drain_secs: 0.0,
        wall_clock_secs: 0.0,
    };
    let mut drain_time = Duration::ZERO;
    for rep in 0..reps.max(1) {
        let outcome = spec.run_rep(workers, rep)?;
        cell.metrics.merge(&outcome.metrics);
        pool_latency(&mut cell.latency, &outcome.scrape);
        drain_time += outcome.drain_time;
        obs.merge(&outcome.scrape);
        cell.reps.push(outcome);
    }
    cell.drain_secs = drain_time.as_secs_f64();
    cell.wall_clock_secs = started.elapsed().as_secs_f64();
    Ok(spec.fold(&cell))
}

/// Runs one cell on a throwaway registry, for the workloads' unit tests.
#[cfg(test)]
pub(crate) fn run_test_cell<W: Workload>(spec: &W, workers: usize, reps: u64) -> W::Row {
    run_cell(spec, workers, reps, &mut MetricRegistry::new()).expect("the cell must run")
}

/// Runs a set of cells (a whole grid, or a `--filter` subset) in order.
///
/// # Errors
/// The first cell's failure.
pub fn run_cells<W: Workload>(
    cells: &[W],
    workers: usize,
    reps: u64,
    obs: &mut MetricRegistry,
) -> Result<Vec<W::Row>, String> {
    cells
        .iter()
        .map(|spec| run_cell(spec, workers, reps, obs))
        .collect()
}
