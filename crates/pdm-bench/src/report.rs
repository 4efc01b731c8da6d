//! The versioned `BENCH_*.json` report: schema, writer, validation.
//!
//! A [`BenchReport`] is what `bench <subcommand> --json <path>` writes: run
//! metadata (schema version, git describe, scale, worker count, wall clock)
//! plus one [`ExperimentReport`] per experiment, each holding the
//! [`CellAggregate`]s the runner produced.  CI archives these files per
//! commit so the perf trajectory of the hot paths accumulates run-over-run.
//!
//! Two derived artifacts matter:
//!
//! * [`BenchReport::deterministic_fingerprint`] renders only the
//!   schedule-independent half of the report (no wall clock, no latency, no
//!   git metadata).  The determinism suite asserts this string is
//!   byte-identical for `--workers 1` and `--workers 4`.
//! * [`BenchReport::validate`] is the `--check` gate CI runs at quick scale:
//!   any NaN or negative regret aggregate, or any regret ratio above 1,
//!   fails the build.
//!
//! The report is write-only: nothing in the workspace reads one back.
//! Schema changes must bump [`SCHEMA_VERSION`]; the schema is documented
//! in `docs/BENCHMARKS.md`.

use crate::auction::{AuctionCellReport, AuctionCellSpec};
use crate::drift::{DriftCellReport, DriftCellSpec};
use crate::grid::CellSpec;
use crate::json::Json;
use crate::longhaul::{LonghaulCellReport, LonghaulCellSpec};
use crate::privacy::{PrivacyCellReport, PrivacyCellSpec};
use crate::runner::{aggregate_cell, AggStat, CellAggregate, JobResult};
use crate::serve::{ServeCellReport, ServeCellSpec};
use crate::table;
use crate::workload::Workload;
use std::borrow::Cow;
use std::process::Command;

/// Version of the `BENCH_*.json` schema this build writes.
///
/// v8 added the additive top-level `obs` section (the deterministic half
/// of the run's merged `pdm-obs` registry — per-stage span work histograms
/// on the fixed log-bucket grid, the exported service counters, and the
/// point-in-time gauges — byte-identical for any `--workers`) and the
/// additive `latency_mean_micros` perf column of the auction and drift
/// cells, pooled from the all-time streaming latency stats;
/// v7 added the additive `privacy` section (the `bench privacy` workload:
/// privacy-budget economics over a grid of ε budget levels, with
/// revenue-vs-compensation accounting, the per-wave owners-exhausted
/// trajectory, supply throttling as budgets bind, arbitrage-clamp counts,
/// and a bit-identical mid-run WAL restore carrying the owner ledgers);
/// v6 added the additive `longhaul` section (the `bench longhaul`
/// workload: sustained continuous-ingest serving with WAL checkpoints
/// under traffic, a timed mid-run restore verified bit for bit, and
/// cold-tenant paging churn — with memory-per-tenant and restore-latency
/// perf columns);
/// v5 added the additive top-level `perf` summary (the serve workload's
/// grid-level quotes/sec as a first-class figure, the one the
/// `--perf-floor` CI gate reads) — absent for simulation-only runs;
/// v4 added the additive `drift` section (the `bench drift` workload: the
/// drift-kind × magnitude × policy grid with post-shift regret, detector
/// firings, and restarts) and made the `validate()` tolerances
/// scale-relative;
/// v3 added the additive `auction` section (the `bench auction` workload:
/// the bidder-count × distribution × reserve-policy grid with clearing
/// revenue, the no-reserve baseline, welfare, and reserve hit-rates);
/// v2 added the additive `serve` section (the `bench serve` closed-loop
/// workload: quotes/sec plus p50/p99 service latency per workload cell).
pub const SCHEMA_VERSION: u64 = 8;

/// Headline throughput summary (schema v5): the serve workload folded into
/// one first-class perf figure, so CI can gate regressions on a single
/// number instead of re-deriving it from the per-cell section.  Entirely
/// wall-clock derived — never part of the deterministic fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSummary {
    /// Total quotes served across every serve cell.
    pub serve_quotes: u64,
    /// Total drain (service) seconds accumulated across every serve cell.
    pub serve_drain_secs: f64,
    /// Grid-level throughput: `serve_quotes / serve_drain_secs`.
    pub serve_quotes_per_sec: f64,
    /// The slowest single cell's quotes/sec (the tail the floor protects).
    pub serve_min_cell_quotes_per_sec: f64,
}

impl PerfSummary {
    /// Folds the serve cells into the headline summary; `None` when the run
    /// had no serve cells (simulation-only reports carry no summary).
    #[must_use]
    pub fn from_serve(cells: &[ServeCellReport]) -> Option<Self> {
        if cells.is_empty() {
            return None;
        }
        let serve_quotes: u64 = cells.iter().map(|c| c.metrics.quotes_served).sum();
        // Each cell reports quotes/sec over its accumulated drain time, so
        // the drain seconds are recovered exactly as quotes ÷ throughput.
        let serve_drain_secs: f64 = cells
            .iter()
            .filter(|c| c.perf.quotes_per_sec > 0.0)
            .map(|c| c.metrics.quotes_served as f64 / c.perf.quotes_per_sec)
            .sum();
        let serve_quotes_per_sec = if serve_drain_secs > 0.0 {
            serve_quotes as f64 / serve_drain_secs
        } else {
            0.0
        };
        let serve_min_cell_quotes_per_sec = cells
            .iter()
            .map(|c| c.perf.quotes_per_sec)
            .fold(f64::INFINITY, f64::min);
        Some(Self {
            serve_quotes,
            serve_drain_secs,
            serve_quotes_per_sec,
            serve_min_cell_quotes_per_sec,
        })
    }
}

/// The checked-in throughput floor (`docs/PERF_FLOOR.json`) the
/// `--perf-floor` gate compares a fresh report's [`PerfSummary`] against.
///
/// The gate fails when grid-level quotes/sec falls more than
/// `max_regression` (a fraction, e.g. `0.3`) below `serve_quotes_per_sec`.
/// The floor is deliberately conservative — it catches order-of-magnitude
/// hot-path regressions, not machine-to-machine noise.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfFloor {
    /// The reference grid-level serve throughput, quotes per second.
    pub serve_quotes_per_sec: f64,
    /// Largest tolerated fractional regression below the reference.
    pub max_regression: f64,
}

impl PerfFloor {
    /// Parses a floor file.
    ///
    /// # Errors
    /// A message naming the missing or out-of-range field.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let serve_quotes_per_sec = value
            .get("serve_quotes_per_sec")
            .and_then(Json::as_f64)
            .ok_or("perf floor: missing number `serve_quotes_per_sec`")?;
        if !serve_quotes_per_sec.is_finite() || serve_quotes_per_sec <= 0.0 {
            return Err(format!(
                "perf floor: `serve_quotes_per_sec` must be positive, got {serve_quotes_per_sec}"
            ));
        }
        let max_regression = value
            .get("max_regression")
            .and_then(Json::as_f64)
            .ok_or("perf floor: missing number `max_regression`")?;
        if !(0.0..1.0).contains(&max_regression) {
            return Err(format!(
                "perf floor: `max_regression` must be a fraction in [0, 1), got {max_regression}"
            ));
        }
        Ok(Self {
            serve_quotes_per_sec,
            max_regression,
        })
    }

    /// Applies the gate to a report.  `Ok` carries the pass message to
    /// print; `Err` carries the failure (a report without serve cells
    /// cannot be gated and also fails).
    pub fn check(&self, report: &BenchReport) -> Result<String, String> {
        let perf = report.perf.as_ref().ok_or(
            "perf floor: the report has no serve cells — gate a `bench serve` run".to_owned(),
        )?;
        let bar = (1.0 - self.max_regression) * self.serve_quotes_per_sec;
        if perf.serve_quotes_per_sec < bar {
            return Err(format!(
                "perf floor failed: grid serve throughput {:.0} quotes/s fell below \
                 {:.0} (floor {:.0} − {:.0}% tolerance)",
                perf.serve_quotes_per_sec,
                bar,
                self.serve_quotes_per_sec,
                self.max_regression * 100.0
            ));
        }
        Ok(format!(
            "perf floor passed: grid serve throughput {:.0} quotes/s >= {:.0} \
             (floor {:.0} − {:.0}% tolerance)",
            perf.serve_quotes_per_sec,
            bar,
            self.serve_quotes_per_sec,
            self.max_regression * 100.0
        ))
    }
}

/// The aggregates of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment name (e.g. `fig4/n=20`, `overhead/applications`).
    pub name: String,
    /// One aggregate per grid cell.
    pub cells: Vec<CellAggregate>,
}

/// The top-level report one `bench` invocation writes.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] for freshly written reports).
    pub schema_version: u64,
    /// The subcommand that produced the report (`all`, `fig4`, …).
    pub name: String,
    /// `git describe --always --dirty` of the tree, or `unknown`.
    pub git_describe: String,
    /// `quick` or `full`.
    pub scale: String,
    /// Worker threads the grid ran on: for a service workload, the drain
    /// workers every drain used, which each cell's JSON also records.
    pub workers: usize,
    /// Repetitions per cell.
    pub reps: u64,
    /// End-to-end wall-clock seconds for the whole grid.
    pub wall_clock_secs: f64,
    /// Per-experiment aggregates.
    pub experiments: Vec<ExperimentReport>,
    /// Serve-workload cells (schema v2; empty for other runs).
    pub serve: Vec<ServeCellReport>,
    /// Auction-workload cells (schema v3; empty for other runs).
    pub auction: Vec<AuctionCellReport>,
    /// Drift-workload cells (schema v4; empty for other runs).
    pub drift: Vec<DriftCellReport>,
    /// Longhaul-workload cells (schema v6; empty for other runs).
    pub longhaul: Vec<LonghaulCellReport>,
    /// Privacy-workload cells (schema v7; empty for other runs).
    pub privacy: Vec<PrivacyCellReport>,
    /// Headline throughput summary (schema v5; `None` without serve cells).
    pub perf: Option<PerfSummary>,
    /// Deterministic observability dump (schema v8): the merged run
    /// registry's `to_json(deterministic_only = true)` — per-stage span
    /// work histograms, exported service counters, and gauges, all
    /// byte-identical for any `--workers`.  `None` for simulation-only
    /// runs.
    pub obs: Option<Json>,
}

/// Groups executed job results back into per-experiment aggregates.
///
/// `named_grids` pairs each experiment's name with its cells, in the same
/// order the grids were passed to [`crate::grid::expand_jobs`] with `reps`;
/// `results` is the runner's output for that job list, where each cell's
/// repetitions are the next `reps.max(1)` entries.  This is the one
/// aggregation path — the `bench` CLI and the determinism suite both call
/// it, so the suite exercises exactly what ships.
#[must_use]
pub fn build_experiment_reports<'a, I>(
    named_grids: I,
    reps: u64,
    results: &[JobResult],
) -> Vec<ExperimentReport>
where
    I: IntoIterator<Item = (&'a str, &'a [CellSpec])>,
{
    let mut cell_results = results.chunks(reps.max(1) as usize);
    named_grids
        .into_iter()
        .map(|(name, cells)| ExperimentReport {
            name: name.to_owned(),
            cells: cells
                .iter()
                .map(|cell| {
                    let reps = cell_results.next().unwrap_or_default();
                    aggregate_cell(&cell.label, &cell.checkpoints, reps)
                })
                .collect(),
        })
        .collect()
}

/// `git describe --always --dirty --tags` of the working tree, `unknown`
/// when git is unavailable.
#[must_use]
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub(crate) fn agg_stat_json(stat: &AggStat) -> Json {
    Json::obj(vec![
        ("mean", Json::Num(stat.mean)),
        ("std", Json::Num(stat.std)),
        ("ci95_half", Json::Num(stat.ci95_half)),
        ("min", Json::Num(stat.min)),
        ("max", Json::Num(stat.max)),
    ])
}

/// One column of a report row: its JSON key, which half of the cell it
/// sits in (the fingerprint or `perf`), and — when the console table shows
/// it — its header and number format.  A column with a header and no key
/// is shown only.  A row lists its columns once, in report order; the
/// report cell and the console table both read that list.
pub struct Column<'a> {
    key: Option<&'static str>,
    perf: bool,
    value: Value<'a>,
    shown: Option<(&'static str, Format)>,
}

/// The value of a [`Column`].
pub enum Value<'a> {
    /// Text: a JSON string, shown as it is.
    Text(Cow<'a, str>),
    /// An event count.
    Count(u64),
    /// A real number.
    Num(f64),
    /// An aggregate over repetitions; the console shows its mean.
    Stat(&'a AggStat),
    /// Any other JSON value; the console never shows one.
    Json(Json),
}

/// How the console table prints a column's value.
#[derive(Clone, Copy)]
enum Format {
    /// Text as it is, a count in full.
    Plain,
    /// A ratio as a percentage.
    Pct,
    /// A number with this many decimals.
    Fixed(usize),
}

impl<'a> From<&'a String> for Value<'a> {
    fn from(text: &'a String) -> Self {
        Value::Text(Cow::Borrowed(text))
    }
}

impl From<u64> for Value<'_> {
    fn from(count: u64) -> Self {
        Value::Count(count)
    }
}

impl From<f64> for Value<'_> {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl<'a> From<&'a AggStat> for Value<'a> {
    fn from(stat: &'a AggStat) -> Self {
        Value::Stat(stat)
    }
}

impl From<Json> for Value<'_> {
    fn from(json: Json) -> Self {
        Value::Json(json)
    }
}

impl Value<'_> {
    fn into_json(self) -> Json {
        match self {
            Value::Text(text) => Json::str(&text),
            Value::Count(count) => Json::Num(count as f64),
            Value::Num(x) => Json::Num(x),
            Value::Stat(stat) => agg_stat_json(stat),
            Value::Json(json) => json,
        }
    }

    fn text(&self, format: Format) -> String {
        let number = match self {
            Value::Text(text) => return text.to_string(),
            Value::Count(count) if matches!(format, Format::Plain) => return count.to_string(),
            Value::Json(json) => return json.render(),
            Value::Count(count) => *count as f64,
            Value::Num(x) => *x,
            Value::Stat(stat) => stat.mean,
        };
        match format {
            Format::Plain => number.to_string(),
            Format::Pct => table::pct(number),
            Format::Fixed(decimals) => table::fmt(number, decimals),
        }
    }
}

impl<'a> Column<'a> {
    /// A column of the cell's deterministic half, its fingerprint.
    pub fn new(key: &'static str, value: impl Into<Value<'a>>) -> Self {
        Self {
            key: Some(key),
            perf: false,
            value: value.into(),
            shown: None,
        }
    }

    /// A wall-clock column, in the cell's `perf` object.
    pub fn perf(key: &'static str, value: impl Into<Value<'a>>) -> Self {
        Self {
            perf: true,
            ..Self::new(key, value)
        }
    }

    /// A column only the console shows: `text` under `header`.
    pub fn table(header: &'static str, text: String) -> Self {
        Self {
            key: None,
            perf: false,
            value: Value::Text(Cow::Owned(text)),
            shown: Some((header, Format::Plain)),
        }
    }

    /// Shows the value as it is under `header`.
    #[must_use]
    pub fn show(self, header: &'static str) -> Self {
        self.shown(header, Format::Plain)
    }

    /// Shows the value as a percentage under `header`.
    #[must_use]
    pub fn pct(self, header: &'static str) -> Self {
        self.shown(header, Format::Pct)
    }

    /// Shows the value with `decimals` decimals under `header`.
    #[must_use]
    pub fn fixed(self, header: &'static str, decimals: usize) -> Self {
        self.shown(header, Format::Fixed(decimals))
    }

    fn shown(self, header: &'static str, format: Format) -> Self {
        Self {
            shown: Some((header, format)),
            ..self
        }
    }
}

/// One row as a report cell: its fingerprint columns, then — in a full
/// report — the drain worker count (service rows) and the `perf` object.
fn cell_json(columns: Vec<Column<'_>>, full: bool, workers: Option<usize>) -> Json {
    let (mut pairs, mut perf) = (Vec::new(), Vec::new());
    for column in columns {
        if let Some(key) = column.key {
            let half = if column.perf { &mut perf } else { &mut pairs };
            half.push((key, column.value.into_json()));
        }
    }
    if full {
        pairs.extend(workers.map(|workers| ("workers", Json::Num(workers as f64))));
        pairs.push(("perf", Json::obj(perf)));
    }
    Json::obj(pairs)
}

/// A service workload's report section: its key and its cells.
fn section<W: Workload>(rows: &[W::Row], full: bool, workers: usize) -> (&'static str, Json) {
    let cells = rows
        .iter()
        .map(|row| cell_json(W::columns(row), full, Some(workers)))
        .collect();
    (W::NAME, Json::Arr(cells))
}

/// The console table of a set of rows: every column with a header, in
/// column order.
pub fn render_table<R>(rows: &[R], columns: impl Fn(&R) -> Vec<Column<'_>>) -> String {
    let mut headers = Vec::new();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let shown = columns(row).into_iter().filter_map(|column| {
                let (header, format) = column.shown?;
                Some((header, column.value.text(format)))
            });
            let texts;
            (headers, texts) = shown.unzip();
            texts
        })
        .collect();
    table::render(&headers, &cells)
}

impl PerfSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("serve_quotes", Json::Num(self.serve_quotes as f64)),
            ("serve_drain_secs", Json::Num(self.serve_drain_secs)),
            ("serve_quotes_per_sec", Json::Num(self.serve_quotes_per_sec)),
            (
                "serve_min_cell_quotes_per_sec",
                Json::Num(self.serve_min_cell_quotes_per_sec),
            ),
        ])
    }
}

impl BenchReport {
    /// An empty report of the current schema: no cells, no summary, no
    /// obs section, zero wall clock, and `unknown` git metadata.
    #[must_use]
    pub fn new(name: &str, scale: &str, workers: usize, reps: u64) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            name: name.to_owned(),
            git_describe: "unknown".to_owned(),
            scale: scale.to_owned(),
            workers,
            reps,
            wall_clock_secs: 0.0,
            experiments: Vec::new(),
            serve: Vec::new(),
            auction: Vec::new(),
            drift: Vec::new(),
            longhaul: Vec::new(),
            privacy: Vec::new(),
            perf: None,
            obs: None,
        }
    }

    /// The cell sections in schema order: the experiments, then the five
    /// service workloads.  `full` adds each cell's worker count and `perf`.
    fn sections(&self, full: bool) -> [(&'static str, Json); 6] {
        let experiments = self
            .experiments
            .iter()
            .map(|exp| {
                let cells = exp
                    .cells
                    .iter()
                    .map(|cell| cell_json(cell.columns(), full, None))
                    .collect();
                Json::obj(vec![
                    ("name", Json::str(&exp.name)),
                    ("cells", Json::Arr(cells)),
                ])
            })
            .collect();
        [
            ("experiments", Json::Arr(experiments)),
            section::<ServeCellSpec>(&self.serve, full, self.workers),
            section::<AuctionCellSpec>(&self.auction, full, self.workers),
            section::<DriftCellSpec>(&self.drift, full, self.workers),
            section::<LonghaulCellSpec>(&self.longhaul, full, self.workers),
            section::<PrivacyCellSpec>(&self.privacy, full, self.workers),
        ]
    }

    /// Serialises the full report (metadata + aggregates + perf).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("name", Json::str(&self.name)),
            ("git_describe", Json::str(&self.git_describe)),
            ("scale", Json::str(&self.scale)),
            ("workers", Json::Num(self.workers as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("wall_clock_secs", Json::Num(self.wall_clock_secs)),
        ];
        pairs.extend(self.sections(true));
        if let Some(perf) = &self.perf {
            pairs.push(("perf", perf.to_json()));
        }
        if let Some(obs) = &self.obs {
            pairs.push(("obs", obs.clone()));
        }
        Json::obj(pairs)
    }

    /// Canonical rendering of the schedule-independent aggregates: the
    /// experiments and their cells *without* `perf`, wall clock, worker
    /// count, or git metadata.  Byte-identical across worker counts.
    #[must_use]
    pub fn deterministic_fingerprint(&self) -> String {
        let mut pairs = vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("name", Json::str(&self.name)),
            ("scale", Json::str(&self.scale)),
            ("reps", Json::Num(self.reps as f64)),
        ];
        pairs.extend(self.sections(false));
        // The obs dump is built with `to_json(deterministic_only = true)`,
        // which drops every wall-clock histogram — what's left (work-unit
        // spans, counters, gauges) is schedule-independent.
        pairs.push(("obs", self.obs.clone().unwrap_or(Json::Null)));
        Json::obj(pairs).render()
    }

    /// The CI sanity gate: every deterministic aggregate must be finite and
    /// non-negative, and the bounded ones (regret ratio, acceptance rate)
    /// must not exceed 1.  Each service workload adds its own gates
    /// ([`Workload::validate`]).
    ///
    /// Returns the list of violations (empty means the report is healthy).
    /// Perf figures are exempt — latency percentiles are legitimately NaN
    /// for workloads that bypass the instrumented simulation loop.
    ///
    /// Tolerances are **scale-relative** (`gate_tolerance`): a lower
    /// bound is breached only when the value is negative beyond
    /// `1e-9 · max(1, |stat|)`, so full-scale revenue/welfare sums in the
    /// thousands cannot false-positive on f64 accumulation noise, while
    /// unit-scale rates keep the old absolute `1e-9` bar.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for exp in &self.experiments {
            for cell in &exp.cells {
                let place = format!("{} / {}", exp.name, cell.label);
                // (what, stat, upper bound) — regret and revenue are only
                // bounded below; ratios and rates live in [0, 1].
                let mut gates: Vec<(String, &AggStat, Option<f64>)> = vec![
                    (
                        "cumulative regret".to_owned(),
                        &cell.cumulative_regret,
                        None,
                    ),
                    ("revenue".to_owned(), &cell.revenue, None),
                    ("regret ratio".to_owned(), &cell.regret_ratio, Some(1.0)),
                    (
                        "acceptance rate".to_owned(),
                        &cell.acceptance_rate,
                        Some(1.0),
                    ),
                ];
                for cp in &cell.checkpoints {
                    gates.push((
                        format!("regret at t={}", cp.round),
                        &cp.cumulative_regret,
                        None,
                    ));
                    gates.push((
                        format!("ratio at t={}", cp.round),
                        &cp.regret_ratio,
                        Some(1.0),
                    ));
                }
                for (what, stat, upper) in gates {
                    check_stat(&mut violations, &place, &what, stat, upper);
                }
            }
        }
        let full_scale = self.scale == "full";
        ServeCellSpec::validate(&self.serve, full_scale, &mut violations);
        AuctionCellSpec::validate(&self.auction, full_scale, &mut violations);
        DriftCellSpec::validate(&self.drift, full_scale, &mut violations);
        LonghaulCellSpec::validate(&self.longhaul, full_scale, &mut violations);
        PrivacyCellSpec::validate(&self.privacy, full_scale, &mut violations);
        // The v5 headline summary must agree with the serve section it was
        // folded from: present exactly when serve cells are, and positive
        // whenever anything was served.
        match &self.perf {
            Some(perf) => {
                let total: u64 = self.serve.iter().map(|c| c.metrics.quotes_served).sum();
                if perf.serve_quotes != total {
                    violations.push(format!(
                        "perf summary: serve_quotes {} disagrees with the serve section's {}",
                        perf.serve_quotes, total
                    ));
                }
                if perf.serve_quotes > 0
                    && (!perf.serve_quotes_per_sec.is_finite() || perf.serve_quotes_per_sec <= 0.0)
                {
                    violations.push(format!(
                        "perf summary: grid quotes/sec is not positive ({})",
                        perf.serve_quotes_per_sec
                    ));
                }
            }
            None if !self.serve.is_empty() => violations.push(
                "perf summary: a v5 report with serve cells must carry the headline summary"
                    .to_owned(),
            ),
            None => {}
        }
        // The v8 obs section, when present, must be the deterministic
        // registry dump: an object whose sections are themselves objects.
        if let Some(obs) = &self.obs {
            match obs {
                Json::Obj(pairs) => {
                    for (key, section) in pairs {
                        if !matches!(section, Json::Obj(_)) {
                            violations.push(format!("obs: section `{key}` is not an object"));
                        }
                    }
                }
                _ => violations.push("obs: the section is not an object".to_owned()),
            }
        }
        violations
    }
}

/// Appends a violation for each of `stat`'s mean/min/max that is not
/// finite, negative beyond the scale-relative tolerance, or above `upper`.
pub(crate) fn check_stat(
    violations: &mut Vec<String>,
    place: &str,
    what: &str,
    stat: &AggStat,
    upper: Option<f64>,
) {
    let tolerance = gate_tolerance(stat_scale(stat));
    for (part, v) in [("mean", stat.mean), ("min", stat.min), ("max", stat.max)] {
        if !v.is_finite() {
            violations.push(format!("{place}: {what} {part} is not finite ({v})"));
        } else if v < -tolerance {
            violations.push(format!("{place}: {what} {part} is negative ({v})"));
        } else if upper.is_some_and(|bound| v > bound + tolerance) {
            violations.push(format!("{place}: {what} {part} exceeds 1 ({v})"));
        }
    }
}

/// Appends a violation when a cell that served `served` requests reports a
/// throughput (`what`, e.g. `quotes/sec`) that is not positive.
pub(crate) fn check_throughput(
    violations: &mut Vec<String>,
    place: &str,
    what: &str,
    served: u64,
    rate: f64,
) {
    if served > 0 && (!rate.is_finite() || rate <= 0.0) {
        violations.push(format!("{place}: {what} is not positive ({rate})"));
    }
}

/// The magnitude scale a gated aggregate lives at (at least 1, so
/// unit-scale rates keep the absolute bar).
fn stat_scale(stat: &AggStat) -> f64 {
    let finite_abs = |v: f64| if v.is_finite() { v.abs() } else { 0.0 };
    finite_abs(stat.mean)
        .max(finite_abs(stat.min))
        .max(finite_abs(stat.max))
}

/// Scale-relative validation tolerance: `1e-9 · max(1, scale)`.  A sum in
/// the thousands accumulates f64 rounding noise far above an absolute
/// `1e-9`, so lower-bound gates scale with the magnitude of the statistic
/// they guard; unit-scale figures (ratios, rates) keep the old bar.
pub(crate) fn gate_tolerance(scale: f64) -> f64 {
    1e-9 * scale.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::AuctionPerf;
    use crate::drift::DriftPerf;
    use crate::longhaul::LonghaulPerf;
    use crate::privacy::PrivacyPerf;
    use crate::runner::{CellPerf, CheckpointAggregate, MeanStd};
    use crate::serve::ServePerf;
    use pdm_auction::AuctionLedger;
    use pdm_service::ShardMetrics;

    fn sample_stat(mean: f64) -> AggStat {
        AggStat {
            mean,
            std: 0.1,
            ci95_half: 0.05,
            min: mean - 0.2,
            max: mean + 0.2,
        }
    }

    fn sample_cell(label: &str) -> CellAggregate {
        CellAggregate {
            label: label.to_owned(),
            mechanism_name: "ellipsoid".to_owned(),
            reps: 3,
            rounds: 500,
            cumulative_regret: sample_stat(12.5),
            regret_ratio: sample_stat(0.4),
            revenue: sample_stat(100.0),
            acceptance_rate: sample_stat(0.8),
            market_value_per_round: MeanStd {
                mean: 3.8,
                std: 1.2,
            },
            reserve_price_per_round: MeanStd {
                mean: 3.3,
                std: 0.7,
            },
            posted_price_per_round: MeanStd {
                mean: 3.6,
                std: 1.6,
            },
            regret_per_round: MeanStd {
                mean: 0.16,
                std: 0.8,
            },
            checkpoints: vec![CheckpointAggregate {
                round: 100,
                cumulative_regret: sample_stat(5.0),
                regret_ratio: sample_stat(0.5),
            }],
            perf: CellPerf {
                wall_clock_secs: 1.5,
                rounds_per_sec: 1000.0,
                latency_mean_micros: 12.0,
                latency_p50_micros: 10.0,
                latency_p99_micros: 40.0,
                latency_max_micros: 90.0,
                memory_bytes: 4096,
            },
        }
    }

    fn sample_serve_cell(label: &str) -> ServeCellReport {
        ServeCellReport {
            label: label.to_owned(),
            mix: "uniform".to_owned(),
            tenants: 16,
            shards: 8,
            waves: 24,
            reps: 2,
            metrics: ShardMetrics {
                quotes_served: 768,
                observations: 768,
                sales: 600,
                shed: 12,
                ..ShardMetrics::default()
            },
            revenue: sample_stat(420.0),
            regret: sample_stat(9.5),
            accept_rate: sample_stat(0.78),
            perf: ServePerf {
                wall_clock_secs: 0.8,
                quotes_per_sec: 50_000.0,
                latency_mean_micros: 4.0,
                latency_p50_micros: 3.5,
                latency_p99_micros: 11.0,
            },
        }
    }

    fn sample_auction_cell(label: &str) -> AuctionCellReport {
        AuctionCellReport {
            label: label.to_owned(),
            distribution: "uniform".to_owned(),
            policy: "session".to_owned(),
            tenants: 4,
            bidders: 2,
            shards: 4,
            waves: 48,
            reps: 2,
            metrics: ShardMetrics {
                auction: AuctionLedger {
                    auctions: 384,
                    sales: 300,
                    reserve_hits: 120,
                    ..AuctionLedger::default()
                },
                ..ShardMetrics::default()
            },
            revenue: sample_stat(210.0),
            baseline_revenue: sample_stat(180.0),
            welfare: sample_stat(260.0),
            hit_rate: sample_stat(0.4),
            perf: AuctionPerf {
                wall_clock_secs: 0.4,
                rounds_per_sec: 80_000.0,
                latency_mean_micros: 3.4,
                latency_p50_micros: 3.0,
                latency_p99_micros: 9.0,
            },
        }
    }

    fn sample_drift_cell(policy: &str, post_shift_mean: f64) -> DriftCellReport {
        DriftCellReport {
            label: format!("kind=piecewise/mag=1.0/policy={policy}"),
            kind: "piecewise".to_owned(),
            magnitude: 1.0,
            policy: policy.to_owned(),
            tenants: 4,
            shards: 4,
            waves: 90,
            reps: 2,
            metrics: ShardMetrics {
                observations: 720,
                sales: 500,
                drift_fires: if policy == "restart" { 8 } else { 0 },
                drift_restarts: if policy == "restart" { 8 } else { 0 },
                ..ShardMetrics::default()
            },
            revenue: sample_stat(300.0),
            regret: sample_stat(40.0),
            post_shift_regret: sample_stat(post_shift_mean),
            accept_rate: sample_stat(0.7),
            perf: DriftPerf {
                wall_clock_secs: 0.3,
                quotes_per_sec: 60_000.0,
                latency_mean_micros: 3.2,
                latency_p50_micros: 3.0,
                latency_p99_micros: 8.0,
            },
        }
    }

    fn sample_longhaul_cell(label: &str) -> LonghaulCellReport {
        LonghaulCellReport {
            label: label.to_owned(),
            tenants: 24,
            shards: 4,
            waves: 24,
            reps: 2,
            resident_capacity: 8,
            wal_segment_size: 8,
            metrics: ShardMetrics {
                quotes_served: 480,
                observations: 480,
                sales: 300,
                evictions: 64,
                rehydrations: 60,
                ..ShardMetrics::default()
            },
            wal_segments: 14,
            max_resident: 8,
            revenue: sample_stat(150.0),
            regret: sample_stat(20.0),
            accept_rate: sample_stat(0.65),
            perf: LonghaulPerf {
                wall_clock_secs: 0.5,
                quotes_per_sec: 40_000.0,
                restore_latency_micros: 850.0,
                memory_per_tenant_bytes: 2_048.0,
            },
        }
    }

    fn sample_privacy_cell(label: &str) -> PrivacyCellReport {
        PrivacyCellReport {
            label: label.to_owned(),
            tenants: 4,
            shards: 2,
            waves: 16,
            reps: 2,
            owners: 4,
            epsilon_budget: 1.5,
            requests: 128,
            metrics: ShardMetrics {
                quotes_served: 90,
                observations: 90,
                sales: 55,
                privacy_throttled: 38,
                arbitrage_clamps: 3,
                owners_exhausted: 28,
                ..ShardMetrics::default()
            },
            wal_segments: 10,
            quoted_early: 60,
            quoted_late: 30,
            exhausted_trajectory: vec![0, 0, 2, 6, 12, 18, 24, 28],
            revenue: sample_stat(40.0),
            compensation: sample_stat(4.0),
            epsilon_spent: sample_stat(22.0),
            accept_rate: sample_stat(0.6),
            perf: PrivacyPerf {
                wall_clock_secs: 0.4,
                quotes_per_sec: 35_000.0,
                restore_latency_micros: 700.0,
            },
        }
    }

    fn sample_report() -> BenchReport {
        let serve = vec![sample_serve_cell("tenants=16/mix=uniform")];
        BenchReport {
            schema_version: SCHEMA_VERSION,
            name: "all".to_owned(),
            git_describe: "abc1234-dirty".to_owned(),
            scale: "quick".to_owned(),
            workers: 4,
            reps: 3,
            wall_clock_secs: 7.25,
            experiments: vec![ExperimentReport {
                name: "fig4/n=20".to_owned(),
                cells: vec![sample_cell("pure version"), sample_cell("with reserve")],
            }],
            perf: PerfSummary::from_serve(&serve),
            serve,
            auction: vec![sample_auction_cell("bidders=2/dist=uniform/policy=session")],
            drift: vec![
                sample_drift_cell("static", 30.0),
                sample_drift_cell("restart", 10.0),
                sample_drift_cell("discounted", 12.0),
            ],
            longhaul: vec![sample_longhaul_cell("tenants=24/cap=8")],
            privacy: vec![sample_privacy_cell("budget=1.5/owners=4")],
            obs: Some(Json::obj(vec![
                (
                    "counters",
                    Json::obj(vec![("quotes_served_total", Json::Num(768.0))]),
                ),
                ("gauges", Json::obj(vec![("tenants", Json::Num(16.0))])),
                (
                    "histograms",
                    Json::obj(vec![(
                        "shard.quote.work_items",
                        Json::obj(vec![
                            ("count", Json::Num(768.0)),
                            ("sum", Json::Num(768.0)),
                            (
                                "buckets",
                                Json::Arr(vec![Json::Arr(vec![Json::Num(1.0), Json::Num(768.0)])]),
                            ),
                        ]),
                    )]),
                ),
            ])),
        }
    }

    #[test]
    fn fingerprint_ignores_perf_and_metadata() {
        let mut a = sample_report();
        let mut b = sample_report();
        b.workers = 1;
        b.wall_clock_secs = 99.0;
        b.git_describe = "elsewhere".to_owned();
        b.experiments[0].cells[0].perf.rounds_per_sec = 1.0;
        // Serve/auction throughput, latency, and the drain worker count are
        // wall-clock/schedule facts, not aggregates.
        b.serve[0].perf.quotes_per_sec = 3.0;
        b.serve[0].perf.latency_p99_micros = 9_999.0;
        b.auction[0].perf.rounds_per_sec = 5.0;
        b.drift[0].perf.quotes_per_sec = 7.0;
        b.longhaul[0].perf.restore_latency_micros = 123_456.0;
        b.longhaul[0].perf.memory_per_tenant_bytes = 1.0;
        b.privacy[0].perf.quotes_per_sec = 2.0;
        b.privacy[0].perf.restore_latency_micros = 9.0;
        // The v5 headline summary is pure wall clock: invisible too.
        b.perf.as_mut().expect("summary").serve_quotes_per_sec = 1.0;
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        // But it does see the aggregates — simulation, serve, and auction
        // alike.
        a.experiments[0].cells[0].cumulative_regret.mean += 1.0;
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        let mut c = sample_report();
        c.serve[0].revenue.mean += 1.0;
        assert_ne!(c.deterministic_fingerprint(), b.deterministic_fingerprint());
        let mut d = sample_report();
        d.auction[0].metrics.auction.reserve_hits += 1;
        assert_ne!(d.deterministic_fingerprint(), b.deterministic_fingerprint());
        let mut e = sample_report();
        e.drift[0].post_shift_regret.mean += 1.0;
        assert_ne!(e.deterministic_fingerprint(), b.deterministic_fingerprint());
        // The longhaul paging/WAL counters are deterministic aggregates, so
        // the fingerprint must see them.
        let mut f = sample_report();
        f.longhaul[0].metrics.evictions += 1;
        assert_ne!(f.deterministic_fingerprint(), b.deterministic_fingerprint());
        // The privacy ledger counters are deterministic aggregates too —
        // ε totals, exhaustion counts, and the per-wave trajectory.
        let mut g = sample_report();
        g.privacy[0].metrics.owners_exhausted += 1;
        assert_ne!(g.deterministic_fingerprint(), b.deterministic_fingerprint());
        let mut h = sample_report();
        h.privacy[0].exhausted_trajectory[3] += 1;
        assert_ne!(h.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn validate_gates_the_obs_section_shape() {
        // A malformed obs section (not an object, or with non-object
        // sections) is a violation; a well-formed one is healthy.
        assert!(sample_report().validate().is_empty());
        let mut scalar = sample_report();
        scalar.obs = Some(Json::Num(1.0));
        assert!(scalar
            .validate()
            .iter()
            .any(|v| v.contains("obs") && v.contains("not an object")));
        let mut bad_section = sample_report();
        bad_section.obs = Some(Json::obj(vec![("counters", Json::Arr(Vec::new()))]));
        assert!(bad_section
            .validate()
            .iter()
            .any(|v| v.contains("`counters` is not an object")));
    }

    #[test]
    fn perf_summary_folds_the_serve_grid_and_gates_the_floor() {
        let report = sample_report();
        let perf = report.perf.as_ref().expect("serve cells imply a summary");
        assert_eq!(perf.serve_quotes, 768);
        assert!((perf.serve_quotes_per_sec - 50_000.0).abs() < 1e-6);
        assert!((perf.serve_min_cell_quotes_per_sec - 50_000.0).abs() < 1e-6);
        assert!((perf.serve_drain_secs - 768.0 / 50_000.0).abs() < 1e-12);
        // No serve cells, no summary.
        assert!(PerfSummary::from_serve(&[]).is_none());

        // The floor gate: a 30% tolerance below 60k is 42k, which 50k
        // clears; a floor of 80k (bar 56k) it does not.
        let floor = PerfFloor {
            serve_quotes_per_sec: 60_000.0,
            max_regression: 0.3,
        };
        assert!(floor.check(&report).expect("passes").contains("passed"));
        let tight = PerfFloor {
            serve_quotes_per_sec: 80_000.0,
            max_regression: 0.3,
        };
        assert!(tight.check(&report).unwrap_err().contains("fell below"));
        // A report without serve cells cannot be gated.
        let mut simulation_only = sample_report();
        simulation_only.serve.clear();
        simulation_only.perf = None;
        assert!(floor
            .check(&simulation_only)
            .unwrap_err()
            .contains("no serve cells"));

        // Floor files parse strictly.
        let parsed = PerfFloor::from_json(
            &Json::parse(r#"{"serve_quotes_per_sec": 1500.0, "max_regression": 0.3}"#).unwrap(),
        )
        .expect("a valid floor file");
        assert_eq!(parsed.serve_quotes_per_sec, 1_500.0);
        assert_eq!(parsed.max_regression, 0.3);
        assert!(PerfFloor::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(PerfFloor::from_json(
            &Json::parse(r#"{"serve_quotes_per_sec": -1.0, "max_regression": 0.3}"#).unwrap()
        )
        .unwrap_err()
        .contains("positive"));
        assert!(PerfFloor::from_json(
            &Json::parse(r#"{"serve_quotes_per_sec": 10.0, "max_regression": 1.5}"#).unwrap()
        )
        .unwrap_err()
        .contains("fraction"));
    }

    #[test]
    fn validate_gates_the_longhaul_residency_and_wal_contracts() {
        assert!(sample_report().validate().is_empty());

        // The resident high-water mark must respect the configured cap.
        let mut over = sample_report();
        over.longhaul[0].max_resident = over.longhaul[0].resident_capacity + 1;
        assert!(over
            .validate()
            .iter()
            .any(|v| v.contains("above the configured cap")));

        // A longhaul run must actually exercise the WAL.
        let mut unwritten = sample_report();
        unwritten.longhaul[0].wal_segments = 0;
        assert!(unwritten
            .validate()
            .iter()
            .any(|v| v.contains("wrote no WAL segments")));

        // A dead cell fails.
        let mut dead = sample_report();
        dead.longhaul[0].metrics.quotes_served = 0;
        assert!(dead
            .validate()
            .iter()
            .any(|v| v.contains("longhaul /") && v.contains("served no quotes")));

        // The report's perf columns must be sane numbers.
        let mut nan_restore = sample_report();
        nan_restore.longhaul[0].perf.restore_latency_micros = f64::NAN;
        assert!(nan_restore
            .validate()
            .iter()
            .any(|v| v.contains("restore latency")));
        let mut negative_memory = sample_report();
        negative_memory.longhaul[0].perf.memory_per_tenant_bytes = -1.0;
        assert!(negative_memory
            .validate()
            .iter()
            .any(|v| v.contains("memory per tenant")));
    }

    #[test]
    fn validate_gates_the_privacy_ledger_economics() {
        assert!(sample_report().validate().is_empty());

        // The accounting identity: owner payouts never exceed revenue.
        let mut upside_down = sample_report();
        upside_down.privacy[0].compensation = sample_stat(99.0);
        assert!(upside_down
            .validate()
            .iter()
            .any(|v| v.contains("compensation") && v.contains("exceeded revenue")));

        // Sticky retirement: the trajectory must never decrease.
        let mut unsticky = sample_report();
        unsticky.privacy[0].exhausted_trajectory[4] = 1;
        assert!(unsticky
            .validate()
            .iter()
            .any(|v| v.contains("trajectory decreased")));

        // The grid exists to measure exhaustion: a run where no budget ever
        // bound is a sizing bug, not a pass.
        let mut unbound = sample_report();
        unbound.privacy[0].metrics.owners_exhausted = 0;
        unbound.privacy[0].exhausted_trajectory = vec![0; 8];
        assert!(unbound
            .validate()
            .iter()
            .any(|v| v.contains("no owner ever exhausted")));

        // And exhaustion must measurably throttle the served supply.
        let mut unthrottled = sample_report();
        unthrottled.privacy[0].quoted_late = unthrottled.privacy[0].quoted_early;
        assert!(unthrottled
            .validate()
            .iter()
            .any(|v| v.contains("did not throttle supply")));
        let mut unrefused = sample_report();
        unrefused.privacy[0].metrics.privacy_throttled = 0;
        assert!(unrefused
            .validate()
            .iter()
            .any(|v| v.contains("no quote was ever refused")));

        // The ledger-persistence path must actually run.
        let mut unwritten = sample_report();
        unwritten.privacy[0].wal_segments = 0;
        assert!(unwritten
            .validate()
            .iter()
            .any(|v| v.contains("privacy /") && v.contains("wrote no WAL segments")));
    }

    #[test]
    fn validate_gates_the_perf_summary_consistency() {
        // A v5 report whose summary disagrees with its serve section fails.
        let mut skewed = sample_report();
        skewed.perf.as_mut().expect("summary").serve_quotes += 1;
        assert!(skewed
            .validate()
            .iter()
            .any(|v| v.contains("disagrees with the serve section")));
        // A v5 report with serve cells but a missing summary fails.
        let mut missing = sample_report();
        missing.perf = None;
        assert!(missing
            .validate()
            .iter()
            .any(|v| v.contains("must carry the headline summary")));
        // A summary claiming zero throughput over served quotes fails.
        let mut stalled = sample_report();
        stalled.perf.as_mut().expect("summary").serve_quotes_per_sec = 0.0;
        assert!(stalled
            .validate()
            .iter()
            .any(|v| v.contains("grid quotes/sec is not positive")));
    }

    #[test]
    fn validate_gates_drift_liveness_and_the_full_scale_post_shift_contract() {
        assert!(sample_report().validate().is_empty());

        // A dead drift cell fails.
        let mut dead = sample_report();
        dead.drift[0].metrics.observations = 0;
        dead.drift[0].metrics.sales = 0;
        assert!(dead
            .validate()
            .iter()
            .any(|v| v.contains("drift /") && v.contains("served no rounds")));

        // The post-shift gate binds at full scale only, only in
        // piecewise-stationary cells, against the matching static column.
        let mut worse = sample_report();
        worse.drift[1].post_shift_regret = sample_stat(35.0); // above static's 30.0
        assert!(worse.validate().is_empty(), "quick scale is not gated");
        worse.scale = "full".to_owned();
        assert!(worse
            .validate()
            .iter()
            .any(|v| v.contains("did not beat the static")));
        // Rotation cells are not gated (no discrete shift to split at).
        worse.drift[1].kind = "rotation".to_owned();
        assert!(worse.validate().is_empty());
    }

    #[test]
    fn validation_tolerance_is_scale_relative() {
        // Unit scale: a negative 1e-8 is a genuine violation (the old
        // absolute bar).
        let mut small = sample_report();
        small.serve[0].accept_rate.min = -1e-8;
        assert!(small
            .validate()
            .iter()
            .any(|v| v.contains("acceptance rate") && v.contains("negative")));

        // Full scale: a revenue aggregate summing to thousands may carry
        // f64 accumulation noise far above 1e-9; a -1e-6 min against a
        // 10⁴-scale mean must NOT false-positive…
        let mut large = sample_report();
        large.serve[0].revenue = AggStat {
            mean: 12_500.0,
            std: 3.0,
            ci95_half: 1.5,
            min: -1e-6,
            max: 12_900.0,
        };
        assert!(
            large.validate().is_empty(),
            "scale-relative tolerance must absorb accumulation noise: {:?}",
            large.validate()
        );

        // …but the same -1e-6 at unit scale is still flagged.
        let mut unit = sample_report();
        unit.serve[0].revenue = AggStat {
            mean: 0.5,
            std: 0.1,
            ci95_half: 0.05,
            min: -1e-6,
            max: 0.9,
        };
        assert!(unit
            .validate()
            .iter()
            .any(|v| v.contains("revenue") && v.contains("negative")));

        // A genuinely negative full-scale aggregate still fails.
        let mut broken = sample_report();
        broken.serve[0].revenue = AggStat {
            mean: 12_500.0,
            std: 3.0,
            ci95_half: 1.5,
            min: -1.0,
            max: 12_900.0,
        };
        assert!(broken
            .validate()
            .iter()
            .any(|v| v.contains("revenue") && v.contains("negative")));
    }

    #[test]
    fn validate_gates_auction_invariants_and_the_full_scale_uplift() {
        assert!(sample_report().validate().is_empty());

        // Welfare below revenue is impossible arithmetic.
        let mut inverted = sample_report();
        inverted.auction[0].welfare = sample_stat(100.0);
        assert!(inverted
            .validate()
            .iter()
            .any(|v| v.contains("welfare") && v.contains("fell below revenue")));

        // A dead cell fails.
        let mut dead = sample_report();
        dead.auction[0].metrics.auction.auctions = 0;
        dead.auction[0].metrics.auction.sales = 0;
        assert!(dead
            .validate()
            .iter()
            .any(|v| v.contains("settled no auction rounds")));

        // Hit rates live in [0, 1].
        let mut excess = sample_report();
        excess.auction[0].hit_rate.max = 1.4;
        assert!(excess
            .validate()
            .iter()
            .any(|v| v.contains("reserve hit rate") && v.contains("exceeds 1")));

        // The learned-reserve uplift gate binds at full scale only, only
        // for learned policies, only under thin competition.
        let mut below = sample_report();
        below.auction[0].revenue = sample_stat(150.0); // below the 180 baseline
        assert!(below.validate().is_empty(), "quick scale is not gated");
        below.scale = "full".to_owned();
        assert!(below
            .validate()
            .iter()
            .any(|v| v.contains("fell below the no-reserve")));
        below.auction[0].policy = "static".to_owned();
        assert!(below.validate().is_empty(), "static cells are not gated");
        below.auction[0].policy = "empirical".to_owned();
        below.auction[0].bidders = 4;
        assert!(
            below.validate().is_empty(),
            "thick-competition cells are not gated"
        );
    }

    #[test]
    fn validate_gates_serve_throughput_and_shedding() {
        let healthy = sample_report();
        assert!(healthy.validate().is_empty());

        // A cell that served traffic but reports zero throughput is broken
        // instrumentation; a cell that served nothing is a broken workload.
        let mut stalled = sample_report();
        stalled.serve[0].perf.quotes_per_sec = 0.0;
        assert!(stalled.validate().iter().any(|v| v.contains("quotes/sec")));
        let mut starved = sample_report();
        let starved_metrics = &mut starved.serve[0].metrics;
        starved_metrics.quotes_served = 0;
        starved_metrics.observations = 0;
        starved_metrics.sales = 0;
        assert!(starved
            .validate()
            .iter()
            .any(|v| v.contains("served no quotes")));

        // Total shed (100%) fails; partial shed passes.
        let mut drowned = sample_report();
        let drowned_metrics = &mut drowned.serve[0].metrics;
        drowned_metrics.quotes_served = 0;
        drowned_metrics.observations = 0;
        drowned_metrics.rejected = 0;
        drowned_metrics.shed = 500;
        assert!(drowned
            .validate()
            .iter()
            .any(|v| v.contains("shed rate reached 100%")));

        // The usual aggregate gates cover serve cells too.
        let mut nan_revenue = sample_report();
        nan_revenue.serve[0].revenue.mean = f64::NAN;
        assert!(nan_revenue
            .validate()
            .iter()
            .any(|v| v.contains("serve /") && v.contains("not finite")));
        let mut excess_rate = sample_report();
        excess_rate.serve[0].accept_rate.max = 1.3;
        assert!(excess_rate
            .validate()
            .iter()
            .any(|v| v.contains("serve /") && v.contains("exceeds 1")));
    }

    #[test]
    fn validate_flags_nan_negative_and_excess_ratio() {
        let healthy = sample_report();
        assert!(healthy.validate().is_empty());

        let mut nan = sample_report();
        nan.experiments[0].cells[0].cumulative_regret.mean = f64::NAN;
        assert!(nan.validate().iter().any(|v| v.contains("not finite")));

        let mut negative = sample_report();
        negative.experiments[0].cells[1].checkpoints[0]
            .cumulative_regret
            .min = -3.0;
        assert!(negative.validate().iter().any(|v| v.contains("negative")));

        let mut excess = sample_report();
        excess.experiments[0].cells[0].regret_ratio.max = 1.5;
        assert!(excess.validate().iter().any(|v| v.contains("exceeds 1")));

        // Revenue and acceptance rate are gated too (the success message
        // claims *all* aggregates are checked).
        let mut inf_revenue = sample_report();
        inf_revenue.experiments[0].cells[0].revenue.mean = f64::INFINITY;
        assert!(inf_revenue
            .validate()
            .iter()
            .any(|v| v.contains("revenue") && v.contains("not finite")));

        let mut bad_rate = sample_report();
        bad_rate.experiments[0].cells[1].acceptance_rate.max = 1.2;
        assert!(bad_rate
            .validate()
            .iter()
            .any(|v| v.contains("acceptance rate") && v.contains("exceeds 1")));

        // NaN perf latency (Lemma-8 cells) is fine.
        let mut nan_perf = sample_report();
        nan_perf.experiments[0].cells[0].perf.latency_p50_micros = f64::NAN;
        assert!(nan_perf.validate().is_empty());
    }

    #[test]
    fn git_describe_returns_something() {
        let describe = git_describe();
        assert!(!describe.is_empty());
    }
}
