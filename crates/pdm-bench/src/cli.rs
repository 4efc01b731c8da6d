//! Command-line front end of the `bench` binary.
//!
//! Parsing is **strict**: an unrecognised flag is an error with a usage
//! message, never silently ignored (a typo like `--ful` used to run the
//! wrong scale for minutes).  Every subcommand accepts `--full`,
//! `--workers`, `--reps`, `--json`, and `--check` uniformly.

use crate::auction::AuctionCellSpec;
use crate::drift::DriftCellSpec;
use crate::experiments::{experiments_for, render_experiment, render_fig1};
use crate::grid::expand_jobs;
use crate::longhaul::LonghaulCellSpec;
use crate::privacy::PrivacyCellSpec;
use crate::report::{
    build_experiment_reports, git_describe, render_table, BenchReport, PerfFloor, PerfSummary,
    SCHEMA_VERSION,
};
use crate::runner::run_jobs;
use crate::serve::{self, ServeCellSpec};
use crate::workload::{run_cells, Workload};
use crate::Scale;
use pdm_service::{drain_workers, MetricRegistry};
use std::path::PathBuf;
use std::time::Instant;

/// The experiments the `bench` binary can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Fig. 1 — closed-form single-round regret shape.
    Fig1,
    /// Fig. 4(a)–(f) — cumulative regret, noisy linear query.
    Fig4,
    /// Fig. 5(a) — regret ratios vs the risk-averse baseline.
    Fig5a,
    /// Fig. 5(b) — accommodation rental, log-linear model.
    Fig5b,
    /// Fig. 5(c) — impression pricing, logistic model.
    Fig5c,
    /// Table I — per-round statistics under the reserve version.
    Table1,
    /// Theorems 1 & 3 — regret growth in T and n, ε ablation.
    RegretScaling,
    /// Section V-D — per-round latency and memory.
    Overhead,
    /// Lemma 8 / Fig. 6 — conservative-cut ablation.
    Lemma8,
    /// The closed-loop serving workload over the sharded `pdm-service`
    /// engine (tenant-count × arrival-mix grid, throughput + latency).
    Serve,
    /// The multi-bidder auction workload (bidder-count × distribution ×
    /// reserve-policy grid with serial-replay verification).
    Auction,
    /// The drifting-market workload (drift-kind × magnitude × policy grid
    /// with post-shift regret and serial-replay verification).
    Drift,
    /// The sustained-serving workload (continuous ingest with WAL
    /// checkpoints under traffic, a timed bit-identical restore, and
    /// cold-tenant paging churn under a resident cap).
    Longhaul,
    /// The privacy-budget workload (per-owner ε ledgers exhausting
    /// mid-run, revenue-vs-compensation accounting, supply throttling,
    /// and a bit-identical ledger-carrying WAL restore).
    Privacy,
    /// Every simulation experiment above in one grid.
    All,
}

impl Command {
    /// Every subcommand, in help order.
    pub const ALL: [Command; 15] = [
        Command::Fig1,
        Command::Fig4,
        Command::Fig5a,
        Command::Fig5b,
        Command::Fig5c,
        Command::Table1,
        Command::RegretScaling,
        Command::Overhead,
        Command::Lemma8,
        Command::Serve,
        Command::Auction,
        Command::Drift,
        Command::Longhaul,
        Command::Privacy,
        Command::All,
    ];

    /// The subcommand's CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Command::Fig1 => "fig1",
            Command::Fig4 => "fig4",
            Command::Fig5a => "fig5a",
            Command::Fig5b => "fig5b",
            Command::Fig5c => "fig5c",
            Command::Table1 => "table1",
            Command::RegretScaling => "regret-scaling",
            Command::Overhead => "overhead",
            Command::Lemma8 => "lemma8",
            Command::Serve => "serve",
            Command::Auction => "auction",
            Command::Drift => "drift",
            Command::Longhaul => "longhaul",
            Command::Privacy => "privacy",
            Command::All => "all",
        }
    }

    /// Parses a subcommand name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Command> {
        Command::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// A fully parsed `bench` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// The experiment(s) to run.
    pub command: Command,
    /// Quick or paper scale.
    pub scale: Scale,
    /// Where to write the `BENCH_*.json` report, if anywhere.
    pub json: Option<PathBuf>,
    /// Worker threads for the grid.
    pub workers: usize,
    /// Repetitions per cell (different seeds, aggregated with CIs).
    pub reps: u64,
    /// Fail (exit 1) when any aggregate is NaN/negative or any regret ratio
    /// exceeds 1 — the CI smoke gate.
    pub check: bool,
    /// Restrict every grid (experiments, serve, auction) to the cells whose
    /// job key contains this substring.
    pub filter: Option<String>,
    /// Fail (exit 1) when the serve grid's quotes/sec falls below the floor
    /// file's tolerance band — the perf-smoke CI gate.
    pub perf_floor: Option<PathBuf>,
    /// Where to write the run's merged `pdm-obs` registry as a Prometheus
    /// text exposition (format 0.0.4), if anywhere.
    pub metrics_out: Option<PathBuf>,
}

/// The usage text printed on parse errors and `--help`.
#[must_use]
pub fn usage() -> String {
    let commands: Vec<&str> = Command::ALL.iter().map(|c| c.name()).collect();
    format!(
        "usage: bench <command> [--full] [--workers N] [--reps N] [--json PATH] [--check]\n\
         \x20            [--filter SUBSTRING] [--perf-floor PATH] [--metrics-out PATH]\n\
         \n\
         commands: {}\n\
         \n\
         options:\n\
         \x20 --full        run at the paper's scale (default: quick scale)\n\
         \x20 --workers N   worker threads for the experiment grid \
         (default: available cores)\n\
         \x20 --reps N      repetitions per cell, aggregated with 95% CIs (default: 1)\n\
         \x20 --json PATH   write the versioned BENCH report (schema v{SCHEMA_VERSION}) to PATH\n\
         \x20 --check       exit non-zero when any aggregate is NaN/negative or any\n\
         \x20               regret ratio exceeds 1 (the CI smoke gate)\n\
         \x20 --filter S    run only the grid cells whose job key (experiment/cell\n\
         \x20               label) contains the substring S; it is an error when\n\
         \x20               nothing matches\n\
         \x20 --perf-floor PATH\n\
         \x20               exit non-zero when the serve grid's quotes/sec falls\n\
         \x20               below the floor file's tolerance band (the perf-smoke\n\
         \x20               CI gate; see docs/PERF_FLOOR.json)\n\
         \x20 --metrics-out PATH\n\
         \x20               write the run's merged pdm-obs registry (service\n\
         \x20               counters, gauges, per-stage span histograms) to PATH\n\
         \x20               as a Prometheus text exposition\n\
         \x20 -h, --help    show this message",
        commands.join(", ")
    )
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses arguments: the first positional argument names the subcommand.
/// Unknown arguments are an error; `Ok(None)` means `--help` was requested.
pub fn parse_args(args: &[String]) -> Result<Option<BenchArgs>, String> {
    let mut command = None;
    let mut scale = Scale::Quick;
    let mut json = None;
    let mut workers = default_workers();
    let mut reps = 1u64;
    let mut check = false;
    let mut filter = None;
    let mut perf_floor = None;
    let mut metrics_out = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--full" => scale = Scale::Full,
            "--check" => check = true,
            "--filter" => {
                let needle = iter
                    .next()
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| "--filter needs a non-empty substring".to_owned())?;
                filter = Some(needle.clone());
            }
            "--json" => {
                let path = iter
                    .next()
                    .ok_or_else(|| "--json needs a file path".to_owned())?;
                json = Some(PathBuf::from(path));
            }
            "--perf-floor" => {
                let path = iter
                    .next()
                    .ok_or_else(|| "--perf-floor needs a file path".to_owned())?;
                perf_floor = Some(PathBuf::from(path));
            }
            "--metrics-out" => {
                let path = iter
                    .next()
                    .ok_or_else(|| "--metrics-out needs a file path".to_owned())?;
                metrics_out = Some(PathBuf::from(path));
            }
            "--workers" => {
                let n = iter
                    .next()
                    .ok_or_else(|| "--workers needs a count".to_owned())?;
                workers = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--workers needs a positive integer, got `{n}`"))?;
            }
            "--reps" => {
                let n = iter
                    .next()
                    .ok_or_else(|| "--reps needs a count".to_owned())?;
                reps = n
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--reps needs a positive integer, got `{n}`"))?;
            }
            positional if !positional.starts_with('-') && command.is_none() => {
                command = Some(
                    Command::parse(positional)
                        .ok_or_else(|| format!("unknown command `{positional}`"))?,
                );
            }
            unknown => return Err(format!("unrecognized argument `{unknown}`")),
        }
    }

    let command = command.ok_or_else(|| "missing command".to_owned())?;
    Ok(Some(BenchArgs {
        command,
        scale,
        json,
        workers,
        reps,
        check,
        filter,
        perf_floor,
        metrics_out,
    }))
}

/// Applies the `--filter` substring to a list of cells via each cell's job
/// key.  Returns the retained cells; `None` filter keeps everything.
fn filter_cells<T>(cells: Vec<T>, filter: Option<&str>, key: impl Fn(&T) -> String) -> Vec<T> {
    match filter {
        None => cells,
        Some(needle) => cells
            .into_iter()
            .filter(|cell| key(cell).contains(needle))
            .collect(),
    }
}

/// The error for a `--filter` that left nothing to run.
fn no_match(args: &BenchArgs, needle: &str) -> String {
    format!(
        "--filter `{needle}` matched no cells of `bench {}`",
        args.command.name()
    )
}

/// Runs one closed-loop service workload into `report`: banner, cells,
/// tables, and the serial-replay verification footer.  The report records
/// the drain worker count the service actually used, and carries the
/// deterministic half of `obs`, the registry every repetition's scrape is
/// folded into.  Returns the simulation job count, which is zero.
fn run_service<W: Workload>(
    args: &BenchArgs,
    report: &mut BenchReport,
    obs: &mut MetricRegistry,
) -> Result<usize, String> {
    let filter = args.filter.as_deref();
    let cells = filter_cells(W::grid(args.scale), filter, |c| c.label().to_owned());
    if cells.is_empty() {
        return Err(no_match(args, filter.unwrap_or_default()));
    }
    // Shard counts are uniform across a grid at a given scale, so one
    // clamp covers every drain of the run.
    let shards = cells.iter().map(W::shards).max().unwrap_or(1);
    let workers = drain_workers(args.workers, shards, default_workers());
    println!(
        "bench {} — {} ({} cells, {} drain worker{}, {} rep{} per cell)",
        W::NAME,
        args.scale.label(),
        cells.len(),
        workers,
        if workers == 1 { "" } else { "s" },
        args.reps,
        if args.reps == 1 { "" } else { "s" },
    );
    println!();
    let rows = run_cells(&cells, workers, args.reps, obs)?;
    println!("{}", render_table(&rows, W::columns));
    *W::rows(report) = rows;
    report.perf = PerfSummary::from_serve(&report.serve);
    if let Some(perf) = &report.perf {
        println!("{}", serve::render_summary(&report.serve, perf));
    }
    println!(
        "every cell verified bit-for-bit against its serial per-tenant replay ({})",
        W::VERIFIED
    );
    println!();
    report.workers = workers;
    // Only the deterministic half of the registry: wall-clock histograms
    // are excluded from the report.
    report.obs = Some(obs.to_json(true));
    Ok(0)
}

/// Runs the simulation experiments of the subcommand into `report` and
/// returns the number of jobs.
fn run_simulation(args: &BenchArgs, report: &mut BenchReport) -> Result<usize, String> {
    if args.command == Command::Fig1 {
        print!("{}", render_fig1());
    }
    let filter = args.filter.as_deref();
    let mut experiments = experiments_for(args.command, args.scale);
    if let Some(needle) = filter {
        for experiment in &mut experiments {
            let name = experiment.name.clone();
            experiment.cells = filter_cells(std::mem::take(&mut experiment.cells), filter, |c| {
                format!("{name}/{}", c.label)
            });
        }
        experiments.retain(|e| !e.cells.is_empty());
        if experiments.is_empty() {
            return Err(no_match(args, needle));
        }
    }

    let grids: Vec<Vec<crate::grid::CellSpec>> =
        experiments.iter().map(|e| e.cells.clone()).collect();
    let jobs = expand_jobs(&grids, args.reps);
    // The effective pool size — this, not the requested count, is what the
    // banner, footer, and JSON report record: `run_jobs` clamps to the job
    // count.
    let workers = args.workers.clamp(1, jobs.len().max(1));
    if !jobs.is_empty() {
        println!(
            "bench {} — {} ({} jobs across {} worker{}, {} rep{} per cell)",
            args.command.name(),
            args.scale.label(),
            jobs.len(),
            workers,
            if workers == 1 { "" } else { "s" },
            args.reps,
            if args.reps == 1 { "" } else { "s" },
        );
        println!();
    }
    let results = run_jobs(&jobs, workers);
    report.experiments = build_experiment_reports(
        experiments
            .iter()
            .map(|e| (e.name.as_str(), e.cells.as_slice())),
        args.reps,
        &results,
    );
    for (experiment, aggregate) in experiments.iter().zip(&report.experiments) {
        println!("{}", render_experiment(experiment.kind, aggregate));
        if !experiment.note.is_empty() {
            println!("{}", experiment.note);
            println!();
        }
    }
    report.workers = workers;
    Ok(jobs.len())
}

/// Runs a parsed invocation end to end: execute the grid, print the tables,
/// write the JSON report, apply the `--check` gate.
///
/// Returns the report on success and the failure message otherwise.
pub fn execute(args: &BenchArgs) -> Result<BenchReport, String> {
    let start = Instant::now();
    let mut report = BenchReport::new(args.command.name(), args.scale.name(), 1, args.reps);
    report.git_describe = git_describe();
    // Every service workload folds its final scrapes into this run-wide
    // registry (counters and histogram buckets merge as exact integer adds,
    // so the fold order across cells and reps cannot matter).  A
    // simulation-only run leaves it empty and writes no obs section.
    let mut obs = MetricRegistry::new();
    let jobs = match args.command {
        Command::Serve => run_service::<ServeCellSpec>(args, &mut report, &mut obs),
        Command::Auction => run_service::<AuctionCellSpec>(args, &mut report, &mut obs),
        Command::Drift => run_service::<DriftCellSpec>(args, &mut report, &mut obs),
        Command::Longhaul => run_service::<LonghaulCellSpec>(args, &mut report, &mut obs),
        Command::Privacy => run_service::<PrivacyCellSpec>(args, &mut report, &mut obs),
        _ => run_simulation(args, &mut report),
    }?;
    report.wall_clock_secs = start.elapsed().as_secs_f64();
    let workers = report.workers;

    println!(
        "completed in {:.2}s ({} jobs, {} worker{})",
        report.wall_clock_secs,
        jobs,
        workers,
        if workers == 1 { "" } else { "s" },
    );

    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json().render_pretty())
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    if let Some(path) = &args.metrics_out {
        // The full registry, wall-clock histograms included — the scrape is
        // an operational artifact, not a determinism fingerprint.  A
        // simulation-only run writes an empty (still lint-clean) exposition.
        std::fs::write(path, obs.render_prometheus())
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    if args.check {
        let violations = report.validate();
        if violations.is_empty() {
            println!(
                "check passed: all aggregates finite and non-negative, ratios and \
                 acceptance rates <= 1"
            );
        } else {
            return Err(format!(
                "check failed with {} violation(s):\n  {}",
                violations.len(),
                violations.join("\n  ")
            ));
        }
    }

    if let Some(path) = &args.perf_floor {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let floor = crate::json::Json::parse(&raw)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|json| PerfFloor::from_json(&json))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let message = floor.check(&report)?;
        println!("{message}");
    }

    Ok(report)
}

/// The `bench` entry point: parse `raw_args`, run, and map the outcome to
/// an exit code.
#[must_use]
pub fn main_with(raw_args: &[String]) -> i32 {
    match parse_args(raw_args) {
        Ok(None) => {
            println!("{}", usage());
            0
        }
        Ok(Some(args)) => match execute(&args) {
            Ok(_) => 0,
            Err(message) => {
                eprintln!("error: {message}");
                1
            }
        },
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let args = parse_args(&strings(&[
            "fig4",
            "--full",
            "--workers",
            "4",
            "--reps",
            "3",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(args.command, Command::Fig4);
        assert_eq!(args.scale, Scale::Full);
        assert_eq!(args.workers, 4);
        assert_eq!(args.reps, 3);
        assert!(!args.check);
        assert!(args.json.is_none());
    }

    #[test]
    fn serve_is_a_first_class_subcommand() {
        assert_eq!(Command::parse("serve"), Some(Command::Serve));
        let args = parse_args(&strings(&["serve", "--workers", "4", "--check"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.command, Command::Serve);
        assert_eq!(args.workers, 4);
        assert_eq!(args.scale, Scale::Quick);
        assert!(args.check);
        assert!(usage().contains("serve"));
    }

    #[test]
    fn auction_is_a_first_class_subcommand() {
        assert_eq!(Command::parse("auction"), Some(Command::Auction));
        let args = parse_args(&strings(&["auction", "--workers", "2", "--check"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.command, Command::Auction);
        assert!(args.check);
        assert!(usage().contains("auction"));
    }

    #[test]
    fn drift_is_a_first_class_subcommand() {
        assert_eq!(Command::parse("drift"), Some(Command::Drift));
        let args = parse_args(&strings(&["drift", "--workers", "2", "--check"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.command, Command::Drift);
        assert!(args.check);
        assert!(usage().contains("drift"));
    }

    #[test]
    fn longhaul_is_a_first_class_subcommand() {
        assert_eq!(Command::parse("longhaul"), Some(Command::Longhaul));
        let args = parse_args(&strings(&["longhaul", "--workers", "2", "--check"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.command, Command::Longhaul);
        assert!(args.check);
        assert!(usage().contains("longhaul"));
    }

    #[test]
    fn privacy_is_a_first_class_subcommand() {
        assert_eq!(Command::parse("privacy"), Some(Command::Privacy));
        let args = parse_args(&strings(&["privacy", "--workers", "2", "--check"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.command, Command::Privacy);
        assert!(args.check);
        assert!(usage().contains("privacy"));
    }

    #[test]
    fn filter_restricts_the_privacy_grid_and_the_check_gate_passes() {
        let mut args = parse_args(&strings(&["privacy", "--filter", "budget=1.5"]))
            .unwrap()
            .unwrap();
        args.workers = 2;
        args.check = true;
        let report = execute(&args).expect("filtered privacy run passes --check");
        assert_eq!(report.privacy.len(), 1);
        assert_eq!(report.privacy[0].label, "budget=1.5/owners=4");
        assert!(report.privacy[0].metrics.owners_exhausted > 0);
        assert!(report.experiments.is_empty());
        assert!(report.serve.is_empty());
        assert!(report.validate().is_empty());
    }

    #[test]
    fn filter_restricts_the_longhaul_grid() {
        let mut args = parse_args(&strings(&["longhaul", "--filter", "cap=8"]))
            .unwrap()
            .unwrap();
        args.workers = 2;
        let report = execute(&args).expect("filtered longhaul run");
        assert_eq!(report.longhaul.len(), 1);
        assert_eq!(report.longhaul[0].label, "tenants=24/cap=8");
        assert!(report.experiments.is_empty());
        assert!(report.serve.is_empty());
        assert!(report.validate().is_empty());
    }

    #[test]
    fn filter_restricts_the_drift_grid() {
        let mut args = parse_args(&strings(&[
            "drift",
            "--filter",
            "kind=adversarial/mag=1.0/policy=static",
        ]))
        .unwrap()
        .unwrap();
        args.workers = 2;
        let report = execute(&args).expect("filtered drift run");
        assert_eq!(report.drift.len(), 1);
        assert_eq!(
            report.drift[0].label,
            "kind=adversarial/mag=1.0/policy=static"
        );
        assert!(report.experiments.is_empty());
        assert!(report.validate().is_empty());
    }

    #[test]
    fn filter_flag_parses_strictly() {
        let args = parse_args(&strings(&["serve", "--filter", "bursty"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.filter.as_deref(), Some("bursty"));
        // Missing or empty values are an error, not a silent no-op.
        assert!(parse_args(&strings(&["serve", "--filter"]))
            .unwrap_err()
            .contains("--filter"));
        assert!(parse_args(&strings(&["serve", "--filter", ""]))
            .unwrap_err()
            .contains("--filter"));
        // No filter by default.
        assert_eq!(
            parse_args(&strings(&["serve"])).unwrap().unwrap().filter,
            None
        );
    }

    #[test]
    fn filter_restricts_the_auction_grid_and_rejects_no_matches() {
        let mut args = parse_args(&strings(&[
            "auction",
            "--filter",
            "bidders=1/dist=uniform/policy=static",
        ]))
        .unwrap()
        .unwrap();
        args.workers = 2;
        let report = execute(&args).expect("filtered auction run");
        assert_eq!(report.auction.len(), 1);
        assert_eq!(
            report.auction[0].label,
            "bidders=1/dist=uniform/policy=static"
        );
        assert!(report.experiments.is_empty());

        args.filter = Some("no-such-cell".to_owned());
        let err = execute(&args).unwrap_err();
        assert!(err.contains("no-such-cell"), "{err}");
        assert!(err.contains("matched no cells"), "{err}");
    }

    #[test]
    fn filter_restricts_simulation_grids_by_job_key() {
        let mut args = parse_args(&strings(&["fig4", "--filter", "with reserve"]))
            .unwrap()
            .unwrap();
        args.workers = 2;
        let report = execute(&args).expect("filtered fig4 run");
        assert!(!report.experiments.is_empty());
        for experiment in &report.experiments {
            for cell in &experiment.cells {
                assert!(
                    format!("{}/{}", experiment.name, cell.label).contains("with reserve"),
                    "{} / {} escaped the filter",
                    experiment.name,
                    cell.label
                );
            }
        }
    }

    #[test]
    fn perf_floor_flag_parses_and_gates_a_serve_run() {
        // Parsing: the flag takes a path and is off by default.
        let args = parse_args(&strings(&["serve", "--perf-floor", "floor.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.perf_floor, Some(PathBuf::from("floor.json")));
        assert!(parse_args(&strings(&["serve", "--perf-floor"]))
            .unwrap_err()
            .contains("--perf-floor"));
        assert_eq!(
            parse_args(&strings(&["serve"]))
                .unwrap()
                .unwrap()
                .perf_floor,
            None
        );
        assert!(usage().contains("--perf-floor"));

        // End to end on one quick serve cell: a permissive floor passes, an
        // absurd floor fails, and a missing floor file is a clear error.
        let dir = std::env::temp_dir();
        let permissive = dir.join("pdm_perf_floor_permissive.json");
        let absurd = dir.join("pdm_perf_floor_absurd.json");
        std::fs::write(
            &permissive,
            r#"{"serve_quotes_per_sec": 1.0, "max_regression": 0.3}"#,
        )
        .expect("write floor");
        std::fs::write(
            &absurd,
            r#"{"serve_quotes_per_sec": 1e15, "max_regression": 0.3}"#,
        )
        .expect("write floor");

        let mut args = parse_args(&strings(&["serve", "--filter", "mix=uniform"]))
            .unwrap()
            .unwrap();
        args.workers = 2;
        args.perf_floor = Some(permissive.clone());
        let report = execute(&args).expect("a permissive floor passes");
        let perf = report.perf.expect("serve runs carry the v5 summary");
        assert!(perf.serve_quotes > 0);
        assert!(perf.serve_quotes_per_sec > 0.0);

        args.perf_floor = Some(absurd.clone());
        let err = execute(&args).unwrap_err();
        assert!(err.contains("perf floor failed"), "{err}");

        args.perf_floor = Some(dir.join("pdm_perf_floor_does_not_exist.json"));
        let err = execute(&args).unwrap_err();
        assert!(err.contains("failed to read"), "{err}");

        // Gating a simulation-only run is an error, not a silent pass.
        let mut fig4 = parse_args(&strings(&["fig4", "--filter", "with reserve"]))
            .unwrap()
            .unwrap();
        fig4.workers = 2;
        fig4.perf_floor = Some(permissive.clone());
        let err = execute(&fig4).unwrap_err();
        assert!(err.contains("no serve cells"), "{err}");

        let _ = std::fs::remove_file(permissive);
        let _ = std::fs::remove_file(absurd);
    }

    #[test]
    fn metrics_out_flag_parses_and_writes_a_lint_clean_exposition() {
        // Parsing: the flag takes a path and is off by default.
        let args = parse_args(&strings(&["serve", "--metrics-out", "scrape.prom"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.metrics_out, Some(PathBuf::from("scrape.prom")));
        assert!(parse_args(&strings(&["serve", "--metrics-out"]))
            .unwrap_err()
            .contains("--metrics-out"));
        assert_eq!(
            parse_args(&strings(&["serve"]))
                .unwrap()
                .unwrap()
                .metrics_out,
            None
        );
        assert!(usage().contains("--metrics-out"));

        // End to end on one quick serve cell: the scrape file is a valid
        // Prometheus exposition carrying the service counters and the
        // per-stage span histograms, and the JSON report carries the
        // deterministic half as the v8 `obs` section.
        let scrape = std::env::temp_dir().join("pdm_metrics_out_serve.prom");
        let mut args = parse_args(&strings(&["serve", "--filter", "mix=uniform"]))
            .unwrap()
            .unwrap();
        args.workers = 2;
        args.metrics_out = Some(scrape.clone());
        let report = execute(&args).expect("serve run with --metrics-out");
        let text = std::fs::read_to_string(&scrape).expect("scrape written");
        let lint = pdm_obs::prom::parse(&text).expect("exposition lints clean");
        assert!(lint.families > 0 && lint.samples > 0);
        assert!(text.contains("pdm_quotes_served_total"));
        assert!(text.contains("pdm_shard_quote_work_items_bucket"));
        let obs = report.obs.as_ref().expect("service runs carry obs");
        let quotes = obs
            .get("counters")
            .and_then(|c| c.get("quotes_served_total"))
            .and_then(Json::as_f64)
            .expect("obs counters carry quotes_served_total");
        let total: u64 = report.serve.iter().map(|c| c.metrics.quotes_served).sum();
        assert_eq!(quotes as u64, total);
        let _ = std::fs::remove_file(scrape);

        // A simulation-only run writes an empty (still lint-clean) scrape
        // and carries no obs section.
        let scrape = std::env::temp_dir().join("pdm_metrics_out_fig4.prom");
        let mut fig4 = parse_args(&strings(&["fig4", "--filter", "with reserve"]))
            .unwrap()
            .unwrap();
        fig4.workers = 2;
        fig4.metrics_out = Some(scrape.clone());
        let report = execute(&fig4).expect("fig4 run with --metrics-out");
        assert!(report.obs.is_none());
        let text = std::fs::read_to_string(&scrape).expect("scrape written");
        let lint = pdm_obs::prom::parse(&text).expect("empty exposition lints clean");
        assert_eq!(lint.families, 0);
        let _ = std::fs::remove_file(scrape);
    }

    #[test]
    fn command_names_parse_exactly() {
        assert_eq!(
            Command::parse("regret-scaling"),
            Some(Command::RegretScaling)
        );
        assert_eq!(Command::parse("regret_scaling"), None);
        assert_eq!(Command::parse("nope"), None);
    }

    #[test]
    fn unknown_flags_are_an_error_not_a_silent_noop() {
        // The original bug: `--ful` silently ran the quick scale.
        let err = parse_args(&strings(&["fig4", "--ful"])).unwrap_err();
        assert!(err.contains("--ful"), "{err}");
        let err = parse_args(&strings(&["all", "--quick"])).unwrap_err();
        assert!(err.contains("--quick"), "{err}");
        let err = parse_args(&strings(&["figgy"])).unwrap_err();
        assert!(err.contains("figgy"), "{err}");
    }

    #[test]
    fn missing_command_and_flag_values_error() {
        assert!(parse_args(&[]).unwrap_err().contains("missing command"));
        assert!(parse_args(&strings(&["all", "--json"]))
            .unwrap_err()
            .contains("--json"));
        assert!(parse_args(&strings(&["all", "--workers", "0"]))
            .unwrap_err()
            .contains("positive"));
        assert!(parse_args(&strings(&["all", "--reps", "x"]))
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse_args(&strings(&["--help"])).unwrap(), None);
        assert_eq!(parse_args(&strings(&["fig4", "-h"])).unwrap(), None);
        assert!(usage().contains("--workers"));
        assert!(usage().contains("regret-scaling"));
    }

    #[test]
    fn service_reports_record_the_drain_workers_actually_used() {
        // Drains never run on more workers than the shards or the machine
        // allow, so neither the report nor any of its cells may claim more.
        let hardware = default_workers();
        for (command, filter) in [
            ("serve", "tenants=16/mix=uniform"),
            ("auction", "bidders=1/dist=uniform/policy=static"),
            ("drift", "kind=adversarial/mag=1.0/policy=static"),
            ("longhaul", "cap=8"),
            ("privacy", "budget=1.5"),
        ] {
            let mut args = parse_args(&strings(&[command, "--filter", filter]))
                .unwrap()
                .unwrap();
            args.workers = 64;
            let report = execute(&args).expect(command);
            assert!(
                report.workers <= hardware,
                "{command}: {} drain workers on {hardware} hardware threads",
                report.workers
            );
            let json = report.to_json();
            let cells = json.get(command).and_then(Json::as_arr).expect(command);
            assert!(!cells.is_empty(), "{command}");
            for cell in cells {
                assert_eq!(
                    cell.get("workers").and_then(Json::as_u64),
                    Some(report.workers as u64),
                    "{command}"
                );
            }
        }
    }
}
