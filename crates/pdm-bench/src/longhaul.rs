//! The `bench longhaul` workload: sustained serving with WAL checkpoints
//! under traffic, a timed mid-run restore, and cold-tenant paging churn.
//!
//! Every cell spins up a paging-enabled [`MarketService`] (a resident cap
//! well below the tenant count, the WAL on) and pumps a rotating
//! active-window traffic trace through it: each wave serves a contiguous
//! window of tenants that slides three tenants every wave, so tenants keep
//! falling cold and paging back in.  The run goes through the crash cut of
//! the closed loop in `closed_loop.rs`, which `serve`, `drift` and `privacy`
//! share:
//!
//! * **Snapshot under traffic** — a WAL checkpoint is taken every
//!   `checkpoint_every` waves while the service keeps serving; dirty-tenant
//!   tracking keeps each segment proportional to the tenants that actually
//!   changed, not the population.
//! * **Bit-identical restore** — at the halfway cut the service is rebuilt
//!   from the base snapshot plus the accumulated segments (timed as the
//!   restore-latency column), the cut ledgers must match exactly, and
//!   **both** services then replay the identical second half with every
//!   posted price agreeing bit for bit.  The harness records a
//!   budget-exhausted refusal as a throttle in both workloads; standard
//!   tenants carry no ε budget and cannot refuse that way, so here every
//!   request must still quote and any other failure is an error.
//! * **Bounded residency** — the workload's own check: after every wave,
//!   on both services, the materialised tenant count must not exceed the
//!   resident cap; the run fails otherwise.  Memory per tenant (hot
//!   footprints plus cold page bytes over the whole population) is
//!   reported as a column.
//!
//! [`MarketService`]: pdm_service::MarketService

use crate::closed_loop;
use crate::grid::derive_seed;
use crate::report::{agg_stat_json, check_stat, BenchReport};
use crate::runner::AggStat;
use crate::table;
use crate::workload::{Cell, Rep, Workload};
use crate::Scale;
use pdm_linalg::Json;
use pdm_service::{ServiceConfig, TenantConfig};
use std::time::Duration;

/// Base seed of the longhaul grid; each cell derives its traffic trace from
/// `derive_seed(LONGHAUL_SEED_BASE + cell_index, rep)`.
const LONGHAUL_SEED_BASE: u64 = 0x10A9;

/// One cell of the longhaul grid: a paging-enabled service under a rotating
/// active-window trace with periodic WAL checkpoints.
#[derive(Debug, Clone)]
pub struct LonghaulCellSpec {
    /// Row label, e.g. `tenants=24/cap=8`.
    pub label: String,
    /// Number of registered tenants.
    pub tenants: usize,
    /// Feature dimension of every tenant's queries.
    pub dim: usize,
    /// Shard count of the service.
    pub shards: usize,
    /// Closed-loop waves to pump (the restore cut falls at the midpoint).
    pub waves: usize,
    /// Resident cap — far below `tenants`, so the trace forces churn.
    pub resident_capacity: usize,
    /// Tenant records per WAL segment.
    pub wal_segment_size: usize,
    /// A WAL checkpoint is taken every this many waves.
    pub checkpoint_every: usize,
    /// Base seed of the cell's traffic trace.
    pub seed: u64,
}

impl LonghaulCellSpec {
    /// Tenants each wave serves: at least the resident cap and a quarter of
    /// the population, so the sliding window keeps pushing tenants cold.
    fn window(&self) -> usize {
        self.resident_capacity
            .max(self.tenants / 4)
            .max(1)
            .min(self.tenants)
    }
}

/// Wall-clock figures of one longhaul cell (excluded from the determinism
/// fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct LonghaulPerf {
    /// End-to-end seconds for the cell (trace + both runs + verify).
    pub wall_clock_secs: f64,
    /// Quotes served per second of drain time on the original service.
    pub quotes_per_sec: f64,
    /// Mean µs for one [`restore_with_wal`] rebuild (base + segments).
    ///
    /// [`restore_with_wal`]: pdm_service::MarketService::restore_with_wal
    pub restore_latency_micros: f64,
    /// Mean resident bytes per registered tenant at the end of a rep: hot
    /// tenants at their learned-state footprint, cold tenants at the length
    /// of their serialised page.
    pub memory_per_tenant_bytes: f64,
}

/// Everything the BENCH v6 report records about one longhaul cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LonghaulCellReport {
    /// Row label (from the cell spec).
    pub label: String,
    /// Registered tenants.
    pub tenants: u64,
    /// Service shard count.
    pub shards: u64,
    /// Closed-loop waves per repetition.
    pub waves: u64,
    /// Repetitions aggregated.
    pub reps: u64,
    /// The resident cap the run was bounded by.
    pub resident_capacity: u64,
    /// Tenant records per WAL segment.
    pub wal_segment_size: u64,
    /// Quotes served on the original service, summed over repetitions.
    pub quotes_served: u64,
    /// Outcome reports applied, summed over repetitions.
    pub observations: u64,
    /// Accepted quotes, summed over repetitions.
    pub sales: u64,
    /// Cold-tenant evictions on the original service, summed over reps.
    pub evictions: u64,
    /// Cold-tenant rehydrations on the original service, summed over reps.
    pub rehydrations: u64,
    /// WAL segments written per repetition (identical across reps by
    /// construction), summed over reps.
    pub wal_segments: u64,
    /// Highest materialised tenant count observed after any wave, across
    /// both services and every rep — the number the cap gate bounds.
    pub max_resident: u64,
    /// Cumulative revenue per repetition.
    pub revenue: AggStat,
    /// Cumulative exact regret per repetition.
    pub regret: AggStat,
    /// Acceptance rate per repetition.
    pub accept_rate: AggStat,
    /// Wall-clock throughput/latency/memory figures.
    pub perf: LonghaulPerf,
}

/// The per-repetition WAL, paging and restore figures.
pub struct LonghaulOutcome {
    wal_segments: u64,
    max_resident: usize,
    resident_memory_bytes: usize,
    restore_latency: Duration,
}

impl Workload for LonghaulCellSpec {
    const NAME: &'static str = "longhaul";
    const VERIFIED: &'static str = "WAL restore continuation, pre-cut ledgers, resident bound";
    type Outcome = LonghaulOutcome;
    type Row = LonghaulCellReport;

    /// The longhaul grid at the given scale: one tenant population under two
    /// resident caps (tight and tighter), both far below the population.
    fn grid(scale: Scale) -> Vec<Self> {
        let tenants = scale.pick(24usize, 128);
        let dim = scale.pick(3, 8);
        let shards = scale.pick(4, 8);
        let waves = scale.pick(24, 96);
        let caps = scale.pick(vec![8usize, 6], vec![32, 16]);
        let wal_segment_size = scale.pick(8, 32);
        let checkpoint_every = scale.pick(4, 8);
        caps.into_iter()
            .enumerate()
            .map(|(index, cap)| LonghaulCellSpec {
                label: format!("tenants={tenants}/cap={cap}"),
                tenants,
                dim,
                shards,
                waves,
                resident_capacity: cap,
                wal_segment_size,
                checkpoint_every,
                seed: LONGHAUL_SEED_BASE + index as u64,
            })
            .collect()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn shards(&self) -> usize {
        self.shards
    }

    /// One repetition through the crash-cut harness, then the resident cap
    /// on both services.
    fn run_rep(&self, workers: usize, rep: u64) -> Result<Rep<LonghaulOutcome>, String> {
        // The window slides three tenants per wave: fast enough that the
        // active set outruns the resident cap, slow enough that sessions
        // still accumulate rounds before falling cold.
        let (tenants, window) = (self.tenants, self.window());
        let waves = (0..self.waves)
            .map(|wave| (0..window).map(move |offset| (wave * 3 + offset) % tenants));
        let trace = closed_loop::build_trace(tenants, self.dim, derive_seed(self.seed, rep), waves)
            .map_err(|e| format!("{}: {e}", self.label))?;
        let config = ServiceConfig {
            shards: self.shards,
            queue_capacity: window.max(4),
            resident_capacity: Some(self.resident_capacity),
            wal_segment_size: Some(self.wal_segment_size),
            ..ServiceConfig::default()
        };
        let tenant = TenantConfig::standard(self.dim, self.waves);
        let service = closed_loop::build_service(&self.label, config, tenants, tenant)?;
        let run =
            closed_loop::crash_cut(&self.label, service, &trace, self.checkpoint_every, workers)?;
        if run.max_resident > self.resident_capacity {
            return Err(format!(
                "{}: {} tenants resident after a wave, above the cap of {}",
                self.label, run.max_resident, self.resident_capacity
            ));
        }
        Ok(run.rep(LonghaulOutcome {
            wal_segments: run.service.wal_segments_written(),
            max_resident: run.max_resident,
            resident_memory_bytes: run.service.resident_memory_bytes(),
            restore_latency: run.restore_latency,
        }))
    }

    fn fold(&self, cell: &Cell<LonghaulOutcome>) -> LonghaulCellReport {
        let metrics = &cell.metrics;
        let reps = cell.rep_count();
        let outcomes = || cell.reps.iter().map(|rep| &rep.outcome);
        let memory_bytes: f64 = outcomes()
            .map(|outcome| outcome.resident_memory_bytes as f64)
            .sum();
        let restore_time: Duration = outcomes().map(|outcome| outcome.restore_latency).sum();
        LonghaulCellReport {
            label: self.label.clone(),
            tenants: self.tenants as u64,
            shards: self.shards as u64,
            waves: self.waves as u64,
            reps,
            resident_capacity: self.resident_capacity as u64,
            wal_segment_size: self.wal_segment_size as u64,
            quotes_served: metrics.quotes_served,
            observations: metrics.observations,
            sales: metrics.sales,
            evictions: metrics.evictions,
            rehydrations: metrics.rehydrations,
            wal_segments: outcomes().map(|outcome| outcome.wal_segments).sum(),
            max_resident: outcomes()
                .map(|outcome| outcome.max_resident)
                .max()
                .unwrap_or(0) as u64,
            revenue: cell.stat(|rep| rep.metrics.revenue),
            regret: cell.stat(|rep| rep.metrics.regret),
            accept_rate: cell.stat(|rep| rep.metrics.accept_rate()),
            perf: LonghaulPerf {
                wall_clock_secs: cell.wall_clock_secs,
                quotes_per_sec: cell.per_drain_sec(metrics.quotes_served),
                restore_latency_micros: restore_time.as_secs_f64() * 1e6 / reps as f64,
                memory_per_tenant_bytes: memory_bytes / (reps as f64 * self.tenants as f64),
            },
        }
    }

    fn render(rows: &[LonghaulCellReport]) -> Vec<String> {
        vec![render_longhaul(rows)]
    }

    fn validate(rows: &[LonghaulCellReport], _full_scale: bool, violations: &mut Vec<String>) {
        for cell in rows {
            let place = format!("longhaul / {}", cell.label);
            for (what, stat, upper) in [
                ("revenue", &cell.revenue, None),
                ("regret", &cell.regret, None),
                ("acceptance rate", &cell.accept_rate, Some(1.0)),
            ] {
                check_stat(violations, &place, what, stat, upper);
            }
            // The residency contract of the paging layer: the run records
            // the high-water mark across every wave of both the original
            // and the restored service, and it must stay under the cap.
            if cell.max_resident > cell.resident_capacity {
                violations.push(format!(
                    "{place}: {} tenants resident at the high-water mark, above the \
                     configured cap of {}",
                    cell.max_resident, cell.resident_capacity
                ));
            }
            closed_loop::validate(
                violations,
                &place,
                cell.quotes_served,
                cell.perf.quotes_per_sec,
                cell.wal_segments,
                &[
                    ("restore latency µs", cell.perf.restore_latency_micros),
                    ("memory per tenant", cell.perf.memory_per_tenant_bytes),
                ],
            );
        }
    }

    fn deterministic_json(cell: &LonghaulCellReport) -> Vec<(&'static str, Json)> {
        vec![
            ("label", Json::str(&cell.label)),
            ("tenants", Json::Num(cell.tenants as f64)),
            ("shards", Json::Num(cell.shards as f64)),
            ("waves", Json::Num(cell.waves as f64)),
            ("reps", Json::Num(cell.reps as f64)),
            (
                "resident_capacity",
                Json::Num(cell.resident_capacity as f64),
            ),
            ("wal_segment_size", Json::Num(cell.wal_segment_size as f64)),
            ("quotes_served", Json::Num(cell.quotes_served as f64)),
            ("observations", Json::Num(cell.observations as f64)),
            ("sales", Json::Num(cell.sales as f64)),
            ("evictions", Json::Num(cell.evictions as f64)),
            ("rehydrations", Json::Num(cell.rehydrations as f64)),
            ("wal_segments", Json::Num(cell.wal_segments as f64)),
            ("max_resident", Json::Num(cell.max_resident as f64)),
            ("revenue", agg_stat_json(&cell.revenue)),
            ("regret", agg_stat_json(&cell.regret)),
            ("accept_rate", agg_stat_json(&cell.accept_rate)),
        ]
    }

    fn perf_json(cell: &LonghaulCellReport) -> Vec<(&'static str, Json)> {
        vec![
            ("wall_clock_secs", Json::Num(cell.perf.wall_clock_secs)),
            ("quotes_per_sec", Json::Num(cell.perf.quotes_per_sec)),
            (
                "restore_latency_micros",
                Json::Num(cell.perf.restore_latency_micros),
            ),
            (
                "memory_per_tenant_bytes",
                Json::Num(cell.perf.memory_per_tenant_bytes),
            ),
        ]
    }

    fn rows(report: &mut BenchReport) -> &mut Vec<LonghaulCellReport> {
        &mut report.longhaul
    }
}

/// Renders the longhaul cells as the console table `bench longhaul` prints.
#[must_use]
fn render_longhaul(cells: &[LonghaulCellReport]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.label.clone(),
                cell.quotes_served.to_string(),
                cell.evictions.to_string(),
                cell.rehydrations.to_string(),
                cell.wal_segments.to_string(),
                format!("{}/{}", cell.max_resident, cell.resident_capacity),
                table::fmt(cell.perf.memory_per_tenant_bytes, 0),
                table::fmt(cell.perf.restore_latency_micros, 1),
                table::fmt(cell.perf.quotes_per_sec, 0),
            ]
        })
        .collect();
    table::render(
        &[
            "cell",
            "quotes",
            "evict",
            "rehydrate",
            "wal segs",
            "resident",
            "B/tenant",
            "restore µs",
            "quotes/s",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_test_cell as run;

    fn tiny_cell() -> LonghaulCellSpec {
        LonghaulCellSpec {
            label: "tenants=12/cap=4".to_owned(),
            tenants: 12,
            dim: 3,
            shards: 2,
            waves: 12,
            resident_capacity: 4,
            wal_segment_size: 4,
            checkpoint_every: 3,
            seed: 7,
        }
    }

    #[test]
    fn grid_scales_and_labels_carry_the_cap() {
        let quick = LonghaulCellSpec::grid(Scale::Quick);
        assert_eq!(quick.len(), 2);
        assert!(quick[0].label.contains("cap="));
        for cell in &quick {
            assert!(cell.resident_capacity < cell.tenants);
        }
        let full = LonghaulCellSpec::grid(Scale::Full);
        assert!(full[0].tenants > quick[0].tenants);
        assert!(full[0].waves > quick[0].waves);
    }

    #[test]
    fn cell_survives_its_own_restore_and_residency_gates() {
        let report = run(&tiny_cell(), 2, 1);
        assert!(report.quotes_served > 0);
        assert_eq!(report.observations, report.quotes_served);
        assert!(
            report.evictions > 0,
            "a cap of 4 over 12 tenants must force paging"
        );
        assert!(report.rehydrations > 0);
        assert!(report.wal_segments > 0);
        assert!(report.max_resident <= report.resident_capacity);
        assert!(report.perf.restore_latency_micros > 0.0);
        assert!(report.perf.memory_per_tenant_bytes > 0.0);
        assert!(report.revenue.mean > 0.0);
    }

    #[test]
    fn worker_count_does_not_move_deterministic_aggregates() {
        let one = run(&tiny_cell(), 1, 1);
        let two = run(&tiny_cell(), 2, 1);
        assert_eq!(one.quotes_served, two.quotes_served);
        assert_eq!(one.sales, two.sales);
        assert_eq!(one.evictions, two.evictions);
        assert_eq!(one.rehydrations, two.rehydrations);
        assert_eq!(one.wal_segments, two.wal_segments);
        assert_eq!(one.max_resident, two.max_resident);
        assert_eq!(one.revenue.mean.to_bits(), two.revenue.mean.to_bits());
        assert_eq!(one.regret.mean.to_bits(), two.regret.mean.to_bits());
    }

    #[test]
    fn render_lists_every_column() {
        let report = run(&tiny_cell(), 1, 1);
        let rendered = render_longhaul(std::slice::from_ref(&report));
        assert!(rendered.contains("tenants=12/cap=4"));
        assert!(rendered.contains("B/tenant"));
        assert!(rendered.contains("restore µs"));
        assert!(rendered.contains("wal segs"));
    }
}
