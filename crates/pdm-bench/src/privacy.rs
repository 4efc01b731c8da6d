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
//! * **Bit-identical restore with ledgers** — the crash cut of the closed
//!   loop in `closed_loop.rs`, which `serve`, `drift` and `longhaul` share:
//!   a WAL checkpoint is taken every `checkpoint_every` waves, the service
//!   is rebuilt at the halfway cut, and both services replay the identical
//!   second half.  Every posted price, every budget-exhausted refusal, and
//!   the per-wave exhaustion trajectory must agree bit for bit, and the
//!   cut ledgers — including the ε and compensation totals — must match
//!   exactly.  Any other failed request is an error, not a refusal.
//!
//! [`MarketService`]: pdm_service::MarketService

use crate::closed_loop;
use crate::grid::derive_seed;
use crate::report::{agg_stat_json, check_stat, gate_tolerance, BenchReport};
use crate::runner::AggStat;
use crate::table;
use crate::workload::{Cell, Rep, Workload};
use crate::Scale;
use pdm_linalg::Json;
use pdm_service::{PrivacyParams, ServiceConfig, TenantConfig};
use std::time::Duration;

/// Base seed of the privacy grid; each cell derives its traffic trace from
/// `derive_seed(PRIVACY_SEED_BASE + cell_index, rep)`.
const PRIVACY_SEED_BASE: u64 = 0x11E9;

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

/// The per-repetition supply, WAL and restore figures.
pub struct PrivacyOutcome {
    quoted_early: u64,
    trajectory: Vec<u64>,
    wal_segments: u64,
    restore_latency: Duration,
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

    /// One repetition through the crash-cut harness: every tenant quotes
    /// once per wave, in tenant order.
    fn run_rep(&self, workers: usize, rep: u64) -> Result<Rep<PrivacyOutcome>, String> {
        let tenants = self.tenants;
        let waves = (0..self.waves).map(|_| 0..tenants);
        let trace =
            closed_loop::build_trace(tenants, self.owners, derive_seed(self.seed, rep), waves)
                .map_err(|e| format!("{}: {e}", self.label))?;
        let config = ServiceConfig {
            shards: self.shards,
            queue_capacity: tenants.max(4),
            wal_segment_size: Some(self.wal_segment_size),
            ..ServiceConfig::default()
        };
        let params = PrivacyParams {
            epsilon_budget: self.epsilon_budget,
            compensation_base: self.compensation_base,
            ..PrivacyParams::default()
        };
        let tenant = TenantConfig::privacy(self.owners, self.waves, params);
        let service = closed_loop::build_service(&self.label, config, tenants, tenant)?;
        let mut run =
            closed_loop::crash_cut(&self.label, service, &trace, self.checkpoint_every, workers)?;
        let trajectory = std::mem::take(&mut run.trajectory);
        Ok(run.rep(PrivacyOutcome {
            quoted_early: run.at_cut.quotes_served,
            trajectory,
            wal_segments: run.service.wal_segments_written(),
            restore_latency: run.restore_latency,
        }))
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
            closed_loop::validate(
                violations,
                &place,
                cell.quotes_served,
                cell.perf.quotes_per_sec,
                cell.wal_segments,
                &[("restore latency µs", cell.perf.restore_latency_micros)],
            );
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
    use crate::workload::run_test_cell as run;

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
