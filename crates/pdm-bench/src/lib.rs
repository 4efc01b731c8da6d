//! # pdm-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section V), plus the ablations listed in
//! `docs/BENCHMARKS.md`.  Each experiment is a subcommand of the **`bench`**
//! binary (`cargo run -p pdm-bench --release --bin bench -- <name>`); the
//! shared pipelines live here so the binary, the Criterion bench, and the
//! integration tests all exercise the same code.
//!
//! | subcommand | reproduces |
//! |------------|------------|
//! | `fig1` | Fig. 1 — single-round regret shape |
//! | `fig4` | Fig. 4(a)–(f) — cumulative regret, noisy linear query |
//! | `fig5a` | Fig. 5(a) — regret ratios at n = 100 + risk-averse baseline |
//! | `fig5b` | Fig. 5(b) — accommodation rental, log-linear model |
//! | `fig5c` | Fig. 5(c) — impression pricing, logistic model |
//! | `table1` | Table I — per-round statistics under the reserve version |
//! | `overhead` | Section V-D — per-round latency and memory |
//! | `lemma8` | Lemma 8 / Fig. 6 — conservative-cut ablation |
//! | `regret-scaling` | Theorems 1 & 3 — regret growth in T and n, ε ablation |
//! | `all` | every experiment above in one parallel grid |
//!
//! ```text
//! cargo run -p pdm-bench --release --bin bench -- all --workers 8 --reps 5 \
//!     --json BENCH_all.json
//! ```
//!
//! Every subcommand accepts `--full` to run at the paper's scale (the
//! default is a scaled-down configuration that finishes in seconds and
//! preserves the qualitative shape), `--workers`/`--reps` for the parallel
//! runner, and `--json` to write the versioned machine-readable report
//! documented in `docs/BENCHMARKS.md`.  The experiment grid lives in
//! [`experiments`]; the worker pool and aggregation in [`runner`]; the
//! closed-loop service workloads (`serve`, `auction`, `drift`, `longhaul`,
//! `privacy`) run through [`workload`], and all but `auction` share one
//! closed loop in `closed_loop.rs` — a precomputed trace, one wave loop,
//! and a serial replay (`serve`, `drift`) or a crash cut (`longhaul`,
//! `privacy`) as the verification; the write-only
//! `BENCH_*.json` schema lives in [`report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airbnb_pipeline;
pub mod auction;
pub mod avazu_pipeline;
pub mod cli;
mod closed_loop;
pub mod drift;
pub mod experiments;
pub mod grid;
pub mod linear_market;
pub mod longhaul;
pub mod privacy;
pub mod report;
pub mod runner;
pub mod scale;
pub mod serve;
pub mod table;
pub mod workload;

/// The deterministic JSON tree the `BENCH_*.json` reports serialise through.
///
/// The implementation lives in [`pdm_linalg::json`] (the dependency-free
/// root of the workspace) so that `pdm-service` snapshots can use it without
/// depending on this bench crate; it is re-exported here because the report
/// schema and its consumers historically spell it `pdm_bench::json`.
pub use pdm_linalg::json;

pub use scale::Scale;
