//! The parallel experiment runner: every figure and table of Section V as
//! subcommands of one binary, executed across a worker pool with
//! deterministic per-job seeding and an optional machine-readable
//! `BENCH_*.json` report.
//!
//! ```text
//! cargo run -p pdm-bench --release --bin bench -- all                 # quick scale
//! cargo run -p pdm-bench --release --bin bench -- fig4 --full         # paper scale
//! cargo run -p pdm-bench --release --bin bench -- all --workers 8 \
//!     --reps 5 --json BENCH_all.json --check
//! ```
//!
//! Run with `--help` for the full flag reference; the JSON schema is
//! documented in `docs/BENCHMARKS.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(pdm_bench::cli::main_with(&args));
}
