//! Determinism suite for the parallel runner and the service workloads,
//! plus the `BENCH_*.json` render stability.
//!
//! The acceptance bar for the runner is that the *aggregates* — everything
//! except wall-clock derived perf figures — are **byte-identical** no matter
//! how many workers execute the grid.  These tests run each grid with 1 and
//! 4 workers, compare the canonical report fingerprints as strings, and pin
//! the serial fingerprint to a golden file under `tests/fixtures/`.

use pdm_bench::auction::AuctionCellSpec;
use pdm_bench::drift::DriftCellSpec;
use pdm_bench::grid::{expand_jobs, CellSpec, Checkpoint, JobSpec, SyntheticMechanism};
use pdm_bench::json::Json;
use pdm_bench::linear_market::{LinearMarketConfig, Version};
use pdm_bench::longhaul::LonghaulCellSpec;
use pdm_bench::privacy::PrivacyCellSpec;
use pdm_bench::report::{build_experiment_reports, BenchReport, PerfSummary};
use pdm_bench::runner::run_jobs;
use pdm_bench::serve::ServeCellSpec;
use pdm_bench::workload::{run_cells, Workload};
use pdm_bench::Scale;
use pdm_linalg::{sampling, Vector};
use pdm_service::{
    MarketService, MetricRegistry, OutcomeReport, Payload, QueryRequest, Request, ServiceConfig,
    TenantConfig, TenantId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Compares a deterministic fingerprint with its golden file under
/// `tests/fixtures/`.  A missing fixture is written and the test fails, so
/// an intended change to the mechanism is recorded by deleting the stale
/// file, running the suite twice and reviewing the diff.
fn assert_matches_fixture(name: &str, fingerprint: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let Ok(golden) = std::fs::read_to_string(&path) else {
        std::fs::create_dir_all(path.parent().expect("fixtures have a parent"))
            .expect("the fixture directory is writable");
        std::fs::write(&path, fingerprint).expect("the fixture is writable");
        panic!("wrote the missing fixture {}; rerun", path.display());
    };
    if golden != fingerprint {
        let offset = golden
            .bytes()
            .zip(fingerprint.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.len().min(fingerprint.len()));
        panic!(
            "fingerprint differs from fixture {} at byte offset {offset}",
            path.display()
        );
    }
}

/// A small heterogeneous grid: a market cell, a synthetic cell with
/// checkpoints, and a deterministic Lemma-8 cell.
fn fixed_grid() -> Vec<Vec<CellSpec>> {
    let config = LinearMarketConfig {
        dim: 4,
        rounds: 200,
        num_owners: 60,
        delta: 0.01,
        seed: 7,
    };
    vec![
        vec![
            CellSpec::new(
                "market/with-reserve",
                JobSpec::LinearMarket {
                    config,
                    version: Version::WithReserve,
                },
            )
            .with_checkpoints(vec![Checkpoint::Round(50), Checkpoint::Fraction(1.0)]),
            CellSpec::new("market/baseline", JobSpec::LinearBaseline { config }),
        ],
        vec![
            CellSpec::new(
                "synthetic/ellipsoid",
                JobSpec::Synthetic {
                    dim: 3,
                    rounds: 150,
                    env_seed: 11,
                    run_seed: 12,
                    reserve: Some(true),
                    epsilon: None,
                    mechanism: SyntheticMechanism::Ellipsoid,
                },
            )
            .with_checkpoints(vec![Checkpoint::Round(10)]),
            CellSpec::new(
                "lemma8/correct",
                JobSpec::Lemma8 {
                    horizon: 80,
                    conservative_cuts: false,
                },
            ),
        ],
    ]
}

/// Runs the fixed grid with the given worker count and builds the report
/// through the same aggregation path the `bench` CLI uses.
fn report_with_workers(workers: usize, reps: u64) -> BenchReport {
    let grid = fixed_grid();
    let jobs = expand_jobs(&grid, reps);
    let results = run_jobs(&jobs, workers);
    let names: Vec<String> = (0..grid.len()).map(|e| format!("experiment-{e}")).collect();
    let mut report = BenchReport::new("determinism-suite", "quick", workers, reps);
    report.git_describe = "test".to_owned();
    report.experiments = build_experiment_reports(
        names
            .iter()
            .map(String::as_str)
            .zip(grid.iter().map(Vec::as_slice)),
        reps,
        &results,
    );
    report
}

/// Runs a service workload's whole quick-scale grid with the given drain
/// worker count and wraps it in a report, the way `bench <workload>
/// --workers N` does; `with_obs` adds the v8 `obs` section of the merged
/// registry.
fn quick_report<W: Workload>(workers: usize, with_obs: bool) -> BenchReport {
    let mut obs = MetricRegistry::new();
    let mut report = BenchReport::new(W::NAME, "quick", workers, 1);
    report.git_describe = "test".to_owned();
    *W::rows(&mut report) =
        run_cells(&W::grid(Scale::Quick), workers, 1, &mut obs).expect("the grid must run");
    report.perf = PerfSummary::from_serve(&report.serve);
    report.obs = with_obs.then(|| obs.to_json(true));
    report
}

#[test]
fn privacy_aggregates_are_byte_identical_for_1_and_4_workers() {
    // The acceptance bar of the ledger subsystem: the whole quick privacy
    // grid — ε debits, compensation accruals, sticky owner retirement, the
    // per-wave exhaustion trajectory, arbitrage clamps, and the throttled
    // supply counts — must produce byte-identical aggregates no matter how
    // many workers drain the shards.  (Each run additionally verified the
    // mid-run WAL restore against the original over the identical post-cut
    // trace, bit for bit, inside `run_cells`.)
    let serial = quick_report::<PrivacyCellSpec>(1, false);
    let parallel = quick_report::<PrivacyCellSpec>(4, false);
    assert!(!serial.privacy.is_empty());
    assert_eq!(
        serial.deterministic_fingerprint(),
        parallel.deterministic_fingerprint(),
        "drain worker count must not affect any privacy-ledger aggregate"
    );
    assert_matches_fixture("privacy_quick.json", &serial.deterministic_fingerprint());
    for cell in &parallel.privacy {
        assert!(cell.perf.quotes_per_sec > 0.0, "{}", cell.label);
        assert!(cell.metrics.owners_exhausted > 0, "{}", cell.label);
        assert!(cell.metrics.privacy_throttled > 0, "{}", cell.label);
        assert!(cell.quoted_late < cell.quoted_early, "{}", cell.label);
        assert!(
            cell.compensation.mean <= cell.revenue.mean,
            "{}: payouts exceeded revenue",
            cell.label
        );
    }
    assert!(serial.validate().is_empty());
    assert!(parallel.validate().is_empty());
}

#[test]
fn longhaul_aggregates_are_byte_identical_for_1_and_4_workers() {
    // The acceptance bar of the persistence/paging layer: the whole quick
    // longhaul grid — WAL checkpoints under traffic, the timed mid-run
    // restore, and the eviction churn under the resident cap — must produce
    // byte-identical ledgers AND byte-identical paging/WAL counters no
    // matter how many workers drain the shards.  (Each run additionally
    // verified the restored service against the original over the identical
    // post-cut trace, bit for bit, inside `run_cells`.)
    let serial = quick_report::<LonghaulCellSpec>(1, false);
    let parallel = quick_report::<LonghaulCellSpec>(4, false);
    assert!(!serial.longhaul.is_empty());
    assert_eq!(
        serial.deterministic_fingerprint(),
        parallel.deterministic_fingerprint(),
        "drain worker count must not affect any longhaul aggregate"
    );
    assert_matches_fixture("longhaul_quick.json", &serial.deterministic_fingerprint());
    for cell in &parallel.longhaul {
        assert!(cell.perf.quotes_per_sec > 0.0, "{}", cell.label);
        assert!(cell.perf.restore_latency_micros > 0.0, "{}", cell.label);
        assert!(cell.metrics.evictions > 0, "{}", cell.label);
        assert!(
            cell.max_resident <= cell.resident_capacity,
            "{}",
            cell.label
        );
    }
    assert!(serial.validate().is_empty());
    assert!(parallel.validate().is_empty());
}

#[test]
fn drift_aggregates_are_byte_identical_for_1_and_4_workers() {
    // The acceptance bar of the drift layer: the whole quick grid — every
    // drift kind × magnitude × policy — must produce byte-identical
    // revenue/regret/post-shift/detector aggregates no matter how many
    // workers drain the shards.  (Each run additionally verified every
    // posted price and drift counter against a serial per-tenant replay
    // inside `run_cells`.)
    let serial = quick_report::<DriftCellSpec>(1, false);
    let parallel = quick_report::<DriftCellSpec>(4, false);
    assert!(!serial.drift.is_empty());
    assert_eq!(
        serial.deterministic_fingerprint(),
        parallel.deterministic_fingerprint(),
        "drain worker count must not affect any drift aggregate"
    );
    assert_matches_fixture("drift_quick.json", &serial.deterministic_fingerprint());
    for cell in &parallel.drift {
        assert!(cell.perf.quotes_per_sec > 0.0, "{}", cell.label);
    }
    assert!(serial.validate().is_empty());
    assert!(parallel.validate().is_empty());
}

#[test]
fn auction_aggregates_are_byte_identical_for_1_and_4_workers() {
    // The acceptance bar of the auction layer: the whole quick grid —
    // every bidder count × distribution × reserve policy — must produce
    // byte-identical revenue/welfare/hit aggregates no matter how many
    // workers drain the shards.  (Each run additionally verified every
    // reserve and clearing price against a serial per-tenant replay inside
    // `run_cells`.)
    let serial = quick_report::<AuctionCellSpec>(1, false);
    let parallel = quick_report::<AuctionCellSpec>(4, false);
    assert!(!serial.auction.is_empty());
    assert_eq!(
        serial.deterministic_fingerprint(),
        parallel.deterministic_fingerprint(),
        "drain worker count must not affect any auction aggregate"
    );
    assert_matches_fixture("auction_quick.json", &serial.deterministic_fingerprint());
    for cell in &parallel.auction {
        assert!(cell.perf.rounds_per_sec > 0.0, "{}", cell.label);
    }
    assert!(serial.validate().is_empty());
    assert!(parallel.validate().is_empty());
}

#[test]
fn aggregates_are_bit_identical_for_1_and_4_workers() {
    let serial = report_with_workers(1, 2);
    let parallel = report_with_workers(4, 2);
    assert_eq!(
        serial.deterministic_fingerprint(),
        parallel.deterministic_fingerprint(),
        "worker count must not affect any deterministic aggregate"
    );
    assert_matches_fixture("simulation_fixed.json", &serial.deterministic_fingerprint());
}

#[test]
fn serve_aggregates_are_byte_identical_for_1_and_4_workers() {
    // The acceptance bar of the serving engine: the whole quick serve grid —
    // every tenant count × arrival mix cell, including the shedding bursty
    // cells — must produce byte-identical revenue/regret aggregates no
    // matter how many workers drain the shards.  (Each run additionally
    // verified itself against a serial per-tenant replay inside
    // `run_cells`.)
    let serial = quick_report::<ServeCellSpec>(1, true);
    let parallel = quick_report::<ServeCellSpec>(4, true);
    assert!(!serial.serve.is_empty());
    assert_eq!(
        serial.deterministic_fingerprint(),
        parallel.deterministic_fingerprint(),
        "drain worker count must not affect any serve aggregate"
    );
    assert_matches_fixture("serve_quick.json", &serial.deterministic_fingerprint());
    // The v2 report carries the throughput figures the fingerprint ignores.
    for cell in &parallel.serve {
        assert!(cell.perf.quotes_per_sec > 0.0, "{}", cell.label);
        assert!(
            cell.perf.latency_p99_micros >= cell.perf.latency_p50_micros,
            "{}",
            cell.label
        );
    }
    assert!(serial.validate().is_empty());
    assert!(parallel.validate().is_empty());
}

#[test]
fn obs_registry_is_byte_identical_for_1_and_4_workers() {
    // The acceptance bar of the observability layer: the merged pdm-obs
    // registry of a whole quick serve grid — service counters, per-stage
    // span *work* histograms on the fixed log-bucket grid, and gauges —
    // must render byte-identical deterministic dumps no matter how many
    // workers drain the shards.  (Wall-clock span histograms are excluded
    // by `to_json(true)`, exactly as the v8 report section excludes them.)
    let mut serial = MetricRegistry::new();
    let mut parallel = MetricRegistry::new();
    let grid = ServeCellSpec::grid(Scale::Quick);
    run_cells(&grid, 1, 1, &mut serial).expect("the serve grid must run serially");
    run_cells(&grid, 4, 1, &mut parallel).expect("the serve grid must run in parallel");
    let dump = serial.to_json(true).render();
    assert_eq!(
        dump,
        parallel.to_json(true).render(),
        "drain worker count must not move a single deterministic bucket"
    );
    // The dump actually carries the hot-path stages and the exported
    // service counters, not just an empty shell.
    for needle in [
        "shard.quote.work_items",
        "shard.observe.work_items",
        "shard.drain.work_items",
        "quotes_served_total",
    ] {
        assert!(dump.contains(needle), "dump is missing `{needle}`");
    }
    // The full scrape additionally carries the wall-clock histograms the
    // deterministic dump excludes, and still lints as a Prometheus
    // exposition.
    let full = serial.to_json(false).render();
    assert!(full.contains("shard.quote.wall_nanos"));
    assert!(!dump.contains("shard.quote.wall_nanos"));
    let lint = pdm_obs::prom::parse(&serial.render_prometheus()).expect("scrape lints clean");
    assert!(lint.families > 0 && lint.samples > 0);
}

#[test]
fn repetition_count_changes_aggregates_but_not_their_health() {
    let single = report_with_workers(2, 1);
    let triple = report_with_workers(2, 3);
    assert_ne!(
        single.deterministic_fingerprint(),
        triple.deterministic_fingerprint(),
        "extra reps draw new seeds, so the aggregates must move"
    );
    assert!(single.validate().is_empty());
    assert!(triple.validate().is_empty());
    // With 3 reps the market cells have real spread.
    let market = &triple.experiments[0].cells[0];
    assert_eq!(market.reps, 3);
    assert!(market.cumulative_regret.std > 0.0);
    assert!(market.cumulative_regret.ci95_half > 0.0);
    // The Lemma-8 game is deterministic: zero spread by construction.
    let lemma = &triple.experiments[1].cells[1];
    assert_eq!(lemma.cumulative_regret.std, 0.0);
}

#[test]
fn report_survives_a_full_json_round_trip() {
    // One report carrying every section the writer emits: experiments, all
    // five service workloads (first cell of each quick grid), the perf
    // summary and the obs dump.
    let mut report = report_with_workers(2, 2);
    let mut obs = MetricRegistry::new();
    report.serve = run_cells(&ServeCellSpec::grid(Scale::Quick)[..1], 2, 1, &mut obs).unwrap();
    report.auction = run_cells(&AuctionCellSpec::grid(Scale::Quick)[..1], 2, 1, &mut obs).unwrap();
    report.drift = run_cells(&DriftCellSpec::grid(Scale::Quick)[..1], 2, 1, &mut obs).unwrap();
    report.longhaul =
        run_cells(&LonghaulCellSpec::grid(Scale::Quick)[..1], 2, 1, &mut obs).unwrap();
    report.privacy = run_cells(&PrivacyCellSpec::grid(Scale::Quick)[..1], 2, 1, &mut obs).unwrap();
    report.perf = PerfSummary::from_serve(&report.serve);
    report.obs = Some(obs.to_json(true));

    let rendered = report.to_json().render_pretty();
    let parsed = Json::parse(&rendered).expect("the emitted JSON must parse");
    for section in [
        "experiments",
        "serve",
        "auction",
        "drift",
        "longhaul",
        "privacy",
    ] {
        let cells = parsed.get(section).and_then(Json::as_arr).expect(section);
        assert!(!cells.is_empty(), "{section} is empty");
    }
    assert!(parsed.get("perf").is_some() && parsed.get("obs").is_some());
    // The schema of every section, pinned key by key: the first cell's
    // ordered keys, and the ordered keys of its `perf` object (which the
    // golden fingerprints strip, so nothing else pins them).
    let first_experiment = &parsed.get("experiments").and_then(Json::as_arr).unwrap()[0];
    let first_cells = [
        ("experiments", first_experiment),
        ("serve", parsed.get("serve").unwrap()),
        ("auction", parsed.get("auction").unwrap()),
        ("drift", parsed.get("drift").unwrap()),
        ("longhaul", parsed.get("longhaul").unwrap()),
        ("privacy", parsed.get("privacy").unwrap()),
    ]
    .map(|(section, parent)| {
        let cells = parent.get("cells").unwrap_or(parent);
        (section, cells.as_arr().expect(section)[0].clone())
    });
    for ((section, cell), (keys, perf_keys)) in first_cells.iter().zip(schema()) {
        assert_eq!(object_keys(cell), keys, "{section} keys");
        let perf = cell.get("perf").expect(section);
        assert_eq!(object_keys(perf), perf_keys, "{section} perf keys");
    }
    // The canonical render is stable: parsing and re-rendering the emitted
    // text reproduces it byte for byte (NaN perf fields render as `null`
    // both times).
    assert_eq!(parsed.render_pretty(), rendered);
    assert!(report.validate().is_empty());
}

/// The keys of a JSON object, in order.
fn object_keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(pairs) => pairs.iter().map(|(key, _)| key.as_ref()).collect(),
        other => panic!("expected an object, got {}", other.render()),
    }
}

/// The written schema of one cell of each section, in section order: the
/// cell's keys, then the keys of its `perf` object.
fn schema() -> [(Vec<String>, Vec<String>); 6] {
    let words = |text: &str| text.split_whitespace().map(str::to_owned).collect();
    let latency = "latency_mean_micros latency_p50_micros latency_p99_micros";
    let served = &format!("wall_clock_secs quotes_per_sec {latency}");
    let restored = "wall_clock_secs quotes_per_sec restore_latency_micros";
    [
        (
            words(
                "label mechanism reps rounds cumulative_regret regret_ratio revenue \
                 acceptance_rate market_value_per_round reserve_price_per_round \
                 posted_price_per_round regret_per_round checkpoints perf",
            ),
            words(
                "wall_clock_secs rounds_per_sec latency_mean_micros latency_p50_micros \
                 latency_p99_micros latency_max_micros memory_bytes",
            ),
        ),
        (
            words(
                "label mix tenants shards waves reps quotes_served observations sales shed \
                 rejected revenue regret accept_rate workers perf",
            ),
            words(served),
        ),
        (
            words(
                "label distribution policy tenants bidders shards waves reps auctions sales \
                 reserve_hits revenue baseline_revenue welfare hit_rate workers perf",
            ),
            words(&format!("wall_clock_secs rounds_per_sec {latency}")),
        ),
        (
            words(
                "label kind magnitude policy tenants shards waves reps rounds sales \
                 drift_fires drift_restarts revenue regret post_shift_regret accept_rate \
                 workers perf",
            ),
            words(served),
        ),
        (
            words(
                "label tenants shards waves reps resident_capacity wal_segment_size \
                 quotes_served observations sales evictions rehydrations wal_segments \
                 max_resident revenue regret accept_rate workers perf",
            ),
            words(&format!("{restored} memory_per_tenant_bytes")),
        ),
        (
            words(
                "label tenants shards waves reps owners epsilon_budget requests quotes_served \
                 observations sales throttled arbitrage_clamps owners_exhausted wal_segments \
                 quoted_early quoted_late exhausted_trajectory revenue compensation \
                 epsilon_spent accept_rate workers perf",
            ),
            words(restored),
        ),
    ]
}

/// One pre-drawn round of the differential replay workload: the buyer's
/// decision and ground truth are fixed up front, so both drain disciplines
/// see the exact same request stream.
struct ReplayRound {
    tenant: TenantId,
    features: Vector,
    reserve_price: f64,
    accepted: bool,
    market_value: f64,
}

/// A 512-round seeded serve workload over 8 tenants: the first half arrives
/// in long per-tenant blocks (maximal same-tenant runs for the shard),
/// the second half in round-robin waves (runs of length ≲ 2).
fn replay_workload() -> Vec<Vec<ReplayRound>> {
    let tenants = 8;
    let rounds_per_tenant = 64;
    let dim = 3;
    let mut rng = StdRng::seed_from_u64(88_512);
    (0..tenants)
        .map(|t| {
            (0..rounds_per_tenant)
                .map(|_| ReplayRound {
                    tenant: TenantId(t as u64 + 1),
                    features: sampling::uniform_vector(&mut rng, dim, -1.0, 1.0),
                    reserve_price: sampling::uniform(&mut rng, 0.0, 0.6),
                    accepted: sampling::uniform(&mut rng, 0.0, 1.0) < 0.55,
                    market_value: sampling::uniform(&mut rng, -0.5, 1.5),
                })
                .collect()
        })
        .collect()
}

fn replay_service() -> MarketService {
    let mut service = MarketService::new(ServiceConfig {
        shards: 4,
        queue_capacity: 2048,
        ..ServiceConfig::default()
    })
    .expect("a valid service config");
    for t in 1..=8u64 {
        service
            .register_tenant(TenantId(t), TenantConfig::standard(3, 512))
            .expect("tenant ids are unique");
    }
    service
}

/// Submits the workload in the fixed global order, draining with the given
/// discipline: `drain_every` = usize::MAX means "bulk" (one drain per
/// phase, so shards see maximal batched runs); 1 means one-at-a-time
/// (every request drained alone — the pre-batching dispatch).  Returns the
/// responses keyed by submission sequence plus the quiescent service.
fn run_replay(drain_every: usize) -> (Vec<(u64, Payload)>, MarketService) {
    let workload = replay_workload();
    let mut service = replay_service();
    let mut responses = Vec::new();
    let mut since_drain = 0usize;
    let submit = |service: &mut MarketService,
                  responses: &mut Vec<pdm_service::Response>,
                  since_drain: &mut usize,
                  round: &ReplayRound| {
        service
            .ingest(Request::Quote(QueryRequest {
                tenant: round.tenant,
                features: round.features.clone(),
                reserve_price: round.reserve_price,
            }))
            .expect("queue has capacity");
        *since_drain += 1;
        if *since_drain >= drain_every {
            service.drain_into(4, responses);
            *since_drain = 0;
        }
        service
            .ingest(Request::Observe(OutcomeReport {
                tenant: round.tenant,
                accepted: round.accepted,
                market_value: Some(round.market_value),
            }))
            .expect("queue has capacity");
        *since_drain += 1;
        if *since_drain >= drain_every {
            service.drain_into(4, responses);
            *since_drain = 0;
        }
    };

    // Phase 1: long per-tenant blocks (rounds 0..32 of every tenant).
    for tenant_rounds in &workload {
        for round in &tenant_rounds[..32] {
            submit(&mut service, &mut responses, &mut since_drain, round);
        }
    }
    service.drain_into(4, &mut responses);
    since_drain = 0;
    // Phase 2: round-robin waves (rounds 32..64, one per tenant per wave).
    for wave in 32..64 {
        for tenant_rounds in &workload {
            submit(
                &mut service,
                &mut responses,
                &mut since_drain,
                &tenant_rounds[wave],
            );
        }
    }
    service.drain_into(4, &mut responses);
    assert_eq!(service.queued_requests(), 0);

    let mut keyed: Vec<(u64, Payload)> = responses
        .into_iter()
        .map(|response| (response.seq, response.payload))
        .collect();
    keyed.sort_by_key(|(seq, _)| *seq);
    (keyed, service)
}

#[test]
fn batched_drain_replays_one_at_a_time_bit_identically() {
    // The differential replay behind the batched-drain rework: the same
    // 512-round seeded workload driven through bulk drains (maximal
    // same-tenant runs served in place by the shard) and through one-at-a-time
    // submit→drain (the pre-batching dispatch) must produce the same
    // response for every sequence number, byte-identical snapshots, and
    // identical deterministic metrics fingerprints.
    let (batched_responses, batched) = run_replay(usize::MAX);
    let (serial_responses, serial) = run_replay(1);

    assert_eq!(batched_responses.len(), 1024, "512 quotes + 512 outcomes");
    assert_eq!(batched_responses.len(), serial_responses.len());
    for ((seq_a, payload_a), (seq_b, payload_b)) in batched_responses.iter().zip(&serial_responses)
    {
        assert_eq!(seq_a, seq_b, "submission sequences must align");
        assert_eq!(payload_a, payload_b, "payload diverged at seq {seq_a}");
    }

    // Byte-identical snapshots: every tenant's knowledge set, ledger, and
    // counter serialises to the same canonical JSON.
    let snapshot_a = batched.snapshot().expect("quiescent service snapshots");
    let snapshot_b = serial.snapshot().expect("quiescent service snapshots");
    assert_eq!(
        snapshot_a.render(),
        snapshot_b.render(),
        "drain batching must not move any snapshotted state"
    );

    // ShardMetrics fingerprint: every ledger field, at the bit level.
    let metrics_a = batched.aggregate_metrics();
    let metrics_b = serial.aggregate_metrics();
    for ((field, a), (_, b)) in metrics_a.fields().into_iter().zip(metrics_b.fields()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{field} diverged");
    }
    assert_eq!(metrics_a.quotes_served, 512);
    assert_eq!(metrics_a.observations, 512);

    // And the per-tenant regret ledgers agree exactly.
    for t in 1..=8u64 {
        let report_a = batched.tenant_report(TenantId(t)).expect("registered");
        let report_b = serial.tenant_report(TenantId(t)).expect("registered");
        assert_eq!(report_a.rounds, report_b.rounds);
        assert_eq!(
            report_a.cumulative_regret.to_bits(),
            report_b.cumulative_regret.to_bits(),
            "tenant {t} regret ledger diverged"
        );
        assert_eq!(
            report_a.cumulative_revenue.to_bits(),
            report_b.cumulative_revenue.to_bits()
        );
    }
}

#[test]
fn checkpoints_resolve_identically_across_worker_counts() {
    let a = report_with_workers(1, 1);
    let b = report_with_workers(3, 1);
    let cell_a = &a.experiments[0].cells[0];
    let cell_b = &b.experiments[0].cells[0];
    assert_eq!(cell_a.checkpoints.len(), 2);
    assert_eq!(cell_a.checkpoints[0].round, 50);
    assert_eq!(cell_a.checkpoints[1].round, 200);
    for (ca, cb) in cell_a.checkpoints.iter().zip(&cell_b.checkpoints) {
        assert_eq!(ca.round, cb.round);
        assert_eq!(ca.cumulative_regret.mean, cb.cumulative_regret.mean);
        assert_eq!(ca.regret_ratio.mean, cb.regret_ratio.mean);
    }
}
