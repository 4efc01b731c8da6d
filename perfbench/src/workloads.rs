//! The three workloads and the phases every run goes through: set-up
//! (timed several times), warm-up, the timed phase, restore checks, a final
//! scrape, and the serial replay that verifies every surfaced value.

use crate::driver::Driver;
use crate::market::Market;
use crate::replay::{replay_kernel, replay_session, Chunk, Plan, ReplayStats};
use crate::trace::{median, peak_rss_mb, quantiles, Calibration, Layer, Total};
use pdm_linalg::Json;
use pdm_service::{
    shard_of, MarketService, PrivacyParams, Response, ServiceConfig, TenantConfig, TenantId,
};
use std::time::{Duration, Instant};

/// A workload's fixed shape.  Every number here is part of the benchmark
/// definition; see `perfbench/README.md` for why each was chosen.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub tenants: usize,
    pub dim: usize,
    pub horizon: usize,
    pub shards: usize,
    pub workers: usize,
    pub resident_capacity: Option<usize>,
    pub wal_segment_size: Option<usize>,
    /// Every `privacy_every`-th tenant is a privacy tenant (0 = none).
    pub privacy_every: usize,
    pub pool: usize,
    pub warmup_waves: u64,
    /// Tenants per closed-loop wave, and how far the window moves per wave.
    pub window: u32,
    pub stride: u32,
    /// `regret_ratio` covers each tenant's first this-many rounds, all
    /// served during warm-up.
    pub regret_rounds: u64,
    /// Set-ups timed after every measurement slice, so `setup_s` samples
    /// the whole run rather than one moment of the shared machine.
    pub setup_burst: usize,
    /// Traced runs alternate untraced and traced blocks of this many waves.
    pub block: u64,
    pub checkpoint_every: u64,
    /// Crash cuts (churn) happen every this-many timed waves, [`MAX_CUTS`]
    /// times; 0 means the restore checks run after the timed phase instead.
    pub cut_every: u64,
    /// How many times as much as the calibration block this workload slows
    /// on a busy host, in logs: the power its times are scaled by.
    /// Measured from the run-to-run spread of ten seeds on the shared
    /// 2-vCPU VM; see `perfbench/README.md`.
    pub host_sensitivity: f64,
}

pub const STEADY: Spec = Spec {
    name: "steady",
    tenants: 64,
    dim: 100,
    horizon: 100_000,
    shards: 1,
    workers: 1,
    resident_capacity: None,
    wal_segment_size: Some(1),
    privacy_every: 0,
    pool: 4096,
    warmup_waves: 256,
    window: 64,
    stride: 0,
    regret_rounds: 256,
    setup_burst: 10,
    block: 8,
    checkpoint_every: 0,
    cut_every: 0,
    host_sensitivity: 2.5,
};

pub const FANOUT: Spec = Spec {
    name: "fanout",
    tenants: 1024,
    dim: 4,
    horizon: 10_000,
    shards: 16,
    workers: 2,
    resident_capacity: None,
    wal_segment_size: Some(16),
    privacy_every: 0,
    pool: 4096,
    warmup_waves: 512,
    window: 8,
    stride: 8,
    regret_rounds: 4,
    setup_burst: 10,
    block: 64,
    checkpoint_every: 0,
    cut_every: 0,
    host_sensitivity: 1.0,
};

pub const CHURN: Spec = Spec {
    name: "churn",
    tenants: 1024,
    dim: 16,
    horizon: 10_000,
    shards: 2,
    workers: 1,
    resident_capacity: Some(128),
    wal_segment_size: Some(4),
    privacy_every: 8,
    pool: 4096,
    warmup_waves: 64,
    window: 64,
    stride: 32,
    regret_rounds: 4,
    setup_burst: 2,
    block: 4,
    checkpoint_every: 4,
    cut_every: 8,
    host_sensitivity: 2.5,
};

/// Crash cuts per churn run, at fixed timed waves so each restores a fixed
/// amount of WAL.
const MAX_CUTS: usize = 3;
/// Restore checks after the timed phase (steady, fanout).
const RESTORE_CYCLES: usize = 3;
/// Tenants in the lockstep wave that checks a restored service.
const LOCKSTEP_TENANTS: u32 = 64;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
}

fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig {
        shards: spec.shards,
        queue_capacity: spec.tenants.max(64),
        resident_capacity: spec.resident_capacity,
        wal_segment_size: spec.wal_segment_size,
        ledger_paging: spec.privacy_every > 0,
        ..ServiceConfig::default()
    }
}

fn tenant_configs(spec: &Spec) -> Vec<TenantConfig> {
    // Budgets no owner can exhaust within a run, and a small compensation
    // base, so privacy tenants run the ledger path without throttling.
    let params = PrivacyParams {
        epsilon_budget: 1e9,
        compensation_base: 0.01,
        ..PrivacyParams::default()
    };
    (0..spec.tenants)
        .map(|t| {
            if spec.privacy_every > 0 && t % spec.privacy_every == 0 {
                TenantConfig::privacy(spec.dim, spec.horizon, params)
            } else {
                TenantConfig::standard(spec.dim, spec.horizon)
            }
        })
        .collect()
}

/// `MarketService::new` plus registration of every tenant.
fn build(spec: &Spec, configs: &[TenantConfig]) -> Result<MarketService, String> {
    let mut service = MarketService::new(service_config(spec)).map_err(|e| e.to_string())?;
    for (t, config) in configs.iter().enumerate() {
        service
            .register_tenant(TenantId(t as u64), *config)
            .map_err(|e| e.to_string())?;
    }
    Ok(service)
}

/// The tenants of closed-loop wave `wave`, in ingest order.
fn window(spec: &Spec, wave: u64, out: &mut Vec<u32>) -> Chunk {
    let n = spec.tenants as u64;
    let start = ((wave * u64::from(spec.stride)) % n) as u32;
    out.clear();
    out.extend((0..spec.window).map(|i| (start + i) % n as u32));
    Chunk::Window {
        start,
        len: spec.window,
    }
}

/// Debug rendering prints every float in its shortest exact form, so equal
/// strings mean bit-identical payloads.
fn same_responses(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| format!("{:?}", x.payload) == format!("{:?}", y.payload))
}

/// One wave served on both the original and a restored service; every
/// response must agree bit for bit.
fn lockstep(
    driver: &mut Driver,
    original: &mut MarketService,
    restored: &mut MarketService,
    tenants: &[u32],
    chunk: Chunk,
) -> Result<(), String> {
    let now = Instant::now();
    for &t in tenants {
        let request = driver.quote_request(t as usize, now);
        driver.requests.push(request);
    }
    for _ in 0..2 {
        for request in &driver.requests {
            restored
                .ingest(request.clone())
                .map_err(|e| e.to_string())?;
        }
        let requests = std::mem::take(&mut driver.requests);
        for request in requests {
            driver.ingest(original, request);
        }
        let mut theirs = Vec::new();
        restored.drain_into(driver.workers, &mut theirs);
        driver.drain(original, u64::MAX);
        if !same_responses(driver.last_responses(), &theirs) {
            return Err("a restored service priced differently from the original".to_owned());
        }
    }
    driver.chunks.push(chunk);
    Ok(())
}

/// Parse plus restore of a rendered base snapshot and WAL segments.
struct Restore {
    service: MarketService,
    parse: Duration,
    replay: Duration,
    /// Parse plus replay in ms, scaled by calibration blocks timed right
    /// before and after.
    scaled_ms: f64,
}

fn restore(base: &str, segments: &[String], cal: &mut Calibration) -> Result<Restore, String> {
    let before = cal.local_slowdown();
    let started = Instant::now();
    let base = Json::parse(base)?;
    let segments = segments
        .iter()
        .map(|s| Json::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    let parsed = Instant::now();
    let service = MarketService::restore_with_wal(&base, &segments).map_err(|e| e.to_string())?;
    let (parse, replay) = (parsed - started, parsed.elapsed());
    let slowdown = (before + cal.local_slowdown()) / 2.0;
    Ok(Restore {
        service,
        parse,
        replay,
        scaled_ms: (parse + replay).as_secs_f64() * 1e3 / slowdown,
    })
}

/// Per-run accumulators the metrics are computed from.
#[derive(Default)]
struct Phase {
    setup: Vec<f64>,
    setup_raw: Vec<f64>,
    restore_ms: Vec<f64>,
    timed: Duration,
    /// Busy time and completed pairs of untraced [0] and traced [1] blocks.
    block_time: [Duration; 2],
    block_pairs: [u64; 2],
    checkpoints: u64,
    segment_bytes: u64,
    prom_bytes: u64,
    scrapes: u64,
    mem_per_tenant: f64,
    peak_rss: f64,
    evictions: u64,
    rehydrations: u64,
    resident_bytes: f64,
    shed: u64,
    cal: Calibration,
}

fn paging(service: &MarketService) -> (u64, u64) {
    let m = service.aggregate_metrics();
    (m.evictions, m.rehydrations)
}

/// Checkpoint, render every segment (kept in `segments` when given),
/// scrape and render the exposition.
fn checkpoint(
    driver: &mut Driver,
    service: &MarketService,
    phase: &mut Phase,
    segments: Option<&mut Vec<String>>,
    group: u64,
) -> Result<(), String> {
    let span = driver.tracer.start();
    let docs = service.checkpoint().map_err(|e| e.to_string())?;
    driver
        .tracer
        .end(Layer::Checkpoint, group, span, docs.len() as u64);
    let span = driver.tracer.start();
    let texts: Vec<String> = docs.iter().map(Json::render).collect();
    let bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    driver.tracer.end(Layer::Render, group, span, bytes);
    if let Some(segments) = segments {
        segments.extend(texts);
    }
    phase.checkpoints += 1;
    phase.segment_bytes += bytes;
    scrape(driver, service, phase, group);
    Ok(())
}

fn scrape(driver: &mut Driver, service: &MarketService, phase: &mut Phase, group: u64) {
    let span = driver.tracer.start();
    let registry = service.scrape();
    driver.tracer.end(Layer::Scrape, group, span, 1);
    let span = driver.tracer.start();
    let text = registry.render_prometheus();
    driver
        .tracer
        .end(Layer::Prom, group, span, text.len() as u64);
    phase.scrapes += 1;
    phase.prom_bytes += text.len() as u64;
}

/// Runs one workload.
pub fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let market = Market::new(args.seed, spec.tenants, spec.dim, spec.pool);
    let configs = tenant_configs(spec);
    let mut phase = Phase {
        cal: Calibration::new(spec.host_sensitivity),
        ..Phase::default()
    };

    let mut service = build(spec, &configs)?;

    let mut driver = Driver::new(&market, spec.workers, spec.regret_rounds);
    let mut tenants = Vec::new();
    for wave in 0..spec.warmup_waves {
        let chunk = window(spec, wave, &mut tenants);
        driver.wave(&mut service, &tenants, chunk, wave);
    }
    phase.mem_per_tenant = service.resident_memory_bytes() as f64 / spec.tenants as f64;
    (phase.evictions, phase.rehydrations) = paging(&service);
    // Restores start from the empty service and replay every tenant from
    // the WAL: segments parse one by one, where a full snapshot would be
    // one document (see README: `Json::parse` cost grows with the square of
    // a document's size).
    let base = MarketService::new(service_config(spec))
        .and_then(|empty| empty.snapshot())
        .map_err(|e| e.to_string())?
        .render();
    let mut segments = Vec::new();

    closed_loop(
        spec,
        args,
        &mut driver,
        &mut service,
        &mut phase,
        &base,
        &mut segments,
    )?;
    let (evictions, rehydrations) = paging(&service);
    phase.evictions = evictions - phase.evictions;
    phase.rehydrations = rehydrations - phase.rehydrations;
    phase.resident_bytes = service.resident_memory_bytes() as f64;
    phase.peak_rss = peak_rss_mb();

    if spec.cut_every == 0 {
        for _ in 0..RESTORE_CYCLES {
            let docs = service.checkpoint().map_err(|e| e.to_string())?;
            segments.extend(docs.iter().map(Json::render));
            let mut restored = restore(&base, &segments, &mut phase.cal)?;
            trace_restore(&mut driver, &restored, args.traced);
            phase.restore_ms.push(restored.scaled_ms);
            let len = LOCKSTEP_TENANTS.min(spec.tenants as u32);
            tenants.clear();
            tenants.extend(0..len);
            let chunk = Chunk::Window { start: 0, len };
            lockstep(
                &mut driver,
                &mut service,
                &mut restored.service,
                &tenants,
                chunk,
            )?;
        }
    }

    // The final scrape is in the obs budget only where no checkpoint scraped.
    driver.tracer.on = args.traced && phase.checkpoints == 0;
    scrape(&mut driver, &service, &mut phase, u64::MAX);
    let registry = service.scrape();
    let metrics = service.aggregate_metrics();
    phase.shed = metrics.shed;
    let queued = service.queued_requests();
    if queued != 0 || registry.gauge_value("rounds.open") != Some(0.0) {
        return Err(format!(
            "backlog guard: {queued} requests still queued after the last drain"
        ));
    }
    if metrics.privacy_throttled != 0 || metrics.owners_exhausted != 0 {
        return Err(format!(
            "privacy throttling: {} throttled quotes, {} owners exhausted",
            metrics.privacy_throttled, metrics.owners_exhausted
        ));
    }
    let regret_ratio = driver.regret_ratio()?;

    // The verifier: replay every tenant serially and compare.
    let shard_index: Vec<u32> = (0..spec.tenants)
        .map(|t| shard_of(TenantId(t as u64), spec.shards) as u32)
        .collect();
    let chunks = std::mem::take(&mut driver.chunks);
    let plan = Plan {
        market: &market,
        configs: &configs,
        shard_of: &shard_index,
        chunks: &chunks,
    };
    driver.tracer.on = args.traced;
    let verify_started = Instant::now();
    let session = replay_session(&plan, &mut driver.tracer)?;
    let verify_s = verify_started.elapsed().as_secs_f64();
    check_hashes("session replay", &session, &driver.hashes)?;
    for t in 0..spec.tenants {
        let live = service
            .tenant_report(TenantId(t as u64))
            .ok_or("a tenant vanished")?;
        let (regret, revenue) = session.totals[t];
        if live.cumulative_regret.to_bits() != regret
            || live.cumulative_revenue.to_bits() != revenue
        {
            return Err(format!(
                "tenant {t}: ledger totals differ from the serial replay"
            ));
        }
    }

    let mut report = Report {
        attempted: driver.attempted,
        failed: driver.failed,
        errors: driver.errors.clone(),
        ..Report::default()
    };
    // Every time is scaled to the reference machine speed (see Calibration):
    // the slices by the blocks inside them, single shots by the blocks
    // around them.
    let slowdown = phase.cal.slowdown();
    let [rate, p50, p90, lag_p90] = driver.slices.medians();
    report.end_to_end = vec![
        ("pairs_per_s", rate, "1/s"),
        ("quote_p50_us", p50, "us"),
        ("regret_ratio", regret_ratio, "ratio"),
        ("mem_per_tenant_b", phase.mem_per_tenant, "B"),
        ("peak_rss_mb", phase.peak_rss, "MB"),
        ("setup_s", median(&phase.setup), "s"),
    ];
    let [raw_rate, raw_p50] = driver.slices.raw_medians();
    eprintln!(
        "{}: {} slices, {} latency samples; machine slowdown {slowdown:.4} \
         (calibration median {:.2} us); pairs_per_s over the whole timed phase, \
         unscaled: {:.1}",
        spec.name,
        driver.slices.count(),
        driver.slices.samples,
        phase.cal.median_us(),
        driver.pairs as f64 / phase.timed.as_secs_f64()
    );
    eprintln!(
        "unscaled: pairs_per_s {raw_rate} quote_p50_us {raw_p50} setup_s {}",
        median(&phase.setup_raw)
    );
    if args.traced {
        let kernel = replay_kernel(&plan, &mut driver.tracer)?;
        check_hashes("kernel replay", &kernel, &driver.hashes)?;
        report.per_layer = per_layer(&driver, &phase, &session, &kernel, verify_s);
        report.per_layer.extend([
            ("wal.restore_ms", median(&phase.restore_ms), "ms"),
            ("quote_p90_us", p90, "us"),
            ("gen_lag_p90_us", lag_p90, "us"),
        ]);
        let path = std::path::PathBuf::from(format!(
            ".bench_build/traces/{}-{}.tsv",
            spec.name, args.seed
        ));
        driver
            .tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    if driver.slices.count() < 5 {
        return Err(format!(
            "only {} measurement slices: the run is too short",
            driver.slices.count()
        ));
    }
    Ok(report)
}

fn check_hashes(what: &str, stats: &ReplayStats, live: &[u64]) -> Result<(), String> {
    match stats.hashes.iter().zip(live).position(|(a, b)| a != b) {
        Some(t) => Err(format!(
            "{what}: tenant {t} priced differently from the live service"
        )),
        None => Ok(()),
    }
}

fn trace_restore(driver: &mut Driver, restored: &Restore, traced: bool) {
    if traced {
        let now = Instant::now();
        driver
            .tracer
            .add(Layer::Parse, u64::MAX, now, restored.parse, 1);
        driver
            .tracer
            .add(Layer::Replay, u64::MAX, now, restored.replay, 1);
    }
}

/// Times `spec.setup_burst` set-ups of a service beside the live one, each
/// scaled by calibration blocks timed right before and after the burst.
fn time_setups(spec: &Spec, phase: &mut Phase) -> Result<(), String> {
    let configs = tenant_configs(spec);
    let before = phase.cal.local_slowdown();
    let mut times = Vec::with_capacity(spec.setup_burst);
    for _ in 0..spec.setup_burst {
        let started = Instant::now();
        let service = build(spec, &configs)?;
        times.push(started.elapsed().as_secs_f64());
        drop(service);
    }
    let slowdown = (before + phase.cal.local_slowdown()) / 2.0;
    phase.setup.extend(times.iter().map(|t| t / slowdown));
    phase.setup_raw.extend(times);
    Ok(())
}

/// The timed phase: closed-loop waves, with checkpoints and crash cuts
/// where the workload has them and a burst of set-ups after every slice.
fn closed_loop(
    spec: &Spec,
    args: &Args,
    driver: &mut Driver,
    service: &mut MarketService,
    phase: &mut Phase,
    base: &str,
    segments: &mut Vec<String>,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(args.seconds);
    if spec.checkpoint_every > 0 {
        // Every registered tenant is dirty: this first checkpoint carries
        // them all into the WAL.
        segments.extend(
            service
                .checkpoint()
                .map_err(|e| e.to_string())?
                .iter()
                .map(Json::render),
        );
    }
    let mut tenants = Vec::new();
    let mut wave = spec.warmup_waves;
    let mut timed_waves = 0u64;
    let mut cuts = 0usize;
    // A throughput sample covers one cycle: a wave, or the waves from one
    // checkpoint to the next, so every sample carries its share of the WAL.
    let cycle = spec.checkpoint_every.max(1);
    let (mut cycle_time, mut cycle_pairs) = (Duration::ZERO, 0u64);
    phase.cal.measure(25);
    driver.recording = true;
    while phase.timed < budget {
        let traced = args.traced && (timed_waves / spec.block) % 2 == 1;
        driver.tracer.on = traced;
        let pairs = driver.pairs;
        let started = Instant::now();
        let chunk = window(spec, wave, &mut tenants);
        driver.wave(service, &tenants, chunk, wave);
        if spec.checkpoint_every > 0 && (timed_waves + 1).is_multiple_of(spec.checkpoint_every) {
            let keep = (cuts < MAX_CUTS).then_some(&mut *segments);
            checkpoint(driver, service, phase, keep, wave)?;
        }
        let elapsed = started.elapsed();
        cycle_time += elapsed;
        cycle_pairs += driver.pairs - pairs;
        phase.timed += elapsed;
        phase.block_time[usize::from(traced)] += elapsed;
        phase.block_pairs[usize::from(traced)] += driver.pairs - pairs;
        driver.tracer.on = false;
        wave += 1;
        timed_waves += 1;
        if timed_waves.is_multiple_of(cycle) {
            let slices = driver.slices.count();
            driver.slices.add(cycle_time, cycle_pairs, &phase.cal);
            (cycle_time, cycle_pairs) = (Duration::ZERO, 0);
            if driver.slices.count() > slices {
                time_setups(spec, phase)?;
            }
        }
        phase.cal.tick();

        if spec.cut_every > 0 && timed_waves.is_multiple_of(spec.cut_every) && cuts < MAX_CUTS {
            // A crash cut at a quiescent point right after a checkpoint:
            // restore from the rendered bytes, check the next wave prices
            // bit-identically, and carry on with the restored service.
            driver.recording = false;
            {
                let mut restored = restore(base, segments, &mut phase.cal)?;
                trace_restore(driver, &restored, args.traced);
                phase.restore_ms.push(restored.scaled_ms);
                let chunk = window(spec, wave, &mut tenants);
                lockstep(driver, service, &mut restored.service, &tenants, chunk)?;
                wave += 1;
                *service = restored.service;
                cuts += 1;
            }
            if cuts == MAX_CUTS {
                segments.clear();
            }
            driver.recording = true;
        }
    }
    driver.recording = false;
    driver.slices.finish(&phase.cal);
    phase.cal.measure(25);
    if spec.cut_every > 0 && cuts < MAX_CUTS {
        return Err(format!("only {cuts} of {MAX_CUTS} crash cuts fit the run"));
    }
    Ok(())
}

/// The per-layer budget of a traced run.  Every time is expressed per
/// completed pair of the traced blocks, so the layers and the residual add
/// up to the traced blocks' time per pair.
fn per_layer(
    driver: &Driver,
    phase: &Phase,
    session: &ReplayStats,
    kernel: &ReplayStats,
    verify_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let tracer = &driver.tracer;
    let t = |layer| tracer.total(layer);
    let pairs = phase.block_pairs[1].max(1) as f64;
    let wall_pp = phase.block_time[1].as_nanos() as f64 / pairs;
    let untraced_pp = phase.block_time[0].as_nanos() as f64 / phase.block_pairs[0].max(1) as f64;
    let per_pair = |total: Total| total.ns as f64 / pairs;
    let replayed = session.quotes.max(1) as f64;
    let kernel_pp = (kernel.quote_ns + kernel.observe_ns) as f64 / replayed;
    let session_pp = (session.quote_ns + session.observe_ns) as f64 / replayed;
    let drain = t(Layer::Drain);
    let drain_pp = per_pair(drain);
    let ingest = t(Layer::Ingest);
    let gen_pp = per_pair(t(Layer::Gen)) + per_pair(t(Layer::Respond));
    let wal_pp = per_pair(t(Layer::Checkpoint)) + per_pair(t(Layer::Render));
    let obs_pp = per_pair(t(Layer::Scrape)) + per_pair(t(Layer::Prom));
    // Without checkpoints the only scrape is the final one, outside the
    // timed blocks.
    let obs_pp = if phase.checkpoints == 0 { 0.0 } else { obs_pp };
    let ingest_pp = per_pair(ingest);
    let layers = [
        kernel_pp,
        session_pp - kernel_pp,
        drain_pp - session_pp,
        ingest_pp,
        wal_pp,
        obs_pp,
        gen_pp,
    ];
    let residual = wall_pp - layers.iter().sum::<f64>();
    let share = |x: f64| if wall_pp > 0.0 { x / wall_pp } else { 0.0 };
    let kpairs = driver.pairs.max(1) as f64 / 1e3;
    let requests = (drain.work).max(1) as f64;
    let [drain_p50, drain_p99] = quantiles(&tracer.drain_us, &[0.5, 0.99])[..] else {
        unreachable!()
    };
    let quotes = kernel.quotes.max(1) as f64;
    let mean = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    vec![
        (
            "kernel.quote_ns",
            mean(kernel.quote_ns as f64, kernel.quotes),
            "ns",
        ),
        (
            "kernel.observe_ns",
            mean(kernel.observe_ns as f64, kernel.observes),
            "ns",
        ),
        (
            "kernel.explore_share",
            kernel.exploratory as f64 / quotes,
            "ratio",
        ),
        (
            "kernel.conservative_share",
            kernel.conservative as f64 / quotes,
            "ratio",
        ),
        (
            "kernel.no_sale_share",
            kernel.no_sale as f64 / quotes,
            "ratio",
        ),
        (
            "kernel.cuts_per_observe",
            kernel.cuts as f64 / kernel.observes.max(1) as f64,
            "ratio",
        ),
        (
            "session.step_ns",
            mean(session.quote_ns as f64, session.quotes),
            "ns",
        ),
        (
            "session.observe_ns",
            mean(session.observe_ns as f64, session.observes),
            "ns",
        ),
        ("ingest.ns_per_req", ingest.ns_per_work(), "ns"),
        ("ingest.shed", phase.shed as f64, "count"),
        ("drain.count", drain.spans as f64, "count"),
        (
            "drain.batch_mean",
            drain.work as f64 / drain.spans.max(1) as f64,
            "count",
        ),
        ("drain.us_p50", drain_p50, "us"),
        ("drain.us_p99", drain_p99, "us"),
        ("drain.ns_per_req", drain.ns as f64 / requests, "ns"),
        (
            "drain.overhead_ns_per_req",
            drain.ns as f64 / requests
                - (session.quote_ns + session.observe_ns) as f64 / (2.0 * replayed),
            "ns",
        ),
        (
            "queue.wait_us_p99",
            quantiles(&tracer.queue_wait_us, &[0.99])[0],
            "us",
        ),
        (
            "paging.evictions_per_kpair",
            phase.evictions as f64 / kpairs,
            "ratio",
        ),
        (
            "paging.rehydrations_per_kpair",
            phase.rehydrations as f64 / kpairs,
            "ratio",
        ),
        ("paging.resident_bytes", phase.resident_bytes, "B"),
        (
            "wal.checkpoint_us",
            t(Layer::Checkpoint).ns as f64 / 1e3 / t(Layer::Checkpoint).spans.max(1) as f64,
            "us",
        ),
        (
            "wal.render_us",
            t(Layer::Render).ns as f64 / 1e3 / t(Layer::Render).spans.max(1) as f64,
            "us",
        ),
        (
            "wal.bytes_per_checkpoint",
            phase.segment_bytes as f64 / phase.checkpoints.max(1) as f64,
            "B",
        ),
        (
            "wal.parse_ms",
            t(Layer::Parse).ns as f64 / 1e6 / t(Layer::Parse).spans.max(1) as f64,
            "ms",
        ),
        (
            "wal.replay_ms",
            t(Layer::Replay).ns as f64 / 1e6 / t(Layer::Replay).spans.max(1) as f64,
            "ms",
        ),
        (
            "obs.scrape_us",
            t(Layer::Scrape).ns as f64 / 1e3 / t(Layer::Scrape).spans.max(1) as f64,
            "us",
        ),
        (
            "obs.render_us",
            t(Layer::Prom).ns as f64 / 1e3 / t(Layer::Prom).spans.max(1) as f64,
            "us",
        ),
        (
            "obs.prom_bytes",
            phase.prom_bytes as f64 / phase.scrapes.max(1) as f64,
            "B",
        ),
        ("driver.gen_ns_per_req", t(Layer::Gen).ns_per_work(), "ns"),
        ("driver.verify_s", verify_s, "s"),
        ("share.kernel", share(layers[0]), "ratio"),
        ("share.session", share(layers[1]), "ratio"),
        ("share.drain", share(layers[2]), "ratio"),
        ("share.ingest", share(layers[3]), "ratio"),
        ("share.wal", share(layers[4]), "ratio"),
        ("share.obs", share(layers[5]), "ratio"),
        ("share.driver", share(layers[6]), "ratio"),
        ("residual_share", share(residual), "ratio"),
        (
            "trace.overhead_share",
            if untraced_pp > 0.0 {
                wall_pp / untraced_pp - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        ("machine.slowdown", phase.cal.slowdown(), "ratio"),
    ]
}
