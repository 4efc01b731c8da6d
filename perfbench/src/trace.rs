//! Measurement plumbing: percentiles, the half-second slices of the timed
//! phase, the span tracer of the traced run, the machine-speed
//! calibration, and the process's peak resident set.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linearly interpolated quantiles of `values` (0 when empty).
pub fn quantiles(values: &[f64], qs: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    qs.iter().map(|&q| quantile_sorted(&sorted, q)).collect()
}

/// Length of one measurement slice of the timed phase.
const SLICE: Duration = Duration::from_millis(500);

/// The timed phase cut into half-second slices.  Each slice yields its own
/// throughput (the median over its cycles, so a cycle the host stalled does
/// not count) and latency percentiles; a run reports the median over its
/// slices, so a burst of interference on the shared machine moves a few
/// slices and not the result.  Each slice's times are scaled by the
/// calibration blocks timed inside that slice.
#[derive(Debug)]
pub struct Slices {
    /// Quote latencies and generator lags of the open slice.
    pub latency_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    time: Duration,
    /// Pairs per second of each cycle of the open slice.
    cycles: Vec<f64>,
    cal_from: usize,
    rate: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    lag90: Vec<f64>,
    /// Pairs per second and quote p50 of each slice, unscaled.
    raw: [Vec<f64>; 2],
    /// Latency samples over all closed slices.
    pub samples: usize,
}

impl Slices {
    pub fn new() -> Self {
        Self {
            latency_us: Vec::with_capacity(1 << 17),
            lag_us: Vec::with_capacity(1 << 17),
            time: Duration::ZERO,
            cycles: Vec::new(),
            cal_from: 0,
            rate: Vec::new(),
            p50: Vec::new(),
            p90: Vec::new(),
            lag90: Vec::new(),
            raw: [Vec::new(), Vec::new()],
            samples: 0,
        }
    }

    /// Adds one cycle's measured time and completed pairs to the open
    /// slice, closing it once it spans a whole slice.
    pub fn add(&mut self, time: Duration, pairs: u64, cal: &Calibration) {
        self.time += time;
        self.cycles.push(pairs as f64 / time.as_secs_f64());
        if self.time >= SLICE {
            self.close(cal);
        }
    }

    fn close(&mut self, cal: &Calibration) {
        let slowdown = cal.slowdown_since(self.cal_from);
        self.cal_from = cal.len();
        let quantiles = |values: &mut Vec<f64>, qs: &[f64]| -> Vec<f64> {
            values.sort_by(f64::total_cmp);
            qs.iter()
                .map(|&q| quantile_sorted(values, q) / slowdown)
                .collect()
        };
        let latency = quantiles(&mut self.latency_us, &[0.5, 0.9]);
        let lag = quantiles(&mut self.lag_us, &[0.9]);
        let rate = median(&self.cycles);
        self.rate.push(rate * slowdown);
        self.p50.push(latency[0]);
        self.p90.push(latency[1]);
        self.lag90.push(lag[0]);
        self.raw[0].push(rate);
        self.raw[1].push(latency[0] * slowdown);
        self.samples += self.latency_us.len();
        self.latency_us.clear();
        self.lag_us.clear();
        self.time = Duration::ZERO;
        self.cycles.clear();
    }

    /// Closes the last slice when it is at least half full; a shorter tail
    /// is dropped.
    pub fn finish(&mut self, cal: &Calibration) {
        if self.time >= SLICE / 2 {
            self.close(cal);
        }
    }

    pub fn count(&self) -> usize {
        self.rate.len()
    }

    /// Medians over the slices: pairs per second, quote p50 and p90, and
    /// generator-lag p90.
    pub fn medians(&self) -> [f64; 4] {
        [
            median(&self.rate),
            median(&self.p50),
            median(&self.p90),
            median(&self.lag90),
        ]
    }

    /// Medians over the slices of the unscaled pairs per second and quote
    /// p50, for comparison with the calibrated ones.
    pub fn raw_medians(&self) -> [f64; 2] {
        [median(&self.raw[0]), median(&self.raw[1])]
    }
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantiles(values, &[0.5])[0]
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The layers a span can belong to.  Each is one boundary the benchmark
/// crosses with a call into the library (or its own work, for `Gen` and
/// `Respond`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Gen,
    Ingest,
    Drain,
    Respond,
    Checkpoint,
    Render,
    Scrape,
    Prom,
    Parse,
    Replay,
    SessionStep,
    SessionObserve,
    KernelQuote,
    KernelObserve,
}

impl Layer {
    pub const ALL: [Layer; 14] = [
        Layer::Gen,
        Layer::Ingest,
        Layer::Drain,
        Layer::Respond,
        Layer::Checkpoint,
        Layer::Render,
        Layer::Scrape,
        Layer::Prom,
        Layer::Parse,
        Layer::Replay,
        Layer::SessionStep,
        Layer::SessionObserve,
        Layer::KernelQuote,
        Layer::KernelObserve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "driver.gen",
            Layer::Ingest => "ingest",
            Layer::Drain => "drain",
            Layer::Respond => "driver.respond",
            Layer::Checkpoint => "wal.checkpoint",
            Layer::Render => "wal.render",
            Layer::Scrape => "obs.scrape",
            Layer::Prom => "obs.render",
            Layer::Parse => "wal.parse",
            Layer::Replay => "wal.replay",
            Layer::SessionStep => "session.step",
            Layer::SessionObserve => "session.observe",
            Layer::KernelQuote => "kernel.quote",
            Layer::KernelObserve => "kernel.observe",
        }
    }
}

/// One recorded span: `group` ties together the spans of one wave, `work`
/// counts the requests (or calls, or bytes) inside.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    group: u64,
    start_ns: u64,
    dur_ns: u64,
    work: u64,
}

/// Per-layer totals of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub spans: u64,
    pub ns: u64,
    pub work: u64,
}

impl Total {
    pub fn ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.ns as f64 / self.work as f64
        }
    }
}

/// Maximum spans kept for the trace file; totals keep counting beyond it.
const SPAN_CAP: usize = 1 << 20;

/// The span recorder of the traced run.  With `on == false` every call is a
/// no-op that reads no clock, so the untraced run pays nothing.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    totals: [Total; Layer::ALL.len()],
    /// Duration of each `Drain` span, for the drain percentiles.
    pub drain_us: Vec<f64>,
    /// Time each request waited between its ingest and the start of the
    /// drain that served it.
    pub queue_wait_us: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: [Total::default(); Layer::ALL.len()],
            drain_us: Vec::new(),
            queue_wait_us: Vec::new(),
        }
    }

    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened by [`Tracer::start`]; a no-op when it was not
    /// opened.
    pub fn end(&mut self, layer: Layer, group: u64, started: Option<Instant>, work: u64) {
        if let Some(started) = started {
            self.add(layer, group, started, started.elapsed(), work);
        }
    }

    /// Records a span whose duration was measured by the caller.
    pub fn add(&mut self, layer: Layer, group: u64, started: Instant, dur: Duration, work: u64) {
        let dur_ns = dur.as_nanos() as u64;
        let total = &mut self.totals[layer as usize];
        total.spans += 1;
        total.ns += dur_ns;
        total.work += work;
        if layer == Layer::Drain {
            self.drain_us.push(dur_ns as f64 / 1e3);
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                group,
                start_ns: started.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
                work,
            });
        }
    }

    pub fn total(&self, layer: Layer) -> Total {
        self.totals[layer as usize]
    }

    /// Writes every kept span as tab-separated text: layer, group, start
    /// (ns since the run began), duration (ns), work.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 40 + 64);
        text.push_str("layer\tgroup\tstart_ns\tdur_ns\twork\n");
        for span in &self.spans {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}",
                span.layer.name(),
                span.group,
                span.start_ns,
                span.dur_ns,
                span.work
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Calibration time of one block on the reference machine (a 2-vCPU Xeon VM
/// at 2.1 GHz in its fast state), in µs.
const CALIBRATION_REF_US: f64 = 90.0;
/// How often the closed loops interleave a calibration block.
const CALIBRATION_EVERY: Duration = Duration::from_millis(20);

/// Machine-speed calibration.  On a shared machine the same code runs up to
/// a third slower for seconds to minutes at a time.  The benchmark times a
/// fixed block of its own arithmetic — shaped like the pricing kernel, and
/// calling no program code — before, during and after the timed phase, and
/// scales every reported time by a power of the block's median time against
/// [`CALIBRATION_REF_US`].  The block runs from L1 and L2, and the
/// workloads' memory- and allocation-bound paths suffer more from a busy
/// host, so the power is each workload's measured sensitivity (see
/// `Spec::host_sensitivity`).  Each timed block runs right after an untimed
/// one on its own small scratch, so a program change cannot move it and a
/// regression still shows in full; a slow machine shows in part.
#[derive(Debug)]
pub struct Calibration {
    power: f64,
    scratch: Vec<f64>,
    samples: Vec<f64>,
    last: Instant,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Calibration {
    /// A calibration whose slowdown is the block's raised to `power`.
    pub fn new(power: f64) -> Self {
        const N: usize = 96;
        Self {
            power,
            scratch: (0..N * N + 2 * N)
                .map(|i| 1.0 + (i % 7) as f64 * 1e-3)
                .collect(),
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Times `blocks` calibration blocks, each right after an untimed one,
    /// so a sample measures the core's speed and not how much of the
    /// scratch the program's own work just evicted from the caches.
    pub fn measure(&mut self, blocks: usize) {
        for _ in 0..blocks {
            self.block();
            let started = Instant::now();
            self.block();
            self.samples.push(micros(started.elapsed()));
        }
        self.last = Instant::now();
    }

    /// The slowdown measured by a few blocks timed now, for a single-shot
    /// operation timed next to them.
    pub fn local_slowdown(&mut self) -> f64 {
        let from = self.samples.len();
        self.measure(5);
        self.slowdown_since(from)
    }

    /// One block when [`CALIBRATION_EVERY`] has passed since the last.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CALIBRATION_EVERY {
            self.measure(1);
        }
    }

    /// A 96×96 matrix-vector product and symmetric rank-one update, eight
    /// times over.
    fn block(&mut self) {
        const N: usize = 96;
        let (m, rest) = self.scratch.split_at_mut(N * N);
        let (x, y) = rest.split_at_mut(N);
        for _ in 0..8 {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = m[i * N..(i + 1) * N]
                    .iter()
                    .zip(x.iter())
                    .map(|(a, b)| a * b)
                    .sum();
            }
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
            for (i, row) in m.chunks_exact_mut(N).enumerate() {
                for (a, yj) in row.iter_mut().zip(y.iter()) {
                    *a = 0.999 * *a - 1e-6 * y[i] * yj / norm;
                }
            }
            for (xi, yi) in x.iter_mut().zip(y.iter()) {
                *xi = 0.5 * *xi + 1e-3 * yi / norm;
            }
        }
        std::hint::black_box(&self.scratch);
    }

    pub fn median_us(&self) -> f64 {
        median(&self.samples)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The slowdown over the blocks timed since sample `from`, or over the
    /// whole run when there are none.
    pub fn slowdown_since(&self, from: usize) -> f64 {
        match self.samples.get(from..) {
            Some(recent) if !recent.is_empty() => {
                (median(recent) / CALIBRATION_REF_US).powf(self.power)
            }
            _ => self.slowdown(),
        }
    }

    /// How much slower than the reference the program is taken to run
    /// (> 1 = slower): the factor every reported time is divided by.
    pub fn slowdown(&self) -> f64 {
        (self.median_us() / CALIBRATION_REF_US).powf(self.power)
    }
}
