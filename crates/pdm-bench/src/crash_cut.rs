//! The crash-cut harness `bench longhaul` and `bench privacy` share: serve
//! a precomputed trace with WAL checkpoints under traffic, crash at the
//! halfway cut, rebuild from the WAL and replay the second half on both
//! services, bit for bit.
//!
//! The two workloads differ only in data — the service they build, the
//! trace's window and stride, the checkpoint interval — so [`run`] takes
//! that data as arguments and never branches on its caller.  One run:
//!
//! 1. takes the base snapshot of the freshly built service;
//! 2. serves the first half, checkpointing every `checkpoint_every` waves
//!    while the service keeps serving, plus one checkpoint at the cut;
//! 3. rebuilds a second service with a timed
//!    [`MarketService::restore_with_wal`] from the base plus the segments;
//! 4. checks that the two agree at the cut on every ledger the WAL
//!    carries: quotes, observations, sales, revenue and regret, ε spent and
//!    compensation, owners exhausted and privacy throttles;
//! 5. replays the identical second half on both services and compares
//!    every posted price (a budget-exhausted refusal records
//!    [`THROTTLED`]) and the per-wave owners-exhausted trajectory.
//!
//! Paging counters are deliberately *not* compared: the restored service
//! starts with a fresh LRU, so its eviction choices may differ while its
//! arithmetic cannot.  Each wave records the resident-tenant count, so a
//! caller can bound residency over both services.

use crate::grid::derive_seed;
use crate::report::check_throughput;
use crate::workload::Rep;
use pdm_linalg::{sampling, Json, Vector};
use pdm_service::{
    MarketService, OutcomeReport, Payload, QueryRequest, RequestError, ShardMetrics, TenantId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Reserve prices are this fraction of the hidden market value, matching
/// the serve workload's convention (a privacy shard then lifts the
/// effective reserve to cover owner compensation).
const RESERVE_FRACTION: f64 = 0.6;

/// The bits a budget-exhausted refusal records in place of a posted price.
const THROTTLED: u64 = u64::MAX;

/// One precomputed request of the traffic trace.
pub(crate) struct TraceRequest {
    tenant: u64,
    features: Vector,
    value: f64,
    reserve: f64,
}

/// Precomputes a trace of `waves` waves over tenants `0..tenants` at
/// feature dimension `dim`.  Wave `w` serves the `window` tenants starting
/// at `(w · stride) mod tenants`, wrapping around; each tenant draws its
/// hidden weights and its queries from its own stream of `seed`, so the
/// identical requests replay against the original service and the
/// restored one.
///
/// # Errors
/// A message when a value cannot be computed (a dimension mismatch).
pub(crate) fn build_trace(
    tenants: usize,
    dim: usize,
    waves: usize,
    window: usize,
    stride: usize,
    seed: u64,
) -> Result<Vec<Vec<TraceRequest>>, String> {
    let mut streams: Vec<StdRng> = Vec::with_capacity(tenants);
    let mut thetas: Vec<Vector> = Vec::with_capacity(tenants);
    for id in 0..tenants as u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, id.wrapping_add(1)));
        thetas.push(
            sampling::unit_sphere(&mut rng, dim)
                .map(f64::abs)
                .normalized(),
        );
        streams.push(rng);
    }
    let mut trace = Vec::with_capacity(waves);
    for wave in 0..waves {
        let start = (wave * stride) % tenants;
        let mut requests = Vec::with_capacity(window);
        for offset in 0..window {
            let id = (start + offset) % tenants;
            let features = sampling::standard_normal_vector(&mut streams[id], dim)
                .map(f64::abs)
                .normalized();
            let value = thetas[id].dot(&features).map_err(|e| format!("dot: {e}"))?;
            requests.push(TraceRequest {
                tenant: id as u64,
                features,
                value,
                reserve: RESERVE_FRACTION * value,
            });
        }
        trace.push(requests);
    }
    Ok(trace)
}

/// What one crash-cut run measured.
pub(crate) struct CutRun {
    /// The original service after the whole trace.
    pub(crate) service: MarketService,
    /// Time spent inside the original service's drains.
    pub(crate) drain_time: Duration,
    /// Time of the one [`MarketService::restore_with_wal`] rebuild.
    pub(crate) restore_latency: Duration,
    /// The original service's metrics at the cut.
    pub(crate) at_cut: ShardMetrics,
    /// The original service's cumulative owners exhausted after each wave.
    pub(crate) trajectory: Vec<u64>,
    /// The most tenants resident after any wave, over both services.
    pub(crate) max_resident: usize,
}

impl CutRun {
    /// The repetition [`crate::workload::run_cell`] folds, around
    /// `outcome`.  Its metrics and scrape are the original service's: the
    /// restored twin replays the same second half, so folding both would
    /// double-count the post-cut traffic.
    #[must_use]
    pub(crate) fn rep<O>(&self, outcome: O) -> Rep<O> {
        Rep {
            outcome,
            metrics: self.service.aggregate_metrics(),
            drain_time: self.drain_time,
            scrape: self.service.scrape(),
        }
    }
}

/// The `--check` gates every crash-cut workload shares: a cell that served
/// quotes (`served`, at `rate` per second) did so at a positive rate, its
/// WAL wrote segments, and each wall-clock `figure` is finite and
/// non-negative, so the CI columns mean something.
pub(crate) fn validate(
    violations: &mut Vec<String>,
    place: &str,
    served: u64,
    rate: f64,
    wal_segments: u64,
    figures: &[(&str, f64)],
) {
    if served == 0 {
        violations.push(format!("{place}: served no quotes at all"));
    }
    check_throughput(violations, place, "quotes/sec", served, rate);
    // A run that wrote no WAL segments never exercised the checkpoint path
    // it exists to verify.
    if wal_segments == 0 {
        violations.push(format!("{place}: wrote no WAL segments at all"));
    }
    for &(what, v) in figures {
        if !v.is_finite() || v < 0.0 {
            violations.push(format!("{place}: {what} is not a sane figure ({v})"));
        }
    }
}

/// Runs the crash cut on `service` (freshly built, nothing served yet)
/// over `trace` and verifies the restored service against it.
///
/// # Errors
/// A message starting with `label` when a request fails, a response is
/// neither a quote nor a budget-exhausted refusal, or the restored service
/// diverges from the original.
pub(crate) fn run(
    label: &str,
    service: MarketService,
    trace: &[Vec<TraceRequest>],
    checkpoint_every: usize,
    workers: usize,
) -> Result<CutRun, String> {
    let at_cut = first_half(label, service, trace, checkpoint_every, workers)?;
    let started = Instant::now();
    let restored = MarketService::restore_with_wal(&at_cut.base, &at_cut.stream)
        .map_err(|e| format!("{label}: restore: {e}"))?;
    let restore_latency = started.elapsed();
    second_half(label, at_cut, restored, restore_latency, trace, workers)
}

/// The original service quiescent at the cut, with what a restore needs.
struct AtCut {
    service: MarketService,
    base: Json,
    stream: Vec<Json>,
    replay: Replay,
}

/// Serves the first half of `trace` with checkpoints under traffic.
fn first_half(
    label: &str,
    mut service: MarketService,
    trace: &[Vec<TraceRequest>],
    checkpoint_every: usize,
    workers: usize,
) -> Result<AtCut, String> {
    let base = service
        .snapshot()
        .map_err(|e| format!("{label}: base snapshot: {e}"))?;
    let mut stream = Vec::new();
    let mut replay = Replay::default();
    for (wave, requests) in trace[..trace.len() / 2].iter().enumerate() {
        replay.wave(label, &mut service, requests, workers)?;
        // Snapshot-under-traffic: the checkpoint interleaves with the load
        // instead of waiting for the run to end.
        if (wave + 1) % checkpoint_every == 0 {
            stream.extend(
                service
                    .checkpoint()
                    .map_err(|e| format!("{label}: checkpoint: {e}"))?,
            );
        }
    }
    // The cut checkpoint: the service is quiescent here, so base + stream is
    // a consistent point to rebuild from.
    stream.extend(
        service
            .checkpoint()
            .map_err(|e| format!("{label}: cut checkpoint: {e}"))?,
    );
    Ok(AtCut {
        service,
        base,
        stream,
        replay,
    })
}

/// Compares `restored` with the original at the cut, then replays the
/// second half of `trace` on both and compares what they posted.
fn second_half(
    label: &str,
    at_cut: AtCut,
    mut restored: MarketService,
    restore_latency: Duration,
    trace: &[Vec<TraceRequest>],
    workers: usize,
) -> Result<CutRun, String> {
    let AtCut {
        service: mut original,
        mut replay,
        ..
    } = at_cut;
    let metrics = original.aggregate_metrics();
    check_cut(label, &metrics, &restored.aggregate_metrics())?;

    let cut = trace.len() / 2;
    replay.bits.clear();
    let mut twin = Replay::default();
    for requests in &trace[cut..] {
        replay.wave(label, &mut original, requests, workers)?;
        twin.wave(label, &mut restored, requests, workers)?;
    }
    if replay.bits != twin.bits {
        return Err(format!(
            "{label}: the restored service diverged from the original over the post-cut trace \
             — WAL restore is not bit-identical"
        ));
    }
    if replay.exhausted[cut..] != twin.exhausted[..] {
        return Err(format!(
            "{label}: the restored service's exhaustion trajectory diverged from the original"
        ));
    }
    let max_resident = replay.resident.iter().chain(&twin.resident).max();
    Ok(CutRun {
        max_resident: max_resident.copied().unwrap_or(0),
        drain_time: replay.drain_time,
        trajectory: replay.exhausted,
        restore_latency,
        at_cut: metrics,
        service: original,
    })
}

/// The restored service must agree with the original at the cut on every
/// ledger field, bit for bit: the WAL promises to carry the whole ledger.
fn check_cut(label: &str, original: &ShardMetrics, restored: &ShardMetrics) -> Result<(), String> {
    let fields = original.fields().into_iter().zip(restored.fields());
    for ((field, want), (_, got)) in fields {
        if want.to_bits() != got.to_bits() {
            let (got, want) = (got.as_f64(), want.as_f64());
            return Err(format!(
                "{label}: the WAL restore lost {field} at the cut ({got} restored vs {want})"
            ));
        }
    }
    Ok(())
}

/// What one service's replay of the trace recorded.
#[derive(Default)]
struct Replay {
    /// `(tenant, posted-price bits)` per quote response, in response order.
    bits: Vec<(u64, u64)>,
    /// Materialised tenants after each wave.
    resident: Vec<usize>,
    /// Cumulative owners exhausted after each wave.
    exhausted: Vec<u64>,
    /// Time spent inside the service's drains.
    drain_time: Duration,
}

impl Replay {
    /// Replays one wave against `service`: its quotes, then the outcome of
    /// every served quote.
    fn wave(
        &mut self,
        label: &str,
        service: &mut MarketService,
        requests: &[TraceRequest],
        workers: usize,
    ) -> Result<(), String> {
        for request in requests {
            service
                .submit_quote(QueryRequest {
                    tenant: TenantId(request.tenant),
                    features: request.features.clone(),
                    reserve_price: request.reserve,
                })
                .map_err(|e| format!("{label}: submit: {e}"))?;
        }
        let mut responses = Vec::new();
        let started = Instant::now();
        service.drain_into(workers, &mut responses);
        self.drain_time += started.elapsed();
        for response in &responses {
            let tenant = response.tenant;
            let quote = match &response.payload {
                Payload::Quoted(quote) => quote,
                Payload::Failed(RequestError::BudgetExhausted) => {
                    self.bits.push((tenant.0, THROTTLED));
                    continue;
                }
                other => return Err(format!("{label}: expected a quote response, got {other:?}")),
            };
            let request = requests
                .iter()
                .find(|r| r.tenant == tenant.0)
                .ok_or_else(|| format!("{label}: response without a request"))?;
            self.bits.push((tenant.0, quote.posted_price.to_bits()));
            service
                .submit_outcome(OutcomeReport {
                    tenant,
                    accepted: quote.posted_price <= request.value,
                    market_value: Some(request.value),
                })
                .map_err(|e| format!("{label}: outcome: {e}"))?;
        }
        responses.clear();
        let started = Instant::now();
        service.drain_into(workers, &mut responses);
        self.drain_time += started.elapsed();
        self.resident.push(service.resident_tenants());
        self.exhausted
            .push(service.aggregate_metrics().owners_exhausted);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_service::{AuctionPolicy, ServiceConfig, TenantConfig};

    fn service(config: TenantConfig, tenants: u64) -> MarketService {
        let mut service = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            wal_segment_size: Some(2),
            ..ServiceConfig::default()
        })
        .unwrap();
        for id in 0..tenants {
            service.register_tenant(TenantId(id), config).unwrap();
        }
        service
    }

    #[test]
    fn trace_windows_slide_by_the_stride() {
        let tenants = |trace: &[Vec<TraceRequest>], wave: usize| -> Vec<u64> {
            trace[wave].iter().map(|r| r.tenant).collect()
        };
        let fixed = build_trace(4, 3, 3, 4, 0, 7).unwrap();
        assert_eq!(tenants(&fixed, 2), [0, 1, 2, 3]);
        let sliding = build_trace(5, 3, 3, 2, 3, 7).unwrap();
        assert_eq!(tenants(&sliding, 0), [0, 1]);
        assert_eq!(tenants(&sliding, 1), [3, 4]);
        assert_eq!(tenants(&sliding, 2), [1, 2]);
    }

    #[test]
    fn a_clean_cut_restores_bit_identically() {
        let trace = build_trace(6, 3, 12, 6, 0, 7).unwrap();
        let run = run(
            "clean",
            service(TenantConfig::standard(3, 12), 6),
            &trace,
            3,
            1,
        )
        .unwrap();
        assert_eq!(run.trajectory.len(), 12);
        assert_eq!(run.at_cut.quotes_served, 36);
        assert_eq!(run.service.aggregate_metrics().quotes_served, 72);
        assert_eq!(run.max_resident, 6);
    }

    #[test]
    fn the_cut_check_names_the_ledger_that_differs() {
        let original = ShardMetrics::new();
        let mut restored = ShardMetrics::new();
        restored.regret = 1.0;
        let err = check_cut("cut", &original, &restored).unwrap_err();
        assert_eq!(
            err,
            "cut: the WAL restore lost regret at the cut (1 restored vs 0)"
        );

        let mut restored = ShardMetrics::new();
        restored.evictions = 3;
        let err = check_cut("cut", &original, &restored).unwrap_err();
        assert_eq!(
            err,
            "cut: the WAL restore lost evictions at the cut (3 restored vs 0)"
        );

        let mut restored = ShardMetrics::new();
        restored.auction.welfare = 2.5;
        let err = check_cut("cut", &original, &restored).unwrap_err();
        assert_eq!(
            err,
            "cut: the WAL restore lost auction.welfare at the cut (2.5 restored vs 0)"
        );
        assert_eq!(check_cut("cut", &original, &original), Ok(()));
    }

    #[test]
    fn a_request_that_is_not_a_quote_is_an_error() {
        let trace = build_trace(1, 3, 4, 1, 0, 7).unwrap();
        let auction = TenantConfig::auction(3, 4, AuctionPolicy::Session);
        let err = run("auction", service(auction, 1), &trace, 2, 1)
            .err()
            .expect("an auction tenant cannot quote");
        assert!(
            err.starts_with("auction: expected a quote response"),
            "{err}"
        );
        assert!(err.contains("MarketMismatch"), "{err}");
    }

    #[test]
    fn a_restore_missing_its_last_segment_is_caught() {
        // A checkpoint after wave 4, then the cut checkpoint after wave 6:
        // all six tenants are dirty again, two per segment, so dropping the
        // last segment rolls tenants 4 and 5 back to wave 4.  Every segment
        // carries the full metric ledgers, so only the replay can notice.
        let trace = build_trace(6, 3, 12, 6, 0, 7).unwrap();
        let service = service(TenantConfig::standard(3, 12), 6);
        let mut at_cut = first_half("torn", service, &trace, 4, 1).unwrap();
        assert_eq!(at_cut.stream.len(), 6);
        at_cut.stream.pop();
        let restored = MarketService::restore_with_wal(&at_cut.base, &at_cut.stream).unwrap();
        let err = second_half("torn", at_cut, restored, Duration::ZERO, &trace, 1)
            .err()
            .expect("a dropped segment must not restore bit-identically");
        assert!(
            err.starts_with("torn: the restored service diverged from the original"),
            "{err}"
        );
    }
}
