//! The one closed loop the posted-price service workloads run: `bench
//! serve`, `drift`, `longhaul` and `privacy` each precompute a trace,
//! drive it through the same wave loop, and verify the service with one of
//! two checks.
//!
//! * **Trace** — [`build_trace`] draws each tenant's hidden weights and
//!   queries from its own stream of the cell's seed; the caller names which
//!   tenants send a quote in each wave (serve's arrival mix, longhaul's
//!   sliding window, every tenant for privacy).  Drift builds the same
//!   [`TraceRequest`] waves from its drifting environments.
//! * **Wave loop** — [`Served::wave`] admits one quote per trace request
//!   through [`MarketService::ingest`], drains, answers every quote with
//!   the buyer's accept/reject decision and drains again, timing only the
//!   drains and reusing one response buffer for the whole run.  It records
//!   what the service posted per trace request, in trace order.
//! * **Serial replay** (serve, drift) — [`replay_serially`] replays each
//!   tenant's priced requests through a fresh [`TenantState`], tenant by
//!   tenant, and requires every posted price and each tenant's final
//!   ledger to match the service bit for bit: the sharded engine must price
//!   exactly like the paper's serial loop.
//! * **Crash cut** (longhaul, privacy) — [`crash_cut`] serves the first
//!   half with WAL checkpoints under traffic, rebuilds a second service
//!   from the WAL at the halfway cut, checks the cut ledgers, and replays
//!   the second half on both services, bit for bit.
//!
//! The workloads differ only in data — the service they build, the trace,
//! the checkpoint interval — so nothing here branches on its caller.
//!
//! Paging counters are deliberately *not* compared at the cut: the
//! restored service starts with a fresh LRU, so its eviction choices may
//! differ while its arithmetic cannot.  Each wave records the
//! resident-tenant count, so a caller can bound residency over both
//! services.

use crate::grid::derive_seed;
use crate::report::check_throughput;
use crate::workload::Rep;
use pdm_linalg::{sampling, Json, Vector};
use pdm_pricing::prelude::{ObservedRound, RegretReport, StepOutcome};
use pdm_service::{
    MarketService, OutcomeReport, Payload, QueryRequest, Request, RequestError, Response,
    ServiceConfig, ServiceError, ShardMetrics, TenantConfig, TenantId, TenantState,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Reserve prices are this fraction of the hidden market value, matching
/// the `reserve_fraction` convention of the synthetic environments (a
/// privacy shard then lifts the effective reserve to cover owner
/// compensation).
const RESERVE_FRACTION: f64 = 0.6;

/// One precomputed quote request of the traffic trace.
pub(crate) struct TraceRequest {
    /// The tenant the quote is addressed to.
    pub(crate) tenant: u64,
    /// The query's feature vector.
    pub(crate) features: Vector,
    /// The buyer's market value, which decides the accept bit.
    pub(crate) value: f64,
    /// The query's reserve price.
    pub(crate) reserve: f64,
}

/// Precomputes a trace over tenants `0..tenants` at feature dimension
/// `dim`: wave `w` sends one quote from each tenant `waves` lists for it,
/// in that order, which is the order the wave loop admits them.  Each
/// tenant draws its hidden weights and its queries from its own stream of
/// `seed`, so a tenant's queries do not depend on which waves it joins.
///
/// # Errors
/// A message when a value cannot be computed (a dimension mismatch).
pub(crate) fn build_trace<W>(
    tenants: usize,
    dim: usize,
    seed: u64,
    waves: W,
) -> Result<Vec<Vec<TraceRequest>>, String>
where
    W: IntoIterator,
    W::Item: IntoIterator<Item = usize>,
{
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
    let mut trace = Vec::new();
    for wave in waves {
        let mut requests = Vec::new();
        for id in wave {
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

/// Builds a service from `config` and registers tenants `0..tenants`, all
/// under `tenant`.
///
/// # Errors
/// A message starting with `label` when the config or a registration is
/// rejected.
pub(crate) fn build_service(
    label: &str,
    config: ServiceConfig,
    tenants: usize,
    tenant: TenantConfig,
) -> Result<MarketService, String> {
    let mut service = MarketService::new(config).map_err(|e| format!("{label}: config: {e}"))?;
    for id in 0..tenants as u64 {
        service
            .register_tenant(TenantId(id), tenant)
            .map_err(|e| format!("{label}: register: {e}"))?;
    }
    Ok(service)
}

/// The repetition [`crate::workload::run_cell`] folds: `outcome` plus the
/// service's final metrics and scrape, and the drain time it served in.
pub(crate) fn rep<O>(service: &MarketService, drain_time: Duration, outcome: O) -> Rep<O> {
    Rep {
        outcome,
        metrics: service.aggregate_metrics(),
        drain_time,
        scrape: service.scrape(),
    }
}

/// What the service answered to one trace request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Posted {
    /// The bits of the posted price.
    Price(u64),
    /// A budget-exhausted refusal: every owner the query weights retired.
    Throttled,
    /// Shed at admission by the bounded queue: the tenant has no round
    /// this wave.
    Shed,
}

/// What one service's pass over (part of) a trace recorded.
#[derive(Default)]
pub(crate) struct Served {
    /// What the service answered to each trace request, in trace order.
    pub(crate) posted: Vec<Posted>,
    /// Materialised tenants after each wave.
    resident: Vec<usize>,
    /// Cumulative owners exhausted after each wave.
    exhausted: Vec<u64>,
    /// Time spent inside the service's drains.
    pub(crate) drain_time: Duration,
    /// The one response buffer every drain of the run reuses, so the timed
    /// path never grows a fresh allocation.
    responses: Vec<Response>,
    /// `(ticket seq, index in the wave)` of each admitted quote of the
    /// current wave, in ascending seq order.
    admitted: Vec<(u64, usize)>,
}

impl Served {
    /// Serves one wave against `service`: its quotes, then the outcome of
    /// every served quote.
    ///
    /// # Errors
    /// A message starting with `label` when a request is refused for any
    /// reason but a full queue, or a response is neither a quote nor a
    /// budget-exhausted refusal.
    pub(crate) fn wave(
        &mut self,
        label: &str,
        service: &mut MarketService,
        requests: &[TraceRequest],
        workers: usize,
    ) -> Result<(), String> {
        let first = self.posted.len();
        self.admitted.clear();
        for (index, request) in requests.iter().enumerate() {
            match service.ingest(Request::Quote(QueryRequest {
                tenant: TenantId(request.tenant),
                features: request.features.clone(),
                reserve_price: request.reserve,
            })) {
                Ok(ticket) => self.admitted.push((ticket.seq, index)),
                // Bounded admission under overload: the request is gone and
                // the tenant simply has no round this wave.
                Err(ServiceError::QueueFull { .. }) => {}
                Err(e) => return Err(format!("{label}: submit: {e}")),
            }
            self.posted.push(Posted::Shed);
        }
        self.drain(service, workers);
        for response in &self.responses {
            let slot = self
                .admitted
                .binary_search_by_key(&response.seq, |&(seq, _)| seq)
                .map_err(|_| format!("{label}: response without a request"))?;
            let index = self.admitted[slot].1;
            let quote = match &response.payload {
                Payload::Quoted(quote) => quote,
                Payload::Failed(RequestError::BudgetExhausted) => {
                    self.posted[first + index] = Posted::Throttled;
                    continue;
                }
                other => return Err(format!("{label}: expected a quote response, got {other:?}")),
            };
            self.posted[first + index] = Posted::Price(quote.posted_price.to_bits());
            let value = requests[index].value;
            service
                .ingest(Request::Observe(OutcomeReport {
                    tenant: response.tenant,
                    accepted: quote.posted_price <= value,
                    market_value: Some(value),
                }))
                .map_err(|e| format!("{label}: outcome: {e}"))?;
        }
        self.drain(service, workers);
        self.resident.push(service.resident_tenants());
        self.exhausted
            .push(service.aggregate_metrics().owners_exhausted);
        Ok(())
    }

    /// One timed drain into the reused response buffer.
    fn drain(&mut self, service: &mut MarketService, workers: usize) {
        self.responses.clear();
        let started = Instant::now();
        service.drain_into(workers, &mut self.responses);
        self.drain_time += started.elapsed();
    }
}

/// Serves the whole `trace` against `service`, wave by wave.
///
/// # Errors
/// The first wave's failure (see [`Served::wave`]).
pub(crate) fn serve(
    label: &str,
    service: &mut MarketService,
    trace: &[Vec<TraceRequest>],
    workers: usize,
) -> Result<Served, String> {
    let mut served = Served::default();
    for requests in trace {
        served.wave(label, service, requests, workers)?;
    }
    Ok(served)
}

/// Replays `trace` serially through fresh [`TenantState`]s under `config`,
/// one tenant at a time in tenant order, and verifies `service` against
/// it: each priced request must post the price `posted` recorded, and each
/// tenant's final ledger must equal the service's
/// [`MarketService::tenant_report`].  Shed and refused requests opened no
/// round, so the replay skips them.  `on_round` sees every closed round
/// with its index among the tenant's rounds.
///
/// Tenant order is part of the contract: callers fold per-round figures
/// into sums, and a different order would move their bits.
///
/// # Errors
/// A message starting with `label` and naming the tenant at the first
/// divergence.
pub(crate) fn replay_serially(
    label: &str,
    service: &MarketService,
    trace: &[Vec<TraceRequest>],
    posted: &[Posted],
    tenants: usize,
    config: TenantConfig,
    mut on_round: impl FnMut(usize, &ObservedRound),
) -> Result<Vec<TenantState>, String> {
    let mut rounds: Vec<Vec<(&TraceRequest, u64)>> = (0..tenants).map(|_| Vec::new()).collect();
    for (request, posted) in trace.iter().flatten().zip(posted) {
        if let Posted::Price(bits) = *posted {
            rounds[request.tenant as usize].push((request, bits));
        }
    }
    let mut states = Vec::with_capacity(tenants);
    for (id, rounds) in rounds.into_iter().enumerate() {
        let tenant = TenantId(id as u64);
        let mut state = TenantState::new(tenant, config);
        for (index, (request, bits)) in rounds.into_iter().enumerate() {
            let quote = state.session.step(&request.features, request.reserve);
            if quote.posted_price.to_bits() != bits {
                return Err(format!(
                    "{label}: tenant {id}: serial replay posted {} but the service posted {} \
                     — sharded and serial pricing diverged",
                    quote.posted_price,
                    f64::from_bits(bits),
                ));
            }
            let accepted = quote.posted_price <= request.value;
            let round = state
                .session
                .observe(StepOutcome::with_value(accepted, request.value))
                .ok_or_else(|| format!("{label}: tenant {id}: the replay lost an open round"))?;
            on_round(index, &round);
        }
        let serial = state.session.tracker().report();
        let served = service
            .tenant_report(tenant)
            .ok_or_else(|| format!("{label}: tenant {id} lost its report"))?;
        let ledger =
            |r: &RegretReport| (r.cumulative_revenue, r.cumulative_regret, r.sales, r.rounds);
        let bits = |(revenue, regret, sales, rounds): (f64, f64, usize, usize)| {
            (revenue.to_bits(), regret.to_bits(), sales, rounds)
        };
        if bits(ledger(&serial)) != bits(ledger(&served)) {
            return Err(format!(
                "{label}: tenant {id}: serial ledger {:?} disagrees with the service ledger {:?} \
                 (revenue, regret, sales, rounds)",
                ledger(&serial),
                ledger(&served),
            ));
        }
        states.push(state);
    }
    Ok(states)
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
        rep(&self.service, self.drain_time, outcome)
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
/// over `trace` and verifies the restored service against it.  One run:
///
/// 1. takes the base snapshot of the freshly built service;
/// 2. serves the first half, checkpointing every `checkpoint_every` waves
///    while the service keeps serving, plus one checkpoint at the cut;
/// 3. rebuilds a second service with a timed
///    [`MarketService::restore_with_wal`] from the base plus the segments;
/// 4. checks that the two agree at the cut on every ledger the WAL
///    carries: quotes, observations, sales, revenue and regret, ε spent and
///    compensation, owners exhausted and privacy throttles;
/// 5. replays the identical second half on both services and compares
///    every posted price and budget-exhausted refusal, and the per-wave
///    owners-exhausted trajectory.
///
/// # Errors
/// A message starting with `label` when a request fails or is shed, a
/// response is neither a quote nor a budget-exhausted refusal, or the
/// restored service diverges from the original.
pub(crate) fn crash_cut(
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
    served: Served,
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
    let mut served = Served::default();
    for (wave, requests) in trace[..trace.len() / 2].iter().enumerate() {
        served.wave(label, &mut service, requests, workers)?;
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
        served,
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
        mut served,
        ..
    } = at_cut;
    let metrics = original.aggregate_metrics();
    check_cut(label, &metrics, &restored.aggregate_metrics())?;

    let cut = trace.len() / 2;
    let cut_requests = served.posted.len();
    let mut twin = Served::default();
    for requests in &trace[cut..] {
        served.wave(label, &mut original, requests, workers)?;
        twin.wave(label, &mut restored, requests, workers)?;
    }
    // The cut compares two services that both served the whole trace; a
    // shed request would leave a tenant a round behind in both.
    if served.posted.contains(&Posted::Shed) {
        return Err(format!(
            "{label}: the service shed a request — the crash cut needs every request served"
        ));
    }
    if served.posted[cut_requests..] != twin.posted[..] {
        return Err(format!(
            "{label}: the restored service diverged from the original over the post-cut trace \
             — WAL restore is not bit-identical"
        ));
    }
    if served.exhausted[cut..] != twin.exhausted[..] {
        return Err(format!(
            "{label}: the restored service's exhaustion trajectory diverged from the original"
        ));
    }
    let max_resident = served.resident.iter().chain(&twin.resident).max();
    Ok(CutRun {
        max_resident: max_resident.copied().unwrap_or(0),
        drain_time: served.drain_time,
        trajectory: served.exhausted,
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_service::AuctionPolicy;

    fn service(tenant: TenantConfig, tenants: usize) -> MarketService {
        let config = ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            wal_segment_size: Some(2),
            ..ServiceConfig::default()
        };
        build_service("test", config, tenants, tenant).unwrap()
    }

    /// Every tenant in every one of `waves` waves, in tenant order.
    fn every_tenant(tenants: usize, waves: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        (0..waves).map(move |_| 0..tenants)
    }

    #[test]
    fn trace_windows_slide_by_the_stride() {
        let tenants = |trace: &[Vec<TraceRequest>], wave: usize| -> Vec<u64> {
            trace[wave].iter().map(|r| r.tenant).collect()
        };
        let fixed = build_trace(4, 3, 7, every_tenant(4, 3)).unwrap();
        assert_eq!(tenants(&fixed, 2), [0, 1, 2, 3]);
        let window = |wave: usize| (0..2).map(move |offset| (wave * 3 + offset) % 5);
        let sliding = build_trace(5, 3, 7, (0..3).map(window)).unwrap();
        assert_eq!(tenants(&sliding, 0), [0, 1]);
        assert_eq!(tenants(&sliding, 1), [3, 4]);
        assert_eq!(tenants(&sliding, 2), [1, 2]);
    }

    #[test]
    fn a_clean_cut_restores_bit_identically() {
        let trace = build_trace(6, 3, 7, every_tenant(6, 12)).unwrap();
        let run = crash_cut(
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
    fn a_crash_cut_whose_queue_sheds_fails() {
        // Two tenants on one shard with room for one queued request: the
        // second quote of every wave is shed.
        let config = ServiceConfig {
            shards: 1,
            queue_capacity: 1,
            wal_segment_size: Some(2),
            ..ServiceConfig::default()
        };
        let service = build_service("shed", config, 2, TenantConfig::standard(3, 8)).unwrap();
        let trace = build_trace(2, 3, 7, every_tenant(2, 8)).unwrap();
        let err = crash_cut("shed", service, &trace, 2, 1)
            .err()
            .expect("a shed request must fail the crash cut");
        assert!(err.starts_with("shed: the service shed a request"), "{err}");
    }

    #[test]
    fn a_serial_replay_catches_one_flipped_posted_price_bit() {
        let config = TenantConfig::standard(3, 8);
        let mut service = service(config, 3);
        let trace = build_trace(3, 3, 7, every_tenant(3, 8)).unwrap();
        let mut served = serve("flip", &mut service, &trace, 1).unwrap();
        let replay = |posted: &[Posted]| {
            replay_serially("flip", &service, &trace, posted, 3, config, |_, _| {})
        };
        replay(&served.posted).unwrap();
        // Request 3 · 5 + 1 is tenant 1's sixth round.
        let Posted::Price(bits) = served.posted[16] else {
            panic!("a standard tenant always quotes");
        };
        served.posted[16] = Posted::Price(bits ^ 1);
        let err = replay(&served.posted).expect_err("a flipped bit must fail");
        assert!(
            err.starts_with("flip: tenant 1: serial replay posted"),
            "{err}"
        );
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
        let trace = build_trace(1, 3, 7, every_tenant(1, 4)).unwrap();
        let auction = TenantConfig::auction(3, 4, AuctionPolicy::Session);
        let err = crash_cut("auction", service(auction, 1), &trace, 2, 1)
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
        let trace = build_trace(6, 3, 7, every_tenant(6, 12)).unwrap();
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
