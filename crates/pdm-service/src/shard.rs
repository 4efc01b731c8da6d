//! One shard: a bounded request queue plus the tenant states routed to it.
//!
//! A shard is the unit of concurrency.  All state behind it — the tenant
//! sessions, the queue, the metrics — is owned by the shard and mutated by
//! exactly one worker at a time, so there is no global lock and no
//! fine-grained locking inside the hot path.  Requests are processed
//! strictly in submission (FIFO) order, which is what makes the whole
//! engine's arithmetic independent of how many workers drain it.
//!
//! With a resident cap the shard also runs the cold-tenant pager: after a
//! drain, least-recently-served quiescent tenants beyond the cap are
//! paged out and dropped from the resident map; the next request
//! addressed to a paged-out tenant rehydrates it from its page.  A page is
//! the binary image ([`pdm_linalg::Json::encode`]) of the same
//! deterministic document the snapshot writer emits, and it decodes to
//! exactly the tree that document's JSON text parses to.  Restoring that
//! tree is bit-identical by the snapshot contract, so paging never changes
//! a price, a ledger, or a counter, only *when* memory is spent.  Pages
//! never leave the process: snapshots and WAL segments stay JSON text.
//! The shard additionally tracks which tenants changed since the last
//! checkpoint (the dirty set), which is what makes WAL snapshots
//! incremental.

use crate::api::{AuctionRequest, Payload, Request, RequestError, Response};
#[cfg(test)]
use crate::api::{OutcomeReport, QueryRequest};
use crate::ledger::arbitrage_clamp;
use crate::metrics::ShardMetrics;
use crate::obs::ShardObs;
use crate::routing::TenantId;
use crate::snapshot::{cold_tenant_json, cold_tenant_page, cold_tenant_state, tenant_json};
use crate::tenant::TenantState;
use pdm_linalg::Json;
use pdm_pricing::prelude::{BatchRequest, BatchResponse, StepOutcome};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// A shard: tenants (resident and paged out), queue, metrics.
#[derive(Debug)]
pub(crate) struct Shard {
    index: usize,
    /// Cap on materialised tenant sessions (this shard's share of the
    /// service-wide `resident_capacity`); `None` = unbounded.
    resident_capacity: Option<usize>,
    /// Whether privacy tenants (which carry owner ledgers) may page out
    /// through the cold map.  Off by default: ledgers are the audit trail
    /// of real money and real privacy loss, so they leave memory only when
    /// the operator has opted into the WAL persistence path.
    ledger_paging: bool,
    tenants: BTreeMap<TenantId, TenantState>,
    /// Paged-out tenants, keyed to the binary image of their snapshot
    /// document (see [`cold_tenant_page`]).
    cold: BTreeMap<TenantId, Vec<u8>>,
    /// Tenants whose state changed since the last checkpoint or full
    /// snapshot.  Ordered so checkpoints serialise in id order.
    dirty: BTreeSet<TenantId>,
    /// Monotonic serve counter driving the LRU eviction order; ticks once
    /// per same-tenant run, so it is deterministic for a given request
    /// stream regardless of drain worker count.
    clock: u64,
    /// Last serve tick per resident tenant (absent = never served since
    /// materialisation; those evict first, tie-broken by id).
    last_served: BTreeMap<TenantId, u64>,
    queue: VecDeque<(u64, Request)>,
    pub(crate) metrics: ShardMetrics,
    /// Per-shard observability registry and span handles, mutated only by
    /// the worker holding this shard's lock (see [`crate::obs`]).
    pub(crate) obs: ShardObs,
    /// Scratch holding the maximal same-tenant FIFO run being drained;
    /// reused across [`Shard::process_all`] calls.
    run_scratch: Vec<(u64, Request)>,
    /// Scratch for the batched session responses of one run segment.
    response_scratch: Vec<BatchResponse>,
}

impl Shard {
    /// Queue capacity is enforced upstream at the ingest stripe (validated
    /// non-zero by [`crate::ServiceConfig`]); the shard FIFO itself only
    /// ever holds what a stripe transfer hands it.
    pub(crate) fn new(index: usize, resident_capacity: Option<usize>, ledger_paging: bool) -> Self {
        Self {
            index,
            resident_capacity,
            ledger_paging,
            tenants: BTreeMap::new(),
            cold: BTreeMap::new(),
            dirty: BTreeSet::new(),
            clock: 0,
            last_served: BTreeMap::new(),
            queue: VecDeque::new(),
            metrics: ShardMetrics::new(),
            obs: ShardObs::new(),
            run_scratch: Vec::new(),
            response_scratch: Vec::new(),
        }
    }

    pub(crate) fn contains(&self, tenant: TenantId) -> bool {
        self.tenants.contains_key(&tenant) || self.cold.contains_key(&tenant)
    }

    /// The resident state of one tenant, `None` when unknown or paged out.
    #[cfg(test)]
    pub(crate) fn resident_state(&self, tenant: TenantId) -> Option<&TenantState> {
        self.tenants.get(&tenant)
    }

    /// Registered tenants, resident or paged out.
    pub(crate) fn tenant_count(&self) -> usize {
        self.tenants.len() + self.cold.len()
    }

    /// Tenants currently materialised in memory.
    pub(crate) fn resident_count(&self) -> usize {
        self.tenants.len()
    }

    /// Approximate bytes of tenant state this shard holds: materialised
    /// sessions at their learned-state footprint, paged-out tenants at
    /// the length of their page.
    pub(crate) fn resident_memory_bytes(&self) -> usize {
        let hot: usize = self
            .tenants
            .values()
            .map(TenantState::memory_footprint_bytes)
            .sum();
        let cold: usize = self.cold.values().map(Vec::len).sum();
        hot + cold
    }

    /// Every tenant's serialised document paired with its id — resident
    /// tenants serialised fresh, paged-out tenants decoded from their page
    /// (byte-identical either way, by the snapshot contract).
    pub(crate) fn tenant_documents(&self) -> Vec<(TenantId, Json)> {
        let mut documents: Vec<(TenantId, Json)> = self
            .tenants
            .values()
            .map(|state| (state.id, tenant_json(state)))
            .collect();
        documents.extend(
            self.cold
                .iter()
                .map(|(&id, page)| (id, cold_tenant_json(page))),
        );
        documents.sort_by_key(|(id, _)| *id);
        documents
    }

    /// Registers a tenant state on this shard.  The caller (the service)
    /// has already checked for duplicates.  Registration beyond the
    /// resident cap pages the (necessarily quiescent) state straight out,
    /// so a service can hold far more registered tenants than its cap.
    pub(crate) fn register(&mut self, state: TenantState) {
        let id = state.id;
        self.dirty.insert(id);
        if self
            .resident_capacity
            .is_some_and(|cap| self.tenants.len() >= cap)
            && self.pageable(&state)
        {
            self.cold.insert(id, cold_tenant_page(&state));
        } else {
            self.tenants.insert(id, state);
        }
    }

    /// Whether a tenant may leave memory through the cold map.  Privacy
    /// tenants stay pinned resident unless the service opted into
    /// `ledger_paging` (validated to require the WAL persistence path).
    fn pageable(&self, state: &TenantState) -> bool {
        self.ledger_paging || state.privacy.is_none()
    }

    /// Replaces (or registers) a tenant state — the WAL-replay path, where
    /// a later record supersedes whatever the base snapshot carried.
    pub(crate) fn replace(&mut self, state: TenantState) {
        let id = state.id;
        self.cold.remove(&id);
        self.tenants.remove(&id);
        self.register(state);
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The regret ledger of one tenant on this shard.  A paged-out tenant
    /// is read from its page without joining the resident set.
    pub(crate) fn tenant_report(
        &self,
        tenant: TenantId,
    ) -> Option<pdm_pricing::prelude::RegretReport> {
        if let Some(state) = self.tenants.get(&tenant) {
            return Some(state.session.tracker().report());
        }
        self.cold
            .get(&tenant)
            .map(|page| cold_tenant_state(page).session.tracker().report())
    }

    /// Number of tenants with a quoted-but-unobserved round.  Paged-out
    /// tenants are always quiescent (the pager refuses open rounds).
    pub(crate) fn open_rounds(&self) -> usize {
        self.tenants
            .values()
            .filter(|t| t.session.has_pending())
            .count()
    }

    /// Tenants changed since the last checkpoint, in id order, as
    /// serialised documents — **quiescent tenants only**.  A tenant with an
    /// open round stays dirty (its mid-round state has no serialised form)
    /// and is captured by a later checkpoint, which is what lets
    /// checkpoints run under live traffic.  Captured tenants leave the
    /// dirty set.
    pub(crate) fn checkpoint_dirty(&mut self) -> Vec<(TenantId, Json)> {
        let ids: Vec<TenantId> = self.dirty.iter().copied().collect();
        let mut captured = Vec::new();
        for id in ids {
            if let Some(state) = self.tenants.get(&id) {
                if state.session.has_pending() {
                    continue;
                }
                captured.push((id, tenant_json(state)));
            } else if let Some(page) = self.cold.get(&id) {
                captured.push((id, cold_tenant_json(page)));
            }
            self.dirty.remove(&id);
        }
        captured
    }

    /// Clears the dirty set — a full snapshot captured everything.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Appends a stripe transfer to the FIFO.  Capacity was enforced at
    /// ingest time (the stripe is the bounded component), so the transfer
    /// itself never sheds.
    pub(crate) fn admit_transferred(&mut self, requests: impl Iterator<Item = (u64, Request)>) {
        self.queue.extend(requests);
    }

    /// Appends a request to the FIFO directly — shard-level tests drive
    /// the processing loop through this; the service path goes through the
    /// bounded ingest stripe and [`Shard::admit_transferred`].
    #[cfg(test)]
    pub(crate) fn enqueue(&mut self, seq: u64, request: Request) {
        self.queue.push_back((seq, request));
    }

    /// Serves every queued request in FIFO order, producing one response
    /// per request.  Allocating convenience form of
    /// [`Shard::process_all_into`], used by the shard's own tests.
    #[cfg(test)]
    pub(crate) fn process_all(&mut self) -> Vec<Response> {
        let mut responses = Vec::new();
        self.process_all_into(&mut responses);
        responses
    }

    /// Serves every queued request in FIFO order, appending one response
    /// per request to `responses` — the allocation-free form callers with a
    /// reusable buffer drain through.
    ///
    /// The queue is drained in maximal same-tenant runs: each run is looked
    /// up once in the tenant map and handed to
    /// [`PricingSession::serve_batch`](pdm_pricing::prelude::PricingSession::serve_batch)
    /// as a whole, so consecutive requests for one tenant (the common shape
    /// of a quote→observe workload) pay dispatch once.  Request order — and
    /// therefore every quote, counter, and ledger entry — is exactly that of
    /// one-at-a-time processing.  Processing latency is timed once for the
    /// whole drain and attributed evenly across its requests, keeping the
    /// hot path down to two clock reads per drain.
    pub(crate) fn process_all_into(&mut self, responses: &mut Vec<Response>) {
        if self.queue.is_empty() {
            return;
        }
        // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
        let started = Instant::now();
        let total = self.queue.len();
        responses.reserve(total);
        while let Some(tenant) = self.queue.front().map(|(_, request)| request.tenant()) {
            self.run_scratch.clear();
            while self
                .queue
                .front()
                .is_some_and(|(_, request)| request.tenant() == tenant)
            {
                if let Some(entry) = self.queue.pop_front() {
                    self.run_scratch.push(entry);
                }
            }
            self.ensure_resident(tenant);
            self.serve_run(tenant, responses);
            // The run mutated the session: mark it for the next checkpoint
            // and refresh its slot in the LRU order.  One tick per run, so
            // the eviction order is deterministic for a given request
            // stream regardless of how many workers drain the other shards.
            self.dirty.insert(tenant);
            self.clock += 1;
            self.last_served.insert(tenant, self.clock);
        }
        self.enforce_residency();
        // One measurement feeds the per-request latency histogram and the
        // drain span: the whole-queue timing the hot path already paid for.
        let elapsed = started.elapsed();
        let requests = total as u64;
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.obs
            .registry
            .observe_n(self.obs.latency, nanos / requests, requests);
        self.obs
            .registry
            .record_span(self.obs.drain, elapsed, requests);
    }

    /// Materialises a paged-out tenant before its run is served.  The page
    /// decodes to the exact document the snapshot writer emits, and
    /// restoring a snapshot is bit-identical, so a rehydrated tenant
    /// prices exactly as if it had never left memory.
    fn ensure_resident(&mut self, tenant: TenantId) {
        if self.tenants.contains_key(&tenant) {
            return;
        }
        if let Some(page) = self.cold.remove(&tenant) {
            self.tenants.insert(tenant, cold_tenant_state(&page));
            self.metrics.rehydrations += 1;
        }
    }

    /// Pages least-recently-served quiescent tenants out until the
    /// resident set fits the cap again.  Tenants with an open round are
    /// skipped (their mid-round state has no serialised form); they become
    /// evictable as soon as the round closes.  Ties on the serve tick
    /// (e.g. never-served tenants) break on the id, keeping the eviction
    /// sequence — and therefore the eviction/rehydration counters —
    /// deterministic.
    fn enforce_residency(&mut self) {
        let Some(cap) = self.resident_capacity else {
            return;
        };
        if self.tenants.len() <= cap {
            return;
        }
        let mut candidates: Vec<(u64, TenantId)> = self
            .tenants
            .values()
            .filter(|state| !state.session.has_pending() && self.pageable(state))
            .map(|state| {
                (
                    self.last_served.get(&state.id).copied().unwrap_or(0),
                    state.id,
                )
            })
            .collect();
        candidates.sort_unstable();
        for (_, id) in candidates {
            if self.tenants.len() <= cap {
                break;
            }
            // pdm-lint: allow(no-unwrap-in-lib) reason="candidates were collected from the resident map two lines up under the same &mut self"
            let state = self.tenants.remove(&id).expect("candidate is resident");
            self.cold.insert(id, cold_tenant_page(&state));
            self.last_served.remove(&id);
            self.metrics.evictions += 1;
        }
    }

    /// Serves one maximal same-tenant run currently staged in
    /// `run_scratch`, appending one response per request.
    fn serve_run(&mut self, tenant: TenantId, responses: &mut Vec<Response>) {
        let state = self
            .tenants
            .get_mut(&tenant)
            // pdm-lint: allow(no-unwrap-in-lib) reason="admission and ensure_resident ran before any run is served; an unknown tenant here is queue corruption worth aborting on"
            .expect("ingest admits only registered tenants");
        let metrics = &mut self.metrics;
        let obs = &mut self.obs;
        let run = &self.run_scratch;
        let response_scratch = &mut self.response_scratch;
        let shard_index = self.index;

        // Drift activity (detector firings, knowledge-set restarts) is
        // accounted as a before/after delta over the whole run — the sum of
        // the per-request deltas, and deterministic either way.
        let fires_before = state.session.mechanism().detector_fires();
        let restarts_before = state.session.mechanism().restarts();
        let posted = state.config.market.is_posted();
        let privacy = state.config.market.privacy_params().is_some();

        let mut pos = 0;
        while pos < run.len() {
            if let (seq, Request::Auction(auction)) = &run[pos] {
                // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
                let round_started = Instant::now();
                let payload = Self::serve_auction_one(state, metrics, auction);
                obs.registry.record_span(
                    obs.auction,
                    round_started.elapsed(),
                    auction.bids.len() as u64,
                );
                responses.push(Response {
                    seq: *seq,
                    tenant,
                    shard: shard_index,
                    payload,
                });
                pos += 1;
                continue;
            }
            // Maximal posted-market segment `[pos, seg_end)`.
            let seg_end = run[pos..]
                .iter()
                .position(|(_, request)| matches!(request, Request::Auction(_)))
                .map_or(run.len(), |offset| pos + offset);
            let segment = &run[pos..seg_end];
            if posted {
                // One span batch per fused segment: the ~60 ns/quote hot
                // path pays a single clock-read pair per segment, never per
                // request.
                // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
                let segment_started = Instant::now();
                response_scratch.clear();
                let batch = segment.iter().map(|(_, request)| match request {
                    Request::Quote(query) => BatchRequest::Quote {
                        features: &query.features,
                        reserve_price: query.reserve_price,
                    },
                    Request::Observe(outcome) => BatchRequest::Observe(StepOutcome {
                        accepted: outcome.accepted,
                        market_value: outcome.market_value,
                    }),
                    Request::Auction(_) => unreachable!("segment excludes auction requests"),
                });
                state.session.serve_batch(batch, response_scratch);
                for ((seq, _), response) in segment.iter().zip(response_scratch.iter()) {
                    let payload = match response {
                        BatchResponse::Quoted(quote) => {
                            metrics.quotes_served += 1;
                            Payload::Quoted(*quote)
                        }
                        BatchResponse::Observed(Some(record)) => {
                            metrics.observations += 1;
                            if record.accepted {
                                metrics.sales += 1;
                            }
                            metrics.revenue += record.revenue;
                            if let Some(regret) = record.regret {
                                metrics.regret += regret;
                            }
                            metrics.regret_proxy += record.uncertainty_width;
                            Payload::Observed(*record)
                        }
                        BatchResponse::Observed(None) => {
                            metrics.rejected += 1;
                            Payload::Failed(RequestError::NoOpenRound)
                        }
                    };
                    responses.push(Response {
                        seq: *seq,
                        tenant,
                        shard: shard_index,
                        payload,
                    });
                }
                obs.registry.record_span(
                    obs.quote,
                    segment_started.elapsed(),
                    segment.len() as u64,
                );
            } else if privacy {
                // Privacy-market traffic is served one request at a time:
                // every quote first consults the owner ledgers, so there is
                // no batched session fast path to take.  Per-request span
                // timing is affordable here — this is explicitly not the
                // batched posted-price hot path.
                for (seq, request) in segment {
                    let span = match request {
                        Request::Quote(_) => obs.quote,
                        _ => obs.observe,
                    };
                    // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
                    let request_started = Instant::now();
                    let payload = Self::serve_privacy_one(state, metrics, obs, request);
                    obs.registry.record_span(span, request_started.elapsed(), 1);
                    responses.push(Response {
                        seq: *seq,
                        tenant,
                        shard: shard_index,
                        payload,
                    });
                }
            } else {
                // Posted-price traffic addressed to an auction tenant: every
                // request in the segment is rejected, exactly as the
                // one-at-a-time path did.
                for (seq, _) in segment {
                    metrics.rejected += 1;
                    responses.push(Response {
                        seq: *seq,
                        tenant,
                        shard: shard_index,
                        payload: Payload::Failed(RequestError::MarketMismatch),
                    });
                }
            }
            pos = seg_end;
        }

        let mechanism = state.session.mechanism();
        metrics.drift_fires += mechanism.detector_fires() - fires_before;
        metrics.drift_restarts += mechanism.restarts() - restarts_before;
    }

    /// Settles one self-contained auction round: reserve quote, eager
    /// second-price clearing, policy feedback — all through the shared
    /// [`pdm_auction::run_auction_round`] path.  Drift deltas are accounted
    /// by the enclosing run.
    fn serve_auction_one(
        state: &mut TenantState,
        metrics: &mut ShardMetrics,
        auction: &AuctionRequest,
    ) -> Payload {
        match state.serve_auction(&auction.features, auction.floor, &auction.bids) {
            Some(cleared) => {
                metrics.auction.record(&cleared);
                Payload::Cleared(cleared)
            }
            None => {
                metrics.rejected += 1;
                Payload::Failed(RequestError::MarketMismatch)
            }
        }
    }

    /// Serves one quote or observe for a privacy tenant.
    ///
    /// A quote first consults the tenant's [`crate::LedgerBank`]: owners
    /// whose budget cannot absorb this query's leakage are retired (sticky),
    /// and their coordinates are masked out of the feature vector before the
    /// mechanism prices it.  The total compensation owed to the surviving
    /// owners rides the reserve — the mechanism never posts below what the
    /// sale costs in payouts — and the surfaced price is clamped to the
    /// arbitrage-free band `[C(ε), max(reserve, markup · C(ε))]` (the
    /// ceiling never undercuts the effective reserve).  When the clamp fires,
    /// the *session* keeps learning from its own unclamped price (the
    /// mechanism's feedback loop stays consistent), while the quote, the
    /// settled round, and every revenue counter use the clamped price the
    /// buyer actually saw — a deterministic divergence, identical across
    /// worker counts.
    fn serve_privacy_one(
        state: &mut TenantState,
        metrics: &mut ShardMetrics,
        obs: &mut ShardObs,
        request: &Request,
    ) -> Payload {
        match request {
            Request::Quote(query) => {
                let supply = state.bank_mut().begin_quote(&query.features);
                metrics.owners_exhausted += supply.newly_exhausted;
                if !supply.sellable {
                    metrics.privacy_throttled += 1;
                    return Payload::Failed(RequestError::BudgetExhausted);
                }
                let reserve = query.reserve_price.max(supply.total_compensation);
                let Some(mut quote) =
                    state
                        .session
                        .step_throttled(&query.features, &supply.active, reserve)
                else {
                    // A sellable supply has an active non-zero coordinate, so
                    // the session never refuses here; refusing the request is
                    // still strictly safer than panicking.  Both sides of the
                    // round state drop together — the staged charge and any
                    // open round — so quote and charge stay in lockstep.
                    state.session.abandon_round();
                    state.bank_mut().cancel_quote();
                    metrics.privacy_throttled += 1;
                    return Payload::Failed(RequestError::BudgetExhausted);
                };
                let (price, clamped) =
                    arbitrage_clamp(quote.posted_price, reserve, supply.total_compensation);
                if clamped {
                    metrics.arbitrage_clamps += 1;
                }
                state.bank_mut().commit_quote(price);
                metrics.quotes_served += 1;
                quote.posted_price = price;
                Payload::Quoted(quote)
            }
            Request::Observe(outcome) => {
                let observed = state.session.observe(StepOutcome {
                    accepted: outcome.accepted,
                    market_value: outcome.market_value,
                });
                let Some(mut record) = observed else {
                    // No open round: nothing was staged on the bank either
                    // (quote and charge are staged in lockstep).
                    metrics.rejected += 1;
                    return Payload::Failed(RequestError::NoOpenRound);
                };
                metrics.observations += 1;
                // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
                let settle_started = Instant::now();
                let settled = state.bank_mut().settle(record.accepted);
                obs.registry
                    .record_span(obs.settle, settle_started.elapsed(), 1);
                if let Some(charge) = settled {
                    record.posted_price = charge.quoted_price;
                    record.revenue = if record.accepted {
                        charge.quoted_price
                    } else {
                        0.0
                    };
                    if record.accepted {
                        metrics.sales += 1;
                        metrics.epsilon_spent += charge.total_leakage;
                        metrics.compensation_paid += charge.total_compensation;
                    }
                } else if record.accepted {
                    metrics.sales += 1;
                }
                metrics.revenue += record.revenue;
                if let Some(regret) = record.regret {
                    metrics.regret += regret;
                }
                metrics.regret_proxy += record.uncertainty_width;
                Payload::Observed(record)
            }
            Request::Auction(_) => unreachable!("segment excludes auction requests"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantConfig;
    use pdm_linalg::Vector;

    fn shard_with_tenant() -> Shard {
        let mut shard = Shard::new(0, None, false);
        shard.register(TenantState::new(
            TenantId(1),
            TenantConfig::standard(2, 100),
        ));
        shard
    }

    fn quote_request() -> Request {
        Request::Quote(QueryRequest {
            tenant: TenantId(1),
            features: Vector::from_slice(&[0.6, 0.8]),
            reserve_price: 0.1,
        })
    }

    #[test]
    fn fifo_quote_then_observe_round_trip() {
        let mut shard = shard_with_tenant();
        shard.enqueue(0, quote_request());
        let responses = shard.process_all();
        assert_eq!(responses.len(), 1);
        let quote = responses[0].quote().expect("a quote response");
        assert!(quote.posted_price.is_finite());

        shard.enqueue(
            1,
            Request::Observe(OutcomeReport {
                tenant: TenantId(1),
                accepted: true,
                market_value: Some(1.0),
            }),
        );
        let responses = shard.process_all();
        assert!(matches!(responses[0].payload, Payload::Observed(_)));
        assert_eq!(shard.metrics.quotes_served, 1);
        assert_eq!(shard.metrics.observations, 1);
        assert_eq!(shard.metrics.sales, 1);
        assert!(shard.metrics.regret >= 0.0);
        let latency = shard
            .obs
            .registry
            .histogram_counts(crate::metrics::LATENCY_HISTOGRAM)
            .expect("every shard registers the latency histogram");
        assert_eq!(latency.count(), 2, "one observation per request");
        assert_eq!(shard.open_rounds(), 0);
    }

    #[test]
    fn paging_round_trips_a_tenant_through_the_cold_map() {
        // Cap 1: serving tenant 2 after tenant 1 pages tenant 1 out; a
        // later request pages it back in, and the dirty set has tracked
        // every mutation along the way.
        let mut shard = Shard::new(0, Some(1), false);
        shard.register(TenantState::new(
            TenantId(1),
            TenantConfig::standard(2, 100),
        ));
        shard.register(TenantState::new(
            TenantId(2),
            TenantConfig::standard(2, 100),
        ));
        // Registration beyond the cap pages straight out.
        assert_eq!(shard.resident_count(), 1);
        assert_eq!(shard.tenant_count(), 2);
        shard.enqueue(0, quote_request());
        shard.enqueue(
            1,
            Request::Observe(OutcomeReport {
                tenant: TenantId(1),
                accepted: true,
                market_value: Some(1.0),
            }),
        );
        shard.enqueue(
            2,
            Request::Quote(QueryRequest {
                tenant: TenantId(2),
                features: Vector::from_slice(&[0.6, 0.8]),
                reserve_price: 0.1,
            }),
        );
        shard.enqueue(
            3,
            Request::Observe(OutcomeReport {
                tenant: TenantId(2),
                accepted: false,
                market_value: Some(1.0),
            }),
        );
        let responses = shard.process_all();
        assert_eq!(responses.len(), 4);
        assert_eq!(shard.resident_count(), 1);
        assert!(shard.metrics.evictions >= 1);
        assert_eq!(shard.metrics.rehydrations, 1, "tenant 2 was paged out");
        // Both tenants stay addressable; the paged-out one reads its
        // ledger from the serialised form.
        assert!(shard.contains(TenantId(1)));
        assert!(shard.contains(TenantId(2)));
        assert_eq!(shard.tenant_report(TenantId(1)).unwrap().rounds, 1);
        assert_eq!(shard.tenant_report(TenantId(2)).unwrap().rounds, 1);
        // Every mutated tenant is pending for the next checkpoint.
        let captured = shard.checkpoint_dirty();
        assert_eq!(captured.len(), 2);
        assert!(shard.checkpoint_dirty().is_empty(), "dirty set drained");
    }

    /// Queues one quote→observe round for `tenant` at sequence `seq`.
    fn enqueue_round(shard: &mut Shard, seq: u64, tenant: TenantId, round: usize) {
        let t = round as f64 * 0.37 + tenant.0 as f64;
        shard.enqueue(
            seq,
            Request::Quote(QueryRequest {
                tenant,
                features: Vector::from_slice(&[t.cos().abs(), t.sin().abs(), 0.5]),
                reserve_price: 0.05,
            }),
        );
        shard.enqueue(
            seq + 1,
            Request::Observe(OutcomeReport {
                tenant,
                accepted: !round.is_multiple_of(3),
                market_value: Some(0.8 + 0.1 * t.sin()),
            }),
        );
    }

    /// A cap-1 shard with ledger paging whose tenant 1 (standard, dim 3)
    /// and tenant 2 (privacy, dim 3) have each served `rounds` rounds in
    /// one drain; tenant 1, served first, ends paged out.
    fn shard_with_served_tenants(rounds: usize) -> Shard {
        let mut shard = Shard::new(0, Some(1), true);
        shard.register(TenantState::new(
            TenantId(1),
            TenantConfig::standard(3, 100),
        ));
        shard.register(TenantState::new(
            TenantId(2),
            TenantConfig::privacy(3, 100, crate::tenant::PrivacyParams::default()),
        ));
        let mut seq = 0;
        for round in 0..rounds {
            for tenant in [TenantId(1), TenantId(2)] {
                enqueue_round(&mut shard, seq, tenant, round);
                seq += 2;
            }
        }
        shard.process_all();
        shard
    }

    #[test]
    fn a_page_decodes_to_the_text_its_tenant_renders_to() {
        // Serving the paged-out tenant rehydrates it and pages the resident
        // one out: its page must decode to the very text its document
        // rendered to while resident.  Both tenant kinds take a turn, so
        // the privacy tenant's ledgers are covered too.
        let mut shard = shard_with_served_tenants(5);
        let rehydrated = shard.metrics.rehydrations;
        let mut seq = 100;
        for (resident, cold) in [(TenantId(2), TenantId(1)), (TenantId(1), TenantId(2))] {
            assert!(shard.cold.contains_key(&cold));
            let state = shard.resident_state(resident).expect("resident tenant");
            let text = tenant_json(state).render();
            enqueue_round(&mut shard, seq, cold, 7);
            seq += 2;
            shard.process_all();
            let page = &shard.cold[&resident];
            assert_eq!(cold_tenant_json(page).render(), text);
            assert!(
                page.len() < text.len(),
                "the image is smaller than the text"
            );
        }
        assert_eq!(shard.metrics.rehydrations, rehydrated + 2);
    }

    #[test]
    fn damaged_pages_fail_to_decode_without_panicking() {
        let shard = shard_with_served_tenants(3);
        let page = shard.cold.values().next().expect("a paged-out tenant");
        assert!(Json::decode(page).is_ok());
        for len in 0..page.len() {
            assert!(
                Json::decode(&page[..len]).is_err(),
                "a {len}-byte prefix of a {}-byte page decoded",
                page.len()
            );
        }
        let mut damaged = page.clone();
        for at in 0..page.len() {
            for bit in 0..8 {
                damaged[at] ^= 1 << bit;
                let outcome = std::panic::catch_unwind(|| Json::decode(&damaged).is_ok());
                assert!(outcome.is_ok(), "flipping bit {bit} of byte {at} panicked");
                damaged[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn auction_rounds_settle_in_one_fifo_slot_and_feed_the_ledger() {
        let mut shard = Shard::new(0, None, false);
        shard.register(TenantState::new(
            TenantId(2),
            crate::tenant::TenantConfig::auction(
                2,
                100,
                crate::tenant::AuctionPolicy::Static { markup: 0.0 },
            ),
        ));
        shard.enqueue(
            0,
            Request::Auction(AuctionRequest {
                tenant: TenantId(2),
                features: Vector::from_slice(&[0.6, 0.8]),
                floor: 0.3,
                bids: vec![0.9, 0.5],
            }),
        );
        let responses = shard.process_all();
        let cleared = responses[0].cleared().expect("a cleared response");
        assert_eq!(cleared.reserve, 0.3);
        assert_eq!(cleared.result.price, 0.5);
        assert_eq!(shard.metrics.auction.auctions, 1);
        assert_eq!(shard.metrics.auction.sales, 1);
        assert!((shard.metrics.auction.revenue - 0.5).abs() < 1e-12);
        assert!((shard.metrics.auction.welfare - 0.9).abs() < 1e-12);
        assert_eq!(shard.open_rounds(), 0, "auction rounds never stay open");
    }

    #[test]
    fn market_mismatch_is_rejected_both_ways() {
        let mut shard = shard_with_tenant();
        shard.register(TenantState::new(
            TenantId(2),
            crate::tenant::TenantConfig::auction(2, 100, crate::tenant::AuctionPolicy::Session),
        ));
        // An auction round addressed to the posted-price tenant…
        shard.enqueue(
            0,
            Request::Auction(AuctionRequest {
                tenant: TenantId(1),
                features: Vector::from_slice(&[0.6, 0.8]),
                floor: 0.1,
                bids: vec![1.0],
            }),
        );
        // …and a posted-price quote addressed to the auction tenant.
        shard.enqueue(
            1,
            Request::Quote(QueryRequest {
                tenant: TenantId(2),
                features: Vector::from_slice(&[0.6, 0.8]),
                reserve_price: 0.1,
            }),
        );
        let responses = shard.process_all();
        for response in &responses {
            assert_eq!(
                response.payload,
                Payload::Failed(RequestError::MarketMismatch)
            );
        }
        assert_eq!(shard.metrics.rejected, 2);
        assert_eq!(shard.metrics.quotes_served, 0);
        assert_eq!(shard.metrics.auction.auctions, 0);
    }

    #[test]
    fn privacy_quotes_debit_ledgers_until_exhaustion_throttles_supply() {
        use crate::tenant::PrivacyParams;
        let mut shard = Shard::new(0, None, false);
        let params = PrivacyParams {
            epsilon_budget: 1.2,
            ..PrivacyParams::default()
        };
        shard.register(TenantState::new(
            TenantId(7),
            TenantConfig::privacy(2, 100, params),
        ));
        let quote = |seq: u64| {
            (
                seq,
                Request::Quote(QueryRequest {
                    tenant: TenantId(7),
                    features: Vector::from_slice(&[0.6, 0.8]),
                    reserve_price: 0.0,
                }),
            )
        };
        let accept = |seq: u64| {
            (
                seq,
                Request::Observe(OutcomeReport {
                    tenant: TenantId(7),
                    accepted: true,
                    market_value: Some(2.0),
                }),
            )
        };
        // Round 1 debits ε = 0.6 and 0.8; round 2 retires owner 1 at quote
        // time (0.8 + 0.8 > 1.2) and debits only owner 0; round 3 retires
        // owner 0 too, leaving nothing sellable.
        for (seq, request) in [quote(0), accept(1), quote(2), accept(3), quote(4)] {
            shard.enqueue(seq, request);
        }
        let responses = shard.process_all();
        assert!(matches!(responses[0].payload, Payload::Quoted(_)));
        assert!(matches!(responses[2].payload, Payload::Quoted(_)));
        assert_eq!(
            responses[4].payload,
            Payload::Failed(RequestError::BudgetExhausted)
        );
        assert_eq!(shard.metrics.quotes_served, 2);
        assert_eq!(shard.metrics.sales, 2);
        assert_eq!(shard.metrics.owners_exhausted, 2);
        assert_eq!(shard.metrics.privacy_throttled, 1);
        assert!(
            (shard.metrics.epsilon_spent - 2.0).abs() < 1e-12,
            "0.6 + 0.8 + 0.6 of ε debited, got {}",
            shard.metrics.epsilon_spent
        );
        // Compensation rode the reserve, so every sale covered its payouts.
        assert!(shard.metrics.compensation_paid > 0.0);
        assert!(shard.metrics.compensation_paid <= shard.metrics.revenue + 1e-12);
        let bank = shard.tenants[&TenantId(7)].privacy.as_ref().unwrap();
        assert_eq!(bank.owners_exhausted(), 2);
        assert!(bank.ledgers().iter().all(|ledger| ledger.exhausted));
    }

    #[test]
    fn accepted_sale_after_unsellable_quote_still_settles_the_open_round() {
        use crate::tenant::PrivacyParams;
        let mut shard = Shard::new(0, None, false);
        shard.register(TenantState::new(
            TenantId(7),
            TenantConfig::privacy(2, 100, PrivacyParams::default()),
        ));
        let quote = |seq: u64, features: &[f64]| {
            (
                seq,
                Request::Quote(QueryRequest {
                    tenant: TenantId(7),
                    features: Vector::from_slice(features),
                    reserve_price: 0.0,
                }),
            )
        };
        // Quote A opens a round and stages its charge; quote B's leakage
        // (2.0 per owner against a 1.0 budget) retires everyone and is
        // refused without opening a round; the buyer then accepts A.  The
        // sale must settle round A's staged charge — not slip through as a
        // zero-debit, zero-compensation phantom sale.
        for (seq, request) in [
            quote(0, &[0.3, 0.2]),
            quote(1, &[2.0, 2.0]),
            (
                2,
                Request::Observe(OutcomeReport {
                    tenant: TenantId(7),
                    accepted: true,
                    market_value: Some(2.0),
                }),
            ),
        ] {
            shard.enqueue(seq, request);
        }
        let responses = shard.process_all();
        assert!(matches!(responses[0].payload, Payload::Quoted(_)));
        assert_eq!(
            responses[1].payload,
            Payload::Failed(RequestError::BudgetExhausted)
        );
        let record = responses[2].observed().expect("round A settles");
        assert!(record.accepted);
        assert_eq!(shard.metrics.sales, 1);
        assert!(
            (shard.metrics.epsilon_spent - 0.5).abs() < 1e-12,
            "round A's 0.3 + 0.2 of ε must be debited, got {}",
            shard.metrics.epsilon_spent
        );
        assert!(shard.metrics.compensation_paid > 0.0);
        assert!(shard.metrics.compensation_paid <= shard.metrics.revenue + 1e-12);
        let bank = shard.tenants[&TenantId(7)].privacy.as_ref().unwrap();
        assert!(bank.epsilon_spent_total() > 0.0);
        assert!(!bank.has_pending());
    }

    #[test]
    fn arbitrage_clamp_never_undercuts_the_reserve() {
        use crate::tenant::PrivacyParams;
        let mut shard = Shard::new(0, None, false);
        shard.register(TenantState::new(
            TenantId(7),
            TenantConfig::privacy(2, 100, PrivacyParams::default()),
        ));
        // Total compensation here is ≈ 0.1·(tanh(1.2) + tanh(1.6)) ≈ 0.18,
        // so the markup ceiling 8·C(ε) ≈ 1.5 sits far below the owner's
        // stated reserve: the clamp must honour the reserve, not cut under.
        let reserve_price = 50.0;
        shard.enqueue(
            0,
            Request::Quote(QueryRequest {
                tenant: TenantId(7),
                features: Vector::from_slice(&[0.6, 0.8]),
                reserve_price,
            }),
        );
        let responses = shard.process_all();
        let quoted = responses[0].quote().expect("a quote response");
        assert!(
            quoted.posted_price >= reserve_price,
            "surfaced price {} undercuts the reserve {}",
            quoted.posted_price,
            reserve_price
        );
    }

    #[test]
    fn privacy_tenants_stay_pinned_resident_without_ledger_paging() {
        use crate::tenant::PrivacyParams;
        let mut shard = Shard::new(0, Some(1), false);
        shard.register(TenantState::new(
            TenantId(1),
            TenantConfig::standard(2, 100),
        ));
        // Over the cap, but not pageable: the privacy tenant materialises
        // anyway rather than parking its ledgers in the cold map.
        shard.register(TenantState::new(
            TenantId(2),
            TenantConfig::privacy(2, 100, PrivacyParams::default()),
        ));
        assert_eq!(shard.resident_count(), 2);
        shard.enqueue(0, quote_request());
        shard.enqueue(
            1,
            Request::Observe(OutcomeReport {
                tenant: TenantId(1),
                accepted: false,
                market_value: None,
            }),
        );
        let responses = shard.process_all();
        assert_eq!(responses.len(), 2);
        // Residency enforcement paged the standard tenant out — never the
        // privacy tenant, even though the standard one was served last.
        assert_eq!(shard.resident_count(), 1);
        assert!(shard.tenants.contains_key(&TenantId(2)));
        assert!(shard.cold.contains_key(&TenantId(1)));
    }

    #[test]
    fn observe_without_quote_is_rejected_not_panicking() {
        let mut shard = shard_with_tenant();
        shard.enqueue(
            0,
            Request::Observe(OutcomeReport {
                tenant: TenantId(1),
                accepted: false,
                market_value: None,
            }),
        );
        let responses = shard.process_all();
        assert_eq!(
            responses[0].payload,
            Payload::Failed(RequestError::NoOpenRound)
        );
        assert_eq!(shard.metrics.rejected, 1);
        assert_eq!(shard.metrics.observations, 0);
    }
}
