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

use crate::api::{
    AuctionRequest, OutcomeReport, Payload, QueryRequest, Request, RequestError, Response,
};
use crate::ledger::arbitrage_clamp;
use crate::metrics::ShardMetrics;
use crate::obs::ShardObs;
use crate::routing::TenantId;
use crate::snapshot::{cold_tenant_json, cold_tenant_page, cold_tenant_state, tenant_json};
use crate::tenant::{MarketKind, TenantState};
use pdm_linalg::Json;
use pdm_pricing::prelude::{ObservedRound, StepOutcome};
use std::collections::{BTreeMap, BTreeSet};
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
    /// Resident tenants, boxed: a B-tree node holds eleven values, and
    /// ascending registration leaves most leaves half full, so inline
    /// states (about 1 KB each) would waste kilobytes per node.
    tenants: BTreeMap<TenantId, Box<TenantState>>,
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
    /// Admitted requests, in seq order, waiting for the next drain.
    queue: Vec<(u64, Request)>,
    /// Responses a pool worker served, waiting for the drain to gather
    /// them in shard order (see [`Shard::serve_into_buffer`]).
    pub(crate) responses: Vec<Response>,
    pub(crate) metrics: ShardMetrics,
    /// Per-shard observability registry and span handles, mutated only by
    /// the worker holding this shard's lock (see [`crate::obs`]).
    pub(crate) obs: ShardObs,
}

impl Shard {
    /// Queue capacity is enforced by the service's ingest (validated
    /// non-zero by [`crate::ServiceConfig`]) under this shard's lock.
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
            queue: Vec::new(),
            responses: Vec::new(),
            metrics: ShardMetrics::new(),
            obs: ShardObs::new(),
        }
    }

    pub(crate) fn contains(&self, tenant: TenantId) -> bool {
        self.tenants.contains_key(&tenant) || self.cold.contains_key(&tenant)
    }

    /// The resident state of one tenant, `None` when unknown or paged out.
    #[cfg(test)]
    pub(crate) fn resident_state(&self, tenant: TenantId) -> Option<&TenantState> {
        self.tenants.get(&tenant).map(Box::as_ref)
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
            .map(|state| state.memory_footprint_bytes())
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
            self.tenants.insert(id, Box::new(state));
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

    /// Appends an admitted request to the queue.  The service checked the
    /// tenant and the capacity and drew `seq` under this shard's lock.
    pub(crate) fn enqueue(&mut self, seq: u64, request: Request) {
        self.queue.push((seq, request));
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

    /// Serves the queue into the shard's own response buffer, which the
    /// drain then gathers in shard order — the pool-worker form of
    /// [`Shard::process_all_into`].
    pub(crate) fn serve_into_buffer(&mut self) {
        let mut responses = std::mem::take(&mut self.responses);
        // Empty after every gather, unless a drain that panicked left
        // responses behind: those must not leak into this drain's output.
        responses.clear();
        self.process_all_into(&mut responses);
        self.responses = responses;
    }

    /// Serves every queued request in FIFO order, appending one response
    /// per request to `responses`, then empties the queue (keeping its
    /// capacity).
    ///
    /// The queue is served in place, in maximal same-tenant runs: each run
    /// looks its tenant up once, so consecutive requests for one tenant (the
    /// common shape of a quote→observe workload) pay dispatch once.  Request
    /// order — and therefore every quote, counter, and ledger entry — is
    /// exactly that of one-at-a-time processing.  Processing latency is
    /// timed once for the whole drain and attributed evenly across its
    /// requests: two clock reads per drain, plus one pair per posted-price
    /// run for its `shard.quote` span.
    pub(crate) fn process_all_into(&mut self, responses: &mut Vec<Response>) {
        if self.queue.is_empty() {
            return;
        }
        // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
        let started = Instant::now();
        let mut queue = std::mem::take(&mut self.queue);
        responses.reserve(queue.len());
        for run in queue.chunk_by(|(_, a), (_, b)| a.tenant() == b.tenant()) {
            let tenant = run[0].1.tenant();
            self.ensure_resident(tenant);
            self.serve_run(tenant, run, responses);
            // The run mutated the session: mark it for the next checkpoint
            // and refresh its slot in the LRU order.  One tick per run, so
            // the eviction order is deterministic for a given request
            // stream regardless of how many workers drain the other shards.
            self.dirty.insert(tenant);
            self.clock += 1;
            self.last_served.insert(tenant, self.clock);
        }
        let requests = queue.len() as u64;
        queue.clear();
        self.queue = queue;
        self.enforce_residency();
        // One measurement feeds the per-request latency histogram and the
        // drain span: the whole-queue timing the hot path already paid for.
        let elapsed = started.elapsed();
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
            self.tenants
                .insert(tenant, Box::new(cold_tenant_state(&page)));
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

    /// Serves one maximal same-tenant run, appending one response per
    /// request.  Each request takes one arm of a match on (market kind,
    /// request): an auction round settles whole, a posted-price quote or
    /// observe goes straight to the session, a privacy quote or observe
    /// goes through the owner ledgers, and traffic of the other market
    /// kind is rejected.
    fn serve_run(
        &mut self,
        tenant: TenantId,
        run: &[(u64, Request)],
        responses: &mut Vec<Response>,
    ) {
        let state = self
            .tenants
            .get_mut(&tenant)
            // pdm-lint: allow(no-unwrap-in-lib) reason="admission and ensure_resident ran before any run is served; an unknown tenant here is queue corruption worth aborting on"
            .expect("ingest admits only registered tenants");
        let metrics = &mut self.metrics;
        let obs = &mut self.obs;

        // Drift activity (detector firings, knowledge-set restarts) is
        // accounted as a before/after delta over the whole run — the sum of
        // the per-request deltas, and deterministic either way.
        let fires_before = state.session.mechanism().detector_fires();
        let restarts_before = state.session.mechanism().restarts();
        // One span per posted-price run: the ~60 ns/quote hot path pays a
        // single clock-read pair per run, never per request.
        // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
        let posted_started = state.config.market.is_posted().then(Instant::now);
        let mut posted_work = 0u64;

        for (seq, request) in run {
            let payload = match (state.config.market, request) {
                (_, Request::Auction(auction)) => {
                    // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
                    let started = Instant::now();
                    let payload = Self::serve_auction(state, metrics, auction);
                    obs.registry.record_span(
                        obs.auction,
                        started.elapsed(),
                        auction.bids.len() as u64,
                    );
                    payload
                }
                (MarketKind::Auction(_), _) => {
                    metrics.rejected += 1;
                    Payload::Failed(RequestError::MarketMismatch)
                }
                (MarketKind::PostedPrice, Request::Quote(query)) => {
                    posted_work += 1;
                    metrics.quotes_served += 1;
                    Payload::Quoted(state.session.step(&query.features, query.reserve_price))
                }
                (MarketKind::PostedPrice, Request::Observe(outcome)) => {
                    posted_work += 1;
                    match state.session.observe(step_outcome(outcome)) {
                        Some(record) => book_observed(metrics, record),
                        None => no_open_round(metrics),
                    }
                }
                // Privacy traffic is timed per request: every quote first
                // consults the owner ledgers, so this is not the posted-price
                // hot path.
                (MarketKind::Privacy(_), Request::Quote(query)) => {
                    // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
                    let started = Instant::now();
                    let payload = Self::serve_privacy_quote(state, metrics, query);
                    obs.registry.record_span(obs.quote, started.elapsed(), 1);
                    payload
                }
                (MarketKind::Privacy(_), Request::Observe(outcome)) => {
                    // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
                    let started = Instant::now();
                    let payload = Self::serve_privacy_observe(state, metrics, obs, outcome);
                    obs.registry.record_span(obs.observe, started.elapsed(), 1);
                    payload
                }
            };
            responses.push(Response {
                seq: *seq,
                tenant,
                shard: self.index,
                payload,
            });
        }
        if let Some(started) = posted_started.filter(|_| posted_work > 0) {
            obs.registry
                .record_span(obs.quote, started.elapsed(), posted_work);
        }

        let mechanism = state.session.mechanism();
        metrics.drift_fires += mechanism.detector_fires() - fires_before;
        metrics.drift_restarts += mechanism.restarts() - restarts_before;
    }

    /// Settles one self-contained auction round: reserve quote, eager
    /// second-price clearing, policy feedback — all through the shared
    /// [`pdm_auction::run_auction_round`] path.  A tenant of another market
    /// kind rejects the round.  Drift deltas are accounted by the enclosing
    /// run.
    fn serve_auction(
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

    /// Serves one quote for a privacy tenant.
    ///
    /// The quote first consults the tenant's [`crate::LedgerBank`]: owners
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
    fn serve_privacy_quote(
        state: &mut TenantState,
        metrics: &mut ShardMetrics,
        query: &QueryRequest,
    ) -> Payload {
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
            // A sellable supply has an active non-zero coordinate, so the
            // session never refuses here; refusing the request is still
            // strictly safer than panicking.  Both sides of the round state
            // drop together — the staged charge and any open round — so
            // quote and charge stay in lockstep.
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

    /// Serves one observe for a privacy tenant: closes the session round,
    /// then settles the staged charge against the owner ledgers, so the
    /// record carries the clamped price the buyer saw.
    fn serve_privacy_observe(
        state: &mut TenantState,
        metrics: &mut ShardMetrics,
        obs: &mut ShardObs,
        outcome: &OutcomeReport,
    ) -> Payload {
        let Some(mut record) = state.session.observe(step_outcome(outcome)) else {
            // No open round: nothing was staged on the bank either (quote
            // and charge are staged in lockstep).
            return no_open_round(metrics);
        };
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
                metrics.epsilon_spent += charge.total_leakage;
                metrics.compensation_paid += charge.total_compensation;
            }
        }
        book_observed(metrics, record)
    }
}

/// The session-level outcome of an observe request.
fn step_outcome(outcome: &OutcomeReport) -> StepOutcome {
    StepOutcome {
        accepted: outcome.accepted,
        market_value: outcome.market_value,
    }
}

/// Books one closed round into the shard ledger — the accounting
/// posted-price and privacy observes share.
fn book_observed(metrics: &mut ShardMetrics, record: ObservedRound) -> Payload {
    metrics.observations += 1;
    if record.accepted {
        metrics.sales += 1;
    }
    metrics.revenue += record.revenue;
    if let Some(regret) = record.regret {
        metrics.regret += regret;
    }
    metrics.regret_proxy += record.uncertainty_width;
    Payload::Observed(record)
}

/// Rejects an observe that found no open round to close.
fn no_open_round(metrics: &mut ShardMetrics) -> Payload {
    metrics.rejected += 1;
    Payload::Failed(RequestError::NoOpenRound)
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
    fn an_auction_inside_a_posted_run_is_rejected_without_breaking_the_round() {
        // One posted-price tenant, one drain, one same-tenant run: the
        // misaddressed auction round between the quote and its observe is
        // refused, and the round it interrupts still closes.
        let mut shard = shard_with_tenant();
        shard.enqueue(0, quote_request());
        shard.enqueue(
            1,
            Request::Auction(AuctionRequest {
                tenant: TenantId(1),
                features: Vector::from_slice(&[0.6, 0.8]),
                floor: 0.1,
                bids: vec![1.0, 0.5],
            }),
        );
        shard.enqueue(
            2,
            Request::Observe(OutcomeReport {
                tenant: TenantId(1),
                accepted: true,
                market_value: Some(1.0),
            }),
        );
        let responses = shard.process_all();
        assert!(matches!(responses[0].payload, Payload::Quoted(_)));
        assert_eq!(
            responses[1].payload,
            Payload::Failed(RequestError::MarketMismatch)
        );
        assert!(matches!(responses[2].payload, Payload::Observed(_)));
        assert_eq!(shard.metrics.rejected, 1);
        assert_eq!(shard.metrics.quotes_served, 1);
        assert_eq!(shard.metrics.observations, 1);
        assert_eq!(shard.metrics.auction.auctions, 0);
        // One quote span covers the run's posted work; the auction round
        // keeps its own span.
        let quote = shard
            .obs
            .registry
            .histogram_counts("shard.quote.work_items")
            .unwrap();
        assert_eq!((quote.count(), quote.sum()), (1, 2));
        let auction = shard
            .obs
            .registry
            .histogram_counts("shard.auction.work_items")
            .unwrap();
        assert_eq!((auction.count(), auction.sum()), (1, 2));
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
