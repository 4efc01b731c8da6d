//! The live-run driver shared by every workload: it generates requests,
//! admits them through `MarketService::ingest`, drains, answers quotes with
//! outcomes, folds every surfaced value into the per-tenant hashes the
//! replay checks, and keeps the latency samples and trace spans.

use crate::market::{Market, Round};
use crate::replay::{fold_round, Chunk};
use crate::trace::{micros, Layer, Slices, Tracer};
use pdm_service::{
    MarketService, OutcomeReport, Payload, QueryRequest, Request, Response, TenantId,
};
use std::time::Instant;

/// The in-flight round of one tenant.
#[derive(Debug, Clone, Copy)]
struct Flight {
    round: Round,
    /// When the quote was due: its ingest.
    due: Instant,
    /// When the last request of this round was ingested.
    ingested: Instant,
    posted: f64,
    accepted: bool,
}

#[derive(Debug)]
pub struct Driver<'a> {
    market: &'a Market,
    pub workers: usize,
    rounds: Vec<u64>,
    flight: Vec<Option<Flight>>,
    pub hashes: Vec<u64>,
    /// Regret and market value over each tenant's first `regret_rounds`
    /// rounds — fixed work, so `regret_ratio` is a pure function of the
    /// seed.
    regret_rounds: u64,
    regret: Vec<f64>,
    value: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Completed quote→observe pairs while `recording`.
    pub pairs: u64,
    /// Whether latency samples and pair counts are recorded (the timed
    /// phase), as opposed to warm-up and verification waves.
    pub recording: bool,
    /// Latency samples and per-slice results of the timed phase.
    pub slices: Slices,
    pub tracer: Tracer,
    /// Requests generated for the current step, reused across steps.
    pub requests: Vec<Request>,
    responses: Vec<Response>,
    /// Everything served, as replay chunks in serve order.
    pub chunks: Vec<Chunk>,
}

impl<'a> Driver<'a> {
    pub fn new(market: &'a Market, workers: usize, regret_rounds: u64) -> Self {
        let n = market.tenants();
        Self {
            market,
            workers,
            rounds: vec![0; n],
            flight: vec![None; n],
            hashes: vec![0; n],
            regret_rounds,
            regret: vec![0.0; n],
            value: vec![0.0; n],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            pairs: 0,
            recording: false,
            slices: Slices::new(),
            tracer: Tracer::new(),
            requests: Vec::new(),
            responses: Vec::new(),
            chunks: Vec::new(),
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Generates the next quote of `tenant`, due at `due`.
    pub fn quote_request(&mut self, tenant: usize, due: Instant) -> Request {
        let round = self.market.round(tenant, self.rounds[tenant]);
        self.rounds[tenant] += 1;
        self.flight[tenant] = Some(Flight {
            round,
            due,
            ingested: due,
            posted: 0.0,
            accepted: false,
        });
        Request::Quote(QueryRequest {
            tenant: TenantId(tenant as u64),
            features: self.market.features(round.query).clone(),
            reserve_price: round.reserve,
        })
    }

    /// Admits one request; returns when it was admitted.
    pub fn ingest(&mut self, service: &MarketService, request: Request) -> Instant {
        let tenant = request.tenant().0 as usize;
        self.attempted += 1;
        let result = service.ingest(request);
        let now = Instant::now();
        match result {
            Ok(_) => {
                if let Some(flight) = self.flight[tenant].as_mut() {
                    flight.ingested = now;
                }
            }
            Err(e) => self.fail(format!("ingest: {e}")),
        }
        now
    }

    /// One `drain_into`, then every response handled; the outcomes that
    /// answer this drain's quotes are left in `self.requests`.  Returns the
    /// instant the drain returned.
    pub fn drain(&mut self, service: &mut MarketService, group: u64) -> Instant {
        let mut responses = std::mem::take(&mut self.responses);
        responses.clear();
        let started = Instant::now();
        service.drain_into(self.workers, &mut responses);
        let returned = Instant::now();
        if self.tracer.on {
            self.tracer.add(
                Layer::Drain,
                group,
                started,
                returned - started,
                responses.len() as u64,
            );
        }
        let span = self.tracer.start();
        for response in &responses {
            self.respond(response, started, returned);
        }
        self.tracer
            .end(Layer::Respond, group, span, responses.len() as u64);
        self.responses = responses;
        returned
    }

    /// Handles one response: a quote is answered with its outcome (queued in
    /// `self.requests`), an observed round closes the pair.
    fn respond(&mut self, response: &Response, drain_started: Instant, returned: Instant) {
        let tenant = response.tenant.0 as usize;
        let Some(mut flight) = self.flight[tenant] else {
            self.fail(format!("response for idle tenant {tenant}"));
            return;
        };
        if self.tracer.on {
            self.tracer.queue_wait_us.push(micros(
                drain_started.saturating_duration_since(flight.ingested),
            ));
        }
        match &response.payload {
            Payload::Quoted(quote) => {
                if self.recording {
                    self.slices
                        .latency_us
                        .push(micros(returned.saturating_duration_since(flight.due)));
                }
                flight.posted = quote.posted_price;
                flight.accepted = quote.posted_price <= flight.round.value;
                self.flight[tenant] = Some(flight);
                self.requests.push(Request::Observe(OutcomeReport {
                    tenant: response.tenant,
                    accepted: flight.accepted,
                    market_value: Some(flight.round.value),
                }));
            }
            Payload::Observed(record) => {
                let regret = record.regret.unwrap_or(f64::NAN);
                fold_round(
                    &mut self.hashes[tenant],
                    flight.posted,
                    flight.accepted,
                    record.revenue,
                    regret,
                );
                if self.rounds[tenant] <= self.regret_rounds {
                    self.regret[tenant] += regret;
                    self.value[tenant] += flight.round.value;
                }
                self.flight[tenant] = None;
                if self.recording {
                    self.pairs += 1;
                }
            }
            Payload::Failed(e) => self.fail(format!("tenant {tenant}: {e}")),
            Payload::Cleared(_) => self.fail(format!("tenant {tenant}: unexpected auction")),
        }
    }

    /// The responses of the last drain.
    pub fn last_responses(&self) -> &[Response] {
        &self.responses
    }

    /// One closed-loop wave over `tenants` (in ingest order): every tenant
    /// quotes, one drain, every tenant's outcome, one drain.
    pub fn wave(&mut self, service: &mut MarketService, tenants: &[u32], chunk: Chunk, group: u64) {
        let wave_start = Instant::now();
        let span = self.tracer.start();
        for &t in tenants {
            let request = self.quote_request(t as usize, wave_start);
            self.requests.push(request);
        }
        self.tracer
            .end(Layer::Gen, group, span, tenants.len() as u64);
        self.ingest_all(service, group, Some(wave_start));
        for _ in 0..2 {
            self.drain(service, group);
            if self.requests.is_empty() {
                break;
            }
            self.ingest_all(service, group, None);
        }
        self.chunks.push(chunk);
    }

    /// Ingests everything in `self.requests`.  With `wave_start`, each
    /// quote's due time is its own ingest and its generator lag is counted
    /// from the wave's start.
    fn ingest_all(&mut self, service: &MarketService, group: u64, wave_start: Option<Instant>) {
        let requests = std::mem::take(&mut self.requests);
        let count = requests.len() as u64;
        let span = self.tracer.start();
        for request in requests {
            let tenant = request.tenant().0 as usize;
            let at = self.ingest(service, request);
            if let Some(start) = wave_start {
                if let Some(flight) = self.flight[tenant].as_mut() {
                    flight.due = at;
                }
                if self.recording {
                    self.slices.lag_us.push(micros(at - start));
                }
            }
        }
        self.tracer.end(Layer::Ingest, group, span, count);
    }

    /// `regret_ratio` over the first `regret_rounds` rounds of every tenant,
    /// or an error when some tenant never got that far.
    pub fn regret_ratio(&self) -> Result<f64, String> {
        if let Some(t) = self.rounds.iter().position(|&r| r < self.regret_rounds) {
            return Err(format!(
                "tenant {t} served {} rounds, fewer than the {} regret_ratio covers",
                self.rounds[t], self.regret_rounds
            ));
        }
        let regret: f64 = self.regret.iter().sum();
        let value: f64 = self.value.iter().sum();
        Ok(regret / value)
    }
}
