//! The serial per-tenant replay: the bit-identity verifier, and the source
//! of the `session` and `kernel` layer timings.
//!
//! The live run folds every tenant's surfaced prices, revenues and regrets
//! into one hash per tenant.  The replay regenerates each tenant's stream
//! from the seed and drives it again, serially and in serve order, through
//! the same public entry points the shard uses — once through a
//! `PricingSession` (the `session` layer) and, in the traced run, once
//! through a bare `TenantMechanism` (the `kernel` layer).  Both must fold to
//! the live hashes bit for bit.
//!
//! Replay proceeds in *chunks*: every tenant of a chunk quotes, then every
//! tenant observes, exactly as one quote drain and one outcome drain do in
//! the live run.  Timed spans cover only the loops of library calls; the
//! ledger bookkeeping of privacy tenants runs in untimed passes between
//! them.

use crate::market::{mix, Market, Round};
use crate::trace::{Layer, Tracer};
use pdm_linalg::Vector;
use pdm_pricing::prelude::{
    single_round_regret, DriftAwarePricing, LinearModel, PostedPriceMechanism, Quote, QuoteKind,
    StepOutcome,
};
use pdm_service::{
    arbitrage_clamp, LedgerBank, TenantConfig, TenantId, TenantMechanism, TenantState,
};

/// One replay chunk: a set of distinct tenants served quote-then-observe.
#[derive(Debug, Clone, Copy)]
pub enum Chunk {
    /// Tenants `start, start+1, …, start+len-1` (mod the tenant count),
    /// served in shard order — one closed-loop wave.
    Window { start: u32, len: u32 },
}

/// Folds one surfaced value into a tenant's hash.
fn fold(hash: &mut u64, value: u64) {
    *hash = mix(*hash ^ value);
}

/// Folds one closed round: the quoted price, the buyer's decision, the
/// revenue and the regret.  The live run and both replays call this with
/// the same values in the same per-tenant order.
pub fn fold_round(hash: &mut u64, posted: f64, accepted: bool, revenue: f64, regret: f64) {
    fold(hash, posted.to_bits());
    fold(hash, u64::from(accepted));
    fold(hash, revenue.to_bits());
    fold(hash, regret.to_bits());
}

/// What a replay measured.
#[derive(Debug, Default, Clone)]
pub struct ReplayStats {
    pub quotes: u64,
    pub observes: u64,
    pub quote_ns: u64,
    pub observe_ns: u64,
    pub exploratory: u64,
    pub conservative: u64,
    pub no_sale: u64,
    pub cuts: u64,
    pub hashes: Vec<u64>,
    /// Bits of each tenant's cumulative regret and revenue (session replay).
    pub totals: Vec<(u64, u64)>,
}

/// Everything a replay needs to regenerate the live stream.
pub struct Plan<'a> {
    pub market: &'a Market,
    pub configs: &'a [TenantConfig],
    pub shard_of: &'a [u32],
    pub chunks: &'a [Chunk],
}

impl Plan<'_> {
    fn tenants_of(&self, chunk: Chunk, out: &mut Vec<u32>) {
        out.clear();
        let Chunk::Window { start, len } = chunk;
        let n = self.configs.len() as u32;
        out.extend((0..len).map(|i| (start + i) % n));
        out.sort_by_key(|&t| self.shard_of[t as usize]);
    }
}

/// Per-tenant state of one in-flight replayed round.
#[derive(Debug, Clone, Copy)]
struct Pending {
    round: Round,
    reserve: f64,
    quote: Option<Quote>,
    surfaced: f64,
    accepted: bool,
}

/// Starts a privacy tenant's quote: the reserve the mechanism sees (lifted
/// to the compensation owed) and the owners' total compensation.
fn begin_privacy(
    bank: &mut LedgerBank,
    features: &Vector,
    reserve: f64,
) -> Result<(f64, f64), String> {
    let supply = bank.begin_quote(features);
    if !supply.sellable || supply.newly_exhausted > 0 || supply.active.iter().any(|a| !a) {
        return Err("a privacy owner exhausted her budget during the run".to_owned());
    }
    Ok((
        reserve.max(supply.total_compensation),
        supply.total_compensation,
    ))
}

/// A layer the replay drives: the session, or the bare mechanism.
trait Target {
    const QUOTE: Layer;
    const OBSERVE: Layer;
    /// The privacy ledger of tenant `t`, when it is a privacy tenant.
    fn bank(&mut self, t: usize) -> Option<&mut LedgerBank>;
    /// Opens round `t` at the given reserve; `None` when the layer refused.
    fn quote(&mut self, t: usize, features: &Vector, reserve: f64) -> Option<Quote>;
    /// Closes the open round of `t`: its revenue and regret.
    fn observe(&mut self, t: usize, features: &Vector, p: &Pending) -> Option<(f64, f64)>;
}

/// The sessions exactly as the service builds them.
struct Sessions {
    states: Vec<TenantState>,
    /// Privacy budgets never run out here, so every owner stays active.
    active: Vec<bool>,
}

impl Target for Sessions {
    const QUOTE: Layer = Layer::SessionStep;
    const OBSERVE: Layer = Layer::SessionObserve;

    fn bank(&mut self, t: usize) -> Option<&mut LedgerBank> {
        self.states[t].privacy.as_mut()
    }

    fn quote(&mut self, t: usize, features: &Vector, reserve: f64) -> Option<Quote> {
        let state = &mut self.states[t];
        if state.privacy.is_some() {
            state
                .session
                .step_throttled(features, &self.active, reserve)
        } else {
            Some(state.session.step(features, reserve))
        }
    }

    fn observe(&mut self, t: usize, _: &Vector, p: &Pending) -> Option<(f64, f64)> {
        let outcome = StepOutcome::with_value(p.accepted, p.round.value);
        let record = self.states[t].session.observe(outcome)?;
        Some((record.revenue, record.regret?))
    }
}

/// Bare mechanisms, with the ledgers the shard keeps beside them.
struct Kernels {
    mechanisms: Vec<TenantMechanism>,
    banks: Vec<Option<LedgerBank>>,
}

impl Target for Kernels {
    const QUOTE: Layer = Layer::KernelQuote;
    const OBSERVE: Layer = Layer::KernelObserve;

    fn bank(&mut self, t: usize) -> Option<&mut LedgerBank> {
        self.banks[t].as_mut()
    }

    fn quote(&mut self, t: usize, features: &Vector, reserve: f64) -> Option<Quote> {
        Some(self.mechanisms[t].quote(features, reserve))
    }

    fn observe(&mut self, t: usize, features: &Vector, p: &Pending) -> Option<(f64, f64)> {
        let quote = p.quote?;
        self.mechanisms[t].observe(features, &quote, p.accepted);
        let revenue = if p.accepted { quote.posted_price } else { 0.0 };
        let regret = single_round_regret(quote.posted_price, p.round.value, p.reserve);
        Some((revenue, regret))
    }
}

/// Replays every chunk through `target`; when `tracer.on`, the loops of
/// quote and observe calls are timed as `T::QUOTE` and `T::OBSERVE`.
fn replay<T: Target>(
    plan: &Plan,
    target: &mut T,
    tracer: &mut Tracer,
) -> Result<ReplayStats, String> {
    let n = plan.configs.len();
    let mut rounds = vec![0u64; n];
    let mut pending: Vec<Option<Pending>> = vec![None; n];
    let mut compensation = vec![0.0f64; n];
    let mut stats = ReplayStats {
        hashes: vec![0; n],
        ..ReplayStats::default()
    };
    let mut tenants = Vec::new();
    let mut closed = Vec::new();
    for (group, &chunk) in plan.chunks.iter().enumerate() {
        let group = group as u64;
        plan.tenants_of(chunk, &mut tenants);
        let count = tenants.len() as u64;
        for &t in &tenants {
            let t = t as usize;
            let round = plan.market.round(t, rounds[t]);
            rounds[t] += 1;
            let features = plan.market.features(round.query);
            let (reserve, owed) = match target.bank(t) {
                Some(bank) => begin_privacy(bank, features, round.reserve)?,
                None => (round.reserve, 0.0),
            };
            compensation[t] = owed;
            pending[t] = Some(Pending {
                round,
                reserve,
                quote: None,
                surfaced: 0.0,
                accepted: false,
            });
        }
        let started = tracer.start();
        for &t in &tenants {
            let t = t as usize;
            let p = pending[t].as_mut().expect("pending round");
            p.quote = target.quote(t, plan.market.features(p.round.query), p.reserve);
        }
        tracer.end(T::QUOTE, group, started, count);
        for &t in &tenants {
            let t = t as usize;
            let p = pending[t].as_mut().expect("pending round");
            let quote = p.quote.ok_or("a sellable quote was refused")?;
            match quote.kind {
                QuoteKind::Exploratory => stats.exploratory += 1,
                QuoteKind::Conservative => stats.conservative += 1,
                QuoteKind::CertainNoSale => stats.no_sale += 1,
                QuoteKind::Baseline => {}
            }
            p.surfaced = match target.bank(t) {
                Some(bank) => {
                    let (price, _) =
                        arbitrage_clamp(quote.posted_price, p.reserve, compensation[t]);
                    bank.commit_quote(price);
                    price
                }
                None => quote.posted_price,
            };
            p.accepted = p.surfaced <= p.round.value;
        }
        closed.clear();
        let started = tracer.start();
        for &t in &tenants {
            let t = t as usize;
            let p = pending[t].as_ref().expect("pending round");
            closed.push(target.observe(t, plan.market.features(p.round.query), p));
        }
        tracer.end(T::OBSERVE, group, started, count);
        for (&t, result) in tenants.iter().zip(closed.drain(..)) {
            let t = t as usize;
            let p = pending[t].take().expect("pending round");
            let (mut revenue, regret) = result.ok_or("an outcome was dropped")?;
            if let Some(bank) = target.bank(t) {
                let charge = bank
                    .settle(p.accepted)
                    .ok_or("privacy settle without a charge")?;
                revenue = if p.accepted { charge.quoted_price } else { 0.0 };
            }
            fold_round(
                &mut stats.hashes[t],
                p.surfaced,
                p.accepted,
                revenue,
                regret,
            );
        }
        stats.quotes += count;
        stats.observes += count;
    }
    stats.quote_ns = tracer.total(T::QUOTE).ns;
    stats.observe_ns = tracer.total(T::OBSERVE).ns;
    Ok(stats)
}

/// Replays the stream through `PricingSession` — the verifier, and the
/// `session` layer.
pub fn replay_session(plan: &Plan, tracer: &mut Tracer) -> Result<ReplayStats, String> {
    let mut sessions = Sessions {
        states: plan
            .configs
            .iter()
            .enumerate()
            .map(|(t, config)| TenantState::new(TenantId(t as u64), *config))
            .collect(),
        active: vec![true; plan.configs.first().map_or(0, |c| c.dim)],
    };
    let mut stats = replay(plan, &mut sessions, tracer)?;
    stats.totals = sessions
        .states
        .iter()
        .map(|s| {
            let report = s.session.tracker().report();
            (
                report.cumulative_regret.to_bits(),
                report.cumulative_revenue.to_bits(),
            )
        })
        .collect();
    Ok(stats)
}

/// Replays the stream through the bare mechanism — the `kernel` layer —
/// with the same ledger bookkeeping as the shard, so it folds to the same
/// hashes.
pub fn replay_kernel(plan: &Plan, tracer: &mut Tracer) -> Result<ReplayStats, String> {
    let mut kernels = Kernels {
        mechanisms: plan
            .configs
            .iter()
            .map(|c| DriftAwarePricing::new(LinearModel::new(c.dim), c.pricing, c.drift))
            .collect(),
        banks: plan
            .configs
            .iter()
            .map(|c| c.market.privacy_params().map(|p| LedgerBank::new(c.dim, p)))
            .collect(),
    };
    let mut stats = replay(plan, &mut kernels, tracer)?;
    stats.cuts = kernels
        .mechanisms
        .iter()
        .map(|m| m.inner().cuts_applied() as u64)
        .sum();
    Ok(stats)
}
