//! Cold-tenant pages: a paged-out tenant as a typed little-endian image.
//!
//! A page carries exactly the fields of the tenant's snapshot document, in
//! the document's order, with no `Json` tree in either direction: floats
//! as their `to_bits`, counts as `u64`, flags as one byte, and the market
//! kind, auction policy, drift policy and optional `epsilon` as one-byte
//! tags.  A variable-length field (the knowledge set, a bid history, a
//! privacy column, the drift window) is a count followed by its entries.
//! Like the document, a page leaves out the cut scratch and the
//! mechanism's diagnostic counters, so paging resets exactly what a
//! snapshot restore resets.
//!
//! One walk ([`walk`]) lists the fields for both directions, so the writer
//! and the reader cannot disagree on the layout.  The reader fills the
//! [`TenantParts`] the JSON reader fills and builds them through the same
//! [`TenantParts::build`], so a page runs every check a restore runs.  A
//! damaged page is an `Err`, never a panic: every read is bounds-checked,
//! and a count is checked against the bytes left before anything is
//! allocated for it.  Pages never leave the process, so the layout carries
//! no version.

use std::convert::Infallible;
use std::mem::discriminant;

use crate::api::ServiceError;
use crate::snapshot::{
    DriftRestore, LedgerRestore, SessionCounters, TenantParts, SNAPSHOT_SCHEMA_VERSION,
};
use crate::tenant::{AuctionPolicy, MarketKind, PrivacyParams, TenantState};
use pdm_auction::EmpiricalReserve;
use pdm_linalg::OnlineStats;
use pdm_pricing::prelude::{DriftPolicy, RegretReport, SurprisalDriftDetector};

/// Pages a tenant out, into an allocation of exactly the page's length.
pub(crate) fn write_page(state: &TenantState) -> Vec<u8> {
    let mut parts = TenantParts::of(state);
    let mut len = 0;
    let Ok(()) = walk(&mut len, &mut parts);
    let mut page = Vec::with_capacity(len);
    let Ok(()) = walk(&mut page, &mut parts);
    page
}

/// Reads a page written by [`write_page`] back into a live tenant.
pub(crate) fn read_page(page: &[u8]) -> Result<TenantState, ServiceError> {
    let mut reader = PageReader { page, at: 0 };
    let mut parts = TenantParts::blank(SNAPSHOT_SCHEMA_VERSION);
    walk(&mut reader, &mut parts)?;
    if reader.at != page.len() {
        return Err(reader.error("trailing bytes"));
    }
    parts.build()
}

impl TenantParts {
    /// The fields a page carries, copied out of a live tenant.
    fn of(state: &TenantState) -> Self {
        let mechanism = state.session.mechanism();
        let knowledge = mechanism.knowledge();
        let owners = state.privacy.as_ref().map(|bank| {
            let owners = bank.ledgers();
            LedgerRestore {
                epsilon_spent: owners.iter().map(|owner| owner.epsilon_spent).collect(),
                compensation: owners
                    .iter()
                    .map(|owner| owner.compensation_accrued)
                    .collect(),
                queries: owners.iter().map(|owner| owner.queries).collect(),
                exhausted: owners.iter().map(|owner| owner.exhausted).collect(),
                epsilon_spent_total: bank.epsilon_spent_total(),
                compensation_total: bank.compensation_total(),
            }
        });
        Self {
            id: state.id,
            version: SNAPSHOT_SCHEMA_VERSION,
            config: state.config,
            center: knowledge.center().as_slice().to_vec(),
            shape: knowledge.shape().as_slice().to_vec(),
            history: state
                .empirical
                .iter()
                .flat_map(EmpiricalReserve::history)
                .collect(),
            owners: owners.unwrap_or_default(),
            detector: DriftRestore {
                fires: mechanism.detector_fires(),
                restarts: mechanism.restarts(),
                flags: mechanism
                    .detector()
                    .into_iter()
                    .flat_map(SurprisalDriftDetector::window_flags)
                    .collect(),
            },
            ledger: Some(state.session.tracker().report()),
            counters: Some(SessionCounters {
                rounds_closed: state.session.rounds_closed(),
                sales: state.session.sales(),
                revenue: state.session.revenue(),
                regret_proxy: state.session.regret_proxy(),
            }),
        }
    }
}

/// One direction of the page codec.  Writing reads each field it is
/// handed, reading overwrites it.
trait Io {
    type Error;
    /// Puts or takes eight bytes.
    fn word(&mut self, word: &mut u64) -> Result<(), Self::Error>;
    /// Puts or takes one byte, which reading requires to be below `end`.
    fn tag(&mut self, tag: &mut usize, end: usize) -> Result<(), Self::Error>;
    /// Puts or takes a count of entries `width` bytes wide; reading
    /// refuses a count the rest of the page cannot hold.
    fn count(&mut self, len: &mut usize, width: usize) -> Result<(), Self::Error>;
}

/// Counts a page's bytes.
impl Io for usize {
    type Error = Infallible;
    fn word(&mut self, _: &mut u64) -> Result<(), Infallible> {
        *self += 8;
        Ok(())
    }
    fn tag(&mut self, _: &mut usize, _: usize) -> Result<(), Infallible> {
        *self += 1;
        Ok(())
    }
    fn count(&mut self, _: &mut usize, _: usize) -> Result<(), Infallible> {
        *self += 8;
        Ok(())
    }
}

/// Writes a page.
impl Io for Vec<u8> {
    type Error = Infallible;
    fn word(&mut self, word: &mut u64) -> Result<(), Infallible> {
        self.extend_from_slice(&word.to_le_bytes());
        Ok(())
    }
    fn tag(&mut self, tag: &mut usize, _: usize) -> Result<(), Infallible> {
        self.push(tag.to_le_bytes()[0]);
        Ok(())
    }
    fn count(&mut self, len: &mut usize, _: usize) -> Result<(), Infallible> {
        self.extend_from_slice(&(*len as u64).to_le_bytes());
        Ok(())
    }
}

/// Reads a page; every read is bounds-checked.
struct PageReader<'a> {
    page: &'a [u8],
    at: usize,
}

impl PageReader<'_> {
    fn error(&self, what: &str) -> ServiceError {
        ServiceError::MalformedSnapshot(format!("cold page: {what} at byte {}", self.at))
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], ServiceError> {
        let Some(bytes) = self.page[self.at..].first_chunk::<N>() else {
            return Err(self.error("truncated"));
        };
        self.at += N;
        Ok(*bytes)
    }
}

impl Io for PageReader<'_> {
    type Error = ServiceError;
    fn word(&mut self, word: &mut u64) -> Result<(), ServiceError> {
        *word = u64::from_le_bytes(self.take()?);
        Ok(())
    }
    fn tag(&mut self, tag: &mut usize, end: usize) -> Result<(), ServiceError> {
        let [byte] = self.take()?;
        *tag = usize::from(byte);
        if *tag >= end {
            return Err(self.error("an unknown tag"));
        }
        Ok(())
    }
    fn count(&mut self, len: &mut usize, width: usize) -> Result<(), ServiceError> {
        let word = u64::from_le_bytes(self.take()?);
        let left = self.page.len() - self.at;
        match usize::try_from(word) {
            Ok(count) if count.checked_mul(width).is_some_and(|bytes| bytes <= left) => {
                *len = count;
                Ok(())
            }
            _ => Err(self.error("a count past the end of the page")),
        }
    }
}

fn f64<I: Io>(io: &mut I, value: &mut f64) -> Result<(), I::Error> {
    let mut bits = value.to_bits();
    io.word(&mut bits)?;
    *value = f64::from_bits(bits);
    Ok(())
}

fn flag<I: Io>(io: &mut I, flag: &mut bool) -> Result<(), I::Error> {
    let mut tag = usize::from(*flag);
    io.tag(&mut tag, 2)?;
    *flag = tag == 1;
    Ok(())
}

/// A count, then every entry of `items`.
fn seq<I: Io, T: Default>(
    io: &mut I,
    items: &mut Vec<T>,
    width: usize,
    entry: impl Fn(&mut I, &mut T) -> Result<(), I::Error>,
) -> Result<(), I::Error> {
    let mut len = items.len();
    io.count(&mut len, width)?;
    items.resize_with(len, T::default);
    items.iter_mut().try_for_each(|item| entry(io, item))
}

/// The tag of an enum `value`: its variant's index in `blanks`, one value
/// of each variant.  A different tag read back replaces `value` with that
/// variant's blank, whose fields the walk then fills.
fn variant<I: Io, T: Copy>(io: &mut I, value: &mut T, blanks: &[T]) -> Result<(), I::Error> {
    let of = |value: &T| {
        blanks
            .iter()
            .position(|blank| discriminant(blank) == discriminant(value))
    };
    let mut tag = of(value).unwrap_or(blanks.len());
    io.tag(&mut tag, blanks.len())?;
    if of(value) != Some(tag) {
        *value = blanks[tag];
    }
    Ok(())
}

fn stats<I: Io>(io: &mut I, stats: &mut OnlineStats) -> Result<(), I::Error> {
    let mut count = stats.count();
    let mut values = [
        stats.mean(),
        stats.m2(),
        stats.sum(),
        stats.min(),
        stats.max(),
    ];
    io.word(&mut count)?;
    for value in &mut values {
        f64(io, value)?;
    }
    let [mean, m2, sum, min, max] = values;
    *stats = OnlineStats::from_raw_parts(count, mean, m2, sum, min, max);
    Ok(())
}

/// Every field of a page, in the tenant document's order.
fn walk<I: Io>(io: &mut I, parts: &mut TenantParts) -> Result<(), I::Error> {
    let config = &mut parts.config;
    io.word(&mut parts.id.0)?;
    io.count(&mut config.dim, 0)?;
    let pricing = &mut config.pricing;
    f64(io, &mut pricing.initial_radius)?;
    f64(io, &mut pricing.feature_bound)?;
    io.count(&mut pricing.horizon, 0)?;
    variant(io, &mut pricing.epsilon, &[None, Some(0.0)])?;
    if let Some(epsilon) = &mut pricing.epsilon {
        f64(io, epsilon)?;
    }
    f64(io, &mut pricing.delta)?;
    flag(io, &mut pricing.use_reserve)?;
    flag(io, &mut pricing.cut_on_conservative)?;
    let markets = [
        MarketKind::PostedPrice,
        MarketKind::Auction(AuctionPolicy::Session),
        MarketKind::Privacy(PrivacyParams::default()),
    ];
    variant(io, &mut config.market, &markets)?;
    match &mut config.market {
        MarketKind::PostedPrice => {}
        MarketKind::Auction(policy) => {
            let policies = [
                AuctionPolicy::Session,
                AuctionPolicy::Static { markup: 0.0 },
                AuctionPolicy::Empirical {
                    window: 0,
                    welfare_weight: 0.0,
                },
            ];
            variant(io, policy, &policies)?;
            match policy {
                AuctionPolicy::Session => {}
                AuctionPolicy::Static { markup } => f64(io, markup)?,
                AuctionPolicy::Empirical {
                    window,
                    welfare_weight,
                } => {
                    io.count(window, 0)?;
                    f64(io, welfare_weight)?;
                    seq(io, &mut parts.history, 16, |io, (top, second)| {
                        f64(io, top)?;
                        f64(io, second)
                    })?;
                }
            }
        }
        MarketKind::Privacy(params) => {
            for value in [
                &mut params.epsilon_budget,
                &mut params.compensation_base,
                &mut params.compensation_sensitivity,
                &mut params.data_range,
                &mut params.laplace_scale,
            ] {
                f64(io, value)?;
            }
            let owners = &mut parts.owners;
            seq(io, &mut owners.epsilon_spent, 8, f64)?;
            seq(io, &mut owners.compensation, 8, f64)?;
            seq(io, &mut owners.queries, 8, I::word)?;
            seq(io, &mut owners.exhausted, 1, flag)?;
            f64(io, &mut owners.epsilon_spent_total)?;
            f64(io, &mut owners.compensation_total)?;
        }
    }
    let drifts = [
        DriftPolicy::Static,
        DriftPolicy::Restart {
            window: 0,
            threshold: 0,
        },
        DriftPolicy::Discounted { inflation: 0.0 },
    ];
    variant(io, &mut config.drift, &drifts)?;
    match &mut config.drift {
        DriftPolicy::Static => {}
        DriftPolicy::Restart { window, threshold } => {
            io.count(window, 0)?;
            io.count(threshold, 0)?;
            let detector = &mut parts.detector;
            io.word(&mut detector.fires)?;
            io.word(&mut detector.restarts)?;
            seq(io, &mut detector.flags, 1, flag)?;
        }
        DriftPolicy::Discounted { inflation } => f64(io, inflation)?,
    }
    seq(io, &mut parts.center, 8, f64)?;
    seq(io, &mut parts.shape, 8, f64)?;
    let ledger = parts.ledger.get_or_insert_with(RegretReport::empty);
    io.count(&mut ledger.rounds, 0)?;
    f64(io, &mut ledger.cumulative_regret)?;
    f64(io, &mut ledger.cumulative_market_value)?;
    f64(io, &mut ledger.cumulative_revenue)?;
    io.count(&mut ledger.sales, 0)?;
    io.count(&mut ledger.unsellable_rounds, 0)?;
    for series in [
        &mut ledger.market_value_stats,
        &mut ledger.reserve_price_stats,
        &mut ledger.posted_price_stats,
        &mut ledger.regret_stats,
    ] {
        stats(io, series)?;
    }
    let counters = parts.counters.get_or_insert_with(SessionCounters::default);
    io.word(&mut counters.rounds_closed)?;
    io.word(&mut counters.sales)?;
    f64(io, &mut counters.revenue)?;
    f64(io, &mut counters.regret_proxy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AuctionRequest, OutcomeReport, QueryRequest, Request, Response};
    use crate::routing::TenantId;
    use crate::shard::Shard;
    use crate::snapshot::{tenant_from_json, tenant_json};
    use crate::tenant::TenantConfig;
    use pdm_linalg::{Json, Vector};

    /// Every kind of tenant a page must carry, at `dim`.
    fn kinds(dim: usize) -> Vec<(&'static str, TenantConfig)> {
        let privacy = PrivacyParams {
            epsilon_budget: 1.2,
            ..PrivacyParams::default()
        };
        vec![
            ("posted", TenantConfig::standard(dim, 200)),
            ("pinned epsilon, conservative cuts, no reserve", {
                let mut config = TenantConfig::standard(dim, 200);
                config.pricing = config
                    .pricing
                    .with_epsilon(0.02)
                    .with_conservative_cuts(true)
                    .with_reserve(false);
                config
            }),
            (
                "session auction",
                TenantConfig::auction(dim, 200, AuctionPolicy::Session),
            ),
            (
                "static auction",
                TenantConfig::auction(dim, 200, AuctionPolicy::Static { markup: 0.05 }),
            ),
            (
                "empirical auction",
                TenantConfig::auction(
                    dim,
                    200,
                    AuctionPolicy::Empirical {
                        window: 4,
                        welfare_weight: 0.25,
                    },
                ),
            ),
            ("privacy", TenantConfig::privacy(dim, 200, privacy)),
            (
                "restart drift",
                TenantConfig::standard(dim, 200).with_drift(DriftPolicy::Restart {
                    window: 64,
                    threshold: 2,
                }),
            ),
            (
                "discounted drift",
                TenantConfig::standard(dim, 200)
                    .with_drift(DriftPolicy::Discounted { inflation: 1.01 }),
            ),
        ]
    }

    /// Serves `rounds` of a deterministic stream to the one tenant of
    /// `shard`: one auction per round for auction tenants, a quote and its
    /// outcome otherwise (every fourth outcome accept-only).
    fn serve(shard: &mut Shard, config: &TenantConfig, rounds: std::ops::Range<usize>) -> String {
        let tenant = TenantId(1);
        let mut seq = 0;
        for round in rounds {
            let t = round as f64 * 0.37;
            let features = Vector::from_fn(config.dim, |i| (t + i as f64).cos().abs() * 0.6);
            let value = 0.3 + 0.4 * t.sin().abs();
            let requests = if config.market.auction_policy().is_some() {
                vec![Request::Auction(AuctionRequest {
                    tenant,
                    features,
                    floor: 0.1,
                    bids: vec![value + 0.2, value],
                })]
            } else {
                vec![
                    Request::Quote(QueryRequest {
                        tenant,
                        features,
                        // Accepting a certain no-sale quote surprises the
                        // drift detector.
                        reserve_price: if round.is_multiple_of(5) { 50.0 } else { 0.05 },
                    }),
                    Request::Observe(OutcomeReport {
                        tenant,
                        accepted: !round.is_multiple_of(3),
                        market_value: (!round.is_multiple_of(4)).then_some(value),
                    }),
                ]
            };
            for request in requests {
                shard.enqueue(seq, request);
                seq += 1;
            }
        }
        let responses: Vec<Response> = shard.process_all();
        format!("{responses:?}")
    }

    /// A shard holding `state` as its only tenant.
    fn shard_of(state: TenantState) -> Shard {
        let mut shard = Shard::new(0, None, false);
        shard.register(state);
        shard
    }

    fn state(shard: &Shard) -> &TenantState {
        shard
            .resident_state(TenantId(1))
            .expect("the tenant is resident")
    }

    #[test]
    fn every_tenant_kind_round_trips_through_its_page() {
        for dim in 1..=8 {
            for (kind, config) in kinds(dim) {
                let what = format!("{kind} at dim {dim}");
                let mut live = shard_of(TenantState::new(TenantId(1), config));
                serve(&mut live, &config, 0..10 + dim);
                let served = state(&live);
                let text = tenant_json(served).render();
                let page = write_page(served);
                assert_eq!(page.capacity(), page.len(), "{what}");
                let from_page = read_page(&page).unwrap();
                assert_eq!(tenant_json(&from_page).render(), text, "{what}");
                let from_json =
                    tenant_from_json(&Json::parse(&text).unwrap(), SNAPSHOT_SCHEMA_VERSION)
                        .unwrap();
                // The two restored tenants quote the next rounds alike, and
                // as the live one does.
                let mut paged = shard_of(from_page);
                let mut restored = shard_of(from_json);
                let expected = serve(&mut live, &config, 100..120);
                assert_eq!(serve(&mut paged, &config, 100..120), expected, "{what}");
                assert_eq!(serve(&mut restored, &config, 100..120), expected, "{what}");
                let after = tenant_json(state(&live)).render();
                assert_eq!(tenant_json(state(&paged)).render(), after, "{what}");
            }
        }
    }

    #[test]
    fn the_round_trips_cover_the_state_each_kind_carries() {
        let dim = 3;
        for (kind, config) in kinds(dim) {
            let mut shard = shard_of(TenantState::new(TenantId(1), config));
            serve(&mut shard, &config, 0..10 + dim);
            let served = state(&shard);
            let mechanism = served.session.mechanism();
            match kind {
                "empirical auction" => {
                    let setter = served.empirical.as_ref().unwrap();
                    assert_eq!(setter.history().count(), 4, "a full window");
                }
                "privacy" => {
                    assert!(served.bank().owners_exhausted() > 0);
                }
                "restart drift" => {
                    let flags = mechanism.detector().unwrap().window_flags().count();
                    assert!(flags > 0 && flags < 64, "part-way through: {flags}");
                    assert!(mechanism.detector_fires() > 0 && mechanism.restarts() > 0);
                }
                _ => {}
            }
            assert!(served.session.rounds_closed() > 0 || kind.contains("auction"));
        }
    }

    /// The page of every tenant kind at dim 2 after a few rounds, the
    /// posted tenant's first.
    fn served_pages() -> Vec<Vec<u8>> {
        kinds(2)
            .into_iter()
            .map(|(_, config)| {
                let mut shard = shard_of(TenantState::new(TenantId(1), config));
                serve(&mut shard, &config, 0..6);
                write_page(state(&shard))
            })
            .collect()
    }

    #[test]
    fn damaged_pages_fail_to_decode_without_panicking() {
        for page in served_pages() {
            assert!(read_page(&page).is_ok());
            for len in 0..page.len() {
                assert!(
                    read_page(&page[..len]).is_err(),
                    "a {len}-byte prefix of a {}-byte page read back",
                    page.len()
                );
            }
            // A flipped bit may still read as some state; it must not panic.
            let mut damaged = page.clone();
            for at in 0..page.len() {
                for bit in 0..8 {
                    damaged[at] ^= 1 << bit;
                    let outcome = std::panic::catch_unwind(|| read_page(&damaged).is_ok());
                    assert!(outcome.is_ok(), "flipping bit {bit} of byte {at} panicked");
                    damaged[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn forged_counts_fail_before_anything_is_allocated() {
        // The dim follows the id; the centre's count follows the pricing
        // config and the market and drift tags of a static posted tenant.
        const DIM_AT: usize = 8;
        const CENTER_COUNT_AT: usize = 8 + 8 + 8 + 8 + 8 + 1 + 8 + 1 + 1 + 1 + 1;
        let page = &served_pages()[0];
        let word = |at: usize| u64::from_le_bytes(*page[at..].first_chunk().unwrap());
        assert_eq!((word(DIM_AT), word(CENTER_COUNT_AT)), (2, 2));
        for at in [DIM_AT, CENTER_COUNT_AT] {
            for forged in [u64::MAX, u64::MAX / 8 + 1, 1 << 62, 4] {
                let mut damaged = page.clone();
                damaged[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                assert!(read_page(&damaged).is_err(), "{forged} at byte {at}");
            }
        }
        // Forged anywhere, a huge word reads as an error or a state, and
        // never as a count the reader allocates for.
        for at in 0..page.len() - 8 {
            for forged in [u64::MAX, u64::MAX / 8 + 1] {
                let mut damaged = page.clone();
                damaged[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                let outcome = std::panic::catch_unwind(|| read_page(&damaged).is_ok());
                assert!(outcome.is_ok(), "{forged} at byte {at} panicked");
            }
        }
    }
}
