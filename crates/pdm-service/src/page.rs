//! The one list of a tenant's persisted fields, and cold-tenant pages.
//!
//! [`walk`] lists every field of a tenant's snapshot/WAL document once,
//! under its key and in its object, and that one list drives four
//! directions of the [`Io`] trait: a page's byte count and the page bytes
//! (a [`Sink`]), the document's `Json` tree ([`JsonOut`]), and the document
//! read back ([`Reader`](crate::reader::Reader)).  So a page and a document
//! carry the same fields in the same order, and no direction can disagree
//! with another on the layout; each value's page bytes and JSON form live
//! on its [`Leaf`] impl.  Both readers fill the same [`TenantParts`] and
//! build them through the same [`TenantParts::build`], so a page runs every
//! check a restore runs.  And since a document renders from parts too, a
//! snapshot or checkpoint renders a paged-out tenant straight from the parts
//! its page reads into, without building it.
//!
//! A page is a typed little-endian image with no `Json` tree in either
//! direction: floats as their `to_bits`, counts as `u64`, flags as one
//! byte, and the market kind, auction policy, drift policy and optional
//! `epsilon` as one-byte tags.  A sequence (the knowledge set, a bid
//! history, a privacy column, the drift window) is a count followed by its
//! entries.  Like the document, a page leaves out the cut scratch and the
//! mechanism's diagnostic counters, so paging resets exactly what a
//! snapshot restore resets.  A damaged page is an `Err`, never a panic:
//! every read is bounds-checked, and a count is checked against the bytes
//! left before anything is allocated for it.  Pages never leave the
//! process, so the layout carries no version.

use std::convert::Infallible;
use std::mem::discriminant;

use crate::api::ServiceError;
use crate::routing::TenantId;
use crate::snapshot::{
    DriftRestore, LedgerRestore, SessionCounters, TenantParts, SNAPSHOT_SCHEMA_VERSION,
};
use crate::tenant::{AuctionPolicy, MarketKind, PrivacyParams, TenantState};
use pdm_auction::EmpiricalReserve;
use pdm_linalg::json::Key;
use pdm_linalg::{Json, OnlineStats};
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

/// Reads a page written by [`write_page`] back into the fields it carries,
/// unchecked and unbuilt.
pub(crate) fn read_parts(page: &[u8]) -> Result<TenantParts, ServiceError> {
    let mut reader = PageReader { page, at: 0 };
    let mut parts = TenantParts::blank(SNAPSHOT_SCHEMA_VERSION);
    walk(&mut reader, &mut parts)?;
    if reader.at != page.len() {
        return Err(reader.error("trailing bytes"));
    }
    Ok(parts)
}

/// Reads a page written by [`write_page`] back into a live tenant.
pub(crate) fn read_page(page: &[u8]) -> Result<TenantState, ServiceError> {
    read_parts(page)?.build()
}

impl TenantParts {
    /// The fields a tenant persists, copied out of a live tenant.
    pub(crate) fn of(state: &TenantState) -> Self {
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

    /// The tenant's snapshot/WAL document.
    pub(crate) fn json(&mut self) -> Json {
        JsonOut::write(|out| walk(out, self))
    }
}

/// One direction of a walk.  Writing reads each field it is handed,
/// reading overwrites it.  Pages have no keys and no objects.
pub(crate) trait Io: Sized {
    type Error;
    /// Puts or takes one value.
    fn leaf<T: Leaf>(&mut self, key: &'static str, value: &mut T) -> Result<(), Self::Error>;
    /// Puts or takes the index of a variant in `names`: a one-byte tag on a
    /// page, the variant's name in a document, where another name is an
    /// unknown `noun`.
    fn tag(
        &mut self,
        key: &'static str,
        noun: &str,
        tag: &mut usize,
        names: &[&'static str],
    ) -> Result<(), Self::Error>;
    /// Runs `body` inside the object at `key`, which a document read back
    /// may lack unless it is `required`.
    fn object(
        &mut self,
        _key: &'static str,
        _required: bool,
        body: impl FnOnce(&mut Self) -> Result<(), Self::Error>,
    ) -> Result<(), Self::Error> {
        body(self)
    }
    /// Whether `key` is present; only a document read back can lack one.
    fn has(&self, _key: &str) -> bool {
        true
    }
}

/// A value a walk puts or takes whole: its page bytes and its JSON form.
pub(crate) trait Leaf: Sized {
    /// What a document's value of this type must be.
    const NOUN: &'static str;
    /// What a document's array of this type must be.
    const ARRAY: &'static str = "array";
    /// The page bytes of one entry of a sequence.
    const WIDTH: usize = 8;
    fn put(&self, page: &mut impl Sink);
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError>;
    fn to_json(&self) -> Json;
    fn from_json(json: &Json) -> Option<Self>;
    /// The value as an entry of a document's array.
    fn to_entry(&self) -> Json {
        self.to_json()
    }
    fn from_entry(json: &Json) -> Option<Self> {
        Self::from_json(json)
    }
    /// What a document that leaves the key out means, if it may.
    fn absent() -> Option<Self> {
        None
    }
}

impl Leaf for u64 {
    const NOUN: &'static str = "count";
    const ARRAY: &'static str = "array of counts";
    fn put(&self, page: &mut impl Sink) {
        page.add(&self.to_le_bytes());
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        page.take().map(u64::from_le_bytes)
    }
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_u64()
    }
}

/// A count that sizes something in memory.
impl Leaf for usize {
    const NOUN: &'static str = "count";
    fn put(&self, page: &mut impl Sink) {
        (*self as u64).put(page);
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        usize::try_from(u64::take(page)?).map_err(|_| page.error("a count past usize"))
    }
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(json: &Json) -> Option<Self> {
        usize::try_from(json.as_u64()?).ok()
    }
}

/// A float; a document's `null` reads back as NaN (non-finite numbers
/// render so).
impl Leaf for f64 {
    const NOUN: &'static str = "number";
    const ARRAY: &'static str = "array of numbers";
    fn put(&self, page: &mut impl Sink) {
        self.to_bits().put(page);
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        u64::take(page).map(f64::from_bits)
    }
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_f64()
    }
}

/// A flag: one byte on a page, a boolean in a document, and `0`/`1` as an
/// array entry.
impl Leaf for bool {
    const NOUN: &'static str = "flag";
    const ARRAY: &'static str = "array of 0s and 1s";
    const WIDTH: usize = 1;
    fn put(&self, page: &mut impl Sink) {
        page.add(&[u8::from(*self)]);
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        match page.take()? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(page.error("an unknown tag")),
        }
    }
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(json: &Json) -> Option<Self> {
        match json {
            Json::Bool(flag) => Some(*flag),
            _ => None,
        }
    }
    fn to_entry(&self) -> Json {
        Json::Num(if *self { 1.0 } else { 0.0 })
    }
    fn from_entry(json: &Json) -> Option<Self> {
        match json.as_u64()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Tenant ids are full u64s (name hashes use all 64 bits) and JSON numbers
/// are f64s, so a document carries an id as a decimal string to stay exact.
impl Leaf for TenantId {
    const NOUN: &'static str = "decimal string";
    fn put(&self, page: &mut impl Sink) {
        self.0.put(page);
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        u64::take(page).map(TenantId)
    }
    fn to_json(&self) -> Json {
        Json::Str(self.0.to_string())
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_str()?.parse().ok().map(TenantId)
    }
}

/// An empirical auction's `[top, second]` bid pair.
impl Leaf for (f64, f64) {
    const NOUN: &'static str = "`[top, second]` number pair";
    const ARRAY: &'static str = "array of `[top, second]` number pairs";
    const WIDTH: usize = 16;
    fn put(&self, page: &mut impl Sink) {
        self.0.put(page);
        self.1.put(page);
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        Ok((f64::take(page)?, f64::take(page)?))
    }
    fn to_json(&self) -> Json {
        Json::Arr(vec![Json::Num(self.0), Json::Num(self.1)])
    }
    fn from_json(json: &Json) -> Option<Self> {
        match json.as_arr()? {
            [top, second] => Some((top.as_f64()?, second.as_f64()?)),
            _ => None,
        }
    }
}

/// An optional value: a flag byte then the value on a page; `null` or the
/// value in a document, which may also leave it out.
impl<T: Leaf> Leaf for Option<T> {
    const NOUN: &'static str = T::NOUN;
    fn put(&self, page: &mut impl Sink) {
        self.is_some().put(page);
        if let Some(value) = self {
            value.put(page);
        }
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        match bool::take(page)? {
            true => T::take(page).map(Some),
            false => Ok(None),
        }
    }
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(json: &Json) -> Option<Self> {
        match json {
            Json::Null => Some(None),
            _ => T::from_json(json).map(Some),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// A sequence: a count then the entries on a page, an array in a
/// document.
impl<T: Leaf> Leaf for Vec<T> {
    const NOUN: &'static str = T::ARRAY;
    fn put(&self, page: &mut impl Sink) {
        self.len().put(page);
        self.iter().for_each(|item| item.put(page));
    }
    fn take(page: &mut PageReader<'_>) -> Result<Self, ServiceError> {
        let len = page.count(T::WIDTH)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::take(page)?);
        }
        Ok(items)
    }
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_entry).collect())
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_arr()?.iter().map(T::from_entry).collect()
    }
}

/// Where a page's bytes go: into the page, or into a count of them.
pub(crate) trait Sink {
    fn add(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn add(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for usize {
    fn add(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// Writes a page, or counts its bytes.
impl<S: Sink> Io for S {
    type Error = Infallible;
    fn leaf<T: Leaf>(&mut self, _: &'static str, value: &mut T) -> Result<(), Infallible> {
        value.put(self);
        Ok(())
    }
    fn tag(
        &mut self,
        _: &'static str,
        _: &str,
        tag: &mut usize,
        _: &[&'static str],
    ) -> Result<(), Infallible> {
        self.add(&tag.to_le_bytes()[..1]);
        Ok(())
    }
}

/// Reads a page; every read is bounds-checked.
pub(crate) struct PageReader<'a> {
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

    /// A count of entries `width` bytes wide, refused before anything is
    /// allocated for it when the rest of the page cannot hold them.
    fn count(&mut self, width: usize) -> Result<usize, ServiceError> {
        let count = u64::take(self)?;
        let left = self.page.len() - self.at;
        match usize::try_from(count) {
            Ok(len) if len.checked_mul(width).is_some_and(|bytes| bytes <= left) => Ok(len),
            _ => Err(self.error("a count past the end of the page")),
        }
    }
}

impl Io for PageReader<'_> {
    type Error = ServiceError;
    fn leaf<T: Leaf>(&mut self, _: &'static str, value: &mut T) -> Result<(), ServiceError> {
        *value = T::take(self)?;
        Ok(())
    }
    fn tag(
        &mut self,
        _: &'static str,
        _: &str,
        tag: &mut usize,
        names: &[&'static str],
    ) -> Result<(), ServiceError> {
        let [byte] = self.take()?;
        *tag = usize::from(byte);
        if *tag >= names.len() {
            return Err(self.error("an unknown tag"));
        }
        Ok(())
    }
}

/// Writes a document's `Json` tree.
pub(crate) struct JsonOut {
    /// The pairs of the object the walk is in.
    pairs: Vec<(Key, Json)>,
}

impl JsonOut {
    /// The object `walk` writes.
    pub(crate) fn write(walk: impl FnOnce(&mut Self) -> Result<(), Infallible>) -> Json {
        let mut out = Self {
            pairs: Vec::with_capacity(8),
        };
        let Ok(()) = walk(&mut out);
        Json::Obj(out.pairs)
    }

    /// Puts a value no walk lists: a document's arrays of documents.
    pub(crate) fn push(&mut self, key: &'static str, value: Json) {
        self.pairs.push((key.into(), value));
    }
}

impl Io for JsonOut {
    type Error = Infallible;
    fn leaf<T: Leaf>(&mut self, key: &'static str, value: &mut T) -> Result<(), Infallible> {
        self.push(key, value.to_json());
        Ok(())
    }
    fn tag(
        &mut self,
        key: &'static str,
        _: &str,
        tag: &mut usize,
        names: &[&'static str],
    ) -> Result<(), Infallible> {
        self.push(key, Json::str(names[*tag]));
        Ok(())
    }
    fn object(
        &mut self,
        key: &'static str,
        _: bool,
        body: impl FnOnce(&mut Self) -> Result<(), Infallible>,
    ) -> Result<(), Infallible> {
        let outer = std::mem::replace(&mut self.pairs, Vec::with_capacity(8));
        body(self)?;
        let object = std::mem::replace(&mut self.pairs, outer);
        self.push(key, Json::Obj(object));
        Ok(())
    }
}

/// The variant of an enum `value`: its index in `variants`, one named value
/// of each variant.  Another variant read back replaces `value` with that
/// variant's value, whose fields the walk then fills.
fn variant<I: Io, T: Copy, const N: usize>(
    io: &mut I,
    key: &'static str,
    noun: &str,
    value: &mut T,
    variants: [(&'static str, T); N],
) -> Result<(), I::Error> {
    let of = |value: &T| {
        variants
            .iter()
            .position(|(_, blank)| discriminant(blank) == discriminant(value))
    };
    let mut tag = of(value).unwrap_or(N);
    io.tag(key, noun, &mut tag, &variants.map(|(name, _)| name))?;
    if of(value) != Some(tag) {
        *value = variants[tag].1;
    }
    Ok(())
}

/// One series of a regret ledger.
fn stats<I: Io>(io: &mut I, key: &'static str, stats: &mut OnlineStats) -> Result<(), I::Error> {
    io.object(key, true, |io| {
        let mut count = stats.count();
        let mut values = [
            stats.mean(),
            stats.m2(),
            stats.sum(),
            stats.min(),
            stats.max(),
        ];
        io.leaf("count", &mut count)?;
        for (key, value) in ["mean", "m2", "sum", "min", "max"]
            .into_iter()
            .zip(&mut values)
        {
            io.leaf(key, value)?;
        }
        let [mean, m2, sum, min, max] = values;
        *stats = OnlineStats::from_raw_parts(count, mean, m2, sum, min, max);
        Ok(())
    })
}

/// Every persisted field of a tenant, under its document key and in its
/// document order.
pub(crate) fn walk<I: Io>(io: &mut I, parts: &mut TenantParts) -> Result<(), I::Error> {
    io.leaf("id", &mut parts.id)?;
    io.leaf("dim", &mut parts.config.dim)?;
    io.object("pricing", true, |io| {
        let pricing = &mut parts.config.pricing;
        io.leaf("initial_radius", &mut pricing.initial_radius)?;
        io.leaf("feature_bound", &mut pricing.feature_bound)?;
        io.leaf("horizon", &mut pricing.horizon)?;
        io.leaf("epsilon", &mut pricing.epsilon)?;
        io.leaf("delta", &mut pricing.delta)?;
        io.leaf("use_reserve", &mut pricing.use_reserve)?;
        io.leaf("cut_on_conservative", &mut pricing.cut_on_conservative)
    })?;
    // The market kind arrived with schema v2 and the drift policy with v3;
    // without them a document describes a static posted-price tenant.
    io.object("market", false, |io| market(io, parts))?;
    io.object("drift", false, |io| drift(io, parts))?;
    io.object("knowledge", true, |io| {
        io.leaf("center", &mut parts.center)?;
        // The packed upper triangle, row by row (schema v6).
        io.leaf("shape", &mut parts.shape)
    })?;
    // Optional so hand-written minimal snapshots (and any pre-ledger
    // documents) restore with a fresh ledger.
    io.object("ledger", false, |io| {
        let ledger = parts.ledger.get_or_insert_with(RegretReport::empty);
        io.leaf("rounds", &mut ledger.rounds)?;
        io.leaf("cumulative_regret", &mut ledger.cumulative_regret)?;
        io.leaf(
            "cumulative_market_value",
            &mut ledger.cumulative_market_value,
        )?;
        io.leaf("cumulative_revenue", &mut ledger.cumulative_revenue)?;
        io.leaf("sales", &mut ledger.sales)?;
        io.leaf("unsellable_rounds", &mut ledger.unsellable_rounds)?;
        stats(io, "market_value_stats", &mut ledger.market_value_stats)?;
        stats(io, "reserve_price_stats", &mut ledger.reserve_price_stats)?;
        stats(io, "posted_price_stats", &mut ledger.posted_price_stats)?;
        stats(io, "regret_stats", &mut ledger.regret_stats)
    })?;
    // Session-level counters are wider than the ledger: production
    // (accept-only) rounds carry no ground truth, so they count here but
    // not in the regret report.
    io.object("session", false, |io| {
        let counters = parts.counters.get_or_insert_with(SessionCounters::default);
        io.leaf("rounds_closed", &mut counters.rounds_closed)?;
        io.leaf("sales", &mut counters.sales)?;
        io.leaf("revenue", &mut counters.revenue)?;
        io.leaf("regret_proxy", &mut counters.regret_proxy)
    })
}

/// A tenant's market kind, and the learned state the kind carries.
fn market<I: Io>(io: &mut I, parts: &mut TenantParts) -> Result<(), I::Error> {
    let kinds = [
        ("posted", MarketKind::PostedPrice),
        ("auction", MarketKind::Auction(AuctionPolicy::Session)),
        ("privacy", MarketKind::Privacy(PrivacyParams::default())),
    ];
    variant(io, "kind", "market kind", &mut parts.config.market, kinds)?;
    match &mut parts.config.market {
        MarketKind::PostedPrice => Ok(()),
        MarketKind::Auction(policy) => {
            let policies = [
                ("session", AuctionPolicy::Session),
                ("static", AuctionPolicy::Static { markup: 0.0 }),
                (
                    "empirical",
                    AuctionPolicy::Empirical {
                        window: 0,
                        welfare_weight: 0.0,
                    },
                ),
            ];
            variant(io, "policy", "auction policy", policy, policies)?;
            match policy {
                AuctionPolicy::Session => Ok(()),
                AuctionPolicy::Static { markup } => io.leaf("markup", markup),
                // A zero window is accepted here (and clamped to 1 by the
                // tenant state, exactly like at registration time): a
                // document the service wrote must always restore.
                AuctionPolicy::Empirical {
                    window,
                    welfare_weight,
                } => {
                    io.leaf("window", window)?;
                    io.leaf("welfare_weight", welfare_weight)?;
                    io.leaf("history", &mut parts.history)
                }
            }
        }
        MarketKind::Privacy(params) => {
            for (key, value) in [
                ("epsilon_budget", &mut params.epsilon_budget),
                ("compensation_base", &mut params.compensation_base),
                (
                    "compensation_sensitivity",
                    &mut params.compensation_sensitivity,
                ),
                ("data_range", &mut params.data_range),
                ("laplace_scale", &mut params.laplace_scale),
            ] {
                io.leaf(key, value)?;
            }
            let owners = &mut parts.owners;
            io.leaf("epsilon_spent", &mut owners.epsilon_spent)?;
            io.leaf("compensation", &mut owners.compensation)?;
            io.leaf("queries", &mut owners.queries)?;
            io.leaf("exhausted", &mut owners.exhausted)?;
            // Bank totals are persisted verbatim, **not** recomputed from
            // the per-owner columns: incremental accumulation order and
            // restore-sum order round floats differently.
            io.leaf("epsilon_spent_total", &mut owners.epsilon_spent_total)?;
            io.leaf("compensation_total", &mut owners.compensation_total)
        }
    }
}

/// A tenant's drift policy, plus the live detector state of a restart
/// policy (the part of the mechanism the knowledge set cannot carry).
fn drift<I: Io>(io: &mut I, parts: &mut TenantParts) -> Result<(), I::Error> {
    let policies = [
        ("static", DriftPolicy::Static),
        (
            "restart",
            DriftPolicy::Restart {
                window: 0,
                threshold: 0,
            },
        ),
        ("discounted", DriftPolicy::Discounted { inflation: 0.0 }),
    ];
    variant(
        io,
        "policy",
        "drift policy",
        &mut parts.config.drift,
        policies,
    )?;
    match &mut parts.config.drift {
        DriftPolicy::Static => Ok(()),
        DriftPolicy::Restart { window, threshold } => {
            io.leaf("window", window)?;
            io.leaf("threshold", threshold)?;
            let detector = &mut parts.detector;
            io.leaf("fires", &mut detector.fires)?;
            io.leaf("restarts", &mut detector.restarts)?;
            io.leaf("window_flags", &mut detector.flags)
        }
        DriftPolicy::Discounted { inflation } => io.leaf("inflation", inflation),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::{AuctionRequest, OutcomeReport, QueryRequest, Request, Response};
    use crate::routing::TenantId;
    use crate::shard::Shard;
    use crate::snapshot::{tenant_from_json, tenant_json};
    use crate::tenant::TenantConfig;
    use pdm_linalg::{Json, Vector};

    /// Every kind of tenant a page must carry, at `dim`.
    pub(crate) fn kinds(dim: usize) -> Vec<(&'static str, TenantConfig)> {
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
    pub(crate) fn serve(
        shard: &mut Shard,
        config: &TenantConfig,
        rounds: std::ops::Range<usize>,
    ) -> String {
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
                    assert!(served.privacy.as_ref().unwrap().owners_exhausted() > 0);
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
