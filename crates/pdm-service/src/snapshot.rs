//! Deterministic JSON snapshots of the whole service.
//!
//! A snapshot captures everything that determines future pricing decisions:
//! the service sizing, every tenant's registration config, and every
//! tenant's learned knowledge set (ellipsoid centre + shape matrix), plus
//! the per-shard metric counters so dashboards survive a restart.  It is
//! serialised through the deterministic [`Json`] writer of `pdm-linalg` —
//! tenants sorted by id, shards in index order, floats in shortest
//! round-trip form — so the same service state always renders to the same
//! bytes, and `snapshot → restore → snapshot` is the identity.
//!
//! Restored tenants quote **bit-identically** to the uninterrupted service:
//! a quote depends only on the knowledge set, the pricing config, and the
//! query.  Each tenant's regret/revenue ledger is persisted too, so
//! [`MarketService::tenant_report`](crate::MarketService::tenant_report)
//! stays consistent with the restored shard-level metrics across a restart.
//! Only two things restart from zero: diagnostic counters *inside* the
//! mechanism (cut counts, exploratory-round tallies) and the wall-clock
//! latency samples, which are meaningless across processes.
//!
//! Snapshots are only taken at a quiescent point — no queued requests, no
//! quoted-but-unobserved rounds — so there is no in-flight state to encode.

use crate::api::ServiceError;
use crate::ledger::{LedgerBank, OwnerLedger};
use crate::metrics::{ShardMetrics, Slot, FIELDS};
use crate::reader::{Label, Reader};
use crate::routing::TenantId;
use crate::service::{MarketService, ServiceConfig};
use crate::sync;
use crate::tenant::{AuctionPolicy, MarketKind, PrivacyParams, TenantConfig, TenantState};
use pdm_auction::{EmpiricalConfig, EmpiricalReserve};
use pdm_ellipsoid::Ellipsoid;
use pdm_linalg::{Json, Matrix, OnlineStats, Vector};
use pdm_pricing::prelude::{
    DriftAwarePricing, DriftPolicy, EllipsoidPricing, LinearModel, PricingConfig, RegretReport,
};

/// Version of the snapshot schema this build writes.
///
/// v5 added the privacy-budget economics layer: a `privacy` market kind
/// per tenant carrying the ledger parameters and every owner's ε spent,
/// compensation accrued, query count, and exhaustion flag (plus the
/// bank-level totals, persisted verbatim so restored totals are
/// bit-identical to incrementally accumulated ones); the optional
/// `privacy_budget`/`compensation_base`/`ledger_paging` knobs in the
/// header; and the `epsilon_spent`/`compensation_paid`/`owners_exhausted`/
/// `privacy_throttled`/`arbitrage_clamps` counters of the per-shard metric
/// ledgers.  v1–v4 documents restore with no privacy tenants and zero
/// privacy counters.
/// v4 added the persistence/paging layer: the optional
/// `resident_capacity` and `wal_segment_size` sizing knobs in the header,
/// and the `evictions`/`rehydrations` counters of the per-shard metric
/// ledgers.  The same tenant document doubles as the WAL record format
/// (see [`crate::wal`]).  v1–v3 documents restore with both knobs unset
/// and zero paging counters.
/// v3 added the drift layer: a `drift` object per tenant (the drift policy
/// plus the surprisal detector's live state — window flags, firing and
/// restart counters) and the `drift_fires`/`drift_restarts` counters of
/// the per-shard metric ledgers.  v2 documents restore as static-policy
/// tenants with zero drift counters.
/// v2 added the auction layer: a `market` object per tenant (posted vs
/// auction, the reserve policy, and the empirical setter's learned bid
/// history) and the auction counters of the per-shard metric ledgers.
/// v1 documents restore as posted-price tenants with empty auction
/// counters.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 5;

fn vector_json(v: &Vector) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
}

fn pricing_json(config: &PricingConfig) -> Json {
    Json::obj(vec![
        ("initial_radius", Json::Num(config.initial_radius)),
        ("feature_bound", Json::Num(config.feature_bound)),
        ("horizon", Json::Num(config.horizon as f64)),
        ("epsilon", config.epsilon.map_or(Json::Null, Json::Num)),
        ("delta", Json::Num(config.delta)),
        ("use_reserve", Json::Bool(config.use_reserve)),
        (
            "cut_on_conservative",
            Json::Bool(config.cut_on_conservative),
        ),
    ])
}

fn pricing_from_json(pricing: &Reader) -> Result<PricingConfig, ServiceError> {
    let mut config =
        PricingConfig::new(pricing.number("initial_radius")?, pricing.size("horizon")?)
            .with_reserve(pricing.flag("use_reserve")?)
            .with_uncertainty(pricing.number("delta")?)
            .with_feature_bound(pricing.number("feature_bound")?)
            .with_conservative_cuts(pricing.flag("cut_on_conservative")?);
    // `epsilon: null` means "use the paper's schedule" and must stay None —
    // with_epsilon would pin it.
    if let Some(epsilon) = pricing.optional("epsilon", Reader::number)? {
        config = config.with_epsilon(epsilon);
    }
    Ok(config)
}

pub(crate) fn metrics_json(metrics: &ShardMetrics) -> Json {
    let mut pairs = Vec::with_capacity(FIELDS);
    let mut auction = Vec::new();
    for (field, figure) in metrics.fields() {
        let object = if field.nested {
            &mut auction
        } else {
            &mut pairs
        };
        object.push((field.key, Json::Num(figure.as_f64())));
    }
    pairs.push(("auction", Json::obj(auction)));
    Json::obj(pairs)
}

/// Reads a ledger written by [`metrics_json`] at any schema version.  A v1
/// document has no `auction` object, and the keys added in v3–v5 read as
/// zero when absent; but a key that is present must parse (corruption is an
/// error, not a silent zero).
pub(crate) fn metrics_from_json(ledger: &Reader) -> Result<ShardMetrics, ServiceError> {
    let mut metrics = ShardMetrics::new();
    let auction = ledger.optional("auction", Reader::object)?;
    for (field, slot) in metrics.fields_mut() {
        let object = match (field.nested, &auction) {
            (false, _) => ledger,
            (true, Some(auction)) => auction,
            (true, None) => continue,
        };
        if !field.required && !object.has(field.key) {
            continue;
        }
        match slot {
            Slot::Count(count) => *count = object.count(field.key)?,
            Slot::Money(money) => *money = object.number(field.key)?,
        }
    }
    Ok(metrics)
}

fn market_json(state: &TenantState) -> Json {
    match state.config.market {
        MarketKind::PostedPrice => Json::obj(vec![("kind", Json::str("posted"))]),
        MarketKind::Auction(policy) => {
            let mut pairs = vec![
                ("kind", Json::str("auction")),
                ("policy", Json::str(policy.name())),
            ];
            match policy {
                AuctionPolicy::Session => {}
                AuctionPolicy::Static { markup } => pairs.push(("markup", Json::Num(markup))),
                AuctionPolicy::Empirical {
                    window,
                    welfare_weight,
                } => {
                    pairs.push(("window", Json::Num(window as f64)));
                    pairs.push(("welfare_weight", Json::Num(welfare_weight)));
                    let history: Vec<Json> = state
                        .empirical
                        .as_ref()
                        .map(|setter| {
                            setter
                                .history()
                                .map(|(top, second)| {
                                    Json::Arr(vec![Json::Num(top), Json::Num(second)])
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    pairs.push(("history", Json::Arr(history)));
                }
            }
            Json::obj(pairs)
        }
        MarketKind::Privacy(params) => {
            let bank = state.bank();
            let column = |field: fn(&OwnerLedger) -> Json| -> Json {
                Json::Arr(bank.ledgers().iter().map(field).collect())
            };
            Json::obj(vec![
                ("kind", Json::str("privacy")),
                ("epsilon_budget", Json::Num(params.epsilon_budget)),
                ("compensation_base", Json::Num(params.compensation_base)),
                (
                    "compensation_sensitivity",
                    Json::Num(params.compensation_sensitivity),
                ),
                ("data_range", Json::Num(params.data_range)),
                ("laplace_scale", Json::Num(params.laplace_scale)),
                (
                    "epsilon_spent",
                    column(|ledger| Json::Num(ledger.epsilon_spent)),
                ),
                (
                    "compensation",
                    column(|ledger| Json::Num(ledger.compensation_accrued)),
                ),
                ("queries", column(|ledger| Json::Num(ledger.queries as f64))),
                (
                    "exhausted",
                    column(|ledger| Json::Num(if ledger.exhausted { 1.0 } else { 0.0 })),
                ),
                // Bank totals are persisted verbatim, **not** recomputed
                // from the per-owner columns: incremental accumulation
                // order and restore-sum order round floats differently.
                ("epsilon_spent_total", Json::Num(bank.epsilon_spent_total())),
                ("compensation_total", Json::Num(bank.compensation_total())),
            ])
        }
    }
}

/// Learned market state persisted alongside the market kind, applied
/// after the tenant state is built.
enum MarketRestore {
    /// Nothing beyond the kind itself (posted, session/static auction).
    None,
    /// The empirical reserve setter's persisted bid history.
    EmpiricalHistory(Vec<(f64, f64)>),
    /// The privacy tenant's owner ledgers and bank totals.
    Privacy(Box<LedgerRestore>),
}

/// The persisted state of a privacy tenant's [`LedgerBank`].
struct LedgerRestore {
    epsilon_spent: Vec<f64>,
    compensation: Vec<f64>,
    queries: Vec<u64>,
    exhausted: Vec<bool>,
    epsilon_spent_total: f64,
    compensation_total: f64,
}

/// Parses a tenant's `market` object; also returns the learned market
/// state (applied after the tenant state is built).
fn market_from_json(market: &Reader) -> Result<(MarketKind, MarketRestore), ServiceError> {
    Ok(match market.string("kind")? {
        "posted" => (MarketKind::PostedPrice, MarketRestore::None),
        "auction" => {
            let (policy, restore) = match market.string("policy")? {
                "session" => (AuctionPolicy::Session, MarketRestore::None),
                "static" => (
                    AuctionPolicy::Static {
                        markup: market.number("markup")?,
                    },
                    MarketRestore::None,
                ),
                // A zero window is accepted here (and clamped to 1 by the tenant
                // state, exactly like at registration time): a document the
                // service wrote must always restore.
                "empirical" => (
                    AuctionPolicy::Empirical {
                        window: market.size("window")?,
                        welfare_weight: market.number("welfare_weight")?,
                    },
                    MarketRestore::EmpiricalHistory(market.list(
                        "history",
                        "`[top, second]` number pairs",
                        |pair| match pair.as_arr()? {
                            [top, second] => Some((top.as_f64()?, second.as_f64()?)),
                            _ => None,
                        },
                    )?),
                ),
                other => return Err(market.error(format_args!("unknown auction policy `{other}`"))),
            };
            (MarketKind::Auction(policy), restore)
        }
        "privacy" => (
            MarketKind::Privacy(PrivacyParams {
                epsilon_budget: market.number("epsilon_budget")?,
                compensation_base: market.number("compensation_base")?,
                compensation_sensitivity: market.number("compensation_sensitivity")?,
                data_range: market.number("data_range")?,
                laplace_scale: market.number("laplace_scale")?,
            }),
            MarketRestore::Privacy(Box::new(LedgerRestore {
                epsilon_spent: market.numbers("epsilon_spent")?,
                compensation: market.numbers("compensation")?,
                queries: market.list("queries", "counts", Json::as_u64)?,
                exhausted: market.bits("exhausted")?,
                epsilon_spent_total: market.number("epsilon_spent_total")?,
                compensation_total: market.number("compensation_total")?,
            })),
        ),
        other => return Err(market.error(format_args!("unknown market kind `{other}`"))),
    })
}

/// Serialises a tenant's drift policy plus the live detector state (the
/// part of the mechanism the knowledge set cannot carry).
fn drift_json(state: &TenantState) -> Json {
    let mechanism = state.session.mechanism();
    match state.config.drift {
        DriftPolicy::Static => Json::obj(vec![("policy", Json::str("static"))]),
        DriftPolicy::Restart { window, threshold } => {
            let flags: Vec<Json> = mechanism
                .detector()
                .map(|detector| {
                    detector
                        .window_flags()
                        .map(|flag| Json::Num(if flag { 1.0 } else { 0.0 }))
                        .collect()
                })
                .unwrap_or_default();
            Json::obj(vec![
                ("policy", Json::str("restart")),
                ("window", Json::Num(window as f64)),
                ("threshold", Json::Num(threshold as f64)),
                ("fires", Json::Num(mechanism.detector_fires() as f64)),
                ("restarts", Json::Num(mechanism.restarts() as f64)),
                ("window_flags", Json::Arr(flags)),
            ])
        }
        DriftPolicy::Discounted { inflation } => Json::obj(vec![
            ("policy", Json::str("discounted")),
            ("inflation", Json::Num(inflation)),
        ]),
    }
}

/// The restored drift state of a restart-policy tenant.
struct DriftRestore {
    fires: u64,
    restarts: u64,
    flags: Vec<bool>,
}

/// Parses a tenant's `drift` object (schema v3).  Returns the policy plus
/// the detector state to re-instate after the mechanism is built.
fn drift_from_json(drift: &Reader) -> Result<(DriftPolicy, Option<DriftRestore>), ServiceError> {
    match drift.string("policy")? {
        "static" => Ok((DriftPolicy::Static, None)),
        "discounted" => Ok((
            DriftPolicy::Discounted {
                inflation: drift.number("inflation")?,
            },
            None,
        )),
        "restart" => Ok((
            DriftPolicy::Restart {
                window: drift.size("window")?,
                threshold: drift.size("threshold")?,
            },
            Some(DriftRestore {
                fires: drift.count("fires")?,
                restarts: drift.count("restarts")?,
                flags: drift.bits("window_flags")?,
            }),
        )),
        other => Err(drift.error(format_args!("unknown drift policy `{other}`"))),
    }
}

fn stats_json(stats: &OnlineStats) -> Json {
    Json::obj(vec![
        ("count", Json::Num(stats.count() as f64)),
        ("mean", Json::Num(stats.mean())),
        ("m2", Json::Num(stats.m2())),
        ("sum", Json::Num(stats.sum())),
        ("min", Json::Num(stats.min())),
        ("max", Json::Num(stats.max())),
    ])
}

fn stats_from_json(stats: &Reader) -> Result<OnlineStats, ServiceError> {
    Ok(OnlineStats::from_raw_parts(
        stats.count("count")?,
        stats.number("mean")?,
        stats.number("m2")?,
        stats.number("sum")?,
        stats.number("min")?,
        stats.number("max")?,
    ))
}

fn ledger_json(report: &RegretReport) -> Json {
    Json::obj(vec![
        ("rounds", Json::Num(report.rounds as f64)),
        ("cumulative_regret", Json::Num(report.cumulative_regret)),
        (
            "cumulative_market_value",
            Json::Num(report.cumulative_market_value),
        ),
        ("cumulative_revenue", Json::Num(report.cumulative_revenue)),
        ("sales", Json::Num(report.sales as f64)),
        (
            "unsellable_rounds",
            Json::Num(report.unsellable_rounds as f64),
        ),
        ("market_value_stats", stats_json(&report.market_value_stats)),
        (
            "reserve_price_stats",
            stats_json(&report.reserve_price_stats),
        ),
        ("posted_price_stats", stats_json(&report.posted_price_stats)),
        ("regret_stats", stats_json(&report.regret_stats)),
    ])
}

fn ledger_from_json(ledger: &Reader) -> Result<RegretReport, ServiceError> {
    let mut report = RegretReport::empty();
    report.rounds = ledger.size("rounds")?;
    report.cumulative_regret = ledger.number("cumulative_regret")?;
    report.cumulative_market_value = ledger.number("cumulative_market_value")?;
    report.cumulative_revenue = ledger.number("cumulative_revenue")?;
    report.sales = ledger.size("sales")?;
    report.unsellable_rounds = ledger.size("unsellable_rounds")?;
    report.market_value_stats = stats_from_json(&ledger.object("market_value_stats")?)?;
    report.reserve_price_stats = stats_from_json(&ledger.object("reserve_price_stats")?)?;
    report.posted_price_stats = stats_from_json(&ledger.object("posted_price_stats")?)?;
    report.regret_stats = stats_from_json(&ledger.object("regret_stats")?)?;
    Ok(report)
}

/// Serialises one tenant to its snapshot/WAL document.
///
/// This document is the unit of persistence everywhere: full snapshots and
/// WAL segments (see [`crate::wal`]) carry its JSON text, and the
/// cold-tenant page store its binary image ([`cold_tenant_page`]), so a
/// tenant round-trips bit-identically no matter which path it travelled.
pub(crate) fn tenant_json(state: &TenantState) -> Json {
    let knowledge = state.session.mechanism().knowledge();
    Json::obj(vec![
        // Tenant ids are full u64s (name hashes use all 64 bits) and JSON
        // numbers are f64s, so ids are encoded as strings to stay exact.
        ("id", Json::Str(state.id.0.to_string())),
        ("dim", Json::Num(state.config.dim as f64)),
        ("pricing", pricing_json(&state.config.pricing)),
        ("market", market_json(state)),
        ("drift", drift_json(state)),
        (
            "knowledge",
            Json::obj(vec![
                ("center", vector_json(knowledge.center())),
                // The full n × n row-major array, read straight from the
                // packed triangle.
                (
                    "shape",
                    Json::Arr(knowledge.shape().dense_row_major().map(Json::Num).collect()),
                ),
            ]),
        ),
        ("ledger", ledger_json(&state.session.tracker().report())),
        // Session-level counters are wider than the ledger: production
        // (accept-only) rounds carry no ground truth, so they count here
        // but not in the regret report.
        (
            "session",
            Json::obj(vec![
                (
                    "rounds_closed",
                    Json::Num(state.session.rounds_closed() as f64),
                ),
                ("sales", Json::Num(state.session.sales() as f64)),
                ("revenue", Json::Num(state.session.revenue())),
                ("regret_proxy", Json::Num(state.session.regret_proxy())),
            ]),
        ),
    ])
}

/// Pages a tenant out: the binary image ([`Json::encode`]) of its
/// [`tenant_json`] document.
///
/// The page is the same tree the snapshot writer renders, in a form that
/// skips formatting and re-parsing decimal floats; it never leaves the
/// process, so snapshots and WAL segments stay JSON text.
pub(crate) fn cold_tenant_page(state: &TenantState) -> Vec<u8> {
    let mut page = Vec::new();
    tenant_json(state).encode(&mut page);
    page
}

/// Decodes the document a cold (paged-out) tenant is stored as.
///
/// The page was produced by [`cold_tenant_page`] inside this process, and
/// `decode(encode(v))` equals `parse(render(v))`, so this is the document
/// the tenant's JSON text would parse to.  A decode failure is a corrupted
/// invariant, not bad input.
pub(crate) fn cold_tenant_json(page: &[u8]) -> Json {
    // pdm-lint: allow(no-unwrap-in-lib) reason="the page was encoded by cold_tenant_page in this process; a decode failure is memory corruption, not input"
    Json::decode(page).expect("cold tenant page is a valid image by construction")
}

/// Rehydrates a cold tenant back into a live [`TenantState`].
///
/// Bit-identical by the snapshot contract: the decoded document is the
/// one a full snapshot/restore parses per tenant, rebuilt the same way.
pub(crate) fn cold_tenant_state(page: &[u8]) -> TenantState {
    // pdm-lint: allow(no-unwrap-in-lib) reason="serialise then rebuild is the pinned snapshot contract; failure here is a broken invariant, not input"
    tenant_from_json(&cold_tenant_json(page)).expect("cold tenant page round-trips by construction")
}

pub(crate) fn tenant_from_json(value: &Json) -> Result<TenantState, ServiceError> {
    let id = Reader::new(value, Label::Name("tenant"))
        .read("id", "decimal string", |id| id.as_str()?.parse().ok())
        .map(TenantId)?;
    let tenant = Reader::new(value, Label::Tenant(id));
    // The market kind arrived with schema v2 and the drift policy with v3;
    // older tenants are static posted-price tenants.
    let (market, market_restore) = match tenant.optional("market", Reader::object)? {
        Some(market) => market_from_json(&market)?,
        None => (MarketKind::PostedPrice, MarketRestore::None),
    };
    let (drift, drift_restore) = match tenant.optional("drift", Reader::object)? {
        Some(drift) => drift_from_json(&drift)?,
        None => (DriftPolicy::Static, None),
    };
    let config = TenantConfig {
        dim: tenant.size("dim")?,
        pricing: pricing_from_json(&tenant.object("pricing")?)?,
        market,
        drift,
    };
    // The config check runs before anything is built from it: a drift
    // restart rebuilds the ball from the radius inside a drain, and the
    // ledger bank's compensation contract would panic on a bad parameter.
    config.check().map_err(|reason| tenant.error(reason))?;
    let dim = config.dim;
    let knowledge = tenant.object("knowledge")?;
    let center = knowledge.numbers("center")?;
    let shape = knowledge.numbers("shape")?;
    if center.len() != dim || dim.checked_mul(dim) != Some(shape.len()) {
        return Err(tenant.error(format_args!("knowledge dimensions do not match dim={dim}")));
    }
    let shape = Matrix::from_row_major(dim, dim, shape)
        .map_err(|e| tenant.error(format_args!("bad shape matrix: {e}")))?;
    let ellipsoid = Ellipsoid::new(Vector::from_vec(center), shape)
        .map_err(|e| tenant.error(format_args!("degenerate knowledge set: {e}")))?;
    let engine = EllipsoidPricing::with_knowledge(LinearModel::new(dim), ellipsoid, config.pricing);
    let mut mechanism = DriftAwarePricing::wrap(engine, drift);
    if let Some(restore) = drift_restore {
        mechanism.restore_drift_state(restore.fires, restore.restarts, &restore.flags);
    }
    let mut state = TenantState::with_mechanism(id, config, mechanism);
    match (market_restore, market) {
        (
            MarketRestore::EmpiricalHistory(history),
            MarketKind::Auction(AuctionPolicy::Empirical {
                window,
                welfare_weight,
            }),
        ) => {
            // `from_history` re-derives the fitted level from the persisted
            // window, so a restored policy always agrees with its own refit.
            state.empirical = Some(EmpiricalReserve::from_history(
                EmpiricalConfig {
                    window: window.max(1),
                    welfare_weight,
                },
                &history,
            ));
        }
        (MarketRestore::Privacy(restore), MarketKind::Privacy(params)) => {
            for (name, column_len) in [
                ("epsilon_spent", restore.epsilon_spent.len()),
                ("compensation", restore.compensation.len()),
                ("queries", restore.queries.len()),
                ("exhausted", restore.exhausted.len()),
            ] {
                if column_len != dim {
                    return Err(tenant.error(format_args!(
                        "privacy `{name}` has {column_len} owners, expected dim={dim}"
                    )));
                }
            }
            let ledgers: Vec<OwnerLedger> = (0..dim)
                .map(|owner| OwnerLedger {
                    epsilon_spent: restore.epsilon_spent[owner],
                    compensation_accrued: restore.compensation[owner],
                    queries: restore.queries[owner],
                    exhausted: restore.exhausted[owner],
                })
                .collect();
            state.privacy = Some(LedgerBank::restore(
                params,
                ledgers,
                restore.epsilon_spent_total,
                restore.compensation_total,
            ));
        }
        _ => {}
    }
    // The regret/revenue ledger keeps `tenant_report` consistent with the
    // restored shard metrics.  Optional so hand-written minimal snapshots
    // (and any pre-ledger documents) restore with a fresh ledger.
    if let Some(ledger) = tenant.optional("ledger", Reader::object)? {
        state.session.restore_ledger(&ledger_from_json(&ledger)?);
    }
    // Exact session-level totals, which also cover production (accept-only)
    // rounds the ledger cannot see.  Optional like the ledger; when absent
    // the ledger-derived counters above stand.
    if let Some(session) = tenant.optional("session", Reader::object)? {
        state.session.restore_counters(
            session.count("rounds_closed")?,
            session.count("sales")?,
            session.number("revenue")?,
            session.number("regret_proxy")?,
        );
    }
    Ok(state)
}

/// What a full snapshot and a WAL segment both carry, read past the
/// schema-version gate: tenant documents and one metric ledger per shard.
pub(crate) struct Persisted<'a, 'p> {
    doc: &'p Reader<'a, 'p>,
    tenants: &'a [Json],
    ledgers: &'a [Json],
}

impl<'a, 'p> Persisted<'a, 'p> {
    /// Reads the parts of `doc` after the schema-version gate.
    pub(crate) fn read(doc: &'p Reader<'a, 'p>) -> Result<Self, ServiceError> {
        let version = doc.count("schema_version")?;
        if version > SNAPSHOT_SCHEMA_VERSION {
            return Err(doc.error(format_args!(
                "schema v{version} is newer than this build's v{SNAPSHOT_SCHEMA_VERSION}"
            )));
        }
        Ok(Self {
            doc,
            tenants: doc.array("tenants")?,
            ledgers: doc.array("metrics")?,
        })
    }

    /// Checks there is one metric ledger per shard.  A restore runs this
    /// before it allocates the shards a hostile header may claim.
    fn check_shards(&self, shards: usize) -> Result<(), ServiceError> {
        if self.ledgers.len() == shards {
            return Ok(());
        }
        Err(self.doc.error(format_args!(
            "expected {shards} metric ledgers, found {}",
            self.ledgers.len()
        )))
    }

    /// Registers every tenant (or, on `replay`, replaces it last-record-wins),
    /// installs the shard ledgers, and starts the WAL clean: the service is
    /// now in sync with the document it was rebuilt from.
    pub(crate) fn apply(
        &self,
        service: &mut MarketService,
        replay: bool,
    ) -> Result<(), ServiceError> {
        self.check_shards(service.shard_count())?;
        for tenant in self.tenants {
            let state = tenant_from_json(tenant)?;
            if replay {
                service.apply_wal_record(state);
            } else {
                service
                    .register_state(state)
                    .map_err(|err| self.doc.error(err))?;
            }
        }
        for (index, (ledger, shard)) in self.ledgers.iter().zip(service.shards()).enumerate() {
            let ledger = self
                .doc
                .child(ledger, Label::Numbered("shard", index as u64));
            let metrics = metrics_from_json(&ledger)?;
            let mut shard = sync::lock(shard, "shard");
            shard.metrics = metrics;
            shard.clear_dirty();
        }
        Ok(())
    }
}

impl MarketService {
    /// Serialises the full service state to a deterministic JSON tree.
    ///
    /// # Errors
    /// [`ServiceError::PendingWork`] when requests are still queued or a
    /// tenant has a quoted-but-unobserved round; drain and close them
    /// first, then snapshot the quiescent service.
    pub fn snapshot(&self) -> Result<Json, ServiceError> {
        let queued = self.queued_requests();
        let mut open_rounds = 0usize;
        for shard in self.shards() {
            open_rounds += sync::lock(shard, "shard").open_rounds();
        }
        if queued > 0 || open_rounds > 0 {
            return Err(ServiceError::PendingWork {
                queued,
                open_rounds,
            });
        }
        let metrics: Vec<Json> = self.shard_metrics().iter().map(metrics_json).collect();
        let mut all_states: Vec<(TenantId, Json)> = Vec::new();
        for shard in self.shards() {
            let mut shard = sync::lock(shard, "shard");
            all_states.extend(shard.tenant_documents());
            // A full snapshot captures every tenant, hot or cold, so the
            // incremental WAL restarts from a clean slate.
            shard.clear_dirty();
        }
        // Global id order, not shard order: the rendering must not depend on
        // how tenants happen to be distributed.
        all_states.sort_by_key(|(id, _)| *id);
        let tenants: Vec<Json> = all_states.into_iter().map(|(_, json)| json).collect();
        let optional_size = |size: Option<usize>| size.map_or(Json::Null, |n| Json::Num(n as f64));
        Ok(Json::obj(vec![
            ("schema_version", Json::Num(SNAPSHOT_SCHEMA_VERSION as f64)),
            ("shards", Json::Num(self.shard_count() as f64)),
            (
                "queue_capacity",
                Json::Num(self.config().queue_capacity as f64),
            ),
            (
                "resident_capacity",
                optional_size(self.config().resident_capacity),
            ),
            (
                "wal_segment_size",
                optional_size(self.config().wal_segment_size),
            ),
            (
                "privacy_budget",
                self.config().privacy_budget.map_or(Json::Null, Json::Num),
            ),
            (
                "compensation_base",
                self.config()
                    .compensation_base
                    .map_or(Json::Null, Json::Num),
            ),
            ("ledger_paging", Json::Bool(self.config().ledger_paging)),
            ("tenants", Json::Arr(tenants)),
            ("metrics", Json::Arr(metrics)),
        ]))
    }

    /// Rebuilds a service from a snapshot produced by
    /// [`MarketService::snapshot`].
    ///
    /// # Errors
    /// [`ServiceError::MalformedSnapshot`] — the one error a restore
    /// returns — when the document does not match the schema, its header
    /// fails [`ServiceConfig::validate`], a tenant config fails its check,
    /// or a knowledge set is degenerate.
    pub fn restore(snapshot: &Json) -> Result<Self, ServiceError> {
        let doc = Reader::new(snapshot, Label::Name("snapshot"));
        let persisted = Persisted::read(&doc)?;
        // The paging knobs arrived with schema v4 and the privacy knobs with
        // v5; older documents carry neither, and a service with a knob unset
        // writes `null` (or `false` for the paging flag).
        let config = ServiceConfig {
            shards: doc.size("shards")?,
            queue_capacity: doc.size("queue_capacity")?,
            resident_capacity: doc.optional("resident_capacity", Reader::size)?,
            wal_segment_size: doc.optional("wal_segment_size", Reader::size)?,
            privacy_budget: doc.optional("privacy_budget", Reader::number)?,
            compensation_base: doc.optional("compensation_base", Reader::number)?,
            ledger_paging: doc
                .optional("ledger_paging", Reader::flag)?
                .unwrap_or(false),
        };
        persisted.check_shards(config.shards)?;
        let mut service = MarketService::new(config).map_err(|err| doc.error(err))?;
        persisted.apply(&mut service, false)?;
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OutcomeReport, QueryRequest, Request};
    use pdm_linalg::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `rounds` closed-loop rounds against every tenant of `service`,
    /// returning the posted prices in deterministic order.
    fn pump(service: &mut MarketService, tenant_ids: &[TenantId], rounds: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(17);
        let mut posted = Vec::new();
        for _ in 0..rounds {
            for &id in tenant_ids {
                let features = sampling::standard_normal_vector(&mut rng, 3)
                    .map(f64::abs)
                    .normalized();
                let reserve = 0.5 * features.sum();
                service
                    .ingest(Request::Quote(QueryRequest {
                        tenant: id,
                        features,
                        reserve_price: reserve,
                    }))
                    .unwrap();
            }
            for response in service.drain(2) {
                let quote = *response.quote().unwrap();
                posted.push(quote.posted_price);
                service
                    .ingest(Request::Observe(OutcomeReport {
                        tenant: response.tenant,
                        accepted: quote.posted_price <= 1.2,
                        market_value: Some(1.2),
                    }))
                    .unwrap();
            }
            service.drain(2);
        }
        posted
    }

    fn fresh_service(ids: &[TenantId]) -> MarketService {
        let mut service = MarketService::new(ServiceConfig {
            shards: 3,
            queue_capacity: 32,
            ..ServiceConfig::default()
        })
        .expect("valid service config");
        for &id in ids {
            service
                .register_tenant(id, TenantConfig::standard(3, 500))
                .unwrap();
        }
        service
    }

    #[test]
    fn restore_continues_bit_identically() {
        let ids: Vec<TenantId> = [1u64, 7, 42, u64::MAX - 3]
            .into_iter()
            .map(TenantId)
            .collect();
        // Uninterrupted run: warm-up plus continuation.
        let mut uninterrupted = fresh_service(&ids);
        pump(&mut uninterrupted, &ids, 5);
        let expected = pump(&mut uninterrupted, &ids, 5);

        // Interrupted run: warm-up, snapshot, restore, continuation.
        let mut original = fresh_service(&ids);
        pump(&mut original, &ids, 5);
        let snapshot = original.snapshot().expect("quiescent service");
        let mut restored = MarketService::restore(&snapshot).expect("valid snapshot");
        let continued = pump(&mut restored, &ids, 5);

        assert_eq!(expected.len(), continued.len());
        for (a, b) in expected.iter().zip(&continued) {
            assert_eq!(a.to_bits(), b.to_bits(), "restored quotes must be exact");
        }
        // Service-level counters carried over.
        assert_eq!(
            original.aggregate_metrics().quotes_served,
            MarketService::restore(&snapshot)
                .unwrap()
                .aggregate_metrics()
                .quotes_served
        );
    }

    #[test]
    fn snapshot_rendering_is_deterministic_and_round_trips() {
        let ids: Vec<TenantId> = [3u64, 11].into_iter().map(TenantId).collect();
        let mut service = fresh_service(&ids);
        pump(&mut service, &ids, 3);
        let first = service.snapshot().unwrap().render_pretty();
        let second = service.snapshot().unwrap().render_pretty();
        assert_eq!(first, second, "same state must render to the same bytes");
        // snapshot → restore → snapshot is the identity on the rendering.
        let restored = MarketService::restore(&Json::parse(&first).unwrap()).unwrap();
        assert_eq!(restored.snapshot().unwrap().render_pretty(), first);
    }

    #[test]
    fn restore_keeps_tenant_ledgers_consistent_with_service_metrics() {
        let ids: Vec<TenantId> = [2u64, 19, 400].into_iter().map(TenantId).collect();
        let mut service = fresh_service(&ids);
        pump(&mut service, &ids, 6);
        let snapshot = service.snapshot().expect("quiescent service");
        let restored = MarketService::restore(&snapshot).expect("valid snapshot");

        // Per-tenant ledgers survive bit for bit…
        for &id in &ids {
            let before = service.tenant_report(id).unwrap();
            let after = restored.tenant_report(id).unwrap();
            assert_eq!(before.rounds, after.rounds);
            assert_eq!(before.sales, after.sales);
            assert_eq!(
                before.cumulative_revenue.to_bits(),
                after.cumulative_revenue.to_bits()
            );
            assert_eq!(
                before.cumulative_regret.to_bits(),
                after.cumulative_regret.to_bits()
            );
            assert_eq!(
                before.posted_price_stats.mean().to_bits(),
                after.posted_price_stats.mean().to_bits()
            );
        }

        // …so the fold of tenant ledgers still reconciles with the restored
        // service-level metrics, exactly like on the uninterrupted service.
        let mut folded = pdm_pricing::prelude::RegretReport::empty();
        for &id in &ids {
            folded.merge(&restored.tenant_report(id).unwrap());
        }
        let metrics = restored.aggregate_metrics();
        assert_eq!(folded.sales as u64, metrics.sales);
        assert_eq!(folded.rounds as u64, metrics.observations);
    }

    #[test]
    fn restore_preserves_accept_only_session_counters() {
        // Production mode: outcomes carry only the accept bit, so the
        // regret ledger stays empty — the session-level counters must
        // survive the snapshot on their own.
        let ids = [TenantId(8)];
        let mut service = fresh_service(&ids);
        for _ in 0..4 {
            service
                .ingest(Request::Quote(QueryRequest {
                    tenant: TenantId(8),
                    features: pdm_linalg::Vector::from_slice(&[0.5, 0.5, 0.5]),
                    reserve_price: 0.1,
                }))
                .unwrap();
            service.drain(1);
            service
                .ingest(Request::Observe(OutcomeReport {
                    tenant: TenantId(8),
                    accepted: true,
                    market_value: None,
                }))
                .unwrap();
            service.drain(1);
        }
        let first = service.snapshot().unwrap().render_pretty();
        assert!(
            first.contains("\"rounds_closed\":4") || first.contains("\"rounds_closed\": 4"),
            "the session counters must be in the document: {first}"
        );
        // The ledger saw nothing (no ground truth), but a second snapshot of
        // the restored service must still render byte-identically — the
        // accept-only revenue and round counts survived the round trip.
        let restored = MarketService::restore(&Json::parse(&first).unwrap()).unwrap();
        assert_eq!(restored.snapshot().unwrap().render_pretty(), first);
        assert_eq!(restored.aggregate_metrics().sales, 4);
    }

    #[test]
    fn snapshot_refuses_pending_work() {
        let ids = [TenantId(5)];
        let mut service = fresh_service(&ids);
        service
            .ingest(Request::Quote(QueryRequest {
                tenant: TenantId(5),
                features: pdm_linalg::Vector::from_slice(&[0.5, 0.5, 0.5]),
                reserve_price: 0.1,
            }))
            .unwrap();
        // Queued request.
        assert!(matches!(
            service.snapshot(),
            Err(ServiceError::PendingWork { queued: 1, .. })
        ));
        // Quoted but unobserved round.
        service.drain(1);
        assert!(matches!(
            service.snapshot(),
            Err(ServiceError::PendingWork {
                queued: 0,
                open_rounds: 1
            })
        ));
        // Closing the round makes the service quiescent again.
        service
            .ingest(Request::Observe(OutcomeReport {
                tenant: TenantId(5),
                accepted: false,
                market_value: None,
            }))
            .unwrap();
        service.drain(1);
        assert!(service.snapshot().is_ok());
    }

    #[test]
    fn malformed_snapshots_are_rejected_with_context() {
        let err = MarketService::restore(&Json::parse("{}").unwrap()).unwrap_err();
        assert!(matches!(err, ServiceError::MalformedSnapshot(_)));

        let newer = Json::obj(vec![("schema_version", Json::Num(999.0))]);
        let err = MarketService::restore(&newer).unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");

        // A tenant whose knowledge geometry disagrees with its declared
        // dimension is refused, and the error names the tenant.
        let ids = [TenantId(1)];
        let service = fresh_service(&ids);
        let text = service
            .snapshot()
            .unwrap()
            .render()
            .replace("\"dim\":3", "\"dim\":2");
        let err = MarketService::restore(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("tenant-1"),
            "error should name the tenant: {err}"
        );
    }

    #[test]
    fn unusable_initial_radii_are_rejected_at_restore() {
        let text = fresh_service(&[TenantId(1)]).snapshot().unwrap().render();
        let key = "\"initial_radius\":";
        let start = text.find(key).unwrap() + key.len();
        let end = start + text[start..].find(',').unwrap();
        for radius in ["-1", "0", "1e200"] {
            let corrupt = format!("{}{radius}{}", &text[..start], &text[end..]);
            let err = MarketService::restore(&Json::parse(&corrupt).unwrap()).unwrap_err();
            assert!(
                matches!(err, ServiceError::MalformedSnapshot(_)),
                "{radius}"
            );
            assert!(err.to_string().contains("initial_radius"), "{err}");
        }
    }

    #[test]
    fn hostile_headers_are_malformed_before_the_shards_are_built() {
        let text = fresh_service(&[TenantId(1)]).snapshot().unwrap().render();
        for (from, to, says) in [
            // One metric ledger per claimed shard is checked before the
            // shards are allocated: 10^15 shards used to abort the process.
            (
                "\"shards\":3",
                "\"shards\":1e15",
                "expected 1000000000000000 metric ledgers, found 3",
            ),
            // A header `ServiceConfig::validate` refuses is malformed too.
            (
                "\"queue_capacity\":32",
                "\"queue_capacity\":0",
                "`queue_capacity` must be at least 1",
            ),
            (
                "\"privacy_budget\":null",
                "\"privacy_budget\":-1",
                "`privacy_budget` must be positive",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let corrupt = Json::parse(&text.replace(from, to)).unwrap();
            let err = MarketService::restore(&corrupt).unwrap_err();
            assert!(matches!(err, ServiceError::MalformedSnapshot(_)), "{err}");
            assert!(err.to_string().contains(says), "{err}");
        }
    }

    /// Replaces (`Some`) or removes (`None`) one key of a ledger object.
    fn set_key(ledger: &mut Json, key: &str, value: Option<Json>) {
        let Json::Obj(pairs) = ledger else {
            panic!("a ledger is an object")
        };
        pairs.retain(|(k, _)| k != key);
        pairs.extend(value.map(|value| (key.to_owned(), value)));
    }

    #[test]
    fn the_ledger_parser_accepts_exactly_the_documented_shapes() {
        let read = |doc: &Json| metrics_from_json(&Reader::new(doc, Label::Numbered("shard", 0)));
        let message = |doc: &Json| match read(doc) {
            Err(ServiceError::MalformedSnapshot(message)) => message,
            other => panic!("expected a malformed ledger, got {other:?}"),
        };
        let mut ledger = ShardMetrics::new();
        ledger.sales = 3;
        ledger.revenue = 2.5;
        ledger.evictions = 4;
        ledger.epsilon_spent = 0.5;
        ledger.arbitrage_clamps = 2;
        ledger.auction.auctions = 6;
        ledger.auction.welfare = 1.5;
        let doc = metrics_json(&ledger);
        let parsed = read(&doc).unwrap();
        assert_eq!(metrics_json(&parsed), doc);

        // A v1 key is required.
        let mut missing = doc.clone();
        set_key(&mut missing, "sales", None);
        assert_eq!(message(&missing), "shard 0: missing count `sales`");

        // The keys added in v3–v5 read as zero when absent.
        let later = [
            "drift_fires",
            "drift_restarts",
            "evictions",
            "rehydrations",
            "epsilon_spent",
            "compensation_paid",
            "owners_exhausted",
            "privacy_throttled",
            "arbitrage_clamps",
        ];
        let mut old = doc.clone();
        for key in later {
            set_key(&mut old, key, None);
        }
        let parsed = metrics_json(&read(&old).unwrap());
        for key in later {
            assert_eq!(parsed.get(key), Some(&Json::Num(0.0)), "{key}");
        }
        assert_eq!(parsed.get("sales"), Some(&Json::Num(3.0)));
        assert_eq!(parsed.get("auction"), doc.get("auction"));

        // …but a present one must parse.
        for bad in [Json::Num(-1.0), Json::Num(1.5), Json::str("x")] {
            let mut corrupt = doc.clone();
            set_key(&mut corrupt, "evictions", Some(bad));
            assert_eq!(message(&corrupt), "shard 0: `evictions` must be a count");
        }
        let mut corrupt = doc.clone();
        set_key(&mut corrupt, "epsilon_spent", Some(Json::str("x")));
        assert_eq!(
            message(&corrupt),
            "shard 0: `epsilon_spent` must be a number"
        );

        // No auction object reads as an empty auction ledger.
        let mut v1 = doc.clone();
        set_key(&mut v1, "auction", None);
        let parsed = metrics_json(&read(&v1).unwrap());
        assert_eq!(
            parsed.get("auction"),
            metrics_json(&ShardMetrics::new()).get("auction")
        );

        // A present auction object must carry every auction figure.
        let mut auction = doc.get("auction").unwrap().clone();
        set_key(&mut auction, "welfare", None);
        let mut partial = doc.clone();
        set_key(&mut partial, "auction", Some(auction));
        assert_eq!(
            message(&partial),
            "shard 0 auction: missing number `welfare`"
        );
    }
}
