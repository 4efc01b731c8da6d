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
//!
//! Every persisted type lists its fields once, and that one list drives
//! every direction it is written or read in.  A tenant's is the walk of
//! `page.rs`, which drives four: a cold page's byte count, its bytes, the
//! document's JSON text and the document read back.  The shard metric
//! ledger walks `ShardMetrics::fields_mut` and the header walks
//! [`ServiceConfig`]'s sizing, both through the same JSON writer and
//! reader.  Since a document renders from a tenant's persisted parts, a
//! snapshot or checkpoint renders a paged-out tenant straight from the
//! parts its page reads into; only a request rehydrates it, through the
//! build that runs every check.

use std::fmt;

use crate::api::ServiceError;
use crate::ledger::{LedgerBank, OwnerLedger};
use crate::metrics::{Field, ShardMetrics, Slot};
use crate::page::{walk, Io, JsonOut, Leaf};
use crate::reader::{Label, Reader};
use crate::routing::TenantId;
use crate::service::{MarketService, ServiceConfig};
use crate::sync;
use crate::tenant::{AuctionPolicy, MarketKind, TenantConfig, TenantState};
use pdm_auction::{EmpiricalConfig, EmpiricalReserve};
use pdm_ellipsoid::Ellipsoid;
use pdm_linalg::{Json, LinalgError, Matrix, PackedSymmetric, Vector};
use pdm_pricing::prelude::{
    DriftAwarePricing, EllipsoidPricing, LinearModel, PricingConfig, RegretReport,
};

/// Version of the snapshot schema this build writes.
///
/// v6 stores each tenant's `knowledge.shape` as the packed upper triangle
/// of the symmetric shape matrix, row by row: `n(n+1)/2` numbers instead
/// of the `n²` of a full row-major matrix.  It is the in-memory layout of
/// the ellipsoid's shape ([`PackedSymmetric`]), so writing copies the
/// buffer, reading builds it directly, and the round trip is exact.  The
/// document's `schema_version` decides the layout, never the array length
/// (at dim 1 the two coincide); v1–v5 documents restore from their full
/// matrices.
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
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 6;

/// The first schema version whose tenant documents store the shape as its
/// packed upper triangle.
const PACKED_SHAPE_SINCE: u64 = 6;

/// How far a v1–v5 full shape matrix may stray from symmetry, the
/// tolerance of the positive-definiteness check those documents were
/// always read with.
const DENSE_SHAPE_SYMMETRY_TOL: f64 = 1e-6;

pub(crate) fn metrics_json(metrics: &ShardMetrics) -> Json {
    JsonOut::write(|out| shard_ledger(out, &mut metrics.clone()))
}

/// Reads a ledger written by [`metrics_json`] at any schema version.
pub(crate) fn metrics_from_json(ledger: &Reader) -> Result<ShardMetrics, ServiceError> {
    let mut metrics = ShardMetrics::new();
    shard_ledger(&mut ledger.clone(), &mut metrics)?;
    Ok(metrics)
}

/// A shard's metric ledger, in [`ShardMetrics::fields_mut`] order with the
/// auction figures in their nested object.  A v1 document has no `auction`
/// object, which reads as an empty auction ledger.
fn shard_ledger<I: Io>(io: &mut I, metrics: &mut ShardMetrics) -> Result<(), I::Error> {
    let (auction, top): (Vec<_>, Vec<_>) = metrics
        .fields_mut()
        .into_iter()
        .partition(|(field, _)| field.nested);
    top.into_iter().try_for_each(|entry| figure(io, entry))?;
    io.object("auction", false, |io| {
        auction.into_iter().try_for_each(|entry| figure(io, entry))
    })
}

/// One ledger figure.  The keys added in v3–v5 read as zero when absent;
/// but a key that is present must parse (corruption is an error, not a
/// silent zero).
fn figure<I: Io>(io: &mut I, (field, slot): (Field, Slot)) -> Result<(), I::Error> {
    if !field.required && !io.has(field.key) {
        return Ok(());
    }
    match slot {
        Slot::Count(count) => io.leaf(field.key, count),
        Slot::Money(money) => io.leaf(field.key, money),
    }
}

/// The persisted state of a privacy tenant's [`LedgerBank`].
#[derive(Default)]
pub(crate) struct LedgerRestore {
    pub(crate) epsilon_spent: Vec<f64>,
    pub(crate) compensation: Vec<f64>,
    pub(crate) queries: Vec<u64>,
    pub(crate) exhausted: Vec<bool>,
    pub(crate) epsilon_spent_total: f64,
    pub(crate) compensation_total: f64,
}

/// The restored detector state of a restart-policy tenant.
#[derive(Default)]
pub(crate) struct DriftRestore {
    pub(crate) fires: u64,
    pub(crate) restarts: u64,
    pub(crate) flags: Vec<bool>,
}

/// Serialises one tenant to its snapshot/WAL document.
///
/// This document is the unit of persistence everywhere: full snapshots and
/// WAL segments (see [`crate::wal`]) carry its JSON text, and a cold page
/// ([`crate::page`]) carries the same fields through the same walk as raw
/// bits, so a tenant round-trips bit-identically whichever path it took.
pub(crate) fn tenant_json(state: &TenantState) -> Json {
    TenantParts::of(state).json()
}

/// Reads a v1–v5 shape: the full `n × n` row-major matrix, packed.
fn dense_shape(dim: usize, numbers: Vec<f64>) -> Result<PackedSymmetric, LinalgError> {
    let dense = Matrix::from_row_major(dim, dim, numbers)?;
    let max_asymmetry = dense.max_asymmetry();
    if max_asymmetry > DENSE_SHAPE_SYMMETRY_TOL {
        return Err(LinalgError::NotSymmetric { max_asymmetry });
    }
    PackedSymmetric::from_dense(&dense)
}

/// The session-level counters of a tenant document.
#[derive(Default)]
pub(crate) struct SessionCounters {
    pub(crate) rounds_closed: u64,
    pub(crate) sales: u64,
    pub(crate) revenue: f64,
    pub(crate) regret_proxy: f64,
}

/// A tenant as read from its document or its cold page: plain values, no
/// check run and nothing built yet.  [`TenantParts::build`] is the one
/// path from here to a [`TenantState`], so both readers run every check.
pub(crate) struct TenantParts {
    pub(crate) id: TenantId,
    /// The schema version the parts were read under; it picks the shape
    /// layout.
    pub(crate) version: u64,
    pub(crate) config: TenantConfig,
    pub(crate) center: Vec<f64>,
    pub(crate) shape: Vec<f64>,
    /// An empirical auction tenant's bid history.
    pub(crate) history: Vec<(f64, f64)>,
    /// A privacy tenant's owner ledgers.
    pub(crate) owners: LedgerRestore,
    /// A restart-policy tenant's detector.
    pub(crate) detector: DriftRestore,
    /// The regret/revenue ledger; `None` restores a fresh one.
    pub(crate) ledger: Option<RegretReport>,
    /// The session-level totals; `None` keeps the ledger-derived ones.
    pub(crate) counters: Option<SessionCounters>,
}

/// A malformed-document error naming the tenant.
fn malformed(id: TenantId, message: impl fmt::Display) -> ServiceError {
    ServiceError::MalformedSnapshot(format!("{id}: {message}"))
}

impl TenantParts {
    /// Parts with nothing read yet: a static posted-price tenant, which is
    /// what a document from before schema v2 describes.
    pub(crate) fn blank(version: u64) -> Self {
        Self {
            id: TenantId(0),
            version,
            config: TenantConfig::standard(1, 1),
            center: Vec::new(),
            shape: Vec::new(),
            history: Vec::new(),
            owners: LedgerRestore::default(),
            detector: DriftRestore::default(),
            ledger: None,
            counters: None,
        }
    }

    /// Checks the parts and builds the tenant they describe.
    pub(crate) fn build(self) -> Result<TenantState, ServiceError> {
        let Self {
            id,
            version,
            mut config,
            center,
            shape,
            history,
            owners,
            detector,
            ledger,
            counters,
        } = self;
        // Through the builders, which clamp as at registration time.
        let pricing = config.pricing;
        config.pricing = PricingConfig::new(pricing.initial_radius, pricing.horizon)
            .with_reserve(pricing.use_reserve)
            .with_uncertainty(pricing.delta)
            .with_feature_bound(pricing.feature_bound)
            .with_conservative_cuts(pricing.cut_on_conservative);
        // `epsilon: None` means "use the paper's schedule" and must stay
        // None — with_epsilon would pin it.
        if let Some(epsilon) = pricing.epsilon {
            config.pricing = config.pricing.with_epsilon(epsilon);
        }
        // The config check runs before anything is built from it: a drift
        // restart rebuilds the ball from the radius inside a drain, and the
        // ledger bank's compensation contract would panic on a bad
        // parameter.
        config.check().map_err(|reason| malformed(id, reason))?;
        let dim = config.dim;
        if center.len() != dim {
            return Err(malformed(
                id,
                format_args!(
                    "knowledge centre has {} numbers, expected dim={dim}",
                    center.len()
                ),
            ));
        }
        // The version picks the layout; the constructors check the length.
        let shape = if version >= PACKED_SHAPE_SINCE {
            PackedSymmetric::from_packed(dim, shape)
        } else {
            dense_shape(dim, shape)
        }
        .map_err(|e| {
            malformed(
                id,
                format_args!("bad knowledge shape for schema v{version}: {e}"),
            )
        })?;
        let ellipsoid = Ellipsoid::new(Vector::from_vec(center), shape)
            .map_err(|e| malformed(id, format_args!("degenerate knowledge set: {e}")))?;
        let engine =
            EllipsoidPricing::with_knowledge(LinearModel::new(dim), ellipsoid, config.pricing);
        let mut mechanism = DriftAwarePricing::wrap(engine, config.drift);
        // A no-op for the other policies, whose detector state is blank.
        mechanism.restore_drift_state(detector.fires, detector.restarts, &detector.flags);
        let mut state = TenantState::with_mechanism(id, config, mechanism);
        match config.market {
            MarketKind::Auction(AuctionPolicy::Empirical {
                window,
                welfare_weight,
            }) => {
                // `from_history` re-derives the fitted level from the
                // persisted window, so a restored policy always agrees with
                // its own refit.
                state.empirical = Some(EmpiricalReserve::from_history(
                    EmpiricalConfig {
                        window: window.max(1),
                        welfare_weight,
                    },
                    &history,
                ));
            }
            MarketKind::Privacy(params) => {
                for (name, column_len) in [
                    ("epsilon_spent", owners.epsilon_spent.len()),
                    ("compensation", owners.compensation.len()),
                    ("queries", owners.queries.len()),
                    ("exhausted", owners.exhausted.len()),
                ] {
                    if column_len != dim {
                        return Err(malformed(
                            id,
                            format_args!(
                                "privacy `{name}` has {column_len} owners, expected dim={dim}"
                            ),
                        ));
                    }
                }
                let ledgers: Vec<OwnerLedger> = (0..dim)
                    .map(|owner| OwnerLedger {
                        epsilon_spent: owners.epsilon_spent[owner],
                        compensation_accrued: owners.compensation[owner],
                        queries: owners.queries[owner],
                        exhausted: owners.exhausted[owner],
                    })
                    .collect();
                state.privacy = Some(LedgerBank::restore(
                    params,
                    ledgers,
                    owners.epsilon_spent_total,
                    owners.compensation_total,
                ));
            }
            _ => {}
        }
        // The regret/revenue ledger keeps `tenant_report` consistent with
        // the restored shard metrics.
        if let Some(ledger) = ledger {
            state.session.restore_ledger(&ledger);
        }
        // Exact session-level totals, which also cover production
        // (accept-only) rounds the ledger cannot see.  When absent the
        // ledger-derived counters above stand.
        if let Some(counters) = counters {
            state.session.restore_counters(
                counters.rounds_closed,
                counters.sales,
                counters.revenue,
                counters.regret_proxy,
            );
        }
        Ok(state)
    }
}

/// Rebuilds a tenant from its document, read under the `schema_version` of
/// the snapshot or WAL segment that carried it.
pub(crate) fn tenant_from_json(value: &Json, version: u64) -> Result<TenantState, ServiceError> {
    // The id comes first so every later error can name the tenant.
    let id = Reader::new(value, Label::Name("tenant")).read(
        "id",
        TenantId::NOUN,
        TenantId::from_json,
    )?;
    let mut parts = TenantParts::blank(version);
    walk(&mut Reader::new(value, Label::Tenant(id)), &mut parts)?;
    parts.build()
}

/// What a full snapshot and a WAL segment both carry, read past the
/// schema-version gate: tenant documents and one metric ledger per shard.
pub(crate) struct Persisted<'a> {
    doc: Reader<'a>,
    version: u64,
    tenants: &'a [Json],
    ledgers: &'a [Json],
}

impl<'a> Persisted<'a> {
    /// Reads the parts of `doc` after the schema-version gate.
    pub(crate) fn read(doc: Reader<'a>) -> Result<Self, ServiceError> {
        let version = doc.count("schema_version")?;
        if version > SNAPSHOT_SCHEMA_VERSION {
            return Err(doc.error(format_args!(
                "schema v{version} is newer than this build's v{SNAPSHOT_SCHEMA_VERSION}"
            )));
        }
        Ok(Self {
            tenants: doc.array("tenants")?,
            ledgers: doc.array("metrics")?,
            doc,
            version,
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
            let state = tenant_from_json(tenant, self.version)?;
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

/// The service sizing a full snapshot opens with.  The paging knobs
/// arrived with schema v4 and the privacy knobs with v5; older documents
/// carry neither, and a service with a knob unset writes `null` (or `false`
/// for the paging flag).
fn header<I: Io>(io: &mut I, config: &mut ServiceConfig) -> Result<(), I::Error> {
    io.leaf("shards", &mut config.shards)?;
    io.leaf("queue_capacity", &mut config.queue_capacity)?;
    io.leaf("resident_capacity", &mut config.resident_capacity)?;
    io.leaf("wal_segment_size", &mut config.wal_segment_size)?;
    io.leaf("privacy_budget", &mut config.privacy_budget)?;
    io.leaf("compensation_base", &mut config.compensation_base)?;
    let mut ledger_paging = Some(config.ledger_paging);
    io.leaf("ledger_paging", &mut ledger_paging)?;
    config.ledger_paging = ledger_paging.unwrap_or(false);
    Ok(())
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
        Ok(JsonOut::write(|out| {
            out.push("schema_version", Json::Num(SNAPSHOT_SCHEMA_VERSION as f64));
            header(out, &mut self.config())?;
            out.push("tenants", Json::Arr(tenants));
            out.push("metrics", Json::Arr(metrics));
            Ok(())
        }))
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
        let mut persisted = Persisted::read(Reader::new(snapshot, Label::Name("snapshot")))?;
        let mut config = ServiceConfig::default();
        header(&mut persisted.doc, &mut config)?;
        persisted.check_shards(config.shards)?;
        let mut service = MarketService::new(config).map_err(|err| persisted.doc.error(err))?;
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

    /// The value under `key` of a JSON object.
    fn field<'j>(value: &'j mut Json, key: &str) -> &'j mut Json {
        let Json::Obj(pairs) = value else {
            panic!("`{key}` is read from an object")
        };
        &mut pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key exists")
            .1
    }

    #[test]
    fn documents_store_the_packed_triangle_and_v5_matrices_restore_to_it() {
        let ids: Vec<TenantId> = [4u64, 9].into_iter().map(TenantId).collect();
        let mut service = fresh_service(&ids);
        pump(&mut service, &ids, 4);
        let v6 = service.snapshot().unwrap();
        // Rewrite the document as schema v5 would have written it: every
        // shape as its full 3 × 3 row-major matrix.
        let mut v5 = v6.clone();
        *field(&mut v5, "schema_version") = Json::Num(5.0);
        let Json::Arr(tenants) = field(&mut v5, "tenants") else {
            panic!("tenants is an array")
        };
        for tenant in tenants {
            let shape = field(field(tenant, "knowledge"), "shape");
            let packed: Vec<f64> = shape
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .collect();
            assert_eq!(packed.len(), 6, "dim 3 stores 3·4/2 numbers");
            let packed = PackedSymmetric::from_packed(3, packed).unwrap();
            *shape = Json::Arr(
                packed
                    .to_dense()
                    .as_slice()
                    .iter()
                    .map(|&x| Json::Num(x))
                    .collect(),
            );
        }
        // Both layouts restore to the same service, which writes v6 again.
        let rendered = v6.render();
        for doc in [&v6, &v5] {
            let restored = MarketService::restore(doc).unwrap();
            assert_eq!(restored.snapshot().unwrap().render(), rendered);
        }
    }

    #[test]
    fn a_dim_1_shape_restores_under_both_layouts() {
        // At dim 1 the packed triangle and the full matrix are the same
        // single number, so v5 and v6 documents read alike.
        let mut service = fresh_service(&[]);
        service
            .register_tenant(TenantId(6), TenantConfig::standard(1, 100))
            .unwrap();
        let v6 = service.snapshot().unwrap().render();
        // The standard radius at dim 1 is 2, so the shape is [2²].
        assert!(v6.contains("\"shape\":[4]"), "{v6}");
        let v5 = v6.replace("\"schema_version\":6", "\"schema_version\":5");
        assert_ne!(v5, v6);
        for text in [&v6, &v5] {
            let restored = MarketService::restore(&Json::parse(text).unwrap()).unwrap();
            assert_eq!(restored.snapshot().unwrap().render(), v6);
        }
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
    fn a_count_of_two_to_the_64_is_malformed_not_saturated() {
        let mut doc = fresh_service(&[TenantId(1)]).snapshot().unwrap();
        let Json::Arr(tenants) = field(&mut doc, "tenants") else {
            panic!("`tenants` is an array")
        };
        // 2^64 is one past u64::MAX, and the double `u64::MAX` rounds to.
        // The writer prints it as its shortest digits; a file may spell it
        // out in full.
        *field(field(&mut tenants[0], "session"), "sales") =
            Json::Num(18_446_744_073_709_551_616.0);
        let text = doc.render().replace(
            "\"sales\":18446744073709552000",
            "\"sales\":18446744073709551616",
        );
        assert!(text.contains("\"sales\":18446744073709551616"));
        let err = MarketService::restore(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(matches!(err, ServiceError::MalformedSnapshot(_)), "{err}");
        assert!(err.to_string().contains("`sales` must be a count"), "{err}");
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
    fn unknown_variant_names_are_malformed_and_name_their_tenant() {
        let mut service = fresh_service(&[TenantId(1)]);
        let static_auction = TenantConfig::auction(3, 500, AuctionPolicy::Static { markup: 0.1 });
        service
            .register_tenant(TenantId(2), static_auction)
            .unwrap();
        let discounted = TenantConfig::standard(3, 500)
            .with_drift(pdm_pricing::prelude::DriftPolicy::Discounted { inflation: 1.01 });
        service.register_tenant(TenantId(3), discounted).unwrap();
        let text = service.snapshot().unwrap().render();
        for (from, to, says) in [
            (
                "\"kind\":\"posted\"",
                "\"kind\":\"mutant\"",
                "tenant-1 market: unknown market kind `mutant`",
            ),
            (
                "\"policy\":\"static\",\"markup\"",
                "\"policy\":\"mutant\",\"markup\"",
                "tenant-2 market: unknown auction policy `mutant`",
            ),
            (
                "\"policy\":\"discounted\"",
                "\"policy\":\"mutant\"",
                "tenant-3 drift: unknown drift policy `mutant`",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            // Tenants render in id order, so the first match is the
            // tenant the message must name.
            let corrupt = Json::parse(&text.replacen(from, to, 1)).unwrap();
            match MarketService::restore(&corrupt) {
                Err(ServiceError::MalformedSnapshot(message)) => assert_eq!(message, says),
                other => panic!("{from}: expected a malformed snapshot, got {other:?}"),
            }
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
        pairs.extend(value.map(|value| (key.to_owned().into(), value)));
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
