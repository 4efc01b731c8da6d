//! The multi-tenant market-serving engine.
//!
//! [`MarketService`] owns `N` shards, each holding the pricing sessions of
//! the tenants routed to it by the stable hash of [`crate::routing`].  The
//! API is continuous ingest + drain:
//!
//! * [`MarketService::ingest`] admits a request into its tenant's
//!   mutex-striped ingest queue through a **shared** reference (bounded —
//!   overload is **shed** with [`ServiceError::QueueFull`], never buffered
//!   without limit) and returns a [`Ticket`].  Because ingest only takes
//!   `&self`, producers keep admitting traffic while a drain is running:
//!   the stripe mutex is held for one queue push, never for the serving
//!   work itself.  It is the service's only admission call.
//! * [`MarketService::drain`] transfers each stripe into its shard and
//!   serves every queued request, one worker per shard at a time, and
//!   returns the batched [`Response`]s in deterministic (shard, submission)
//!   order.  A multi-worker drain runs on a persistent pool (capped at the
//!   machine's hardware threads): helper threads spawned by the first such
//!   drain park between drains and claim shards alongside the calling
//!   thread (see [`crate::pool`]).
//!
//! Because every shard processes its queue strictly FIFO and shards share
//! no mutable state, the *values* the engine computes are identical for any
//! worker count — the property the `bench serve` workload verifies against
//! a serial simulation bit for bit.
//!
//! With [`ServiceConfig::resident_capacity`] set, each shard additionally
//! bounds the number of tenant sessions it keeps materialised: least
//! recently served tenants are paged out to their serialised form and
//! rehydrated bit-identically on their next request (see
//! [`crate::shard`]).  Eviction requires the WAL
//! ([`ServiceConfig::wal_segment_size`]) so paged-out state always has a
//! durable home — [`ServiceConfig::validate`] rejects one without the
//! other.

use crate::api::{Request, Response, ServiceError, Ticket};
use crate::metrics::ShardMetrics;
use crate::obs::{export_shard_metrics, ServiceObs};
use crate::pool::DrainPool;
use crate::routing::{shard_of, TenantId};
use crate::shard::Shard;
use crate::sync;
use crate::tenant::{MarketKind, TenantConfig, TenantState};
use pdm_linalg::Json;
use pdm_obs::MetricRegistry;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Sizing of a [`MarketService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shards (units of concurrency); clamped to at least 1.
    pub shards: usize,
    /// Bounded per-shard ingest-queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Service-wide cap on materialised tenant sessions (`None` =
    /// unbounded).  The cap is split across shards; tenants beyond a
    /// shard's share are paged out to their serialised form after a drain
    /// and rehydrated on their next request.  Requires
    /// [`ServiceConfig::wal_segment_size`].
    pub resident_capacity: Option<usize>,
    /// Tenant records per write-ahead-log segment (`None` = WAL disabled).
    /// Enables [`MarketService::checkpoint`] incremental snapshots.
    pub wal_segment_size: Option<usize>,
    /// Service-wide cap on every privacy tenant's per-owner ε budget
    /// (`None` = each tenant keeps its configured budget).  Registration
    /// lowers a tenant's [`crate::PrivacyParams::epsilon_budget`] to this
    /// cap, so no tenant can promise its owners more privacy loss than the
    /// deployment allows.
    pub privacy_budget: Option<f64>,
    /// Service-wide floor on every privacy tenant's per-query compensation
    /// base (`None` = each tenant keeps its configured base).  Registration
    /// raises a tenant's [`crate::PrivacyParams::compensation_base`] to
    /// this floor — the deployment's minimum owner payout.
    pub compensation_base: Option<f64>,
    /// Whether privacy tenants (owner ledgers) may page out through the
    /// cold-tenant pager.  Off by default: ledgers record real money and
    /// real privacy loss, so they leave memory only when the WAL
    /// persistence path is configured to keep a durable copy.
    pub ledger_paging: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            queue_capacity: 1024,
            resident_capacity: None,
            wal_segment_size: None,
            privacy_budget: None,
            compensation_base: None,
            ledger_paging: false,
        }
    }
}

impl ServiceConfig {
    /// Checks the sizing is usable.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] when `shards == 0` (nowhere to
    /// route), `queue_capacity == 0` (every request would be shed),
    /// `resident_capacity == Some(0)` (no tenant could ever be served),
    /// `wal_segment_size == Some(0)` (no record would fit a segment), or
    /// eviction is enabled without the WAL persistence path it pages out
    /// to.  These used to be silently clamped to 1, which hid
    /// misconfigured deployments.  The privacy-ledger knobs are checked
    /// the same way: `privacy_budget` must be positive and finite,
    /// `compensation_base` finite and non-negative (a NaN would silently
    /// no-op the registration `min()`/`max()` folding), and
    /// `ledger_paging` requires the WAL.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.shards == 0 {
            return Err(ServiceError::InvalidConfig(
                "`shards` must be at least 1".to_owned(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig(
                "`queue_capacity` must be at least 1 (a zero-capacity queue sheds every request)"
                    .to_owned(),
            ));
        }
        if self.resident_capacity == Some(0) {
            return Err(ServiceError::InvalidConfig(
                "`resident_capacity` must be at least 1 (a zero resident set could never \
                 materialise a tenant to serve it)"
                    .to_owned(),
            ));
        }
        if self.wal_segment_size == Some(0) {
            return Err(ServiceError::InvalidConfig(
                "`wal_segment_size` must be at least 1 (no tenant record fits a zero-size segment)"
                    .to_owned(),
            ));
        }
        if self.resident_capacity.is_some() && self.wal_segment_size.is_none() {
            return Err(ServiceError::InvalidConfig(
                "`resident_capacity` (cold-tenant eviction) requires `wal_segment_size`: evicted \
                 tenants page out through the WAL persistence path"
                    .to_owned(),
            ));
        }
        if self
            .privacy_budget
            .is_some_and(|budget| !budget.is_finite() || budget <= 0.0)
        {
            return Err(ServiceError::InvalidConfig(
                "`privacy_budget` must be positive and finite: a zero ε budget retires every \
                 owner before her first query, and a NaN or infinite cap silently escapes the \
                 registration `min()` fold"
                    .to_owned(),
            ));
        }
        if self
            .compensation_base
            .is_some_and(|base| !base.is_finite() || base < 0.0)
        {
            return Err(ServiceError::InvalidConfig(
                "`compensation_base` must be finite and not negative: owners cannot owe the \
                 market for their own data, and a NaN floor silently escapes the registration \
                 `max()` fold"
                    .to_owned(),
            ));
        }
        if self.ledger_paging && self.wal_segment_size.is_none() {
            return Err(ServiceError::InvalidConfig(
                "`ledger_paging` requires `wal_segment_size`: owner ledgers page out through \
                 the WAL persistence path"
                    .to_owned(),
            ));
        }
        Ok(())
    }

    /// The resident-session cap of shard `index` under `shards` shards:
    /// the service-wide cap split as evenly as the integers allow, so the
    /// per-shard shares always sum to exactly the configured capacity.
    pub(crate) fn resident_share(&self, index: usize) -> Option<usize> {
        self.resident_capacity.map(|cap| {
            let base = cap / self.shards;
            let remainder = cap % self.shards;
            base + usize::from(index < remainder)
        })
    }
}

/// One ingest stripe: the bounded MPSC queue in front of a shard.
///
/// Producers lock the stripe only for the duration of one push; the drain
/// path takes the whole queue in one transfer.  Shed requests are counted
/// here (the stripe is the component that refuses them) and merged into
/// the shard's metric ledger on every read.
#[derive(Debug)]
struct IngestStripe {
    queue: Mutex<VecDeque<(u64, Request)>>,
    shed: AtomicU64,
}

impl IngestStripe {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            shed: AtomicU64::new(0),
        }
    }
}

/// The per-shard state a drain shares with its pool's helper threads, all
/// indexed by shard.
#[derive(Debug)]
struct Core {
    /// Mutex-striped bounded ingest queues, one per shard.
    ingest: Vec<IngestStripe>,
    shards: Vec<Mutex<Shard>>,
    /// One response buffer per shard, filled by whichever worker serves the
    /// shard and emptied, capacity kept, when the drain gathers the slots
    /// in shard order.
    slots: Vec<Mutex<Vec<Response>>>,
}

/// One pool task: transfer shard `index`'s stripe into its FIFO and serve
/// the backlog into the shard's slot.
fn serve_shard(core: &Core, index: usize) {
    let mut shard = sync::lock(&core.shards[index], "shard");
    let mut slot = sync::lock(&core.slots[index], "slot");
    // Empty after every gather, unless a drain that panicked left
    // responses behind: those must not leak into this drain's output.
    slot.clear();
    transfer_stripe(&core.ingest[index], &mut shard);
    shard.process_all_into(&mut slot);
}

/// The worker count a drain actually runs on when `requested` workers are
/// asked for over `shards` shards on a host with `hardware` threads:
/// clamped to `[1, shards]` and capped at `hardware`, because more workers
/// than shards have nothing to claim and more than the machine's threads
/// only pay wake-up and context-switch overhead.  [`MarketService::drain`]
/// applies exactly this rule, so a driver that reports its worker count can
/// report the one the drains used.
#[must_use]
pub fn drain_workers(requested: usize, shards: usize, hardware: usize) -> usize {
    requested.clamp(1, shards.max(1)).min(hardware.max(1))
}

/// Moves everything queued on a stripe into its shard's FIFO, preserving
/// seq order.
fn transfer_stripe(stripe: &IngestStripe, shard: &mut Shard) {
    let mut queue = sync::lock(&stripe.queue, "ingest stripe");
    let moved = queue.len();
    if moved == 0 {
        return;
    }
    // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
    let started = Instant::now();
    shard.admit_transferred(queue.drain(..));
    shard
        .obs
        .registry
        .record_span(shard.obs.transfer, started.elapsed(), moved as u64);
}

/// The sharded serving engine.
#[derive(Debug)]
pub struct MarketService {
    config: ServiceConfig,
    /// Stripes, shards and response slots, shared with the drain pool.
    core: Arc<Core>,
    /// The persistent drain pool, created by the first multi-worker drain
    /// and shut down (helpers joined) when the service drops.
    pool: Option<DrainPool<Core>>,
    /// Every registered tenant id, readable without touching a shard — the
    /// ingest path checks membership here so admission never contends with
    /// a drain worker holding the shard lock.
    registry: RwLock<BTreeSet<TenantId>>,
    next_seq: AtomicU64,
    /// Monotonic WAL segment number (see [`MarketService::checkpoint`]).
    pub(crate) wal_segments: AtomicU64,
    /// Hardware threads available to the drain pool, probed once at
    /// construction, so [`drain_workers`] never probes on the drain path.
    hardware_workers: usize,
    /// Service-level observability state: WAL-stage spans plus the bounded
    /// post-mortem event journal.  Process-local — never persisted; a
    /// restored service starts with a fresh one (see [`crate::obs`]).
    pub(crate) obs: Mutex<ServiceObs>,
}

impl MarketService {
    /// Creates an empty service with the given sizing.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] when the sizing fails
    /// [`ServiceConfig::validate`] — zero shards, a zero queue capacity, a
    /// zero resident cap or WAL segment size, or eviction without the WAL
    /// are rejected instead of silently clamped.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let shards = (0..config.shards)
            .map(|index| {
                Mutex::new(Shard::new(
                    index,
                    config.resident_share(index),
                    config.ledger_paging,
                ))
            })
            .collect();
        Ok(Self {
            config,
            core: Arc::new(Core {
                ingest: (0..config.shards).map(|_| IngestStripe::new()).collect(),
                shards,
                slots: (0..config.shards).map(|_| Mutex::new(Vec::new())).collect(),
            }),
            pool: None,
            registry: RwLock::new(BTreeSet::new()),
            next_seq: AtomicU64::new(0),
            wal_segments: AtomicU64::new(0),
            hardware_workers: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            obs: Mutex::new(ServiceObs::new()),
        })
    }

    /// The sizing the service was built with.
    #[must_use]
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// The shard the given tenant is (or would be) routed to.
    #[must_use]
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        shard_of(tenant, self.core.shards.len())
    }

    /// Total number of registered tenants, resident or paged out.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| sync::lock(s, "shard").tenant_count())
            .sum()
    }

    /// Number of tenants currently materialised in memory.  With
    /// [`ServiceConfig::resident_capacity`] set this stays at or below the
    /// cap between drains.
    #[must_use]
    pub fn resident_tenants(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| sync::lock(s, "shard").resident_count())
            .sum()
    }

    /// Approximate bytes of tenant state held in memory: materialised
    /// sessions at their learned-state footprint, paged-out tenants at the
    /// length of their serialised form.
    #[must_use]
    pub fn resident_memory_bytes(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| sync::lock(s, "shard").resident_memory_bytes())
            .sum()
    }

    /// Registers a new tenant, returning the shard it was routed to.
    ///
    /// The config passes [`TenantConfig`]'s check first (the one a restore
    /// runs too); a privacy tenant's parameters are then folded against
    /// the service-wide knobs: the ε budget is lowered to
    /// [`ServiceConfig::privacy_budget`] and the compensation base raised
    /// to [`ServiceConfig::compensation_base`] when those caps are set.
    ///
    /// # Errors
    /// * [`ServiceError::DuplicateTenant`] when the id is already
    ///   registered.
    /// * [`ServiceError::InvalidConfig`] when the dimension is zero, the
    ///   initial radius is not positive with a finite square, or a privacy
    ///   tenant's ε budget, compensation base, compensation sensitivity,
    ///   Laplace scale, or data range is not positive and finite.
    pub fn register_tenant(
        &mut self,
        id: TenantId,
        mut config: TenantConfig,
    ) -> Result<usize, ServiceError> {
        config.check().map_err(ServiceError::InvalidConfig)?;
        if let MarketKind::Privacy(ref mut params) = config.market {
            if let Some(cap) = self.config.privacy_budget {
                params.epsilon_budget = params.epsilon_budget.min(cap);
            }
            if let Some(floor) = self.config.compensation_base {
                params.compensation_base = params.compensation_base.max(floor);
            }
        }
        self.register_state(TenantState::new(id, config))
    }

    /// Applies one WAL tenant record: last-record-wins replacement of any
    /// existing state, or plain registration when the tenant first appears
    /// after the base snapshot (see [`MarketService::restore_with_wal`]).
    pub(crate) fn apply_wal_record(&mut self, state: TenantState) {
        let index = self.shard_of(state.id);
        let id = state.id;
        sync::lock(&self.core.shards[index], "shard").replace(state);
        sync::write(&self.registry, "registry").insert(id);
    }

    /// Registers a pre-built tenant state (the snapshot-restore path).
    pub(crate) fn register_state(&mut self, state: TenantState) -> Result<usize, ServiceError> {
        let index = self.shard_of(state.id);
        let id = state.id;
        let mut shard = sync::lock(&self.core.shards[index], "shard");
        if shard.contains(id) {
            return Err(ServiceError::DuplicateTenant(id));
        }
        shard.register(state);
        sync::write(&self.registry, "registry").insert(id);
        Ok(index)
    }

    /// Admits one request into its tenant's ingest stripe through a shared
    /// reference — the continuous-ingest path.  Producers on other threads
    /// may call this while a drain is in flight; the stripe mutex is held
    /// only for the push.
    ///
    /// # Errors
    /// * [`ServiceError::UnknownTenant`] — the tenant was never registered.
    /// * [`ServiceError::QueueFull`] — the stripe is at capacity; the
    ///   request is shed (counted in the shard's metrics) instead of
    ///   growing the queue without bound.
    pub fn ingest(&self, request: Request) -> Result<Ticket, ServiceError> {
        let tenant = request.tenant();
        if !sync::read(&self.registry, "registry").contains(&tenant) {
            return Err(ServiceError::UnknownTenant(tenant));
        }
        let index = self.shard_of(tenant);
        let stripe = &self.core.ingest[index];
        let mut queue = sync::lock(&stripe.queue, "ingest stripe");
        if queue.len() >= self.config.queue_capacity {
            stripe.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::QueueFull {
                shard: index,
                capacity: self.config.queue_capacity,
            });
        }
        // Sequence numbers are drawn under the stripe lock so each stripe's
        // queue is strictly seq-ordered — the invariant behind the
        // deterministic (shard, submission) response order.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        queue.push_back((seq, request));
        Ok(Ticket {
            seq,
            tenant,
            shard: index,
        })
    }

    /// Total requests currently queued (ingest stripes plus any shard
    /// backlog mid-drain).
    #[must_use]
    pub fn queued_requests(&self) -> usize {
        let shard_backlog: usize = self
            .core
            .shards
            .iter()
            .map(|s| sync::lock(s, "shard").queue_len())
            .sum();
        self.striped_requests() + shard_backlog
    }

    /// Requests admitted to the ingest stripes and not yet transferred.
    fn striped_requests(&self) -> usize {
        self.core
            .ingest
            .iter()
            .map(|stripe| sync::lock(&stripe.queue, "ingest stripe").len())
            .sum()
    }

    /// Serves every queued request and returns the responses in
    /// deterministic (shard, submission) order.
    ///
    /// Convenience wrapper over [`MarketService::drain_into`] that allocates
    /// the response buffer; hot callers that drain in a loop should hold a
    /// buffer and call `drain_into` to reuse its capacity across drains.
    pub fn drain(&mut self, workers: usize) -> Vec<Response> {
        let mut responses = Vec::new();
        self.drain_into(workers, &mut responses);
        responses
    }

    /// Serves every queued request, appending the responses to `out` in
    /// deterministic (shard, submission) order.
    ///
    /// Each worker first transfers its claimed shard's ingest stripe into
    /// the shard FIFO, then serves the backlog.  Workers claim shard indices
    /// from an atomic counter; each shard is processed serially by whichever
    /// worker claims it, so per-shard state needs no lock contention and the
    /// computed values are independent of the worker count.  `workers` is
    /// reduced to the count [`drain_workers`] allows for the shard count
    /// and the machine's hardware threads.  An effective single worker
    /// (including every drain on a single-core host) runs on the calling
    /// thread with no pool at all.  `n` workers are the calling thread plus
    /// `n - 1` helpers of the service's persistent pool: the first such
    /// drain spawns them, later drains wake them from their park, and
    /// dropping the service joins them.  Each shard's responses land in its
    /// own slot and are gathered in shard order.
    ///
    /// Requests ingested *after* a shard's transfer step are served by the
    /// next drain — continuous producers never block on the serving work,
    /// they only wait out the one-push stripe lock.
    ///
    /// # Panics
    /// When a worker panics — e.g. on a shard whose lock an earlier panic
    /// poisoned — the drain re-raises that panic once every other shard is
    /// served, whichever thread hit it.
    pub fn drain_into(&mut self, workers: usize, out: &mut Vec<Response>) {
        let shard_count = self.core.shards.len();
        let workers = drain_workers(workers, shard_count, self.hardware_workers);

        // An idle drain (e.g. the silent waves of a bursty workload) must
        // not lock shards or wake the pool.  The stripes are all there is
        // to check: every drain empties each shard FIFO it fills.
        if self.striped_requests() == 0 {
            return;
        }

        if workers <= 1 {
            for (stripe, shard) in self.core.ingest.iter().zip(&self.core.shards) {
                let mut shard = sync::lock(shard, "shard");
                transfer_stripe(stripe, &mut shard);
                shard.process_all_into(out);
            }
            return;
        }

        self.pool
            .get_or_insert_with(|| DrainPool::new(Arc::clone(&self.core), shard_count, serve_shard))
            .run(workers - 1);
        for slot in &self.core.slots {
            out.append(&mut sync::lock(slot, "slot"));
        }
    }

    /// The regret ledger one tenant accumulated from outcomes that carried
    /// ground-truth market values, or `None` for an unregistered tenant.
    /// Paged-out tenants are read from their serialised form without
    /// disturbing the resident set.
    ///
    /// Benchmark drivers fold these together **in tenant order** (see
    /// [`pdm_pricing::regret::RegretReport::merge`]) to compare a sharded
    /// run against a serial simulation bit for bit.
    #[must_use]
    pub fn tenant_report(&self, tenant: TenantId) -> Option<pdm_pricing::prelude::RegretReport> {
        sync::lock(&self.core.shards[self.shard_of(tenant)], "shard").tenant_report(tenant)
    }

    /// A clone of each shard's metrics ledger, in shard order, with the
    /// shed count of the shard's ingest stripe folded in.
    #[must_use]
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        self.core
            .shards
            .iter()
            .zip(&self.core.ingest)
            .map(|(shard, stripe)| {
                let mut metrics = sync::lock(shard, "shard").metrics.clone();
                metrics.shed += stripe.shed.load(Ordering::Relaxed);
                metrics
            })
            .collect()
    }

    /// All shard ledgers folded ([`ShardMetrics::merge`]) into one
    /// service-wide aggregate, in shard-index order — deterministic for a
    /// given request stream, independent of worker count.  This is the
    /// figure `bench serve`'s summary table and the dashboards read.
    #[must_use]
    pub fn aggregate_metrics(&self) -> ShardMetrics {
        let mut total = ShardMetrics::new();
        for shard in self.shard_metrics() {
            total.merge(&shard);
        }
        total
    }

    /// One merged observability registry for the whole service — the scrape
    /// endpoint's data source.  Render it with
    /// [`MetricRegistry::render_prometheus`] or dump it with
    /// [`MetricRegistry::to_json`].
    ///
    /// The scrape folds, in this order:
    ///
    /// 1. the service-level registry (WAL checkpoint/restore spans),
    /// 2. every shard's registry, in shard-index order (serving-stage spans),
    /// 3. the aggregate [`ShardMetrics`] ledger, exported as one named
    ///    counter per field of [`ShardMetrics::fields`],
    /// 4. point-in-time gauges (queue depth, residency, open rounds,
    ///    memory, WAL segments).
    ///
    /// Counter and histogram merges are exact folds in a fixed order, and
    /// the gauges read deterministic engine state, so everything except the
    /// wall-clock span halves is a pure function of the request stream —
    /// byte-identical across worker counts under
    /// [`MetricRegistry::to_json`]`(true)`.
    ///
    /// The registry is process-local and **not** persisted: a restored
    /// service scrapes fresh (empty) span histograms, while the exported
    /// ledger counters survive because the [`ShardMetrics`] they re-read at
    /// every scrape travels in snapshots and WAL segments.
    #[must_use]
    pub fn scrape(&self) -> MetricRegistry {
        let mut merged = sync::lock(&self.obs, "obs").registry.clone();
        let mut resident = 0usize;
        let mut cold = 0usize;
        let mut open_rounds = 0usize;
        let mut memory_bytes = 0usize;
        let mut shard_backlog = 0usize;
        for shard in &self.core.shards {
            let shard = sync::lock(shard, "shard");
            merged.merge(&shard.obs.registry);
            resident += shard.resident_count();
            cold += shard.tenant_count() - shard.resident_count();
            open_rounds += shard.open_rounds();
            memory_bytes += shard.resident_memory_bytes();
            shard_backlog += shard.queue_len();
        }
        export_shard_metrics(&mut merged, &self.aggregate_metrics());
        let striped = self.striped_requests();
        let mut set = |name: &str, help: &str, value: f64| {
            let id = merged.gauge(name, help);
            merged.set(id, value);
        };
        set(
            "queue.depth",
            "Requests queued across ingest stripes and shard FIFOs",
            (striped + shard_backlog) as f64,
        );
        set(
            "tenants.resident",
            "Tenant sessions currently materialised in memory",
            resident as f64,
        );
        set(
            "tenants.cold",
            "Tenant sessions paged out to their serialised form",
            cold as f64,
        );
        set(
            "rounds.open",
            "Tenants with a quoted-but-unobserved round",
            open_rounds as f64,
        );
        set(
            "memory.resident_bytes",
            "Approximate bytes of tenant state held in memory",
            memory_bytes as f64,
        );
        set(
            "wal.segments_written",
            "WAL segments written (or replayed) so far",
            self.wal_segments.load(Ordering::Relaxed) as f64,
        );
        merged
    }

    /// The service's bounded post-mortem event journal (checkpoints,
    /// restores) as a JSON array of `{seq, label, value}` objects, oldest
    /// first.  Process-local and wall-clock-free, but *order*-sensitive to
    /// operator actions — it is diagnostics, not part of any determinism
    /// comparison.
    #[must_use]
    pub fn event_journal(&self) -> Json {
        sync::lock(&self.obs, "obs").journal.to_json()
    }

    /// The shards, for the snapshot writer and restorer.
    pub(crate) fn shards(&self) -> &[Mutex<Shard>] {
        &self.core.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OutcomeReport, Payload, QueryRequest};
    use pdm_linalg::Vector;

    fn query(tenant: u64, features: &[f64]) -> Request {
        Request::Quote(QueryRequest {
            tenant: TenantId(tenant),
            features: Vector::from_slice(features),
            reserve_price: 0.1,
        })
    }

    fn service_with_tenants(shards: usize, tenants: u64) -> MarketService {
        let mut service = MarketService::new(ServiceConfig {
            shards,
            queue_capacity: 64,
            ..ServiceConfig::default()
        })
        .expect("valid service config");
        for id in 0..tenants {
            service
                .register_tenant(TenantId(id), TenantConfig::standard(2, 100))
                .expect("fresh id");
        }
        service
    }

    #[test]
    fn register_routes_by_stable_hash_and_rejects_duplicates() {
        let mut service = service_with_tenants(4, 10);
        assert_eq!(service.tenant_count(), 10);
        for id in 0..10 {
            assert_eq!(
                service.shard_of(TenantId(id)),
                crate::routing::shard_of(TenantId(id), 4)
            );
        }
        assert_eq!(
            service.register_tenant(TenantId(3), TenantConfig::standard(2, 100)),
            Err(ServiceError::DuplicateTenant(TenantId(3)))
        );
    }

    #[test]
    fn unknown_tenants_are_refused_at_admission() {
        let service = service_with_tenants(2, 1);
        let err = service.ingest(query(99, &[1.0, 0.0])).unwrap_err();
        assert_eq!(err, ServiceError::UnknownTenant(TenantId(99)));
    }

    #[test]
    fn admit_then_drain_preserves_order_and_tickets() {
        let mut service = service_with_tenants(3, 6);
        let mut tickets = Vec::new();
        for id in 0..6 {
            tickets.push(service.ingest(query(id, &[0.6, 0.8])).unwrap());
        }
        let responses = service.drain(3);
        assert_eq!(responses.len(), 6);
        // Responses come back in (shard, submission) order and carry the
        // submitted sequence numbers.
        let mut last = (0usize, 0u64);
        for response in &responses {
            assert!(matches!(response.payload, Payload::Quoted(_)));
            let key = (response.shard, response.seq);
            assert!(key >= last, "responses must be shard/submission ordered");
            last = key;
            let ticket = tickets.iter().find(|t| t.seq == response.seq).unwrap();
            assert_eq!(ticket.tenant, response.tenant);
            assert_eq!(ticket.shard, response.shard);
        }
        assert_eq!(service.aggregate_metrics().quotes_served, 6);
    }

    #[test]
    fn overload_is_shed_with_an_error_and_counted() {
        let mut service = MarketService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        })
        .expect("valid service config");
        service
            .register_tenant(TenantId(0), TenantConfig::standard(2, 100))
            .unwrap();
        assert!(service.ingest(query(0, &[1.0, 0.0])).is_ok());
        assert!(service.ingest(query(0, &[1.0, 0.0])).is_ok());
        let err = service.ingest(query(0, &[1.0, 0.0])).unwrap_err();
        assert!(matches!(err, ServiceError::QueueFull { shard: 0, .. }));
        assert_eq!(service.aggregate_metrics().shed, 1);
        assert!(service.aggregate_metrics().shed_rate() > 0.0);
        // Draining frees capacity again.
        assert_eq!(service.drain(1).len(), 2);
        assert!(service.ingest(query(0, &[1.0, 0.0])).is_ok());
    }

    #[test]
    fn concurrent_ingest_through_a_shared_reference_is_admitted() {
        // The continuous-ingest contract: producers on several threads push
        // through `&self` while nothing else holds the service, and every
        // admitted request is eventually served exactly once.
        let mut service = service_with_tenants(4, 8);
        let shared = &service;
        let admitted: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|worker| {
                    scope.spawn(move || {
                        let mut ok = 0usize;
                        for round in 0..16u64 {
                            let id = (worker * 16 + round) % 8;
                            if shared.ingest(query(id, &[0.6, 0.8])).is_ok() {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(service.queued_requests(), admitted);
        let responses = service.drain(4);
        assert_eq!(responses.len(), admitted);
        let metrics = service.aggregate_metrics();
        assert_eq!(metrics.quotes_served as usize, admitted);
        assert_eq!(metrics.quotes_served + metrics.shed, 64);
    }

    #[test]
    fn worker_count_does_not_change_served_values() {
        let run = |workers: usize| {
            let mut service = service_with_tenants(4, 12);
            let mut posted = Vec::new();
            for wave in 0..5 {
                for id in 0..12 {
                    let x = Vector::from_slice(&[0.5 + 0.01 * wave as f64, 0.5]);
                    service
                        .ingest(Request::Quote(QueryRequest {
                            tenant: TenantId(id),
                            features: x,
                            reserve_price: 0.2,
                        }))
                        .unwrap();
                }
                let responses = service.drain(workers);
                for response in &responses {
                    let quote = response.quote().unwrap();
                    posted.push((response.tenant, quote.posted_price));
                    service
                        .ingest(Request::Observe(OutcomeReport {
                            tenant: response.tenant,
                            accepted: quote.posted_price <= 1.0,
                            market_value: Some(1.0),
                        }))
                        .unwrap();
                }
                service.drain(workers);
            }
            (
                posted,
                service.aggregate_metrics().revenue,
                service.aggregate_metrics().regret,
            )
        };
        let (posted_1, revenue_1, regret_1) = run(1);
        let (posted_4, revenue_4, regret_4) = run(4);
        assert_eq!(posted_1, posted_4);
        assert_eq!(revenue_1.to_bits(), revenue_4.to_bits());
        assert_eq!(regret_1.to_bits(), regret_4.to_bits());
    }

    #[test]
    fn scrape_renders_valid_prometheus_and_a_worker_independent_deterministic_dump() {
        let run = |workers: usize| {
            let mut service = service_with_tenants(4, 12);
            for wave in 0..5 {
                for id in 0..12 {
                    let x = Vector::from_slice(&[0.5 + 0.01 * wave as f64, 0.5]);
                    service
                        .ingest(Request::Quote(QueryRequest {
                            tenant: TenantId(id),
                            features: x,
                            reserve_price: 0.2,
                        }))
                        .unwrap();
                }
                for response in service.drain(workers) {
                    let quote = response.quote().unwrap();
                    service
                        .ingest(Request::Observe(OutcomeReport {
                            tenant: response.tenant,
                            accepted: quote.posted_price <= 1.0,
                            market_value: Some(1.0),
                        }))
                        .unwrap();
                }
                service.drain(workers);
            }
            service.scrape()
        };
        let serial = run(1);
        let pooled = run(4);

        // The deterministic half — counters, gauges, work histograms — is
        // byte-identical across worker counts; only wall-clock span halves
        // may differ.
        assert_eq!(serial.to_json(true).render(), pooled.to_json(true).render());

        // The serving stages recorded real work.
        let drain = serial.histogram_counts("shard.drain.work_items").unwrap();
        assert!(drain.count() > 0);
        assert_eq!(drain.sum(), 120, "5 waves × 12 quotes + 12 observes");
        let quote = serial.histogram_counts("shard.quote.work_items").unwrap();
        assert!(quote.count() > 0);
        assert_eq!(quote.sum(), 120, "posted segments cover every request");
        let transfer = serial
            .histogram_counts("ingest.transfer.work_items")
            .unwrap();
        assert_eq!(transfer.sum(), 120);

        // Ledger counters are exported and gauges read the drained state.
        assert_eq!(serial.counter_value("quotes_served_total"), Some(60.0));
        assert_eq!(serial.counter_value("observations_total"), Some(60.0));
        assert_eq!(serial.gauge_value("queue.depth"), Some(0.0));
        assert_eq!(serial.gauge_value("rounds.open"), Some(0.0));
        assert_eq!(serial.gauge_value("tenants.resident"), Some(12.0));

        // The Prometheus rendering passes its own exposition lint.
        let text = serial.render_prometheus();
        assert!(text.contains("pdm_quotes_served_total 60"));
        assert!(text.contains("pdm_shard_drain_wall_nanos_bucket"));
        pdm_obs::prom::parse(&text).expect("scrape renders a valid exposition");
    }

    #[test]
    fn registry_is_process_local_and_resets_on_restore() {
        // Satellite contract: registry contents are process-local scratch —
        // a restored service starts with empty span histograms — except the
        // serving counters, which survive because they are re-exported from
        // the persisted `ShardMetrics` ledger at every scrape.  The snapshot
        // schema itself is untouched by the observability layer.
        let mut service = service_with_tenants(2, 4);
        for id in 0..4 {
            service.ingest(query(id, &[0.6, 0.8])).unwrap();
        }
        for response in service.drain(2) {
            service
                .ingest(Request::Observe(OutcomeReport {
                    tenant: response.tenant,
                    accepted: true,
                    market_value: Some(1.0),
                }))
                .unwrap();
        }
        service.drain(2);
        let before = service.scrape();
        assert!(
            before
                .histogram_counts("shard.drain.work_items")
                .unwrap()
                .count()
                > 0
        );
        assert_eq!(before.counter_value("quotes_served_total"), Some(4.0));

        let snapshot = service.snapshot().unwrap();
        let restored = MarketService::restore(&snapshot).unwrap();
        let after = restored.scrape();
        assert_eq!(
            after
                .histogram_counts("shard.drain.work_items")
                .unwrap()
                .count(),
            0,
            "span histograms are process-local and reset on restore"
        );
        assert_eq!(
            after.counter_value("quotes_served_total"),
            Some(4.0),
            "ledger-backed counters persist through the snapshot"
        );
        assert!(restored.event_journal().render().len() >= 2);
    }

    #[test]
    fn a_poisoned_shard_panics_the_drain_instead_of_hanging() {
        // Whichever worker claims the poisoned shard — the calling thread or
        // a pool helper — the drain re-raises its panic once the other
        // shards are served.  Each shard carries enough work that the
        // helper wakes while the caller is still busy, and the poisoned
        // shard moves through every position, so over the repetitions both
        // kinds of worker claim it.  (The pool's own tests force each case
        // deterministically.)
        const DIM: usize = 48;
        for poisoned in 0..4 {
            let mut service = MarketService::new(ServiceConfig {
                shards: 4,
                queue_capacity: 1024,
                ..ServiceConfig::default()
            })
            .unwrap();
            for id in 0..32 {
                service
                    .register_tenant(TenantId(id), TenantConfig::standard(DIM, 100))
                    .unwrap();
            }
            let shard = &service.core.shards[poisoned];
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap();
                panic!("poison shard {poisoned}");
            }));
            for _ in 0..8 {
                for id in 0..32 {
                    let features = Vector::from_slice(&[1.0 / (DIM as f64).sqrt(); DIM]);
                    service
                        .ingest(Request::Quote(QueryRequest {
                            tenant: TenantId(id),
                            features,
                            reserve_price: 0.1,
                        }))
                        .unwrap();
                }
                let mut out = Vec::new();
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.drain_into(2, &mut out);
                }))
                .expect_err("draining a poisoned shard panics");
                let message = payload.downcast::<String>().unwrap();
                assert!(message.contains("shard lock poisoned"), "{message}");
            }
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_not_clamped() {
        // Regression: `queue_capacity: 0` used to be silently clamped to 1
        // (by `Shard::new`), hiding a deployment that would otherwise shed
        // every request.  It is now a construction-time config error.
        let err = MarketService::new(ServiceConfig {
            shards: 4,
            queue_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        assert!(err.to_string().contains("queue_capacity"), "{err}");

        let err = MarketService::new(ServiceConfig {
            shards: 0,
            queue_capacity: 16,
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        assert!(err.to_string().contains("shards"), "{err}");

        // The boundary sizing is valid.
        let service = MarketService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        })
        .expect("minimal sizing is valid");
        assert_eq!(service.shard_count(), 1);
        assert_eq!(service.config().queue_capacity, 1);
    }

    #[test]
    fn paging_and_wal_knobs_are_validated() {
        // A zero resident cap could never materialise a tenant.
        let err = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            resident_capacity: Some(0),
            wal_segment_size: Some(16),
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        assert!(err.to_string().contains("resident_capacity"), "{err}");

        // A zero WAL segment size fits no record.
        let err = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            resident_capacity: None,
            wal_segment_size: Some(0),
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        assert!(err.to_string().contains("wal_segment_size"), "{err}");

        // Eviction without the WAL has nowhere durable to page out to.
        let err = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            resident_capacity: Some(4),
            wal_segment_size: None,
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        let message = err.to_string();
        assert!(message.contains("resident_capacity"), "{message}");
        assert!(message.contains("wal_segment_size"), "{message}");

        // The combined sizing is valid, and the per-shard shares sum to
        // exactly the configured cap.
        let config = ServiceConfig {
            shards: 3,
            queue_capacity: 8,
            resident_capacity: Some(7),
            wal_segment_size: Some(4),
            ..ServiceConfig::default()
        };
        assert!(MarketService::new(config).is_ok());
        let shares: usize = (0..3).map(|i| config.resident_share(i).unwrap()).sum();
        assert_eq!(shares, 7);
    }

    #[test]
    fn unusable_initial_radii_are_rejected_at_registration() {
        let mut service = service_with_tenants(1, 0);
        for radius in [-1.0, 0.0, f64::NAN, f64::INFINITY, 1e200] {
            let mut config = TenantConfig::standard(2, 10);
            config.pricing.initial_radius = radius;
            let err = service.register_tenant(TenantId(7), config).unwrap_err();
            assert!(matches!(err, ServiceError::InvalidConfig(_)), "{radius}");
            assert!(err.to_string().contains("initial_radius"), "{err}");
        }
        assert_eq!(service.tenant_count(), 0);
    }

    #[test]
    fn registration_refuses_a_zero_dim_and_takes_huge_windows() {
        let mut service = service_with_tenants(1, 0);
        let mut flat = TenantConfig::standard(2, 10);
        flat.dim = 0;
        let err = service.register_tenant(TenantId(1), flat).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        assert!(err.to_string().contains("`dim`"), "{err}");
        // A window is a bound, not an allocation.
        let huge = usize::MAX / 2;
        let restart = TenantConfig::standard(2, 10).with_drift(crate::DriftPolicy::Restart {
            window: huge,
            threshold: 3,
        });
        let empirical = TenantConfig::auction(
            2,
            10,
            crate::tenant::AuctionPolicy::Empirical {
                window: huge,
                welfare_weight: 0.0,
            },
        );
        service.register_tenant(TenantId(2), restart).unwrap();
        service.register_tenant(TenantId(3), empirical).unwrap();
        assert_eq!(service.tenant_count(), 2);
    }

    #[test]
    fn privacy_ledger_knobs_are_validated() {
        // A zero ε budget would retire every owner before her first query.
        let err = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            privacy_budget: Some(0.0),
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        let message = err.to_string();
        assert!(message.contains("privacy_budget"), "{message}");
        assert!(message.contains("positive"), "{message}");

        // A negative compensation base would have owners paying the market.
        let err = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            compensation_base: Some(-0.5),
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        let message = err.to_string();
        assert!(message.contains("compensation_base"), "{message}");
        assert!(message.contains("negative"), "{message}");

        // A NaN or infinite ε cap would silently no-op the registration
        // `min()` fold (f64::min ignores NaN) and drop the deployment cap.
        for bad in [f64::NAN, f64::INFINITY] {
            let err = MarketService::new(ServiceConfig {
                shards: 2,
                queue_capacity: 8,
                privacy_budget: Some(bad),
                ..ServiceConfig::default()
            })
            .unwrap_err();
            assert!(matches!(err, ServiceError::InvalidConfig(_)));
            let message = err.to_string();
            assert!(message.contains("privacy_budget"), "{message}");
            assert!(message.contains("finite"), "{message}");
        }

        // Likewise a NaN compensation floor would escape the `max()` fold.
        let err = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            compensation_base: Some(f64::NAN),
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        let message = err.to_string();
        assert!(message.contains("compensation_base"), "{message}");
        assert!(message.contains("finite"), "{message}");

        // Ledger paging without the WAL has no durable home for ledgers.
        let err = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            ledger_paging: true,
            ..ServiceConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        let message = err.to_string();
        assert!(message.contains("ledger_paging"), "{message}");
        assert!(message.contains("wal_segment_size"), "{message}");

        // The combined privacy sizing is valid.
        assert!(MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            wal_segment_size: Some(4),
            privacy_budget: Some(2.0),
            compensation_base: Some(0.05),
            ledger_paging: true,
            ..ServiceConfig::default()
        })
        .is_ok());
    }

    #[test]
    fn registration_checks_privacy_params_and_folds_service_knobs() {
        use crate::tenant::PrivacyParams;
        let mut service = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            privacy_budget: Some(1.5),
            compensation_base: Some(0.25),
            ..ServiceConfig::default()
        })
        .unwrap();
        // A non-positive compensation base is rejected with an error, not
        // the panic the contract constructor would raise.
        let bad = PrivacyParams {
            compensation_base: 0.0,
            ..PrivacyParams::default()
        };
        let err = service
            .register_tenant(TenantId(1), TenantConfig::privacy(2, 100, bad))
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        assert!(err.to_string().contains("compensation_base"), "{err}");

        // Registration lowers the ε budget to the service cap and raises
        // the compensation base to the service floor.
        let generous = PrivacyParams {
            epsilon_budget: 10.0,
            compensation_base: 0.01,
            ..PrivacyParams::default()
        };
        service
            .register_tenant(TenantId(2), TenantConfig::privacy(2, 100, generous))
            .unwrap();
        let index = service.shard_of(TenantId(2));
        let shard = service.core.shards[index].lock().unwrap();
        let state = shard.resident_state(TenantId(2)).expect("resident");
        let bank = state.privacy.as_ref().unwrap();
        assert_eq!(bank.params().epsilon_budget, 1.5);
        assert_eq!(bank.params().compensation_base, 0.25);
    }

    #[test]
    fn eviction_bounds_the_resident_set() {
        let mut service = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 64,
            resident_capacity: Some(4),
            wal_segment_size: Some(8),
            ..ServiceConfig::default()
        })
        .unwrap();
        for id in 0..12u64 {
            service
                .register_tenant(TenantId(id), TenantConfig::standard(2, 100))
                .unwrap();
        }
        assert_eq!(service.tenant_count(), 12);
        assert!(
            service.resident_tenants() <= 4,
            "registration beyond the cap must page out, found {} resident",
            service.resident_tenants()
        );
        // Every tenant — resident or paged out — still serves, and the
        // resident set stays bounded through the churn.
        for round in 0..3 {
            for id in 0..12u64 {
                service.ingest(query(id, &[0.6, 0.8])).unwrap();
                for response in service.drain(2) {
                    let quote = response.quote().expect("a quote");
                    assert!(quote.posted_price.is_finite());
                    service
                        .ingest(Request::Observe(OutcomeReport {
                            tenant: response.tenant,
                            accepted: true,
                            market_value: Some(1.0),
                        }))
                        .unwrap();
                }
                service.drain(2);
                assert!(
                    service.resident_tenants() <= 4,
                    "round {round}: resident set exceeded the cap"
                );
            }
        }
        let metrics = service.aggregate_metrics();
        assert!(metrics.evictions > 0, "churn must evict");
        assert!(metrics.rehydrations > 0, "paged-out tenants must rehydrate");
        assert_eq!(metrics.quotes_served, 36);
        assert_eq!(service.tenant_count(), 12);
    }

    #[test]
    fn eviction_and_rehydration_do_not_change_served_values() {
        // The paging contract: a capped service prices bit-identically to
        // an uncapped one over the same request stream.
        let run = |resident_capacity: Option<usize>| {
            let mut service = MarketService::new(ServiceConfig {
                shards: 2,
                queue_capacity: 64,
                resident_capacity,
                wal_segment_size: resident_capacity.map(|_| 8),
                ..ServiceConfig::default()
            })
            .unwrap();
            for id in 0..10u64 {
                service
                    .register_tenant(TenantId(id), TenantConfig::standard(2, 100))
                    .unwrap();
            }
            let mut posted = Vec::new();
            for wave in 0..6 {
                for id in 0..10u64 {
                    let x = 0.4 + 0.05 * (((id + wave) % 5) as f64);
                    service.ingest(query(id, &[x, 1.0 - x])).unwrap();
                }
                for response in service.drain(2) {
                    let quote = response.quote().unwrap();
                    posted.push(quote.posted_price.to_bits());
                    service
                        .ingest(Request::Observe(OutcomeReport {
                            tenant: response.tenant,
                            accepted: quote.posted_price <= 1.0,
                            market_value: Some(1.0),
                        }))
                        .unwrap();
                }
                service.drain(2);
            }
            (posted, service.aggregate_metrics().revenue.to_bits())
        };
        let (capped_prices, capped_revenue) = run(Some(3));
        let (uncapped_prices, uncapped_revenue) = run(None);
        assert_eq!(capped_prices, uncapped_prices);
        assert_eq!(capped_revenue, uncapped_revenue);
    }
}
