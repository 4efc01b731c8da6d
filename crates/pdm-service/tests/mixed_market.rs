//! Mixed-market integration: one service serving posted-price tenants and
//! auction tenants (all three reserve policies) side by side.
//!
//! The load-bearing contracts, each pinned bit-for-bit:
//!
//! * mixed traffic computes the same values for any drain worker count;
//! * a snapshot of a mixed service restores to a service that continues
//!   **bit-identically** — including the session-learned knowledge sets
//!   *and* the empirical setter's bid-history window;
//! * the service's auction arithmetic equals a serial replay through the
//!   same [`TenantState::serve_auction`] path.

use pdm_auction::{AuctionMarket, AuctionMarketConfig, ValuationDistribution};
use pdm_linalg::{sampling, Json, Vector};
use pdm_service::{
    AuctionPolicy, AuctionRequest, DriftPolicy, MarketService, OutcomeReport, Payload,
    PrivacyParams, QueryRequest, Request, ServiceConfig, TenantConfig, TenantId, TenantState,
    SNAPSHOT_SCHEMA_VERSION,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 3;
const HORIZON: usize = 400;

/// Tenant ids 0..2 are posted-price; 3..5 are auction tenants, one per
/// policy.
fn mixed_service(shards: usize) -> MarketService {
    let mut service = MarketService::new(ServiceConfig {
        shards,
        queue_capacity: 64,
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    for id in 0..3u64 {
        service
            .register_tenant(TenantId(id), TenantConfig::standard(DIM, HORIZON))
            .unwrap();
    }
    let policies = [
        AuctionPolicy::Static { markup: 0.05 },
        AuctionPolicy::Session,
        AuctionPolicy::Empirical {
            window: 16,
            welfare_weight: 0.0,
        },
    ];
    for (offset, policy) in policies.into_iter().enumerate() {
        service
            .register_tenant(
                TenantId(3 + offset as u64),
                TenantConfig::auction(DIM, HORIZON, policy),
            )
            .unwrap();
    }
    service
}

/// One deterministic auction-round generator per auction tenant.
fn markets(seed: u64) -> Vec<AuctionMarket> {
    (0..3u64)
        .map(|offset| {
            AuctionMarket::new(AuctionMarketConfig {
                bidders: 2,
                dim: DIM,
                distribution: ValuationDistribution::Uniform { spread: 0.95 },
                floor_fraction: 0.3,
                seed: seed.wrapping_add(offset),
                drift: None,
            })
        })
        .collect()
}

/// Pumps `waves` mixed waves (one posted quote per posted tenant, one
/// auction round per auction tenant) and returns every deterministic value
/// the service produced, in response order.
fn pump(
    service: &mut MarketService,
    markets: &mut [AuctionMarket],
    waves: usize,
    workers: usize,
    seed: u64,
) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut produced = Vec::new();
    for _ in 0..waves {
        for id in 0..3u64 {
            let features = sampling::standard_normal_vector(&mut rng, DIM)
                .map(f64::abs)
                .normalized();
            let reserve = 0.4 * features.sum();
            service
                .ingest(Request::Quote(QueryRequest {
                    tenant: TenantId(id),
                    features,
                    reserve_price: reserve,
                }))
                .unwrap();
        }
        for (offset, market) in markets.iter_mut().enumerate() {
            let round = market.next_round();
            service
                .ingest(Request::Auction(AuctionRequest {
                    tenant: TenantId(3 + offset as u64),
                    features: round.features,
                    floor: round.floor,
                    bids: round.bids,
                }))
                .unwrap();
        }
        let responses = service.drain(workers);
        assert_eq!(responses.len(), 6);
        for response in &responses {
            if let Some(quote) = response.quote() {
                produced.push((response.tenant.0, quote.posted_price.to_bits()));
                service
                    .ingest(Request::Observe(OutcomeReport {
                        tenant: response.tenant,
                        accepted: quote.posted_price <= 1.0,
                        market_value: Some(1.0),
                    }))
                    .unwrap();
            } else {
                let cleared = response.cleared().expect("mixed waves only quote or clear");
                produced.push((response.tenant.0, cleared.reserve.to_bits()));
                produced.push((response.tenant.0, cleared.result.price.to_bits()));
            }
        }
        service.drain(workers);
    }
    produced
}

#[test]
fn mixed_traffic_is_worker_count_independent() {
    let run = |workers: usize| {
        let mut service = mixed_service(4);
        let mut generators = markets(7);
        let produced = pump(&mut service, &mut generators, 12, workers, 99);
        let metrics = service.aggregate_metrics();
        (
            produced,
            metrics.revenue.to_bits(),
            metrics.auction.revenue.to_bits(),
            metrics.auction.welfare.to_bits(),
            metrics.auction.reserve_hits,
        )
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn mixed_snapshot_restores_bit_identically() {
    // Uninterrupted: warm-up + continuation.
    let mut uninterrupted = mixed_service(3);
    let mut generators = markets(21);
    pump(&mut uninterrupted, &mut generators, 10, 2, 5);
    let expected = pump(&mut uninterrupted, &mut generators, 10, 2, 6);

    // Interrupted: warm-up, snapshot, restore, continuation.  The market
    // generators continue across the snapshot (the outside world does not
    // restart when the service does).
    let mut original = mixed_service(3);
    let mut generators = markets(21);
    pump(&mut original, &mut generators, 10, 2, 5);
    let snapshot = original.snapshot().expect("quiescent service");
    let rendered = snapshot.render_pretty();
    let mut restored = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    let continued = pump(&mut restored, &mut generators, 10, 2, 6);

    assert_eq!(
        expected, continued,
        "every posted price, reserve, and clearing price must continue \
         bit-identically across the snapshot"
    );

    // The snapshot itself is stable: snapshot → restore → snapshot is the
    // identity on the rendering (empirical history and auction counters
    // round-trip exactly).
    let restored_again = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(restored_again.snapshot().unwrap().render_pretty(), rendered);

    // The document really carries the auction layer.
    assert!(
        rendered.contains("\"kind\": \"auction\"") || rendered.contains("\"kind\":\"auction\"")
    );
    assert!(rendered.contains("empirical"));
    assert!(rendered.contains("history"));
}

#[test]
fn zero_window_empirical_tenants_snapshot_and_restore() {
    // A degenerate registration: the live setter clamps the window to 1,
    // and the snapshot the service writes must always restore — including
    // the `window: 0` it faithfully records.
    let mut service = MarketService::new(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    service
        .register_tenant(
            TenantId(1),
            TenantConfig::auction(
                DIM,
                HORIZON,
                AuctionPolicy::Empirical {
                    window: 0,
                    welfare_weight: 0.0,
                },
            ),
        )
        .unwrap();
    service
        .ingest(Request::Auction(AuctionRequest {
            tenant: TenantId(1),
            features: Vector::from_slice(&[0.5, 0.5, 0.5]),
            floor: 0.2,
            bids: vec![0.9, 0.4],
        }))
        .unwrap();
    service.drain(1);
    let rendered = service.snapshot().unwrap().render_pretty();
    let restored = MarketService::restore(&Json::parse(&rendered).unwrap())
        .expect("a snapshot the service wrote must restore");
    assert_eq!(restored.snapshot().unwrap().render_pretty(), rendered);
}

/// One recorded auction round: inputs plus the service's settled bits.
struct Recorded {
    features: Vector,
    floor: f64,
    bids: Vec<f64>,
    reserve_bits: u64,
    price_bits: u64,
}

#[test]
fn service_auction_arithmetic_equals_serial_replay() {
    let mut service = mixed_service(2);
    let mut generators = markets(33);
    // Record every auction round the service serves.
    let mut recorded: Vec<Vec<Recorded>> = vec![Vec::new(), Vec::new(), Vec::new()];
    let mut rng_waves = 0..20usize;
    for _ in &mut rng_waves {
        for (offset, market) in generators.iter_mut().enumerate() {
            let round = market.next_round();
            service
                .ingest(Request::Auction(AuctionRequest {
                    tenant: TenantId(3 + offset as u64),
                    features: round.features.clone(),
                    floor: round.floor,
                    bids: round.bids.clone(),
                }))
                .unwrap();
            let response = service.drain(2);
            let cleared = response
                .last()
                .and_then(|r| r.cleared())
                .expect("a cleared response");
            recorded[offset].push(Recorded {
                features: round.features,
                floor: round.floor,
                bids: round.bids,
                reserve_bits: cleared.reserve.to_bits(),
                price_bits: cleared.result.price.to_bits(),
            });
        }
    }
    // Serial replay through fresh tenant states — same code path, no
    // service, must reproduce every reserve and price bit for bit.
    let policies = [
        AuctionPolicy::Static { markup: 0.05 },
        AuctionPolicy::Session,
        AuctionPolicy::Empirical {
            window: 16,
            welfare_weight: 0.0,
        },
    ];
    for (offset, policy) in policies.into_iter().enumerate() {
        let mut tenant = TenantState::new(
            TenantId(3 + offset as u64),
            TenantConfig::auction(DIM, HORIZON, policy),
        );
        for round in &recorded[offset] {
            let cleared = tenant
                .serve_auction(&round.features, round.floor, &round.bids)
                .expect("auction tenant");
            assert_eq!(cleared.reserve.to_bits(), round.reserve_bits, "{policy:?}");
            assert_eq!(
                cleared.result.price.to_bits(),
                round.price_bits,
                "{policy:?}"
            );
        }
    }
}

/// A service with two drift-aware posted tenants: a restart tenant with a
/// small detector (so the window fills quickly) and a discounted tenant.
fn drift_service() -> MarketService {
    let mut service = MarketService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    // A δ buffer lifts the exploration threshold (ε ≥ 4nδ), so the
    // mechanism reaches the conservative regime — where drift surprisal
    // lives — within a few dozen rounds.
    let mut restart = TenantConfig::standard(DIM, HORIZON).with_drift(DriftPolicy::Restart {
        window: 8,
        threshold: 3,
    });
    restart.pricing = restart.pricing.with_uncertainty(0.05);
    let mut discounted = TenantConfig::standard(DIM, HORIZON)
        .with_drift(DriftPolicy::Discounted { inflation: 1.05 });
    discounted.pricing = discounted.pricing.with_uncertainty(0.05);
    service.register_tenant(TenantId(10), restart).unwrap();
    service.register_tenant(TenantId(11), discounted).unwrap();
    service
}

/// Pumps `waves` posted rounds against both drift tenants; the hidden
/// market value drops sharply at wave 80 — after the mechanisms have
/// converged into the conservative regime — so conservative quotes go stale
/// and the restart tenant's detector accumulates surprisal (possibly
/// firing).  Returns every posted price bit in response order.
fn pump_drift(service: &mut MarketService, waves: std::ops::Range<usize>, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut produced = Vec::new();
    for wave in waves {
        let value = if wave < 80 { 1.2 } else { 0.35 };
        for id in [10u64, 11] {
            let features = sampling::standard_normal_vector(&mut rng, DIM)
                .map(f64::abs)
                .normalized();
            service
                .ingest(Request::Quote(QueryRequest {
                    tenant: TenantId(id),
                    features,
                    reserve_price: 0.1,
                }))
                .unwrap();
        }
        for response in service.drain(2) {
            let quote = *response.quote().unwrap();
            produced.push(quote.posted_price.to_bits());
            service
                .ingest(Request::Observe(OutcomeReport {
                    tenant: response.tenant,
                    accepted: quote.posted_price <= value,
                    market_value: Some(value),
                }))
                .unwrap();
        }
        service.drain(2);
    }
    produced
}

#[test]
fn drift_tenant_snapshot_restores_bit_identically() {
    // Uninterrupted: warm-up through the value shift, then continuation.
    let mut uninterrupted = drift_service();
    pump_drift(&mut uninterrupted, 0..82, 5);
    let expected = pump_drift(&mut uninterrupted, 82..120, 6);
    let expected_metrics = uninterrupted.aggregate_metrics();

    // Interrupted at wave 82 — right in the middle of the post-shift
    // surprisal streak, so the detector window flags are non-trivial and
    // the fire/restart decision falls on the *restored* service.
    let mut original = drift_service();
    pump_drift(&mut original, 0..82, 5);
    let snapshot = original.snapshot().expect("quiescent service");
    let rendered = snapshot.render_pretty();
    assert!(
        rendered.contains(&format!("\"schema_version\": {SNAPSHOT_SCHEMA_VERSION}")),
        "the document must carry the current schema version"
    );
    assert!(rendered.contains("\"policy\": \"restart\""), "{rendered}");
    assert!(rendered.contains("\"policy\": \"discounted\""));
    assert!(rendered.contains("window_flags"));
    let mut restored = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    let continued = pump_drift(&mut restored, 82..120, 6);

    assert_eq!(
        expected, continued,
        "drift-aware tenants must continue bit-identically across the snapshot \
         (knowledge set, detector window, and restart counters all restored)"
    );
    // The shard-level drift counters carried over and kept counting.
    let restored_metrics = restored.aggregate_metrics();
    assert_eq!(restored_metrics.drift_fires, expected_metrics.drift_fires);
    assert_eq!(
        restored_metrics.drift_restarts,
        expected_metrics.drift_restarts
    );
    // The shift actually exercised the restart machinery — otherwise this
    // test pins nothing.
    assert!(
        expected_metrics.drift_restarts >= 1,
        "the value shift must trigger at least one restart"
    );

    // snapshot → restore → snapshot is the identity on the rendering.
    let restored_again = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(restored_again.snapshot().unwrap().render_pretty(), rendered);
}

#[test]
fn checked_in_v1_snapshot_restores_under_the_current_schema() {
    let fixture = include_str!("fixtures/snapshot_v1.json");
    let mut restored =
        MarketService::restore(&Json::parse(fixture).unwrap()).expect("v1 fixture restores");
    assert_eq!(restored.tenant_count(), 1);
    // Pre-market, pre-drift documents restore as static posted tenants and
    // keep their metric counters.
    let metrics = restored.aggregate_metrics();
    assert_eq!(metrics.quotes_served, 12);
    assert_eq!(metrics.sales, 9);
    assert_eq!(metrics.drift_fires, 0);
    assert_eq!(metrics.drift_restarts, 0);
    // The restored tenant serves a posted round.
    restored
        .ingest(Request::Quote(QueryRequest {
            tenant: TenantId(7),
            features: Vector::from_slice(&[0.6, 0.8]),
            reserve_price: 0.1,
        }))
        .expect("v1 tenant is registered and posted-price");
    let quote = *restored.drain(1)[0].quote().expect("a quote response");
    assert!(quote.posted_price.is_finite());
    restored
        .ingest(Request::Observe(OutcomeReport {
            tenant: TenantId(7),
            accepted: true,
            market_value: None,
        }))
        .unwrap();
    restored.drain(1);
    // Re-snapshotting writes the current schema with the drift layer.
    let rendered = restored.snapshot().unwrap().render_pretty();
    assert!(rendered.contains(&format!("\"schema_version\": {SNAPSHOT_SCHEMA_VERSION}")));
    assert!(rendered.contains("\"policy\": \"static\""));
    assert!(rendered.contains("drift_fires"));
}

#[test]
fn checked_in_v2_snapshot_restores_under_the_current_schema() {
    let fixture = include_str!("fixtures/snapshot_v2.json");
    let mut restored =
        MarketService::restore(&Json::parse(fixture).unwrap()).expect("v2 fixture restores");
    assert_eq!(restored.tenant_count(), 2);
    // The v2 auction layer survives: counters and the empirical history.
    let metrics = restored.aggregate_metrics();
    assert_eq!(metrics.auction.auctions, 3);
    assert_eq!(metrics.auction.reserve_hits, 1);
    assert_eq!(
        metrics.drift_fires, 0,
        "v2 documents predate the drift layer"
    );
    // The empirical auction tenant still clears rounds from its restored
    // bid-history window.
    restored
        .ingest(Request::Auction(AuctionRequest {
            tenant: TenantId(4),
            features: Vector::from_slice(&[0.5, 0.5, 0.5]),
            floor: 0.2,
            bids: vec![0.9, 0.4],
        }))
        .expect("v2 auction tenant is registered");
    let responses = restored.drain(1);
    let cleared = responses[0].cleared().expect("a cleared response");
    assert!(cleared.reserve >= 0.2);
    // A posted quote to the auction tenant is still a market mismatch.
    restored
        .ingest(Request::Quote(QueryRequest {
            tenant: TenantId(4),
            features: Vector::from_slice(&[0.5, 0.5, 0.5]),
            reserve_price: 0.1,
        }))
        .unwrap();
    assert!(restored.drain(1)[0].quote().is_none());
    // Re-snapshotting upgrades the document to the current schema with an
    // explicit static drift policy per tenant.
    let rendered = restored.snapshot().unwrap().render_pretty();
    assert!(rendered.contains(&format!("\"schema_version\": {SNAPSHOT_SCHEMA_VERSION}")));
    assert!(rendered.contains("\"policy\": \"static\""));
    assert!(rendered.contains("\"policy\": \"empirical\""));
}

#[test]
fn checked_in_v3_snapshot_restores_under_the_current_schema() {
    let fixture = include_str!("fixtures/snapshot_v3.json");
    let mut restored =
        MarketService::restore(&Json::parse(fixture).unwrap()).expect("v3 fixture restores");
    assert_eq!(restored.tenant_count(), 3);
    // Pre-WAL documents restore with paging off and zero paging counters.
    assert_eq!(restored.config().resident_capacity, None);
    assert_eq!(restored.config().wal_segment_size, None);
    let metrics = restored.aggregate_metrics();
    assert_eq!(metrics.quotes_served, 180);
    assert_eq!(metrics.sales, 105);
    assert_eq!(metrics.drift_fires, 1);
    assert_eq!(metrics.drift_restarts, 1);
    assert_eq!(
        metrics.evictions, 0,
        "v3 documents predate the paging layer"
    );
    assert_eq!(metrics.rehydrations, 0);
    // The restored drift tenant still serves posted rounds.
    restored
        .ingest(Request::Quote(QueryRequest {
            tenant: TenantId(5),
            features: Vector::from_slice(&[0.5, 0.3, 0.2]),
            reserve_price: 0.1,
        }))
        .expect("v3 drift tenant is registered and posted-price");
    let quote = *restored.drain(1)[0].quote().expect("a quote response");
    assert!(quote.posted_price.is_finite());
    restored
        .ingest(Request::Observe(OutcomeReport {
            tenant: TenantId(5),
            accepted: true,
            market_value: None,
        }))
        .unwrap();
    restored.drain(1);
    // Checkpointing a WAL-less restore is rejected, not silently empty.
    assert!(restored.checkpoint().is_err());
    // Re-snapshotting upgrades the document to the current schema with
    // (null) paging knobs and the paging counters.
    let rendered = restored.snapshot().unwrap().render_pretty();
    assert!(rendered.contains(&format!("\"schema_version\": {SNAPSHOT_SCHEMA_VERSION}")));
    assert!(rendered.contains("\"resident_capacity\": null"));
    assert!(rendered.contains("\"wal_segment_size\": null"));
    assert!(rendered.contains("\"evictions\""));
    assert!(rendered.contains("\"policy\": \"restart\""));
    // And the upgraded document round-trips to the identical rendering.
    let again = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(again.snapshot().unwrap().render_pretty(), rendered);
}

#[test]
fn checked_in_v4_snapshot_restores_under_the_current_schema() {
    let fixture = include_str!("fixtures/snapshot_v4.json");
    let mut restored =
        MarketService::restore(&Json::parse(fixture).unwrap()).expect("v4 fixture restores");
    assert_eq!(restored.tenant_count(), 3);
    // The v4 paging knobs survive; the v5 privacy knobs default off.
    assert_eq!(restored.config().resident_capacity, Some(2));
    assert_eq!(restored.config().wal_segment_size, Some(3));
    assert_eq!(restored.config().privacy_budget, None);
    assert_eq!(restored.config().compensation_base, None);
    assert!(!restored.config().ledger_paging);
    let metrics = restored.aggregate_metrics();
    assert_eq!(metrics.quotes_served, 12);
    assert_eq!(metrics.observations, 12);
    assert_eq!(metrics.sales, 7);
    assert_eq!(metrics.revenue.to_bits(), 3.816100928816084f64.to_bits());
    assert_eq!(metrics.evictions, 6);
    assert_eq!(metrics.rehydrations, 6);
    assert_eq!(metrics.auction.auctions, 6);
    assert_eq!(metrics.auction.sales, 6);
    assert_eq!(metrics.auction.reserve_hits, 5);
    assert_eq!(metrics.auction.revenue.to_bits(), 4.9f64.to_bits());
    assert_eq!(metrics.auction.welfare.to_bits(), 5.4f64.to_bits());
    assert_eq!(metrics.auction.baseline_revenue.to_bits(), 2.4f64.to_bits());
    // v4 documents predate the privacy layer: ledger fields default empty.
    assert_eq!(metrics.epsilon_spent, 0.0);
    assert_eq!(metrics.compensation_paid, 0.0);
    assert_eq!(metrics.owners_exhausted, 0);
    assert_eq!(metrics.privacy_throttled, 0);
    assert_eq!(metrics.arbitrage_clamps, 0);
    // The restored posted tenant still serves.
    restored
        .ingest(Request::Quote(QueryRequest {
            tenant: TenantId(1),
            features: Vector::from_slice(&[0.5, 0.3, 0.2]),
            reserve_price: 0.1,
        }))
        .expect("v4 posted tenant is registered");
    let quote = *restored.drain(1)[0].quote().expect("a quote response");
    assert!(quote.posted_price.is_finite());
    restored
        .ingest(Request::Observe(OutcomeReport {
            tenant: TenantId(1),
            accepted: true,
            market_value: None,
        }))
        .unwrap();
    restored.drain(1);
    // Re-snapshotting upgrades the document to the current schema with
    // explicit (null/false) privacy knobs and the privacy counters.
    let rendered = restored.snapshot().unwrap().render_pretty();
    assert!(rendered.contains(&format!("\"schema_version\": {SNAPSHOT_SCHEMA_VERSION}")));
    assert!(rendered.contains("\"privacy_budget\": null"));
    assert!(rendered.contains("\"compensation_base\": null"));
    assert!(rendered.contains("\"ledger_paging\": false"));
    assert!(rendered.contains("\"epsilon_spent\""));
    assert!(rendered.contains("\"arbitrage_clamps\""));
    // And the upgraded document round-trips to the identical rendering.
    let again = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(again.snapshot().unwrap().render_pretty(), rendered);
}

/// The v5 fixture was written by the schema-v5 service before its reader
/// was rebuilt: two shards with every header knob set, and five dim-2
/// tenants after 40 waves — posted tenants under the static (1), restart
/// (2, one firing) and discounted (3) drift policies, an empirical auction
/// tenant (4), and a privacy tenant (5) with one owner exhausted.
const SNAPSHOT_V5: &str = include_str!("fixtures/snapshot_v5.json");
/// The v5 fixture restored and re-rendered under schema v6: the same
/// service, each shape stored as its packed upper triangle.
const SNAPSHOT_V6: &str = include_str!("fixtures/snapshot_v6.json");

/// Restores one of the v5/v6 fixtures, checks the service it describes,
/// serves one more round on every tenant, and returns the restored
/// service's rendering from before that round.
fn restore_fixture_and_serve(fixture: &str) -> String {
    let mut restored =
        MarketService::restore(&Json::parse(fixture).unwrap()).expect("the fixture restores");
    assert_eq!(restored.tenant_count(), 5);
    let config = restored.config();
    assert_eq!(config.resident_capacity, Some(4));
    assert_eq!(config.wal_segment_size, Some(8));
    assert_eq!(config.privacy_budget, Some(8.0));
    assert_eq!(config.compensation_base, Some(0.02));
    assert!(config.ledger_paging);
    let metrics = restored.aggregate_metrics();
    assert_eq!(metrics.quotes_served, 126);
    assert_eq!(metrics.auction.auctions, 40);
    assert_eq!(metrics.drift_fires, 1);
    assert_eq!(metrics.drift_restarts, 1);
    assert_eq!(metrics.owners_exhausted, 1);
    assert_eq!(
        metrics.epsilon_spent.to_bits(),
        5.023921656637743f64.to_bits()
    );
    let rendered = restored.snapshot().unwrap().render_pretty();
    // The privacy query leaks only from owner 0, whose budget has room for
    // it.
    for (id, features) in [
        (1u64, [0.6, 0.8]),
        (2, [0.6, 0.8]),
        (3, [0.6, 0.8]),
        (5, [0.1, 0.0]),
    ] {
        restored
            .ingest(Request::Quote(QueryRequest {
                tenant: TenantId(id),
                features: Vector::from_slice(&features),
                reserve_price: 0.1,
            }))
            .expect("the posted and privacy tenants are registered");
    }
    restored
        .ingest(Request::Auction(AuctionRequest {
            tenant: TenantId(4),
            features: Vector::from_slice(&[0.8, 0.6]),
            floor: 0.2,
            bids: vec![0.9, 0.3],
        }))
        .expect("the auction tenant is registered");
    let responses = restored.drain(2);
    assert_eq!(responses.len(), 5);
    for response in &responses {
        match &response.payload {
            Payload::Quoted(quote) => {
                assert!(quote.posted_price.is_finite());
                restored
                    .ingest(Request::Observe(OutcomeReport {
                        tenant: response.tenant,
                        accepted: true,
                        market_value: None,
                    }))
                    .unwrap();
            }
            Payload::Cleared(cleared) => assert!(cleared.reserve >= 0.2),
            other => panic!("{} got {other:?}", response.tenant),
        }
    }
    restored.drain(2);
    assert_eq!(restored.aggregate_metrics().observations, 130);
    rendered
}

#[test]
fn checked_in_v5_snapshot_restores_as_the_v6_fixture_and_serves() {
    assert!(
        restore_fixture_and_serve(SNAPSHOT_V5) == SNAPSHOT_V6,
        "the v5 fixture must re-render as exactly the v6 fixture"
    );
}

#[test]
fn checked_in_v6_snapshot_restores_byte_identically_and_serves() {
    assert!(
        restore_fixture_and_serve(SNAPSHOT_V6) == SNAPSHOT_V6,
        "the v6 fixture must re-render byte-identically"
    );
}

/// Three privacy tenants whose owners run out of ε budget mid-test.
fn privacy_service() -> MarketService {
    let mut service = MarketService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 64,
        wal_segment_size: Some(2),
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    let params = PrivacyParams {
        epsilon_budget: 2.5,
        compensation_base: 0.05,
        compensation_sensitivity: 2.0,
        data_range: 1.0,
        laplace_scale: 1.0,
    };
    for id in 30..33u64 {
        service
            .register_tenant(TenantId(id), TenantConfig::privacy(DIM, HORIZON, params))
            .unwrap();
    }
    service
}

/// Pumps privacy waves, recording every posted-price bit and a sentinel
/// for budget-exhausted refusals — both must be reproduced bit-for-bit
/// (and refusal-for-refusal) by a restored service.
fn pump_privacy(service: &mut MarketService, waves: std::ops::Range<usize>, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut produced = Vec::new();
    for _ in waves {
        for id in 30..33u64 {
            let features = sampling::standard_normal_vector(&mut rng, DIM)
                .map(f64::abs)
                .normalized();
            service
                .ingest(Request::Quote(QueryRequest {
                    tenant: TenantId(id),
                    features,
                    reserve_price: 0.1,
                }))
                .unwrap();
        }
        for response in service.drain(2) {
            match &response.payload {
                Payload::Quoted(quote) => {
                    produced.push(quote.posted_price.to_bits());
                    service
                        .ingest(Request::Observe(OutcomeReport {
                            tenant: response.tenant,
                            accepted: quote.posted_price <= 1.0,
                            market_value: Some(1.0),
                        }))
                        .unwrap();
                }
                Payload::Failed(_) => produced.push(u64::MAX),
                other => panic!("privacy waves only quote or fail, got {other:?}"),
            }
        }
        service.drain(2);
    }
    produced
}

#[test]
fn privacy_snapshot_restores_bit_identically_with_ledger_counters() {
    // Uninterrupted: warm-up + continuation, with owners exhausting along
    // the way so the ledger state is load-bearing for the continuation.
    let mut uninterrupted = privacy_service();
    pump_privacy(&mut uninterrupted, 0..8, 5);
    let expected = pump_privacy(&mut uninterrupted, 8..20, 6);
    let expected_metrics = uninterrupted.aggregate_metrics();
    assert!(
        expected_metrics.owners_exhausted > 0,
        "the budget must actually exhaust owners, or this test pins nothing"
    );
    assert!(expected_metrics.epsilon_spent > 0.0);
    assert!(expected_metrics.compensation_paid > 0.0);
    assert!(
        expected_metrics.compensation_paid <= expected_metrics.revenue,
        "compensation rides the reserve, so payouts never exceed revenue"
    );

    // Interrupted at wave 8: the snapshot carries partially-spent ledgers.
    let mut original = privacy_service();
    pump_privacy(&mut original, 0..8, 5);
    let snapshot = original.snapshot().expect("quiescent service");
    let rendered = snapshot.render_pretty();
    assert!(
        rendered.contains("\"kind\": \"privacy\"") || rendered.contains("\"kind\":\"privacy\""),
        "the document must carry the privacy market kind"
    );
    assert!(rendered.contains("epsilon_spent_total"));
    let mut restored = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    let continued = pump_privacy(&mut restored, 8..20, 6);

    assert_eq!(
        expected, continued,
        "every posted price and every budget-exhausted refusal must continue \
         identically across the snapshot"
    );
    // The ledger counters carried over and kept counting.
    let restored_metrics = restored.aggregate_metrics();
    assert_eq!(
        restored_metrics.epsilon_spent.to_bits(),
        expected_metrics.epsilon_spent.to_bits()
    );
    assert_eq!(
        restored_metrics.compensation_paid.to_bits(),
        expected_metrics.compensation_paid.to_bits()
    );
    assert_eq!(
        restored_metrics.owners_exhausted,
        expected_metrics.owners_exhausted
    );
    assert_eq!(
        restored_metrics.privacy_throttled,
        expected_metrics.privacy_throttled
    );

    // snapshot → restore → snapshot is the identity on the rendering.
    let restored_again = MarketService::restore(&Json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(restored_again.snapshot().unwrap().render_pretty(), rendered);
}

#[test]
fn wal_restore_mid_checkpoint_with_ledger_records_continues_bit_identically() {
    // A checkpoint cut lands while one privacy tenant still has a
    // quoted-but-unobserved round (and a staged ledger charge): the WAL
    // skips it — mid-round ledger state has no serialised form — and the
    // next segment carries it after the round closes.
    let mut original = privacy_service();
    let base = original.snapshot().expect("fresh service is quiescent");
    let mut stream: Vec<Json> = Vec::new();
    pump_privacy(&mut original, 0..3, 41);
    stream.extend(original.checkpoint().unwrap());

    // Open a round (staging a pending ledger charge) while the owners
    // still have budget, then cut.
    original
        .ingest(Request::Quote(QueryRequest {
            tenant: TenantId(30),
            features: Vector::from_slice(&[0.5, 0.3, 0.2]),
            reserve_price: 0.1,
        }))
        .unwrap();
    let open_quote = *original.drain(1)[0].quote().expect("an open quote");
    stream.extend(original.checkpoint().unwrap());
    // Close the round; the next checkpoint carries the skipped tenant with
    // its settled ledger debits.
    original
        .ingest(Request::Observe(OutcomeReport {
            tenant: TenantId(30),
            accepted: open_quote.posted_price <= 1.0,
            market_value: Some(1.0),
        }))
        .unwrap();
    original.drain(1);
    stream.extend(original.checkpoint().unwrap());

    let mut restored = MarketService::restore_with_wal(&base, &stream).unwrap();
    assert_eq!(restored.tenant_count(), 3);
    // Tenant-level ledger state restored bit-identically, so continuation
    // traffic prices — and throttles — exactly like the original.
    let expected = pump_privacy(&mut original, 3..16, 43);
    let actual = pump_privacy(&mut restored, 3..16, 43);
    assert_eq!(expected, actual);
    let exhausted = original.aggregate_metrics().owners_exhausted;
    assert!(
        exhausted > 0,
        "continuation must reach exhaustion to prove the ledgers restored"
    );
}

/// The mixed tenant population of [`mixed_service`] under a resident cap
/// small enough to force paging churn, with the WAL on.
fn paged_mixed_service() -> MarketService {
    let mut service = MarketService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 64,
        resident_capacity: Some(2),
        wal_segment_size: Some(3),
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    for id in 0..3u64 {
        service
            .register_tenant(TenantId(id), TenantConfig::standard(DIM, HORIZON))
            .unwrap();
    }
    let policies = [
        AuctionPolicy::Static { markup: 0.05 },
        AuctionPolicy::Session,
        AuctionPolicy::Empirical {
            window: 16,
            welfare_weight: 0.0,
        },
    ];
    for (offset, policy) in policies.into_iter().enumerate() {
        service
            .register_tenant(
                TenantId(3 + offset as u64),
                TenantConfig::auction(DIM, HORIZON, policy),
            )
            .unwrap();
    }
    service
}

#[test]
fn wal_restore_under_paging_continues_bit_identically() {
    // Six mixed tenants behind a resident cap of two: every wave pages
    // tenants in and out while posted sessions and auction policies learn.
    let mut original = paged_mixed_service();
    let base = original.snapshot().expect("fresh service is quiescent");
    let mut stream: Vec<Json> = Vec::new();
    let mut traffic = markets(13);
    pump(&mut original, &mut traffic, 4, 2, 61);
    stream.extend(original.checkpoint().unwrap());
    pump(&mut original, &mut traffic, 4, 2, 62);
    stream.extend(original.checkpoint().unwrap());
    let churn = original.aggregate_metrics();
    assert!(churn.evictions > 0, "the cap must actually force paging");
    assert!(churn.rehydrations > 0);
    assert!(original.resident_tenants() <= 2);

    let mut restored = MarketService::restore_with_wal(&base, &stream).unwrap();
    assert_eq!(restored.tenant_count(), 6);
    assert_eq!(
        restored.aggregate_metrics().quotes_served,
        churn.quotes_served
    );
    assert_eq!(
        restored.aggregate_metrics().revenue.to_bits(),
        churn.revenue.to_bits()
    );
    // Continuation traffic: identical fresh generators for both runs.  The
    // paging decisions of the two services may differ (the restored LRU is
    // fresh) but every priced value must agree bit for bit.
    let mut expected_traffic = markets(99);
    let mut actual_traffic = markets(99);
    let expected = pump(&mut original, &mut expected_traffic, 4, 2, 63);
    let actual = pump(&mut restored, &mut actual_traffic, 4, 2, 63);
    assert_eq!(expected, actual);
    assert!(restored.resident_tenants() <= 2);
}

#[test]
fn wal_restore_interrupted_mid_eviction_continues_bit_identically() {
    // Posted tenants only, cap 2 over 2 shards: by the first checkpoint
    // most of the population is paged out, and the cut lands while one
    // tenant still has a quoted-but-unobserved round — the WAL skips it
    // (it stays dirty) and carries it in the next segment after close.
    let ids: Vec<TenantId> = (20u64..26).map(TenantId).collect();
    let mut original = MarketService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 64,
        resident_capacity: Some(2),
        wal_segment_size: Some(2),
        ..ServiceConfig::default()
    })
    .unwrap();
    for &id in &ids {
        original
            .register_tenant(id, TenantConfig::standard(DIM, HORIZON))
            .unwrap();
    }
    let base = original.snapshot().unwrap();

    let pump_posted = |service: &mut MarketService, rounds: usize, seed: u64| -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = Vec::new();
        for _ in 0..rounds {
            for id in (20u64..26).map(TenantId) {
                let features = sampling::standard_normal_vector(&mut rng, DIM)
                    .map(f64::abs)
                    .normalized();
                service
                    .ingest(Request::Quote(QueryRequest {
                        tenant: id,
                        features,
                        reserve_price: 0.2,
                    }))
                    .unwrap();
            }
            for response in service.drain(2) {
                let quote = *response.quote().unwrap();
                bits.push(quote.posted_price.to_bits());
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
        bits
    };

    pump_posted(&mut original, 3, 71);
    assert!(original.aggregate_metrics().evictions > 0);
    // Open a round on one tenant, then checkpoint under that traffic.
    original
        .ingest(Request::Quote(QueryRequest {
            tenant: ids[0],
            features: Vector::from_slice(&[0.5, 0.3, 0.2]),
            reserve_price: 0.2,
        }))
        .unwrap();
    let open_quote = *original.drain(1)[0].quote().unwrap();
    let mut stream = original.checkpoint().unwrap();
    // Close the round; the next checkpoint carries the skipped tenant.
    original
        .ingest(Request::Observe(OutcomeReport {
            tenant: ids[0],
            accepted: open_quote.posted_price <= 1.0,
            market_value: Some(1.0),
        }))
        .unwrap();
    original.drain(1);
    stream.extend(original.checkpoint().unwrap());

    let mut restored = MarketService::restore_with_wal(&base, &stream).unwrap();
    assert_eq!(restored.tenant_count(), ids.len());
    let expected = pump_posted(&mut original, 2, 72);
    let actual = pump_posted(&mut restored, 2, 72);
    assert_eq!(expected, actual);
    assert!(restored.resident_tenants() <= 2);
}
