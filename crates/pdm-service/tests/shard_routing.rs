//! Property tests for shard routing and service-level concurrency
//! invariants.
//!
//! The load-bearing contract is *stability*: tenant→shard assignment is a
//! pure function of `(tenant id, shard count)` — no per-process seed, no
//! registration-order dependence — so routing survives restarts and
//! snapshot/restore cycles.  The concurrency contract is that the values a
//! drain computes are independent of the worker count.

use pdm_linalg::Vector;
use pdm_service::metrics::LATENCY_HISTOGRAM;
use pdm_service::{
    shard_of, MarketService, OutcomeReport, QueryRequest, Request, Response, ServiceConfig,
    TenantConfig, TenantId,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Routing is a pure function: recomputing it any number of times, in
    /// any order, yields the same shard, and the shard is always in bounds.
    #[test]
    fn tenant_to_shard_assignment_is_stable_and_in_bounds(
        id in 0u64..u64::MAX,
        shards in 1usize..64,
    ) {
        let first = shard_of(TenantId(id), shards);
        prop_assert!(first < shards);
        for _ in 0..3 {
            prop_assert_eq!(shard_of(TenantId(id), shards), first);
        }
    }

    /// A service routes exactly like the bare function, regardless of the
    /// order tenants were registered in.
    #[test]
    fn service_routing_matches_the_pure_function(
        raw_ids in prop::collection::vec(0u64..1_000_000, 1..20),
        shards in 1usize..16,
    ) {
        let mut service = MarketService::new(ServiceConfig {
            shards,
            queue_capacity: 8,
            ..ServiceConfig::default()
        }).expect("valid service config");
        let mut ids = raw_ids;
        ids.sort_unstable();
        ids.dedup();
        ids.reverse(); // register in an arbitrary (reversed) order
        for &id in &ids {
            let shard = service
                .register_tenant(TenantId(id), TenantConfig::standard(2, 50))
                .expect("unique ids");
            prop_assert_eq!(shard, shard_of(TenantId(id), shards));
            prop_assert_eq!(service.shard_of(TenantId(id)), shard);
        }
    }

    /// Name-derived tenant ids are deterministic, so a client that derives
    /// ids from survey names can reconnect after a restart and land on the
    /// same state.
    #[test]
    fn name_derived_ids_are_deterministic(n in 0usize..1_000_000) {
        let name = format!("survey-{n}");
        prop_assert_eq!(TenantId::from_name(&name), TenantId::from_name(&name));
        // Different names separate (FNV-1a has no trivial collisions on
        // this family).
        let next = format!("survey-{}", n + 1);
        prop_assert!(
            TenantId::from_name(&name) != TenantId::from_name(&next),
            "adjacent names must hash apart"
        );
    }
}

/// Drives `rounds` closed-loop rounds over `tenants` tenants with the given
/// drain worker count, returning every posted price in deterministic order
/// plus the final (revenue, regret) pair.
fn closed_loop(tenants: u64, rounds: usize, workers: usize) -> (Vec<u64>, f64, f64) {
    let mut service = MarketService::new(ServiceConfig {
        shards: 4,
        queue_capacity: 256,
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    for id in 0..tenants {
        service
            .register_tenant(TenantId(id), TenantConfig::standard(3, 200))
            .unwrap();
    }
    let mut posted_bits = Vec::new();
    for round in 0..rounds {
        for id in 0..tenants {
            // A deterministic, tenant-dependent query stream.
            let a = ((id + 1) as f64 * 0.37 + round as f64 * 0.11).sin().abs() + 0.1;
            let b = ((id + 2) as f64 * 0.53 + round as f64 * 0.07).cos().abs() + 0.1;
            let c = 0.4;
            let norm = (a * a + b * b + c * c).sqrt();
            let features = Vector::from_slice(&[a / norm, b / norm, c / norm]);
            let reserve = 0.6 * features.sum();
            service
                .ingest(Request::Quote(QueryRequest {
                    tenant: TenantId(id),
                    features,
                    reserve_price: reserve,
                }))
                .unwrap();
        }
        let responses = service.drain(workers);
        for response in responses {
            let quote = *response.quote().expect("quote response");
            posted_bits.push(quote.posted_price.to_bits());
            let market_value = 1.1; // fixed hidden value: accept iff p <= v
            service
                .ingest(Request::Observe(OutcomeReport {
                    tenant: response.tenant,
                    accepted: quote.posted_price <= market_value,
                    market_value: Some(market_value),
                }))
                .unwrap();
        }
        service.drain(workers);
    }
    let metrics = service.aggregate_metrics();
    (posted_bits, metrics.revenue, metrics.regret)
}

#[test]
fn drain_worker_count_never_changes_any_served_value() {
    let serial = closed_loop(13, 8, 1);
    for workers in [2, 4, 8] {
        let parallel = closed_loop(13, 8, workers);
        assert_eq!(
            serial.0, parallel.0,
            "posted prices must be bit-identical for workers=1 vs {workers}"
        );
        assert_eq!(serial.1.to_bits(), parallel.1.to_bits(), "revenue");
        assert_eq!(serial.2.to_bits(), parallel.2.to_bits(), "regret");
    }
}

#[test]
fn per_shard_metrics_cover_all_traffic_and_latency_percentiles_exist() {
    let mut service = MarketService::new(ServiceConfig {
        shards: 3,
        queue_capacity: 64,
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    for id in 0..9 {
        service
            .register_tenant(TenantId(id), TenantConfig::standard(2, 100))
            .unwrap();
    }
    for id in 0..9 {
        service
            .ingest(Request::Quote(QueryRequest {
                tenant: TenantId(id),
                features: Vector::from_slice(&[0.6, 0.8]),
                reserve_price: 0.2,
            }))
            .unwrap();
    }
    let before = service.scrape();
    assert!(
        before
            .histogram_counts(LATENCY_HISTOGRAM)
            .is_some_and(|latency| latency.quantile(0.5).is_none()),
        "an idle service has no latency percentiles"
    );
    service.drain(3);
    let shards = service.shard_metrics();
    assert_eq!(shards.len(), 3);
    let total: u64 = shards.iter().map(|m| m.quotes_served).sum();
    assert_eq!(total, 9);
    let scrape = service.scrape();
    let latency = scrape
        .histogram_counts(LATENCY_HISTOGRAM)
        .expect("the scrape carries the latency histogram");
    assert_eq!(latency.count(), 9, "one observation per request");
    let p50 = latency.quantile(0.5).expect("non-empty");
    let p99 = latency.quantile(0.99).expect("non-empty");
    assert!(p50.is_finite() && p99 >= p50);
}

/// Drains one closed-loop stream on a single service, cycling the drain
/// worker count through `workers` wave by wave, and returns every response
/// as `(tenant, shard, seq, payload)` plus the final snapshot and
/// deterministic scrape renderings.
fn reused_pool_run(workers: &[usize]) -> (Vec<String>, String, String) {
    let mut service = MarketService::new(ServiceConfig {
        shards: 4,
        queue_capacity: 256,
        ..ServiceConfig::default()
    })
    .expect("valid service config");
    for id in 0..13 {
        service
            .register_tenant(TenantId(id), TenantConfig::standard(3, 200))
            .unwrap();
    }
    let mut seen = Vec::new();
    let mut record = |responses: &[Response]| {
        for r in responses {
            seen.push(format!(
                "{:?}/{}/{}/{:?}",
                r.tenant, r.shard, r.seq, r.payload
            ));
        }
    };
    let mut responses = Vec::new();
    for (round, &drain_workers) in workers.iter().enumerate() {
        for id in 0..13u64 {
            let a = 0.2 + 0.05 * ((id + round as u64) % 7) as f64;
            service
                .ingest(Request::Quote(QueryRequest {
                    tenant: TenantId(id),
                    features: Vector::from_slice(&[a, 1.0 - a, 0.3]),
                    reserve_price: 0.2,
                }))
                .unwrap();
        }
        responses.clear();
        service.drain_into(drain_workers, &mut responses);
        record(&responses);
        for response in &responses {
            let quote = *response.quote().expect("quote response");
            service
                .ingest(Request::Observe(OutcomeReport {
                    tenant: response.tenant,
                    accepted: quote.posted_price <= 0.9,
                    market_value: Some(0.9),
                }))
                .unwrap();
        }
        responses.clear();
        service.drain_into(drain_workers, &mut responses);
        record(&responses);
    }
    let snapshot = service.snapshot().expect("quiescent").render();
    let scrape = service.scrape().to_json(true).render();
    (seen, snapshot, scrape)
}

#[test]
fn one_service_reuses_its_pool_across_worker_counts() {
    let cycled = reused_pool_run(&[1, 2, 4, 2, 1]);
    let serial = reused_pool_run(&[1, 1, 1, 1, 1]);
    assert_eq!(cycled.0.len(), 5 * 2 * 13);
    assert_eq!(
        cycled.0, serial.0,
        "responses: payload, shard and seq order"
    );
    assert_eq!(cycled.1, serial.1, "snapshot");
    assert_eq!(cycled.2, serial.2, "deterministic scrape");
}
