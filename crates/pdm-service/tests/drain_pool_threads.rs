//! The drain pool's helper threads live exactly as long as their service.
//!
//! This is its own test binary with a single test: it counts the process's
//! OS threads, which any concurrently running test would disturb.

use pdm_linalg::Vector;
use pdm_service::{MarketService, QueryRequest, Request, ServiceConfig, TenantConfig, TenantId};
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

/// Waits for the thread count to reach `target`: a joined thread can stay
/// counted for a moment after `join` returns, until the kernel reaps it.
#[cfg(target_os = "linux")]
fn settle_at(target: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let threads = os_threads();
        if threads == target || Instant::now() > deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_a_service_joins_its_drain_helpers() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        eprintln!("skipped: a single hardware thread drains inline, with no pool");
        return;
    }
    let start = os_threads();
    for round in 0..64u64 {
        let mut service = MarketService::new(ServiceConfig {
            shards: 4,
            queue_capacity: 64,
            ..ServiceConfig::default()
        })
        .expect("valid service config");
        assert_eq!(os_threads(), start, "round {round}: `new` spawns nothing");
        for id in 0..8 {
            service
                .register_tenant(TenantId(id), TenantConfig::standard(2, 100))
                .unwrap();
            service
                .ingest(Request::Quote(QueryRequest {
                    tenant: TenantId(id),
                    features: Vector::from_slice(&[0.6, 0.8]),
                    reserve_price: 0.1,
                }))
                .unwrap();
        }
        assert_eq!(service.drain(2).len(), 8);
        assert_eq!(
            os_threads(),
            start + 1,
            "round {round}: drain(2) runs on the caller plus one helper"
        );
        drop(service);
        assert_eq!(
            settle_at(start),
            start,
            "round {round}: the helper was joined"
        );
    }
}
