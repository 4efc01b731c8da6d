//! Incremental persistence: append-only WAL segments over the snapshot
//! format.
//!
//! A full [`MarketService::snapshot`] serialises every tenant, which gets
//! expensive as the tenant population grows.  The WAL makes persistence
//! incremental: shards track which tenants changed since the last capture
//! (the *dirty* set), and [`MarketService::checkpoint`] emits only those
//! tenants, chunked into numbered segment documents.  Recovery is
//! [`MarketService::restore_with_wal`]: rebuild from the last full
//! snapshot, then replay the segments in order, last record per tenant
//! wins.
//!
//! Three properties make this safe:
//!
//! * **Same record format.** A WAL tenant record is byte-for-byte the
//!   snapshot tenant document ([`crate::snapshot`]), so replay goes through
//!   the same parse/rebuild path as a full restore and inherits its
//!   bit-identical-continuation guarantee.
//! * **Quiescent records only.** A tenant with a quoted-but-unobserved
//!   round is skipped by [`MarketService::checkpoint`] and *stays dirty*,
//!   so checkpoints can run under live traffic: the open-round tenant is
//!   simply carried by the next checkpoint after its round closes.
//! * **Point-in-time metric ledgers.** Every segment carries the full
//!   per-shard metric ledgers; replay applies them in order so the last
//!   segment's ledgers stand.  A checkpoint taken at a quiescent point
//!   (no queued work, no open rounds) is therefore a consistent cut: the
//!   restored service continues bit-identically from it.

use std::sync::atomic::Ordering;
use std::time::Instant;

use pdm_linalg::Json;

use crate::api::ServiceError;
use crate::reader::{Label, Reader};
use crate::routing::TenantId;
use crate::service::MarketService;
use crate::snapshot::{metrics_json, Persisted, SNAPSHOT_SCHEMA_VERSION};
use crate::sync;

/// The `kind` discriminator carried by every WAL segment document, so a
/// segment can never be mistaken for a full snapshot (or vice versa).
pub const WAL_SEGMENT_KIND: &str = "wal_segment";

impl MarketService {
    /// Number of WAL segments this service has written (or, after
    /// [`MarketService::restore_with_wal`], replayed); the next
    /// [`MarketService::checkpoint`] continues numbering from here.
    #[must_use]
    pub fn wal_segments_written(&self) -> u64 {
        self.wal_segments.load(Ordering::Relaxed)
    }

    /// Captures every dirty, quiescent tenant into numbered WAL segment
    /// documents of at most [`ServiceConfig::wal_segment_size`] tenants
    /// each, plus the current per-shard metric ledgers.
    ///
    /// Tenants with an open (quoted-but-unobserved) round are skipped and
    /// remain dirty, so this is safe to call between drains under live
    /// traffic.  When nothing is dirty a single metrics-only segment is
    /// still emitted, so the segment stream always reflects the latest
    /// ledgers.
    ///
    /// [`ServiceConfig::wal_segment_size`]:
    ///     crate::ServiceConfig::wal_segment_size
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] when the service was built without
    /// `wal_segment_size` — the WAL is off and there is no segment sizing
    /// to honour.
    pub fn checkpoint(&self) -> Result<Vec<Json>, ServiceError> {
        let Some(segment_size) = self.config().wal_segment_size else {
            return Err(ServiceError::InvalidConfig(
                "`wal_segment_size` is unset: the WAL is disabled, use a full snapshot instead"
                    .to_owned(),
            ));
        };
        // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
        let started = Instant::now();
        let mut records: Vec<(TenantId, Json)> = Vec::new();
        for shard in self.shards() {
            records.extend(sync::lock(shard, "shard").checkpoint_dirty());
        }
        // Global id order for the same reason snapshots sort: the segment
        // stream must not depend on shard distribution.
        records.sort_by_key(|(id, _)| *id);
        let metrics: Vec<Json> = self.shard_metrics().iter().map(metrics_json).collect();
        let chunk_count = records.len().div_ceil(segment_size).max(1);
        let base = self
            .wal_segments
            .fetch_add(chunk_count as u64, Ordering::Relaxed);
        // Each record moves into its segment; with nothing dirty the one
        // segment is empty.
        let mut records = records.into_iter().map(|(_, json)| json);
        let segments: Vec<Json> = (0..chunk_count)
            .map(|offset| {
                let tenants: Vec<Json> = records.by_ref().take(segment_size).collect();
                Json::obj(vec![
                    ("schema_version", Json::Num(SNAPSHOT_SCHEMA_VERSION as f64)),
                    ("kind", Json::Str(WAL_SEGMENT_KIND.to_owned())),
                    ("segment", Json::Num((base + offset as u64) as f64)),
                    ("tenants", Json::Arr(tenants)),
                    ("metrics", Json::Arr(metrics.clone())),
                ])
            })
            .collect();
        let mut obs = sync::lock(&self.obs, "obs");
        let span = obs.checkpoint;
        obs.registry
            .record_span(span, started.elapsed(), segments.len() as u64);
        // Journal the highest segment number this checkpoint wrote.
        obs.journal
            .push("wal.checkpoint", base + segments.len() as u64 - 1);
        Ok(segments)
    }

    /// Rebuilds a service from a full snapshot plus the WAL segments
    /// written after it, in ascending segment order.
    ///
    /// Replay is last-record-wins per tenant; a tenant first registered
    /// after the base snapshot appears only in the WAL and is registered
    /// during replay.  When the final segment was captured at a quiescent
    /// point, the restored service continues bit-identically with the
    /// original.
    ///
    /// # Errors
    /// [`ServiceError::MalformedSnapshot`] — the one error a restore
    /// returns — when the base document or any segment does not match the
    /// schema, segments are out of order, or a segment's metric ledgers do
    /// not match the shard count.
    pub fn restore_with_wal(base: &Json, segments: &[Json]) -> Result<Self, ServiceError> {
        // pdm-lint: allow(no-ambient-clock) reason="wall-clock latency span; wall histograms are documented non-deterministic and excluded from the determinism fingerprint"
        let started = Instant::now();
        let mut service = MarketService::restore(base)?;
        let mut last_segment: Option<u64> = None;
        for segment in segments {
            let unnumbered = Reader::new(segment, Label::Name("WAL segment"));
            let kind = unnumbered.string("kind")?;
            if kind != WAL_SEGMENT_KIND {
                return Err(unnumbered.error(format_args!(
                    "expected kind `{WAL_SEGMENT_KIND}`, found `{kind}`"
                )));
            }
            let number = unnumbered.count("segment")?;
            let doc = Reader::new(segment, Label::Numbered("WAL segment", number));
            if let Some(previous) = last_segment.filter(|&previous| number <= previous) {
                return Err(doc.error(format_args!(
                    "arrived after segment {previous}: replay must be in ascending order"
                )));
            }
            last_segment = Some(number);
            Persisted::read(doc)?.apply(&mut service, true)?;
        }
        // Numbering continues after the last replayed segment.
        if let Some(last) = last_segment {
            service
                .wal_segments
                .store(last.saturating_add(1), Ordering::Relaxed);
        }
        {
            // The restored service's registry starts fresh (observability
            // state is process-local, never persisted); the replay itself is
            // the first thing it records.
            let obs = sync::get_mut(&mut service.obs, "obs");
            obs.registry
                .record_span(obs.restore, started.elapsed(), segments.len() as u64);
            obs.journal.push("wal.restore", segments.len() as u64);
        }
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OutcomeReport, QueryRequest, Request};
    use crate::routing::TenantId;
    use crate::service::ServiceConfig;
    use crate::tenant::TenantConfig;
    use pdm_linalg::sampling;
    use pdm_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wal_service(ids: &[TenantId]) -> MarketService {
        let mut service = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 64,
            wal_segment_size: Some(2),
            ..ServiceConfig::default()
        })
        .expect("valid service config");
        for &id in ids {
            service
                .register_tenant(id, TenantConfig::standard(3, 200))
                .unwrap();
        }
        service
    }

    fn pump(service: &mut MarketService, ids: &[TenantId], rounds: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = Vec::new();
        for _ in 0..rounds {
            for &id in ids {
                let features = sampling::standard_normal_vector(&mut rng, 3)
                    .map(f64::abs)
                    .normalized();
                service
                    .ingest(Request::Quote(QueryRequest {
                        tenant: id,
                        features,
                        reserve_price: 0.3,
                    }))
                    .unwrap();
            }
            for response in service.drain(2) {
                let quote = *response.quote().unwrap();
                bits.push(quote.posted_price.to_bits());
                service
                    .ingest(Request::Observe(OutcomeReport {
                        tenant: response.tenant,
                        accepted: quote.posted_price <= 1.1,
                        market_value: Some(1.1),
                    }))
                    .unwrap();
            }
            service.drain(2);
        }
        bits
    }

    #[test]
    fn checkpoint_requires_the_wal() {
        let service = MarketService::new(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        let err = service.checkpoint().unwrap_err();
        assert!(matches!(err, ServiceError::InvalidConfig(_)));
        assert!(err.to_string().contains("wal_segment_size"));
    }

    #[test]
    fn checkpoint_chunks_and_numbers_segments() {
        let ids: Vec<TenantId> = (1u64..=5).map(TenantId).collect();
        let mut service = wal_service(&ids);
        pump(&mut service, &ids, 1, 9);
        // Five dirty tenants at segment size two: three ascending segments.
        let segments = service.checkpoint().unwrap();
        assert_eq!(segments.len(), 3);
        for (offset, segment) in segments.iter().enumerate() {
            assert_eq!(
                segment.get("kind").and_then(Json::as_str),
                Some(WAL_SEGMENT_KIND)
            );
            assert_eq!(
                segment.get("segment").and_then(Json::as_u64),
                Some(offset as u64)
            );
        }
        let counts: Vec<usize> = segments
            .iter()
            .map(|s| s.get("tenants").and_then(Json::as_arr).unwrap().len())
            .collect();
        assert_eq!(counts, vec![2, 2, 1]);
        assert_eq!(service.wal_segments_written(), 3);
        // Nothing dirty now: the next checkpoint is a metrics-only segment
        // that keeps the numbering moving.
        let quiet = service.checkpoint().unwrap();
        assert_eq!(quiet.len(), 1);
        assert_eq!(quiet[0].get("segment").and_then(Json::as_u64), Some(3));
        assert!(quiet[0]
            .get("tenants")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn wal_restore_continues_bit_identically() {
        let ids: Vec<TenantId> = [3u64, 11, 29, 61].into_iter().map(TenantId).collect();
        let mut original = wal_service(&ids);
        let base = original.snapshot().unwrap();
        let mut stream: Vec<Json> = Vec::new();
        // Two traffic bursts, each followed by a checkpoint: only the burst's
        // tenants travel in each checkpoint, the stream accumulates.
        pump(&mut original, &ids[..2], 3, 21);
        stream.extend(original.checkpoint().unwrap());
        pump(&mut original, &ids, 3, 22);
        stream.extend(original.checkpoint().unwrap());

        let mut restored = MarketService::restore_with_wal(&base, &stream).unwrap();
        assert_eq!(restored.tenant_count(), original.tenant_count());
        assert_eq!(
            restored.wal_segments_written(),
            original.wal_segments_written()
        );
        let expected_metrics = original.aggregate_metrics();
        let restored_metrics = restored.aggregate_metrics();
        assert_eq!(
            restored_metrics.quotes_served,
            expected_metrics.quotes_served
        );
        assert_eq!(
            restored_metrics.revenue.to_bits(),
            expected_metrics.revenue.to_bits()
        );
        // The continuation prices bit-identically.
        let expected = pump(&mut original, &ids, 2, 23);
        let actual = pump(&mut restored, &ids, 2, 23);
        assert_eq!(expected, actual);
    }

    #[test]
    fn wal_replay_registers_tenants_born_after_the_base_snapshot() {
        let first = [TenantId(5), TenantId(6)];
        let mut original = wal_service(&first);
        let base = original.snapshot().unwrap();
        original
            .register_tenant(TenantId(7), TenantConfig::standard(3, 200))
            .unwrap();
        let all: Vec<TenantId> = vec![TenantId(5), TenantId(6), TenantId(7)];
        pump(&mut original, &all, 2, 31);
        let stream = original.checkpoint().unwrap();

        let mut restored = MarketService::restore_with_wal(&base, &stream).unwrap();
        assert_eq!(restored.tenant_count(), 3);
        let expected = pump(&mut original, &all, 1, 32);
        let actual = pump(&mut restored, &all, 1, 32);
        assert_eq!(expected, actual);
    }

    #[test]
    fn out_of_order_segments_are_rejected() {
        let ids: Vec<TenantId> = (1u64..=5).map(TenantId).collect();
        let mut service = wal_service(&ids);
        let base = service.snapshot().unwrap();
        pump(&mut service, &ids, 1, 41);
        let mut segments = service.checkpoint().unwrap();
        segments.reverse();
        let err = MarketService::restore_with_wal(&base, &segments).unwrap_err();
        assert!(matches!(err, ServiceError::MalformedSnapshot(_)));
        assert!(err.to_string().contains("ascending"));
    }

    #[test]
    fn checkpoint_skips_open_rounds_and_keeps_them_dirty() {
        let ids = [TenantId(2), TenantId(4)];
        let mut service = wal_service(&ids);
        let base = service.snapshot().unwrap();
        pump(&mut service, &ids, 1, 51);
        // Leave one tenant with a quoted-but-unobserved round.
        service
            .ingest(Request::Quote(QueryRequest {
                tenant: ids[0],
                features: Vector::from_slice(&[0.4, 0.4, 0.2]),
                reserve_price: 0.2,
            }))
            .unwrap();
        let open_quote = *service.drain(1)[0].quote().unwrap();
        let under_traffic = service.checkpoint().unwrap();
        let captured: usize = under_traffic
            .iter()
            .map(|s| s.get("tenants").and_then(Json::as_arr).unwrap().len())
            .sum();
        // Close the round; the skipped tenant is still dirty, so the next
        // checkpoint carries it.
        service
            .ingest(Request::Observe(OutcomeReport {
                tenant: ids[0],
                accepted: open_quote.posted_price <= 1.1,
                market_value: Some(1.1),
            }))
            .unwrap();
        service.drain(1);
        let mut stream: Vec<Json> = under_traffic;
        stream.extend(service.checkpoint().unwrap());
        assert_eq!(captured, 1);
        let mut restored = MarketService::restore_with_wal(&base, &stream).unwrap();
        let expected = pump(&mut service, &ids, 1, 52);
        let actual = pump(&mut restored, &ids, 1, 52);
        assert_eq!(expected, actual);
    }
}
