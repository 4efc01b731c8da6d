//! A hostile-document sweep over both persisted formats.
//!
//! Every leaf of the checked-in v5 and v6 snapshots, of one WAL segment the
//! restored service writes, and of a snapshot holding every kind of tenant,
//! is deleted or replaced by a string, −1, 0.5 or 1e18, one leaf and one
//! mutation at a time.  `restore` and
//! `restore_with_wal` must answer every mutant with `Ok` or
//! `MalformedSnapshot`: never another error, never a panic, never an abort
//! (a hostile count used to size an allocation).  A failure names the leaf
//! path and the mutation.

use std::panic::{self, AssertUnwindSafe};

use pdm_linalg::{Json, Vector};
use pdm_service::{
    AuctionPolicy, AuctionRequest, DriftPolicy, MarketService, OutcomeReport, Payload,
    PrivacyParams, QueryRequest, Request, ServiceConfig, ServiceError, TenantConfig, TenantId,
};

/// Five dim-2 tenants, each shape stored as the full 2 × 2 matrix
/// `[a₀₀, a₀₁, a₁₀, a₁₁]`.
const FIXTURE_V5: &str = include_str!("fixtures/snapshot_v5.json");
/// The same service under schema v6: each shape is its packed upper
/// triangle `[a₀₀, a₀₁, a₁₁]`.
const FIXTURE_V6: &str = include_str!("fixtures/snapshot_v6.json");

/// One step from a document's root towards a leaf.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

fn render_path(path: &[Step]) -> String {
    let mut out = String::new();
    for step in path {
        match step {
            Step::Key(key) => {
                out.push('.');
                out.push_str(key);
            }
            Step::Index(index) => out.push_str(&format!("[{index}]")),
        }
    }
    out
}

/// Every path to a leaf: a scalar, or an empty array or object.
fn leaves(value: &Json, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        Json::Arr(items) if !items.is_empty() => {
            for (index, item) in items.iter().enumerate() {
                path.push(Step::Index(index));
                leaves(item, path, out);
                path.pop();
            }
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            for (key, item) in pairs {
                path.push(Step::Key(key.to_string()));
                leaves(item, path, out);
                path.pop();
            }
        }
        _ => out.push(path.clone()),
    }
}

/// `doc` with the leaf at `path` deleted (`None`) or replaced.
fn mutate(doc: &Json, path: &[Step], replacement: Option<&Json>) -> Json {
    let mut doc = doc.clone();
    let (last, parents) = path.split_last().expect("a leaf is below the root");
    let mut parent = &mut doc;
    for step in parents {
        parent = match (step, parent) {
            (Step::Key(key), Json::Obj(pairs)) => {
                &mut pairs
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .expect("path exists")
                    .1
            }
            (Step::Index(index), Json::Arr(items)) => &mut items[*index],
            _ => panic!("path does not match the document"),
        };
    }
    match (last, parent, replacement) {
        (Step::Key(key), Json::Obj(pairs), replacement) => {
            let at = pairs
                .iter()
                .position(|(k, _)| k == key)
                .expect("leaf exists");
            match replacement {
                Some(value) => pairs[at].1 = value.clone(),
                None => {
                    pairs.remove(at);
                }
            }
        }
        (Step::Index(index), Json::Arr(items), replacement) => match replacement {
            Some(value) => items[*index] = value.clone(),
            None => {
                items.remove(*index);
            }
        },
        _ => panic!("path does not match the document"),
    }
    doc
}

/// Restores every single-leaf mutant of `doc` through `restore`; returns
/// one line per mutant answered with anything but `Ok`/`MalformedSnapshot`.
fn sweep(
    name: &str,
    doc: &Json,
    restore: impl Fn(&Json) -> Result<MarketService, ServiceError>,
) -> Vec<String> {
    let mutations = [
        ("delete", None),
        ("string", Some(Json::str("mutant"))),
        ("-1", Some(Json::Num(-1.0))),
        ("0.5", Some(Json::Num(0.5))),
        ("1e18", Some(Json::Num(1e18))),
    ];
    let mut paths = Vec::new();
    leaves(doc, &mut Vec::new(), &mut paths);
    assert!(paths.len() > 100, "{name}: the sweep must reach the leaves");
    let mut failures = Vec::new();
    for path in &paths {
        for (label, replacement) in &mutations {
            let mutant = mutate(doc, path, replacement.as_ref());
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| restore(&mutant).map(drop)));
            let failure = match outcome {
                Ok(Ok(()) | Err(ServiceError::MalformedSnapshot(_))) => continue,
                Ok(Err(other)) => format!("returned {other:?}"),
                Err(payload) => format!(
                    "panicked: {}",
                    payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string payload>")
                ),
            };
            failures.push(format!("{name}{} <- {label}: {failure}", render_path(path)));
        }
    }
    failures
}

fn assert_clean(failures: &[String]) {
    assert!(
        failures.is_empty(),
        "{} mutants escaped the typed error:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// One request to every fixture tenant: a posted quote (closed with an
/// outcome) to tenants 1, 2, 3 and 5, and an auction round to tenant 4.
fn serve_one_wave(service: &mut MarketService) {
    for id in [1u64, 2, 3, 5] {
        service
            .ingest(Request::Quote(QueryRequest {
                tenant: TenantId(id),
                features: Vector::from_slice(&[0.6, 0.8]),
                reserve_price: 0.1,
            }))
            .unwrap();
    }
    service
        .ingest(Request::Auction(AuctionRequest {
            tenant: TenantId(4),
            features: Vector::from_slice(&[0.8, 0.6]),
            floor: 0.2,
            bids: vec![0.9, 0.3],
        }))
        .unwrap();
    for response in service.drain(1) {
        if let Payload::Quoted(quote) = response.payload {
            service
                .ingest(Request::Observe(OutcomeReport {
                    tenant: response.tenant,
                    accepted: quote.posted_price <= 0.7,
                    market_value: Some(0.7),
                }))
                .unwrap();
        }
    }
    service.drain(1);
}

#[test]
fn every_single_leaf_mutation_of_a_v5_snapshot_restores_or_is_malformed() {
    let base = Json::parse(FIXTURE_V5).unwrap();
    assert_clean(&sweep("v5 snapshot", &base, MarketService::restore));
}

#[test]
fn every_single_leaf_mutation_of_a_v6_snapshot_restores_or_is_malformed() {
    let base = Json::parse(FIXTURE_V6).unwrap();
    assert_clean(&sweep("v6 snapshot", &base, MarketService::restore));
}

#[test]
fn every_single_leaf_mutation_of_a_wal_segment_replays_or_is_malformed() {
    let base = Json::parse(FIXTURE_V6).unwrap();
    let mut service = MarketService::restore(&base).unwrap();
    serve_one_wave(&mut service);
    let segments = service.checkpoint().unwrap();
    assert_eq!(segments.len(), 1, "one segment carries the whole wave");
    let segment = &segments[0];
    assert_eq!(
        segment
            .get("tenants")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(5),
        "the segment carries every tenant kind"
    );
    // The unmutated stream replays.
    MarketService::restore_with_wal(&base, &segments).unwrap();
    assert_clean(&sweep("WAL segment", segment, |mutant| {
        MarketService::restore_with_wal(&base, std::slice::from_ref(mutant))
    }));
}

/// One dim-2 tenant of every kind a tenant document carries: posted, a
/// pinned `epsilon`, the three auction policies, privacy, and the two live
/// drift policies.
fn every_kind() -> Vec<TenantConfig> {
    let mut pinned = TenantConfig::standard(2, 200);
    pinned.pricing = pinned
        .pricing
        .with_epsilon(0.02)
        .with_conservative_cuts(true)
        .with_reserve(false);
    let privacy = PrivacyParams {
        epsilon_budget: 1.2,
        ..PrivacyParams::default()
    };
    vec![
        TenantConfig::standard(2, 200),
        pinned,
        TenantConfig::auction(2, 200, AuctionPolicy::Session),
        TenantConfig::auction(2, 200, AuctionPolicy::Static { markup: 0.05 }),
        TenantConfig::auction(
            2,
            200,
            AuctionPolicy::Empirical {
                window: 4,
                welfare_weight: 0.25,
            },
        ),
        TenantConfig::privacy(2, 200, privacy),
        TenantConfig::standard(2, 200).with_drift(DriftPolicy::Restart {
            window: 8,
            threshold: 2,
        }),
        TenantConfig::standard(2, 200).with_drift(DriftPolicy::Discounted { inflation: 1.01 }),
    ]
}

#[test]
fn every_single_leaf_mutation_of_every_tenant_kind_restores_or_is_malformed() {
    let kinds = every_kind();
    let mut service = MarketService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 64,
        ..ServiceConfig::default()
    })
    .unwrap();
    for (id, config) in (1u64..).zip(&kinds) {
        service.register_tenant(TenantId(id), *config).unwrap();
    }
    // A few rounds of every kind of traffic, every round closed, so each
    // tenant carries learned state: a cut knowledge set, a bid history,
    // spent privacy budget, a drift window.
    for round in 0..6u32 {
        let t = f64::from(round) * 0.37;
        let features = Vector::from_slice(&[t.cos().abs() * 0.6, t.sin().abs() * 0.6 + 0.1]);
        for (id, config) in (1u64..).zip(&kinds) {
            let tenant = TenantId(id);
            let request = if config.market.auction_policy().is_some() {
                Request::Auction(AuctionRequest {
                    tenant,
                    features: features.clone(),
                    floor: 0.1,
                    bids: vec![0.9, 0.4],
                })
            } else {
                Request::Quote(QueryRequest {
                    tenant,
                    features: features.clone(),
                    reserve_price: 0.05,
                })
            };
            service.ingest(request).unwrap();
        }
        for response in service.drain(1) {
            if let Payload::Quoted(quote) = response.payload {
                service
                    .ingest(Request::Observe(OutcomeReport {
                        tenant: response.tenant,
                        accepted: quote.posted_price <= 0.7,
                        market_value: (round % 2 == 0).then_some(0.7),
                    }))
                    .unwrap();
            }
        }
        service.drain(1);
    }
    let base = service.snapshot().unwrap();
    let text = base.render();
    for leaf in ["\"markup\"", "\"epsilon\":0.02", "\"policy\":\"session\""] {
        assert!(text.contains(leaf), "the snapshot must carry {leaf}");
    }
    MarketService::restore(&base).unwrap();
    assert_clean(&sweep("every-kind snapshot", &base, MarketService::restore));
}

/// The path to entry `index` of tenant 0's `knowledge.<leaf>` array.
fn knowledge(leaf: &str, index: usize) -> Vec<Step> {
    vec![
        Step::Key("tenants".into()),
        Step::Index(0),
        Step::Key("knowledge".into()),
        Step::Key(leaf.into()),
        Step::Index(index),
    ]
}

/// Restores `doc`, which must be refused as malformed with a message that
/// names tenant 0 of the fixtures and contains `says`.
fn assert_malformed(what: &str, doc: &Json, says: &str) {
    match MarketService::restore(doc) {
        Err(ServiceError::MalformedSnapshot(message)) => {
            assert!(message.contains("tenant-1"), "{what}: {message}");
            assert!(message.contains(says), "{what}: {message}");
        }
        other => panic!(
            "{what}: expected MalformedSnapshot, got {:?}",
            other.map(drop)
        ),
    }
}

#[test]
fn null_knowledge_leaves_are_malformed() {
    // The JSON reader maps `null` to NaN, and NaN passes both the symmetry
    // test and the Cholesky pivot test; the knowledge set must still be
    // refused.  Tenant 0 of both fixtures is at dim 2.
    let cases = [
        (
            FIXTURE_V5,
            "both off-diagonal shape entries",
            vec![knowledge("shape", 1), knowledge("shape", 2)],
        ),
        (
            FIXTURE_V5,
            "a diagonal shape entry",
            vec![knowledge("shape", 3)],
        ),
        (FIXTURE_V5, "a centre entry", vec![knowledge("center", 0)]),
        (
            FIXTURE_V6,
            "the off-diagonal shape entry",
            vec![knowledge("shape", 1)],
        ),
        (
            FIXTURE_V6,
            "a diagonal shape entry",
            vec![knowledge("shape", 2)],
        ),
        (FIXTURE_V6, "a centre entry", vec![knowledge("center", 1)]),
    ];
    for (fixture, what, paths) in cases {
        let base = Json::parse(fixture).unwrap();
        let mutant = paths
            .iter()
            .fold(base, |doc, path| mutate(&doc, path, Some(&Json::Null)));
        assert_malformed(what, &mutant, "knowledge");
    }
}

/// `doc` with tenant 0's `knowledge.shape` replaced by `shape`.
fn with_shape(doc: &Json, shape: &[f64]) -> Json {
    let mut path = knowledge("shape", 0);
    path.pop();
    let shape = Json::Arr(shape.iter().map(|&x| Json::Num(x)).collect());
    mutate(doc, &path, Some(&shape))
}

/// Tenant 0's `knowledge.shape` numbers.
fn shape_of(doc: &Json) -> Vec<f64> {
    doc.get("tenants")
        .and_then(Json::as_arr)
        .and_then(|tenants| tenants[0].get("knowledge"))
        .and_then(|knowledge| knowledge.get("shape"))
        .and_then(Json::as_arr)
        .expect("tenant 0 has a shape")
        .iter()
        .map(|x| x.as_f64().expect("a number"))
        .collect()
}

#[test]
fn the_schema_version_decides_the_shape_layout() {
    // The version the document declares decides how its shape is read; a
    // shape of the other layout is malformed, never reinterpreted.
    let v5 = Json::parse(FIXTURE_V5).unwrap();
    let v6 = Json::parse(FIXTURE_V6).unwrap();
    let (dense, packed) = (shape_of(&v5), shape_of(&v6));
    assert_eq!(dense.len(), 4);
    assert_eq!(packed, [dense[0], dense[1], dense[3]]);
    assert_eq!(dense[1], dense[2], "the v5 shape is symmetric");
    let one_long = [packed.as_slice(), &[0.0]].concat();
    // A full matrix can be asymmetric; v1–v5 restores refuse one that is
    // beyond the positive-definiteness check's tolerance, as they always
    // have.
    let asymmetric = [dense[0], dense[1] + 1.0, dense[2], dense[3]];
    for (what, doc) in [
        ("a v6 shape with 4 numbers", with_shape(&v6, &dense)),
        ("a v5 shape with 3 numbers", with_shape(&v5, &packed)),
        ("a v6 shape one number short", with_shape(&v6, &packed[..2])),
        ("a v6 shape one number long", with_shape(&v6, &one_long)),
        ("an asymmetric v5 shape", with_shape(&v5, &asymmetric)),
    ] {
        assert_malformed(what, &doc, "knowledge shape");
    }
}
