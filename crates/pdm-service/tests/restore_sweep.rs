//! A hostile-document sweep over both persisted formats.
//!
//! Every leaf of the checked-in v5 snapshot, and of one WAL segment the
//! restored service writes, is deleted or replaced by a string, −1, 0.5
//! or 1e18, one leaf and one mutation at a time.  `restore` and
//! `restore_with_wal` must answer every mutant with `Ok` or
//! `MalformedSnapshot`: never another error, never a panic, never an abort
//! (a hostile count used to size an allocation).  A failure names the leaf
//! path and the mutation.

use std::panic::{self, AssertUnwindSafe};

use pdm_linalg::{Json, Vector};
use pdm_service::{
    AuctionRequest, MarketService, OutcomeReport, Payload, QueryRequest, Request, ServiceError,
    TenantId,
};

const FIXTURE: &str = include_str!("fixtures/snapshot_v5.json");

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
                path.push(Step::Key(key.clone()));
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
    let base = Json::parse(FIXTURE).unwrap();
    assert_clean(&sweep("snapshot", &base, MarketService::restore));
}

#[test]
fn every_single_leaf_mutation_of_a_wal_segment_replays_or_is_malformed() {
    let base = Json::parse(FIXTURE).unwrap();
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

#[test]
fn null_knowledge_leaves_are_malformed() {
    // The JSON reader maps `null` to NaN, and NaN passes both the symmetry
    // test and the Cholesky pivot test; the knowledge set must still be
    // refused.  Tenant 0 of the fixture is at dim 2, so its shape is
    // [a₀₀, a₀₁, a₁₀, a₁₁].
    let base = Json::parse(FIXTURE).unwrap();
    let knowledge = |leaf: &str, index: usize| {
        vec![
            Step::Key("tenants".into()),
            Step::Index(0),
            Step::Key("knowledge".into()),
            Step::Key(leaf.into()),
            Step::Index(index),
        ]
    };
    let cases = [
        (
            "both off-diagonal shape entries",
            vec![knowledge("shape", 1), knowledge("shape", 2)],
        ),
        ("a diagonal shape entry", vec![knowledge("shape", 3)]),
        ("a centre entry", vec![knowledge("center", 0)]),
    ];
    for (what, paths) in cases {
        let mutant = paths.iter().fold(base.clone(), |doc, path| {
            mutate(&doc, path, Some(&Json::Null))
        });
        match MarketService::restore(&mutant) {
            Err(ServiceError::MalformedSnapshot(message)) => {
                assert!(message.contains("knowledge"), "{what}: {message}");
            }
            other => panic!(
                "{what}: expected MalformedSnapshot, got {:?}",
                other.map(drop)
            ),
        }
    }
}
