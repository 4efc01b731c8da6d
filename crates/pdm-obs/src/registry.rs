//! The metric registry: named counters, gauges, histograms, and spans.
//!
//! A [`MetricRegistry`] is a plain, lock-free value: registration returns a
//! typed handle (a `Vec` index), and recording through a handle is an array
//! write — cheap enough for per-batch accounting on the serving hot path.
//! Concurrency is the caller's problem by design: `pdm-service` keeps one
//! registry per shard (mutated only by the worker currently holding that
//! shard's lock) and folds them together at scrape time with
//! [`MetricRegistry::merge`], in shard-index order.  Because counter and
//! histogram merges are exact integer/`f64` folds in a fixed order, the
//! merged registry is deterministic for a given request stream regardless
//! of worker count.
//!
//! ## Deterministic vs wall-clock entries
//!
//! Every entry carries a `deterministic` flag.  Counters, gauges, and work
//! histograms (batch sizes, items processed) are pure functions of the
//! request stream and are included in the deterministic JSON dump that the
//! determinism harness compares byte-for-byte across worker counts.
//! Wall-clock duration histograms (span timings) are flagged
//! non-deterministic and appear only in the full dump and the Prometheus
//! exposition — the same segregation the bench reports apply to their
//! `perf` sections.

use crate::hist::LogHistogram;
use pdm_linalg::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// Handle to a span: a wall-clock duration histogram (`<name>.wall_nanos`,
/// non-deterministic) paired with a work histogram (`<name>.work_items`,
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    wall: HistId,
    work: HistId,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    name: String,
    help: String,
    deterministic: bool,
    value: T,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// A registry of named metrics.  See the module docs for the threading and
/// determinism model.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counters: Vec<Entry<f64>>,
    gauges: Vec<Entry<f64>>,
    histograms: Vec<Entry<LogHistogram>>,
    index: BTreeMap<String, (Kind, usize)>,
}

impl MetricRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-opens) a counter.  Counters are monotone `f64`
    /// accumulators — `f64` rather than `u64` so revenue/ε-style totals fit
    /// the same exposition path as event counts.
    pub fn counter(&mut self, name: &str, help: &str) -> CounterId {
        if let Some(&(kind, slot)) = self.index.get(name) {
            assert!(
                kind == Kind::Counter,
                "{name} already registered as {kind:?}"
            );
            return CounterId(slot);
        }
        let slot = self.counters.len();
        self.counters.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            deterministic: true,
            value: 0.0,
        });
        self.index.insert(name.to_owned(), (Kind::Counter, slot));
        CounterId(slot)
    }

    /// Registers (or re-opens) a gauge — a level, not an accumulator.
    /// Merging registries **sums** gauges, so a scraped gauge reads as the
    /// service-wide level (e.g. total queue depth across shards).
    pub fn gauge(&mut self, name: &str, help: &str) -> GaugeId {
        if let Some(&(kind, slot)) = self.index.get(name) {
            assert!(kind == Kind::Gauge, "{name} already registered as {kind:?}");
            return GaugeId(slot);
        }
        let slot = self.gauges.len();
        self.gauges.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            deterministic: true,
            value: 0.0,
        });
        self.index.insert(name.to_owned(), (Kind::Gauge, slot));
        GaugeId(slot)
    }

    /// Registers (or re-opens) a deterministic histogram over the fixed
    /// log-bucket grid.
    pub fn histogram(&mut self, name: &str, help: &str) -> HistId {
        self.histogram_with(name, help, true)
    }

    /// Registers (or re-opens) a wall-clock histogram: excluded from the
    /// deterministic dump, present in the full dump and the Prometheus
    /// exposition.
    pub fn wall_histogram(&mut self, name: &str, help: &str) -> HistId {
        self.histogram_with(name, help, false)
    }

    fn histogram_with(&mut self, name: &str, help: &str, deterministic: bool) -> HistId {
        if let Some(&(kind, slot)) = self.index.get(name) {
            assert!(
                kind == Kind::Histogram,
                "{name} already registered as {kind:?}"
            );
            return HistId(slot);
        }
        let slot = self.histograms.len();
        self.histograms.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            deterministic,
            value: LogHistogram::new(),
        });
        self.index.insert(name.to_owned(), (Kind::Histogram, slot));
        HistId(slot)
    }

    /// Registers a span: `<name>.wall_nanos` (wall-clock batch durations)
    /// plus `<name>.work_items` (deterministic batch sizes).
    pub fn span(&mut self, name: &str, help: &str) -> SpanId {
        let wall = self.wall_histogram(
            &format!("{name}.wall_nanos"),
            &format!("{help} (wall-clock nanoseconds per recorded batch)"),
        );
        let work = self.histogram(
            &format!("{name}.work_items"),
            &format!("{help} (items per recorded batch)"),
        );
        SpanId { wall, work }
    }

    /// Adds to a counter.
    pub fn inc(&mut self, id: CounterId, by: f64) {
        self.counters[id.0].value += by;
    }

    /// Sets a gauge level.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, id: HistId, value: u64) {
        self.histograms[id.0].value.record(value);
    }

    /// Records `n` identical histogram observations in one fold.
    pub fn observe_n(&mut self, id: HistId, value: u64, n: u64) {
        self.histograms[id.0].value.record_n(value, n);
    }

    /// Records one span batch: `elapsed` into the wall histogram, `work`
    /// into the work histogram.
    pub fn record_span(&mut self, id: SpanId, elapsed: Duration, work: u64) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.histograms[id.wall.0].value.record(nanos);
        self.histograms[id.work.0].value.record(work);
    }

    /// Folds another registry into this one, matching entries by name and
    /// creating any that are missing.  Counters and gauges add, histograms
    /// fold bucket-wise — all exact, so any fold order over per-worker or
    /// per-shard registries yields identical contents.
    pub fn merge(&mut self, other: &Self) {
        for entry in &other.counters {
            let id = self.counter(&entry.name, &entry.help);
            self.inc(id, entry.value);
        }
        for entry in &other.gauges {
            let id = self.gauge(&entry.name, &entry.help);
            self.gauges[id.0].value += entry.value;
        }
        for entry in &other.histograms {
            let id = self.histogram_with(&entry.name, &entry.help, entry.deterministic);
            self.histograms[id.0].value.merge(&entry.value);
        }
    }

    /// Current value of a counter, by name.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<f64> {
        match self.index.get(name) {
            Some(&(Kind::Counter, slot)) => Some(self.counters[slot].value),
            _ => None,
        }
    }

    /// Current level of a gauge, by name.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.index.get(name) {
            Some(&(Kind::Gauge, slot)) => Some(self.gauges[slot].value),
            _ => None,
        }
    }

    /// A histogram, by name.
    #[must_use]
    pub fn histogram_counts(&self, name: &str) -> Option<&LogHistogram> {
        match self.index.get(name) {
            Some(&(Kind::Histogram, slot)) => Some(&self.histograms[slot].value),
            _ => None,
        }
    }

    /// Every span stage present in the registry:
    /// `(stage name, work histogram, wall histogram)`, sorted by name.  A
    /// stage is any `<name>.work_items` histogram; the wall half is absent
    /// if the registry only saw the deterministic dump of a peer.
    #[must_use]
    pub fn span_stages(&self) -> Vec<(String, &LogHistogram, Option<&LogHistogram>)> {
        let mut stages: Vec<(String, &LogHistogram, Option<&LogHistogram>)> = self
            .histograms
            .iter()
            .filter_map(|entry| {
                let stage = entry.name.strip_suffix(".work_items")?;
                let wall = self.histogram_counts(&format!("{stage}.wall_nanos"));
                Some((stage.to_owned(), &entry.value, wall))
            })
            .collect();
        stages.sort_by(|a, b| a.0.cmp(&b.0));
        stages
    }

    /// Renders the registry in Prometheus text exposition format 0.0.4.
    /// Families are sorted by name, so the output is independent of
    /// registration and merge order.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        crate::prom::render(self)
    }

    /// The registry as a deterministic JSON tree.  With
    /// `deterministic_only`, wall-clock histograms are omitted — this is
    /// the dump the determinism harness compares byte-for-byte across
    /// worker counts.  Entries are sorted by name.
    #[must_use]
    pub fn to_json(&self, deterministic_only: bool) -> Json {
        let mut counters: Vec<(String, Json)> = self
            .counters
            .iter()
            .map(|entry| (entry.name.clone(), Json::Num(entry.value)))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, Json)> = self
            .gauges
            .iter()
            .map(|entry| (entry.name.clone(), Json::Num(entry.value)))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, Json)> = self
            .histograms
            .iter()
            .filter(|entry| entry.deterministic || !deterministic_only)
            .map(|entry| {
                let buckets = entry
                    .value
                    .nonzero_buckets()
                    .map(|(le, count)| {
                        Json::Arr(vec![Json::Num(le as f64), Json::Num(count as f64)])
                    })
                    .collect();
                (
                    entry.name.clone(),
                    Json::obj(vec![
                        ("count", Json::Num(entry.value.count() as f64)),
                        ("sum", Json::Num(entry.value.sum_f64())),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Json::obj(vec![
            ("counters", Json::obj(counters)),
            ("gauges", Json::obj(gauges)),
            ("histograms", Json::obj(histograms)),
        ])
    }

    pub(crate) fn sorted_counters(&self) -> Vec<(&str, &str, f64)> {
        let mut rows: Vec<(&str, &str, f64)> = self
            .counters
            .iter()
            .map(|entry| (entry.name.as_str(), entry.help.as_str(), entry.value))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    pub(crate) fn sorted_gauges(&self) -> Vec<(&str, &str, f64)> {
        let mut rows: Vec<(&str, &str, f64)> = self
            .gauges
            .iter()
            .map(|entry| (entry.name.as_str(), entry.help.as_str(), entry.value))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    pub(crate) fn sorted_histograms(&self) -> Vec<(&str, &str, &LogHistogram)> {
        let mut rows: Vec<(&str, &str, &LogHistogram)> = self
            .histograms
            .iter()
            .map(|entry| (entry.name.as_str(), entry.help.as_str(), &entry.value))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_record_and_reopening_returns_the_same_slot() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("quotes_served_total", "Quotes served");
        reg.inc(c, 2.0);
        let again = reg.counter("quotes_served_total", "ignored");
        assert_eq!(c, again);
        reg.inc(again, 1.0);
        assert_eq!(reg.counter_value("quotes_served_total"), Some(3.0));

        let g = reg.gauge("queue.depth", "Queued requests");
        reg.set(g, 7.0);
        assert_eq!(reg.gauge_value("queue.depth"), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let mut reg = MetricRegistry::new();
        reg.counter("x", "");
        reg.gauge("x", "");
    }

    #[test]
    fn merge_matches_by_name_and_sums() {
        let mut a = MetricRegistry::new();
        let mut b = MetricRegistry::new();
        let ca = a.counter("sales_total", "");
        a.inc(ca, 5.0);
        let cb = b.counter("sales_total", "");
        b.inc(cb, 2.0);
        let only_b = b.counter("shed_total", "");
        b.inc(only_b, 1.0);
        let ga = a.gauge("queue.depth", "");
        a.set(ga, 3.0);
        let gb = b.gauge("queue.depth", "");
        b.set(gb, 4.0);
        let ha = a.histogram("batch", "");
        a.observe_n(ha, 10, 2);
        let hb = b.histogram("batch", "");
        b.observe(hb, 10_000);

        a.merge(&b);
        assert_eq!(a.counter_value("sales_total"), Some(7.0));
        assert_eq!(a.counter_value("shed_total"), Some(1.0));
        assert_eq!(a.gauge_value("queue.depth"), Some(7.0), "gauges sum");
        let h = a.histogram_counts("batch").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 10_020);
    }

    #[test]
    fn spans_feed_both_halves_and_the_deterministic_dump_drops_wall() {
        let mut reg = MetricRegistry::new();
        let span = reg.span("shard.quote", "Posted-price serve segments");
        reg.record_span(span, Duration::from_micros(5), 32);
        reg.record_span(span, Duration::from_micros(9), 64);

        let work = reg.histogram_counts("shard.quote.work_items").unwrap();
        assert_eq!(work.count(), 2);
        assert_eq!(work.sum(), 96);
        let wall = reg.histogram_counts("shard.quote.wall_nanos").unwrap();
        assert_eq!(wall.count(), 2);

        let det = reg.to_json(true).render();
        let full = reg.to_json(false).render();
        assert!(det.contains("shard.quote.work_items"));
        assert!(!det.contains("wall_nanos"), "wall half is wall-clock only");
        assert!(full.contains("shard.quote.wall_nanos"));

        let stages = reg.span_stages();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].0, "shard.quote");
        assert!(stages[0].2.is_some());
    }

    #[test]
    fn json_dump_is_sorted_and_merge_order_independent() {
        let build = |order_flip: bool| {
            let mut parts = Vec::new();
            for seed in 0..3u64 {
                let mut reg = MetricRegistry::new();
                let c = reg.counter("zeta_total", "");
                reg.inc(c, seed as f64);
                let h = reg.histogram("alpha.work_items", "");
                reg.observe(h, seed * 100 + 1);
                parts.push(reg);
            }
            if order_flip {
                parts.reverse();
            }
            let mut merged = MetricRegistry::new();
            for part in &parts {
                merged.merge(part);
            }
            merged.to_json(true).render()
        };
        assert_eq!(build(false), build(true));
    }
}
