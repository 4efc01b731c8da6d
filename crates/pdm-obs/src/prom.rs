//! Prometheus text exposition (format 0.0.4): renderer and lint parser.
//!
//! [`render`] turns a [`MetricRegistry`] into the plain-text format every
//! Prometheus-compatible scraper understands: `# HELP` / `# TYPE` headers
//! per family, cumulative `_bucket{le="…"}` series plus `_sum`/`_count` for
//! histograms.  Logical metric names are dotted (`shard.quote.wall_nanos`);
//! the renderer maps them onto the exposition charset with a `pdm_` prefix
//! and `_` separators.
//!
//! [`parse`] is the matching lint: it re-parses a rendered exposition and
//! checks the structural invariants (name charset, numeric samples, one
//! TYPE per family, cumulative non-decreasing buckets ending in a `+Inf`
//! bucket that equals `_count`).  CI runs it over the scrape every bench
//! workload writes, so a malformed exposition fails the build rather than
//! the first real scraper pointed at it.

use crate::registry::MetricRegistry;
use pdm_linalg::json::write_f64;
use std::collections::BTreeMap;
use std::io::Write as _;

/// Maps a dotted logical name onto the Prometheus charset:
/// `shard.quote.wall_nanos` → `pdm_shard_quote_wall_nanos`.
#[must_use]
pub fn exposition_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("pdm_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a registry in text exposition format 0.0.4.  Families are
/// sorted by name; histogram buckets are cumulative, collapse duplicate
/// integer edges at the low end of the grid, stop at the last non-empty
/// bucket, and always end with the mandatory `+Inf` bucket.
///
/// The exposition is written into one byte buffer, numbers straight from
/// the float writer, and turned into a `String` with one UTF-8 check.
#[must_use]
pub fn render(registry: &MetricRegistry) -> String {
    // io::Write to a Vec cannot fail; the results are discarded, not
    // unwrapped, to keep the no-unwrap-in-lib surface at zero.
    let mut out = Vec::new();
    for (name, help, value) in registry.sorted_counters() {
        let prom = family(&mut out, name, help, "counter");
        let _ = write!(out, "{prom} ");
        write_value(&mut out, value);
    }
    for (name, help, value) in registry.sorted_gauges() {
        let prom = family(&mut out, name, help, "gauge");
        let _ = write!(out, "{prom} ");
        write_value(&mut out, value);
    }
    for (name, help, hist) in registry.sorted_histograms() {
        let prom = family(&mut out, name, help, "histogram");
        // Cumulative counts over the non-empty prefix of the grid, with
        // duplicate integer edges collapsed (the sub-unity part of the
        // base-2^(1/4) grid repeats edges 1 and 2).
        let mut cumulative = 0u64;
        let mut last_edge: Option<u64> = None;
        for (edge, count) in hist.nonzero_buckets() {
            if let Some(previous) = last_edge {
                if previous != edge {
                    let _ = writeln!(out, "{prom}_bucket{{le=\"{previous}\"}} {cumulative}");
                }
            }
            cumulative += count;
            last_edge = Some(edge);
        }
        if let Some(previous) = last_edge {
            if previous != u64::MAX {
                let _ = writeln!(out, "{prom}_bucket{{le=\"{previous}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = write!(out, "{prom}_sum ");
        write_value(&mut out, hist.sum_f64());
        let _ = writeln!(out, "{prom}_count {}", hist.count());
    }
    match String::from_utf8(out) {
        Ok(text) => text,
        Err(_) => unreachable!("the exposition copies whole strings and ASCII"),
    }
}

/// Writes a family's `# HELP` and `# TYPE` lines, with `\` and newlines in
/// the help text escaped, and returns the family's exposition name.
fn family(out: &mut Vec<u8>, name: &str, help: &str, kind: &str) -> String {
    let prom = exposition_name(name);
    let _ = write!(out, "# HELP {prom} ");
    for &byte in help.as_bytes() {
        match byte {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            byte => out.push(byte),
        }
    }
    let _ = writeln!(out, "\n# TYPE {prom} {kind}");
    prom
}

/// Writes a sample value and ends its line: `NaN`, `+Inf` and `-Inf` as
/// the format spells them, every other value as `Display` writes it.
fn write_value(out: &mut Vec<u8>, value: f64) {
    if value.is_nan() {
        out.extend_from_slice(b"NaN");
    } else if value == f64::INFINITY {
        out.extend_from_slice(b"+Inf");
    } else if value == f64::NEG_INFINITY {
        out.extend_from_slice(b"-Inf");
    } else {
        write_f64(out, value);
    }
    out.push(b'\n');
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full series name, including `_bucket`/`_sum`/`_count` suffixes.
    pub name: String,
    /// The `le` label for bucket series, verbatim.
    pub le: Option<String>,
    /// The sample value.
    pub value: f64,
}

/// Summary of a successfully linted exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Metric families seen (`# TYPE` headers).
    pub families: usize,
    /// Sample lines seen.
    pub samples: usize,
}

/// Parses and lints a text exposition, returning a summary or the first
/// structural violation.  Accepts the subset of format 0.0.4 that
/// [`render`] emits (at most one label, `le`), which is exactly what the
/// CI lint needs.
pub fn parse(text: &str) -> Result<LintReport, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let line_no = line_no + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            match keyword {
                "HELP" => {
                    parts
                        .next()
                        .filter(|name| is_valid_name(name))
                        .ok_or(format!("line {line_no}: HELP without a valid name"))?;
                }
                "TYPE" => {
                    let name = parts
                        .next()
                        .filter(|name| is_valid_name(name))
                        .ok_or(format!("line {line_no}: TYPE without a valid name"))?;
                    let kind = parts
                        .next()
                        .ok_or(format!("line {line_no}: TYPE without a kind"))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {line_no}: unknown TYPE kind {kind}"));
                    }
                    if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                        return Err(format!("line {line_no}: duplicate TYPE for {name}"));
                    }
                }
                _ => return Err(format!("line {line_no}: unknown comment keyword {keyword}")),
            }
            continue;
        }
        samples.push(parse_sample(line, line_no)?);
    }

    // Histogram invariants: cumulative non-decreasing buckets, a final
    // +Inf bucket, and _count equal to it.
    for (family, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let bucket_series = format!("{family}_bucket");
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|sample| sample.name == bucket_series)
            .collect();
        let Some(last) = buckets.last() else {
            return Err(format!("histogram {family} has no _bucket series"));
        };
        let mut previous_le = f64::NEG_INFINITY;
        let mut previous_count = 0.0f64;
        for bucket in &buckets {
            let le_raw = bucket
                .le
                .as_deref()
                .ok_or(format!("histogram {family} bucket without le"))?;
            let le =
                parse_le(le_raw).ok_or(format!("histogram {family} has invalid le {le_raw}"))?;
            if le <= previous_le {
                return Err(format!("histogram {family} le values must increase"));
            }
            if bucket.value < previous_count {
                return Err(format!(
                    "histogram {family} bucket counts must be cumulative"
                ));
            }
            previous_le = le;
            previous_count = bucket.value;
        }
        if last.le.as_deref() != Some("+Inf") {
            return Err(format!("histogram {family} must end with a +Inf bucket"));
        }
        let count = samples
            .iter()
            .find(|sample| sample.name == format!("{family}_count"))
            .ok_or(format!("histogram {family} has no _count"))?;
        samples
            .iter()
            .find(|sample| sample.name == format!("{family}_sum"))
            .ok_or(format!("histogram {family} has no _sum"))?;
        if (count.value - last.value).abs() > 0.0 {
            return Err(format!(
                "histogram {family}: +Inf bucket {} disagrees with _count {}",
                last.value, count.value
            ));
        }
    }

    // Every sample must belong to a declared family.
    for sample in &samples {
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| sample.name.strip_suffix(suffix))
            .filter(|family| types.get(*family).map(String::as_str) == Some("histogram"))
            .unwrap_or(&sample.name);
        if !types.contains_key(family) {
            return Err(format!("sample {} has no TYPE header", sample.name));
        }
    }

    Ok(LintReport {
        families: types.len(),
        samples: samples.len(),
    })
}

fn parse_sample(line: &str, line_no: usize) -> Result<Sample, String> {
    let (series, value_text) = line
        .rsplit_once(' ')
        .ok_or(format!("line {line_no}: sample without a value"))?;
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| format!("line {line_no}: non-numeric value {other}"))?,
    };
    let (name, le) = match series.split_once('{') {
        None => (series.to_owned(), None),
        Some((name, labels)) => {
            let labels = labels
                .strip_suffix('}')
                .ok_or(format!("line {line_no}: unterminated label set"))?;
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|rest| rest.strip_suffix('"'))
                .ok_or(format!("line {line_no}: only the le label is expected"))?;
            (name.to_owned(), Some(le.to_owned()))
        }
    };
    if !is_valid_name(&name) {
        return Err(format!("line {line_no}: invalid metric name {name}"));
    }
    Ok(Sample { name, le, value })
}

fn parse_le(raw: &str) -> Option<f64> {
    if raw == "+Inf" {
        Some(f64::INFINITY)
    } else {
        raw.parse::<f64>().ok().filter(|le| le.is_finite())
    }
}

fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;
    use std::time::Duration;

    /// The exposition as the renderer wrote it through `fmt::Write` into a
    /// `String`, with one `String` per sample value: the oracle the byte
    /// renderer must match.
    fn oracle_render(registry: &MetricRegistry) -> String {
        let mut out = String::new();
        for (name, help, value) in registry.sorted_counters() {
            let prom = exposition_name(name);
            let _ = writeln!(out, "# HELP {prom} {}", escape_help(help));
            let _ = writeln!(out, "# TYPE {prom} counter");
            let _ = writeln!(out, "{prom} {}", fmt_value(value));
        }
        for (name, help, value) in registry.sorted_gauges() {
            let prom = exposition_name(name);
            let _ = writeln!(out, "# HELP {prom} {}", escape_help(help));
            let _ = writeln!(out, "# TYPE {prom} gauge");
            let _ = writeln!(out, "{prom} {}", fmt_value(value));
        }
        for (name, help, hist) in registry.sorted_histograms() {
            let prom = exposition_name(name);
            let _ = writeln!(out, "# HELP {prom} {}", escape_help(help));
            let _ = writeln!(out, "# TYPE {prom} histogram");
            let mut cumulative = 0u64;
            let mut last_edge: Option<u64> = None;
            for (edge, count) in hist.nonzero_buckets() {
                if let Some(previous) = last_edge {
                    if previous != edge {
                        let _ = writeln!(out, "{prom}_bucket{{le=\"{previous}\"}} {cumulative}");
                    }
                }
                cumulative += count;
                last_edge = Some(edge);
            }
            if let Some(previous) = last_edge {
                if previous != u64::MAX {
                    let _ = writeln!(out, "{prom}_bucket{{le=\"{previous}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{prom}_sum {}", fmt_value(hist.sum_f64()));
            let _ = writeln!(out, "{prom}_count {}", hist.count());
        }
        out
    }

    fn fmt_value(value: f64) -> String {
        if value.is_nan() {
            "NaN".to_owned()
        } else if value == f64::INFINITY {
            "+Inf".to_owned()
        } else if value == f64::NEG_INFINITY {
            "-Inf".to_owned()
        } else {
            format!("{value}")
        }
    }

    fn escape_help(help: &str) -> String {
        help.replace('\\', "\\\\").replace('\n', "\\n")
    }

    /// SplitMix64: the random registries are a pure function of the seed.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len() as u64) as usize]
        }

        /// NaN, ±∞, zeros, integers, round and arbitrary fractions.
        fn value(&mut self) -> f64 {
            let x = match self.below(8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                3 => (self.next() >> self.below(64)) as f64,
                4 => self.below(1_000_000) as f64 / 1000.0,
                5 => 0.1 * self.below(100) as f64,
                _ => loop {
                    let x = f64::from_bits(self.next());
                    if x.is_finite() {
                        break x;
                    }
                },
            };
            if self.below(3) == 0 {
                -x
            } else {
                x
            }
        }

        /// A help text built from plain words, backslashes and newlines.
        fn help(&mut self) -> String {
            let pieces = ["Quotes", " served", "\\", "\n", "π ε", "a\\nb", ""];
            (0..self.below(5)).map(|_| self.pick(&pieces)).collect()
        }
    }

    /// A registry of random counters, gauges, spans and histograms, some
    /// histograms empty and some on the collapsed low edges of the grid.
    fn random_registry(draws: &mut Draws) -> MetricRegistry {
        let names = [
            "quotes_served_total",
            "queue.depth",
            "shard.quote",
            "weird-name.π",
            "x",
        ];
        let mut reg = MetricRegistry::new();
        for i in 0..draws.below(4) {
            let name = format!("{}.c{i}", draws.pick(&names));
            let id = reg.counter(&name, &draws.help());
            for _ in 0..draws.below(3) {
                let by = draws.value();
                reg.inc(id, by);
            }
        }
        for i in 0..draws.below(4) {
            let name = format!("{}.g{i}", draws.pick(&names));
            let id = reg.gauge(&name, &draws.help());
            let level = draws.value();
            reg.set(id, level);
        }
        for i in 0..draws.below(4) {
            let name = format!("{}.h{i}", draws.pick(&names));
            let help = draws.help();
            match draws.below(4) {
                0 => {
                    reg.histogram(&name, &help);
                }
                1 => {
                    let id = reg.histogram(&name, &help);
                    for value in [0, 1, 2, 3] {
                        reg.observe(id, value);
                    }
                }
                2 => {
                    let id = reg.wall_histogram(&name, &help);
                    for _ in 0..draws.below(20) {
                        let (value, n) = (draws.next() >> draws.below(64), 1 + draws.below(5));
                        reg.observe_n(id, value, n);
                    }
                }
                _ => {
                    let id = reg.span(&name, &help);
                    for _ in 0..draws.below(6) {
                        let nanos = Duration::from_nanos(draws.next() >> 20);
                        let work = draws.below(1_000);
                        reg.record_span(id, nanos, work);
                    }
                }
            }
        }
        reg
    }

    #[test]
    fn random_registries_render_as_the_string_renderer_did() {
        let mut draws = Draws(29);
        for _ in 0..300 {
            let registry = random_registry(&mut draws);
            assert_eq!(render(&registry), oracle_render(&registry));
        }
        assert_eq!(
            render(&sample_registry()),
            oracle_render(&sample_registry())
        );
    }

    #[test]
    fn finite_samples_print_as_display_does() {
        let text = |x: f64| {
            let mut out = Vec::new();
            write_value(&mut out, x);
            String::from_utf8(out).expect("ASCII")
        };
        for x in [
            0.5,
            1234.5678,
            -2.75,
            -0.0,
            0.0,
            42.0,
            1e21,
            f64::MAX,
            1e-7,
            5e-324,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(text(x), format!("{x}\n"), "{x:e}");
        }
        assert_eq!(text(f64::NAN), "NaN\n");
        assert_eq!(text(f64::INFINITY), "+Inf\n");
        assert_eq!(text(f64::NEG_INFINITY), "-Inf\n");
    }

    fn sample_registry() -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("quotes_served_total", "Quotes served");
        reg.inc(c, 42.0);
        let g = reg.gauge("queue.depth", "Queued requests across shards");
        reg.set(g, 3.0);
        let span = reg.span("shard.quote", "Posted-price serve segments");
        reg.record_span(span, Duration::from_micros(7), 16);
        reg.record_span(span, Duration::from_micros(3), 4);
        reg
    }

    #[test]
    fn rendered_exposition_passes_its_own_lint() {
        let text = render(&sample_registry());
        let report = parse(&text).expect("rendered exposition must lint clean");
        // counter + gauge + two span halves.
        assert_eq!(report.families, 4);
        assert!(report.samples >= 8);
        assert!(text.contains("# TYPE pdm_quotes_served_total counter"));
        assert!(text.contains("pdm_quotes_served_total 42"));
        assert!(text.contains("# TYPE pdm_shard_quote_wall_nanos histogram"));
        assert!(text.contains("pdm_shard_quote_work_items_count 2"));
        assert!(text.contains("pdm_shard_quote_work_items_sum 20"));
        assert!(text.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn empty_registry_renders_an_empty_but_valid_exposition() {
        let text = render(&MetricRegistry::new());
        assert_eq!(text, "");
        let report = parse(&text).expect("empty exposition is valid");
        assert_eq!(report.families, 0);
        assert_eq!(report.samples, 0);
    }

    #[test]
    fn empty_histogram_still_carries_the_inf_bucket() {
        let mut reg = MetricRegistry::new();
        reg.histogram("never.work_items", "never recorded");
        let text = render(&reg);
        assert!(text.contains("pdm_never_work_items_bucket{le=\"+Inf\"} 0"));
        parse(&text).expect("empty histogram lints clean");
    }

    #[test]
    fn duplicate_low_grid_edges_are_collapsed() {
        let mut reg = MetricRegistry::new();
        let h = reg.histogram("tiny", "sub-unity grid values");
        reg.observe(h, 0);
        reg.observe(h, 1);
        reg.observe(h, 2);
        let text = render(&reg);
        assert_eq!(
            text.matches("le=\"1\"").count(),
            1,
            "edge 1 must render once: {text}"
        );
        parse(&text).expect("collapsed edges lint clean");
    }

    #[test]
    fn lint_rejects_structural_violations() {
        assert!(parse("pdm_orphan 1\n").is_err(), "sample without TYPE");
        assert!(
            parse("# TYPE pdm_x histogram\npdm_x_sum 1\npdm_x_count 1\n").is_err(),
            "histogram without buckets"
        );
        let bad_cumulative = "# TYPE pdm_x histogram\n\
             pdm_x_bucket{le=\"1\"} 5\n\
             pdm_x_bucket{le=\"+Inf\"} 3\n\
             pdm_x_sum 1\npdm_x_count 3\n";
        assert!(parse(bad_cumulative).is_err(), "non-cumulative buckets");
        let bad_count = "# TYPE pdm_x histogram\n\
             pdm_x_bucket{le=\"+Inf\"} 3\n\
             pdm_x_sum 1\npdm_x_count 4\n";
        assert!(parse(bad_count).is_err(), "+Inf disagreeing with _count");
        assert!(parse("# TYPE bad-name counter\n").is_err(), "invalid name");
        assert!(parse("# TYPE pdm_x rainbow\n").is_err(), "unknown kind");
    }

    #[test]
    fn exposition_names_stay_in_charset() {
        assert_eq!(
            exposition_name("shard.quote.wall_nanos"),
            "pdm_shard_quote_wall_nanos"
        );
        assert_eq!(exposition_name("queue.depth"), "pdm_queue_depth");
        assert!(is_valid_name(&exposition_name("weird-name.π")));
    }
}
