//! Workspace walking: find the `.rs` sources, classify each file into a
//! crate and a target kind, and run the analyzer over all of them in a
//! deterministic (path-sorted) order.

use crate::config::Config;
use crate::rules::{analyze, Diagnostic, FileContext, FileKind};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of a full workspace scan.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workspace root the paths are relative to.
    pub root: String,
    pub files_scanned: usize,
    /// All violations, sorted by (file, line, col, rule).
    pub violations: Vec<Diagnostic>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Scans every `.rs` file under the configured roots.
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in &config.roots {
        let base = root.join(dir);
        if base.is_dir() {
            collect_rs_files(&base, &mut files)?;
        } else if base.extension().is_some_and(|e| e == "rs") && base.is_file() {
            files.push(base);
        }
    }
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        let rel = relative_path(root, file);
        if config.exclude.iter().any(|p| rel.starts_with(p.as_str())) {
            continue;
        }
        let Some(ctx) = classify(&rel) else {
            continue;
        };
        let source = fs::read_to_string(file)?;
        scanned += 1;
        violations.extend(analyze(&source, &ctx, config));
    }
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    Ok(Report {
        root: root.display().to_string(),
        files_scanned: scanned,
        violations,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            // `target/` never sits under the scanned roots, but guard
            // anyway so a misconfigured root cannot scan build output.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    // Normalise to `/` so configs and reports are platform-stable.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps a workspace-relative path to its crate and target kind.
///
/// `crates/<name>/src/**` is library code (`src/main.rs` and `src/bin/**`
/// are binaries); `tests/**`, `benches/**`, and `examples/**` are their own
/// kinds.  Top-level `src`/`tests`/`examples` belong to the umbrella crate
/// `personal-data-pricing`.  `vendor/**` is never classified — the offline
/// stand-ins are swap-out code, not part of the determinism contract.
pub fn classify(rel_path: &str) -> Option<FileContext> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, within): (&str, &[&str]) = match parts.first().copied() {
        Some("crates") if parts.len() > 2 => (parts[1], &parts[2..]),
        Some("src" | "tests" | "examples" | "benches") => ("personal-data-pricing", &parts[..]),
        _ => return None,
    };
    let kind = match within.first().copied() {
        Some("tests") => FileKind::Test,
        Some("benches") => FileKind::Bench,
        Some("examples") => FileKind::Example,
        Some("src") => {
            if within.get(1).copied() == Some("bin") || within.last().copied() == Some("main.rs") {
                FileKind::Bin
            } else {
                FileKind::Lib
            }
        }
        _ => return None,
    };
    Some(FileContext {
        crate_name: crate_name.to_owned(),
        kind,
        rel_path: rel_path.to_owned(),
    })
}

/// Renders the report as deterministic JSON (the workspace's usual
/// hand-rolled writer lives in `pdm-linalg`, but the linter must not
/// depend on a crate it scans, so it carries its own ~40-line emitter).
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"pdm-lint\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    push_kv_str(&mut out, "  ", "root", &report.root);
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"violation_count\": {},\n",
        report.files_scanned,
        report.violations.len()
    ));
    out.push_str("  \"violations\": [");
    for (i, d) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}, \"snippet\": {}",
            json_string(&d.file),
            d.line,
            d.col,
            json_string(d.rule.name()),
            json_string(&d.message),
            json_string(&d.snippet)
        ));
        out.push('}');
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn push_kv_str(out: &mut String, indent: &str, key: &str, value: &str) {
    out.push_str(&format!("{indent}\"{key}\": {},\n", json_string(value)));
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_crate_layout() {
        let lib = classify("crates/pdm-linalg/src/matrix.rs").expect("lib");
        assert_eq!(lib.crate_name, "pdm-linalg");
        assert_eq!(lib.kind, FileKind::Lib);

        let bin = classify("crates/pdm-bench/src/bin/bench.rs").expect("bin");
        assert_eq!(bin.kind, FileKind::Bin);

        let test = classify("crates/pdm-service/tests/mixed_market.rs").expect("test");
        assert_eq!(test.kind, FileKind::Test);

        let bench = classify("crates/pdm-bench/benches/auction_clearing.rs").expect("bench");
        assert_eq!(bench.kind, FileKind::Bench);

        let umbrella = classify("src/lib.rs").expect("umbrella");
        assert_eq!(umbrella.crate_name, "personal-data-pricing");
        assert_eq!(umbrella.kind, FileKind::Lib);

        assert!(classify("vendor/rand/src/lib.rs").is_none());
    }

    #[test]
    fn json_escapes_and_shape() {
        let report = Report {
            root: "/tmp/x".to_owned(),
            files_scanned: 1,
            violations: vec![],
        };
        let json = render_json(&report);
        assert!(json.contains("\"violation_count\": 0"));
        assert!(json.contains("\"violations\": []"));
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
