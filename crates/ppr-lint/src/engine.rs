//! The lint driver: walk the workspace, run every lint (per file, plus
//! the cross-file `orphan-file` and `dead-pub` lints over the whole
//! walk), then filter findings through suppressions and the baseline.
//!
//! The walk covers `src/`, `crates/`, `tests/` and `examples/` under
//! the workspace root, skipping `vendor/` (third-party stand-ins we do
//! not hold to project invariants), `target/` and any `fixtures/`
//! directory (lint-test inputs contain violations by design).
//! `perfbench/src` is read but not linted: the benchmark harness is a
//! separate cargo project whose calls into the workspace count as uses
//! for `dead-pub`.
//!
//! A raw finding ends up in exactly one bucket:
//!
//! * **suppressed** — an `allow(<lint>)` directive covers its line
//!   (same line, or the directive is a comment-only line immediately
//!   governing it);
//! * **baselined** — listed in `ppr-lint.toml` as pinned debt;
//! * **failing** — everything else; any failing finding makes the run
//!   exit nonzero.
//!
//! `directive` findings (malformed `allow`/`region` comments) are never
//! suppressible — a typo in a suppression must not suppress itself.

use crate::config::{BaselineEntry, Config};
use crate::lints::{check_file_with_readme, dead_pub_lint, orphan_file_lint, Finding};
use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that fail the run.
    pub failing: Vec<Finding>,
    /// Findings silenced by an `allow(...)` directive.
    pub suppressed: Vec<Finding>,
    /// Findings pinned in the baseline.
    pub baselined: Vec<Finding>,
    /// Baseline entries that matched no finding (stale debt).
    pub stale_baseline: Vec<BaselineEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when nothing fails (suppressed/baselined findings are fine).
    pub fn is_clean(&self) -> bool {
        self.failing.is_empty()
    }

    /// All non-failing-relevant counts folded into one summary line.
    pub fn summary(&self) -> String {
        format!(
            "ppr-lint: {} failing, {} suppressed, {} baselined ({} stale baseline entries), {} files scanned",
            self.failing.len(),
            self.suppressed.len(),
            self.baselined.len(),
            self.stale_baseline.len(),
            self.files_scanned
        )
    }

    /// Renders the report; `verbose` also lists suppressed and
    /// baselined findings (they are always *counted* either way).
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in &self.failing {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                f.path, f.line, f.lint, f.message, f.context
            ));
        }
        if verbose {
            for f in &self.suppressed {
                out.push_str(&format!(
                    "{}:{}: [{}] suppressed by allow({})\n",
                    f.path, f.line, f.lint, f.lint
                ));
            }
            for f in &self.baselined {
                out.push_str(&format!(
                    "{}:{}: [{}] baselined (pinned debt)\n",
                    f.path, f.line, f.lint
                ));
            }
        }
        for e in &self.stale_baseline {
            out.push_str(&format!(
                "ppr-lint.toml: stale baseline entry {e} (violation no longer present; re-run --fix-baseline)\n"
            ));
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// The baseline that would pin every currently failing finding
    /// (plus what is already baselined and still real).
    pub fn as_baseline(&self) -> Config {
        let entries: BTreeSet<BaselineEntry> = self
            .failing
            .iter()
            .chain(&self.baselined)
            .map(|f| BaselineEntry {
                path: f.path.clone(),
                line: f.line,
                lint: f.lint.to_string(),
            })
            .collect();
        Config {
            baseline: entries.into_iter().collect(),
            // Policy, not debt: the caller decides whether to carry the
            // configured allowlist over (the CLI does).
            unsafe_allowlist: Vec::new(),
        }
    }
}

/// Runs every lint over the workspace at `root`.
pub fn run(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut baseline_hit: Vec<bool> = vec![false; cfg.baseline.len()];

    // The axis-doc lint compares the scenario table against the README;
    // a missing README reads as empty, which flags every axis (right:
    // the documentation the lint guards is gone).
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();

    let sources = parse_all(root, &files)?;
    let mut bench_files = Vec::new();
    collect_rs_files(&root.join("perfbench/src"), &mut bench_files);
    bench_files.sort();
    let bench_sources = parse_all(root, &bench_files)?;
    let mut cross_file = orphan_file_lint(&sources);
    cross_file.extend(dead_pub_lint(&sources, &bench_sources));

    for file in &sources {
        let own = cross_file
            .iter()
            .filter(|f| f.path == file.rel_path)
            .cloned();
        for finding in check_file_with_readme(file, cfg, Some(&readme))
            .into_iter()
            .chain(own)
        {
            if finding.lint != "directive" && is_suppressed(file, &finding) {
                report.suppressed.push(finding);
            } else if let Some(i) = cfg.baseline.iter().position(|e| {
                e.path == finding.path && e.line == finding.line && e.lint == finding.lint
            }) {
                baseline_hit[i] = true;
                report.baselined.push(finding);
            } else {
                report.failing.push(finding);
            }
        }
    }

    report.stale_baseline = cfg
        .baseline
        .iter()
        .zip(&baseline_hit)
        .filter(|(_, hit)| !**hit)
        .map(|(e, _)| e.clone())
        .collect();
    Ok(report)
}

fn parse_all(root: &Path, files: &[PathBuf]) -> Result<Vec<SourceFile>, String> {
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Ok(SourceFile::parse(&rel_path(root, path), &text))
        })
        .collect()
}

/// A finding is suppressed when an `allow` directive naming its lint
/// sits on the same line, or on a comment-only line whose next code
/// line is the finding's.
fn is_suppressed(file: &SourceFile, finding: &Finding) -> bool {
    file.allows.iter().any(|a| {
        a.lints.iter().any(|l| l == finding.lint)
            && (a.line == finding.line
                || (!file.lexed.line_has_code(a.line)
                    && file.next_code_line(a.line) == Some(finding.line)))
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // absent top-level dirs (e.g. no examples/) are fine
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative path with `/` separators (baseline entries and
/// report lines must not depend on the machine's absolute layout).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, rel: &str, text: &str) {
        let p = dir.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, text).unwrap();
    }

    fn temp_ws(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ppr-lint-engine-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn buckets_and_baseline() {
        let ws = temp_ws("buckets");
        write(
            &ws,
            "crates/ppr-sim/src/a.rs",
            "use std::collections::HashMap;\n\
             let m: HashMap<u8, u8>; // ppr-lint: allow(determinism) fixed-seed hasher planned\n",
        );
        write(&ws, "vendor/rand/src/lib.rs", "pub fn thread_rng() {}\n");
        write(
            &ws,
            "crates/ppr-sim/fixtures/bad.rs",
            "use std::collections::HashSet;\n",
        );

        // No baseline: line 1 fails, line 2 suppressed; vendor/ and
        // fixtures/ invisible.
        let report = run(&ws, &Config::default()).unwrap();
        assert_eq!(report.failing.len(), 1);
        assert_eq!(report.failing[0].line, 1);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.files_scanned, 1);

        // Pin the failing finding; the run goes clean.
        let cfg = report.as_baseline();
        assert_eq!(cfg.baseline.len(), 1);
        let report2 = run(&ws, &cfg).unwrap();
        assert!(report2.is_clean(), "{}", report2.render(true));
        assert_eq!(report2.baselined.len(), 1);
        assert!(report2.stale_baseline.is_empty());

        // Fix the debt: the baseline entry goes stale but nothing fails.
        write(
            &ws,
            "crates/ppr-sim/src/a.rs",
            "use std::collections::BTreeMap;\n",
        );
        let report3 = run(&ws, &cfg).unwrap();
        assert!(report3.is_clean());
        assert_eq!(report3.stale_baseline.len(), 1);
        let _ = std::fs::remove_dir_all(&ws);
    }

    #[test]
    fn config_unsafe_allowlist_applies_end_to_end() {
        let ws = temp_ws("unsafecfg");
        write(
            &ws,
            "crates/ppr-mac/src/clmul.rs",
            "// SAFETY: pclmulqdq checked by the dispatcher.\nunsafe fn fold() {}\n",
        );
        // Without the config entry the module fails containment…
        let report = run(&ws, &Config::default()).unwrap();
        assert_eq!(report.failing.len(), 1);
        assert_eq!(report.failing[0].lint, "unsafe-containment");
        // …and with it the run is clean (no baseline involved).
        let cfg = Config {
            unsafe_allowlist: vec!["crates/ppr-mac/src/clmul.rs".to_string()],
            ..Config::default()
        };
        let report = run(&ws, &cfg).unwrap();
        assert!(report.is_clean(), "{}", report.render(true));
        let _ = std::fs::remove_dir_all(&ws);
    }

    #[test]
    fn comment_line_suppression_covers_next_code_line() {
        let ws = temp_ws("nextline");
        write(
            &ws,
            "crates/ppr-core/src/a.rs",
            "// ppr-lint: allow(determinism) iteration order irrelevant here\n\
             use std::collections::HashSet;\n\
             use std::collections::HashSet;\n",
        );
        let report = run(&ws, &Config::default()).unwrap();
        // Only the line directly after the directive is covered.
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.failing.len(), 1);
        assert_eq!(report.failing[0].line, 3);
        let _ = std::fs::remove_dir_all(&ws);
    }

    #[test]
    fn directive_findings_are_not_suppressible() {
        let ws = temp_ws("meta");
        write(
            &ws,
            "src/a.rs",
            "// ppr-lint: allow(directive)\n// ppr-lint: allow(bogus-lint)\n",
        );
        let report = run(&ws, &Config::default()).unwrap();
        assert_eq!(report.failing.len(), 1);
        assert_eq!(report.failing[0].lint, "directive");
        let _ = std::fs::remove_dir_all(&ws);
    }
}
