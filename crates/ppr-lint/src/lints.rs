//! The workspace invariants, as named lints.
//!
//! Each lint is a lexical pass over one [`SourceFile`]'s code tokens —
//! comments, strings and doc text never fire. The lints encode the
//! conventions the compiler cannot check (see `docs/ARCHITECTURE.md`,
//! "Invariants & lints"):
//!
//! | Lint | Invariant |
//! |---|---|
//! | `determinism` | no `HashMap`/`HashSet` (default `RandomState` iteration order) in the deterministic crates; no `Instant::now`/`SystemTime::now`/`thread_rng` outside `ppr-bench`/`ppr-cli` |
//! | `unsafe-containment` | `unsafe` only in the allowlisted modules, and every `unsafe` site carries a `// SAFETY:` justification |
//! | `no-float` | no float literals or `f32`/`f64` tokens inside declared `region(no-float)` spans (the Q23.40 planner scoring and CRC paths) |
//! | `env-hygiene` | `std::env::var`/`var_os` only in `ppr_sim::env`, `ppr-cli` and `ppr-bench` |
//! | `event-key-doc` | `ppr_sim::event` documents the heap ordering key verbatim — the literal `(time, priority, seq)` must appear in the module, so the total-order contract every driver leans on cannot silently rot out of the docs |
//! | `snapshot-field-doc` | every field inside a declared `region(snapshot-state)` span carries a `snapshot:` comment stating whether it is serialized or rebuilt on restore, and the checkpointed drivers (`ppr_sim::network`, the mesh experiment, the adversary actor) each declare at least one such region — so the snapshot format's field inventory cannot drift from the structs it serializes |
//! | `axis-doc` | every axis key in `ppr_sim::scenario`'s `SCENARIO_KEYS` table has a `` | `key` `` row in the README's scenario-axis table — so `--set` surface and documentation cannot drift apart |
//! | `orphan-file` | every `.rs` file under a crate's `src/` is reachable through `mod` declarations from `lib.rs`, `main.rs` or a `src/bin/` target — a file nothing declares is never compiled, yet reads like live code |
//! | `dead-pub` | every `pub` item (`fn`, method, `struct`, `enum`, `trait`, `type`, `const`, `static`) of a library crate's `src/` is named as a code token somewhere other than its own declaration, a `pub use` in a `lib.rs` and its own file's `#[cfg(test)]` items — uses count in `src/`, `crates/`, `tests/`, `examples/` and the read-only `perfbench/src` |
//! | `directive` | `ppr-lint:` comments themselves parse and regions match (not suppressible) |
//!
//! Being lexical is a feature (no `syn`, no build, runs in
//! milliseconds) and a limit: a call like `FxCost::to_bits(x)` returns
//! `f64` without any float *token* on the line, and a `HashMap` behind
//! a type alias would hide. `dead-pub` matches names, not paths, so a
//! dead item that shares its name with anything used (a `new` among
//! many, a local variable) hides; it can never flag a live one. The
//! lints guard the conventions as written in this codebase — idiomatic
//! std names, spelled out — which review keeps true.

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One lint violation (before suppression/baseline filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name.
    pub lint: &'static str,
    /// Human explanation of the violation.
    pub message: String,
    /// Trimmed source line for context.
    pub context: String,
}

/// Names of every lint, for `--list` and allow(...) validation.
pub const LINT_NAMES: [&str; 10] = [
    "determinism",
    "unsafe-containment",
    "no-float",
    "env-hygiene",
    "event-key-doc",
    "snapshot-field-doc",
    "axis-doc",
    "orphan-file",
    "dead-pub",
    "directive",
];

/// Crates whose iteration order and RNG usage feed `Reception` streams
/// and experiment output: the `determinism` collection scope.
const DETERMINISTIC_SCOPES: [&str; 6] = [
    "crates/ppr-core/",
    "crates/ppr-phy/",
    "crates/ppr-mac/",
    "crates/ppr-channel/",
    "crates/ppr-sim/",
    "src/", // the facade crate re-exports the deterministic surface
];

/// Crates allowed to read wall-clock time and OS randomness (drivers
/// and benchmarks — never simulation or protocol code).
const TIMING_EXEMPT_SCOPES: [&str; 2] = ["crates/ppr-bench/", "crates/ppr-cli/"];

/// The built-in modules allowed to contain `unsafe` (each must justify
/// every site with a `// SAFETY:` comment). Further modules are added
/// through the `unsafe-allowlist` array in `ppr-lint.toml` — a config
/// edit is reviewable debt, a lint-tool edit is not.
const UNSAFE_ALLOWLIST: [&str; 1] = ["crates/ppr-phy/src/simd.rs"];

/// Files/crates allowed to read environment variables. Everything else
/// must take configuration through `Scenario`/arguments so runs are
/// reproducible from their inputs alone.
const ENV_ALLOWLIST: [&str; 3] = [
    "crates/ppr-sim/src/env.rs",
    "crates/ppr-cli/",
    "crates/ppr-bench/",
];

fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.starts_with(s))
}

/// Runs every per-file lint over one file. `cfg` supplies the
/// configured extension of the `unsafe` allowlist; the baseline is
/// applied later by the engine, not here. `axis-doc` compares the
/// scenario-axis table against `readme` (the workspace README's text;
/// the engine passes the file's content, or `""` when the README itself
/// is missing — which correctly flags every axis as undocumented) and
/// is off without it.
pub fn check_file_with_readme(
    file: &SourceFile,
    cfg: &Config,
    readme: Option<&str>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    directive_lint(file, &mut findings);
    determinism_lint(file, &mut findings);
    unsafe_containment_lint(file, cfg, &mut findings);
    no_float_lint(file, &mut findings);
    env_hygiene_lint(file, &mut findings);
    event_key_doc_lint(file, &mut findings);
    snapshot_field_doc_lint(file, &mut findings);
    if let Some(readme) = readme {
        axis_doc_lint(file, readme, &mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings
}

fn finding(file: &SourceFile, line: u32, lint: &'static str, message: String) -> Finding {
    Finding {
        path: file.rel_path.clone(),
        line,
        lint,
        message,
        context: file.context(line),
    }
}

/// Malformed `ppr-lint:` comments are violations themselves, so a typo
/// in a suppression cannot silently disable it.
fn directive_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    for err in &file.directive_errors {
        out.push(finding(file, err.line, "directive", err.message.clone()));
    }
    for allow in &file.allows {
        for lint in &allow.lints {
            if !LINT_NAMES.contains(&lint.as_str()) {
                out.push(finding(
                    file,
                    allow.line,
                    "directive",
                    format!("allow({lint}) names an unknown lint"),
                ));
            }
        }
    }
}

/// `determinism`: hashed collections in the deterministic crates, and
/// wall-clock/OS-randomness outside the driver/bench crates.
fn determinism_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    let collection_scope = in_scope(&file.rel_path, &DETERMINISTIC_SCOPES);
    let timing_scope = !in_scope(&file.rel_path, &TIMING_EXEMPT_SCOPES);
    if !collection_scope && !timing_scope {
        return;
    }
    let tokens = &file.lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if collection_scope {
            match name.as_str() {
                "HashMap" | "HashSet" => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    format!(
                        "`{name}` iterates in `RandomState` hash order, which can leak into \
                         Reception streams and experiment output; use `BTreeMap`/`BTreeSet` \
                         or a fixed-seed hasher"
                    ),
                )),
                "RandomState" => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    "`RandomState` is seeded from OS entropy per process".to_string(),
                )),
                _ => {}
            }
        }
        if timing_scope {
            match name.as_str() {
                "Instant" | "SystemTime" if followed_by_now(tokens, i) => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    format!(
                        "`{name}::now` reads the wall clock; simulation and protocol code \
                         must be a function of its inputs (only ppr-bench/ppr-cli may time)"
                    ),
                )),
                "thread_rng" => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    "`thread_rng` draws OS-seeded randomness; use the seeded per-reception \
                     RNG streams"
                        .to_string(),
                )),
                _ => {}
            }
        }
    }
}

/// `event-key-doc`: the event-core module must spell out its heap
/// ordering key, `(time, priority, seq)`, verbatim. Every simulation
/// driver's determinism argument reduces to that total order; the lint
/// keeps the contract written down next to the queue it governs.
fn event_key_doc_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.rel_path != "crates/ppr-sim/src/event.rs" {
        return;
    }
    if !file
        .lines
        .iter()
        .any(|l| l.contains("(time, priority, seq)"))
    {
        out.push(finding(
            file,
            1,
            "event-key-doc",
            "the event module must document its total ordering key with the literal \
             `(time, priority, seq)` — drivers rely on that contract for bit-identical replay"
                .to_string(),
        ));
    }
}

/// Files that hold checkpointed driver state and therefore must declare
/// at least one `region(snapshot-state)` span. The snapshot format's
/// field inventory is only as trustworthy as the regions that opt the
/// state in — a driver refactor that silently dropped its region would
/// also drop the field-doc requirement below.
const SNAPSHOT_STATE_FILES: [&str; 3] = [
    "crates/ppr-sim/src/network.rs",
    "crates/ppr-sim/src/experiments/mesh.rs",
    "crates/ppr-sim/src/adversary.rs",
];

/// `snapshot-field-doc`: inside a declared `region(snapshot-state)`
/// span, every field declaration must carry a `snapshot:` comment (same
/// line, or immediately above) stating whether the field is serialized
/// into the checkpoint or rebuilt on restore. The checkpointed drivers
/// themselves must declare such regions; anything else that opts in
/// (snapshot structs, the event queue) gets the same field discipline.
fn snapshot_field_doc_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    let has_region = file.regions.iter().any(|r| r.name == "snapshot-state");
    if SNAPSHOT_STATE_FILES.contains(&file.rel_path.as_str()) && !has_region {
        out.push(finding(
            file,
            1,
            "snapshot-field-doc",
            "this file holds checkpointed driver state and must declare at least one \
             `region(snapshot-state)` span so every state field documents its snapshot fate"
                .to_string(),
        ));
    }
    if !has_region {
        return;
    }
    // Declaration keywords that start non-field lines a region might
    // still cover (struct headers, impl blocks, helper code).
    const NON_FIELD_STARTERS: [&str; 16] = [
        "struct",
        "enum",
        "union",
        "impl",
        "fn",
        "let",
        "use",
        "mod",
        "const",
        "static",
        "type",
        "trait",
        "where",
        "match",
        "macro_rules",
        "return",
    ];
    let tokens = &file.lexed.tokens;
    let mut i = 0;
    while i < tokens.len() {
        let line = tokens[i].line;
        let mut j = i;
        while j < tokens.len() && tokens[j].line == line {
            j += 1;
        }
        let line_toks = &tokens[i..j];
        i = j;
        if !file.in_region("snapshot-state", line) {
            continue;
        }
        let TokenKind::Ident(first) = &line_toks[0].kind else {
            continue; // closing braces, attributes, …
        };
        if NON_FIELD_STARTERS.contains(&first.as_str()) {
            continue;
        }
        // A field declaration carries a single `name: Type` colon
        // (`::` path separators are two adjacent colon tokens).
        let single_colon = |k: usize| {
            line_toks[k].kind == TokenKind::Punct(':')
                && (k == 0 || line_toks[k - 1].kind != TokenKind::Punct(':'))
                && line_toks
                    .get(k + 1)
                    .is_none_or(|t| t.kind != TokenKind::Punct(':'))
        };
        if !(0..line_toks.len()).any(single_colon) {
            continue;
        }
        if !comment_covers(file, line, &|text: &str| text.contains("snapshot:")) {
            out.push(finding(
                file,
                line,
                "snapshot-field-doc",
                "field inside a region(snapshot-state) span without a `snapshot:` comment \
                 saying whether it is serialized into the checkpoint or rebuilt on restore"
                    .to_string(),
            ));
        }
    }
}

/// The one file that owns the scenario-axis surface: every `--set` key
/// the CLI accepts is declared in this file's `SCENARIO_KEYS` table.
const SCENARIO_FILE: &str = "crates/ppr-sim/src/scenario.rs";

/// `axis-doc`: every axis key in the `SCENARIO_KEYS` table must have a
/// `` | `key` `` row in the README's scenario-axis table. The lexer
/// drops string contents, so this lint re-scans the raw lines with a
/// tiny literal-aware reader — the table is the one place where string
/// *contents* are the invariant.
fn axis_doc_lint(file: &SourceFile, readme: &str, out: &mut Vec<Finding>) {
    if file.rel_path != SCENARIO_FILE {
        return;
    }
    let src = file.lines.join("\n");
    let keys = scenario_axis_keys(&src);
    if keys.is_empty() {
        out.push(finding(
            file,
            1,
            "axis-doc",
            "no `SCENARIO_KEYS` table found in the scenario module; the axis-doc lint \
             needs it to hold every `--set` key"
                .to_string(),
        ));
        return;
    }
    for (line, key) in keys {
        let row = format!("| `{key}`");
        if !readme.contains(&row) {
            out.push(finding(
                file,
                line,
                "axis-doc",
                format!(
                    "scenario axis `{key}` has no `| `{key}`` row in the README's \
                     scenario-axis table; document every `--set` key where users look first"
                ),
            ));
        }
    }
}

/// Extracts `(line, key)` for each tuple in the `SCENARIO_KEYS` array:
/// the first string literal inside each top-level parenthesis group.
/// Understands string literals (so `(` inside a description does not
/// open a tuple) and `\`-escapes (so multi-line literals survive).
fn scenario_axis_keys(src: &str) -> Vec<(u32, String)> {
    let Some(decl) = src.find("SCENARIO_KEYS") else {
        return Vec::new();
    };
    // Skip the type annotation (`&[(&str, &str)]` has brackets of its
    // own): the array literal is the first `[` after the `=`.
    let Some(eq) = src[decl..].find('=').map(|i| decl + i) else {
        return Vec::new();
    };
    let Some(open) = src[eq..].find('[').map(|i| i + eq - decl) else {
        return Vec::new();
    };
    let mut line = 1 + src[..decl + open].matches('\n').count() as u32;
    let mut keys = Vec::new();
    let mut chars = src[decl + open + 1..].chars().peekable();
    let mut paren_depth = 0usize; // tuple nesting inside the array
    let mut bracket_depth = 0usize;
    let mut key_taken = false; // first literal of the current tuple seen
    while let Some(c) = chars.next() {
        match c {
            '\n' => line += 1,
            '(' => {
                paren_depth += 1;
                if paren_depth == 1 {
                    key_taken = false;
                }
            }
            ')' => paren_depth = paren_depth.saturating_sub(1),
            '[' => bracket_depth += 1,
            ']' => {
                if bracket_depth == 0 {
                    break; // the array's own closing bracket
                }
                bracket_depth -= 1;
            }
            '"' => {
                let start_line = line;
                let mut text = String::new();
                while let Some(sc) = chars.next() {
                    match sc {
                        '"' => break,
                        '\\' => {
                            // Skip the escaped char; `\` + newline is the
                            // multi-line continuation, keep counting lines.
                            if let Some(&esc) = chars.peek() {
                                if esc == '\n' {
                                    line += 1;
                                }
                                chars.next();
                            }
                        }
                        '\n' => line += 1,
                        _ => text.push(sc),
                    }
                }
                if paren_depth == 1 && !key_taken {
                    key_taken = true;
                    keys.push((start_line, text));
                }
            }
            _ => {}
        }
    }
    keys
}

/// Is token `i` followed by `:: now`?
fn followed_by_now(tokens: &[crate::lexer::Token], i: usize) -> bool {
    matches!(
        tokens.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(
        tokens.get(i + 2).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(tokens.get(i + 3).map(|t| &t.kind), Some(TokenKind::Ident(n)) if n == "now")
}

/// `unsafe-containment`: `unsafe` only in the allowlist (the built-in
/// set unioned with the config's `unsafe-allowlist`), and every site
/// justified by a `// SAFETY:` comment (same line, or immediately above
/// across attribute/comment/blank lines).
fn unsafe_containment_lint(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    let allowlisted = UNSAFE_ALLOWLIST
        .iter()
        .any(|m| file.rel_path.starts_with(m))
        || cfg
            .unsafe_allowlist
            .iter()
            .any(|m| file.rel_path.starts_with(m.as_str()));
    for tok in &file.lexed.tokens {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if name != "unsafe" {
            continue;
        }
        if !allowlisted {
            out.push(finding(
                file,
                tok.line,
                "unsafe-containment",
                "`unsafe` outside the allowlisted module set (built in: ppr_phy::simd; \
                 configured: the `unsafe-allowlist` array in ppr-lint.toml); extend the \
                 allowlist deliberately or keep the code safe"
                    .to_string(),
            ));
        } else if !has_safety_comment(file, tok.line) {
            out.push(finding(
                file,
                tok.line,
                "unsafe-containment",
                "`unsafe` site without a `// SAFETY:` comment justifying it".to_string(),
            ));
        }
    }
}

/// Looks for a SAFETY comment covering `line`: on the line itself, or
/// scanning upward while lines are blank, comment-only, or attributes.
fn has_safety_comment(file: &SourceFile, line: u32) -> bool {
    comment_covers(file, line, &comment_is_safety)
}

/// Does a comment matching `pred` cover `line` — on the line itself, or
/// scanning upward while lines are blank, comment-only, or attributes?
fn comment_covers(file: &SourceFile, line: u32, pred: &dyn Fn(&str) -> bool) -> bool {
    let hit = |l: u32| {
        file.lexed
            .comments
            .iter()
            .any(|c| c.line <= l && l <= c.end_line && pred(&c.text))
    };
    if hit(line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if hit(l) {
            return true;
        }
        match file.lexed.first_token_on_line(l) {
            // Attributes (e.g. #[target_feature]) may sit between the
            // comment and the item it covers.
            Some(tok) if tok.kind == TokenKind::Punct('#') => continue,
            Some(_) => return false,
            None => continue, // blank or comment-only line
        }
    }
    false
}

fn comment_is_safety(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety")
}

/// `no-float`: float literals and `f32`/`f64` tokens inside declared
/// `region(no-float)` spans. The regions cover the fixed-point planner
/// scoring and the CRC kernels, where one stray float re-introduces
/// the exact-tie nondeterminism PR 5 removed.
fn no_float_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.regions.iter().any(|r| r.name == "no-float") {
        return;
    }
    for tok in &file.lexed.tokens {
        if !file.in_region("no-float", tok.line) {
            continue;
        }
        match &tok.kind {
            TokenKind::Number { float: true } => out.push(finding(
                file,
                tok.line,
                "no-float",
                "float literal inside a region(no-float) span".to_string(),
            )),
            TokenKind::Ident(name) if name == "f64" || name == "f32" => out.push(finding(
                file,
                tok.line,
                "no-float",
                format!("`{name}` inside a region(no-float) span"),
            )),
            _ => {}
        }
    }
}

/// `env-hygiene`: `env::var`/`env::var_os` only in the allowlisted
/// configuration seams.
fn env_hygiene_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    if in_scope(&file.rel_path, &ENV_ALLOWLIST) {
        return;
    }
    let tokens = &file.lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if name != "env" || !followed_by_var(tokens, i) {
            continue;
        }
        out.push(finding(
            file,
            tok.line,
            "env-hygiene",
            "`std::env::var` outside ppr_sim::env / ppr-cli / ppr-bench; route \
             configuration through Scenario so runs are reproducible"
                .to_string(),
        ));
    }
}

/// Is token `i` followed by `:: var` or `:: var_os`?
fn followed_by_var(tokens: &[crate::lexer::Token], i: usize) -> bool {
    matches!(
        tokens.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(
        tokens.get(i + 2).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(tokens.get(i + 3).map(|t| &t.kind),
            Some(TokenKind::Ident(n)) if n == "var" || n == "var_os")
}

/// `orphan-file`: every `.rs` file under a crate's `src/` must be
/// reachable through `mod` declarations from a crate root — `lib.rs`,
/// `main.rs` or a `src/bin/` target. Nothing compiles a file no `mod`
/// names, so it rots unchecked while it reads like live code. This lint
/// is cross-file: the engine hands it every scanned file at once. A
/// `src/` that holds no crate root is not a cargo target and is
/// skipped.
pub fn orphan_file_lint(files: &[SourceFile]) -> Vec<Finding> {
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let mut stack: Vec<&str> = by_path
        .keys()
        .copied()
        .filter(|p| is_crate_root(p))
        .collect();
    let rooted: BTreeSet<&str> = stack.iter().filter_map(|p| src_dir(p)).collect();
    let mut reached = BTreeSet::new();
    while let Some(path) = stack.pop() {
        if !reached.insert(path) {
            continue;
        }
        let dir = module_dir(path);
        for name in declared_mods(by_path[path]) {
            for child in [format!("{dir}{name}.rs"), format!("{dir}{name}/mod.rs")] {
                if let Some((&child, _)) = by_path.get_key_value(child.as_str()) {
                    stack.push(child);
                }
            }
        }
    }
    files
        .iter()
        .filter(|f| {
            src_dir(&f.rel_path).is_some_and(|d| rooted.contains(d))
                && !reached.contains(f.rel_path.as_str())
        })
        .map(|f| {
            finding(
                f,
                1,
                "orphan-file",
                "no `mod` declaration reaches this file from its crate's lib.rs, main.rs or \
                 src/bin/ targets, so it is never compiled; declare it or delete it"
                    .to_string(),
            )
        })
        .collect()
}

/// The crate source directory holding `path` — `src/` for the facade
/// crate, `crates/<name>/src/` for the others — if there is one.
fn src_dir(path: &str) -> Option<&str> {
    if path.starts_with("src/") {
        return Some("src/");
    }
    let name_end = "crates/".len() + path.strip_prefix("crates/")?.find('/')?;
    let dir_end = name_end + "/src/".len();
    (path.get(name_end..dir_end) == Some("/src/")).then(|| &path[..dir_end])
}

/// Is `path` a crate root: `lib.rs`, `main.rs`, `bin/<name>.rs` or
/// `bin/<name>/main.rs` directly under a crate's `src/`?
fn is_crate_root(path: &str) -> bool {
    let Some(dir) = src_dir(path) else {
        return false;
    };
    let rel = &path[dir.len()..];
    match rel.strip_prefix("bin/") {
        Some(bin) => bin
            .split_once('/')
            .is_none_or(|(_, rest)| rest == "main.rs"),
        None => rel == "lib.rs" || rel == "main.rs",
    }
}

/// The directory a file's `mod name;` declarations resolve in: its own
/// directory for crate roots and `mod.rs`, else `<stem>/` beside it.
fn module_dir(path: &str) -> String {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    if is_crate_root(path) || file == "mod.rs" {
        format!("{dir}/")
    } else {
        format!("{}/", path.trim_end_matches(".rs"))
    }
}

/// The names of a file's out-of-line module declarations (`mod name;`).
fn declared_mods(file: &SourceFile) -> Vec<&str> {
    file.lexed
        .tokens
        .windows(3)
        .filter_map(|w| match (&w[0].kind, &w[1].kind, &w[2].kind) {
            (TokenKind::Ident(m), TokenKind::Ident(name), TokenKind::Punct(';')) if m == "mod" => {
                Some(name.as_str())
            }
            _ => None,
        })
        .collect()
}

/// `dead-pub`: every `pub` item declared in a library crate's `src/`
/// must be named somewhere that is not its own declaration, a `pub use`
/// re-export in a `lib.rs`, or its own file's `#[cfg(test)]` items. An
/// item only its own tests call belongs in that test module; an item
/// nothing calls belongs nowhere. `files` are the linted workspace
/// files; `read_only` (the benchmark harness's sources) only contribute
/// uses. Cross-file, like `orphan-file`.
pub fn dead_pub_lint(files: &[SourceFile], read_only: &[SourceFile]) -> Vec<Finding> {
    let lib_dirs: BTreeSet<&str> = files
        .iter()
        .filter_map(|f| {
            let dir = src_dir(&f.rel_path)?;
            (&f.rel_path[dir.len()..] == "lib.rs").then_some(dir)
        })
        .collect();
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    let mut per_file = Vec::with_capacity(files.len());
    for file in files.iter().chain(read_only) {
        let scan = UseScan::of(file);
        for (tok, &excluded) in file.lexed.tokens.iter().zip(&scan.excluded) {
            if let (TokenKind::Ident(name), false) = (&tok.kind, excluded) {
                *uses.entry(name.as_str()).or_default() += 1;
            }
        }
        per_file.push(scan);
    }
    let mut out = Vec::new();
    for (file, scan) in files.iter().zip(&per_file) {
        let in_lib_crate = src_dir(&file.rel_path).is_some_and(|d| {
            let rel = &file.rel_path[d.len()..];
            lib_dirs.contains(d) && rel != "main.rs" && !rel.starts_with("bin/")
        });
        if !in_lib_crate {
            continue;
        }
        let tokens = &file.lexed.tokens;
        // Uses in this file's own tests do not keep an item alive.
        let mut own_test_uses: BTreeMap<&str, usize> = BTreeMap::new();
        for &(a, b) in &scan.tests {
            for (tok, &excluded) in tokens[a..=b].iter().zip(&scan.excluded[a..=b]) {
                if let (TokenKind::Ident(name), false) = (&tok.kind, excluded) {
                    *own_test_uses.entry(name.as_str()).or_default() += 1;
                }
            }
        }
        for &(pub_at, name_at) in &scan.decls {
            if scan.in_tests(pub_at) {
                continue;
            }
            let TokenKind::Ident(name) = &tokens[name_at].kind else {
                continue;
            };
            let count = |m: &BTreeMap<&str, usize>| m.get(name.as_str()).copied().unwrap_or(0);
            if count(&uses) > count(&own_test_uses) {
                continue;
            }
            out.push(finding(
                file,
                tokens[pub_at].line,
                "dead-pub",
                format!(
                    "`pub` item `{name}` is named nowhere but its declaration, lib.rs \
                     re-exports and its own file's tests; delete it, or move it into the \
                     test module that uses it"
                ),
            ));
        }
    }
    out
}

/// What the `dead-pub` lint reads out of one file: its `pub` item
/// declarations, the token ranges of its `#[cfg(test)]` items, and the
/// tokens that never count as a use (declared names and the names in a
/// `lib.rs`'s `pub use` re-exports).
struct UseScan {
    /// `(index of the pub token, index of the declared name)`.
    decls: Vec<(usize, usize)>,
    /// Inclusive token ranges of `#[cfg(test)]` items.
    tests: Vec<(usize, usize)>,
    /// Per token: true if it never counts as a use.
    excluded: Vec<bool>,
}

impl UseScan {
    fn of(file: &SourceFile) -> UseScan {
        let tokens = &file.lexed.tokens;
        let is_lib = file.rel_path.ends_with("/lib.rs");
        let mut scan = UseScan {
            decls: Vec::new(),
            tests: Vec::new(),
            excluded: vec![false; tokens.len()],
        };
        let mut i = 0;
        while i < tokens.len() {
            if is_punct(tokens, i, '#') && cfg_test_attr(tokens, i + 1) {
                // `#` `[` `cfg` `(` `test` `)` `]`, then the item.
                let end = item_end(tokens, i + 7);
                scan.tests.push((i, end));
            }
            if !is_ident(tokens, i, "pub") || is_punct(tokens, i + 1, '(') {
                i += 1;
                continue;
            }
            if is_lib && is_ident(tokens, i + 1, "use") {
                let end = (i..tokens.len())
                    .find(|&k| is_punct(tokens, k, ';'))
                    .unwrap_or(tokens.len() - 1);
                scan.excluded[i..=end].fill(true);
                i = end + 1;
                continue;
            }
            if let Some(name_at) = declared_name(tokens, i + 1) {
                scan.decls.push((i, name_at));
                scan.excluded[name_at] = true;
            }
            i += 1;
        }
        scan
    }

    fn in_tests(&self, i: usize) -> bool {
        self.tests.iter().any(|&(a, b)| a <= i && i <= b)
    }
}

fn is_ident(tokens: &[crate::lexer::Token], i: usize, want: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Ident(n)) if n == want)
}

fn is_punct(tokens: &[crate::lexer::Token], i: usize, want: char) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct(want))
}

/// Do the tokens at `i` read `[cfg(test)]`?
fn cfg_test_attr(tokens: &[crate::lexer::Token], i: usize) -> bool {
    is_punct(tokens, i, '[')
        && is_ident(tokens, i + 1, "cfg")
        && is_punct(tokens, i + 2, '(')
        && is_ident(tokens, i + 3, "test")
        && is_punct(tokens, i + 4, ')')
        && is_punct(tokens, i + 5, ']')
}

/// The index of the last token of the item starting at `from`: its
/// first `;` outside brackets, or the `}` closing its first top-level
/// brace block (attributes in front of the item are skipped over).
fn item_end(tokens: &[crate::lexer::Token], from: usize) -> usize {
    let mut depth = 0usize;
    let mut k = from;
    while k < tokens.len() {
        match tokens[k].kind {
            TokenKind::Punct('#') if depth == 0 && is_punct(tokens, k + 1, '[') => {
                // An attribute: skip to its closing bracket.
                let mut d = 0usize;
                k += 1;
                while k < tokens.len() {
                    match tokens[k].kind {
                        TokenKind::Punct('[') => d += 1,
                        TokenKind::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k;
                }
            }
            TokenKind::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

/// After a bare `pub`, the index of the declared item's name, if the
/// tokens at `i` declare one of the items `dead-pub` checks (`fn`,
/// `struct`, `enum`, `union`, `trait`, `type`, `const`, `static`),
/// behind any `const`/`unsafe`/`async`/`extern "ABI"` qualifiers.
fn declared_name(tokens: &[crate::lexer::Token], mut i: usize) -> Option<usize> {
    const QUALIFIED: [&str; 4] = ["fn", "unsafe", "async", "extern"];
    loop {
        match tokens.get(i).map(|t| &t.kind) {
            Some(TokenKind::Ident(q)) if q == "unsafe" || q == "async" || q == "extern" => i += 1,
            Some(TokenKind::Literal) => i += 1, // the ABI string of `extern "C"`
            Some(TokenKind::Ident(q))
                if q == "const"
                    && matches!(tokens.get(i + 1).map(|t| &t.kind),
                        Some(TokenKind::Ident(n)) if QUALIFIED.contains(&n.as_str())) =>
            {
                i += 1
            }
            _ => break,
        }
    }
    let TokenKind::Ident(kind) = &tokens.get(i)?.kind else {
        return None;
    };
    if !matches!(
        kind.as_str(),
        "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static"
    ) {
        return None;
    }
    let name_at = if is_ident(tokens, i + 1, "mut") {
        i + 2
    } else {
        i + 1
    };
    matches!(tokens.get(name_at)?.kind, TokenKind::Ident(_)).then_some(name_at)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every per-file lint but `axis-doc`, which needs README text.
    fn check_file(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
        check_file_with_readme(file, cfg, None)
    }

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::parse(path, src), &Config::default())
    }

    #[test]
    fn orphan_files_are_those_no_mod_reaches() {
        let files: Vec<SourceFile> = [
            (
                "src/lib.rs",
                "pub mod a;
#[cfg(test)]
mod tests {}
",
            ),
            (
                "src/a.rs",
                "mod b;
mod c;
",
            ),
            ("src/a/b.rs", ""),
            (
                "src/a/c/mod.rs",
                "pub(crate) mod d;
",
            ),
            ("src/a/c/d.rs", ""),
            (
                "src/stray.rs",
                "pub fn f() {}
",
            ),
            (
                "crates/x/src/bin/tool.rs",
                "mod util;
",
            ),
            ("crates/x/src/bin/util.rs", ""),
            ("crates/x/src/bin/big/main.rs", ""),
            (
                "crates/x/src/lost.rs",
                "// mod lost; names nothing
",
            ),
            ("crates/y/src/rootless.rs", ""),
            ("tests/t.rs", ""),
        ]
        .iter()
        .map(|(p, src)| SourceFile::parse(p, src))
        .collect();
        let findings = orphan_file_lint(&files);
        assert!(findings
            .iter()
            .all(|f| (f.line, f.lint) == (1, "orphan-file")));
        let orphans: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(orphans, ["src/stray.rs", "crates/x/src/lost.rs"]);
    }

    /// Runs `dead-pub` over `files` (linted) and `bench` (read only)
    /// and returns the `(path, line)` of each finding.
    fn dead_pub(files: &[(&str, &str)], bench: &[(&str, &str)]) -> Vec<(String, u32)> {
        let parse = |set: &[(&str, &str)]| -> Vec<SourceFile> {
            set.iter().map(|(p, s)| SourceFile::parse(p, s)).collect()
        };
        dead_pub_lint(&parse(files), &parse(bench))
            .into_iter()
            .inspect(|f| assert_eq!(f.lint, "dead-pub"))
            .map(|f| (f.path, f.line))
            .collect()
    }

    const DEAD_LIB: &str = "pub mod a;\npub use a::{Reexported, Tested};\n";

    #[test]
    fn dead_pub_ignores_own_tests_reexports_comments_and_strings() {
        let a = "\
pub fn tested() {}
pub struct Reexported;
// Commented: named in prose only, and in \"Commented\" below.
pub const COMMENTED: u8 = 1;
pub fn live() {}
fn private() { let _ = \"COMMENTED\"; live(); }
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() { tested(); let _ = Reexported; }
}
";
        let found = dead_pub(
            &[("crates/x/src/lib.rs", DEAD_LIB), ("crates/x/src/a.rs", a)],
            &[],
        );
        assert_eq!(
            found,
            [
                ("crates/x/src/a.rs".to_string(), 1),
                ("crates/x/src/a.rs".to_string(), 2),
                ("crates/x/src/a.rs".to_string(), 4),
            ]
        );
        // `private` keeps `live` alive; nothing in lib.rs is a finding.
    }

    #[test]
    fn dead_pub_counts_uses_in_other_crates_tests_and_perfbench() {
        let a = "\
pub struct Engine;
impl Engine {
    pub fn spin(&self) {}
    pub const fn idle() -> u8 { 0 }
    pub(crate) fn internal() {}
}
pub static mut COUNTER: u32 = 0;
";
        let lib = "pub mod a;\n";
        let files = [
            ("crates/x/src/lib.rs", lib),
            ("crates/x/src/a.rs", a),
            // A method called from another crate's source.
            (
                "crates/y/src/main.rs",
                "fn main() { x::a::Engine.spin(); }\n",
            ),
            // Another file's test module counts as a use.
            (
                "tests/t.rs",
                "#[cfg(test)]\nmod tests { fn f() { let _ = x::a::Engine::idle(); } }\n",
            ),
        ];
        // Only COUNTER is unused; `pub(crate)` is out of scope.
        assert_eq!(
            dead_pub(&files, &[]),
            [("crates/x/src/a.rs".to_string(), 7)]
        );
        // The benchmark harness is read, not linted: its use counts.
        let bench = [(
            "perfbench/src/main.rs",
            "fn f() { unsafe { x::a::COUNTER += 1 } }\n",
        )];
        assert!(dead_pub(&files, &bench).is_empty());
    }

    #[test]
    fn dead_pub_lints_library_sources_only() {
        // No lib.rs: a binary crate, out of scope; so are a library
        // crate's bin targets, tests and declarations inside its tests.
        let files = [
            ("crates/cli/src/main.rs", "pub fn unused() {}\n"),
            (
                "crates/x/src/lib.rs",
                "#[cfg(test)]\nmod t { pub fn helper() {} }\n",
            ),
            ("crates/x/src/bin/tool.rs", "pub fn unused_too() {}\n"),
            ("crates/x/tests/it.rs", "pub fn shared() {}\n"),
            ("tests/it.rs", "pub fn shared_too() {}\n"),
        ];
        assert!(dead_pub(&files, &[]).is_empty());
        // Declared names never count as uses of each other.
        let twins = [
            ("crates/x/src/lib.rs", "pub fn twin() {}\n"),
            ("crates/y/src/lib.rs", "pub fn twin() {}\n"),
        ];
        assert_eq!(dead_pub(&twins, &[]).len(), 2);
    }

    #[test]
    fn hashmap_flagged_only_in_deterministic_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check("crates/ppr-sim/src/x.rs", src).len(), 1);
        assert_eq!(check("crates/ppr-core/src/x.rs", src).len(), 1);
        assert!(check("crates/ppr-bench/src/x.rs", src).is_empty());
        assert!(check("crates/ppr-lint/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_bench_and_cli() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(check("crates/ppr-sim/src/x.rs", src).len(), 1);
        assert!(check("crates/ppr-bench/src/bin/b.rs", src).is_empty());
        assert!(check("crates/ppr-cli/src/main.rs", src).is_empty());
        // `Instant` alone (e.g. storing one passed in) is fine.
        assert!(check("crates/ppr-sim/src/x.rs", "fn f(t: Instant) {}\n").is_empty());
        assert_eq!(
            check("crates/ppr-mac/src/x.rs", "let x = SystemTime::now();\n").len(),
            1
        );
        assert_eq!(
            check("crates/ppr-core/src/x.rs", "let r = thread_rng();\n").len(),
            1
        );
    }

    #[test]
    fn event_module_must_document_its_ordering_key() {
        // Any other file is out of scope, key or no key.
        assert!(check("crates/ppr-sim/src/rxpath.rs", "fn f() {}\n").is_empty());

        let bare = "//! An event queue.\npub struct Q;\n";
        let f = check("crates/ppr-sim/src/event.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "event-key-doc");

        let documented = "//! Keys order as (time, priority, seq).\npub struct Q;\n";
        assert!(check("crates/ppr-sim/src/event.rs", documented).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_and_missing_safety() {
        let src = "fn f() { unsafe { g() } }\n";
        let f = check("crates/ppr-core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "unsafe-containment");

        // Allowlisted module without SAFETY comment: still a violation.
        let f = check("crates/ppr-phy/src/simd.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SAFETY"));

        // SAFETY on the preceding line, across attributes.
        let ok = "\
// SAFETY: feature checked at dispatch.
#[target_feature(enable = \"avx2\")]
unsafe fn g() {}
";
        assert!(check("crates/ppr-phy/src/simd.rs", ok).is_empty());
        // Same-line SAFETY.
        let ok2 = "let x = unsafe { p.read() }; // SAFETY: p is valid.\n";
        assert!(check("crates/ppr-phy/src/simd.rs", ok2).is_empty());
    }

    #[test]
    fn configured_unsafe_allowlist_extends_builtin() {
        let src = "// SAFETY: feature checked at dispatch.\nunsafe fn g() {}\n";
        let cfg = Config {
            unsafe_allowlist: vec!["crates/ppr-mac/src/clmul.rs".to_string()],
            ..Config::default()
        };
        // Configured module: allowed (with SAFETY), like the built-in one.
        let f = check_file(&SourceFile::parse("crates/ppr-mac/src/clmul.rs", src), &cfg);
        assert!(f.is_empty(), "{f:?}");
        // The SAFETY requirement is not waived by configuration.
        let f = check_file(
            &SourceFile::parse("crates/ppr-mac/src/clmul.rs", "unsafe fn g() {}\n"),
            &cfg,
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SAFETY"));
        // Other modules still fail even with the config present.
        let f = check_file(&SourceFile::parse("crates/ppr-mac/src/crc.rs", src), &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "unsafe-containment");
    }

    #[test]
    fn safety_scan_stops_at_code() {
        let src = "\
// SAFETY: this belongs to f, not g.
fn f() {}
unsafe fn g() {}
";
        let f = check("crates/ppr-phy/src/simd.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn no_float_only_inside_regions() {
        let src = "\
let a = 1.0;
// ppr-lint: region(no-float) begin
let b = 2;
let c = 3.0;
let d: f64 = e as f64;
// ppr-lint: region(no-float) end
let f = 4.0;
";
        let f = check("crates/ppr-core/src/dp.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.lint == "no-float"));
        assert_eq!(f[0].line, 4);
        assert_eq!(f[1].line, 5); // two findings on line 5 (f64 twice)
    }

    #[test]
    fn env_var_flagged_outside_allowlist() {
        let src = "let v = std::env::var(\"X\");\n";
        assert_eq!(check("crates/ppr-phy/src/simd.rs", src).len(), 1);
        assert!(check("crates/ppr-sim/src/env.rs", src).is_empty());
        assert!(check("crates/ppr-cli/src/main.rs", src).is_empty());
        assert!(check("crates/ppr-bench/src/lib.rs", src).is_empty());
        let os = "if std::env::var_os(\"X\").is_some() {}\n";
        assert_eq!(check("crates/ppr-sim/src/traffic.rs", os).len(), 1);
        // env::args (no var) is fine anywhere.
        assert!(check("crates/ppr-lint/src/main.rs", "let a = std::env::args();\n").is_empty());
    }

    #[test]
    fn snapshot_fields_need_docs_only_inside_regions() {
        let src = "\
pub struct Driver {
    // ppr-lint: region(snapshot-state) begin driver state
    /// snapshot: serialized — the event queue.
    q: Queue,
    out: Vec<Option<Reception>>,
    busy: Vec<u64>, // snapshot: serialized.
    // ppr-lint: region(snapshot-state) end
    scratch: Vec<u8>,
}
";
        let f = check("crates/ppr-core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "snapshot-field-doc");
        assert_eq!(f[0].line, 5); // `out` — undocumented; `scratch` is outside
    }

    #[test]
    fn snapshot_region_skips_non_field_lines() {
        let src = "\
// ppr-lint: region(snapshot-state) begin whole struct, header included
pub struct Snap {
    /// snapshot: serialized.
    pub seed: u64,
}
// ppr-lint: region(snapshot-state) end
";
        assert!(check("crates/ppr-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn checkpointed_drivers_must_declare_snapshot_regions() {
        let bare = "pub struct ReceptionDriver { q: Queue }\n";
        for path in [
            "crates/ppr-sim/src/network.rs",
            "crates/ppr-sim/src/experiments/mesh.rs",
            "crates/ppr-sim/src/adversary.rs",
        ] {
            let f = check(path, bare);
            assert!(
                f.iter().any(|x| x.lint == "snapshot-field-doc"),
                "{path}: {f:?}"
            );
        }
        // Other files may simply not opt in.
        assert!(check("crates/ppr-sim/src/event.rs", "// (time, priority, seq)\n").is_empty());
    }

    fn check_readme(path: &str, src: &str, readme: &str) -> Vec<Finding> {
        check_file_with_readme(
            &SourceFile::parse(path, src),
            &Config::default(),
            Some(readme),
        )
    }

    #[test]
    fn axis_keys_extracted_from_the_table() {
        // One-line tuple, multi-line tuple, parenthesis inside a
        // description, and a `\`-continued multi-line literal.
        let src = "\
pub const SCENARIO_KEYS: &[(&str, &str)] = &[
    (\"duration\", \"positive seconds\"),
    (
        \"backend\",
        \"chip (dsp reserved, not yet wired)\",
    ),
    (
        \"jammer\",
        \"off | pulse:PERIOD:DUTY, \\
         e.g. jammer=pulse:32768:0.2\",
    ),
];
";
        let keys = scenario_axis_keys(src);
        assert_eq!(
            keys,
            vec![
                (2, "duration".to_string()),
                (4, "backend".to_string()),
                (8, "jammer".to_string()),
            ]
        );
        assert!(scenario_axis_keys("pub struct Scenario;\n").is_empty());
    }

    #[test]
    fn axis_doc_flags_undocumented_axes() {
        let src = "\
pub const SCENARIO_KEYS: &[(&str, &str)] = &[
    (\"seed\", \"u64\"),
    (\"jammer\", \"off | react:DELAY\"),
];
";
        let documented = "| `seed` | u64 |\n| `jammer` | jamming model |\n";
        assert!(check_readme(SCENARIO_FILE, src, documented).is_empty());

        let partial = "| `seed` | u64 |\n";
        let f = check_readme(SCENARIO_FILE, src, partial);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "axis-doc");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("jammer"));

        // Only the scenario module is in scope, and without README text
        // (plain `check_file`) the lint is off entirely.
        assert!(check_readme("crates/ppr-sim/src/x.rs", src, "").is_empty());
        assert!(check(SCENARIO_FILE, src).is_empty());

        // A scenario module that lost its table is itself a violation.
        let f = check_readme(SCENARIO_FILE, "pub struct Scenario;\n", documented);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "axis-doc");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn directive_errors_surface_as_findings() {
        let src = "// ppr-lint: allow(not-a-lint)\nlet x = 1;\n";
        let f = check("crates/ppr-core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "directive");
    }

    #[test]
    fn words_in_comments_and_strings_never_fire() {
        let src = "\
// HashMap, unsafe, thread_rng, Instant::now — prose only
let s = \"std::env::var HashMap 3.0\";
";
        assert!(check("crates/ppr-sim/src/x.rs", src).is_empty());
    }
}
