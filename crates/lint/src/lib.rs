//! **detlint** — the workspace determinism linter.
//!
//! The test suites prove determinism *dynamically*: the pinned golden
//! rows of `tests/pins/`, 1/2/4/7-thread byte-equality, seed-build
//! stdout compares. This crate guards it *statically*, so the hazards
//! those suites would eventually catch as an unbisectable flake are
//! instead compile-time-style errors with a file and line. Three rule
//! families:
//!
//! 1. **Determinism deny-list** ([`deny`]): `HashMap`/`HashSet`
//!    (RandomState iteration order), `thread_rng`/`rand::random`
//!    (ambient OS entropy), `SystemTime`/`Instant` (wall clock) and
//!    environment reads are errors inside the simulation crates
//!    (`phonecall`, `core`, `baselines`, `lowerbound`). Where a use is
//!    audited safe, a scoped suppression pins the audit in-source.
//! 2. **RNG stream-label registry** ([`streams`], [`registry`]): every
//!    `derive_seed(parent, label)` call site is extracted; engine
//!    wiring must use fixed labels; variable labels must run on a
//!    dedicated derived stream; per-parent label collisions are errors.
//!    The extraction is committed as `STREAM_LABELS.tsv` — the
//!    authoritative map of who owns which RNG stream — and CI fails
//!    when it drifts from the source.
//! 3. **Unsafe inventory**: `#![forbid(unsafe_code)]` is asserted in
//!    every crate root (libs, bins), and any `unsafe` token elsewhere
//!    must carry an audit suppression (today: exactly one, the
//!    `GlobalAlloc` counting shim in the allocation-regression test).
//!
//! # Suppressions
//!
//! A finding is silenced — never deleted — by a comment that names the
//! rule **and carries a justification**:
//!
//! ```text
//! // detlint: allow(hash_order) — lookup-only; iteration never escapes
//! ```
//!
//! A plain `allow(rule)` covers the same line or the next code line
//! below the comment; `allow-file(rule)` covers the whole file (used
//! for per-file audits like the ID directory). A suppression without a
//! justification is itself a finding, and that one cannot be
//! suppressed.
//!
//! The linter is dependency-free on purpose: the vendored deps are
//! API-stub crates, so there is no `syn` or `dylint` to lean on — and a
//! determinism auditor should not trust the code it audits. The whole
//! frontend is the hand-rolled [`lexer`].

#![forbid(unsafe_code)]

pub mod deny;
pub mod lexer;
pub mod registry;
pub mod streams;

use lexer::{Lexed, TokKind, Token};

/// Workspace-relative path of the committed stream-label registry.
pub const REGISTRY_FILE: &str = "STREAM_LABELS.tsv";

/// One source file handed to the linter. `path` is workspace-relative
/// with `/` separators — the scopes below key off it.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (`crates/core/src/sim.rs`).
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// The rule families. Each has a stable snake_case name used in
/// suppression comments and finding output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a simulation crate.
    HashOrder,
    /// `SystemTime`/`Instant` in a simulation crate.
    WallClock,
    /// `thread_rng`/`rand::random`/entropy-seeded RNGs in a simulation crate.
    AmbientRng,
    /// `env::var`-family reads in a simulation crate.
    EnvRead,
    /// An `unsafe` token anywhere in first-party code.
    UnsafeCode,
    /// A crate root without `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// A `derive_seed` call with a variable label on a shared parent.
    StreamLabel,
    /// Two streams claiming the same label on the same parent.
    StreamCollision,
    /// The committed stream registry no longer matches the source.
    RegistryDrift,
    /// A malformed suppression (no justification, unknown rule, ...).
    BadSuppression,
}

impl Rule {
    /// The rule's stable name, as written in suppression comments.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Rule::HashOrder => "hash_order",
            Rule::WallClock => "wall_clock",
            Rule::AmbientRng => "ambient_rng",
            Rule::EnvRead => "env_read",
            Rule::UnsafeCode => "unsafe_code",
            Rule::ForbidUnsafe => "forbid_unsafe",
            Rule::StreamLabel => "stream_label",
            Rule::StreamCollision => "stream_collision",
            Rule::RegistryDrift => "registry_drift",
            Rule::BadSuppression => "bad_suppression",
        }
    }

    /// Parses a rule name from a suppression comment.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        [
            Rule::HashOrder,
            Rule::WallClock,
            Rule::AmbientRng,
            Rule::EnvRead,
            Rule::UnsafeCode,
            Rule::ForbidUnsafe,
            Rule::StreamLabel,
            Rule::StreamCollision,
            Rule::RegistryDrift,
            Rule::BadSuppression,
        ]
        .into_iter()
        .find(|r| r.name() == name)
    }

    /// Whether a suppression comment may silence this rule. Registry
    /// drift and malformed suppressions cannot be waved through — they
    /// are always errors.
    #[must_use]
    pub const fn suppressible(self) -> bool {
        !matches!(self, Rule::RegistryDrift | Rule::BadSuppression)
    }
}

/// One finding. `suppressed` carries the audit justification when a
/// valid suppression comment covered the site.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (1 for whole-file findings).
    pub line: u32,
    /// Human-readable description with the remedy.
    pub message: String,
    /// `Some(justification)` when a suppression covered the site.
    pub suppressed: Option<String>,
}

/// The result of a lint pass.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, suppressed or not, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Every extracted `derive_seed` call site (the registry input).
    pub streams: Vec<streams::StreamSite>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings a suppression did not cover — these fail the build.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Findings an audit suppression covered.
    pub fn suppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_some())
    }
}

/// The four crates whose `src/` trees simulate — where nondeterminism
/// reaches the pinned digests. `harness` and `bench` drive experiments
/// (wall-clock timing and env knobs are their job) and are exempt from
/// the deny-list, though not from the stream or unsafe rules.
pub const SIM_CRATE_PREFIXES: &[&str] = &[
    "crates/phonecall/src/",
    "crates/core/src/",
    "crates/baselines/src/",
    "crates/lowerbound/src/",
];

fn in_sim_crate(path: &str) -> bool {
    SIM_CRATE_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Whether stream-label extraction covers this file: production crate
/// sources only. Integration tests and examples derive scratch seeds
/// freely; the registry maps the streams the *shipped* code owns.
fn in_stream_scope(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.contains("/src/"))
}

/// Whether this file is a crate root that must carry
/// `#![forbid(unsafe_code)]`: the facade lib, every crate lib, and
/// every binary root (`src/main.rs`, `src/bin/*.rs`).
#[must_use]
pub fn is_crate_root(path: &str) -> bool {
    if path == "src/lib.rs" {
        return true;
    }
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let Some((_, in_crate)) = rest.split_once('/') else {
        return false;
    };
    in_crate == "src/lib.rs"
        || in_crate == "src/main.rs"
        || (in_crate.starts_with("src/bin/")
            && in_crate.ends_with(".rs")
            && !in_crate["src/bin/".len()..].contains('/'))
}

/// A parsed suppression comment.
#[derive(Clone, Debug)]
struct Suppression {
    rule: Rule,
    /// `None` = file-scoped; `Some(line)` = covers exactly that line.
    covers: Option<u32>,
    justification: String,
}

fn bad_suppression(path: &str, line: u32, message: String) -> Finding {
    Finding {
        rule: Rule::BadSuppression,
        path: path.to_string(),
        line,
        message,
        suppressed: None,
    }
}

/// Parses every `detlint:` comment in a file. Malformed ones (unknown
/// rule, missing justification, unsuppressible rule) become findings
/// immediately.
fn collect_suppressions(
    path: &str,
    lexed: &Lexed,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let code_lines: Vec<u32> = {
        let mut v: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        v.dedup();
        v
    };
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Doc comments (`///`, `//!`, `/** .. */`) are prose — they may
        // *mention* directives (as this crate's own docs do) but never
        // carry one. Their captured text starts with the third marker
        // character.
        if c.text.starts_with(['/', '!', '*']) {
            continue;
        }
        let Some(at) = c.text.find("detlint:") else {
            continue;
        };
        let directive = c.text[at + "detlint:".len()..].trim_start();
        let (file_scoped, rest) = if let Some(r) = directive.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = directive.strip_prefix("allow(") {
            (false, r)
        } else {
            findings.push(bad_suppression(
                path,
                c.start_line,
                format!(
                    "unrecognized detlint directive {:?}; want `detlint: allow(<rule>) — <why>` \
                     or `detlint: allow-file(<rule>) — <why>`",
                    directive.trim()
                ),
            ));
            continue;
        };
        let Some((rule_name, tail)) = rest.split_once(')') else {
            findings.push(bad_suppression(
                path,
                c.start_line,
                "unterminated detlint allow(...) directive".to_string(),
            ));
            continue;
        };
        let Some(rule) = Rule::from_name(rule_name.trim()) else {
            findings.push(bad_suppression(
                path,
                c.start_line,
                format!("unknown detlint rule {:?}", rule_name.trim()),
            ));
            continue;
        };
        if !rule.suppressible() {
            findings.push(bad_suppression(
                path,
                c.start_line,
                format!("rule `{}` cannot be suppressed", rule.name()),
            ));
            continue;
        }
        let justification = tail
            .trim_start()
            .trim_start_matches(['—', '-', ':', ' '])
            .trim()
            .to_string();
        if justification.is_empty() {
            findings.push(bad_suppression(
                path,
                c.start_line,
                format!(
                    "suppression of `{}` carries no justification; every allow must \
                     record *why* the hazard is safe here",
                    rule.name()
                ),
            ));
            continue;
        }
        // A trailing comment covers its own line; a comment on its own
        // line covers the next line holding code.
        let covers = if file_scoped {
            None
        } else if code_lines.binary_search(&c.start_line).is_ok() {
            Some(c.start_line)
        } else {
            Some(
                code_lines
                    .iter()
                    .copied()
                    .find(|&l| l > c.end_line)
                    .unwrap_or(c.end_line),
            )
        };
        out.push(Suppression {
            rule,
            covers,
            justification,
        });
    }
    out
}

/// Token-index ranges of `#[cfg(test)] mod ... { ... }` bodies: unit
/// tests may fan scratch seeds out however they like without entering
/// the stream registry.
fn test_mod_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_attr = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(');
        if !is_cfg_attr {
            i += 1;
            continue;
        }
        // Walk to the closing `]`, remembering whether `test` appeared.
        let mut saw_test = false;
        let mut j = i + 2;
        let mut bracket_depth = 1;
        while j < tokens.len() && bracket_depth > 0 {
            let t = &tokens[j];
            if t.is_ident("test") {
                saw_test = true;
            }
            if t.is_punct('[') {
                bracket_depth += 1;
            } else if t.is_punct(']') {
                bracket_depth -= 1;
            }
            j += 1;
        }
        if !saw_test {
            i = j;
            continue;
        }
        // Skip any further attributes, then expect `mod name {`.
        let mut k = j;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let mut depth = 0;
            k += 1;
            while k < tokens.len() {
                if tokens[k].is_punct('[') {
                    depth += 1;
                } else if tokens[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        if k + 2 < tokens.len()
            && tokens[k].is_ident("mod")
            && tokens[k + 1].kind == TokKind::Ident
            && tokens[k + 2].is_punct('{')
        {
            let start = k + 2;
            let mut depth = 0;
            let mut end = start;
            while end < tokens.len() {
                if tokens[end].is_punct('{') {
                    depth += 1;
                } else if tokens[end].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                end += 1;
            }
            out.push((start, end));
            i = end;
        } else {
            i = j;
        }
    }
    out
}

/// Whether the token stream asserts `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Workspace subtrees holding first-party Rust sources. `vendor/` and
/// `target/` are never scanned — the vendored stubs are not ours to
/// audit.
pub const SCAN_DIRS: &[&str] = &["src", "crates", "tests", "examples"];

/// Collects every first-party `.rs` file under the workspace `root`
/// (the [`SCAN_DIRS`] subtrees), sorted by path for a deterministic
/// scan order, with workspace-relative `/`-separated paths.
#[must_use]
pub fn collect_workspace(root: &std::path::Path) -> Vec<SourceFile> {
    fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<SourceFile>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<std::path::PathBuf> =
            entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && name != "vendor" {
                    walk(&path, root, out);
                }
            } else if name.ends_with(".rs") {
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(SourceFile { path: rel, text });
            }
        }
    }
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        walk(&root.join(dir), root, &mut files);
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

/// Runs every rule over `files` and resolves suppressions.
///
/// `committed_registry` is the current contents of [`REGISTRY_FILE`]
/// (or `None` when the file does not exist); a mismatch against the
/// fresh extraction is a [`Rule::RegistryDrift`] finding.
#[must_use]
pub fn lint_files(files: &[SourceFile], committed_registry: Option<&str>) -> LintReport {
    let mut findings: Vec<Finding> = Vec::new();
    let mut all_sites: Vec<streams::StreamSite> = Vec::new();
    let mut suppressions: Vec<Vec<Suppression>> = Vec::new();

    for file in files {
        let lexed = lexer::lex(&file.text);
        suppressions.push(collect_suppressions(&file.path, &lexed, &mut findings));

        if in_sim_crate(&file.path) {
            deny::check_denylist(&file.path, &lexed.tokens, &mut findings);
        }
        deny::check_unsafe(&file.path, &lexed.tokens, &mut findings);
        if is_crate_root(&file.path) && !has_forbid_unsafe(&lexed.tokens) {
            findings.push(Finding {
                rule: Rule::ForbidUnsafe,
                path: file.path.clone(),
                line: 1,
                message: "crate root lacks `#![forbid(unsafe_code)]`; every crate root \
                          must statically rule unsafe out"
                    .to_string(),
                suppressed: None,
            });
        }
        if in_stream_scope(&file.path) {
            let excluded = test_mod_ranges(&lexed.tokens);
            all_sites.extend(streams::extract(&file.path, &lexed.tokens, &excluded));
        }
    }

    streams::check(&all_sites, &mut findings);

    let fresh = registry::render(&all_sites);
    match committed_registry {
        Some(committed) if committed == fresh => {}
        _ => findings.push(Finding {
            rule: Rule::RegistryDrift,
            path: REGISTRY_FILE.to_string(),
            line: 1,
            message: format!(
                "committed stream-label registry does not match a fresh extraction; \
                 run `cargo run -p gossip-lint --release -- --update-registry` and \
                 commit the result ({} call sites extracted)",
                all_sites.len()
            ),
            suppressed: None,
        }),
    }

    // Resolve suppressions.
    let by_path: std::collections::BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    for f in &mut findings {
        if !f.rule.suppressible() {
            continue;
        }
        let Some(&fi) = by_path.get(f.path.as_str()) else {
            continue;
        };
        if let Some(s) = suppressions[fi]
            .iter()
            .find(|s| s.rule == f.rule && (s.covers.is_none() || s.covers == Some(f.line)))
        {
            f.suppressed = Some(s.justification.clone());
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    LintReport {
        findings,
        streams: all_sites,
        files_scanned: files.len(),
    }
}
