//! Workspace-level detlint smoke: the committed stream-label registry
//! matches a fresh extraction, the whole tree lints clean, and the
//! linter's hardcoded algorithm list tracks the real registry.
//!
//! This is the `cargo test` face of the CI `detlint` job — a stream
//! change, a stray `HashMap` in a simulation crate, or an unjustified
//! suppression fails the ordinary test run too, not just CI.

use gossip_baselines::registry;
use gossip_lint::{collect_workspace, lint_files, registry::render, Rule, REGISTRY_FILE};

fn workspace_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_lints_clean() {
    let files = collect_workspace(workspace_root());
    assert!(
        files.len() > 100,
        "scanned only {} files — the walker lost a subtree",
        files.len()
    );
    let committed = std::fs::read_to_string(workspace_root().join(REGISTRY_FILE)).ok();
    let report = lint_files(&files, committed.as_deref());
    let errors: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "detlint found {} unsuppressed hazards:\n{}",
        errors.len(),
        errors.join("\n")
    );
}

#[test]
fn committed_registry_matches_fresh_extraction() {
    let files = collect_workspace(workspace_root());
    let report = lint_files(&files, None);
    assert!(
        !report.streams.is_empty(),
        "no derive_seed call sites extracted — the stream scanner is broken"
    );
    let fresh = render(&report.streams);
    let committed = std::fs::read_to_string(workspace_root().join(REGISTRY_FILE))
        .expect("STREAM_LABELS.tsv is committed at the workspace root");
    assert_eq!(
        committed, fresh,
        "STREAM_LABELS.tsv drifted from the source; regenerate with \
         `cargo run -p gossip-lint --release -- --update-registry`"
    );
    // And the engine's reserved labels really are claimed in the
    // registry: sim.rs owns stream 3, `CommonConfig::network` 4..=6.
    for label in ["\tseed\t3\t", "\tseed\t4\t", "\tseed\t5\t", "\tseed\t6\t"] {
        assert!(
            committed.contains(label),
            "reserved stream {label:?} missing"
        );
    }
}

#[test]
fn lint_algorithm_list_tracks_the_real_registry() {
    let real: std::collections::BTreeSet<&str> = registry::all().iter().map(|a| a.name()).collect();
    let lint: std::collections::BTreeSet<&str> =
        gossip_lint::goldens::ALGORITHMS.iter().copied().collect();
    assert_eq!(
        real, lint,
        "gossip_lint::goldens::ALGORITHMS is out of sync with registry::all(); \
         teach the linter the new name so golden coverage stays enforced"
    );
}

#[test]
fn suppressions_stay_justified() {
    // Belt and braces over the BadSuppression rule: every detlint
    // directive in the tree parses and carries a justification, and the
    // unsuppressible rules are never named in one.
    let files = collect_workspace(workspace_root());
    let committed = std::fs::read_to_string(workspace_root().join(REGISTRY_FILE)).ok();
    let report = lint_files(&files, committed.as_deref());
    for f in report.suppressed() {
        let why = f.suppressed.as_deref().unwrap_or_default();
        assert!(
            why.len() >= 20,
            "{}:{}: suppression justification too thin: {why:?}",
            f.path,
            f.line
        );
        assert!(
            matches!(
                f.rule,
                Rule::HashOrder
                    | Rule::WallClock
                    | Rule::AmbientRng
                    | Rule::EnvRead
                    | Rule::UnsafeCode
                    | Rule::ForbidUnsafe
                    | Rule::StreamLabel
                    | Rule::StreamCollision
            ),
            "{}:{}: rule {:?} should never appear suppressed",
            f.path,
            f.line,
            f.rule
        );
    }
}
