//! Smoke test for the `examples/`: build and run every example at a small
//! `n` so they cannot silently rot. Each example accepts an optional size
//! argument precisely for this test.

use std::process::Command;

/// Runs one example through `cargo run --example` at n = 256.
fn run_example(name: &str) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args(["run", "--quiet", "--example", name, "--", "256"])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        out.status.success(),
        "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        !out.stdout.is_empty(),
        "example {name} printed nothing — did it really run?"
    );
}

// One #[test] per example so failures name the culprit and the runner can
// parallelize; the first to run pays the shared `cargo build` cost.

#[test]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
fn algorithm_shootout_runs() {
    run_example("algorithm_shootout");
}

#[test]
fn membership_broadcast_runs() {
    run_example("membership_broadcast");
}

#[test]
fn fault_tolerant_broadcast_runs() {
    run_example("fault_tolerant_broadcast");
}

#[test]
fn bounded_fanout_runs() {
    run_example("bounded_fanout");
}

#[test]
fn coordination_tasks_runs() {
    run_example("coordination_tasks");
}

/// A size argument that is not an integer is a usage error: the example
/// prints `usage: <example> [n]` and exits 2 instead of panicking.
#[test]
fn bad_size_argument_is_a_usage_error() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args(["run", "--quiet", "--example", "quickstart", "--", "abc"])
        .output()
        .expect("failed to spawn cargo for example quickstart");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: quickstart [n]"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
