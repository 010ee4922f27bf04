//! **E7 — Fault tolerance** (Theorem 19, Section 8).
//!
//! Claim: with `F` obliviously failed nodes, Cluster1/Cluster2/Cluster3
//! keep their complexity guarantees and inform all but `o(F)` survivors.
//! The table reports `uninformed survivors / F` — the paper's guarantee
//! is that this ratio vanishes (it is `O(F/n)^{Θ(log log n)}`-ish, i.e.
//! far below 1 and shrinking with n).

#![forbid(unsafe_code)]

use gossip_bench::{algos_by_name, coverage_rounds, pow2, Experiment, Spec};
use gossip_core::algo::Scenario;
use phonecall::FailurePlan;

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e7",
        default: (vec![1 << 12], 6),
        full: (vec![1 << 14], 15),
        algos: algos_by_name(&["Cluster1", "Cluster2", "Karp", "Push"]),
        // Headline metrics track Cluster2 in the default comparison, or
        // the selected algorithm under --algo (so the BENCH record never
        // carries zeros for an algorithm that did not run).
        head: Some("Cluster2"),
        ..Spec::default()
    });
    let n = ex.sizes[0];
    let fractions = [0.05f64, 0.1, 0.2, 0.3];
    let rows = ex.sweep(
        0xE7,
        &fractions,
        |algo, frac| (format!("{}{frac}", algo.name()), ex.trials),
        |algo, &frac, seed| {
            let f = (n as f64 * frac) as usize;
            let r = algo.run(&ex.scenario(failure_scenario(n, f, seed)));
            (r.uninformed() as f64 / f as f64, r.rounds as f64)
        },
        coverage_rounds,
    );
    let cols: Vec<String> = fractions.iter().map(|f| format!("F/n={f}")).collect();
    ex.emit_pair(
        format!(
            "E7: uninformed survivors / F under oblivious failures (n = {})",
            pow2(n)
        ),
        "E7b: rounds under failures (guarantees preserved)",
        &cols,
        &rows,
    );
    let (ratio, rounds) = *ex.head_row(&rows).last().expect("non-empty grid");
    ex.metric("trials_per_cell", f64::from(ex.trials));
    ex.head_metric("uninformed_ratio_worst_frac", ratio);
    ex.head_metric("mean_rounds_worst_frac", rounds);
    ex.finish(Some(
        "Reading: the uninformed-survivors/F ratio stays far below 1 (the\n\
         o(F) guarantee of Theorem 19) and round counts match the fault-free\n\
         runs of E1.",
    ));
}

/// A broadcast scenario with `f` random oblivious failures, re-sourced at
/// the first surviving node (the task assumes a surviving source).
fn failure_scenario(n: usize, f: usize, seed: u64) -> Scenario {
    let failures = FailurePlan::random(n, f, phonecall::derive_seed(seed, 0xF));
    let mut source = 0u32;
    if failures.failed().iter().any(|i| i.0 == source) {
        source = (0..n as u32)
            .find(|i| !failures.failed().iter().any(|x| x.0 == *i))
            .expect("not all nodes failed");
    }
    Scenario::broadcast(n)
        .seed(seed)
        .failures(failures)
        .source(source)
}
