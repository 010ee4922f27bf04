//! **E9 — robustness under transient message loss** (extension).
//!
//! The paper's introduction credits gossip with tolerating "permanent or
//! transient link-failures"; its formal fault model (Section 8) covers
//! only time-0 node crashes. This experiment probes the transient side:
//! every message is independently lost with probability `p`.
//!
//! Expected shapes: the purely randomized baselines (PUSH, PUSH-PULL,
//! Karp) self-heal — a lost push is re-rolled next round — so they stay
//! at 100% coverage with slightly more rounds. The clustering algorithms
//! run fixed schedules over *structured* state; lost coordination
//! messages leave stragglers that the pull/consolidation phases mostly,
//! but not always, recover — quantifying how much of their optimality
//! budget is spent on the reliable-link assumption.

#![forbid(unsafe_code)]

use gossip_bench::{algos_by_name, coverage, coverage_rounds, pow2, Experiment, Spec};
use gossip_core::algo::Scenario;

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e9",
        default: (vec![1 << 11], 6),
        full: (vec![1 << 13], 12),
        algos: algos_by_name(&["Cluster2", "Cluster1", "Karp", "PushPull", "Push"]),
        ..Spec::default()
    });
    let n = ex.sizes[0];
    let losses = [0.0f64, 0.01, 0.05, 0.1, 0.2];
    let rows = ex.sweep(
        0xE9,
        &losses,
        |algo, loss| (format!("{}{loss}", algo.name()), ex.trials),
        |algo, &loss, seed| {
            coverage(&algo.run(&ex.scenario(Scenario::broadcast(n).seed(seed).message_loss(loss))))
        },
        coverage_rounds,
    );
    let cols: Vec<String> = losses.iter().map(|l| format!("loss={l}")).collect();
    ex.emit_pair(
        format!(
            "E9: informed fraction of nodes under message loss (n = {})",
            pow2(n)
        ),
        "E9b: rounds used (observer-stopped baselines stretch)",
        &cols,
        &rows,
    );
    // Headline metrics track Cluster2 in the default comparison, or the
    // selected algorithm under --algo.
    let (cov, rounds) = *ex.head_row(&rows).last().expect("non-empty grid");
    ex.metric("trials_per_cell", f64::from(ex.trials));
    ex.head_metric("coverage_worst_loss", cov);
    ex.head_metric("mean_rounds_worst_loss", rounds);
    ex.finish(Some(
        "Reading: the randomized baselines self-heal (coverage 1.0000, a\n\
         few extra rounds). The clustering algorithms' fixed schedules\n\
         absorb single-digit loss rates through their pull and\n\
         consolidation phases and degrade gracefully — not catastrophically\n\
         — beyond that; reliable links are part of their optimality budget.",
    ));
}
