//! **E2 — Message complexity vs n** (Theorem 2; §1).
//!
//! Claim shapes (messages per node on average): Cluster2 `O(1)`, Karp
//! `O(log log n)` transmissions, Avin–Elsässer `Θ(√log n)`, PUSH
//! `Θ(log n)`; Cluster1 is unoptimized (`Θ(log log n)` per node with a
//! large constant).
//!
//! Two tables: total messages per node (pull requests included) and
//! payload-bearing messages per node (the "transmissions" measure of
//! Karp et al. — header-only pull requests excluded).

#![forbid(unsafe_code)]

use gossip_baselines::registry;
use gossip_bench::{mean, ns_cols, Experiment, Spec};
use gossip_core::algo::{Algorithm, Scenario};
use gossip_harness::geometric_ns;

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e2",
        default: (geometric_ns(8, 14, 2), 8),
        full: (geometric_ns(8, 17, 1), 20),
        algos: registry::compared().to_vec(),
        ..Spec::default()
    });
    let ns = ex.sizes.clone();
    // One label per algorithm across sizes, and a second seed stream
    // for the payload count.
    let cell = |algo: &dyn Algorithm, _: &usize| (algo.name().to_string(), ex.trials);
    let run = |algo: &dyn Algorithm, n: usize, seed| {
        algo.run(&ex.scenario(Scenario::broadcast(n).seed(seed)))
    };
    let totals = ex.sweep(
        0xE2,
        &ns,
        cell,
        |algo, &n, seed| run(algo, n, seed).messages_per_node(),
        mean,
    );
    let payloads = ex.sweep(
        0xE2B,
        &ns,
        cell,
        |algo, &n, seed| run(algo, n, seed).payload_messages_per_node(),
        mean,
    );
    let growth: Vec<Vec<f64>> = totals
        .iter()
        .zip(&payloads)
        .map(|(t, p)| vec![t[t.len() - 1] / t[0], p[p.len() - 1] / p[0]])
        .collect();

    let cols = ns_cols(&ns);
    let one_place = |m: &f64| format!("{m:.1}");
    ex.emit_rows(
        "E2: total messages per node (requests included)",
        &cols,
        &totals,
        one_place,
    );
    ex.emit_rows(
        "E2b: payload-bearing messages per node (rumor/ID transmissions)",
        &cols,
        &payloads,
        one_place,
    );
    ex.emit_rows(
        "E2c: growth factor from smallest to largest n (flat ~ O(1))",
        &["total growth".into(), "payload growth".into()],
        &growth,
        |g| format!("{g:.2}x"),
    );

    // Headline record for --json: the headline algorithm (Cluster2 by
    // default) at the largest n.
    let total = *ex.head_row(&totals).last().expect("non-empty grid");
    let payload = *ex.head_row(&payloads).last().expect("non-empty grid");
    ex.metric("trials_per_cell", f64::from(ex.trials));
    ex.head_metric("total_msgs_per_node_largest_n", total);
    ex.head_metric("payload_msgs_per_node_largest_n", payload);
    ex.finish(None);
}
