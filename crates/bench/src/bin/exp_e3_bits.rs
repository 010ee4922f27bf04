//! **E3 — Bit complexity** (Theorem 2 vs Theorem 1).
//!
//! Claim: Cluster2's total bit complexity is `O(n·b)` for a `b`-bit rumor
//! (`b = Ω(log n)`) — i.e. `bits/(n·b)` stays bounded as both `n` and `b`
//! grow. Avin–Elsässer pays an extra `n·log^{3/2} n` term (visible at
//! small `b`), and PUSH pays `Θ(n·b·log n)`.

#![forbid(unsafe_code)]

use gossip_bench::{algos_by_name, mean, ns_cols, table, Experiment, Spec};
use gossip_core::algo::Scenario;
use gossip_harness::geometric_ns;

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e3",
        default: (geometric_ns(9, 14, 2), 5),
        full: (geometric_ns(9, 16, 1), 10),
        algos: algos_by_name(&["Cluster2", "AvinElsasser", "Karp", "Push"]),
        ..Spec::default()
    });
    let ns = ex.sizes.clone();
    let bs: &[u64] = &[64, 512, 4096];
    // Columns run b-major, so each algorithm's row splits into one table
    // row per b; one label per algorithm across every cell.
    let cells: Vec<(u64, usize)> = bs
        .iter()
        .flat_map(|&b| ns.iter().map(move |&n| (b, n)))
        .collect();
    let rows = ex.sweep(
        0xE3,
        &cells,
        |algo, _| (algo.name().to_string(), ex.trials),
        |algo, &(b, n), seed| {
            let r = algo.run(&ex.scenario(Scenario::broadcast(n).seed(seed).rumor_bits(b)));
            r.bits as f64 / (n as f64 * b as f64)
        },
        mean,
    );

    let mut tbl = table(
        "E3: total bits / (n*b)  (bounded rows = O(nb) bit complexity)",
        &["algorithm", "b bits"],
        &ns_cols(&ns),
    );
    for (algo, row) in ex.algos.iter().zip(&rows) {
        for (b, means) in bs.iter().zip(row.chunks(ns.len())) {
            let mut cells = vec![algo.name().to_string(), b.to_string()];
            cells.extend(means.iter().map(|m| format!("{m:.2}")));
            tbl.push_row(cells);
        }
    }
    ex.emit(&tbl);
    let headline = *ex.head_row(&rows).last().expect("non-empty grid");
    ex.metric("trials_per_cell", f64::from(ex.trials));
    ex.head_metric("bits_per_nb_largest_cell", headline);
    ex.finish(Some(
        "Reading: Cluster2 rows converge to a constant as b grows (O(nb));\n\
         Push grows with log n at every b; AvinElsasser's small-b rows show\n\
         its n*log^1.5 n ID-traffic term.",
    ));
}
