//! **E5 — `Δ`-clustering construction** (Theorem 4/18, Section 7).
//!
//! Claims: `Cluster3(Δ)` clusters *every* node into clusters of size
//! `Θ(Δ)` in `O(log log n)` rounds with `O(n)` messages, while **no node
//! communicates with more than `Δ` others in any round**.

#![forbid(unsafe_code)]

use gossip_bench::{algos_by_name, mean, pow2, Experiment, Spec};
use gossip_core::algo::{Algorithm, Scenario};
use gossip_core::{cluster3, Cluster3Config, Value};
use gossip_harness::{Summary, Table};

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e5",
        default: (vec![1 << 10, 1 << 12, 1 << 14], 5),
        full: (vec![1 << 10, 1 << 12, 1 << 14, 1 << 16], 10),
        algos: algos_by_name(&["Cluster3"]),
        fixed: true,
        ..Spec::default()
    });
    // delta = n^{1/4}, n^{1/3}, n^{1/2} at every n.
    let cells: Vec<(usize, u32)> = ex
        .sizes
        .iter()
        .flat_map(|&n| [4u32, 3, 2].map(|e| (n, e)))
        .collect();
    let delta = |n: usize, e: u32| ((n as f64).powf(1.0 / f64::from(e)).round() as usize).max(16);
    let cell = |_: &dyn Algorithm, &(n, e): &(usize, u32)| (format!("d{e}n{n}"), ex.trials);
    let run = |cluster3: &dyn Algorithm, n: usize, e: u32, seed| {
        let delta_param = Value::obj([("delta", Value::Num(delta(n, e) as f64))]);
        cluster3
            .run_with_params(
                &ex.scenario(Scenario::broadcast(n).seed(seed)),
                &delta_param,
            )
            .expect("delta is a valid Cluster3 parameter")
    };
    // One report per trial, reassembled in seed order; the folds below
    // reproduce the sequential accumulation exactly. Messages per node
    // draw a second seed stream.
    let reports = ex.sweep(
        0xE5,
        &cells,
        cell,
        |a, &(n, e), seed| run(a, n, e, seed),
        |r| r,
    );
    let msgs = ex.sweep(
        0xE5B,
        &cells,
        cell,
        |a, &(n, e), seed| run(a, n, e, seed).messages as f64 / n as f64,
        mean,
    );

    let mut tbl = Table::new(
        "E5: Cluster3(delta) — delta-clustering quality",
        &[
            "n",
            "delta",
            "rounds",
            "msgs/node",
            "max fan-in",
            "fan-in<=delta",
            "complete",
            "min size",
            "max size",
            "size ratio to delta'",
        ],
    );
    let mut headline = (0.0f64, 0.0f64);
    for ((&(n, e), reps), &msgs) in cells.iter().zip(&reports[0]).zip(&msgs[0]) {
        let delta = delta(n, e);
        // The working size Δ' the construction aims for (at the
        // default head-room constant this run uses).
        let working = cluster3::working_size(delta, &Cluster3Config::default()) as f64;
        let fan_max = reps.iter().map(|r| r.max_fan_in).fold(0, u64::max);
        let complete = reps.iter().all(|r| r.success);
        let min_size = reps
            .iter()
            .map(|r| r.clustering.min_size)
            .fold(usize::MAX, usize::min);
        let max_size = reps
            .iter()
            .map(|r| r.clustering.max_size)
            .fold(0, usize::max);
        let samples: Vec<f64> = reps.iter().map(|r| r.rounds as f64).collect();
        let rounds = Summary::from_samples(&samples).mean;
        headline = (rounds, msgs);
        tbl.push_row(vec![
            pow2(n),
            format!("{delta} (n^1/{e})"),
            format!("{rounds:.0}"),
            format!("{msgs:.1}"),
            fan_max.to_string(),
            if fan_max <= delta as u64 { "yes" } else { "NO" }.to_string(),
            if complete { "yes" } else { "NO" }.to_string(),
            min_size.to_string(),
            max_size.to_string(),
            format!(
                "[{:.2}, {:.2}]",
                min_size as f64 / working,
                max_size as f64 / working
            ),
        ]);
    }
    ex.emit(&tbl);
    ex.metric("trials_per_cell", f64::from(ex.trials));
    ex.metric("cluster3_mean_rounds_last_cell", headline.0);
    ex.metric("cluster3_msgs_per_node_last_cell", headline.1);
    ex.finish(Some(
        "Reading: rounds stay near-constant in n (O(log log n)), fan-in\n\
         never exceeds delta, every node is clustered, and sizes are\n\
         Theta(delta') for the working size delta' = delta/5.",
    ));
}
