//! **E6 — The round / fan-in trade-off curve** (Lemma 16 + Lemma 17).
//!
//! Claims: with fan-in bounded by `Δ`, *any* algorithm needs
//! `≥ log n / log Δ` rounds (Lemma 16); ClusterPUSH-PULL over a
//! `Δ`-clustering achieves `O(log n / log Δ)` rounds with `O(n)` rumor
//! transmissions (Lemma 17). Sweeping `Δ` at fixed `n` traces the curve.

#![forbid(unsafe_code)]

use gossip_bench::{algos_by_name, pow2, Experiment, Grid, Spec};
use gossip_core::algo::Scenario;
use gossip_core::config::log2n;
use gossip_core::Value;
use gossip_harness::{Summary, Table};

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e6",
        default: (vec![1 << 13], 5),
        full: (vec![1 << 15], 10),
        algos: algos_by_name(&["ClusterPushPull"]),
        fixed: true,
        ..Spec::default()
    });
    let n = ex.sizes[0];
    let deltas: Vec<usize> = if ex.grid == Grid::Default {
        vec![16, 64, 256, 1024]
    } else {
        vec![16, 32, 64, 128, 256, 512, 1024, 2048]
    };
    // One report per trial, in seed order; the folds below reproduce
    // the sequential accumulation bit for bit.
    let reports = ex.sweep(
        0xE6,
        &deltas,
        |_, delta| (format!("d{delta}"), ex.trials),
        |push_pull, &delta, seed| {
            let delta_param = Value::obj([("delta", Value::Num(delta as f64))]);
            push_pull
                .run_with_params(
                    &ex.scenario(Scenario::broadcast(n).seed(seed)),
                    &delta_param,
                )
                .expect("delta is a valid ClusterPushPull parameter")
        },
        |r| r,
    );

    let mut tbl = Table::new(
        format!("E6: broadcast over a delta-clustering at n = {}", pow2(n)),
        &[
            "delta",
            "lower bound log n/log delta'",
            "oracle tree rounds",
            "loop iterations",
            "iters/bound",
            "total rounds",
            "payload msgs/node",
            "max fan-in",
            "success",
        ],
    );
    let trials = f64::from(ex.trials);
    let mut headline = (0.0f64, 0.0f64);
    for (&delta, reps) in deltas.iter().zip(&reports[0]) {
        let fan_max = reps.iter().map(|r| r.max_fan_in).fold(0, u64::max);
        let ok = reps.iter().all(|r| r.success);
        let payload = reps
            .iter()
            .map(|r| r.payload_messages_per_node())
            .sum::<f64>()
            / trials;
        let total_rounds = reps.iter().map(|r| r.rounds as f64).sum::<f64>() / trials;
        // 4 engine rounds per loop iteration (push, 2-round share, pull).
        let samples: Vec<f64> = reps
            .iter()
            .map(|r| {
                r.phases
                    .iter()
                    .find(|p| p.name == "PushPullLoop")
                    .map_or(0.0, |p| p.rounds as f64 / 4.0)
            })
            .collect();
        let loop_rounds = Summary::from_samples(&samples);
        let bound = log2n(n) / (delta as f64 / 4.0).log2().max(1.0);
        let oracle = gossip_baselines::tree::predicted_rounds(n, delta);
        headline = (total_rounds, payload);
        tbl.push_row(vec![
            delta.to_string(),
            format!("{bound:.1}"),
            oracle.to_string(),
            format!("{:.1}", loop_rounds.mean),
            format!("{:.2}", loop_rounds.mean / bound),
            format!("{total_rounds:.0}"),
            format!("{payload:.1}"),
            fan_max.to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    ex.emit(&tbl);
    ex.metric("trials_per_cell", trials);
    ex.metric("push_pull_mean_rounds_largest_delta", headline.0);
    ex.metric("push_pull_payload_msgs_per_node_largest_delta", headline.1);
    ex.finish(Some(
        "Reading: loop rounds track the Lemma 16 bound log n / log delta'\n\
         (ratio ~constant across two orders of magnitude of delta), fan-in\n\
         stays below delta, and rumor transmissions stay O(1) per node. The\n\
         oracle tree column is the unreachable free-addresses optimum\n\
         (baselines::tree): the gap to it is the price of address learning.",
    ));
}
