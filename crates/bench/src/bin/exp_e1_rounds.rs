//! **E1 — Round complexity vs n** (Theorems 2, 9; Theorem 1 quote; §1).
//!
//! Claim shapes: Cluster1/Cluster2 `Θ(log log n)`, Avin–Elsässer
//! `Θ(√log n)`, Karp / PUSH / PULL / PUSH-PULL `Θ(log n)`.
//!
//! Prints the measured mean rounds per `(algorithm, n)`, the rounds
//! normalized by each algorithm's predicted law (flat row = shape holds),
//! and a model-selection table fitting every candidate law.
//!
//! With `--json`, additionally writes `BENCH_e1.json` with the grid's
//! shape and the headline algorithm's rounds and messages at the
//! largest `n`.

#![forbid(unsafe_code)]

use gossip_baselines::registry;
use gossip_bench::{ns_cols, table, Experiment, Spec};
use gossip_core::algo::Scenario;
use gossip_harness::fit::best_fits;
use gossip_harness::{fit_ratio, geometric_ns, AsciiPlot, ScalingLaw, Summary};

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e1",
        default: (geometric_ns(8, 14, 2), 8),
        full: (geometric_ns(8, 17, 1), 20),
        // The million-node grid: 2^14 → 2^17 → 2^20, where the
        // loglog-vs-log separation becomes the headline chart.
        huge: Some((geometric_ns(14, 20, 3), 16)),
        algos: registry::compared().to_vec(),
        ..Spec::default()
    });
    let ns = ex.sizes.clone();

    // Compute phase: every (algorithm, n) cell fans its trials out across
    // the worker threads; per-trial records come back in seed order, so
    // the summaries are bit-identical to a sequential run
    // (tests/parallel_equivalence.rs pins that up to 2^14). --huge scales
    // the per-cell trial count down with n so the 2^20 cells stay
    // tractable.
    let data = ex.sweep(
        0xE1,
        &ns,
        |algo, &n| (algo.name().to_string(), ex.trials_at(n)),
        |algo, &n, seed| {
            let r = algo.run(&ex.scenario(Scenario::broadcast(n).seed(seed)));
            (r.rounds as f64, r.messages_per_node())
        },
        |reps| {
            let rounds: Vec<f64> = reps.iter().map(|&(r, _)| r).collect();
            let msgs: Vec<f64> = reps.iter().map(|&(_, m)| m).collect();
            (Summary::from_samples(&rounds), Summary::from_samples(&msgs))
        },
    );

    let cols = ns_cols(&ns);
    let mut rounds_tbl = table(
        "E1: mean rounds to inform all nodes",
        &["algorithm", "law"],
        &cols,
    );
    let mut norm_tbl = table(
        "E1b: rounds / predicted-law(n)  (flat row = predicted shape holds)",
        &["algorithm"],
        &cols,
    );
    let mut fit_tbl = table(
        "E1c: scaling-law fit (best law by R2, plus predicted law's R2)",
        &[
            "algorithm",
            "predicted",
            "best fit",
            "best R2",
            "predicted R2",
            "c",
        ],
        &[],
    );

    let mut fig = AsciiPlot::new("Figure E1: rounds vs n (log-x)", 60, 16);
    for (algo, cells) in ex.algos.iter().zip(&data) {
        let means: Vec<f64> = cells.iter().map(|(rounds, _)| rounds.mean).collect();
        let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
        let law = ScalingLaw::from(algo.law());
        let predicted_fit = fit_ratio(&xs, &means, law);
        let best = best_fits(&xs, &means);

        let mut row = vec![algo.name().to_string(), law.name().to_string()];
        row.extend(means.iter().map(|m| format!("{m:.1}")));
        rounds_tbl.push_row(row);

        let mut row = vec![algo.name().to_string()];
        row.extend(
            ns.iter()
                .zip(&means)
                .map(|(&n, m)| format!("{:.2}", m / law.eval(n as f64))),
        );
        norm_tbl.push_row(row);

        // A one-size grid has no R², and so no best law.
        let r2_cell = |r2: f64| {
            if r2.is_nan() {
                "n/a".to_string()
            } else {
                format!("{r2:.4}")
            }
        };
        let best_law = if best[0].r2.is_nan() {
            "n/a"
        } else {
            best[0].law.name()
        };
        fit_tbl.push_row(vec![
            algo.name().to_string(),
            law.name().to_string(),
            best_law.to_string(),
            r2_cell(best[0].r2),
            r2_cell(predicted_fit.r2),
            format!("{:.2}", predicted_fit.c),
        ]);
        fig.add_series(
            algo.name(),
            ns.iter()
                .zip(&means)
                .map(|(&n, &m)| (n as f64, m))
                .collect(),
        );
    }

    ex.emit(&rounds_tbl);
    ex.emit(&norm_tbl);
    ex.emit(&fit_tbl);
    if !ex.opts.csv {
        ex.emit_text(&fig.render());
    }

    if ex.opts.json {
        // Headline metrics come from Cluster2 for the default
        // comparison, the selection under --algo.
        let (rounds, msgs) = *ex.head_row(&data).last().expect("non-empty grid");
        ex.metric("trials_per_cell", f64::from(ex.trials));
        ex.metric("grid_cells", (ns.len() * data.len()) as f64);
        ex.metric("largest_n", *ns.last().expect("non-empty grid") as f64);
        ex.head_metric("mean_rounds_largest_n", rounds.mean);
        ex.head_metric("msgs_per_node_largest_n", msgs.mean);
    }
    ex.finish(None);
}
