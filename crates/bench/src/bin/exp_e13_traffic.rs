//! **E13 — multi-rumor heavy traffic** (extension; the workload of
//! `phonecall::traffic`).
//!
//! The paper's task is one rumor from one source; every experiment so
//! far measures that single broadcast. E13 instead injects **K rumors
//! at seeded random (node, round) pairs** — a Poisson arrival process —
//! and lets them piggyback on whatever payload messages the algorithm
//! under test already sends. The profile grid crosses arrival pressure
//! (K × rate) with a per-node per-round **bandwidth budget**; every
//! algorithm faces the identical seed-derived arrival plan per trial.
//!
//! Measured per (algorithm × profile): the fraction of injected rumors
//! that reach *every* alive node, the p50/p90/p99 completion latency of
//! the ones that do, and Jain's fairness index over per-rumor final
//! coverage (1.0 = every rumor reached the same number of nodes).
//!
//! Observed shapes (recorded in EXPERIMENTS.md): completion is decided
//! by *schedule length*, not message volume. The long-running clustered
//! protocols and Name-Dropper complete (nearly) everything; the fast
//! observer-stopped baselines (PUSH, PULL, PUSH-PULL) stop the moment
//! the *first* rumor is everywhere and strand late arrivals — heavy
//! traffic inverts the paper's round-complexity ranking. A bandwidth
//! budget of one transfer per node per round makes burst rumors queue
//! behind each other past the end of any fixed schedule.

#![forbid(unsafe_code)]

use gossip_baselines::registry;
use gossip_bench::{pow2, Experiment, Grid, Spec};
use gossip_core::algo::Scenario;
use gossip_harness::{jain_fairness, percentile};

/// The traffic profiles: named points on the K × arrival-rate ×
/// bandwidth grid.
fn profiles(full: bool) -> Vec<(&'static str, u32, f64, u32)> {
    let k = if full { 64 } else { 32 };
    vec![
        // A trickle: few rumors, one every other round on average.
        ("light", if full { 16 } else { 8 }, 0.5, 0),
        // Sustained pressure: one arrival per round.
        ("steady", k, 1.0, 0),
        // A burst: the whole workload lands in the first few rounds.
        ("burst", k, 8.0, 0),
        // The same burst through a one-transfer-per-round budget.
        ("choked", k, 8.0, 1),
    ]
}

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e13",
        default: (vec![1 << 10], 6),
        full: (vec![1 << 12], 12),
        huge: Some((vec![1 << 20], 6)),
        // The whole registry: heavy traffic is one workload every task
        // (broadcast, clustering, discovery) can carry.
        algos: registry::all().to_vec(),
        // Headline metrics contrast the long-schedule clustered broadcast
        // with the fastest baseline under burst pressure — or track the
        // selected algorithm under --algo.
        head: Some("ClusterPushPull"),
        ..Spec::default()
    });
    let n = ex.sizes[0];
    let trials = ex.trials_at(n);
    let profiles = profiles(ex.grid == Grid::Full);
    let t = f64::from(trials);
    // Per cell: completed fraction, pooled latencies, fairness and
    // budget drops, each a sum ÷ trials except the pooled latencies.
    let rows = ex.sweep(
        0xE13,
        &profiles,
        |algo, &(profile_name, ..)| (format!("{}{profile_name}", algo.name()), trials),
        |algo, &(_, k, rate, bw), seed| {
            let scenario = Scenario::broadcast(n).rumors(k, rate).bandwidth(bw);
            let r = algo.run(&ex.scenario(scenario).seed(seed));
            let coverage: Vec<f64> = r.rumors.iter().map(|s| s.informed as f64).collect();
            (
                r.rumors_completed() as f64 / f64::from(k),
                r.rumor_latencies(),
                jain_fairness(&coverage),
                r.budget_drops as f64,
            )
        },
        |reps| {
            let done: f64 = reps.iter().map(|(d, ..)| d).sum::<f64>() / t;
            let lats: Vec<f64> = reps
                .iter()
                .flat_map(|(_, l, ..)| l.iter().map(|&x| x as f64))
                .collect();
            let fair: f64 = reps.iter().map(|&(_, _, f, _)| f).sum::<f64>() / t;
            let drops: f64 = reps.iter().map(|&(.., d)| d).sum::<f64>() / t;
            (done, lats, fair, drops)
        },
    );

    let cols: Vec<String> = profiles
        .iter()
        .map(|&(name, k, rate, bw)| {
            if bw > 0 {
                format!("{name} (K={k}, λ={rate}, bw={bw})")
            } else {
                format!("{name} (K={k}, λ={rate})")
            }
        })
        .collect();
    ex.emit_rows(
        format!(
            "E13: fraction of workload rumors completed (n = {})",
            pow2(n)
        ),
        &cols,
        &rows,
        |(done, ..)| format!("{done:.4}"),
    );
    ex.emit_rows(
        "E13b: completion latency p50/p90/p99 in rounds (completed rumors only)",
        &cols,
        &rows,
        |(_, lats, ..)| {
            if lats.is_empty() {
                "—".to_string()
            } else {
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    percentile(lats, 50.0),
                    percentile(lats, 90.0),
                    percentile(lats, 99.0)
                )
            }
        },
    );
    ex.emit_rows(
        "E13c: Jain fairness of per-rumor coverage (1 = all rumors equally spread)",
        &cols,
        &rows,
        |(_, _, fair, _)| format!("{fair:.4}"),
    );

    let col = |name| profiles.iter().position(|p| p.0 == name);
    let burst = col("burst").expect("burst is a profile");
    let choked = col("choked").expect("choked is a profile");
    let head = ex.head_row(&rows);
    let (done, lats, ..) = &head[burst];
    let (done, p99, drops) = (*done, percentile(lats, 99.0), head[choked].3);
    ex.metric("trials_per_cell", t);
    ex.head_metric("completed_burst", done);
    ex.head_metric("latency_p99_burst", p99);
    ex.head_metric("budget_drops_choked", drops);
    if ex.head != "PushPull" {
        if let Some(push_pull) = ex.row(&rows, "PushPull") {
            ex.metric("pushpull_completed_burst", push_pull[burst].0);
        }
    }
    ex.finish(Some(
        "Reading: completion under heavy traffic is decided by schedule\n\
         length, not message volume. The clustered protocols and\n\
         Name-Dropper run Theta(log n)-plus schedules and ferry every\n\
         rumor to completion; the observer-stopped baselines halt when\n\
         the first rumor is everywhere, stranding later arrivals — the\n\
         round-complexity ranking of E1 inverts. The bandwidth budget\n\
         (choked) is harsher than loss: a one-transfer budget makes the\n\
         burst's rumors queue behind each other, and a fixed schedule\n\
         ends long before the queue drains — completions collapse and\n\
         fairness with them, with only Name-Dropper's contact-heavy\n\
         rounds pushing a few rumors through.",
    ));
}
