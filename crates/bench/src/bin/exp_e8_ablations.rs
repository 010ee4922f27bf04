//! **E8 — Ablations of the paper's design choices** (DESIGN.md §4).
//!
//! * **A: squaring vs doubling.** The heart of the `O(log log n)` bound is
//!   squaring the cluster size per `O(1)`-round iteration. Replacing the
//!   `1/s` activation by a constant `1/2` activation (clusters merely pair
//!   up → size doubles) needs `Θ(log n)` iterations instead.
//! * **B: the thin backbone.** Cluster2 clusters only `Θ(n/log n)` nodes
//!   during its expensive phases. Lifting the growth cap (no stall, no
//!   resize) drags the whole network into the backbone and the message
//!   complexity loses its `O(1)`-per-node shape.
//! * **C: the second recruit PUSH.** Each squaring iteration pushes twice;
//!   the second sweep is what merges inactive clusters that the first one
//!   missed. With a single sweep, stragglers pile up.

#![forbid(unsafe_code)]

use gossip_bench::{algos_by_name, pow2, Experiment, Spec};
use gossip_core::primitives::{
    activate, merge_iteration, resize, sample_singletons, MergeOpts, MergeRule, Who,
};
use gossip_core::{cluster2, Cluster2Config, ClusterSim, CommonConfig};
use gossip_harness::{par_map_trials, run_trials, Summary, Table};

fn main() {
    // The ablations run Cluster2's internals against modified copies of
    // themselves — there is no algorithm to select, and no scenario to
    // restrict or re-time.
    let mut ex = Experiment::start(Spec {
        name: "e8",
        default: (vec![1 << 8, 1 << 10, 1 << 12], 5),
        full: (vec![1 << 8, 1 << 10, 1 << 12, 1 << 14], 10),
        algos: algos_by_name(&["Cluster2"]),
        fixed: true,
        ignore_topo: true,
        ignore_engine: true,
        ..Spec::default()
    });
    let (ns, trials) = (ex.sizes.clone(), ex.trials);

    // --- A: squaring vs doubling -------------------------------------
    let mut a = Table::new(
        "E8-A: merge all singletons into one cluster — squaring vs doubling (iterations used)",
        &[
            "n",
            "squaring (1/s activation)",
            "doubling (1/2 activation)",
            "speedup",
        ],
    );
    for &n in &ns {
        let sq = run_trials(0xE8A, &format!("sq{n}"), trials, |seed| {
            f64::from(merge_to_one(n, seed, Schedule::Squaring))
        });
        let db = run_trials(0xE8A, &format!("db{n}"), trials, |seed| {
            f64::from(merge_to_one(n, seed, Schedule::Doubling))
        });
        a.push_row(vec![
            pow2(n),
            format!("{:.1}", sq.mean),
            format!("{:.1}", db.mean),
            format!("{:.1}x", db.mean / sq.mean.max(1.0)),
        ]);
    }
    ex.emit(&a);

    // --- B: thin backbone on/off -------------------------------------
    let mut b = Table::new(
        "E8-B: grow phase with and without the stall/resize control (msgs/node)",
        &[
            "n",
            "capped backbone (paper)",
            "uncapped",
            "blow-up",
            "clustered frac capped",
            "uncapped",
        ],
    );
    let mut headline_blowup = 0.0f64;
    for &n in &ns {
        let grow = |label: String, capped: bool| {
            let reps = par_map_trials(0xE8B, &label, trials, |seed| grow_only(n, seed, capped));
            let msgs: Vec<f64> = reps.iter().map(|&(m, _)| m).collect();
            let frac: f64 = reps.iter().map(|&(_, f)| f).sum();
            (Summary::from_samples(&msgs), frac / f64::from(trials))
        };
        let (capped, frac_c) = grow(format!("c{n}"), true);
        let (uncapped, frac_u) = grow(format!("u{n}"), false);
        headline_blowup = uncapped.mean / capped.mean.max(0.1);
        b.push_row(vec![
            pow2(n),
            format!("{:.1}", capped.mean),
            format!("{:.1}", uncapped.mean),
            format!("{headline_blowup:.1}x"),
            format!("{frac_c:.3}"),
            format!("{frac_u:.3}"),
        ]);
    }
    ex.emit(&b);

    // --- C: one vs two recruit pushes per squaring iteration ----------
    let mut c = Table::new(
        "E8-C: clusters left behind after one squaring iteration (n = 2^12)",
        &[
            "recruit pushes",
            "clusters remaining",
            "unmerged stragglers",
        ],
    );
    for reps in [1u32, 2] {
        let recs = par_map_trials(0xE8C, &format!("r{reps}"), trials, |seed| {
            one_square_iteration(1 << 12, seed, reps)
        });
        let cluster_counts: Vec<f64> = recs.iter().map(|&(c, _)| c as f64).collect();
        let stragglers: f64 = recs.iter().map(|&(_, s)| s as f64).sum();
        let clusters = Summary::from_samples(&cluster_counts);
        c.push_row(vec![
            reps.to_string(),
            format!("{:.0}", clusters.mean),
            format!("{:.0}", stragglers / f64::from(trials)),
        ]);
    }
    ex.emit(&c);
    ex.metric("trials_per_cell", f64::from(trials));
    ex.metric("uncapped_backbone_blowup_largest_n", headline_blowup);
    ex.finish(Some(
        "Reading: A shows the doubly-exponential growth of the squaring\n\
         schedule (the gap widens with n); B shows the thin backbone is\n\
         what buys O(1) msgs/node; C shows the second ClusterPUSH is what\n\
         leaves no inactive cluster behind (paper, Lemma 6).",
    ));
}

/// Runs only the controlled-growth phase; `capped = false` removes the
/// stall rule and the resize (the ablated design). Returns
/// (messages per node, clustered fraction).
fn grow_only(n: usize, seed: u64, capped: bool) -> (f64, f64) {
    use gossip_core::primitives::grow_control_iteration;
    let mut cfg = Cluster2Config::default();
    cfg.common.seed = seed;
    let mut sim = ClusterSim::new(n, &cfg.common);
    let l = gossip_core::config::log2n(n);
    let p = (1.0 / (cfg.c_sample * l * l)).max((16.0 / n as f64).min(0.5));
    sample_singletons(&mut sim, p);
    let cap = if capped {
        gossip_core::cluster2::size_cap(n, &cfg)
    } else {
        u64::MAX / 4
    };
    let stall = 2.0 - 1.0 / l;
    let budget = (gossip_core::cluster2::size_cap(n, &cfg) as f64)
        .log2()
        .ceil() as u32
        + cfg.grow_slack
        + 2;
    for _ in 0..budget {
        grow_control_iteration(&mut sim, cap, stall);
    }
    let m = sim.net.metrics();
    (
        m.messages as f64 / n as f64,
        sim.clustered_count() as f64 / sim.alive_count() as f64,
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Schedule {
    Squaring,
    Doubling,
}

/// Merges a network of singletons into one cluster with the given
/// activation schedule; returns the iterations used.
fn merge_to_one(n: usize, seed: u64, schedule: Schedule) -> u32 {
    let mut common = CommonConfig::default();
    common.seed = seed;
    let mut sim = ClusterSim::new(n, &common);
    sample_singletons(&mut sim, 1.0);
    let mut s: f64 = 2.0;
    for iter in 1..=64 {
        resize(&mut sim, s as u64, Who::AllClustered);
        // Endgame guard (both schedules): keep at least ~4 expected active
        // clusters so the recruiting merge never starves — the role
        // MergeAllClusters plays in the full algorithm.
        let count = sim.clustering_stats().clusters.max(1) as f64;
        let p = match schedule {
            Schedule::Squaring => (1.0 / s).max(4.0 / count).min(0.5),
            Schedule::Doubling => 0.5,
        };
        activate(&mut sim, p);
        for _ in 0..2 {
            recruit_push(&mut sim, MergeRule::Smallest);
        }
        gossip_core::primitives::flatten_round(&mut sim);
        s = match schedule {
            Schedule::Squaring => (s * s / 4.0).max(2.0 * s),
            Schedule::Doubling => 2.0 * s,
        }
        .min(n as f64);
        if sim.clustering_stats().clusters <= 1 {
            return iter;
        }
    }
    64
}

/// Runs the grow phase plus exactly one squaring iteration with `reps`
/// recruit pushes; returns (clusters remaining, clusters still below the
/// iteration's target size).
fn one_square_iteration(n: usize, seed: u64, reps: u32) -> (usize, usize) {
    let mut cfg = Cluster2Config::default();
    cfg.common.seed = seed;
    let mut sim = ClusterSim::new(n, &cfg.common);
    cluster2::grow_initial_clusters(&mut sim, &cfg);
    let s = cluster2::size_cap(n, &cfg) / 2;
    resize(&mut sim, s, Who::AllClustered);
    activate(&mut sim, 1.0 / s as f64);
    for _ in 0..reps {
        recruit_push(&mut sim, MergeRule::Random);
    }
    gossip_core::primitives::flatten_round(&mut sim);
    let map = sim.cluster_map();
    let target = 2 * s as usize;
    let small = map.values().filter(|m| m.len() < target).count();
    (map.len(), small)
}

/// One recruiting ClusterPUSH of a squaring iteration: active clusters
/// push, inactive ones merge into them.
fn recruit_push(sim: &mut ClusterSim, rule: MergeRule) {
    merge_iteration(
        sim,
        MergeOpts {
            pushers: Who::ActiveOnly,
            inactive_merge_only: true,
            rule,
            smaller_only: false,
            mark_merged_active: true,
        },
    );
}
