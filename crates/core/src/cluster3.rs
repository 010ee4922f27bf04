//! **Algorithm 4 — `Cluster3(Δ)`**: computing a `Θ(Δ)`-clustering in
//! `O(log log n)` rounds with `O(n)` messages while **no node communicates
//! with more than `Δ` nodes in any round** (Theorem 4/18, Section 7).
//!
//! A `Δ`-clustering (Definition 1) clusters *every* node into clusters of
//! size `Θ(Δ)`. Given one, any broadcast/aggregation task runs with
//! `Δ`-bounded fan-in: coordination happens inside `Θ(Δ)`-sized clusters,
//! so a leader never answers more than `O(Δ)` requests per round.
//!
//! Structure: `Cluster2`'s growth and squaring phases, stopped early at
//! cluster size `≈ √(Δ·log n)`; a randomized `MergeClusters` step that
//! grows clusters to `Θ(Δ/C'')`; a `BoundedClusterPush` with *continuous*
//! `ClusterResize(Δ/C'')` (so recruiting never pushes a cluster past the
//! fan-in budget); a PULL phase joining the remaining nodes; and a final
//! `ClusterResize(Δ/C'')`.
//!
//! The head-room constant `C''` (default 4) guarantees `2·Δ/C'' ≤ Δ/2`, so
//! even a freshly doubled cluster keeps its leader within the fan-in bound.

use crate::config::{log2n, loglog2n, Cluster2Config, Cluster3Config};
use crate::primitives::{
    activate, bounded_recruit_iteration, dissolve, recruit_merge, resize, square,
    unclustered_pull_round, MergeRule, Who,
};
use crate::report::RunReport;
use crate::sim::{
    run_phases, ClusterSim, Phase, BOUNDED_CLUSTER_PUSH, GROW_INITIAL_CLUSTERS, SQUARE_CLUSTERS,
    UNCLUSTERED_NODES_PULL,
};

/// The phases of `Cluster3`, in order.
pub const PHASES: &[Phase<Plan>] = &[
    Phase::new(GROW_INITIAL_CLUSTERS, |sim, plan| {
        crate::cluster2::grow_initial_clusters(sim, &plan.c2);
    }),
    Phase::new(SQUARE_CLUSTERS, square_clusters),
    Phase::new("MergeClusters", merge_clusters),
    Phase::new(BOUNDED_CLUSTER_PUSH, bounded_cluster_push),
    Phase::new(UNCLUSTERED_NODES_PULL, unclustered_nodes_pull),
    Phase::new("FinalResize", final_resize),
];

/// What [`run_on`] works out once and every phase in [`PHASES`] reads.
pub struct Plan {
    /// The Cluster2 constants, with the size cap clamped to the fan-in
    /// bound.
    c2: Cluster2Config,
    /// The working cluster size `Δ'`.
    working: u64,
    /// The size at which squaring stops.
    s_target: f64,
    /// `MergeClusters`' activation probability.
    merge_p: f64,
}

/// Builds a `Θ(Δ)`-clustering over a fresh `n`-node network and returns
/// the simulation (for running broadcasts on top) plus the report (see
/// [`run_on`]).
///
/// # Panics
///
/// Panics if `delta < 8` (the construction needs a little head-room; the
/// paper assumes `Δ = log^{ω(1)} n`).
///
/// ```
/// use gossip_core::{cluster3, Cluster3Config};
/// let (sim, report) = cluster3::build(1 << 10, 64, &Cluster3Config::default());
/// assert!(report.success);
/// assert!(report.max_fan_in <= 64);
/// assert!(sim.clustering_stats().clusters > 1);
/// ```
#[must_use]
pub fn build(n: usize, delta: usize, cfg: &Cluster3Config) -> (ClusterSim, RunReport) {
    let mut sim = ClusterSim::new(n, &cfg.common);
    let report = run_on(&mut sim, delta, cfg);
    (sim, report)
}

/// The least fan-in bound `Δ` the construction runs with (the paper asks
/// for `Δ = log^{ω(1)} n`).
pub const MIN_DELTA: usize = 8;

/// Runs the `Δ`-clustering construction on an existing simulation.
///
/// The task is a construction, not a broadcast, reported in the
/// [`RunReport`] shape: `informed` counts **clustered** nodes, `success`
/// means every alive node is clustered, and `max_fan_in ≤ Δ` is the
/// Theorem 4 guarantee. The report holds a copy of the phases; the
/// simulation keeps them, so a broadcast run on top still lists them.
///
/// # Panics
///
/// Panics if `delta < 8` ([`MIN_DELTA`]).
pub fn run_on(sim: &mut ClusterSim, delta: usize, cfg: &Cluster3Config) -> RunReport {
    assert!(
        delta >= MIN_DELTA,
        "delta-clusterings need delta >= {MIN_DELTA} (paper: log^w(1) n)"
    );
    let n = sim.n();
    let l = log2n(n);
    let working = working_size(delta, cfg);

    // The fan-in bound must hold during construction too: intermediate
    // cluster sizes (a leader answers one pull per member) have to stay
    // safely below Δ at every instant, including between resizes. Growth
    // caps the cluster size at Δ/16 (transient ≤ 4·cap = Δ/4), and the
    // squaring target is set so one merge iteration — which multiplies
    // sizes by the clustered-fraction hit rate `s·f` — lands below Δ/2
    // even at several times the expected fraction.
    let mut c2 = cfg.c2.clone();
    c2.c_cap = c2.c_cap.min(delta as f64 / (16.0 * l)).max(2.0 / l);
    // Squaring stops at √(Δ'·log n / 32): post-merge sizes are then
    // ≈ s²·f·κ ≤ Δ'/4 for clustered fractions up to 8/log n.
    let s_target = (working as f64 * l / 32.0).sqrt().max(2.0);
    let merge_p = (cfg.merge_boost * s_target / working as f64).clamp(0.01, 1.0);
    let plan = Plan {
        c2,
        working,
        s_target,
        merge_p,
    };
    run_phases(sim, &plan, PHASES);

    let clustering = sim.clustering_stats();
    RunReport {
        clustering,
        phases: sim.phases().to_vec(),
        ..RunReport::of(&sim.net, clustering.clustered, clustering.unclustered == 0)
    }
}

/// The working cluster size `Δ' = ⌊Δ / C''⌋` (floored at 2) the
/// construction aims for — the single source of truth, exported so
/// consumers (the broadcast's loop budget, experiment E5's size-band
/// column) never re-derive it.
#[must_use]
pub fn working_size(delta: usize, cfg: &Cluster3Config) -> u64 {
    ((delta as f64 / cfg.c_headroom).floor() as u64).max(2)
}

/// `SquareClusters`: `Cluster2`'s squaring, stopped at the plan's target.
fn square_clusters(sim: &mut ClusterSim, plan: &Plan) {
    let n = sim.n();
    let f_est = 1.0 / log2n(n);
    let s = (crate::cluster2::size_cap(n, &plan.c2) / 2).max(2) as f64;
    dissolve(sim, s as u64, Who::ActiveOnly);
    activate(sim, 1.0);
    square(
        sim,
        s,
        plan.s_target,
        f_est * n as f64,
        f_est,
        plan.c2.square_safety,
        MergeRule::Random,
    );
}

/// `MergeClusters` (Algorithm 4 lines 7–10): activate each cluster with
/// probability `merge_boost·s/Δ'`; active clusters PUSH their ID and every
/// inactive cluster merges into a uniformly random received candidate, so
/// active clusters jump to `≈ Δ'/merge_boost` nodes in one `O(1)`-round
/// step and the remaining gap to `Δ'` costs `BoundedClusterPush` only
/// `O(1)` doubling iterations.
///
/// [`recruit_merge`] runs the push/merge step twice: at practical `Δ`
/// (where `Δ = log^{ω(1)} n` has not kicked in yet) inactive clusters that
/// heard no candidate in the first sweep would otherwise linger.
fn merge_clusters(sim: &mut ClusterSim, plan: &Plan) {
    recruit_merge(sim, plan.merge_p, MergeRule::Random);
}

/// `BoundedClusterPush` with continuous `ClusterResize(Δ')`: every
/// iteration resizes (keeping all clusters `< 2Δ'`), pushes, and applies
/// the 1.1 growth-stall rule.
fn bounded_cluster_push(sim: &mut ClusterSim, plan: &Plan) {
    activate(sim, 1.0);
    let budget = loglog2n(sim.n()).ceil() as u32 + plan.c2.bounded_push_slack;
    for _ in 0..budget {
        resize(sim, plan.working, Who::ActiveOnly);
        bounded_recruit_iteration(sim, plan.c2.bounded_push_stall);
    }
    // One final sweep so late recruits are size-bounded too.
    resize(sim, plan.working, Who::AllClustered);
}

/// The remaining nodes pull to join. Joins are not size-controlled by
/// themselves, so a resize follows every pull round — otherwise a popular
/// cluster could exceed `2Δ'` and its leader would answer more than `Δ`
/// membership pushes in the next collect round.
fn unclustered_nodes_pull(sim: &mut ClusterSim, plan: &Plan) {
    for _ in 0..loglog2n(sim.n()).ceil() as u32 + plan.c2.pull_slack {
        unclustered_pull_round(sim);
        resize(sim, plan.working, Who::AllClustered);
    }
}

/// Final shaping: dissolve runts (below `Δ'/2`), let their members rejoin
/// by pulling, and resize once more — tightening the `Θ(Δ)` size band.
fn final_resize(sim: &mut ClusterSim, plan: &Plan) {
    dissolve(sim, plan.working / 2, Who::AllClustered);
    for _ in 0..loglog2n(sim.n()).ceil() as u32 + 2 {
        unclustered_pull_round(sim);
        resize(sim, plan.working, Who::AllClustered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_clustering, check_delta_clustering};

    fn cfg(seed: u64) -> Cluster3Config {
        let mut c = Cluster3Config::default();
        c.common.seed = seed;
        c
    }

    #[test]
    fn builds_complete_clustering() {
        let (sim, report) = build(1 << 11, 64, &cfg(1));
        assert!(
            report.success,
            "unclustered: {}",
            report.clustering.unclustered
        );
        check_clustering(&sim).expect("well-formed");
    }

    #[test]
    fn fan_in_stays_below_delta() {
        let delta = 128;
        let (_sim, report) = build(1 << 12, delta, &cfg(2));
        assert!(
            report.max_fan_in <= delta as u64,
            "fan-in {} exceeded delta {delta}",
            report.max_fan_in
        );
    }

    #[test]
    fn cluster_sizes_are_theta_delta() {
        let delta = 64;
        let (sim, report) = build(1 << 11, delta, &cfg(3));
        assert!(report.success);
        // Θ(Δ): sizes within [Δ/16, Δ/2] given head-room C''=4.
        check_delta_clustering(&sim, delta / 16, delta / 2)
            .unwrap_or_else(|e| panic!("{e}; stats: {:?}", report.clustering));
    }

    #[test]
    fn rounds_scale_like_loglog_not_log() {
        let r_small = build(1 << 9, 32, &cfg(4)).1;
        let r_large = build(1 << 14, 32, &cfg(4)).1;
        let ratio = r_large.rounds as f64 / r_small.rounds.max(1) as f64;
        assert!(
            ratio < 2.2,
            "Δ-clustering rounds must grow slowly, ratio {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "delta >= 8")]
    fn tiny_delta_rejected() {
        let _ = build(256, 4, &cfg(0));
    }
}
