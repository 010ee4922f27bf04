//! **Algorithm 1 — `Cluster1`**: the `O(log log n)`-round gossip algorithm
//! of Section 4 (Theorem 9).
//!
//! Structure (procedure names follow the paper):
//!
//! 1. [`grow_initial_clusters`] — sample `≈ n/(C log n)` singleton leaders
//!    and run `Θ(log log n)` PUSH-recruit rounds until ≈90% of all nodes
//!    sit in clusters of size `≥ C' log n`;
//! 2. [`square_clusters`] — repeatedly square the cluster size: resize to
//!    `[s, 2s)`, activate each cluster with probability `1/s`, and let the
//!    active clusters recruit all inactive ones in two push/merge
//!    iterations, giving size `Θ(s²)`;
//! 3. [`merge_all_clusters`] — merge everything into the cluster with the
//!    smallest ID;
//! 4. [`unclustered_nodes_pull`] — the remaining unclustered nodes PULL
//!    random nodes for `Θ(log log n)` rounds to join;
//! 5. a final `ClusterShare(message)` spreads the rumor inside the now
//!    network-spanning cluster.
//!
//! `Cluster1` optimizes only the round count — a constant fraction of
//! nodes transmits in most rounds, so its message complexity is
//! `Θ(log log n)` per node (compare [`crate::cluster2`]).

use crate::config::{log2n, loglog2n, Cluster1Config};
use crate::primitives::{
    dissolve, grow_push_round, merge_all, sample_singletons, seed_informed_leaders, share_rumor,
    square, unclustered_pull_round, MergeRule, Who,
};
use crate::report::RunReport;
use crate::sim::{
    run_phases, ClusterSim, Phase, CLUSTER_SHARE, CONSOLIDATE, GROW_INITIAL_CLUSTERS,
    MERGE_ALL_CLUSTERS, SQUARE_CLUSTERS, UNCLUSTERED_NODES_PULL,
};

/// The phases of `Cluster1`, in order.
pub const PHASES: &[Phase<Cluster1Config>] = &[
    Phase::new(GROW_INITIAL_CLUSTERS, grow_initial_clusters),
    Phase::new(SQUARE_CLUSTERS, square_clusters),
    Phase::new(MERGE_ALL_CLUSTERS, merge_all_clusters),
    Phase::new(UNCLUSTERED_NODES_PULL, unclustered_nodes_pull),
    // One extra merge sweep absorbs any residual secondary cluster into the
    // giant one before sharing ("2 iterations suffice" is asymptotic; the
    // budget stays O(log log n) — README, "Deviations from the paper").
    Phase::new(CONSOLIDATE, |sim, _| merge_all(sim, 2)),
    Phase::new(CLUSTER_SHARE, |sim, _| share_rumor(sim)),
];

/// Runs `Cluster1` on a fresh network of `n` nodes.
///
/// ```
/// use gossip_core::{cluster1, Cluster1Config};
/// let report = cluster1::run(1 << 10, &Cluster1Config::default());
/// assert!(report.success);
/// ```
#[must_use]
pub fn run(n: usize, cfg: &Cluster1Config) -> RunReport {
    let mut sim = ClusterSim::new(n, &cfg.common);
    run_on(&mut sim, cfg)
}

/// Runs `Cluster1` on an existing simulation (used by the fault-injection
/// experiments, which pre-fail nodes).
pub fn run_on(sim: &mut ClusterSim, cfg: &Cluster1Config) -> RunReport {
    run_phases(sim, cfg, PHASES);
    sim.report()
}

/// Phase 1: sample singleton leaders with probability `1/(C·log₂ n)` and
/// PUSH-recruit for `⌈log₂(C·log₂ n)⌉ + slack` rounds (the `Θ(log log n)`
/// loop of the paper, with the constant made explicit).
pub fn grow_initial_clusters(sim: &mut ClusterSim, cfg: &Cluster1Config) {
    let n = sim.n();
    let l = log2n(n);
    // Small-n floor (as in Cluster2): guarantee a few expected seeds even
    // when n is below ~C·log n.
    let p = (1.0 / (cfg.c_sample * l)).max((4.0 / n as f64).min(0.5));
    sample_singletons(sim, p);
    // Degrade gracefully at toy sizes: the whp sampling can leave zero
    // leaders, which would strand the rumor at the source forever.
    seed_informed_leaders(sim);
    let budget = (cfg.c_sample * l).log2().ceil() as u32 + cfg.grow_slack;
    for _ in 0..budget {
        grow_push_round(sim, Who::AllClustered);
    }
}

/// Phase 2: dissolve runts, then repeatedly square the cluster size until
/// it reaches `√(n / log₂ n)`.
pub fn square_clusters(sim: &mut ClusterSim, cfg: &Cluster1Config) {
    let n = sim.n();
    let l = log2n(n);
    let s = (cfg.c_min * l).round().max(2.0);
    let s_target = (n as f64 / l).sqrt();
    dissolve(sim, s as u64, Who::AllClustered);
    // At toy sizes the dissolve can erase *every* cluster (all below the
    // runt threshold), which would strand the rumor; the informed node
    // re-elects itself so at least one cluster always survives.
    seed_informed_leaders(sim);
    // Guard: with few clusters the 1/s activation would concentrate too
    // hard; MergeAllClusters absorbs small cluster counts directly.
    square(
        sim,
        s,
        s_target,
        0.9 * n as f64,
        1.0,
        cfg.square_safety,
        MergeRule::Smallest,
    );
}

/// Phase 3: merge every cluster into the smallest cluster ID. The paper
/// performs exactly two iterations; the budget here is computed from the
/// expected cluster count and per-iteration absorption factor (still
/// `O(log log n)`, see README, "Deviations from the paper").
pub fn merge_all_clusters(sim: &mut ClusterSim, _cfg: &Cluster1Config) {
    let n = sim.n();
    let l = log2n(n);
    let s_final = (n as f64 / l).sqrt().max(2.0);
    let count_est = (0.9 * n as f64 / s_final).max(2.0);
    let absorb = (0.9 * s_final).max(2.0);
    let iterations = (count_est.ln() / absorb.ln()).ceil() as u32 + 1;
    merge_all(sim, iterations.max(2));
}

/// Phase 4: unclustered nodes PULL random nodes for `⌈2·log₂ log₂ n⌉ +
/// slack` rounds (the quadratic shrinkage phase of Lemma 8).
pub fn unclustered_nodes_pull(sim: &mut ClusterSim, cfg: &Cluster1Config) {
    let budget = (2.0 * loglog2n(sim.n())).ceil() as u32 + cfg.pull_slack;
    for _ in 0..budget {
        unclustered_pull_round(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_clustering;

    fn cfg(seed: u64) -> Cluster1Config {
        let mut c = Cluster1Config::default();
        c.common.seed = seed;
        c
    }

    #[test]
    fn informs_all_nodes_small() {
        for seed in 0..3 {
            let r = run(256, &cfg(seed));
            assert!(
                r.success,
                "seed {seed}: {}/{} informed",
                r.informed, r.alive
            );
        }
    }

    #[test]
    fn informs_all_nodes_medium() {
        let r = run(1 << 12, &cfg(1));
        assert!(r.success, "{}/{} informed", r.informed, r.alive);
        assert_eq!(r.clustering.clusters, 1, "one network-spanning cluster");
    }

    #[test]
    fn grow_phase_clusters_most_nodes() {
        let mut sim = ClusterSim::new(1 << 12, &cfg(2).common);
        grow_initial_clusters(&mut sim, &cfg(2));
        let frac = sim.clustered_count() as f64 / sim.alive_count() as f64;
        assert!(frac >= 0.85, "clustered fraction {frac}");
        check_clustering(&sim).expect("well-formed");
    }

    #[test]
    fn square_phase_reaches_target_sizes() {
        let c = cfg(3);
        let mut sim = ClusterSim::new(1 << 12, &c.common);
        grow_initial_clusters(&mut sim, &c);
        square_clusters(&mut sim, &c);
        check_clustering(&sim).expect("well-formed");
        let stats = sim.clustering_stats();
        let target = ((1 << 12) as f64 / 12.0).sqrt();
        assert!(
            stats.mean_size >= target / 4.0,
            "mean cluster size {} should approach {target}",
            stats.mean_size
        );
    }

    #[test]
    fn rounds_scale_like_loglog() {
        // Growth from n=2^9 to n=2^14 should increase rounds far slower
        // than log n would (32x size increase).
        let r_small = run(1 << 9, &cfg(5));
        let r_large = run(1 << 14, &cfg(5));
        let ratio = r_large.rounds as f64 / r_small.rounds.max(1) as f64;
        assert!(
            ratio < 2.2,
            "rounds should grow like log log n, ratio {ratio}"
        );
        assert!(r_large.success);
    }
}
