//! **Algorithm 2 — `Cluster2`**: the headline result (Theorem 2) —
//! `O(log log n)` rounds, **`O(1)` messages per node on average**, and
//! **`O(nb)` total bits**.
//!
//! The recipe is `Cluster1`'s, with three changes that buy the optimal
//! message/bit complexity (Section 5.1):
//!
//! * **A thin backbone.** Only `Θ(n/log n)` nodes ever get clustered during
//!   the expensive phases, so even when every clustered node transmits in
//!   each of the `Θ(log log n)` rounds only `o(n)` messages are spent.
//!   [`grow_initial_clusters`] enforces this with a growth-based stopping
//!   rule: a cluster that is already large (`≥ cap`) but grew by less than
//!   `2 − 1/log n` stops recruiting — which by Lemma 10 only happens once
//!   `Θ(n/log n)` nodes are clustered. Continuous `ClusterResize(cap)`
//!   keeps message sizes at `Θ(log n)` bits.
//! * **Squaring with a hit-rate penalty.** With only a `1/log n` fraction
//!   clustered, a cluster PUSH lands on another cluster with probability
//!   `Θ(1/log n)`, so each squaring iteration yields `s → Θ(s²/log n)` —
//!   still `ω(s^1.5)`, keeping the iteration count `O(log log n)`
//!   (Lemma 12).
//! * **A bounded PUSH before the final PULL.** [`bounded_cluster_push`]
//!   expands the single backbone cluster to `Θ(n)` nodes with
//!   growth-tracked pushes (stop when growth `< 1.1`, so total pushes form
//!   a geometric sum of `O(n)`); only then do the remaining nodes PULL,
//!   each succeeding with constant probability per round — `O(n)` messages
//!   in total (Lemma 13).

use crate::config::{log2n, loglog2n, Cluster2Config};
use crate::primitives::{
    activate, bounded_recruit_iteration, consolidate, dissolve, grow_control_iteration, merge_all,
    sample_singletons, seed_informed_leaders, share_rumor, square, unclustered_pull_round,
    MergeRule, Who,
};
use crate::report::RunReport;
use crate::sim::{
    run_phases, ClusterSim, Phase, BOUNDED_CLUSTER_PUSH, CLUSTER_SHARE, CONSOLIDATE,
    GROW_INITIAL_CLUSTERS, MERGE_ALL_CLUSTERS, SQUARE_CLUSTERS, UNCLUSTERED_NODES_PULL,
};

/// The phases of `Cluster2`, in order.
pub const PHASES: &[Phase<Cluster2Config>] = &[
    Phase::new(GROW_INITIAL_CLUSTERS, grow_initial_clusters),
    Phase::new(SQUARE_CLUSTERS, square_clusters),
    Phase::new(MERGE_ALL_CLUSTERS, merge_all_clusters),
    Phase::new(BOUNDED_CLUSTER_PUSH, bounded_cluster_push),
    Phase::new(UNCLUSTERED_NODES_PULL, unclustered_nodes_pull),
    Phase::new(CONSOLIDATE, |sim, _| consolidate(sim)),
    Phase::new(CLUSTER_SHARE, |sim, _| share_rumor(sim)),
];

/// Runs `Cluster2` on a fresh network of `n` nodes.
///
/// ```
/// use gossip_core::{cluster2, Cluster2Config};
/// let report = cluster2::run(1 << 11, &Cluster2Config::default());
/// assert!(report.success);
/// ```
#[must_use]
pub fn run(n: usize, cfg: &Cluster2Config) -> RunReport {
    let mut sim = ClusterSim::new(n, &cfg.common);
    run_on(&mut sim, cfg)
}

/// Runs `Cluster2` on an existing simulation (used by fault-injection
/// experiments).
pub fn run_on(sim: &mut ClusterSim, cfg: &Cluster2Config) -> RunReport {
    run_phases(sim, cfg, PHASES);
    sim.report()
}

/// The controlled-growth size cap: `c_cap·log₂ n` (the paper's
/// `C' log³ n`, one log-power reduced for laptop scales — README,
/// "Deviations from the paper"),
/// additionally shrunk at small `n` so that `expected seeds × cap` stays
/// at the `n/log n` backbone target even when the seed count is floored.
#[must_use]
pub fn size_cap(n: usize, cfg: &Cluster2Config) -> u64 {
    let n = cfg.parameter_n(n);
    let l = log2n(n);
    let seeds = (n as f64 / (cfg.c_sample * l * l)).max(16.0);
    let cap = ((n as f64 / l) / seeds).min(cfg.c_cap * l);
    (cap.round() as u64).max(4)
}

/// The chance `1/(c_sample·log₂² n)` that a node starts as a singleton
/// leader, floored so that 16 leaders are expected (but at most `1/2`).
#[must_use]
pub fn sample_rate(n: usize, cfg: &Cluster2Config) -> f64 {
    let n = cfg.parameter_n(n);
    let l = log2n(n);
    // Small-n floor: below n ≈ 16·c·log²n the asymptotic rate would give
    // fewer than 16 expected singletons — not enough to seed the backbone
    // whp. Only changes behaviour for n below a few thousand.
    (1.0 / (cfg.c_sample * l * l)).max((16.0 / n as f64).min(0.5))
}

/// The grow phase's iteration budget: enough doublings to reach the
/// [`size_cap`], plus slack.
#[must_use]
pub fn grow_budget(n: usize, cfg: &Cluster2Config) -> u32 {
    (size_cap(n, cfg) as f64).log2().ceil() as u32 + cfg.grow_slack + 2
}

/// Phase 1: sample [`sample_rate`]`(n)` singleton leaders and grow them
/// with the stall rule `size ≥ cap ∧ growth < 2 − 1/log n ⇒ deactivate`,
/// plus continuous resizing at the cap. Afterwards `Θ(n/log n)` nodes are
/// clustered into `Θ(log n)`-sized clusters whp (Lemma 11's shape).
pub fn grow_initial_clusters(sim: &mut ClusterSim, cfg: &Cluster2Config) {
    let n = cfg.parameter_n(sim.n());
    sample_singletons(sim, sample_rate(n, cfg));
    // Degrade gracefully at toy sizes: the whp sampling can leave zero
    // leaders, which would strand the rumor at the source forever.
    seed_informed_leaders(sim);
    let cap = size_cap(n, cfg);
    let stall = 2.0 - 1.0 / log2n(n);
    for _ in 0..grow_budget(n, cfg) {
        grow_control_iteration(sim, cap, stall);
    }
}

/// Phase 2: dissolve runts at `s₀ = cap/2` and square with the `1/log n`
/// hit-rate penalty until the cluster size reaches `√(n/log n)` (or the
/// cluster count is small enough for `MergeAllClusters` to take over).
pub fn square_clusters(sim: &mut ClusterSim, cfg: &Cluster2Config) {
    let n = cfg.parameter_n(sim.n());
    let f_est = 1.0 / log2n(n); // clustered fraction the grow phase calibrates to
    let s = (size_cap(n, cfg) / 2).max(2) as f64;
    let s_target = (n as f64 * f_est).sqrt();
    dissolve(sim, s as u64, Who::ActiveOnly);
    // As in Cluster1: a toy-size dissolve can erase every cluster, so the
    // informed node re-elects itself to keep the backbone non-empty.
    seed_informed_leaders(sim);
    // Re-activate everything still clustered: activation below re-samples.
    activate(sim, 1.0);
    square(
        sim,
        s,
        s_target,
        f_est * n as f64,
        f_est,
        cfg.square_safety,
        MergeRule::Random,
    );
}

/// Phase 3: merge the backbone clusters into the one with the smallest ID.
/// Iteration budget computed from the expected cluster count and the
/// `s·f` per-iteration absorption factor (`O(log log n)`, README,
/// "Deviations from the paper").
pub fn merge_all_clusters(sim: &mut ClusterSim, cfg: &Cluster2Config) {
    let n = cfg.parameter_n(sim.n());
    let l = log2n(n);
    let f_est = 1.0 / l;
    let s_est = ((n as f64 * f_est).sqrt())
        .min(f_est * n as f64 / 2.0)
        .max(2.0);
    let count_est = (f_est * n as f64 / s_est).max(2.0);
    let absorb = (s_est * f_est + 2.0).max(2.0);
    let iterations = ((count_est.ln() / absorb.ln()).ceil() as u32 + 1).clamp(2, 12);
    merge_all(sim, iterations);
}

/// Phase 4: `BoundedClusterPush` — the backbone cluster (now `Θ(n/log n)`
/// nodes) recruits with growth tracking until expansion stalls at `Θ(n)`
/// nodes; `⌈log₂ log₂ n⌉`-style budget, `O(n)` messages total.
pub fn bounded_cluster_push(sim: &mut ClusterSim, cfg: &Cluster2Config) {
    activate(sim, 1.0);
    let budget = log2n(cfg.parameter_n(sim.n())).log2().ceil() as u32 + cfg.bounded_push_slack;
    for _ in 0..budget {
        bounded_recruit_iteration(sim, cfg.bounded_push_stall);
    }
}

/// Phase 5: the remaining unclustered nodes PULL to join; with `Θ(n)`
/// nodes already clustered each puller succeeds with constant probability,
/// so the expected total is `O(n)` messages (Lemma 13 / Theorem 19).
pub fn unclustered_nodes_pull(sim: &mut ClusterSim, cfg: &Cluster2Config) {
    let budget = loglog2n(cfg.parameter_n(sim.n())).ceil() as u32 + cfg.pull_slack;
    for _ in 0..budget {
        unclustered_pull_round(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_clustering;

    fn cfg(seed: u64) -> Cluster2Config {
        let mut c = Cluster2Config::default();
        c.common.seed = seed;
        c
    }

    #[test]
    fn informs_all_nodes_small() {
        for seed in 0..3 {
            let r = run(512, &cfg(seed));
            assert!(
                r.success,
                "seed {seed}: {}/{} informed",
                r.informed, r.alive
            );
        }
    }

    #[test]
    fn informs_all_nodes_medium() {
        let r = run(1 << 13, &cfg(1));
        assert!(r.success, "{}/{} informed", r.informed, r.alive);
    }

    #[test]
    fn grow_phase_builds_thin_backbone() {
        let c = cfg(2);
        let n = 1 << 14;
        let mut sim = ClusterSim::new(n, &c.common);
        grow_initial_clusters(&mut sim, &c);
        check_clustering(&sim).expect("well-formed");
        let frac = sim.clustered_count() as f64 / n as f64;
        let l = log2n(n);
        assert!(
            frac <= 6.0 / l,
            "backbone must stay thin: fraction {frac} vs 1/log n = {}",
            1.0 / l
        );
        assert!(
            frac >= 0.2 / l,
            "backbone must exist: fraction {frac} vs 1/log n = {}",
            1.0 / l
        );
    }

    #[test]
    fn grow_phase_caps_cluster_sizes() {
        let c = cfg(3);
        let n = 1 << 13;
        let mut sim = ClusterSim::new(n, &c.common);
        grow_initial_clusters(&mut sim, &c);
        let stats = sim.clustering_stats();
        // Splitting bounds growing clusters by 2·cap; a cluster that
        // deactivates mid-doubling can land somewhat above that (the
        // paper's (1+Θ(1))·C'·log n). Constant-factor bound:
        assert!(
            (stats.max_size as u64) < 4 * size_cap(n, &c),
            "resize keeps clusters at O(cap): {} vs cap {}",
            stats.max_size,
            size_cap(n, &c)
        );
    }

    #[test]
    fn message_complexity_is_constant_per_node() {
        // The headline claim: messages/node stays bounded as n grows.
        let small = run(1 << 10, &cfg(4));
        let large = run(1 << 14, &cfg(4));
        assert!(small.success && large.success);
        let growth = large.messages_per_node() / small.messages_per_node();
        assert!(
            growth < 1.6,
            "messages per node should not grow with n: {} -> {}",
            small.messages_per_node(),
            large.messages_per_node()
        );
    }
}
