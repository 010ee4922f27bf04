//! Structural reconstruction of **Avin–Elsässer (DISC 2013)** — the
//! `O(√log n)`-round gossip this paper improves on (its Theorem 1).
//!
//! The DISC paper's exact pseudocode is not reproduced in the present
//! paper, which quotes only its complexity envelope: `O(√log n)` rounds,
//! `Θ(√log n)` messages per node, `O(n log^{3/2} n + n·b·…)` bits. On the
//! trade-off curve of Lemma 16 (`rounds ≥ log n / log Δ`), `√log n` rounds
//! correspond exactly to fan-in `Δ = 2^{√log n}` — so we reconstruct the
//! algorithm as the **fixed-fanout clustering point** of that curve:
//!
//! 1. **Grow groups** of size `g = 2^{⌈√log₂ n⌉}`: sample `≈ n/g`
//!    singleton leaders and PUSH-recruit for `⌈√log₂ n⌉ + O(1)` rounds
//!    (each node pushes at most once per round → `Θ(√log n)` messages per
//!    node); resize to `[g, 2g)` and let stragglers pull in.
//! 2. **Broadcast** over the resulting `Θ(g)`-clustering with
//!    ClusterPUSH-PULL: `log n / log g = √log n` iterations, each
//!    multiplying the informed set by `Θ(g)` because a single hit anywhere
//!    in a group informs all its members through the leader hub.
//!
//! Both the round count and the per-node message count are `Θ(√log n)`,
//! and ID-carrying messages of `Θ(log n)` bits number `Θ(n·√log n)` —
//! reproducing all three quoted complexities (README, "Deviations from
//! the paper", lists this substitution).

use gossip_core::config::log2n;
use gossip_core::primitives::{
    grow_push_round, resize, sample_singletons, unclustered_pull_round, Who,
};
use gossip_core::report::RunReport;
use gossip_core::{cluster_push_pull, ClusterSim, CommonConfig, PushPullConfig};

/// The group size `g = 2^{⌈√log₂ n⌉}` for a network of `n` nodes.
#[must_use]
pub fn group_size(n: usize) -> u64 {
    1u64 << (log2n(n).sqrt().ceil() as u32)
}

/// Runs the reconstruction on a fresh `n`-node network.
///
/// ```
/// use gossip_baselines::{avin_elsasser, CommonConfig};
/// let report = avin_elsasser::run(1 << 10, &CommonConfig::default());
/// assert!(report.success);
/// ```
#[must_use]
pub fn run(n: usize, cfg: &CommonConfig) -> RunReport {
    let mut sim = ClusterSim::new(n, cfg);
    let g = group_size(n);
    let sqrt_l = log2n(n).sqrt().ceil() as u32;

    // Phase 1: grow groups of size ≈ g by plain PUSH recruiting.
    sim.begin_phase();
    sample_singletons(&mut sim, (1.0 / g as f64).min(0.5));
    for _ in 0..(sqrt_l + 2) {
        grow_push_round(&mut sim, Who::AllClustered);
    }
    resize(&mut sim, g, Who::AllClustered);
    // Stragglers join by pulling (constant expected rounds at >60% coverage).
    for _ in 0..(sqrt_l.max(3)) {
        unclustered_pull_round(&mut sim);
    }
    resize(&mut sim, g, Who::AllClustered);
    sim.end_phase("GrowGroups");

    // Phase 2: ClusterPUSH-PULL broadcast over the g-clustering. The
    // effective fan-in bound is 4g (head-room factor 4 in broadcast_on's
    // working-size computation keeps the working size at g).
    let mut pp = PushPullConfig::default();
    pp.common = cfg.clone();
    cluster_push_pull::broadcast_on(&mut sim, (4 * g) as usize, &pp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informs_everyone() {
        for seed in 0..3 {
            let mut cfg = CommonConfig::default();
            cfg.seed = seed;
            let r = run(1 << 10, &cfg);
            assert!(r.success, "seed {seed}: {}/{}", r.informed, r.alive);
        }
    }

    #[test]
    fn group_size_is_two_to_sqrt_log() {
        assert_eq!(group_size(1 << 16), 16); // √16 = 4 -> 2^4
        assert_eq!(group_size(1 << 9), 8); // √9 = 3 -> 2^3
        assert_eq!(group_size(1 << 25), 32); // √25 = 5 -> 2^5
    }

    #[test]
    fn faster_than_push_at_scale() {
        let cfg = CommonConfig::default();
        let ae = run(1 << 14, &cfg);
        assert!(ae.success);
        // The asymptotic win (√log n vs log n) needs astronomically large
        // n to show in absolute rounds; what must hold at laptop scale is
        // the *scaling*: AE rounds grow much slower than push's.
        let ae_small = run(1 << 8, &cfg);
        let push_small = crate::push::run(1 << 8, &cfg);
        let push_large = crate::push::run(1 << 14, &cfg);
        let ae_growth = ae.rounds as f64 / ae_small.rounds.max(1) as f64;
        let push_growth = push_large.rounds as f64 / push_small.rounds.max(1) as f64;
        assert!(
            ae_growth < push_growth + 0.3,
            "AE rounds growth {ae_growth} should not exceed push growth {push_growth}"
        );
    }

    #[test]
    fn messages_per_node_stay_near_sqrt_log() {
        let cfg = CommonConfig::default();
        let r = run(1 << 12, &cfg);
        assert!(r.success);
        // Θ(√log n) with a small constant: from 12 bits of log, √L ≈ 3.5.
        assert!(
            r.messages_per_node() < 25.0 * 3.5,
            "msgs/node {}",
            r.messages_per_node()
        );
    }
}
