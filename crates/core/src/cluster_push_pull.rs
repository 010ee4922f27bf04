//! **Algorithm 3 — `ClusterPUSH-PULL(Δ)`**: broadcast over a
//! `Δ`-clustering in `O(log n / log Δ)` rounds with `O(n)` rumor
//! transmissions (Lemma 17), realizing every point of the
//! round-versus-fan-in trade-off curve of Lemma 16.
//!
//! Per main-loop iteration (`Θ(log n / log Δ)` of them):
//!
//! 1. every member of a **newly informed** cluster PUSHes the rumor to a
//!    random node (each cluster pushes in exactly one iteration, so pushes
//!    total `O(n)`);
//! 2. a `ClusterShare` folds fresh hits into whole-cluster informedness —
//!    one hit anywhere in a cluster informs all `Θ(Δ)` members, which is
//!    where the per-iteration `×Θ(Δ)` growth comes from;
//! 3. uninformed nodes PULL from a random node (the paper's ClusterPULL
//!    cleanup; replies carry the rumor only when the responder is
//!    informed, so *transmissions* stay `O(n)` while header-only requests
//!    are reported separately — see EXPERIMENTS.md E6).

use crate::config::{log2n, PushPullConfig};
use crate::msg::MsgKind;
use crate::node::ClusterNode;
use crate::primitives::share_rumor;
use crate::report::RunReport;
use crate::sim::{pull_round, push_round, run_phases, ClusterSim, Phase};
use phonecall::Target;

/// Builds a `Δ`-clustering with [`crate::cluster3`] and broadcasts the
/// rumor over it.
///
/// Returns the broadcast report; `report.max_fan_in` covers the whole run
/// including the clustering construction.
///
/// ```
/// use gossip_core::{cluster_push_pull, PushPullConfig};
/// let report = cluster_push_pull::run(1 << 10, 64, &PushPullConfig::default());
/// assert!(report.success);
/// assert!(report.max_fan_in <= 64);
/// ```
#[must_use]
pub fn run(n: usize, delta: usize, cfg: &PushPullConfig) -> RunReport {
    let mut c3 = cfg.cluster3.clone();
    c3.common = cfg.common.clone();
    let (mut sim, _) = crate::cluster3::build(n, delta, &c3);
    broadcast_on(&mut sim, delta, cfg)
}

/// The main loop's phase name; its rounds follow the `log n / log Δ` trade-off.
pub const LOOP_PHASE: &str = "PushPullLoop";

/// The phases of the broadcast, in order; each reads the loop budget.
pub const PHASES: &[Phase<u32>] = &[
    // Initial share: the source's cluster becomes the seed (epoch 0).
    Phase::new("SeedShare", |sim, _| share_with_epoch(sim, 0)),
    Phase::new(LOOP_PHASE, |sim, &budget| push_pull_loop(sim, budget)),
    // Final share (Algorithm 3 line 6).
    Phase::new("FinalShare", |sim, &last| share_with_epoch(sim, last + 1)),
];

/// Broadcasts the rumor over an existing `Δ`-clustering.
pub fn broadcast_on(sim: &mut ClusterSim, delta: usize, cfg: &PushPullConfig) -> RunReport {
    let working = crate::cluster3::working_size(delta, &cfg.cluster3) as f64;
    // Growth factor ≈ Δ'/2 per iteration.
    let budget = (log2n(sim.n()) / (working / 2.0).log2().max(1.0)).ceil() as u32 + cfg.loop_slack;
    run_phases(sim, &budget, PHASES);
    sim.report()
}

/// The main loop: epoch by epoch, the newly informed clusters push, a
/// share spreads each hit through its cluster, and the uninformed pull.
fn push_pull_loop(sim: &mut ClusterSim, budget: u32) {
    for epoch in 1..=budget {
        newly_informed_push_round(sim, epoch - 1);
        share_with_epoch(sim, epoch);
        uninformed_pull_round(sim, epoch);
    }
}

/// Members of clusters informed at `epoch` push the rumor to random nodes.
fn newly_informed_push_round(sim: &mut ClusterSim, epoch: u32) {
    let informed_at = &sim.informed_at;
    push_round(
        &mut sim.net,
        sim.wire,
        |s| {
            (s.informed && informed_at[s.idx.as_usize()] == Some(epoch))
                .then_some((Target::Random, MsgKind::Rumor))
        },
        |s, kind| s.informed |= kind == MsgKind::Rumor,
    );
}

/// `ClusterShare`, then [`stamp`]: the epoch is the loop's program
/// counter — synchronous and known to every node — so no extra bits
/// travel.
fn share_with_epoch(sim: &mut ClusterSim, epoch: u32) {
    share_rumor(sim);
    stamp(sim, epoch);
}

/// Stamps `epoch` on every informed node not yet stamped. At epoch 0
/// that is the source's cluster, the seed.
fn stamp(sim: &mut ClusterSim, epoch: u32) {
    sim.informed_at.resize(sim.net.len(), None);
    for (s, at) in sim.net.states().iter().zip(&mut sim.informed_at) {
        if s.informed && at.is_none() {
            *at = Some(epoch);
        }
    }
}

/// Uninformed nodes PULL from a random node; informed responders reply
/// with the rumor.
fn uninformed_pull_round(sim: &mut ClusterSim, epoch: u32) {
    for s in sim.net.states() {
        if s.informed {
            sim.replies.set(s.idx, sim.wire.msg(MsgKind::Rumor));
        }
    }
    let ask = |s: &ClusterNode| (!s.informed).then_some(Target::Random);
    pull_round(&mut sim.net, &mut sim.replies, ask, |s, kind| {
        s.informed |= kind == MsgKind::Rumor;
    });
    stamp(sim, epoch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> PushPullConfig {
        let mut c = PushPullConfig::default();
        c.common.seed = seed;
        c
    }

    #[test]
    fn broadcast_succeeds() {
        for seed in 0..3 {
            let r = run(1 << 10, 64, &cfg(seed));
            assert!(
                r.success,
                "seed {seed}: {}/{} informed",
                r.informed, r.alive
            );
        }
    }

    #[test]
    fn fan_in_respects_delta() {
        let delta = 64;
        let r = run(1 << 11, delta, &cfg(1));
        assert!(r.success);
        assert!(
            r.max_fan_in <= delta as u64,
            "fan-in {} > {delta}",
            r.max_fan_in
        );
    }

    #[test]
    fn larger_delta_needs_fewer_loop_rounds() {
        // Lemma 16/17 trade-off: rounds ~ log n / log Δ.
        let n = 1 << 12;
        let small = run(n, 16, &cfg(2));
        let large = run(n, 256, &cfg(2));
        assert!(small.success && large.success);
        let loop_rounds = |r: &RunReport| r.phase_rounds(LOOP_PHASE);
        assert!(
            loop_rounds(&large) < loop_rounds(&small),
            "Δ=256 loop ({}) should beat Δ=16 loop ({})",
            loop_rounds(&large),
            loop_rounds(&small)
        );
    }

    #[test]
    fn payload_messages_stay_linear() {
        let small = run(1 << 10, 32, &cfg(3));
        let large = run(1 << 13, 32, &cfg(3));
        let growth = large.payload_messages_per_node() / small.payload_messages_per_node();
        assert!(
            growth < 1.7,
            "rumor transmissions per node should stay O(1): {} -> {}",
            small.payload_messages_per_node(),
            large.payload_messages_per_node()
        );
    }
}
