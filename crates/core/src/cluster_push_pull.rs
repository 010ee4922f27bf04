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
use crate::msg::{Msg, MsgKind};
use crate::primitives::share_rumor;
use crate::report::RunReport;
use crate::sim::ClusterSim;
use phonecall::{Action, Delivery, Target};

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
    c3.c2.common = cfg.common.clone();
    let (mut sim, _delta_report) = crate::cluster3::build(n, delta, &c3);
    broadcast_on(&mut sim, delta, cfg)
}

/// Broadcasts the rumor over an existing `Δ`-clustering.
pub fn broadcast_on(sim: &mut ClusterSim, delta: usize, cfg: &PushPullConfig) -> RunReport {
    let n = sim.n();
    let working = ((delta as f64 / cfg.cluster3.c_headroom).floor()).max(2.0);

    // Initial share: the source's cluster becomes the seed (epoch 0).
    sim.begin_phase();
    share_with_epoch(sim, 0);
    sim.end_phase("SeedShare");

    // Main loop: growth factor ≈ Δ'/2 per iteration.
    let budget = (log2n(n) / (working / 2.0).log2().max(1.0)).ceil() as u32 + cfg.loop_slack;
    sim.begin_phase();
    for epoch in 1..=budget {
        newly_informed_push_round(sim, epoch - 1);
        share_with_epoch(sim, epoch);
        uninformed_pull_round(sim, epoch);
    }
    sim.end_phase("PushPullLoop");

    // Final share (Algorithm 3 line 6).
    sim.begin_phase();
    share_with_epoch(sim, budget + 1);
    sim.end_phase("FinalShare");

    sim.report()
}

/// Members of clusters informed at `epoch` push the rumor to random nodes.
fn newly_informed_push_round(sim: &mut ClusterSim, epoch: u32) {
    let id_bits = sim.id_bits;
    let rumor_bits = sim.rumor_bits;
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            if s.informed && s.informed_at == Some(epoch) {
                Action::Push {
                    to: Target::Random,
                    msg: Msg::new(MsgKind::Rumor, id_bits, rumor_bits),
                }
            } else {
                Action::Idle
            }
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                if msg.kind == MsgKind::Rumor {
                    s.informed = true;
                }
            }
        },
    );
}

/// `ClusterShare` that also stamps `informed_at = epoch` on every node
/// whose informed flag flips during the share. The epoch is the loop's
/// program counter — synchronous and known to every node — so no extra
/// bits travel.
fn share_with_epoch(sim: &mut ClusterSim, epoch: u32) {
    let before: Vec<bool> = sim.net.states().iter().map(|s| s.informed).collect();
    share_rumor(sim);
    for (i, s) in sim.net.states_mut().iter_mut().enumerate() {
        if s.informed && !before[i] {
            s.informed_at = Some(epoch);
        }
    }
    // The source's cluster counts as epoch-0 seed.
    if epoch == 0 {
        for s in sim.net.states_mut() {
            if s.informed && s.informed_at.is_none() {
                s.informed_at = Some(0);
            }
        }
    }
}

/// Uninformed nodes PULL from a random node; informed responders reply
/// with the rumor.
fn uninformed_pull_round(sim: &mut ClusterSim, epoch: u32) {
    let id_bits = sim.id_bits;
    let rumor_bits = sim.rumor_bits;
    let replies = &mut sim.replies;
    for s in sim.net.states() {
        if s.informed {
            replies.set(s.idx, Msg::new(MsgKind::Rumor, id_bits, rumor_bits));
        }
    }
    sim.net.round(
        |ctx, _rng| {
            if ctx.state.informed {
                Action::<Msg>::Idle
            } else {
                Action::Pull { to: Target::Random }
            }
        },
        |s| replies.get(s.idx),
        |s, d| {
            if let Delivery::PullReply { msg, .. } = d {
                if msg.kind == MsgKind::Rumor {
                    s.informed = true;
                }
            }
        },
    );
    replies.clear();
    for s in sim.net.states_mut() {
        if s.informed && s.informed_at.is_none() {
            s.informed_at = Some(epoch);
        }
    }
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
        let loop_rounds = |r: &RunReport| {
            r.phases
                .iter()
                .find(|p| p.name == "PushPullLoop")
                .map(|p| p.rounds)
                .unwrap_or(0)
        };
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
