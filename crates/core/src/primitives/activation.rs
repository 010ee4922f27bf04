//! `ClusterActivate(p)` and the initial singleton sampling.

use phonecall::{Action, Delivery, NodeIdx, Target};
use rand::Rng;

use crate::msg::{Msg, MsgKind};
use crate::sim::ClusterSim;

/// Initial sampling: every alive node independently becomes the leader of a
/// fresh singleton cluster with probability `p` (Algorithms 1 and 2, first
/// line of `GrowInitialClusters`). Purely node-local — zero rounds.
///
/// Sampled clusters start **activated**.
///
/// ```
/// use gossip_core::{primitives, ClusterSim, CommonConfig};
/// let mut sim = ClusterSim::new(1000, &CommonConfig::default());
/// primitives::sample_singletons(&mut sim, 0.1);
/// let leaders = sim.clustering_stats().clusters;
/// assert!((60..=140).contains(&leaders), "~100 singleton leaders");
/// ```
pub fn sample_singletons(sim: &mut ClusterSim, p: f64) {
    let n = sim.n();
    for i in 0..n {
        if !sim.net.is_alive(NodeIdx(i as u32)) {
            continue;
        }
        if sim.rng.gen_bool(p.clamp(0.0, 1.0)) {
            let s = &mut sim.net.states_mut()[i];
            s.become_singleton_leader();
            s.active = true;
        }
    }
}

/// Deterministic fallback seeding: every alive **informed** node that is
/// still unclustered elects itself leader of a singleton cluster.
///
/// At algorithm start only the rumor source(s) are informed, so this makes
/// the source a leader. The decision is node-local (a node knows whether it
/// holds the rumor), consumes no randomness and no rounds, and guarantees
/// the backbone is non-empty even at toy sizes where the whp sampling of
/// [`sample_singletons`] can come up empty — without which the rumor could
/// never leave the source (the clustering phases would all be vacuous).
pub fn seed_informed_leaders(sim: &mut ClusterSim) {
    let n = sim.n();
    for i in 0..n {
        if !sim.net.is_alive(NodeIdx(i as u32)) {
            continue;
        }
        let s = &mut sim.net.states_mut()[i];
        if s.informed && !s.is_clustered() {
            s.become_singleton_leader();
            s.active = true;
        }
    }
}

/// `ClusterActivate(p)`: every cluster is independently activated with
/// probability `p`, by followers pulling the outcome of a `p`-biased coin
/// flipped by their leader. One round (plus the leader's local flip).
///
/// Deterministic probabilities (`p ≤ 0` or `p ≥ 1`) are part of the common
/// program — every node can evaluate them locally — so no round is spent.
pub fn activate(sim: &mut ClusterSim, p: f64) {
    if p <= 0.0 || p >= 1.0 {
        let verdict = p >= 1.0;
        for s in sim.net.states_mut() {
            s.active = verdict && s.is_clustered();
        }
        return;
    }

    // Leaders flip and prepare the address-oblivious response.
    let id_bits = sim.id_bits;
    let rumor_bits = sim.rumor_bits;
    for i in 0..sim.n() {
        if !sim.net.is_alive(NodeIdx(i as u32)) {
            continue;
        }
        let coin = sim.rng.gen_bool(p);
        let s = &mut sim.net.states_mut()[i];
        if s.is_leader() {
            s.active = coin;
            sim.replies
                .set(s.idx, Msg::new(MsgKind::Coin(coin), id_bits, rumor_bits));
        } else if !s.is_clustered() {
            s.active = false;
        }
    }

    // Followers pull the coin from their leader.
    let replies = &sim.replies;
    sim.net.round(
        |ctx, _rng| {
            if ctx.state.is_follower() {
                Action::<Msg>::Pull {
                    to: Target::Direct(ctx.state.leader().expect("follower has leader")),
                }
            } else {
                Action::Idle
            }
        },
        |s| replies.get(s.idx),
        |s, d| {
            if let Delivery::PullReply { msg, .. } = d {
                if let MsgKind::Coin(b) = msg.kind {
                    s.active = b;
                }
            }
        },
    );
    sim.replies.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::follow::Follow;

    fn sim(n: usize) -> ClusterSim {
        ClusterSim::new(n, &CommonConfig::default())
    }

    #[test]
    fn sampling_rate_is_roughly_p() {
        let mut s = sim(10_000);
        sample_singletons(&mut s, 0.1);
        let leaders = s.alive_states().filter(|x| x.is_leader()).count();
        assert!((700..=1300).contains(&leaders), "got {leaders} leaders");
        assert!(s.alive_states().filter(|x| x.is_leader()).all(|x| x.active));
    }

    #[test]
    fn activate_zero_and_one_are_free() {
        let mut s = sim(64);
        sample_singletons(&mut s, 0.5);
        let rounds_before = s.net.metrics().rounds;
        activate(&mut s, 1.0);
        assert!(s
            .alive_states()
            .filter(|x| x.is_clustered())
            .all(|x| x.active));
        activate(&mut s, 0.0);
        assert!(s.alive_states().all(|x| !x.active));
        assert_eq!(
            s.net.metrics().rounds,
            rounds_before,
            "deterministic p costs no rounds"
        );
    }

    /// Builds one big cluster: node 0 leads, everyone else follows.
    fn one_cluster(n: usize) -> ClusterSim {
        let mut s = sim(n);
        let leader = s.net.id_of(NodeIdx(0));
        for i in 0..n {
            s.net.states_mut()[i].follow = Follow::Of(leader);
        }
        s
    }

    #[test]
    fn activation_is_cluster_wide() {
        // With one cluster, all members end up agreeing with the leader's coin.
        for seed in 0..8u64 {
            let mut s = {
                let mut c = CommonConfig::default();
                c.seed = seed;
                let mut s = ClusterSim::new(32, &c);
                let leader = s.net.id_of(NodeIdx(0));
                for i in 0..32 {
                    s.net.states_mut()[i].follow = Follow::Of(leader);
                }
                s
            };
            activate(&mut s, 0.5);
            let leader_active = s.net.states()[0].active;
            assert!(
                s.alive_states().all(|x| x.active == leader_active),
                "followers must agree with leader"
            );
        }
    }

    #[test]
    fn activation_costs_one_round() {
        let mut s = one_cluster(16);
        let before = s.net.metrics().rounds;
        activate(&mut s, 0.5);
        assert_eq!(s.net.metrics().rounds - before, 1);
    }
}
