//! `ClusterShare`, pointer flattening, and the final PULL joins.

use phonecall::Target;

use crate::follow::Follow;
use crate::msg::MsgKind;
use crate::node::ClusterNode;
use crate::sim::{pull_round, push_round, to_leader, ClusterSim};

/// `ClusterShare(rumor)`: informed members push the rumor to their leader,
/// then every follower pulls it back. Two rounds; after it, a cluster with
/// at least one informed alive member is fully informed.
///
/// ```
/// use gossip_core::{primitives, ClusterSim, CommonConfig, Follow};
/// use phonecall::NodeIdx;
/// let mut sim = ClusterSim::new(8, &CommonConfig::default());
/// // One cluster of all nodes, led by node 0 (which holds the rumor).
/// let leader = sim.net.id_of(NodeIdx(0));
/// for s in sim.net.states_mut() { s.follow = Follow::Of(leader); }
/// primitives::share_rumor(&mut sim);
/// assert_eq!(sim.informed_count(), 8, "two rounds inform the cluster");
/// ```
pub fn share_rumor(sim: &mut ClusterSim) {
    // Round 1: informed followers push the rumor up.
    push_round(
        &mut sim.net,
        sim.wire,
        |s| {
            to_leader(s)
                .filter(|_| s.informed)
                .map(|to| (to, MsgKind::Rumor))
        },
        |s, kind| s.informed |= kind == MsgKind::Rumor,
    );
    // Round 2: followers pull; informed leaders respond with the rumor.
    for s in sim.net.states() {
        if s.is_leader() && s.informed {
            sim.replies.set(s.idx, sim.wire.msg(MsgKind::Rumor));
        }
    }
    let ask = |s: &ClusterNode| to_leader(s).filter(|_| !s.informed);
    pull_round(&mut sim.net, &mut sim.replies, ask, |s, kind| {
        s.informed |= kind == MsgKind::Rumor;
    });
}

/// One pointer-jumping round: every follower pulls its current `follow`
/// target's *own* `follow` value and adopts it. Stale one-hop chains left
/// by simultaneous merges collapse by one level per call; a node whose
/// "leader" turns out to be unclustered becomes unclustered itself.
pub fn flatten_round(sim: &mut ClusterSim) {
    for s in sim.net.states() {
        let follow = MsgKind::FollowVal(s.follow.leader());
        sim.replies.set(s.idx, sim.wire.msg(follow));
    }
    pull_round(&mut sim.net, &mut sim.replies, to_leader, |s, kind| {
        if let MsgKind::FollowVal(v) = kind {
            s.follow = v.into();
            if v.is_none() {
                s.active = false;
            }
        }
    });
}

/// One round of `UnclusteredNodesPull`: every unclustered node pulls a
/// uniformly random node; clustered nodes respond with their leader's ID
/// and the puller joins that cluster. Returns the number of nodes that
/// joined.
pub fn unclustered_pull_round(sim: &mut ClusterSim) -> usize {
    for s in sim.net.states() {
        if s.is_clustered() {
            sim.replies
                .set(s.idx, sim.wire.msg(MsgKind::FollowVal(s.leader())));
        }
    }
    let mut joined = 0;
    let ask = |s: &ClusterNode| (!s.is_clustered()).then_some(Target::Random);
    pull_round(&mut sim.net, &mut sim.replies, ask, |s, kind| {
        if let MsgKind::FollowVal(Some(l)) = kind {
            if !s.is_clustered() {
                s.follow = Follow::Of(l);
                joined += 1;
            }
        }
    });
    joined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use phonecall::NodeIdx;

    fn cluster_of(n: usize, k: usize) -> ClusterSim {
        let mut s = ClusterSim::new(n, &CommonConfig::default());
        let leader = s.net.id_of(NodeIdx(0));
        for i in 0..k {
            s.net.states_mut()[i].follow = Follow::Of(leader);
        }
        s
    }

    #[test]
    fn share_informs_whole_cluster_from_follower_source() {
        let mut s = cluster_of(32, 20);
        // Source is node 0 (the leader) by default; move the rumor to a follower.
        s.net.states_mut()[0].informed = false;
        s.net.states_mut()[7].informed = true;
        share_rumor(&mut s);
        for i in 0..20 {
            assert!(s.net.states()[i].informed, "member {i} informed");
        }
        for i in 20..32 {
            assert!(
                !s.net.states()[i].informed,
                "non-member {i} stays uninformed"
            );
        }
    }

    #[test]
    fn share_costs_two_rounds() {
        let mut s = cluster_of(16, 8);
        let before = s.net.metrics().rounds;
        share_rumor(&mut s);
        assert_eq!(s.net.metrics().rounds - before, 2);
    }

    #[test]
    fn share_without_any_informed_member_does_nothing() {
        let mut s = cluster_of(32, 20);
        s.net.states_mut()[0].informed = false;
        share_rumor(&mut s);
        assert_eq!(s.informed_count(), 0);
    }

    #[test]
    fn flatten_collapses_one_hop_chains() {
        let mut s = ClusterSim::new(8, &CommonConfig::default());
        let a = s.net.id_of(NodeIdx(0));
        let b = s.net.id_of(NodeIdx(1));
        // b leads; a follows b; node 2 stale-follows a.
        s.net.states_mut()[1].follow = Follow::Of(b);
        s.net.states_mut()[0].follow = Follow::Of(b);
        s.net.states_mut()[2].follow = Follow::Of(a);
        flatten_round(&mut s);
        assert_eq!(s.net.states()[2].follow, Follow::Of(b), "chain collapsed");
    }

    #[test]
    fn flatten_unclusters_orphans() {
        let mut s = ClusterSim::new(8, &CommonConfig::default());
        let a = s.net.id_of(NodeIdx(0));
        // Node 1 follows node 0, but node 0 is unclustered.
        s.net.states_mut()[1].follow = Follow::Of(a);
        flatten_round(&mut s);
        assert_eq!(s.net.states()[1].follow, Follow::Unclustered);
    }

    #[test]
    fn pull_round_joins_stragglers() {
        // Nearly everyone clustered: each unclustered puller almost surely
        // hits the cluster.
        let mut s = cluster_of(64, 60);
        let joined = unclustered_pull_round(&mut s);
        assert!(
            joined >= 1,
            "with 94% clustered, pulls succeed (joined {joined})"
        );
        let map = s.cluster_map();
        assert_eq!(map.len(), 1, "joiners follow the one leader directly");
    }
}
