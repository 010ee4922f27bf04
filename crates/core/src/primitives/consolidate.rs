//! Cheap cluster consolidation for the message-optimal algorithms.
//!
//! After `BoundedClusterPush` and the PULL joins, one cluster spans
//! `Θ(n)` nodes whp, but rare runs can leave a residual secondary cluster
//! (the paper's "two iterations of `MergeAllClusters` suffice" is a whp
//! statement at asymptotic `n`). `Cluster1` fixes this with a full
//! `MergeAllClusters` sweep, which costs `Θ(n)` pushes per iteration —
//! fine there, too expensive for `Cluster2`'s `O(1)`-messages-per-node
//! budget.
//!
//! [`consolidate`] instead has only members of *non-majority* clusters
//! pull a random node for a cluster advertisement `(leader, size)` and
//! merge into the largest advertised cluster. Merging strictly increases
//! the (size, then smaller-ID) order, so no merge cycles are possible,
//! and because the majority cluster never initiates anything, the cost is
//! `O(#minority nodes)` messages plus one `ClusterSize` to make sizes
//! consistent cluster-wide.

use std::cell::RefCell;
use std::collections::BTreeMap;

use phonecall::{Action, Delivery, NodeId, NodeIdx, Target};

use crate::follow::Follow;
use crate::msg::{Msg, MsgKind};
use crate::sim::ClusterSim;

use super::{collect_members, size_round, Who};

/// A cluster advertisement: leader ID and (approximate) cluster size.
type Ad = (NodeId, u32);

/// Total order on cluster advertisements: larger size wins, smaller
/// leader ID breaks ties.
fn beats(cand: Ad, own: Ad) -> bool {
    cand.1 > own.1 || (cand.1 == own.1 && cand.0 < own.0)
}

/// One consolidation sweep (6 rounds): measure sizes, let minority-cluster
/// members gather advertisements, merge each minority cluster into the
/// best advertised cluster, and flatten the affected pointers.
pub fn consolidate(sim: &mut ClusterSim) {
    let n = sim.n() as u64;
    let id_bits = sim.id_bits;
    let rumor_bits = sim.rumor_bits;

    // ClusterSize: make every member's `size` consistent (2 rounds). The
    // consistency is what rules out merge cycles below.
    collect_members(sim, Who::AllClustered);
    size_round(sim, Who::AllClustered, None);

    // The advertisements each node holds, by node index. Only members of
    // minority clusters ever gather or receive any, so the map stays
    // small; the `RefCell` lets the relay round's `decide` read a node's
    // own ads while `deliver` files the relayed ones.
    let ads: RefCell<BTreeMap<NodeIdx, Vec<Ad>>> = RefCell::default();
    let file = |idx, new: &[Ad]| {
        let mut ads = ads.borrow_mut();
        ads.entry(idx).or_default().extend_from_slice(new);
    };
    let minority = |size: u32| 2 * u64::from(size) <= n;

    // Round 3: members of clusters that cannot be the majority pull a
    // random node; every clustered node responds with its cluster's ad.
    let replies = &mut sim.replies;
    for s in sim.net.states() {
        if let Some(leader) = s.leader() {
            let ad = MsgKind::ClusterAd {
                leader,
                size: s.size,
            };
            replies.set(s.idx, Msg::new(ad, id_bits, rumor_bits));
        }
    }
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            if s.is_clustered() && minority(s.size) {
                Action::<Msg>::Pull { to: Target::Random }
            } else {
                Action::Idle
            }
        },
        |s| replies.get(s.idx),
        |s, d| {
            if let Delivery::PullReply { msg, .. } = d {
                if let MsgKind::ClusterAd { leader, size } = msg.kind {
                    file(s.idx, &[(leader, size)]);
                }
            }
        },
    );
    replies.clear();

    // Round 4: relay gathered ads to the leader.
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            let own = if s.is_follower() {
                ads.borrow().get(&s.idx).map(|own| own.as_slice().into())
            } else {
                None
            };
            match own {
                Some(own) => Action::Push {
                    to: Target::Direct(s.leader().expect("follower has leader")),
                    msg: Msg::new(MsgKind::Ads(own), id_bits, rumor_bits),
                },
                None => Action::Idle,
            }
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                if let MsgKind::Ads(v) = msg.kind {
                    file(s.idx, &v);
                }
            }
        },
    );

    // Round 5: minority leaders merge into the best advertisement that
    // beats their own cluster; their followers pull the verdict.
    let ads = ads.into_inner();
    for s in sim.net.states_mut() {
        if !s.is_leader() {
            continue;
        }
        let own = (s.id, s.size);
        let best = ads
            .get(&s.idx)
            .into_iter()
            .flatten()
            .copied()
            .filter(|c| c.0 != s.id)
            .max_by(|a, b| {
                a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)) // size asc, id desc
            });
        let mut verdict = s.id;
        if let Some(b) = best {
            if minority(s.size) && beats(b, own) {
                verdict = b.0;
                s.follow = Follow::Of(verdict);
                s.needs_flatten = true;
            }
        }
        replies.set(
            s.idx,
            Msg::new(MsgKind::FollowVal(Some(verdict)), id_bits, rumor_bits),
        );
    }
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            // Only minority-cluster followers need the verdict.
            if s.is_follower() && minority(s.size) {
                Action::<Msg>::Pull {
                    to: Target::Direct(s.leader().expect("follower has leader")),
                }
            } else {
                Action::Idle
            }
        },
        |s| replies.get(s.idx),
        |s, d| {
            if let Delivery::PullReply { msg, .. } = d {
                if let MsgKind::FollowVal(Some(v)) = msg.kind {
                    if s.follow != Follow::Of(v) {
                        s.follow = Follow::Of(v);
                        s.needs_flatten = true;
                    }
                }
            }
        },
    );
    replies.clear();

    // Round 6: flatten, restricted to pointers that actually moved (chains
    // arise when the merge target itself merged in the same sweep).
    for s in sim.net.states() {
        replies.set(
            s.idx,
            Msg::new(MsgKind::FollowVal(s.follow.leader()), id_bits, rumor_bits),
        );
    }
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            if s.is_follower() && s.needs_flatten {
                Action::<Msg>::Pull {
                    to: Target::Direct(s.leader().expect("follower has leader")),
                }
            } else {
                Action::Idle
            }
        },
        |s| replies.get(s.idx),
        |s, d| {
            if let Delivery::PullReply { msg, .. } = d {
                if let MsgKind::FollowVal(v) = msg.kind {
                    s.follow = v.into();
                }
            }
        },
    );
    replies.clear();
    for s in sim.net.states_mut() {
        s.needs_flatten = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::verify::check_clustering;
    use phonecall::NodeIdx;

    /// Builds two clusters: a big one (node 0 leads `big` members) and a
    /// small one (node `n-1` leads `small` members).
    fn two_clusters(n: usize, big: usize, small: usize) -> ClusterSim {
        let mut s = ClusterSim::new(n, &CommonConfig::default());
        let big_leader = s.net.id_of(NodeIdx(0));
        let small_leader = s.net.id_of(NodeIdx((n - 1) as u32));
        for i in 0..big {
            s.net.states_mut()[i].follow = Follow::Of(big_leader);
            s.net.states_mut()[i].size = big as u32;
        }
        for i in (n - small)..n {
            s.net.states_mut()[i].follow = Follow::Of(small_leader);
            s.net.states_mut()[i].size = small as u32;
        }
        s
    }

    #[test]
    fn minority_cluster_merges_into_majority() {
        let mut s = two_clusters(128, 100, 20);
        consolidate(&mut s);
        check_clustering(&s).expect("well-formed");
        assert_eq!(s.clustering_stats().clusters, 1, "small cluster absorbed");
        assert_eq!(s.clustering_stats().clustered, 120);
    }

    #[test]
    fn majority_cluster_sends_nothing() {
        let mut s = two_clusters(128, 100, 20);
        consolidate(&mut s);
        // The majority cluster only paid for the ClusterSize (1 collect
        // push + 1 size pull per follower) and pull *responses*; its
        // members never initiated consolidation pulls. Total initiated by
        // majority: 99 collect pushes + 99 size pulls = 198 requests; the
        // minority adds its own. Just sanity-check the order of magnitude.
        assert!(
            s.net.metrics().messages < 600,
            "messages: {}",
            s.net.metrics().messages
        );
    }

    #[test]
    fn single_cluster_is_stable() {
        let mut s = two_clusters(64, 60, 0);
        consolidate(&mut s);
        let stats = s.clustering_stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.clustered, 60);
        check_clustering(&s).expect("well-formed");
    }

    #[test]
    fn near_tie_resolves_without_cycles() {
        // Two equal-size clusters: the one with the larger leader ID must
        // merge into the other, never both ways.
        let mut s = two_clusters(96, 40, 40);
        consolidate(&mut s);
        consolidate(&mut s);
        check_clustering(&s).expect("no cycles / dangling pointers");
        assert_eq!(
            s.clustering_stats().clusters,
            1,
            "tie resolved to one cluster"
        );
    }
}
