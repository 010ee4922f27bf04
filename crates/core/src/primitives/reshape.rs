//! `ClusterDissolve(s)` and `ClusterResize(s)`.

use crate::follow::Follow;
use crate::msg::{MsgKind, Span};
use crate::sim::{pull_round, ClusterSim};

use super::{collect_members, group_leaders, smallest_geq, Who};

/// `ClusterDissolve(s)`: clusters smaller than `s` dissolve — every member
/// (leader included) becomes unclustered. Two rounds: membership
/// collection, then followers pull the verdict.
pub fn dissolve(sim: &mut ClusterSim, s: u64, who: Who) {
    collect_members(sim, who);
    let (leaders, replies) = (&mut sim.leaders, &mut sim.replies);
    for st in sim.net.states_mut() {
        if !(st.is_leader() && who.selects(true, st.active)) {
            continue;
        }
        let size = leaders.row(st.idx).members.len() as u32;
        let verdict = if u64::from(size) >= s {
            Some(st.id)
        } else {
            None
        };
        replies.set(st.idx, sim.wire.msg(MsgKind::FollowVal(verdict)));
        if verdict.is_none() {
            st.follow = Follow::Unclustered;
            st.active = false;
            st.size = 1;
            st.prev_size = 1;
        } else {
            st.size = size;
            st.prev_size = size;
        }
    }
    pull_round(
        &mut sim.net,
        replies,
        |st| who.to_leader(st),
        |st, kind| {
            if let MsgKind::FollowVal(v) = kind {
                st.follow = v.into();
                if v.is_none() {
                    st.active = false;
                    st.size = 1;
                    st.prev_size = 1;
                }
            }
        },
    );
}

/// `ClusterResize(s)`: every cluster of size `s' ≥ 2s` splits into
/// `⌊s'/s⌋` equal groups (sizes differing by at most one); the largest ID
/// in each group becomes that group's leader. Afterwards every cluster has
/// size `< 2s`. Two rounds: membership collection, then followers pull the
/// new-leaders announcement (a `⌊s'/s⌋·O(log n)`-bit message — the one
/// deliberately larger message of the paper, see the Section 3.2 footnote).
///
/// Deviations (README, "Deviations from the paper"): a cluster with
/// `s' < 2s` keeps its current leader (the paper's `⌊s'/s⌋ ≤ 1` case is
/// undefined), and followers pick the **smallest** announced leader ID at
/// least their own.
pub fn resize(sim: &mut ClusterSim, s: u64, who: Who) {
    assert!(s >= 1, "resize target must be positive");
    collect_members(sim, who);
    let (leaders, replies, lists) = (&mut sim.leaders, &mut sim.replies, &mut sim.leader_lists);
    for st in sim.net.states_mut() {
        if !(st.is_leader() && who.selects(true, st.active)) {
            continue;
        }
        let members = &mut leaders.row(st.idx).members;
        let size = members.len() as u32;
        let k = (u64::from(size) / s).max(1) as u32;
        let ids = if k == 1 {
            Span::appended(lists, [st.id])
        } else {
            group_leaders(members, k as usize, lists)
        };
        let new_leader = smallest_geq(ids.of(lists), st.id).expect("announcement is non-empty");
        st.follow = Follow::Of(new_leader);
        st.size = size / k;
        st.prev_size = size / k;
        let announcement = MsgKind::Leaders {
            ids,
            piece_size: size / k,
        };
        replies.set(st.idx, sim.wire.msg(announcement));
    }
    pull_round(
        &mut sim.net,
        replies,
        |st| who.to_leader(st),
        |st, kind| {
            if let MsgKind::Leaders { ids, piece_size } = kind {
                if let Some(l) = smallest_geq(ids.of(lists), st.id) {
                    st.follow = Follow::Of(l);
                    st.size = piece_size;
                    st.prev_size = piece_size;
                }
            }
        },
    );
    lists.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::verify::check_clustering;
    use phonecall::NodeIdx;

    /// One cluster of `k` members (leader = node 0) in an `n`-node network.
    fn cluster_of(n: usize, k: usize) -> ClusterSim {
        let mut s = ClusterSim::new(n, &CommonConfig::default());
        let leader = s.net.id_of(NodeIdx(0));
        for i in 0..k {
            s.net.states_mut()[i].follow = Follow::Of(leader);
            s.net.states_mut()[i].active = true;
        }
        s
    }

    #[test]
    fn small_cluster_dissolves() {
        let mut s = cluster_of(32, 5);
        dissolve(&mut s, 8, Who::AllClustered);
        assert_eq!(s.clustered_count(), 0);
        assert!(s.alive_states().all(|x| !x.active));
    }

    #[test]
    fn large_cluster_survives_dissolve() {
        let mut s = cluster_of(32, 10);
        dissolve(&mut s, 8, Who::AllClustered);
        assert_eq!(s.clustered_count(), 10);
        check_clustering(&s).expect("clustering stays well-formed");
    }

    #[test]
    fn resize_splits_into_bounded_pieces() {
        let mut s = cluster_of(64, 40);
        resize(&mut s, 8, Who::AllClustered);
        check_clustering(&s).expect("clustering stays well-formed");
        let stats = s.clustering_stats();
        assert_eq!(stats.clustered, 40, "no node lost");
        assert_eq!(stats.clusters, 5, "40/8 = 5 groups");
        assert!(
            stats.max_size < 16,
            "all pieces below 2s, got {}",
            stats.max_size
        );
        assert!(
            stats.min_size >= 8,
            "all pieces at least s, got {}",
            stats.min_size
        );
    }

    #[test]
    fn resize_no_op_below_double_target() {
        let mut s = cluster_of(32, 12);
        resize(&mut s, 8, Who::AllClustered);
        let stats = s.clustering_stats();
        assert_eq!(stats.clusters, 1, "12 < 16 keeps the cluster whole");
        assert_eq!(stats.max_size, 12);
        // Leadership does not churn in the k = 1 case.
        assert!(s.net.states()[0].is_leader());
    }

    #[test]
    fn resize_piece_sizes_reset_growth_tracking() {
        let mut s = cluster_of(64, 40);
        resize(&mut s, 8, Who::AllClustered);
        for st in s.alive_states().filter(|x| x.is_clustered()) {
            assert_eq!(st.size, 8);
            assert_eq!(st.prev_size, 8);
        }
    }

    #[test]
    fn resize_respects_active_only_filter() {
        let mut s = cluster_of(64, 40);
        for i in 0..40 {
            s.net.states_mut()[i].active = false;
        }
        resize(&mut s, 8, Who::ActiveOnly);
        assert_eq!(
            s.clustering_stats().clusters,
            1,
            "inactive cluster untouched"
        );
    }
}
