//! Recruiting unclustered nodes: the `GrowInitialClusters` push rounds and
//! the growth-controlled variants used by Cluster2/Cluster3.

use phonecall::Target;

use crate::follow::Follow;
use crate::msg::MsgKind;
use crate::sim::{pull_round, push_round, ClusterSim};

use super::{collect_members, group_leaders, size_round, smallest_geq, GrowControl, Who};

/// One recruiting round (Algorithm 1, `GrowInitialClusters` loop body):
/// every member of a pushing cluster PUSHes its cluster ID to a random
/// node; unclustered recipients join the first cluster they hear of (and
/// inherit its activation). Returns how many nodes joined.
pub fn grow_push_round(sim: &mut ClusterSim, pushers: Who) -> usize {
    push_recruits(sim, pushers);
    // Local adoption: unclustered nodes join the first received cluster,
    // which clusters them, so their later arrivals skip.
    let mut joined = 0;
    let states = sim.net.states_mut();
    for (to, cid) in sim.arrivals.iter() {
        let s = &mut states[to.as_usize()];
        if !s.is_clustered() {
            s.follow = Follow::Of(cid);
            s.active = true;
            joined += 1;
        }
    }
    sim.arrivals.clear();
    joined
}

/// The `ClusterPUSH` round: every member of a pushing cluster PUSHes its
/// cluster ID to a random node, and each arrival is appended to
/// `sim.arrivals` for the caller to read and clear.
pub(crate) fn push_recruits(sim: &mut ClusterSim, pushers: Who) {
    let arrivals = &mut sim.arrivals;
    push_round(
        &mut sim.net,
        sim.wire,
        |s| {
            let cid = s.leader().filter(|_| pushers.selects(true, s.active))?;
            Some((Target::Random, MsgKind::Recruit(cid)))
        },
        |s, kind| {
            if let MsgKind::Recruit(cid) = kind {
                arrivals.push(s.idx, cid);
            }
        },
    );
}

/// Outcome of one growth-controlled recruit iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundedRecruitOutcome {
    /// Nodes recruited this iteration.
    pub joined: usize,
    /// Clusters deactivated by the stall rule this iteration.
    pub deactivated: usize,
}

/// One iteration of Algorithm 2's `GrowInitialClusters` loop body
/// (3 rounds): active clusters push; unclustered nodes adopt; membership is
/// collected; the leader applies the stall rule `size ≥ cap ∧ growth <
/// stall ⇒ deactivate` and (still-active) oversized clusters split via an
/// inline `ClusterResize(cap)` folded into the size report.
pub fn grow_control_iteration(
    sim: &mut ClusterSim,
    cap: u64,
    stall_factor: f64,
) -> BoundedRecruitOutcome {
    let joined = grow_push_round(sim, Who::ActiveOnly);
    collect_members(sim, Who::ActiveOnly);

    // Size verdicts + inline resize announcements.
    let (leaders, replies, lists) = (&mut sim.leaders, &mut sim.replies, &mut sim.leader_lists);
    let mut deactivated = 0;
    for s in sim.net.states_mut() {
        if !(s.is_leader() && s.active) {
            continue;
        }
        let members = &mut leaders.row(s.idx).members;
        let size = members.len() as u32;
        let growth = f64::from(size) / f64::from(s.prev_size.max(1));
        let kind = if u64::from(size) >= cap && growth < stall_factor {
            // Stall: deactivate the whole cluster.
            deactivated += 1;
            s.active = false;
            s.size = size;
            MsgKind::SizeReport {
                size,
                active: false,
            }
        } else if u64::from(size) >= 2 * cap {
            // Oversized but still growing: split into ⌊size/cap⌋ groups
            // (inline ClusterResize(cap); same grouping rule as
            // `primitives::resize`).
            let k = (u64::from(size) / cap) as u32;
            let ids = group_leaders(members, k as usize, lists);
            s.follow = Follow::Of(smallest_geq(ids.of(lists), s.id).expect("non-empty"));
            s.size = size / k;
            MsgKind::Leaders {
                ids,
                piece_size: size / k,
            }
        } else {
            s.size = size;
            MsgKind::SizeReport { size, active: true }
        };
        s.prev_size = s.size;
        replies.set(s.idx, sim.wire.msg(kind));
    }
    pull_round(
        &mut sim.net,
        replies,
        |s| Who::ActiveOnly.to_leader(s),
        |s, kind| match kind {
            MsgKind::SizeReport { size, active } => {
                s.size = size;
                s.prev_size = size;
                s.active = active;
            }
            MsgKind::Leaders { ids, piece_size } => {
                if let Some(l) = smallest_geq(ids.of(lists), s.id) {
                    s.follow = Follow::Of(l);
                    s.size = piece_size;
                    s.prev_size = piece_size;
                }
            }
            _ => {}
        },
    );
    lists.clear();
    BoundedRecruitOutcome {
        joined,
        deactivated,
    }
}

/// One iteration of `BoundedClusterPush` (Algorithm 2 lines 28–35;
/// 3 rounds): the active cluster pushes its ID, unclustered nodes join,
/// membership is re-collected, and the cluster deactivates once growth
/// falls below `stall_factor` (paper: 1.1) — bounding total messages by a
/// geometric sum.
pub fn bounded_recruit_iteration(sim: &mut ClusterSim, stall_factor: f64) -> BoundedRecruitOutcome {
    let joined = grow_push_round(sim, Who::ActiveOnly);
    collect_members(sim, Who::ActiveOnly);
    let deactivated = size_round(
        sim,
        Who::ActiveOnly,
        Some(GrowControl {
            cap: 2,
            stall_factor,
        }),
    );
    BoundedRecruitOutcome {
        joined,
        deactivated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::primitives::sample_singletons;
    use crate::verify::check_clustering;

    fn sim_with(n: usize, seed: u64, p: f64) -> ClusterSim {
        let mut common = CommonConfig::default();
        common.seed = seed;
        let mut s = ClusterSim::new(n, &common);
        sample_singletons(&mut s, p);
        s
    }

    #[test]
    fn grow_push_roughly_doubles_clustered_set() {
        let mut s = sim_with(4096, 7, 0.02);
        let c0 = s.clustered_count();
        grow_push_round(&mut s, Who::AllClustered);
        let c1 = s.clustered_count();
        assert!(
            c1 as f64 > 1.7 * c0 as f64,
            "{c0} -> {c1} should nearly double"
        );
        check_clustering(&s).expect("well-formed");
    }

    #[test]
    fn a_node_recruited_twice_joins_the_cluster_delivered_first() {
        let mut s = sim_with(256, 11, 0.5);
        let before: Vec<_> = s.net.states().iter().map(|x| x.leader()).collect();
        // What each node heard, in the order the engine delivered it: the
        // round's push, replayed on a twin, whose arrival log is left
        // unfolded.
        let mut twin = sim_with(256, 11, 0.5);
        push_recruits(&mut twin, Who::AllClustered);
        let mut heard = vec![Vec::new(); 256];
        for (to, cid) in twin.arrivals.iter() {
            heard[to.as_usize()].push(cid);
        }
        grow_push_round(&mut s, Who::AllClustered);
        let mut contested = 0;
        for (i, ids) in heard.iter().enumerate() {
            if before[i].is_none() && !ids.is_empty() {
                let first = ids[0];
                assert_eq!(
                    s.net.states()[i].leader(),
                    Some(first),
                    "node {i} heard {ids:?}"
                );
                contested += usize::from(ids.iter().any(|id| *id != first));
            }
        }
        assert!(contested > 0, "some unclustered node heard two clusters");
    }

    #[test]
    fn grow_control_splits_oversized_clusters() {
        let mut s = sim_with(2048, 8, 0.01);
        for _ in 0..8 {
            grow_control_iteration(&mut s, 8, 1.05);
        }
        let stats = s.clustering_stats();
        assert!(
            stats.max_size < 16,
            "resize keeps clusters under 2*cap, got {}",
            stats.max_size
        );
        check_clustering(&s).expect("well-formed");
    }

    #[test]
    fn stall_rule_eventually_freezes_growth() {
        let mut s = sim_with(512, 9, 0.05);
        // Recruit until saturation: once nearly everyone is clustered,
        // growth stalls and clusters deactivate.
        let mut frozen_at = None;
        for it in 0..30 {
            bounded_recruit_iteration(&mut s, 1.1);
            if s.alive_states().all(|x| !x.active) {
                frozen_at = Some(it);
                break;
            }
        }
        assert!(
            frozen_at.is_some(),
            "all clusters must eventually deactivate"
        );
        // Once frozen, pushes stop entirely.
        let msgs = s.net.metrics().messages;
        bounded_recruit_iteration(&mut s, 1.1);
        assert_eq!(s.net.metrics().messages, msgs, "no messages after freeze");
    }

    #[test]
    fn grow_control_iteration_costs_three_rounds() {
        let mut s = sim_with(256, 10, 0.05);
        let before = s.net.metrics().rounds;
        grow_control_iteration(&mut s, 16, 1.9);
        assert_eq!(s.net.metrics().rounds - before, 3);
    }
}
