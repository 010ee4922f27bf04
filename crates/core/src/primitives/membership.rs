//! Membership collection and `ClusterSize` (with optional growth control).

use phonecall::{Action, Delivery, Target};

use crate::msg::{Msg, MsgKind};
use crate::sim::ClusterSim;

use super::Who;

/// Growth-control verdict parameters (Cluster2's stopping rule: deactivate
/// a cluster that is already large but no longer roughly doubling).
#[derive(Clone, Copy, Debug)]
pub struct GrowControl {
    /// Size threshold above which the stall rule applies.
    pub cap: u64,
    /// Minimum growth factor to stay active (paper: `2 − 1/log n` for the
    /// grow phase, `1.1` for `BoundedClusterPush`).
    pub stall_factor: f64,
}

/// Round 1 of `ClusterSize`/`ClusterDissolve`/`ClusterResize`: every
/// follower (of a cluster selected by `who`) pushes its ID to its leader;
/// leaders collect the membership (including themselves). One round.
pub fn collect_members(sim: &mut ClusterSim, who: Who) {
    let (arena, leaders) = (&sim.arena, &mut sim.leaders);
    // Leaders reset their member list and count themselves.
    for s in sim.net.states_mut() {
        if s.is_leader() && who.selects(true, s.active) {
            let members = &mut leaders.row(s.idx).members;
            arena.clear(members);
            arena.push(members, s.id);
        }
    }
    let id_bits = sim.id_bits;
    let rumor_bits = sim.rumor_bits;
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            if s.is_follower() && who.selects(true, s.active) {
                Action::Push {
                    to: Target::Direct(s.leader().expect("follower has leader")),
                    msg: Msg::new(MsgKind::MemberId(s.id), id_bits, rumor_bits),
                }
            } else {
                Action::Idle
            }
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                if let MsgKind::MemberId(m) = msg.kind {
                    arena.push(&mut leaders.row(s.idx).members, m);
                }
            }
        },
    );
}

/// Round 2 of `ClusterSize`: leaders publish the measured size (and, when
/// `control` is given, the keep-recruiting verdict); followers pull it.
/// One round. Must follow a [`collect_members`] with the same `who`.
///
/// Returns the number of clusters that went inactive by the stall rule.
pub fn size_round(sim: &mut ClusterSim, who: Who, control: Option<GrowControl>) -> usize {
    let id_bits = sim.id_bits;
    let rumor_bits = sim.rumor_bits;
    let mut deactivated = 0;
    let (leaders, replies) = (&mut sim.leaders, &mut sim.replies);
    for s in sim.net.states_mut() {
        if !(s.is_leader() && who.selects(true, s.active)) {
            continue;
        }
        let size = leaders.row(s.idx).members.len() as u32;
        let mut stay_active = s.active;
        if let Some(ctl) = control {
            let growth = f64::from(size) / f64::from(s.prev_size.max(1));
            if u64::from(size) >= ctl.cap && growth < ctl.stall_factor {
                stay_active = false;
                deactivated += 1;
            }
        }
        s.prev_size = size;
        s.size = size;
        s.active = stay_active;
        replies.set(
            s.idx,
            Msg::new(
                MsgKind::SizeReport {
                    size,
                    active: stay_active,
                },
                id_bits,
                rumor_bits,
            ),
        );
    }
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            if s.is_follower() && who.selects(true, s.active) {
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
                if let MsgKind::SizeReport { size, active } = msg.kind {
                    s.prev_size = size;
                    s.size = size;
                    s.active = active;
                }
            }
        },
    );
    replies.clear();
    deactivated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::follow::Follow;
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
    fn cluster_size_measures_exactly() {
        let mut s = cluster_of(32, 10);
        collect_members(&mut s, Who::AllClustered);
        assert_eq!(s.leaders.row(NodeIdx(0)).members.len(), 10);
        size_round(&mut s, Who::AllClustered, None);
        for i in 0..10 {
            assert_eq!(s.net.states()[i].size, 10, "member {i} learned the size");
        }
    }

    #[test]
    fn cluster_size_costs_two_rounds() {
        let mut s = cluster_of(16, 8);
        let before = s.net.metrics().rounds;
        collect_members(&mut s, Who::AllClustered);
        size_round(&mut s, Who::AllClustered, None);
        assert_eq!(s.net.metrics().rounds - before, 2);
    }

    #[test]
    fn growth_stall_deactivates_whole_cluster() {
        let mut s = cluster_of(32, 10);
        // Pretend the cluster was already size 9: growth 10/9 < 2.0 stall.
        for i in 0..10 {
            s.net.states_mut()[i].prev_size = 9;
        }
        collect_members(&mut s, Who::ActiveOnly);
        let d = size_round(
            &mut s,
            Who::ActiveOnly,
            Some(GrowControl {
                cap: 5,
                stall_factor: 2.0,
            }),
        );
        assert_eq!(d, 1);
        for i in 0..10 {
            assert!(!s.net.states()[i].active, "member {i} deactivated");
        }
    }

    #[test]
    fn small_clusters_are_not_stalled() {
        let mut s = cluster_of(32, 4);
        for i in 0..4 {
            s.net.states_mut()[i].prev_size = 4;
        }
        collect_members(&mut s, Who::ActiveOnly);
        let d = size_round(
            &mut s,
            Who::ActiveOnly,
            Some(GrowControl {
                cap: 100,
                stall_factor: 2.0,
            }),
        );
        assert_eq!(d, 0, "below the cap the stall rule never fires");
        assert!(s.net.states()[0].active);
    }

    #[test]
    fn inactive_clusters_are_skipped_by_active_only() {
        let mut s = cluster_of(32, 10);
        for i in 0..10 {
            s.net.states_mut()[i].active = false;
        }
        let msgs = s.net.metrics().messages;
        collect_members(&mut s, Who::ActiveOnly);
        size_round(&mut s, Who::ActiveOnly, None);
        assert_eq!(
            s.net.metrics().messages,
            msgs,
            "inactive clusters send nothing"
        );
    }
}
