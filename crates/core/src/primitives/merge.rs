//! `ClusterPUSH` + `ClusterMerge` iterations (the squaring and merge-all
//! machinery of `SquareClusters` and `MergeAllClusters`).
//!
//! One iteration is three rounds:
//!
//! 1. **push** — every member of a pushing cluster PUSHes its cluster's ID
//!    (`follow`) to a uniformly random node;
//! 2. **relay** — members of merge-eligible clusters forward the candidate
//!    IDs they received to their leader (the paper's "all messages received
//!    … get relayed to their cluster leader");
//! 3. **merge** — each merge-eligible leader picks a target among the
//!    relayed candidates (smallest or uniformly random, per the algorithm)
//!    and all its followers pull the new leader ID (`ClusterMerge`).
//!
//! Simultaneous merges can leave one-hop stale pointers; callers follow up
//! with [`super::flatten_round`] (see DESIGN.md §2).

use phonecall::{Action, Delivery, Target};
use rand::Rng;

use crate::follow::Follow;
use crate::msg::{Msg, MsgKind};
use crate::sim::ClusterSim;

use super::{flatten_round, Who};

/// How a merging leader picks among relayed candidates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeRule {
    /// The smallest candidate ID (Algorithm 1's `SquareClusters` and both
    /// algorithms' `MergeAllClusters`).
    Smallest,
    /// A uniformly random candidate (Algorithm 2's `SquareClusters` and
    /// Algorithm 4's `MergeClusters` — randomization spreads inactive
    /// clusters evenly over the active ones).
    Random,
}

/// Options for one [`merge_iteration`].
#[derive(Clone, Copy, Debug)]
pub struct MergeOpts {
    /// Which clusters push their ID.
    pub pushers: Who,
    /// Whether only inactive clusters merge (`SquareClusters`) or all
    /// clusters do (`MergeAllClusters`).
    pub inactive_merge_only: bool,
    /// Candidate selection rule.
    pub rule: MergeRule,
    /// Only merge into strictly smaller IDs (`MergeAllClusters` — makes
    /// the globally smallest cluster the sink).
    pub smaller_only: bool,
    /// Mark everything that merges as active (inactive clusters joining an
    /// active cluster become part of an active cluster).
    pub mark_merged_active: bool,
}

/// Runs one push → relay → merge iteration (three rounds).
pub fn merge_iteration(sim: &mut ClusterSim, opts: MergeOpts) {
    let id_bits = sim.id_bits;
    let rumor_bits = sim.rumor_bits;
    let n = sim.n();
    let (arena, leaders, replies) = (&sim.arena, &mut sim.leaders, &mut sim.replies);

    // Round 1: pushing clusters PUSH their cluster ID to random nodes.
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            if opts.pushers.selects(s.is_clustered(), s.active) {
                let cid = s.leader().expect("clustered node has leader");
                Action::Push {
                    to: Target::Random,
                    msg: Msg::new(MsgKind::Recruit(cid), id_bits, rumor_bits),
                }
            } else {
                Action::Idle
            }
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                if let MsgKind::Recruit(cid) = msg.kind {
                    arena.push(&mut s.inbox, cid);
                }
            }
        },
    );

    // Round 2: members of merge-eligible clusters relay received candidates
    // to their leader; leaders fold their own inbox in locally.
    let eligible = move |s: &crate::node::ClusterNode| -> bool {
        s.is_clustered() && (!opts.inactive_merge_only || !s.active)
    };
    for s in sim.net.states_mut() {
        if s.is_leader() && eligible(s) {
            arena.append(&mut leaders.row(s.idx).candidates, &mut s.inbox);
        }
    }
    sim.net.round(
        |ctx, _rng| {
            let s = ctx.state;
            if s.is_follower() && eligible(s) && !s.inbox.is_empty() {
                Action::Push {
                    to: Target::Direct(s.leader().expect("follower has leader")),
                    msg: Msg::new(
                        MsgKind::Candidates(arena.to_vec(&s.inbox).into()),
                        id_bits,
                        rumor_bits,
                    ),
                }
            } else {
                Action::Idle
            }
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                if let MsgKind::Candidates(v) = msg.kind {
                    arena.extend(&mut leaders.row(s.idx).candidates, v.iter().copied());
                }
            }
        },
    );

    // Round 3: merge-eligible leaders decide and everyone pulls the verdict.
    for i in 0..n {
        // (split borrow: draw randomness before touching the state)
        let pick_random: f64 = sim.rng.gen();
        let s = &mut sim.net.states_mut()[i];
        // Relayed or not, this iteration's inbox is spent.
        if !s.inbox.is_empty() {
            arena.clear(&mut s.inbox);
        }
        if !s.is_leader() {
            continue;
        }
        let mut target = None;
        let candidates = &leaders.row(s.idx).candidates;
        if eligible(s) && !candidates.is_empty() {
            let own = s.id;
            let mut cands = arena.to_vec(candidates);
            cands.retain(|c| *c != own && (!opts.smaller_only || *c < own));
            match opts.rule {
                MergeRule::Smallest => target = cands.iter().copied().min(),
                MergeRule::Random => {
                    if !cands.is_empty() {
                        cands.sort_unstable();
                        cands.dedup();
                        let k = (pick_random * cands.len() as f64) as usize;
                        target = Some(cands[k.min(cands.len() - 1)]);
                    }
                }
            }
        }
        let verdict = target.unwrap_or(s.id);
        replies.set(
            s.idx,
            Msg::new(MsgKind::FollowVal(Some(verdict)), id_bits, rumor_bits),
        );
        if target.is_some() {
            s.follow = Follow::Of(verdict);
            if opts.mark_merged_active {
                s.active = true;
            }
        }
    }
    // Whatever was relayed is spent — including what stale pointers sent
    // to nodes that lead nothing.
    for row in leaders.rows_mut() {
        arena.clear(&mut row.candidates);
    }
    let mark_active = opts.mark_merged_active;
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
                if let MsgKind::FollowVal(Some(v)) = msg.kind {
                    if Follow::Of(v) != s.follow {
                        s.follow = Follow::Of(v);
                        if mark_active {
                            s.active = true;
                        }
                    }
                }
            }
        },
    );
    replies.clear();
}

/// `MergeAllClusters`: repeatedly merge every cluster into the smallest
/// cluster ID it hears about, followed by a pointer-jumping round, until
/// (budget permitting) a single cluster remains.
///
/// ```
/// use gossip_core::{primitives, ClusterSim, CommonConfig};
/// let mut sim = ClusterSim::new(128, &CommonConfig::default());
/// primitives::sample_singletons(&mut sim, 1.0); // everyone a singleton
/// primitives::merge_all(&mut sim, 8);
/// assert_eq!(sim.clustering_stats().clusters, 1);
/// ```
///
/// The paper uses exactly two iterations, which suffices asymptotically; at
/// practical sizes the per-iteration absorption factor is finite, so the
/// caller passes an explicitly computed `iterations` budget (still
/// `O(log log n)`, see DESIGN.md §2).
pub fn merge_all(sim: &mut ClusterSim, iterations: u32) {
    for _ in 0..iterations {
        merge_iteration(
            sim,
            MergeOpts {
                pushers: Who::AllClustered,
                inactive_merge_only: false,
                rule: MergeRule::Smallest,
                smaller_only: true,
                mark_merged_active: false,
            },
        );
        flatten_round(sim);
    }
    flatten_round(sim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::primitives::sample_singletons;
    use crate::verify::check_clustering;

    /// Everyone a singleton leader.
    fn all_singletons(n: usize, seed: u64) -> ClusterSim {
        let mut common = CommonConfig::default();
        common.seed = seed;
        let mut s = ClusterSim::new(n, &common);
        sample_singletons(&mut s, 1.0);
        s
    }

    #[test]
    fn merge_all_converges_to_one_cluster() {
        let mut s = all_singletons(256, 1);
        merge_all(&mut s, 8);
        check_clustering(&s).expect("well-formed");
        let stats = s.clustering_stats();
        assert_eq!(stats.clusters, 1, "got {} clusters", stats.clusters);
        assert_eq!(stats.clustered, 256);
    }

    #[test]
    fn merge_all_sink_is_smallest_id() {
        let mut s = all_singletons(128, 2);
        let min_id = s.alive_states().map(|x| x.id).min().unwrap();
        merge_all(&mut s, 8);
        let map = s.cluster_map();
        assert!(map.contains_key(&min_id), "smallest ID is the sink");
    }

    #[test]
    fn merge_preserves_membership_count() {
        let mut s = all_singletons(200, 3);
        let before = s.clustered_count();
        merge_iteration(
            &mut s,
            MergeOpts {
                pushers: Who::AllClustered,
                inactive_merge_only: false,
                rule: MergeRule::Smallest,
                smaller_only: true,
                mark_merged_active: false,
            },
        );
        flatten_round(&mut s);
        flatten_round(&mut s);
        assert_eq!(s.clustered_count(), before, "no node lost by merging");
        check_clustering(&s).expect("well-formed after flatten");
    }

    #[test]
    fn inactive_only_merge_leaves_active_clusters_in_place() {
        let mut s = all_singletons(64, 4);
        // Mark half the singletons inactive.
        for i in 0..64 {
            s.net.states_mut()[i].active = i % 2 == 0;
        }
        let active_leaders: Vec<_> = s
            .alive_states()
            .filter(|x| x.is_leader() && x.active)
            .map(|x| x.id)
            .collect();
        merge_iteration(
            &mut s,
            MergeOpts {
                pushers: Who::ActiveOnly,
                inactive_merge_only: true,
                rule: MergeRule::Random,
                smaller_only: false,
                mark_merged_active: true,
            },
        );
        // Every active leader still leads its own cluster.
        for id in active_leaders {
            let idx = s.net.resolve(id).unwrap();
            assert!(s.net.states()[idx.as_usize()].is_leader());
        }
        // Everything clustered that merged is now active.
        let map = s.cluster_map();
        for members in map.values() {
            if members.len() > 1 {
                for m in members {
                    assert!(s.net.states()[m.as_usize()].active);
                }
            }
        }
    }

    #[test]
    fn merge_iteration_costs_three_rounds_plus_flatten() {
        let mut s = all_singletons(64, 5);
        let before = s.net.metrics().rounds;
        merge_iteration(
            &mut s,
            MergeOpts {
                pushers: Who::AllClustered,
                inactive_merge_only: false,
                rule: MergeRule::Smallest,
                smaller_only: true,
                mark_merged_active: false,
            },
        );
        assert_eq!(s.net.metrics().rounds - before, 3);
    }
}
