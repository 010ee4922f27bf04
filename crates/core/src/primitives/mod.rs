//! The cluster coordination primitives of Section 3.2.
//!
//! Each primitive costs a **constant number of rounds** and (at most) a
//! constant number of messages per participating node. They are composed by
//! the algorithm modules into the phases of Algorithms 1–4.
//!
//! Every round is one of two shapes, each written once in [`crate::sim`]:
//! a **push** round or a **pull** round, addressed either to a random node
//! or — by direct addressing — from a follower to its leader.
//!
//! | paper primitive      | here                                 | rounds |
//! |----------------------|--------------------------------------|--------|
//! | `ClusterActivate(p)` | [`activate`]                         | pull from leader |
//! | `ClusterSize`        | [`collect_members`] + [`size_round`] | push to leader + pull from leader |
//! | `ClusterDissolve(s)` | [`dissolve`]                         | push to leader + pull from leader |
//! | `ClusterResize(s)`   | [`resize`]                           | push to leader + pull from leader |
//! | `ClusterPUSH` + `ClusterMerge` | [`merge_iteration`] (push, relay, merge) | random push + push to leader + pull from leader |
//! | `ClusterActivate` + 2 × (`ClusterPUSH` + `ClusterMerge`) | [`recruit_merge`] | pull from leader + 2 × merge iteration + pull from leader (flatten) |
//! | `SquareClusters`' loop | [`square`] | per iteration: `ClusterResize` + [`recruit_merge`] |
//! | `ClusterPUSH` onto unclustered nodes | [`grow_push_round`]  | random push |
//! | growth-controlled recruiting | [`grow_control_iteration`]   | random push + push to leader + pull from leader |
//! | `ClusterShare(msg)`  | [`share_rumor`]                      | push to leader + pull from leader |
//! | (chain flattening)   | [`flatten_round`]                    | pull from leader |
//! | final PULL joins     | [`unclustered_pull_round`]           | random pull |
//! | (minority merge)     | [`consolidate`]                      | `ClusterSize` + random pull + push to leader + 2 × pull from leader |
//!
//! Two deviations from a literal pseudocode reading (README, "Deviations
//! from the paper"): the `ClusterResize` follower rule uses the *smallest*
//! new leader ID at least the follower's own (the paper's "largest" is a
//! typo — it would send every follower to one group), and simultaneous
//! merges are healed by pointer jumping ([`flatten_round`]) since every
//! node answers leadership pulls with its *current* follow value.

mod activation;
mod consolidate;
mod membership;
mod merge;
mod recruit;
mod reshape;
mod share;

pub use activation::{activate, sample_singletons, seed_informed_leaders};
pub use consolidate::consolidate;
pub use membership::{collect_members, size_round, GrowControl};
pub use merge::{merge_all, merge_iteration, recruit_merge, square, Merge, MergeRule};
pub use recruit::{
    bounded_recruit_iteration, grow_control_iteration, grow_push_round, BoundedRecruitOutcome,
};
pub use reshape::{dissolve, resize};
pub use share::{flatten_round, share_rumor, unclustered_pull_round};

use phonecall::{NodeId, Target};

use crate::msg::Span;
use crate::node::ClusterNode;
use crate::sim::to_leader;

/// Which clustered nodes participate in a push.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Who {
    /// All clustered nodes.
    AllClustered,
    /// Only nodes whose cluster is activated.
    ActiveOnly,
}

impl Who {
    pub(crate) fn selects(self, clustered: bool, active: bool) -> bool {
        match self {
            Who::AllClustered => clustered,
            Who::ActiveOnly => clustered && active,
        }
    }

    /// The leader's address for a selected follower ([`to_leader`]).
    pub(crate) fn to_leader(self, s: &ClusterNode) -> Option<Target> {
        to_leader(s).filter(|_| self.selects(true, s.active))
    }
}

/// The `ClusterResize` follower rule: the smallest candidate ID that is at
/// least `own` (candidates ascending); falls back to the largest candidate
/// (only reachable if `own` exceeds every candidate, which contiguous
/// grouping rules out — kept as a defensive fallback).
pub(crate) fn smallest_geq(candidates: &[NodeId], own: NodeId) -> Option<NodeId> {
    candidates
        .iter()
        .copied()
        .filter(|c| *c >= own)
        .min()
        .or_else(|| candidates.iter().copied().max())
}

/// The `ClusterResize` grouping rule: `members` split into `k` contiguous
/// groups by ascending ID (sizes differing by at most one); the largest ID
/// of each group leads it. Appends the new leader IDs, ascending, to
/// `col` and returns their span; leaves `members` sorted.
pub(crate) fn group_leaders(members: &mut [NodeId], k: usize, col: &mut Vec<NodeId>) -> Span {
    members.sort_unstable();
    let (base, extra) = (members.len() / k, members.len() % k);
    let mut at = 0usize;
    let leaders = (0..k).map(|g| {
        at += base + usize::from(g < extra);
        members[at - 1]
    });
    Span::appended(col, leaders)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(x: u64) -> NodeId {
        NodeId::from_raw(x)
    }

    #[test]
    fn smallest_geq_picks_own_group_leader() {
        let leaders = [id(10), id(20), id(30)];
        assert_eq!(smallest_geq(&leaders, id(5)), Some(id(10)));
        assert_eq!(smallest_geq(&leaders, id(10)), Some(id(10)));
        assert_eq!(smallest_geq(&leaders, id(11)), Some(id(20)));
        assert_eq!(smallest_geq(&leaders, id(30)), Some(id(30)));
        // Defensive fallback: own above all leaders.
        assert_eq!(smallest_geq(&leaders, id(31)), Some(id(30)));
        assert_eq!(smallest_geq(&[], id(1)), None);
    }

    #[test]
    fn group_leaders_are_the_largest_of_contiguous_groups() {
        let mut members = [70, 10, 40, 20, 60, 30, 50].map(id);
        let mut col = Vec::new();
        // 7 into 3: sizes 3, 2, 2 over the ascending IDs.
        let three = group_leaders(&mut members, 3, &mut col);
        assert!(members.is_sorted(), "sorted in place");
        // A second call appends to the same column, past the first span.
        let one = group_leaders(&mut members, 1, &mut col);
        assert_eq!(col.len(), 4, "two disjoint spans");
        assert_eq!(three.of(&col), [id(30), id(50), id(70)]);
        assert_eq!(one.of(&col), [id(70)]);
    }

    #[test]
    fn who_filters() {
        assert!(Who::AllClustered.selects(true, false));
        assert!(!Who::AllClustered.selects(false, true));
        assert!(Who::ActiveOnly.selects(true, true));
        assert!(!Who::ActiveOnly.selects(true, false));
    }
}
