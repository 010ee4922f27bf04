//! The cluster coordination primitives of Section 3.2.
//!
//! Each primitive costs a **constant number of rounds** and (at most) a
//! constant number of messages per participating node. They are composed by
//! the algorithm modules into the phases of Algorithms 1–4.
//!
//! | paper primitive      | here                                         |
//! |----------------------|----------------------------------------------|
//! | `ClusterActivate(p)` | [`activate`]                                 |
//! | `ClusterSize`        | [`collect_members`] + [`size_round`]         |
//! | `ClusterDissolve(s)` | [`dissolve`]                                 |
//! | `ClusterResize(s)`   | [`resize`]                                   |
//! | `ClusterPUSH` + `ClusterMerge` | [`merge_iteration`] (push, relay, merge) |
//! | `ClusterPUSH` onto unclustered nodes | [`grow_push_round`]          |
//! | `ClusterShare(msg)`  | [`share_rumor`]                              |
//! | (chain flattening)   | [`flatten_round`] — see DESIGN.md §2         |
//! | final PULL joins     | [`unclustered_pull_round`]                   |
//!
//! Two deviations from a literal pseudocode reading, both documented in
//! DESIGN.md: the `ClusterResize` follower rule uses the *smallest* new
//! leader ID at least the follower's own (the paper's "largest" is a typo
//! — it would send every follower to one group), and simultaneous merges
//! are healed by pointer jumping ([`flatten_round`]) since every node
//! answers leadership pulls with its *current* follow value.

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
pub use merge::{merge_all, merge_iteration, MergeOpts, MergeRule};
pub use recruit::{
    bounded_recruit_iteration, grow_control_iteration, grow_push_round, BoundedRecruitOutcome,
};
pub use reshape::{dissolve, resize};
pub use share::{flatten_round, share_rumor, unclustered_pull_round};

use std::rc::Rc;

use phonecall::NodeId;

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
/// of each group leads it. Returns the new leader IDs, ascending.
pub(crate) fn group_leaders(mut members: Vec<NodeId>, k: usize) -> Rc<[NodeId]> {
    members.sort_unstable();
    let (base, extra) = (members.len() / k, members.len() % k);
    let mut at = 0usize;
    (0..k)
        .map(|g| {
            at += base + usize::from(g < extra);
            members[at - 1]
        })
        .collect()
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
        let members: Vec<_> = [70, 10, 40, 20, 60, 30, 50].map(id).into();
        // 7 into 3: sizes 3, 2, 2 over the ascending IDs.
        assert_eq!(
            &*group_leaders(members.clone(), 3),
            [id(30), id(50), id(70)]
        );
        assert_eq!(&*group_leaders(members, 1), [id(70)]);
    }

    #[test]
    fn who_filters() {
        assert!(Who::AllClustered.selects(true, false));
        assert!(!Who::AllClustered.selects(false, true));
        assert!(Who::ActiveOnly.selects(true, true));
        assert!(!Who::ActiveOnly.selects(true, false));
    }
}
