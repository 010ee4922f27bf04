//! The `follow` variable that implements clusterings (Section 3.1).
//!
//! A clustering partitions nodes into disjoint clusters plus a set of
//! unclustered nodes. Each node `v` keeps a variable `follow_v`: the ID of
//! its cluster's leader, or `∞` when unclustered. A node is a **leader**
//! exactly when `follow_v = ID(v)`, a **follower** when `follow_v` names
//! some other node, and **unclustered** when `follow_v = ∞`.

use phonecall::NodeId;
use serde::{Deserialize, Serialize};

/// A node's `follow` variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Follow {
    /// `follow = ∞`: the node belongs to no cluster.
    Unclustered,
    /// `follow = id`: the node belongs to the cluster led by `id` (possibly
    /// itself).
    Of(NodeId),
}

// `Unclustered` takes the zero no `NodeId` has, so a follow variable is
// one word; `ClusterNode`'s 32 bytes rely on it.
const _: () = {
    assert!(std::mem::size_of::<Option<NodeId>>() == 8);
    assert!(std::mem::size_of::<Follow>() == 8);
};

impl Follow {
    /// Whether the node belongs to a cluster.
    #[must_use]
    pub fn is_clustered(self) -> bool {
        matches!(self, Follow::Of(_))
    }

    /// The leader ID this node follows, if clustered.
    #[must_use]
    pub fn leader(self) -> Option<NodeId> {
        match self {
            Follow::Unclustered => None,
            Follow::Of(id) => Some(id),
        }
    }

    /// Whether a node with ID `own` and this follow value is a leader.
    #[must_use]
    pub fn is_leader_for(self, own: NodeId) -> bool {
        self == Follow::Of(own)
    }
}

impl Default for Follow {
    /// Nodes start unclustered (`follow = ∞`).
    fn default() -> Self {
        Follow::Unclustered
    }
}

impl From<Option<NodeId>> for Follow {
    fn from(v: Option<NodeId>) -> Self {
        match v {
            None => Follow::Unclustered,
            Some(id) => Follow::Of(id),
        }
    }
}

impl From<Follow> for Option<NodeId> {
    fn from(f: Follow) -> Self {
        f.leader()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unclustered() {
        assert_eq!(Follow::default(), Follow::Unclustered);
        assert!(!Follow::default().is_clustered());
        assert_eq!(Follow::default().leader(), None);
    }

    #[test]
    fn leader_detection() {
        let me = NodeId::from_raw(7);
        let other = NodeId::from_raw(9);
        assert!(Follow::Of(me).is_leader_for(me));
        assert!(!Follow::Of(other).is_leader_for(me));
        assert!(!Follow::Unclustered.is_leader_for(me));
    }

    #[test]
    fn option_round_trip() {
        let id = NodeId::from_raw(3);
        assert_eq!(Follow::from(Some(id)).leader(), Some(id));
        assert_eq!(Follow::from(None), Follow::Unclustered);
        let back: Option<NodeId> = Follow::Of(id).into();
        assert_eq!(back, Some(id));
    }
}
