//! Per-node algorithm state: 32 bytes of protocol state per node.
//!
//! [`Network::round`](phonecall::Network::round) activates every alive
//! node every round, and in most rounds most nodes send nothing (three
//! quarters of Cluster2's node-rounds are idle), so the bytes `decide`
//! drags through the cache per idle node are a first-order cost. A
//! [`ClusterNode`] therefore holds only what the paper's protocol reads
//! and writes — `follow`, activation, informedness, the cluster size —
//! plus the node's own index: 32 bytes, two to a cache line. `follow` is
//! one word because a [`NodeId`] is never zero, and what only one
//! algorithm reads stays out: ClusterPushPull's per-node informing epoch
//! is a [`ClusterSim`](crate::sim::ClusterSim) column that only that
//! broadcast fills. (Deliberately not `#[repr(align(64))]`: glibc serves
//! an over-aligned megabyte from the heap rather than by `mmap`, and a
//! process that builds and drops many simulations then fragments — 3×
//! the peak RSS on the benchmark's `async_latency`.)
//!
//! Nor does a node queue what it receives. Each reader folds its
//! messages where it needs them: the cluster IDs a push round delivers go
//! to the [`ClusterSim`](crate::sim::ClusterSim)'s arrival log until the
//! primitive that sent them clears it; member and candidate lists go to
//! the leader's row; the success test's failure flag is a column local to
//! [`crate::estimate::broadcast_success_test`]. Like the prepared pull
//! response, all of it lives in `ClusterSim`-owned storage keyed by
//! [`ClusterNode::idx`] (see [`crate::sim`]).

use phonecall::{NodeId, NodeIdx};

use crate::follow::Follow;

/// The state a node carries through any of the cluster algorithms.
///
/// Everything here is node-local; algorithms only read other nodes' state
/// through simulated messages.
#[derive(Clone, Debug)]
pub struct ClusterNode {
    /// This node's own wire ID.
    pub id: NodeId,
    /// The clustering variable of Section 3.1.
    pub follow: Follow,
    /// This node's own dense index: the key into the
    /// [`ClusterSim`](crate::sim::ClusterSim)'s per-node scratch. Engine
    /// bookkeeping, never put on the wire.
    pub idx: NodeIdx,
    /// Whether this node's cluster is currently activated
    /// (`ClusterActivate`); also used as the "keep recruiting" flag in the
    /// growth-controlled phases.
    pub active: bool,
    /// Whether this node knows the rumor.
    pub informed: bool,
    /// Set when this node's cluster merged and its pointer may be one hop
    /// stale (restricts flattening pulls to affected nodes).
    pub needs_flatten: bool,
    /// Last measured cluster size (leader: measured; follower: last value
    /// pulled from the leader). A node count, so `u32` like `n`.
    pub size: u32,
    /// Cluster size at the previous measurement, for growth-rate stopping
    /// rules.
    pub prev_size: u32,
}

// The idle-activation budget: a round streams this struct once per alive
// node, so leader working memory, prepared responses, received IDs and
// one algorithm's bookkeeping stay out of it (they are `ClusterSim`
// columns keyed by `idx`). A regression shows up here before it shows up
// as RSS or a slower round at n = 2^19.
const _: () = assert!(std::mem::size_of::<ClusterNode>() == 32);

impl ClusterNode {
    /// Fresh, unclustered, uninformed state for the node at `idx`.
    #[must_use]
    pub fn new(idx: NodeIdx, id: NodeId) -> Self {
        ClusterNode {
            id,
            follow: Follow::Unclustered,
            idx,
            active: false,
            informed: false,
            needs_flatten: false,
            size: 1,
            prev_size: 1,
        }
    }

    /// Whether this node belongs to a cluster.
    #[must_use]
    pub fn is_clustered(&self) -> bool {
        self.follow.is_clustered()
    }

    /// Whether this node is a cluster leader.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        self.follow.is_leader_for(self.id)
    }

    /// Whether this node is a cluster follower (clustered, not the leader).
    #[must_use]
    pub fn is_follower(&self) -> bool {
        self.is_clustered() && !self.is_leader()
    }

    /// The leader this node follows, if clustered.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        self.follow.leader()
    }

    /// Makes this node the leader of a fresh singleton cluster.
    pub fn become_singleton_leader(&mut self) {
        self.follow = Follow::Of(self.id);
        self.size = 1;
        self.prev_size = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(raw: u64) -> ClusterNode {
        ClusterNode::new(NodeIdx(0), NodeId::from_raw(raw))
    }

    #[test]
    fn fresh_node_is_unclustered() {
        let n = node(1);
        assert!(!n.is_clustered());
        assert!(!n.is_leader());
        assert!(!n.is_follower());
        assert!(!n.informed);
    }

    #[test]
    fn singleton_leader_roles() {
        let mut n = node(1);
        n.become_singleton_leader();
        assert!(n.is_leader());
        assert!(n.is_clustered());
        assert!(!n.is_follower());
        assert_eq!(n.leader(), Some(NodeId::from_raw(1)));
    }

    #[test]
    fn follower_roles() {
        let mut n = node(1);
        n.follow = Follow::Of(NodeId::from_raw(2));
        assert!(n.is_follower());
        assert!(!n.is_leader());
        assert_eq!(n.leader(), Some(NodeId::from_raw(2)));
    }
}
