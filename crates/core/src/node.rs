//! Per-node algorithm state: one cache line of protocol state per node.
//!
//! [`Network::round`](phonecall::Network::round) activates every alive
//! node every round, and in most rounds most nodes send nothing (three
//! quarters of Cluster2's node-rounds are idle), so the bytes `decide`
//! drags through the cache per idle node are a first-order cost. A
//! [`ClusterNode`] therefore holds only what the paper's protocol reads
//! and writes — `follow`, activation, informedness, the cluster size —
//! plus the node's own index and the 12-byte recruit inbox handle: 64
//! bytes, the size of a cache line, so an activation touches at most two
//! lines. (The size of a line, deliberately not `#[repr(align(64))]`:
//! glibc serves an over-aligned megabyte from the heap rather than by
//! `mmap`, and a process that builds and drops many simulations then
//! fragments — 3× the peak RSS on the benchmark's `async_latency`.)
//!
//! What a *primitive* needs only while it runs — leader member lists,
//! merge candidates, the prepared pull response — is not here. It lives
//! in [`ClusterSim`](crate::sim::ClusterSim)-owned storage keyed by
//! [`ClusterNode::idx`] (see [`crate::sim`]).

use phonecall::{NodeId, NodeIdx};

use crate::arena::List;
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
    /// Iteration at which this node's cluster became informed
    /// (ClusterPushPull's "newly informed" tracking).
    pub informed_at: Option<u32>,
    /// Recruit/candidate IDs received via random pushes this iteration.
    /// A 12-byte handle into the [`ClusterSim`](crate::sim::ClusterSim)'s
    /// shared ID arena, not a per-node `Vec`.
    pub inbox: List,
}

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
            informed_at: None,
            inbox: List::default(),
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
    fn a_node_is_one_cache_line() {
        // The idle-activation budget: a round streams this struct once
        // per alive node, so leader working memory and prepared responses
        // stay out of it (they are `ClusterSim` scratch keyed by `idx`).
        // A regression back to inline scratch shows up here before it
        // shows up as a slower round at n = 2^19.
        assert_eq!(std::mem::size_of::<List>(), 12);
        assert!(
            std::mem::size_of::<ClusterNode>() <= 64,
            "ClusterNode grew to {} bytes — keep per-primitive scratch in \
             ClusterSim, not inline",
            std::mem::size_of::<ClusterNode>()
        );
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
