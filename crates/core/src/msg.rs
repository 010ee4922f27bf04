//! Wire messages exchanged by the cluster algorithms, with exact bit
//! accounting.
//!
//! All messages are `O(log n)` bits — they carry the rumor, a node count,
//! or `O(1)` node IDs — except the two cases the paper itself calls out
//! (footnote in Section 3.2): `ClusterResize` announcements carry
//! `⌊s'/s⌋` IDs, and rumor shares carry the `b`-bit rumor.
//!
//! Message sizes depend on the run (ID width scales with `log n`, the rumor
//! is `b` bits), so messages are built by [`crate::sim::ClusterSim`], which
//! stamps each [`MsgKind`] with its exact size at construction.
//!
//! # Layout
//!
//! A [`Msg`] is 32 bytes and `Option<Msg>` is no larger (the enum tag has
//! spare values): the engine keeps a column of each per round, and
//! [`crate::sim::ClusterSim`] one prepared response per node. Every
//! variant therefore fits 16 payload bytes — counts of nodes are `u32`
//! (`n` fits one), variable-length payloads are thin boxed slices. A pull
//! response is a **pre-round snapshot** that `respond` clones once per
//! puller, so the one heap payload a response can carry
//! ([`MsgKind::Leaders`]) is shared behind an `Rc`: a clone is a counter
//! bump, not a copy of the ID list. (`Rc`, not `Arc`: a simulation never
//! leaves its thread.)

use std::rc::Rc;

use phonecall::{NodeId, Wire};
use serde::{Deserialize, Serialize};

/// The semantic content of a message.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgKind {
    /// Follower → leader: "I am a member" (carries the sender's ID
    /// implicitly; one ID charged).
    MemberId(NodeId),
    /// Member → leader: relayed recruit candidates received this iteration.
    Candidates(Box<[NodeId]>),
    /// Cluster PUSH: "join / merge into the cluster led by this ID".
    Recruit(NodeId),
    /// Leader → followers (`ClusterResize` response): the new leader IDs,
    /// plus the leader's estimate of each new cluster's size so growth
    /// tracking survives the split.
    Leaders {
        /// New leader IDs, ascending; shared by every puller's copy.
        ids: Rc<[NodeId]>,
        /// Estimated size of each new piece.
        piece_size: u32,
    },
    /// Leader → followers: the current follow value (merge target, dissolve
    /// verdict, or pointer-jumping step). `None` encodes `∞`.
    FollowVal(Option<NodeId>),
    /// Leader → followers: measured cluster size plus the activation /
    /// keep-recruiting verdict (Cluster2's growth control).
    SizeReport {
        /// Measured size.
        size: u32,
        /// Whether the cluster remains active.
        active: bool,
    },
    /// Leader → followers: outcome of the activation coin.
    Coin(bool),
    /// A plain node count.
    Count(u64),
    /// The rumor payload (`b` bits).
    Rumor,
    /// Rumor plus the sending cluster's ID (ClusterPushPull's recruit).
    RumorRecruit(NodeId),
    /// A cluster advertisement: leader ID plus (approximate) cluster size.
    /// Used as the pull response during join and consolidation phases.
    ClusterAd {
        /// The advertised cluster's leader.
        leader: NodeId,
        /// The advertised cluster's size as known to the responder.
        size: u32,
    },
    /// Relayed cluster advertisements (member -> leader).
    Ads(Box<[(NodeId, u32)]>),
}

impl MsgKind {
    /// Payload size in bits given the per-run ID width and rumor size.
    #[must_use]
    pub fn size_bits(&self, id_bits: u64, rumor_bits: u64) -> u64 {
        match self {
            MsgKind::MemberId(_) | MsgKind::Recruit(_) => id_bits,
            MsgKind::Candidates(v) => 16 + v.len() as u64 * id_bits,
            MsgKind::Leaders { ids, .. } => 16 + ids.len() as u64 * id_bits + id_bits,
            MsgKind::FollowVal(_) => 1 + id_bits,
            MsgKind::SizeReport { .. } => 1 + id_bits,
            MsgKind::Coin(_) => 1,
            MsgKind::Count(_) => id_bits,
            MsgKind::Rumor => rumor_bits,
            MsgKind::RumorRecruit(_) => rumor_bits + id_bits,
            MsgKind::ClusterAd { .. } => 2 * id_bits,
            MsgKind::Ads(v) => 16 + v.len() as u64 * 2 * id_bits,
        }
    }
}

/// A message with its wire size stamped at construction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Msg {
    /// Semantic content.
    pub kind: MsgKind,
    bits: u64,
}

impl Msg {
    /// Builds a message, computing its size from the run parameters.
    ///
    /// Algorithms normally call [`crate::sim::ClusterSim::msg`] instead,
    /// which fills in the run's ID width and rumor size.
    #[must_use]
    pub fn new(kind: MsgKind, id_bits: u64, rumor_bits: u64) -> Self {
        let bits = kind.size_bits(id_bits, rumor_bits);
        Msg { kind, bits }
    }
}

impl Wire for Msg {
    fn size_bits(&self) -> u64 {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: u64 = 32;
    const B: u64 = 256;

    fn bits(kind: MsgKind) -> u64 {
        Msg::new(kind, ID, B).size_bits()
    }

    #[test]
    fn a_message_is_32_bytes_and_its_option_is_free() {
        // The engine's `push_msg` / `responses` columns and the per-node
        // prepared responses are sized by these two.
        assert!(std::mem::size_of::<Msg>() <= 32);
        assert_eq!(
            std::mem::size_of::<Option<Msg>>(),
            std::mem::size_of::<Msg>()
        );
    }

    #[test]
    fn cloning_a_leaders_reply_shares_the_id_list() {
        let ids: Rc<[NodeId]> = vec![NodeId::from_raw(1), NodeId::from_raw(2)].into();
        let kind = MsgKind::Leaders {
            ids: ids.clone(),
            piece_size: 5,
        };
        let copy = Msg::new(kind, ID, B).clone();
        let MsgKind::Leaders { ids: copied, .. } = copy.kind else {
            panic!("a clone keeps its kind");
        };
        assert!(Rc::ptr_eq(&ids, &copied));
    }

    #[test]
    fn single_id_messages_cost_one_id() {
        let id = NodeId::from_raw(1);
        assert_eq!(bits(MsgKind::MemberId(id)), ID);
        assert_eq!(bits(MsgKind::Recruit(id)), ID);
        assert_eq!(bits(MsgKind::Count(7)), ID);
    }

    #[test]
    fn vector_messages_scale_with_length() {
        let ids = vec![
            NodeId::from_raw(1),
            NodeId::from_raw(2),
            NodeId::from_raw(3),
        ];
        assert_eq!(bits(MsgKind::Candidates(ids.clone().into())), 16 + 3 * ID);
        assert_eq!(
            bits(MsgKind::Leaders {
                ids: ids.into(),
                piece_size: 5
            }),
            16 + 3 * ID + ID
        );
    }

    #[test]
    fn ad_messages_cost_two_ids_each() {
        let id = NodeId::from_raw(1);
        assert_eq!(
            bits(MsgKind::ClusterAd {
                leader: id,
                size: 9
            }),
            2 * ID
        );
        assert_eq!(bits(MsgKind::Ads([(id, 1), (id, 2)].into())), 16 + 4 * ID);
    }

    #[test]
    fn rumor_costs_b_bits() {
        assert_eq!(bits(MsgKind::Rumor), B);
        assert_eq!(bits(MsgKind::RumorRecruit(NodeId::from_raw(1))), B + ID);
        assert_eq!(bits(MsgKind::Coin(true)), 1);
    }
}
