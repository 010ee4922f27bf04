//! Wire messages exchanged by the cluster algorithms, with exact bit
//! accounting.
//!
//! All messages are `O(log n)` bits — they carry the rumor, a node count,
//! or `O(1)` node IDs — except the two cases the paper itself calls out
//! (footnote in Section 3.2): `ClusterResize` announcements carry
//! `⌊s'/s⌋` IDs, and rumor shares carry the `b`-bit rumor.
//!
//! Message sizes depend on the run (ID width scales with `log n`, the rumor
//! is `b` bits), so messages are built by the run's [`WireSizes`] (held by
//! [`crate::sim::ClusterSim`]), which stamps each [`MsgKind`] with its
//! exact size at construction.
//!
//! # Layout
//!
//! A [`Msg`] is a plain value: it is `Copy`, has no destructor, is 24
//! bytes (a 16-byte [`MsgKind`] and the 8-byte stamped size), and
//! `Option<Msg>` is no larger (the enum tag has spare values). The engine
//! keeps one payload column per round and moves, buffers and drops every
//! message it carries, and [`crate::sim::ClusterSim`] keeps one prepared
//! response per node; without drop glue each of those is a plain copy,
//! and a pull response is copied once per puller. Every variant fits 12
//! payload bytes beside the tag: counts of nodes are `u32` (`n` fits
//! one), an `Option<NodeId>` is 8 bytes (a [`NodeId`] is never zero, so
//! `None` takes the zero), and a variable-length payload is a [`Span`]
//! into a column its primitive owns and fills before the round that
//! carries it. A column
//! lives for that one round: nothing writes it while the round runs, so
//! a span read at delivery sees the list as it was at send time, under
//! either engine, and the primitive empties the column once the round is
//! over.

use phonecall::{NodeId, Wire};
use serde::{Deserialize, Serialize};

/// A run of entries in a column a primitive owns for one round: the
/// `len` entries from `start` on. It is what a list payload carries
/// instead of the list (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The `len` entries from `start` on. A column holds at most a few
    /// entries per node, and `n` fits a `u32`.
    pub(crate) fn new(start: usize, len: usize) -> Self {
        debug_assert!(
            u32::try_from(start + len).is_ok(),
            "a column outgrew u32 offsets"
        );
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    /// Appends `items` to `col` and returns the span they occupy.
    pub(crate) fn appended<T>(col: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Self {
        let start = col.len();
        col.extend(items);
        Span::new(start, col.len() - start)
    }

    /// Number of entries.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the span names no entry.
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The entries of `col` this span names.
    ///
    /// # Panics
    ///
    /// Panics if the span reaches past the end of `col`.
    #[must_use]
    pub fn of<T>(self, col: &[T]) -> &[T] {
        let start = self.start as usize;
        &col[start..start + self.len as usize]
    }
}

/// The semantic content of a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgKind {
    /// Follower → leader: "I am a member" (carries the sender's ID
    /// implicitly; one ID charged).
    MemberId(NodeId),
    /// Member → leader: relayed recruit candidates received this
    /// iteration, in the push round's arrival log.
    Candidates(Span),
    /// Cluster PUSH: "join / merge into the cluster led by this ID".
    Recruit(NodeId),
    /// Leader → followers (`ClusterResize` response): the new leader IDs,
    /// plus the leader's estimate of each new cluster's size so growth
    /// tracking survives the split.
    Leaders {
        /// New leader IDs, ascending, in the sim's leader-list column.
        ids: Span,
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
    /// A cluster advertisement: leader ID plus (approximate) cluster size.
    /// Used as the pull response during join and consolidation phases.
    ClusterAd {
        /// The advertised cluster's leader.
        leader: NodeId,
        /// The advertised cluster's size as known to the responder.
        size: u32,
    },
    /// Relayed cluster advertisements (member -> leader), in the relay
    /// round's advertisement column.
    Ads(Span),
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
            MsgKind::ClusterAd { .. } => 2 * id_bits,
            MsgKind::Ads(v) => 16 + v.len() as u64 * 2 * id_bits,
        }
    }
}

/// A message with its wire size stamped at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Msg {
    /// Semantic content.
    pub kind: MsgKind,
    bits: u64,
}

// The engine's columns and the prepared responses rely on these: a heap
// payload back in a message, or a wider one, fails the build here.
const _: () = {
    assert!(!std::mem::needs_drop::<Msg>());
    assert!(std::mem::size_of::<MsgKind>() == 16);
    assert!(std::mem::size_of::<Msg>() == 24);
    assert!(std::mem::size_of::<Option<Msg>>() == 24);
};

impl Msg {
    /// Builds a message, computing its size from the run parameters.
    ///
    /// Algorithms build messages through [`WireSizes::msg`] instead, which
    /// fills in the run's ID width and rumor size.
    #[must_use]
    pub fn new(kind: MsgKind, id_bits: u64, rumor_bits: u64) -> Self {
        let bits = kind.size_bits(id_bits, rumor_bits);
        Msg { kind, bits }
    }
}

/// A run's wire sizes, and the one place a [`Msg`] is stamped with them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSizes {
    /// Width of a node ID on the wire: `2·⌈log₂ n⌉` bits (polynomial ID
    /// space).
    pub id_bits: u64,
    /// Rumor size `b` in bits.
    pub rumor_bits: u64,
}

impl WireSizes {
    /// A message of `kind`, sized for this run.
    #[must_use]
    pub fn msg(self, kind: MsgKind) -> Msg {
        Msg::new(kind, self.id_bits, self.rumor_bits)
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
    fn a_span_names_its_entries() {
        let mut col = vec![10, 11];
        let span = Span::appended(&mut col, [12, 13, 14]);
        assert_eq!((span.len(), span.of(&col)), (3, &[12, 13, 14][..]));
        let none = Span::appended(&mut col, []);
        assert!(none.is_empty() && none.of(&col).is_empty());
        assert_eq!(Span::new(1, 2).of(&col), [11, 12]);
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
        // A 16-bit length prefix plus each entry, and one more ID for
        // `Leaders`; where the list sits in its column is not on the wire.
        for (start, len) in [(0, 0), (0, 3), (99, 3), (5, 1000)] {
            let span = Span::new(start, len);
            let len = len as u64;
            assert_eq!(bits(MsgKind::Candidates(span)), 16 + len * ID);
            let leaders = MsgKind::Leaders {
                ids: span,
                piece_size: 5,
            };
            assert_eq!(bits(leaders), 16 + len * ID + ID);
            assert_eq!(bits(MsgKind::Ads(span)), 16 + len * 2 * ID);
        }
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
    }

    #[test]
    fn rumor_costs_b_bits() {
        assert_eq!(bits(MsgKind::Rumor), B);
        assert_eq!(bits(MsgKind::Coin(true)), 1);
    }
}
