//! Node identity: opaque wire-level IDs from a polynomially large space and
//! dense engine-internal indices.
//!
//! The paper assumes each node has a unique `O(log n)`-bit address (think IP
//! address) and that nodes *cannot* enumerate the address space — knowing
//! `n` does not let a node guess other nodes' addresses. We model this with
//! a pseudo-random injection from dense indices `0..n` into a `u64` space;
//! algorithm code only ever sees [`NodeId`]s, while the engine resolves them
//! back to [`NodeIdx`]s through [`IdSpace`]'s directory, like a network
//! delivering to an IP address.
//!
//! # The directory
//!
//! After the first recruit rounds almost every message of the paper's
//! algorithms is a follower ↔ leader `Target::Direct(id)`, so
//! [`IdSpace::resolve`] sits on the hot path of every round. The directory
//! is an open-addressed table of 4-byte slots, each holding a node index
//! (`u32::MAX` = empty), with linear probing. Its one invariant: **the IDs are
//! SplitMix64 outputs, already uniformly mixed, so an ID's own top bits
//! are its hash** — no hasher runs. A probe hit is verified against
//! `ids[idx]`, so a foreign ID sharing a home slot still resolves to
//! `None`. The table has `(2n).next_power_of_two()` slots (load ≤ ½): a
//! lookup is one shift, on average about one slot load and one `ids` load.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A node's wire-visible unique address from the polynomial ID space.
///
/// `NodeId`s are what algorithms learn, store in `follow` variables, compare
/// (cluster IDs are ordered by leader ID in the paper) and put in messages.
/// They are deliberately *not* convertible back to a dense index without the
/// engine's directory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u64);

impl NodeId {
    /// Raw 64-bit value of the address (for hashing / serialization).
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an ID from its raw value.
    ///
    /// Intended for deserialization and tests; algorithms should only use
    /// IDs handed to them by the engine.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:#010x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// A dense engine-internal node index in `0..n`.
///
/// Indices exist so that simulator state lives in flat vectors; they are
/// *not* visible to algorithms on the wire (that would break the polynomial
/// ID space assumption and with it the lower bound of Theorem 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index as a `usize`, for vector addressing.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<NodeIdx> for usize {
    fn from(idx: NodeIdx) -> usize {
        idx.as_usize()
    }
}

/// Marks an empty directory slot. No node has this index: `n` fits `u32`,
/// so indices stop at `u32::MAX - 1`.
const EMPTY: u32 = u32::MAX;

/// The SplitMix64 increment; also salts the seed into the first counter.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The directory mapping between dense indices and wire IDs.
///
/// Construction assigns every index a pseudo-random 64-bit address derived
/// from the run seed with a SplitMix64-style mix, giving a deterministic,
/// collision-free (retried on collision), unordered-looking ID space.
#[derive(Clone, Debug)]
pub struct IdSpace {
    ids: Vec<NodeId>,
    /// Open-addressed directory (see the module docs): a node index or
    /// `EMPTY` per slot, a power-of-two number of slots, load ≤ ½.
    slots: Vec<u32>,
    /// `64 − log₂(slots.len())`: an ID's home slot is its top bits,
    /// `raw >> shift`.
    shift: u32,
}

impl IdSpace {
    /// Builds an ID space for `n` nodes from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not fit in a `u32`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        let mut space = Self::with_room(n);
        let mut counter = seed ^ GOLDEN;
        for _ in 0..n {
            // Draw mixed values until we find a fresh one (collisions in a
            // 64-bit space are vanishingly rare but must not corrupt the
            // directory).
            let id = loop {
                counter = counter.wrapping_add(GOLDEN);
                let candidate = NodeId(splitmix64(counter));
                if space.resolve(candidate).is_none() {
                    break candidate;
                }
            };
            space.insert(id);
        }
        space
    }

    /// An empty space with a directory sized for `n` IDs.
    fn with_room(n: usize) -> Self {
        assert!(n > 0, "network must contain at least one node");
        assert!(u32::try_from(n).is_ok(), "n must fit in u32");
        let slots = (2 * n).next_power_of_two();
        IdSpace {
            ids: Vec::with_capacity(n),
            slots: vec![EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Gives `id` (not yet present) the next dense index.
    fn insert(&mut self, id: NodeId) {
        let mask = self.slots.len() - 1;
        let mut at = (id.0 >> self.shift) as usize;
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = self.ids.len() as u32;
        self.ids.push(id);
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the space is empty (never true for a constructed space).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The wire ID of a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn id_of(&self, idx: NodeIdx) -> NodeId {
        self.ids[idx.as_usize()]
    }

    /// Resolves a wire ID back to its dense index, if the ID exists.
    ///
    /// Probes from the ID's home slot until it meets the ID (a hit is
    /// verified against `ids`, so foreign IDs never alias) or an empty
    /// slot; the load factor guarantees one.
    #[must_use]
    pub fn resolve(&self, id: NodeId) -> Option<NodeIdx> {
        let mask = self.slots.len() - 1;
        let mut at = (id.0 >> self.shift) as usize;
        loop {
            let idx = self.slots[at];
            if idx == EMPTY {
                return None;
            }
            if self.ids[idx as usize] == id {
                return Some(NodeIdx(idx));
            }
            at = (at + 1) & mask;
        }
    }

    /// All IDs in dense-index order.
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    impl IdSpace {
        /// A space holding exactly `ids`, in order: lets a test choose
        /// the probe chains.
        fn from_ids(ids: &[NodeId]) -> Self {
            let mut space = Self::with_room(ids.len());
            for &id in ids {
                assert_eq!(space.resolve(id), None, "duplicate {id}");
                space.insert(id);
            }
            space
        }
    }

    /// The directory this module had before the open-addressed table — the
    /// same ID stream behind a standard map — kept as the oracle. (It was a
    /// `HashMap`; a `BTreeMap` answers the same lookups and keeps hash
    /// order out of the crate, test code included.)
    fn reference(n: usize, seed: u64) -> (Vec<NodeId>, BTreeMap<NodeId, NodeIdx>) {
        let mut ids = Vec::with_capacity(n);
        let mut directory = BTreeMap::new();
        let mut counter = seed ^ GOLDEN;
        for i in 0..n {
            let id = loop {
                counter = counter.wrapping_add(GOLDEN);
                let candidate = NodeId(splitmix64(counter));
                if !directory.contains_key(&candidate) {
                    break candidate;
                }
            };
            directory.insert(id, NodeIdx(i as u32));
            ids.push(id);
        }
        (ids, directory)
    }

    #[test]
    fn directory_matches_the_map_reference() {
        for n in [1, 2, 3, 255, 256, 257, 65_536] {
            for seed in [0, 1, 0xB11, u64::MAX] {
                let space = IdSpace::new(n, seed);
                let (ids, directory) = reference(n, seed);
                assert_eq!(space.ids(), &ids[..], "n = {n}, seed = {seed}");
                let foreign = [NodeId(0), NodeId(u64::MAX)];
                let flipped = ids.iter().map(|id| NodeId(id.0 ^ 1));
                for id in ids.iter().copied().chain(foreign).chain(flipped) {
                    assert_eq!(
                        space.resolve(id),
                        directory.get(&id).copied(),
                        "n = {n}, seed = {seed}, id = {id}"
                    );
                }
                // A flipped low bit never lands on another generated ID at
                // these sizes, so every one of them is foreign.
                assert!(ids
                    .iter()
                    .all(|id| space.resolve(NodeId(id.0 ^ 1)).is_none()));
            }
        }
    }

    #[test]
    fn long_probe_chains_wrap_and_still_resolve() {
        // 80 IDs → 256 slots keyed on the top 8 bits. 72 IDs share the
        // last home slot, so their chain wraps past the end of the table
        // and runs through the homes of the 8 IDs inserted after them.
        let top = |home: u64, low: u64| NodeId(home << 56 | low);
        let mut ids: Vec<NodeId> = (0..72).map(|k| top(255, k)).collect();
        ids.extend((0..8).map(|home| top(home, 7)));
        let space = IdSpace::from_ids(&ids);
        assert_eq!(space.slots.len(), 256);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(space.resolve(id), Some(NodeIdx(i as u32)), "{id}");
        }
        // Foreign IDs: one walking the whole chain, one whose home lies
        // inside its wrapped part, one on an empty home slot.
        assert_eq!(space.resolve(top(255, 1000)), None);
        assert_eq!(space.resolve(top(3, 8)), None);
        assert_eq!(space.resolve(top(200, 0)), None);
    }

    #[test]
    fn id_stream_is_pinned() {
        // The directory may change again; the ID stream may not (every
        // digest in the repo hangs off it). FNV-1a over the little-endian
        // bytes of the first 1 024 IDs.
        let fnv = |seed: u64| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for id in IdSpace::new(1024, seed).ids() {
                for b in id.raw().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        };
        assert_eq!(fnv(0), 0x7625_9bbf_8283_5000);
        assert_eq!(fnv(7), 0xc924_6a68_42cf_bcd7);
        assert_eq!(fnv(0xB11), 0xc903_b822_37f2_3a5c);
    }

    #[test]
    fn ids_are_unique_and_resolvable() {
        let space = IdSpace::new(1000, 7);
        assert_eq!(space.len(), 1000);
        for i in 0..1000u32 {
            let idx = NodeIdx(i);
            let id = space.id_of(idx);
            assert_eq!(space.resolve(id), Some(idx));
        }
        let mut sorted: Vec<_> = space.ids().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1000, "IDs must be collision free");
    }

    #[test]
    fn id_space_is_deterministic_per_seed() {
        let a = IdSpace::new(64, 123);
        let b = IdSpace::new(64, 123);
        let c = IdSpace::new(64, 124);
        assert_eq!(a.ids(), b.ids());
        assert_ne!(a.ids(), c.ids());
    }

    #[test]
    fn unknown_id_does_not_resolve() {
        let space = IdSpace::new(8, 1);
        let bogus = NodeId::from_raw(0xdead_beef_dead_beef);
        // The bogus ID is almost surely absent; skip if astronomically unlucky.
        if !space.ids().contains(&bogus) {
            assert_eq!(space.resolve(bogus), None);
        }
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let id = NodeId::from_raw(42);
        assert!(!format!("{id}").is_empty());
        assert!(!format!("{id:?}").is_empty());
        assert!(!format!("{}", NodeIdx(3)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = IdSpace::new(0, 0);
    }
}
