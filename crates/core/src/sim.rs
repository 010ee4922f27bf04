//! [`ClusterSim`]: a phone-call network of [`ClusterNode`]s plus the
//! run-level bookkeeping (message factory, algorithm RNG, phase capture)
//! and the primitives' working memory.
//!
//! The struct is deliberately thin: all protocol behaviour lives in
//! [`crate::primitives`] and the algorithm modules; `ClusterSim` provides
//! the pieces they share. It also offers **engine-side observation**
//! helpers (cluster maps, informed counts) used by tests, reports and
//! experiments — these read global state and are *never* consulted by the
//! simulated nodes themselves.
//!
//! # Scratch
//!
//! A [`ClusterNode`] is one cache line of protocol state. What a primitive
//! needs only while it runs is **owned here and indexed by node index**
//! ([`ClusterNode::idx`]): [`Replies`] (the prepared pull response of each
//! node) and [`LeaderTable`] (member and merge-candidate lists, one row per
//! node that ever led). Primitives capture these fields next to
//! `&mut sim.net` and `&sim.arena` as disjoint borrows, so the `decide` /
//! `respond` / `deliver` closures reach a node's scratch through its `idx`.
//! Nothing here is visible to another node except through a message.
//!
//! A prepared response is a **pre-round snapshot**: it is written before
//! the round from the responder's state and `respond` only ever clones it.
//! Under `Engine::Async` a request lands in the middle of a step, after
//! other deliveries may have changed the responder, so recomputing the
//! answer from live state at that moment would change what pullers see.

use std::collections::BTreeMap;

use phonecall::{FailurePlan, Network, NodeId, NodeIdx};
use rand::rngs::SmallRng;

use crate::arena::{Arena, List};
use crate::config::CommonConfig;
use crate::msg::{Msg, MsgKind};
use crate::node::ClusterNode;
use crate::report::{ClusteringStats, PhaseReport};

/// The prepared address-oblivious pull response of every node, by node
/// index, for the current respond-round.
///
/// Keeps the list of indices it was set for, so clearing after the round
/// costs the number of responders (usually the leaders), not `n`.
#[derive(Debug)]
pub struct Replies {
    slots: Vec<Option<Msg>>,
    set: Vec<u32>,
}

impl Replies {
    fn new(n: usize) -> Self {
        Replies {
            slots: vec![None; n],
            set: Vec::new(),
        }
    }

    /// Prepares `msg` as the response of the node at `idx`.
    pub fn set(&mut self, idx: NodeIdx, msg: Msg) {
        self.slots[idx.as_usize()] = Some(msg);
        self.set.push(idx.0);
    }

    /// A copy of the response prepared for the node at `idx`, if any
    /// (what the `respond` closure returns).
    #[must_use]
    pub fn get(&self, idx: NodeIdx) -> Option<Msg> {
        self.slots[idx.as_usize()].clone()
    }

    /// Drops every prepared response, so a stale one can never leak into
    /// a later primitive.
    pub fn clear(&mut self) {
        for i in self.set.drain(..) {
            self.slots[i as usize] = None;
        }
    }
}

/// A leader's working memory: arena-backed ID lists, like the node's
/// `inbox`.
#[derive(Debug, Default)]
pub struct LeaderRow {
    /// Member IDs collected in the latest collect round (includes the
    /// leader itself).
    pub members: List,
    /// Merge candidates relayed by members this iteration.
    pub candidates: List,
}

/// [`LeaderRow`]s by node index, for the few nodes that need one: a row is
/// opened the first time a node is addressed as a leader and kept for the
/// run, so the table costs four bytes per node plus a row per leader
/// instead of two list handles in every follower.
#[derive(Debug)]
pub struct LeaderTable {
    row_of: Vec<u32>,
    rows: Vec<LeaderRow>,
}

/// Marks a node without a row.
const NO_ROW: u32 = u32::MAX;

impl LeaderTable {
    fn new(n: usize) -> Self {
        LeaderTable {
            row_of: vec![NO_ROW; n],
            rows: Vec::new(),
        }
    }

    /// The row of the node at `idx`, opened (empty) on first use.
    pub fn row(&mut self, idx: NodeIdx) -> &mut LeaderRow {
        let slot = &mut self.row_of[idx.as_usize()];
        if *slot == NO_ROW {
            *slot = self.rows.len() as u32;
            self.rows.push(LeaderRow::default());
        }
        &mut self.rows[*slot as usize]
    }

    /// Every open row (in no meaningful order).
    pub fn rows_mut(&mut self) -> &mut [LeaderRow] {
        &mut self.rows
    }
}

/// A simulation of `n` cluster nodes under one algorithm run.
#[derive(Debug)]
pub struct ClusterSim {
    /// The underlying phone-call network.
    pub net: Network<ClusterNode>,
    /// Shared backing store for every `inbox`/`members`/`candidates`
    /// list (see [`crate::arena`]). Primitives capture `&sim.arena`
    /// alongside `&mut sim.net` (disjoint fields) so the simulation
    /// closures can grow lists without per-node `Vec`s.
    pub arena: Arena<NodeId>,
    /// The prepared pull responses (see the module docs).
    pub replies: Replies,
    /// Leader working memory (see the module docs).
    pub leaders: LeaderTable,
    /// Width of a node ID on the wire: `2·⌈log₂ n⌉` bits (polynomial ID
    /// space).
    pub id_bits: u64,
    /// Rumor size `b` in bits.
    pub rumor_bits: u64,
    /// RNG for algorithm-level coins (leader activation flips etc.),
    /// independent of the engine's target-sampling stream.
    pub rng: SmallRng,
    phases: Vec<PhaseReport>,
    phase_start: (u64, u64, u64),
}

impl ClusterSim {
    /// Builds a simulation of `n` nodes, applies the failure plan, and
    /// marks the source node informed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the source index is out of range.
    #[must_use]
    pub fn new(n: usize, common: &CommonConfig) -> Self {
        assert!(n >= 2, "gossip needs at least two nodes");
        assert!((common.source as usize) < n, "source index out of range");
        let mut sim = ClusterSim {
            net: common.network(n, ClusterNode::new),
            arena: Arena::new(NodeId::from_raw(0)),
            replies: Replies::new(n),
            leaders: LeaderTable::new(n),
            id_bits: phonecall::id_bits(n),
            rumor_bits: common.rumor_bits,
            // Stream 3 of the scenario seed; the environment's streams
            // are listed at `CommonConfig::network`.
            rng: phonecall::rng_from_seed(phonecall::derive_seed(common.seed, 3)),
            phases: Vec::new(),
            phase_start: (0, 0, 0),
        };
        sim.net.states_mut()[common.source as usize].informed = true;
        for &extra in &common.extra_sources {
            assert!((extra as usize) < n, "extra source index out of range");
            sim.net.states_mut()[extra as usize].informed = true;
        }
        sim
    }

    /// Applies (additional) failures.
    pub fn apply_failures(&mut self, plan: &FailurePlan) {
        self.net.apply_failures(plan);
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.net.len()
    }

    /// Builds a message stamped with this run's wire sizes.
    #[must_use]
    pub fn msg(&self, kind: MsgKind) -> Msg {
        Msg::new(kind, self.id_bits, self.rumor_bits)
    }

    // ------------------------------------------------------------------
    // Phase capture
    // ------------------------------------------------------------------

    /// Marks the start of a named phase; [`Self::end_phase`] closes it.
    pub fn begin_phase(&mut self) {
        let m = self.net.metrics();
        self.phase_start = (m.rounds, m.messages, m.bits);
    }

    /// Closes the phase opened by the last [`Self::begin_phase`] and
    /// records its round/message/bit deltas under `name`.
    pub fn end_phase(&mut self, name: &'static str) {
        let m = self.net.metrics();
        let (r0, m0, b0) = self.phase_start;
        self.phases.push(PhaseReport {
            name,
            rounds: m.rounds - r0,
            messages: m.messages - m0,
            bits: m.bits - b0,
        });
    }

    /// The recorded phases so far.
    #[must_use]
    pub fn phases(&self) -> &[PhaseReport] {
        &self.phases
    }

    /// Consumes the recorded phases (used when assembling the final
    /// report).
    #[must_use]
    pub fn take_phases(&mut self) -> Vec<PhaseReport> {
        std::mem::take(&mut self.phases)
    }

    // ------------------------------------------------------------------
    // Engine-side observation (tests / reports only)
    // ------------------------------------------------------------------

    /// Number of alive nodes.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.net.alive_count()
    }

    /// Number of alive clustered nodes.
    #[must_use]
    pub fn clustered_count(&self) -> usize {
        self.alive_states().filter(|s| s.is_clustered()).count()
    }

    /// Number of alive informed nodes.
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.alive_states().filter(|s| s.informed).count()
    }

    /// Iterator over alive node states.
    pub fn alive_states(&self) -> impl Iterator<Item = &ClusterNode> {
        self.net
            .states()
            .iter()
            .enumerate()
            .filter(|(i, _)| self.net.is_alive(NodeIdx(*i as u32)))
            .map(|(_, s)| s)
    }

    /// Groups alive clustered nodes by the leader they follow, ordered
    /// by leader id (a `BTreeMap`, so iteration order — and with it any
    /// tie-break a consumer takes over the map — is deterministic).
    ///
    /// Note this groups by raw `follow` value; stale pointers (mid-merge)
    /// appear as clusters keyed by a non-leader. [`crate::verify`] checks
    /// for that.
    #[must_use]
    pub fn cluster_map(&self) -> BTreeMap<NodeId, Vec<NodeIdx>> {
        let mut map: BTreeMap<NodeId, Vec<NodeIdx>> = BTreeMap::new();
        for (i, s) in self.net.states().iter().enumerate() {
            let idx = NodeIdx(i as u32);
            if !self.net.is_alive(idx) {
                continue;
            }
            if let Some(l) = s.leader() {
                map.entry(l).or_default().push(idx);
            }
        }
        map
    }

    /// Summary statistics of the current clustering.
    #[must_use]
    pub fn clustering_stats(&self) -> ClusteringStats {
        let map = self.cluster_map();
        let sizes: Vec<usize> = map.values().map(Vec::len).collect();
        let clustered: usize = sizes.iter().sum();
        let alive = self.alive_count();
        ClusteringStats {
            clusters: map.len(),
            clustered,
            unclustered: alive - clustered,
            min_size: sizes.iter().copied().min().unwrap_or(0),
            max_size: sizes.iter().copied().max().unwrap_or(0),
            mean_size: if map.is_empty() {
                0.0
            } else {
                clustered as f64 / map.len() as f64
            },
        }
    }

    /// Assembles the final [`crate::report::RunReport`] from the metrics,
    /// informedness and clustering state, consuming the recorded phases.
    #[must_use]
    pub fn report(&mut self) -> crate::report::RunReport {
        let informed = self.informed_count();
        crate::report::RunReport {
            clustering: self.clustering_stats(),
            phases: self.take_phases(),
            ..crate::report::RunReport::of(&self.net, informed, informed == self.alive_count())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follow::Follow;

    fn sim(n: usize) -> ClusterSim {
        ClusterSim::new(n, &CommonConfig::default())
    }

    #[test]
    fn source_starts_informed() {
        let s = sim(16);
        assert_eq!(s.informed_count(), 1);
        assert!(s.net.states()[0].informed);
    }

    #[test]
    fn id_bits_scale_with_n() {
        assert_eq!(sim(1 << 10).id_bits, 20);
        assert_eq!(sim(1 << 16).id_bits, 32);
    }

    #[test]
    fn cluster_map_groups_by_leader() {
        let mut s = sim(8);
        let leader = s.net.id_of(NodeIdx(3));
        for i in [1usize, 2, 3] {
            s.net.states_mut()[i].follow = Follow::Of(leader);
        }
        let map = s.cluster_map();
        assert_eq!(map.len(), 1);
        assert_eq!(map[&leader].len(), 3);
        let stats = s.clustering_stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.clustered, 3);
        assert_eq!(stats.unclustered, 5);
        assert_eq!(stats.max_size, 3);
    }

    #[test]
    fn failures_reduce_alive_count() {
        let mut s = sim(10);
        s.apply_failures(&FailurePlan::explicit(vec![NodeIdx(4), NodeIdx(5)]));
        assert_eq!(s.alive_count(), 8);
    }

    #[test]
    fn phase_capture_tracks_deltas() {
        let mut s = sim(4);
        s.begin_phase();
        s.end_phase("empty");
        assert_eq!(s.phases().len(), 1);
        assert_eq!(s.phases()[0].rounds, 0);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn one_node_network_rejected() {
        let _ = sim(1);
    }
}
