//! [`ClusterSim`]: a phone-call network of [`ClusterNode`]s plus the
//! run-level bookkeeping (wire sizes, algorithm RNG, phase capture), the
//! primitives' working memory, the two round shapes they are built of, and
//! [`run_phases`], which runs an algorithm's table of named [`Phase`]s.
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
//! A [`ClusterNode`] holds protocol state only; no received message is
//! queued in it. What a primitive needs only while it runs is **owned here
//! and indexed by node index** ([`ClusterNode::idx`]):
//!
//! * [`Replies`] — the prepared pull response of each node;
//! * [`LeaderTable`] — member and merge-candidate lists, one row per node
//!   that ever led;
//! * `Arrivals` — the cluster IDs a push round delivered, as one log of
//!   `(receiver, ID)` entries (a receiver column beside an ID column).
//!   The invariant: entries are appended in delivery order (under either
//!   engine), and the primitive that filled the log clears it before it
//!   returns, so the log is empty between primitives. Grouped by
//!   receiver, the log is also the column a member's relayed
//!   `Candidates` span points into.
//! * the leader-list column — the new leader IDs a `ClusterResize`
//!   announcement lists, one run per announcing leader, which each
//!   `Leaders` reply names by [`crate::msg::Span`]. The invariant: a
//!   primitive appends to it only while it prepares the replies of one
//!   pull round, nothing writes it during that round, and the primitive
//!   clears it when the round is over, so it is empty between primitives
//!   (checked at every [`ClusterSim::end_phase`], like [`Replies`]).
//!
//! Primitives capture these fields next to `&mut sim.net` as disjoint
//! borrows, so the round closures (see below) reach a node's scratch
//! through its `idx`. Nothing here is visible to another node
//! except through a message.
//!
//! A prepared response is a **pre-round snapshot**: it is written before
//! the round from the responder's state and `respond` only ever copies it.
//! Under `Engine::Async` a request lands in the middle of a step, after
//! other deliveries may have changed the responder, so recomputing the
//! answer from live state at that moment would change what pullers see.
//!
//! # Rounds
//!
//! Every cluster round is one of two shapes, each written once here:
//! `push_round` (senders name a target and a message kind, recipients
//! fold what arrives) and `pull_round` (pullers name a target, responders
//! answer from the prepared [`Replies`]). `to_leader` is the one spelling
//! of the intra-cluster address. The reply lifecycle is `pull_round`'s
//! invariant: a primitive fills [`Replies`] right before the pull round
//! that reads them, and `pull_round` clears them before it returns, so
//! no reply outlives its round and none is left between primitives.

use std::cell::RefCell;
use std::collections::BTreeMap;

use phonecall::{Action, Delivery, FailurePlan, Network, NodeId, NodeIdx, Target};
use rand::rngs::SmallRng;

use crate::config::CommonConfig;
use crate::msg::{Msg, MsgKind, Span, WireSizes};
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
        self.slots[idx.as_usize()]
    }

    /// Whether no response is prepared (true between primitives).
    pub(crate) fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Drops every prepared response; only [`pull_round`] calls it.
    fn clear(&mut self) {
        for i in self.set.drain(..) {
            self.slots[i as usize] = None;
        }
    }
}

/// The intra-cluster address: a follower reaches its leader by direct
/// addressing; leaders and unclustered nodes have no one to reach.
pub(crate) fn to_leader(s: &ClusterNode) -> Option<Target> {
    s.leader().filter(|&l| l != s.id).map(Target::Direct)
}

/// One PUSH round: every alive node for which `send` names a target
/// pushes that message kind there, and `fold` receives each pushed kind
/// at its recipient. Nobody responds.
#[inline]
pub(crate) fn push_round(
    net: &mut Network<ClusterNode>,
    wire: WireSizes,
    mut send: impl FnMut(&ClusterNode) -> Option<(Target, MsgKind)>,
    mut fold: impl FnMut(&mut ClusterNode, MsgKind),
) {
    net.round(
        |ctx, _rng| match send(ctx.state) {
            Some((to, kind)) => Action::Push {
                to,
                msg: wire.msg(kind),
            },
            None => Action::Idle,
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                fold(s, msg.kind);
            }
        },
    );
}

/// One PULL round: every alive node for which `ask` names a target pulls
/// it, the target answers with its prepared reply (if any), and `apply`
/// receives each reply's kind at the puller. Clears `replies` before it
/// returns (see the module docs).
#[inline]
pub(crate) fn pull_round(
    net: &mut Network<ClusterNode>,
    replies: &mut Replies,
    mut ask: impl FnMut(&ClusterNode) -> Option<Target>,
    mut apply: impl FnMut(&mut ClusterNode, MsgKind),
) {
    net.round(
        |ctx, _rng| ask(ctx.state).map_or(Action::<Msg>::Idle, |to| Action::Pull { to }),
        |s| replies.get(s.idx),
        |s, d| {
            if let Delivery::PullReply { msg, .. } = d {
                apply(s, msg.kind);
            }
        },
    );
    replies.clear();
}

/// A leader's working memory. A row lives for the run, so clearing its
/// lists keeps their capacity.
#[derive(Debug, Default)]
pub struct LeaderRow {
    /// Member IDs collected in the latest collect round (includes the
    /// leader itself).
    pub members: Vec<NodeId>,
    /// Merge candidates relayed by members this iteration.
    pub candidates: Vec<NodeId>,
}

/// [`LeaderRow`]s by node index, for the few nodes that need one: a row is
/// opened the first time something is written to a node as a leader and
/// kept for the run, so the table costs four bytes per node plus a row per
/// leader instead of two lists in every follower.
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

    /// The row of the node at `idx`, if one is open; never opens one.
    pub fn get_mut(&mut self, idx: NodeIdx) -> Option<&mut LeaderRow> {
        // `NO_ROW` lies past every row.
        self.rows.get_mut(self.row_of[idx.as_usize()] as usize)
    }

    /// Every open row (in no meaningful order).
    pub fn rows_mut(&mut self) -> &mut [LeaderRow] {
        &mut self.rows
    }
}

/// The `(receiver, cluster ID)` pairs delivered by a push round, in
/// delivery order (see the module docs for who fills and clears it).
///
/// The log is two parallel columns, receivers and IDs, so an entry costs
/// 12 bytes, not a padded 16-byte pair. [`Self::group`] buckets the log
/// by receiver once, with a stable counting pass, after which
/// [`Self::of`] reads one node's arrivals in O(1). Every column keeps
/// its capacity across [`Self::clear`].
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    /// The receiver of each logged ID, parallel to `ids`.
    to: Vec<NodeIdx>,
    /// The logged IDs, in delivery order.
    ids: Vec<NodeId>,
    /// After `group`: the logged IDs bucketed by receiver, each bucket in
    /// delivery order.
    grouped: Vec<NodeId>,
    /// After `group`: node `i`'s bucket is `grouped[start[i]..start[i + 1]]`.
    start: Vec<u32>,
}

impl Arrivals {
    /// Logs that the node at `to` received `id`.
    pub(crate) fn push(&mut self, to: NodeIdx, id: NodeId) {
        self.to.push(to);
        self.ids.push(id);
    }

    /// The log in delivery order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeIdx, NodeId)> + '_ {
        self.to.iter().copied().zip(self.ids.iter().copied())
    }

    /// Buckets the log by receiver over `n` nodes, for [`Self::of`].
    pub(crate) fn group(&mut self, n: usize) {
        self.start.clear();
        self.start.resize(n + 1, 0);
        for to in &self.to {
            self.start[to.as_usize()] += 1;
        }
        // Running ends; filling from the back then walks each end down to
        // its bucket's start and keeps every bucket in delivery order.
        let mut end = 0;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        // Every slot is overwritten below; the copy only sizes the column.
        self.grouped.clone_from(&self.ids);
        for (to, &id) in self.to.iter().zip(&self.ids).rev() {
            let s = &mut self.start[to.as_usize()];
            *s -= 1;
            self.grouped[*s as usize] = id;
        }
    }

    /// What the node at `idx` received, in delivery order. Valid between
    /// [`Self::group`] and [`Self::clear`].
    #[must_use]
    pub(crate) fn of(&self, idx: NodeIdx) -> &[NodeId] {
        self.span_of(idx).of(&self.grouped)
    }

    /// Where [`Self::of`]`(idx)` lies in [`Self::grouped`]: what a relay
    /// of the node's arrivals carries. Valid between [`Self::group`] and
    /// [`Self::clear`].
    #[must_use]
    pub(crate) fn span_of(&self, idx: NodeIdx) -> Span {
        let i = idx.as_usize();
        let (start, end) = (self.start[i] as usize, self.start[i + 1] as usize);
        Span::new(start, end - start)
    }

    /// Every node's arrivals, bucketed by receiver (what a
    /// [`Self::span_of`] span points into).
    #[must_use]
    pub(crate) fn grouped(&self) -> &[NodeId] {
        &self.grouped
    }

    /// Empties the log and its grouping.
    pub(crate) fn clear(&mut self) {
        self.to.clear();
        self.ids.clear();
        self.grouped.clear();
        self.start.clear();
    }
}

/// One named phase of a cluster algorithm: the paper's procedure name and
/// the function that runs it on the algorithm's per-run input `C`.
pub struct Phase<C> {
    /// The name the phase is recorded under ([`PhaseReport::name`]).
    pub name: &'static str,
    /// Runs the phase.
    pub run: fn(&mut ClusterSim, &C),
}

impl<C> Phase<C> {
    /// The phase `run`, recorded as `name`.
    pub const fn new(name: &'static str, run: fn(&mut ClusterSim, &C)) -> Self {
        Phase { name, run }
    }
}

/// Runs `phases` in order, recording each one's rounds, messages and bits
/// under its name.
pub fn run_phases<C>(sim: &mut ClusterSim, cfg: &C, phases: &[Phase<C>]) {
    for phase in phases {
        sim.begin_phase();
        (phase.run)(sim, cfg);
        sim.end_phase(phase.name);
    }
}

/// Algorithms 1, 2 and 4: sample leaders and grow them.
pub const GROW_INITIAL_CLUSTERS: &str = "GrowInitialClusters";
/// Algorithms 1, 2 and 4: square the cluster size.
pub const SQUARE_CLUSTERS: &str = "SquareClusters";
/// Algorithms 1 and 2: merge every cluster into one.
pub const MERGE_ALL_CLUSTERS: &str = "MergeAllClusters";
/// Algorithms 2 and 4: growth-tracked recruiting pushes.
pub const BOUNDED_CLUSTER_PUSH: &str = "BoundedClusterPush";
/// Algorithms 1, 2 and 4: the unclustered nodes pull to join.
pub const UNCLUSTERED_NODES_PULL: &str = "UnclusteredNodesPull";
/// Algorithms 1 and 2: absorb residual clusters before the share.
pub const CONSOLIDATE: &str = "Consolidate";
/// Algorithms 1 and 2: spread the rumor inside the final cluster.
pub const CLUSTER_SHARE: &str = "ClusterShare";

/// A simulation of `n` cluster nodes under one algorithm run.
#[derive(Debug)]
pub struct ClusterSim {
    /// The underlying phone-call network.
    pub net: Network<ClusterNode>,
    /// The prepared pull responses (see the module docs).
    pub replies: Replies,
    /// Leader working memory (see the module docs).
    pub leaders: LeaderTable,
    /// The push round's arrival log (see the module docs).
    pub(crate) arrivals: Arrivals,
    /// The leader-list column the `Leaders` replies point into (see the
    /// module docs).
    pub(crate) leader_lists: Vec<NodeId>,
    /// ClusterPushPull's epoch at which each node became informed, by
    /// node index; empty unless that broadcast ran.
    pub(crate) informed_at: Vec<Option<u32>>,
    /// [`Self::clustering_stats`]' per-leader member counts, kept so a
    /// caller that asks every iteration allocates once.
    cluster_sizes: RefCell<Vec<u32>>,
    /// The run's wire sizes: every message is built by [`WireSizes::msg`].
    pub wire: WireSizes,
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
            replies: Replies::new(n),
            leaders: LeaderTable::new(n),
            arrivals: Arrivals::default(),
            leader_lists: Vec::new(),
            informed_at: Vec::new(),
            cluster_sizes: RefCell::default(),
            wire: WireSizes {
                id_bits: phonecall::id_bits(n),
                rumor_bits: common.rumor_bits,
            },
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
        debug_assert!(self.replies.is_empty(), "a reply outlived its pull round");
        debug_assert!(
            self.leader_lists.is_empty(),
            "a leader list outlived its pull round"
        );
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

    /// Summary statistics of the current clustering, grouped by raw
    /// `follow` value like [`Self::cluster_map`], without building it:
    /// one pass counts each alive clustered node at its leader's index in
    /// a column the sim keeps for the purpose, one pass over that column
    /// folds the sizes.
    ///
    /// # Panics
    ///
    /// Panics if a `follow` value names no node of this network (every
    /// value a primitive writes is an ID some message carried).
    #[must_use]
    pub fn clustering_stats(&self) -> ClusteringStats {
        let mut sizes = self.cluster_sizes.borrow_mut();
        sizes.clear();
        sizes.resize(self.n(), 0);
        for s in self.alive_states() {
            if let Some(leader) = s.leader() {
                let at = self.net.resolve(leader).expect("a leader of this network");
                sizes[at.as_usize()] += 1;
            }
        }
        let (mut clusters, mut clustered, mut min_size, mut max_size) = (0, 0, usize::MAX, 0);
        for &size in sizes.iter().filter(|&&size| size > 0) {
            let size = size as usize;
            clusters += 1;
            clustered += size;
            min_size = min_size.min(size);
            max_size = max_size.max(size);
        }
        ClusteringStats {
            clusters,
            clustered,
            unclustered: self.alive_count() - clustered,
            min_size: if clusters == 0 { 0 } else { min_size },
            max_size,
            mean_size: if clusters == 0 {
                0.0
            } else {
                clustered as f64 / clusters as f64
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
            phases: std::mem::take(&mut self.phases),
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
        assert_eq!(sim(1 << 10).wire.id_bits, 20);
        assert_eq!(sim(1 << 16).wire.id_bits, 32);
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
    fn arrivals_group_by_receiver_in_delivery_order() {
        let id = NodeId::from_raw;
        let mut a = Arrivals::default();
        for (to, raw) in [(3, 30), (0, 1), (3, 31), (3, 30), (0, 2)] {
            a.push(NodeIdx(to), id(raw));
        }
        a.group(4);
        assert_eq!(a.of(NodeIdx(0)), [id(1), id(2)]);
        assert!(a.of(NodeIdx(1)).is_empty() && a.of(NodeIdx(2)).is_empty());
        assert_eq!(a.of(NodeIdx(3)), [id(30), id(31), id(30)]);
        for i in 0..4 {
            assert_eq!(a.span_of(NodeIdx(i)).of(a.grouped()), a.of(NodeIdx(i)));
        }
        assert_eq!(a.iter().next(), Some((NodeIdx(3), id(30))));
        a.clear();
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn scratch_never_outlives_its_primitive() {
        use crate::primitives::{self as p, Merge, MergeRule, Who};
        type Step = (&'static str, fn(&mut ClusterSim));
        // Every primitive that prepares replies or fills the arrival log.
        let steps: [Step; 14] = [
            ("grow_push_round", |s| {
                let _ = p::grow_push_round(s, Who::AllClustered);
            }),
            ("activate", |s| p::activate(s, 0.5)),
            ("size_round", |s| {
                p::collect_members(s, Who::AllClustered);
                let _ = p::size_round(s, Who::AllClustered, None);
            }),
            ("merge_iteration", |s| {
                p::merge_iteration(s, Merge::Recruit(MergeRule::Random));
            }),
            ("flatten_round", p::flatten_round),
            ("grow_control_iteration", |s| {
                let _ = p::grow_control_iteration(s, 4, 1.5);
            }),
            ("resize", |s| p::resize(s, 4, Who::AllClustered)),
            ("dissolve", |s| p::dissolve(s, 2, Who::AllClustered)),
            ("unclustered_pull_round", |s| {
                let _ = p::unclustered_pull_round(s);
            }),
            ("share_rumor", p::share_rumor),
            ("consolidate", p::consolidate),
            ("broadcast_success_test", |s| {
                let _ = crate::estimate::broadcast_success_test(s);
            }),
            ("aggregate", |s| {
                let _ = crate::tasks::aggregate(s, &[1; 256], crate::tasks::Combine::Sum);
            }),
            ("broadcast_on", |s| {
                let cfg = crate::config::PushPullConfig::default();
                let _ = crate::cluster_push_pull::broadcast_on(s, 16, &cfg);
            }),
        ];
        let mut s = sim(256);
        p::sample_singletons(&mut s, 0.1);
        for (name, step) in steps {
            step(&mut s);
            assert!(s.replies.is_empty(), "{name} left prepared replies");
            assert_eq!(s.arrivals.iter().count(), 0, "{name} left arrivals");
            assert!(s.leader_lists.is_empty(), "{name} left leader lists");
        }
        assert!(s.net.metrics().messages > 0, "the primitives talked");
    }

    #[test]
    fn leader_rows_open_on_write_only() {
        let mut t = LeaderTable::new(4);
        assert!(t.get_mut(NodeIdx(2)).is_none());
        t.row(NodeIdx(2)).members.push(NodeId::from_raw(7));
        assert_eq!(t.get_mut(NodeIdx(2)).map(|r| r.members.len()), Some(1));
        assert!(t.get_mut(NodeIdx(1)).is_none());
        assert_eq!(t.rows_mut().len(), 1);
    }

    #[test]
    fn failures_reduce_alive_count() {
        let mut s = sim(10);
        s.apply_failures(&FailurePlan::explicit(vec![NodeIdx(4), NodeIdx(5)]));
        assert_eq!(s.alive_count(), 8);
    }

    #[test]
    fn phase_tables_partition_every_run() {
        use crate::config::{Cluster1Config, Cluster2Config, Cluster3Config, PushPullConfig};
        use crate::{cluster1, cluster2, cluster3, cluster_push_pull};
        fn names<C>(table: &[Phase<C>]) -> Vec<&'static str> {
            table.iter().map(|p| p.name).collect()
        }
        let (n, delta) = (512, 64);
        let c1 = cluster1::run(n, &Cluster1Config::default());
        let c2 = cluster2::run(n, &Cluster2Config::default());
        let c3 = cluster3::build(n, delta, &Cluster3Config::default()).1;
        let cpp = cluster_push_pull::run(n, delta, &PushPullConfig::default());
        // `cluster_push_pull::run` builds its Δ-clustering on the same sim.
        let cpp_table = [names(cluster3::PHASES), names(cluster_push_pull::PHASES)].concat();
        let rows = [
            (
                "Cluster1",
                names(cluster1::PHASES),
                &c1.phases[..],
                c1.rounds,
            ),
            ("Cluster2", names(cluster2::PHASES), &c2.phases, c2.rounds),
            ("Cluster3", names(cluster3::PHASES), &c3.phases, c3.rounds),
            ("ClusterPushPull", cpp_table, &cpp.phases, cpp.rounds),
        ];
        for (algo, table, phases, rounds) in rows {
            let recorded: Vec<_> = phases.iter().map(|p| p.name).collect();
            assert_eq!(recorded, table, "{algo} records its phase table in order");
            let sum: u64 = phases.iter().map(|p| p.rounds).sum();
            assert_eq!(sum, rounds, "{algo}'s phases partition its rounds");
        }
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
