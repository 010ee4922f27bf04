//! The synchronous round engine.
//!
//! [`Network::round`] executes one round of the random phone call model with
//! direct addressing, in lockstep phases:
//!
//! 1. every alive node is activated: its `decide` closure picks an
//!    [`Action`] from its own state (and a per-node random stream) and the
//!    target is resolved;
//! 2. pull responses are computed **first**, from each responder's state at
//!    the start of the round, via the address-oblivious `respond` closure,
//!    and the round's loss verdicts are drawn;
//! 3. pushes, pull replies and pulled-by notifications land, in that order,
//!    through `deliver`.
//!
//! The split into `decide` / `respond` / `deliver` is what enforces the
//! model structurally: `decide` sees only the deciding node, `respond` sees
//! only the responder (so responses cannot depend on who is asking — the
//! paper's address-obliviousness), and all state changes from incoming
//! traffic happen strictly after every action and response of the round is
//! fixed (synchrony).
//!
//! This module owns only that *schedule*. What an activation resolves to
//! and what a landing message costs — charging, loss, fan-in, tracing — is
//! the step core of [`crate::step`], shared with the asynchronous engine
//! ([`crate::events`]).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::action::{Action, Delivery};
use crate::bitset::BitSet;
use crate::churn::{AdversarySchedule, ChurnConfig};
use crate::events::{AsyncState, Engine};
use crate::failure::FailurePlan;
use crate::id::{IdSpace, NodeId, NodeIdx};
use crate::metrics::{Metrics, RoundStats};
use crate::rng::{derive_seed, rng_from_seed};
use crate::step::Slot;
use crate::topology::{Adjacency, DirectAddressing, Topology};
use crate::trace::Trace;
use crate::traffic::{RumorStatus, TrafficConfig, TrafficPlan};
use crate::wire::{header_bits, Wire};

/// Read-only view of a node handed to the `decide` closure.
#[derive(Debug)]
pub struct NodeCtx<'a, S> {
    /// The node's dense index.
    pub idx: NodeIdx,
    /// The node's wire ID.
    pub id: NodeId,
    /// The node's state.
    pub state: &'a S,
    /// Current round number (0-based).
    pub round: u64,
}

/// A simulated network of `n` nodes running the random phone call model.
///
/// Generic over the per-node algorithm state `S`. See the crate docs for an
/// end-to-end example.
#[derive(Debug)]
pub struct Network<S> {
    pub(crate) ids: IdSpace,
    pub(crate) states: Vec<S>,
    /// Packed alive mask (one bit per node); the count is maintained
    /// incrementally so [`Self::alive_count`] is O(1).
    pub(crate) alive: BitSet,
    pub(crate) alive_count: usize,
    pub(crate) round: u64,
    pub(crate) rng: SmallRng,
    pub(crate) metrics: Metrics,
    pub(crate) header_bits: u64,
    pub(crate) trace: Trace,
    /// Independent per-message loss probability (transient link failures;
    /// 0.0 = reliable links, the paper's base model).
    pub(crate) loss: f64,
    /// The dynamic adversary, if one is attached (see [`ChurnConfig`]):
    /// applied at the start of every round, from its own random stream.
    pub(crate) churn: Option<AdversarySchedule>,
    /// The restricted contact graph, if one is installed (see
    /// [`Topology`] / [`Self::set_topology`]). `None` — the complete
    /// graph — keeps the engine on its original sampling path.
    pub(crate) topo: Option<TopologyView>,
    /// The multi-rumor workload, if one is attached (see
    /// [`TrafficConfig`] / [`Self::set_traffic`]): rumors arrive at the
    /// round boundary and piggyback on delivered payload messages.
    pub(crate) traffic: Option<TrafficPlan>,
    // Scratch buffers reused across rounds to avoid per-round allocation.
    pub(crate) fan_in: Vec<u32>,
    /// Nodes contacted this round (initiations + incoming deliveries):
    /// exactly the nodes whose `fan_in` entry is nonzero. Lets the next
    /// round zero `fan_in` 64 nodes at a time and the fan-in maximum
    /// skip untouched regions instead of scanning all `n` counters.
    pub(crate) touched: BitSet,
    /// The running engine's buffers, per message type: the [`Scratch`]
    /// columns under [`Engine::Sync`], the in-flight message heap under
    /// [`Engine::Async`] (see [`crate::events`]).
    pub(crate) buffers: Slot,
    /// The asynchronous engine's state when [`Engine::Async`] is
    /// installed (see [`crate::events`]); `None` — the default — keeps
    /// [`Self::round`] on the synchronous path, bit-identical to builds
    /// that predate the event engine.
    pub(crate) async_state: Option<Box<AsyncState>>,
}

/// A materialized topology installed on a network: the CSR adjacency
/// (built once at install time — the round loop never allocates), the
/// direct-addressing mode, and the neighbor-sampling RNG, a stream of
/// its own so the engine RNG draws exactly what it always drew.
#[derive(Debug)]
pub(crate) struct TopologyView {
    pub(crate) adj: Adjacency,
    pub(crate) mode: DirectAddressing,
    pub(crate) rng: SmallRng,
}

/// Per-round scratch for one message type `M`, laid out struct-of-arrays:
/// the resolved push and pull contacts of the current round live in
/// parallel `u32` index columns (streamed through twice per round —
/// resolve, then apply), payloads and responses in their own columns.
/// Everything is reused across rounds so the steady-state round loop
/// performs no allocation.
struct Scratch<M> {
    /// Resolved push sources, one `u32` per push.
    push_src: Vec<u32>,
    /// Resolved push destinations, parallel to `push_src`.
    push_dst: Vec<u32>,
    /// Push payloads, parallel to `push_src`. Payloads are *moved* to the
    /// recipient on delivery — a push is delivered at most once, so the
    /// engine never clones a message.
    push_msg: Vec<M>,
    /// Per-push loss verdicts for the round (empty when the loss knob is
    /// zero — no draws at all, keeping the RNG stream identical to the
    /// loss-free engine).
    push_lost: Vec<bool>,
    /// Resolved pull sources, one `u32` per pull.
    pull_src: Vec<u32>,
    /// Resolved pull destinations, parallel to `pull_src`.
    pull_dst: Vec<u32>,
    /// Per-pull *request-leg* loss verdicts (empty when the loss knob is
    /// zero, like `push_lost`).
    pull_req_lost: Vec<bool>,
    /// Per-pull *reply-leg* loss verdicts, parallel to `pull_req_lost`.
    pull_rep_lost: Vec<bool>,
    /// Pull responses, parallel to `pull_src`.
    responses: Vec<Option<M>>,
}

// Not derived: a derive would demand `M: Default`.
impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            push_src: Vec::new(),
            push_dst: Vec::new(),
            push_msg: Vec::new(),
            push_lost: Vec::new(),
            pull_src: Vec::new(),
            pull_dst: Vec::new(),
            pull_req_lost: Vec::new(),
            pull_rep_lost: Vec::new(),
            responses: Vec::new(),
        }
    }
}

impl<M> Scratch<M> {
    fn clear(&mut self) {
        self.push_src.clear();
        self.push_dst.clear();
        self.push_msg.clear();
        self.push_lost.clear();
        self.pull_src.clear();
        self.pull_dst.clear();
        self.pull_req_lost.clear();
        self.pull_rep_lost.clear();
        self.responses.clear();
    }

    /// Pre-sizes the cheap index columns to `n` contacts so a full-
    /// participation round resolves without a single mid-round
    /// reallocation. The payload/response columns grow amortized to
    /// their steady-state high-water mark instead — pre-sizing them to
    /// `n` would pin `n · size_of::<M>()` bytes even for algorithms
    /// where only a few nodes speak per round.
    fn presize(&mut self, n: usize) {
        for col in [
            &mut self.push_src,
            &mut self.push_dst,
            &mut self.pull_src,
            &mut self.pull_dst,
        ] {
            if col.capacity() < n {
                col.reserve_exact(n - col.len());
            }
        }
        for col in [
            &mut self.push_lost,
            &mut self.pull_req_lost,
            &mut self.pull_rep_lost,
        ] {
            if col.capacity() < n {
                col.reserve_exact(n - col.len());
            }
        }
    }
}

/// The verdict for contact `k` of a loss column, which is either empty
/// (loss off: nothing is lost) or holds one verdict per contact.
fn verdict(col: &[bool], k: usize) -> bool {
    col.get(k).copied().unwrap_or(false)
}

impl<S> Network<S> {
    /// Creates a network of `n` nodes with default state.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self
    where
        S: Default,
    {
        Self::with_states(seed, (0..n).map(|_| S::default()).collect())
    }

    /// Creates a network whose node `i` starts in `states[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or longer than `u32::MAX`.
    #[must_use]
    pub fn with_states(seed: u64, states: Vec<S>) -> Self {
        let ids = IdSpace::new(states.len(), derive_seed(seed, 1));
        Self::assemble(ids, states, seed)
    }

    /// Creates a network with per-node states built from each node's index
    /// and wire ID (the common case: algorithm state embeds the own ID).
    #[must_use]
    pub fn with_state_fn(n: usize, seed: u64, mut f: impl FnMut(NodeIdx, NodeId) -> S) -> Self {
        let ids = IdSpace::new(n, derive_seed(seed, 1));
        let states = (0..n as u32)
            .map(|i| {
                let idx = NodeIdx(i);
                f(idx, ids.id_of(idx))
            })
            .collect();
        Self::assemble(ids, states, seed)
    }

    fn assemble(ids: IdSpace, states: Vec<S>, seed: u64) -> Self {
        let n = states.len();
        Network {
            ids,
            states,
            alive: BitSet::new_set(n),
            alive_count: n,
            round: 0,
            rng: rng_from_seed(derive_seed(seed, 2)),
            metrics: Metrics::default(),
            header_bits: header_bits(n),
            trace: Trace::disabled(),
            loss: 0.0,
            churn: None,
            topo: None,
            traffic: None,
            fan_in: vec![0; n],
            touched: BitSet::new(n),
            buffers: Slot::default(),
            async_state: None,
        }
    }

    /// Selects the execution engine (see [`Engine`] / [`crate::events`]).
    ///
    /// [`Engine::Sync`] — the default — installs nothing and draws
    /// nothing: runs are bit-identical to builds that predate the
    /// asynchronous engine. [`Engine::Async`] attaches the event-driven
    /// engine, whose activation clocks, message latencies and loss
    /// verdicts draw from three reserved streams derived from `seed`
    /// (labels [`crate::rng::ASYNC_CLOCK_STREAM`] /
    /// [`ASYNC_LATENCY_STREAM`] / [`ASYNC_DELIVERY_STREAM`]), independent
    /// of the engine RNG. Switching engines resets the continuous clock
    /// and drops any in-flight heap.
    ///
    /// [`ASYNC_LATENCY_STREAM`]: crate::rng::ASYNC_LATENCY_STREAM
    /// [`ASYNC_DELIVERY_STREAM`]: crate::rng::ASYNC_DELIVERY_STREAM
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`Engine::validate`].
    pub fn set_engine(&mut self, engine: Engine, seed: u64) {
        self.async_state = match engine {
            Engine::Sync => None,
            Engine::Async(cfg) => {
                if let Err(e) = cfg.validate() {
                    panic!("invalid async engine config: {e}");
                }
                Some(Box::new(AsyncState::new(cfg, self.len(), seed)))
            }
        };
        self.buffers = Slot::default();
    }

    /// Whether the asynchronous engine is installed.
    #[must_use]
    pub fn engine_is_async(&self) -> bool {
        self.async_state.is_some()
    }

    /// The continuous virtual clock of the asynchronous engine: the
    /// timestamp of the last processed event. `0.0` under
    /// [`Engine::Sync`], where rounds are the only clock.
    #[must_use]
    pub fn virtual_time(&self) -> f64 {
        self.async_state.as_ref().map_or(0.0, |a| a.virtual_time())
    }

    /// Total events (activations + message arrivals) processed by the
    /// asynchronous engine. `0` under [`Engine::Sync`].
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.async_state
            .as_ref()
            .map_or(0, |a| a.events_processed())
    }

    /// Sets the independent per-message loss probability (transient link
    /// failures). Lost messages are paid for by the sender (they count in
    /// the message/bit totals) but never delivered; a lost PULL request
    /// silently produces no reply.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set_message_loss(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.loss = p;
    }

    /// Attaches the dynamic adversary (see [`ChurnConfig`]): per-round
    /// crash batches, recoveries and Gilbert–Elliott burst loss, applied
    /// at the start of every subsequent [`Self::round`] from a random
    /// stream derived from `seed` (independent of the engine RNG). An
    /// inert config ([`ChurnConfig::is_active`] false) detaches any
    /// schedule, leaving the run bit-identical to one that never called
    /// this.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`ChurnConfig::validate`] or protects
    /// a node outside this network.
    pub fn set_churn(&mut self, cfg: ChurnConfig, seed: u64) {
        self.churn = cfg
            .is_active()
            .then(|| AdversarySchedule::new(cfg, self.len(), seed));
    }

    /// The attached dynamic-adversary schedule, if any.
    #[must_use]
    pub fn churn_schedule(&self) -> Option<&AdversarySchedule> {
        self.churn.as_ref()
    }

    /// Installs a communication topology (see [`Topology`]): `Random`
    /// targets become uniformly random **alive neighbors** on the graph
    /// (drawn from their own stream derived from `seed`, independent of
    /// the engine RNG), and under [`DirectAddressing::Restricted`]
    /// direct calls to non-neighbors are lost in the void. The adjacency
    /// is materialized here, once — the round loop stays allocation-free.
    ///
    /// [`Topology::Complete`] (the base model) installs nothing, leaving
    /// the run bit-identical to one that never called this — whatever
    /// the `mode`, since every pair is an edge on the complete graph.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails [`Topology::validate`], does not fit
    /// this network's size, or cannot produce a connected instance (see
    /// [`Topology::build`]).
    pub fn set_topology(&mut self, topology: Topology, mode: DirectAddressing, seed: u64) {
        // Reset first so re-installing Complete over a previous topology
        // clears the shape metrics along with the view.
        self.metrics.topology_edges = 0;
        self.metrics.topology_max_degree = 0;
        self.topo = topology.build(self.len(), derive_seed(seed, 1)).map(|adj| {
            self.metrics.topology_edges = adj.edge_count() as u64;
            self.metrics.topology_max_degree = adj.max_degree() as u64;
            TopologyView {
                adj,
                mode,
                rng: rng_from_seed(derive_seed(seed, 2)),
            }
        });
    }

    /// The installed contact graph, or `None` on the complete graph.
    #[must_use]
    pub fn topology_adjacency(&self) -> Option<&Adjacency> {
        self.topo.as_ref().map(|t| &t.adj)
    }

    /// Attaches the multi-rumor workload (see [`TrafficConfig`]): K
    /// rumors arrive at seeded random `(node, round)` pairs over
    /// subsequent [`Self::round`] calls and piggyback on the payload
    /// messages the running algorithm delivers, under the config's
    /// per-node per-round bandwidth budget. Each piggybacked transfer
    /// charges `rumor_bits` extra payload bits to the carrying message.
    /// The arrival plan is generated here, once, from its own random
    /// stream derived from `seed` — the engine RNG draws exactly what
    /// it always drew. An inert config ([`TrafficConfig::is_active`]
    /// false) detaches any plan, leaving the run bit-identical to one
    /// that never called this.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`TrafficConfig::validate`].
    pub fn set_traffic(&mut self, cfg: TrafficConfig, rumor_bits: u64, seed: u64) {
        self.traffic = cfg
            .is_active()
            .then(|| TrafficPlan::new(cfg, self.len(), rumor_bits, seed));
    }

    /// The attached workload plan, if any.
    #[must_use]
    pub fn traffic_plan(&self) -> Option<&TrafficPlan> {
        self.traffic.as_ref()
    }

    /// Per-rumor final status of the attached workload, in arrival
    /// order (empty when no workload is attached).
    #[must_use]
    pub fn traffic_summary(&self) -> Vec<RumorStatus> {
        self.traffic
            .as_ref()
            .map_or_else(Vec::new, |tp| tp.summary())
    }

    /// The direct-addressing mode in force ([`DirectAddressing::Overlay`]
    /// on the complete graph, where the distinction is vacuous).
    #[must_use]
    pub fn addressing(&self) -> DirectAddressing {
        self.topo
            .as_ref()
            .map_or(DirectAddressing::Overlay, |t| t.mode)
    }

    /// Number of nodes (alive and failed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the network has no nodes (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current round number (number of rounds executed so far).
    #[must_use]
    pub fn round_number(&self) -> u64 {
        self.round
    }

    /// The accounting gathered so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// All node states, indexed densely.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable access to node states (for algorithm phases that perform
    /// node-local transitions not involving communication, e.g. flipping an
    /// activation coin at a leader).
    #[must_use]
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// The wire ID of node `idx`.
    #[must_use]
    pub fn id_of(&self, idx: NodeIdx) -> NodeId {
        self.ids.id_of(idx)
    }

    /// Resolves a wire ID to a dense index (engine-side only).
    #[must_use]
    pub fn resolve(&self, id: NodeId) -> Option<NodeIdx> {
        self.ids.resolve(id)
    }

    /// Whether node `idx` is alive.
    #[must_use]
    pub fn is_alive(&self, idx: NodeIdx) -> bool {
        self.alive.get(idx.as_usize())
    }

    /// Number of alive nodes. O(1): the count is maintained incrementally
    /// as failures, crashes and recoveries move the alive mask (and
    /// cross-checked against the mask's popcount in debug builds).
    #[must_use]
    pub fn alive_count(&self) -> usize {
        debug_assert_eq!(self.alive_count, self.alive.count_ones());
        self.alive_count
    }

    /// The packed alive mask (one bit per node).
    #[must_use]
    pub fn alive_mask(&self) -> &BitSet {
        &self.alive
    }

    /// Applies a failure plan: the named nodes die immediately and forever.
    ///
    /// # Panics
    ///
    /// Panics if the plan references nodes outside this network.
    pub fn apply_failures(&mut self, plan: &FailurePlan) {
        for idx in plan.failed() {
            assert!(
                idx.as_usize() < self.len(),
                "failure plan references node {idx} outside 0..{}",
                self.len()
            );
            if self.alive.get(idx.as_usize()) {
                self.alive.clear(idx.as_usize());
                self.alive_count -= 1;
            }
        }
    }

    /// Enables event tracing with the given capacity.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Trace::with_capacity(cap);
    }

    /// The recorded trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Samples a uniformly random node other than `src` (alive or dead —
    /// the caller cannot know liveness, matching the model).
    ///
    /// Works entirely in the `u32` index domain — node counts fit `u32`
    /// by construction ([`IdSpace::new`] asserts it), so no per-call
    /// `usize` round-trip re-derives the bound.
    pub(crate) fn sample_other(rng: &mut SmallRng, n: u32, src: NodeIdx) -> NodeIdx {
        debug_assert!(n > 1, "sampling requires at least two nodes");
        loop {
            let cand = NodeIdx(rng.gen_range(0..n));
            if cand != src {
                return cand;
            }
        }
    }

    /// Executes one synchronous round.
    ///
    /// * `decide` — called once per alive node with a read-only view of its
    ///   state and a per-node random stream; returns the node's action.
    /// * `respond` — called once per alive node that is the target of at
    ///   least one PULL; computes the address-oblivious response from the
    ///   node's state at the start of the round. `None` means the node does
    ///   not answer (no response message is charged).
    /// * `deliver` — called for every delivery: pushes, pull replies, and
    ///   pulled-by notifications, in that order. Mutates recipient state.
    ///
    /// Returns this round's [`RoundStats`] (also appended to
    /// [`Metrics::per_round`]).
    ///
    /// The round loop is allocation-free in steady state: the resolved
    /// contact columns and the response buffer live in scratch storage
    /// reused across rounds (per message type `M`), push payloads are
    /// moved — not cloned — to their recipient, and per-round stats are
    /// `Copy`. Only the `per_round` log grows (amortized; see
    /// [`Self::reserve_rounds`]).
    ///
    /// Contacts are batched: phase 1 streams the alive mask and collects
    /// every resolved push/pull of the round into pre-sized
    /// struct-of-arrays scratch columns, phase 2 computes responses and
    /// loss verdicts column-wise, and phase 3 lands everything in one pass
    /// per column — the landing loops touch only the packed `u32` columns
    /// plus the recipient's state. The rules each activation and landing
    /// applies are the step core's (`step.rs`), shared with the
    /// asynchronous engine.
    pub fn round<M: Wire + 'static>(
        &mut self,
        mut decide: impl FnMut(NodeCtx<'_, S>, &mut SmallRng) -> Action<M>,
        mut respond: impl FnMut(&S) -> Option<M>,
        mut deliver: impl FnMut(&mut S, Delivery<M>),
    ) -> RoundStats {
        // The asynchronous engine, if installed, runs the step as a
        // drained event queue instead of lockstep phases.
        if self.async_state.is_some() {
            return self.round_async(decide, respond, deliver);
        }
        let (mut stats, loss) = self.begin_step();
        let mut scratch = self.buffers.take::<Scratch<M>>();
        scratch.clear();
        scratch.presize(self.len());

        // Phase 1: activate every alive node, word-streaming the alive
        // mask (64 dead nodes cost one load), and collect the resolved
        // contacts into the SoA columns.
        for wi in 0..self.alive.words().len() {
            let mut w = self.alive.words()[wi];
            while w != 0 {
                let idx = NodeIdx((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
                match self.activate(idx, &mut decide, &mut stats) {
                    Some((dst, Action::Push { msg, .. })) => {
                        scratch.push_src.push(idx.0);
                        scratch.push_dst.push(dst.0);
                        scratch.push_msg.push(msg);
                    }
                    Some((dst, Action::Pull { .. })) => {
                        scratch.pull_src.push(idx.0);
                        scratch.pull_dst.push(dst.0);
                    }
                    _ => {}
                }
            }
        }

        // Phase 2: compute pull responses from start-of-round state
        // (address-oblivious; one response per responder per round). The
        // two legs of a pull fail independently: a lost *request* is
        // never heard, a lost *reply* was sent but never arrives.
        for k in 0..scratch.pull_dst.len() {
            // Both legs are sampled unconditionally so the number of RNG
            // draws never depends on the first draw's outcome — the
            // stream stays stable under loss-model refactors. No draws
            // at all when the knob is zero (the verdict columns stay
            // empty, keeping loss-free runs bit-identical).
            if loss > 0.0 {
                scratch.pull_req_lost.push(self.rng.gen_bool(loss));
                scratch.pull_rep_lost.push(self.rng.gen_bool(loss));
            }
            let dst = NodeIdx(scratch.pull_dst[k]);
            let resp = if self.hears(dst, verdict(&scratch.pull_req_lost, k)) {
                respond(&self.states[dst.as_usize()])
            } else {
                None
            };
            scratch.responses.push(resp);
        }

        // Phase 2b: batch the push-loss verdicts (landing makes no draws;
        // none at all when the knob is zero).
        if loss > 0.0 {
            for _ in 0..scratch.push_src.len() {
                scratch.push_lost.push(self.rng.gen_bool(loss));
            }
        }

        // Phase 3: land pushes, then pull requests with their replies,
        // then — deferred, so no reply reflects it — the pulled-by
        // notifications. Payloads are moved out of the scratch buffer
        // (capacity is retained for the next round).
        let sc = &mut *scratch;
        for (k, msg) in sc.push_msg.drain(..).enumerate() {
            let (src, dst) = (NodeIdx(sc.push_src[k]), NodeIdx(sc.push_dst[k]));
            let lost = verdict(&sc.push_lost, k);
            self.land_push(src, dst, msg, lost, &mut stats, &mut deliver);
        }
        for (k, reply) in sc.responses.drain(..).enumerate() {
            let (src, dst) = (NodeIdx(sc.pull_src[k]), NodeIdx(sc.pull_dst[k]));
            self.land_pull_request(src, dst, verdict(&sc.pull_req_lost, k), &mut stats);
            if let Some(msg) = reply {
                let lost = verdict(&sc.pull_rep_lost, k);
                self.land_reply(dst, src, msg, lost, &mut stats, &mut deliver);
            }
        }
        for k in 0..sc.pull_src.len() {
            let dst = NodeIdx(sc.pull_dst[k]);
            if self.hears(dst, verdict(&sc.pull_req_lost, k)) {
                let by = self.ids.id_of(NodeIdx(sc.pull_src[k]));
                deliver(&mut self.states[dst.as_usize()], Delivery::PulledBy(by));
            }
        }
        self.buffers.put(scratch);
        self.end_step(stats)
    }

    /// Pre-reserves capacity for `rounds` additional entries of the
    /// per-round metrics log, making the round loop strictly
    /// allocation-free (rather than amortized) for that many rounds.
    pub fn reserve_rounds(&mut self, rounds: usize) {
        self.metrics.per_round.reserve(rounds);
    }

    /// The per-node fan-in counters of the most recently executed round:
    /// for each node, the number of communications it participated in
    /// (initiations plus incoming pushes and pull requests). All zeros
    /// before the first round.
    #[must_use]
    pub fn last_fan_in(&self) -> &[u32] {
        &self.fan_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Target;
    use crate::events::AsyncConfig;
    use crate::trace::EventKind;

    #[derive(Clone, Debug)]
    struct Unit;
    impl Wire for Unit {
        fn size_bits(&self) -> u64 {
            8
        }
    }

    #[derive(Default, Clone)]
    struct St {
        pushes: u32,
        replies: u32,
        pulled_by: u32,
    }

    /// The charging rules are the step core's, not a scheduler's: the
    /// tests that pin them take the engine as one more input.
    fn engines() -> [Engine; 2] {
        [Engine::Sync, Engine::Async(AsyncConfig::default())]
    }

    fn net_on(engine: &Engine, n: usize, seed: u64) -> Network<St> {
        let mut net = Network::new(n, seed);
        net.set_engine(engine.clone(), seed);
        net
    }

    /// Runs a loss-free `case` on both engines and checks they charged
    /// the same — who contacts whom, and with it fan-in, may differ with
    /// the activation order; what is charged may not.
    fn same_charges(case: impl Fn(&Engine) -> Metrics) {
        let [sync, asynch] = engines().map(|e| {
            let m = case(&e);
            [
                m.rounds,
                m.messages,
                m.payload_messages,
                m.bits,
                m.pushes,
                m.pull_requests,
                m.pull_replies,
                m.max_message_bits,
            ]
        });
        assert_eq!(sync, asynch, "the two engines charged differently");
    }

    fn everyone_pushes(net: &mut Network<St>) -> RoundStats {
        net.round(
            |_ctx, _rng| Action::Push {
                to: Target::Random,
                msg: Unit,
            },
            |_s| None,
            |s, d| {
                if matches!(d, Delivery::Push { .. }) {
                    s.pushes += 1;
                }
            },
        )
    }

    #[test]
    fn push_round_counts_messages_and_bits() {
        same_charges(|engine| {
            let mut net = net_on(engine, 16, 1);
            let stats = everyone_pushes(&mut net);
            assert_eq!(stats.messages, 16);
            assert_eq!(stats.bits, 16 * (header_bits(16) + 8));
            assert_eq!(net.metrics().pushes, 16);
            assert_eq!(net.metrics().rounds, 1);
            let delivered: u32 = net.states().iter().map(|s| s.pushes).sum();
            assert_eq!(delivered, 16, "all targets are alive, all pushes deliver");
            net.metrics().clone()
        });
    }

    #[test]
    fn pull_round_charges_request_and_reply() {
        same_charges(|engine| {
            let mut net = net_on(engine, 8, 2);
            let stats = net.round(
                |ctx, _rng| {
                    if ctx.idx.0 == 0 {
                        Action::<Unit>::Pull { to: Target::Random }
                    } else {
                        Action::Idle
                    }
                },
                |_s| Some(Unit),
                |s, d| match d {
                    Delivery::PullReply { .. } => s.replies += 1,
                    Delivery::PulledBy(_) => s.pulled_by += 1,
                    Delivery::Push { .. } => {}
                },
            );
            assert_eq!(stats.messages, 2, "request + reply");
            assert_eq!(net.metrics().pull_requests, 1);
            assert_eq!(net.metrics().pull_replies, 1);
            assert_eq!(net.states()[0].replies, 1);
            let pulled: u32 = net.states().iter().map(|s| s.pulled_by).sum();
            assert_eq!(pulled, 1);
            net.metrics().clone()
        });
    }

    #[test]
    fn silent_responder_charges_only_request() {
        same_charges(|engine| {
            let mut net = net_on(engine, 8, 3);
            let stats = net.round(
                |ctx, _rng| {
                    if ctx.idx.0 == 0 {
                        Action::<Unit>::Pull { to: Target::Random }
                    } else {
                        Action::Idle
                    }
                },
                |_s| None,
                |_s, _d| {},
            );
            assert_eq!(stats.messages, 1);
            assert_eq!(net.metrics().pull_replies, 0);
            net.metrics().clone()
        });
    }

    #[test]
    fn dead_nodes_neither_act_nor_respond() {
        same_charges(|engine| {
            let mut net = net_on(engine, 4, 4);
            net.apply_failures(&FailurePlan::explicit(vec![
                NodeIdx(1),
                NodeIdx(2),
                NodeIdx(3),
            ]));
            assert_eq!(net.alive_count(), 1);
            // Node 0 pulls a random node: all candidates are dead, so no reply.
            let stats = net.round(
                |ctx, _rng| {
                    if ctx.idx.0 == 0 {
                        Action::<Unit>::Pull { to: Target::Random }
                    } else {
                        Action::Push {
                            to: Target::Random,
                            msg: Unit,
                        }
                    }
                },
                |_s| Some(Unit),
                |s, d| {
                    if matches!(d, Delivery::PullReply { .. }) {
                        s.replies += 1;
                    }
                },
            );
            assert_eq!(stats.initiators, 1, "dead nodes do not act");
            assert_eq!(net.states()[0].replies, 0, "dead nodes do not respond");
            net.metrics().clone()
        });
    }

    #[test]
    fn direct_addressing_reaches_exact_target() {
        let mut net: Network<St> = Network::new(8, 5);
        let target_id = net.id_of(NodeIdx(5));
        net.round(
            |ctx, _rng| {
                if ctx.idx.0 == 0 {
                    Action::Push {
                        to: Target::Direct(target_id),
                        msg: Unit,
                    }
                } else {
                    Action::Idle
                }
            },
            |_s| None,
            |s, d| {
                if matches!(d, Delivery::Push { .. }) {
                    s.pushes += 1;
                }
            },
        );
        for (i, s) in net.states().iter().enumerate() {
            assert_eq!(s.pushes, u32::from(i == 5), "only node 5 receives");
        }
    }

    #[test]
    fn fan_in_tracks_concentration() {
        // Everyone pushes directly to node 0: fan-in at node 0 is n-1.
        let mut net: Network<St> = Network::new(10, 6);
        let hub = net.id_of(NodeIdx(0));
        let stats = net.round(
            |ctx, _rng| {
                if ctx.idx.0 == 0 {
                    Action::Idle
                } else {
                    Action::Push {
                        to: Target::Direct(hub),
                        msg: Unit,
                    }
                }
            },
            |_s| None,
            |_s, _d| {},
        );
        assert_eq!(stats.max_fan_in, 9);
        assert_eq!(net.metrics().max_fan_in, 9);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut net: Network<St> = Network::new(64, seed);
            for _ in 0..5 {
                everyone_pushes(&mut net);
            }
            net.states().iter().map(|s| s.pushes).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn random_target_never_hits_self() {
        // With n=2 a random target is always "the other" node.
        let mut net: Network<St> = Network::new(2, 7);
        for _ in 0..50 {
            net.round(
                |ctx, _| {
                    if ctx.idx.0 == 0 {
                        Action::Push {
                            to: Target::Random,
                            msg: Unit,
                        }
                    } else {
                        Action::Idle
                    }
                },
                |_s| None,
                |s, d| {
                    if matches!(d, Delivery::Push { .. }) {
                        s.pushes += 1;
                    }
                },
            );
        }
        assert_eq!(net.states()[0].pushes, 0);
        assert_eq!(net.states()[1].pushes, 50);
    }

    #[test]
    fn full_loss_delivers_nothing() {
        let mut net: Network<St> = Network::new(16, 9);
        net.set_message_loss(1.0);
        everyone_pushes(&mut net);
        let delivered: u32 = net.states().iter().map(|s| s.pushes).sum();
        assert_eq!(delivered, 0, "every push lost");
        assert_eq!(net.metrics().messages, 16, "senders still paid");
        // Pulls are never answered either.
        net.round(
            |_ctx, _rng| Action::<Unit>::Pull { to: Target::Random },
            |_s| Some(Unit),
            |s, d| {
                if matches!(d, Delivery::PullReply { .. }) {
                    s.replies += 1;
                }
            },
        );
        assert_eq!(net.metrics().pull_replies, 0);
    }

    #[test]
    fn partial_loss_drops_roughly_p() {
        let mut net: Network<St> = Network::new(2000, 10);
        net.set_message_loss(0.25);
        everyone_pushes(&mut net);
        let delivered: u32 = net.states().iter().map(|s| s.pushes).sum();
        let frac = f64::from(delivered) / 2000.0;
        assert!((0.68..=0.82).contains(&frac), "~75% delivered, got {frac}");
    }

    #[test]
    #[should_panic(expected = "probability must be in [0,1]")]
    fn invalid_loss_rejected() {
        let mut net: Network<St> = Network::new(4, 0);
        net.set_message_loss(1.5);
    }

    #[test]
    fn reinstalling_complete_clears_topology_metrics() {
        use crate::topology::{DirectAddressing, Topology};
        let mut net: Network<St> = Network::new(8, 20);
        net.set_topology(Topology::Ring, DirectAddressing::Overlay, 3);
        assert_eq!(net.metrics().topology_edges, 8);
        assert_eq!(net.metrics().topology_max_degree, 2);
        net.set_topology(Topology::Complete, DirectAddressing::Overlay, 3);
        assert!(net.topology_adjacency().is_none());
        assert_eq!(net.metrics().topology_edges, 0, "stale shape cleared");
        assert_eq!(net.metrics().topology_max_degree, 0);
    }

    #[test]
    fn inert_churn_changes_nothing() {
        let run = |attach_inert: bool| {
            let mut net: Network<St> = Network::new(64, 12);
            if attach_inert {
                net.set_churn(ChurnConfig::default(), 999);
            }
            for _ in 0..6 {
                everyone_pushes(&mut net);
            }
            (
                net.metrics().clone(),
                net.states().iter().map(|s| s.pushes).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true), "inert configs must not perturb");
    }

    #[test]
    fn churn_crashes_then_recoveries_reenter_the_round() {
        let mut net: Network<St> = Network::new(32, 13);
        net.set_churn(
            ChurnConfig {
                crash_rate: 1.0,
                batch_size: 5,
                recovery_rate: 1.0,
                start_round: 1,
                stop_round: Some(2),
                ..ChurnConfig::default()
            },
            77,
        );
        assert_eq!(everyone_pushes(&mut net).initiators, 32, "before window");
        let crashed_round = everyone_pushes(&mut net);
        assert_eq!(
            crashed_round.initiators, 27,
            "the batch crashes at the boundary, before decide"
        );
        assert_eq!(net.alive_count(), 27);
        let recovered_round = everyone_pushes(&mut net);
        assert_eq!(
            recovered_round.initiators, 32,
            "full recovery at the next boundary; recovered nodes act again"
        );
        assert_eq!(net.metrics().crashes, 5);
        assert_eq!(net.metrics().recoveries, 5);
    }

    #[test]
    fn time0_failures_never_recover_under_churn() {
        let mut net: Network<St> = Network::new(8, 14);
        net.apply_failures(&FailurePlan::explicit(vec![NodeIdx(3)]));
        net.set_churn(
            ChurnConfig {
                recovery_rate: 1.0,
                crash_rate: 0.0,
                burst_enter: 0.0,
                ..ChurnConfig::default()
            },
            5,
        );
        // recovery_rate alone makes the config active, but the failure
        // plan's victim is not the adversary's to revive.
        for _ in 0..10 {
            everyone_pushes(&mut net);
        }
        assert!(!net.is_alive(NodeIdx(3)));
        assert_eq!(net.metrics().recoveries, 0);
    }

    #[test]
    fn burst_loss_modulates_the_loss_knob_per_round() {
        let mut net: Network<St> = Network::new(64, 15);
        net.set_churn(
            ChurnConfig {
                burst_enter: 1.0,
                burst_exit: 0.0,
                burst_loss: 1.0,
                ..ChurnConfig::default()
            },
            6,
        );
        everyone_pushes(&mut net);
        let delivered: u32 = net.states().iter().map(|s| s.pushes).sum();
        assert_eq!(delivered, 0, "permanent full burst loses everything");
        assert_eq!(net.metrics().messages, 64, "senders still paid");
        assert_eq!(net.metrics().burst_rounds, 1);
    }

    #[test]
    fn churn_runs_are_deterministic_per_seed() {
        let run = || {
            let mut net: Network<St> = Network::new(128, 16);
            net.set_churn(
                ChurnConfig {
                    crash_rate: 0.5,
                    batch_size: 3,
                    recovery_rate: 0.3,
                    burst_enter: 0.2,
                    burst_exit: 0.4,
                    burst_loss: 0.5,
                    ..ChurnConfig::default()
                },
                42,
            );
            for _ in 0..20 {
                everyone_pushes(&mut net);
            }
            (
                net.metrics().clone(),
                net.states().iter().map(|s| s.pushes).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn alive_count_stays_incremental_under_churn() {
        // The O(1) incremental count must track the alive mask exactly
        // through crash batches and recoveries: at every round boundary
        // `alive == n - crashes + recoveries` (no time-0 failures here,
        // so the adversary is the only thing touching the mask). The
        // debug build also cross-checks against the popcount inside
        // `alive_count` itself on every call.
        let n = 512;
        let mut net: Network<St> = Network::new(n, 21);
        net.set_churn(
            ChurnConfig {
                crash_rate: 0.8,
                batch_size: 16,
                recovery_rate: 0.4,
                ..ChurnConfig::default()
            },
            7,
        );
        for _ in 0..64 {
            everyone_pushes(&mut net);
            let m = net.metrics();
            // Written additively: nodes recover and crash again, so the
            // cumulative crash count can exceed n.
            assert_eq!(
                net.alive_count() as u64 + m.crashes,
                n as u64 + m.recoveries,
                "incremental count diverged from the churn ledger"
            );
        }
        let m = net.metrics();
        assert!(
            m.crashes > 0 && m.recoveries > 0,
            "the schedule must actually have fired for the ledger check to bite"
        );
    }

    #[test]
    fn sample_other_is_confined_to_the_u32_domain() {
        // At n = 2^22 the uniform-target draw runs entirely in u32 (no
        // usize round-trip); across many draws it must never return the
        // source and never leave [0, n) — including for the boundary
        // sources 0 and n-1.
        let n: u32 = 1 << 22;
        let mut rng = rng_from_seed(0xA11CE);
        for src in [NodeIdx(0), NodeIdx(12_345), NodeIdx(n - 1)] {
            for _ in 0..10_000 {
                let t = Network::<St>::sample_other(&mut rng, n, src);
                assert_ne!(t, src, "sampled the source itself");
                assert!(t.0 < n, "sampled out of range: {} >= {n}", t.0);
            }
        }
        // The two-node edge case: the only legal answer is "the other
        // node", every time.
        for _ in 0..100 {
            assert_eq!(
                Network::<St>::sample_other(&mut rng, 2, NodeIdx(1)),
                NodeIdx(0)
            );
        }
    }

    #[test]
    fn lost_pull_request_suppresses_pulled_by() {
        // Bugfix: with the request lost in transit the responder never
        // learns it was pulled — the old engine collapsed both loss legs
        // into one verdict and notified unconditionally.
        for engine in engines() {
            let mut net = net_on(&engine, 16, 30);
            net.set_message_loss(1.0);
            net.round(
                |_ctx, _rng| Action::<Unit>::Pull { to: Target::Random },
                |_s| Some(Unit),
                |s, d| {
                    if matches!(d, Delivery::PulledBy(_)) {
                        s.pulled_by += 1;
                    }
                },
            );
            let pulled: u32 = net.states().iter().map(|s| s.pulled_by).sum();
            assert_eq!(pulled, 0, "no request arrived, so nobody was pulled");
            assert_eq!(net.metrics().pull_requests, 16, "senders still paid");
            assert_eq!(net.metrics().pull_replies, 0, "nobody answered");
            assert_eq!(
                net.metrics().max_fan_in,
                1,
                "initiations only: a lost request charges no responder fan-in"
            );
        }
    }

    #[test]
    fn lost_push_to_alive_node_traces_dropped_lost() {
        // Bugfix: a loss-dropped push to an alive node used to be traced
        // as DroppedDead, indistinguishable from a dead destination.
        for engine in engines() {
            let mut net = net_on(&engine, 8, 31);
            net.set_message_loss(1.0);
            net.enable_trace(100);
            everyone_pushes(&mut net);
            assert_eq!(net.trace().events().len(), 8);
            assert!(
                net.trace()
                    .events()
                    .iter()
                    .all(|e| e.kind == EventKind::DroppedLost),
                "alive destination + bad link = DroppedLost"
            );
            // A dead destination still traces DroppedDead, lossy link or not.
            let mut net = net_on(&engine, 2, 31);
            net.apply_failures(&FailurePlan::explicit(vec![NodeIdx(1)]));
            net.enable_trace(10);
            everyone_pushes(&mut net);
            assert_eq!(net.trace().events()[0].kind, EventKind::DroppedDead);
        }
    }

    #[test]
    fn sent_but_lost_reply_is_charged() {
        // Bugfix: a reply the responder sent but the link dropped used to
        // vanish from the books entirely. Post-fix, every request that
        // *arrives* at an always-answering alive responder produces a
        // charged reply — exactly as many replies as pulled-by
        // notifications — even though only the surviving ones deliver.
        for engine in engines() {
            let n = 2000;
            let mut net = net_on(&engine, n, 32);
            net.set_message_loss(0.5);
            net.round(
                |_ctx, _rng| Action::<Unit>::Pull { to: Target::Random },
                |_s| Some(Unit),
                |s, d| match d {
                    Delivery::PullReply { .. } => s.replies += 1,
                    Delivery::PulledBy(_) => s.pulled_by += 1,
                    Delivery::Push { .. } => {}
                },
            );
            let pulled: u64 = net.states().iter().map(|s| u64::from(s.pulled_by)).sum();
            let delivered: u64 = net.states().iter().map(|s| u64::from(s.replies)).sum();
            assert_eq!(
                net.metrics().pull_replies,
                pulled,
                "every arrived request was answered and the answer charged"
            );
            // ~50% of requests arrive; the old engine charged only the ~25%
            // of pulls where both legs survived.
            assert!(
                (800..=1200).contains(&pulled),
                "~half the requests arrive, got {pulled}"
            );
            assert!(
                delivered < net.metrics().pull_replies,
                "some charged replies were lost in flight ({delivered} delivered)"
            );
        }
    }

    #[test]
    fn inert_traffic_changes_nothing() {
        let run = |attach_inert: bool| {
            let mut net: Network<St> = Network::new(64, 33);
            if attach_inert {
                net.set_traffic(TrafficConfig::default(), 256, 999);
            }
            for _ in 0..6 {
                everyone_pushes(&mut net);
            }
            (
                net.metrics().clone(),
                net.states().iter().map(|s| s.pushes).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true), "inert configs must not perturb");
    }

    #[test]
    fn traffic_piggybacks_on_pushes_and_completes() {
        // One rumor, everyone pushing every round: the rumor must reach
        // all 32 nodes quickly, each hop riding an existing push (extra
        // bits, no extra messages).
        let mut net: Network<St> = Network::new(32, 34);
        net.set_traffic(
            TrafficConfig {
                rumors: 1,
                arrival_rate: 1.0,
                ..TrafficConfig::default()
            },
            256,
            7,
        );
        let mut base_messages = 0;
        for _ in 0..40 {
            base_messages += everyone_pushes(&mut net).messages;
        }
        let m = net.metrics();
        assert_eq!(m.rumors_started, 1);
        assert_eq!(m.rumors_completed, 1, "32 nodes, 40 full-push rounds");
        assert_eq!(
            m.rumor_payloads, 31,
            "each non-origin node learned it exactly once"
        );
        assert_eq!(m.messages, base_messages, "piggybacking adds no messages");
        let s = net.traffic_summary();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].informed, 32);
        assert!(s[0].latency().is_some());
    }

    #[test]
    fn traffic_bandwidth_budget_counts_drops() {
        // 8 rumors all front-loaded, budget 1: contention must show up
        // as budget drops, and completion still happens eventually.
        for engine in engines() {
            let mut net = net_on(&engine, 16, 35);
            net.set_traffic(
                TrafficConfig {
                    rumors: 8,
                    arrival_rate: 100.0,
                    bandwidth: 1,
                    ..TrafficConfig::default()
                },
                256,
                8,
            );
            for _ in 0..200 {
                everyone_pushes(&mut net);
            }
            let m = net.metrics();
            assert_eq!(m.rumors_started, 8);
            assert_eq!(m.rumors_completed, 8, "budget delays, not prevents");
            assert!(m.budget_drops > 0, "8 rumors over budget-1 links contend");
        }
    }

    #[test]
    fn traffic_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut net: Network<St> = Network::new(64, 36);
            net.set_traffic(
                TrafficConfig {
                    rumors: 5,
                    arrival_rate: 0.8,
                    bandwidth: 2,
                    ..TrafficConfig::default()
                },
                128,
                seed,
            );
            for _ in 0..30 {
                everyone_pushes(&mut net);
            }
            (net.metrics().clone(), net.traffic_summary())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn trace_records_pushes() {
        for engine in engines() {
            let mut net = net_on(&engine, 4, 8);
            net.enable_trace(100);
            everyone_pushes(&mut net);
            assert_eq!(net.trace().events().len(), 4);
            assert!(net
                .trace()
                .events()
                .iter()
                .all(|e| e.kind == EventKind::Push));
        }
    }
}
