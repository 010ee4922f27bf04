//! **Name-Dropper** (Harchol-Balter, Leighton & Lewin, PODC 1999):
//! resource discovery with direct addressing.
//!
//! Starting from any weakly connected knowledge graph, each node
//! repeatedly pushes *all* node IDs it knows to a uniformly random node it
//! knows; `O(log² n)` rounds suffice for every node to know every other
//! whp. The paper cites this as the classic direct-addressing algorithm
//! whose `log² n` bound later work (Kutten–Peleg–Vishkin, and ultimately
//! this paper's `Θ(log log n)` gossip) improved on.
//!
//! # Cost model
//!
//! The *simulated* cost is the algorithm's own: a message lists every ID
//! its sender knows, `Θ(n log n)` bits once knowledge has spread, and is
//! charged as such. The *host* cost is one bit per (node, known node):
//! a node's knowledge is a [`BitSet`] row indexed by **ID rank** (bit
//! `r` is the run's `r`-th smallest [`NodeId`]), so the whole run holds
//! `n²/8` bytes, a delivery is a word-OR of two rows, and "a uniformly
//! random node it knows" is a popcount select. Ranks rather than dense
//! indices because the draw picks the `k`-th known ID *in ID order*:
//! with rows in that order the `k`-th set bit is that ID. `n = 2¹⁴` is
//! 32 MiB of rows.

use std::cell::RefCell;

use phonecall::knob::Choice;
use phonecall::{Action, BitSet, Delivery, Metrics, Network, NodeId, NodeIdx, Target};
use rand::Rng;
use serde::Serialize;

use crate::common::BaselineMsg;
use gossip_core::CommonConfig;

/// Per-node discovery state: the known IDs as a row over ID ranks.
#[derive(Debug)]
struct DiscoveryNode {
    /// Ranks of the IDs this node knows (always contains the own rank).
    known: BitSet,
    /// `known.count_ones()`, maintained by every union.
    count: usize,
}

/// Report of a discovery run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct DiscoveryReport {
    /// Network size.
    pub n: usize,
    /// Rounds until the knowledge graph became complete (or the cap).
    pub rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Total bits (dominated by the `Θ(n log n)`-bit ID lists).
    pub bits: u64,
    /// Whether every node knows every other node.
    pub complete: bool,
}

/// Initial topology for the discovery task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// A directed ring: node `i` knows node `i+1 mod n` (diameter `n` —
    /// the hard case).
    Ring,
    /// A random graph: each node knows 2 uniformly random others plus its
    /// ring successor (weakly connected, low diameter).
    SparseRandom,
}

/// The `"topology"` parameter of the registry's NameDropper entry:
/// `"ring"` or `"sparse-random"`.
impl Choice for Topology {
    fn label(&self) -> &'static str {
        match self {
            Topology::Ring => "ring",
            Topology::SparseRandom => "sparse-random",
        }
    }

    fn choose(&mut self, label: &str) -> Result<(), String> {
        *self = [Topology::Ring, Topology::SparseRandom]
            .into_iter()
            .find(|t| t.label() == label)
            .ok_or_else(|| {
                format!("parameter \"topology\" wants \"ring\" or \"sparse-random\", got {label:?}")
            })?;
        Ok(())
    }
}

/// Runs Name-Dropper until the knowledge graph is complete (or
/// `4·log₂² n + 40` rounds).
///
/// ```
/// use gossip_baselines::{name_dropper, CommonConfig};
/// let report = name_dropper::run(64, name_dropper::Topology::Ring, &CommonConfig::default());
/// assert!(report.complete);
/// ```
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn run(n: usize, topology: Topology, cfg: &CommonConfig) -> DiscoveryReport {
    let d = Discovery::finished(n, topology, cfg);
    let m = d.metrics();
    DiscoveryReport {
        n,
        rounds: m.rounds,
        messages: m.messages,
        bits: m.bits,
        complete: d.is_complete(),
    }
}

/// Runs Name-Dropper and reports it in the common
/// [`RunReport`](gossip_core::RunReport) shape
/// (for the algorithm registry): `informed` counts *alive* nodes whose
/// knowledge is complete (they know all `n` IDs) and `success` means
/// discovery finished — every alive node knows every other. Dead nodes
/// are excluded from both, matching the broadcast baselines' survivor
/// semantics (and keeping `informed ≤ alive` under churn).
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn run_report(n: usize, topology: Topology, cfg: &CommonConfig) -> gossip_core::RunReport {
    let d = Discovery::finished(n, topology, cfg);
    gossip_core::RunReport::of(&d.net, d.informed(), d.is_complete())
}

/// A Name-Dropper run in progress: the network, the run's ID-rank
/// tables, and the free list that carries row buffers from deliveries
/// back to sends.
#[derive(Debug)]
pub struct Discovery {
    net: Network<DiscoveryNode>,
    /// Rank → ID: the run's IDs in increasing order.
    by_rank: Vec<NodeId>,
    /// Dense index → rank.
    rank_of: Vec<u32>,
    /// `4·log₂² n + 40`.
    round_cap: u64,
    /// Row buffers of delivered messages, reused by the next sends. A
    /// `RefCell` because `decide` takes from it and `deliver` gives back
    /// within one `Network::round` call.
    free_rows: RefCell<Vec<BitSet>>,
}

impl Discovery {
    /// Builds the network `cfg` describes and seeds the initial
    /// knowledge graph `topology` on it.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, topology: Topology, cfg: &CommonConfig) -> Self {
        assert!(n >= 2, "discovery needs at least two nodes");
        // Discovery faces the same environment as the broadcast tasks.
        // Note the *knowledge* seed graph below is a property of the
        // task, independent of the contact graph: under
        // `DirectAddressing::Restricted` a known ID without a link is
        // unusable, which is exactly the regime E11 probes. Workload
        // rumors ride the ID-list messages like any other payload.
        let mut net = cfg.network(n, |_idx, _id| DiscoveryNode {
            known: BitSet::new(n),
            count: 0,
        });
        let ids = || (0..n as u32).map(|i| net.id_of(NodeIdx(i)));
        let mut by_rank: Vec<NodeId> = ids().collect();
        by_rank.sort_unstable();
        let rank_of: Vec<u32> = ids()
            .map(|id| by_rank.binary_search(&id).expect("every ID was sorted in") as u32)
            .collect();

        // Seed the initial knowledge graph.
        let mut seed_rng = phonecall::rng_from_seed(phonecall::derive_seed(cfg.seed, 77));
        for i in 0..n {
            let st = &mut net.states_mut()[i];
            st.known.set(rank_of[i] as usize);
            st.known.set(rank_of[(i + 1) % n] as usize);
        }
        if topology == Topology::SparseRandom {
            for i in 0..n {
                for _ in 0..2 {
                    let j = seed_rng.gen_range(0..n as u32);
                    net.states_mut()[i].known.set(rank_of[j as usize] as usize);
                }
            }
        }
        for st in net.states_mut() {
            st.count = st.known.count_ones();
        }

        let l = gossip_core::config::log2n(n);
        let round_cap = (4.0 * l * l).ceil() as u64 + 40;
        // With the per-round log sized here and row buffers recycled, a
        // loss-free round past the first allocates nothing.
        net.reserve_rounds(round_cap as usize);
        Discovery {
            net,
            by_rank,
            rank_of,
            round_cap,
            free_rows: RefCell::new(Vec::new()),
        }
    }

    /// Runs to completion or the round cap.
    fn finished(n: usize, topology: Topology, cfg: &CommonConfig) -> Self {
        let mut d = Discovery::new(n, topology, cfg);
        while !d.is_complete() && d.net.round_number() < d.round_cap {
            d.round();
        }
        d
    }

    /// One round: every alive node pushes everything it knows to a
    /// uniformly random node it knows.
    pub fn round(&mut self) {
        let Discovery {
            net,
            by_rank,
            rank_of,
            free_rows,
            ..
        } = self;
        let id_bits = phonecall::id_bits(net.len());
        net.round(
            |ctx, rng| {
                let st = ctx.state;
                if st.count < 2 {
                    return Action::Idle;
                }
                // The `k`-th known ID other than the own one, in ID
                // order: the own bit is skipped by stepping over its
                // position among the members.
                let own = rank_of[ctx.idx.as_usize()] as usize;
                let mut k = rng.gen_range(0..st.count - 1);
                if k >= st.known.rank_below(own) {
                    k += 1;
                }
                let target = st.known.select(k).expect("a draw below the member count");
                // A snapshot, not a borrow: deliveries later this round
                // (and latencies under the async engine) change the
                // sender's row before this message lands.
                let mut row = free_rows
                    .borrow_mut()
                    .pop()
                    .unwrap_or_else(|| BitSet::new(0));
                row.clone_from(&st.known);
                Action::Push {
                    to: Target::Direct(by_rank[target]),
                    msg: BaselineMsg::IdRow {
                        row,
                        listed: st.count as u64 + 1,
                        id_bits,
                    },
                }
            },
            |_s| None,
            |s, d| {
                // The sender's own ID needs no separate insert: a row
                // always contains its owner.
                if let Delivery::Push {
                    msg: BaselineMsg::IdRow { row, .. },
                    ..
                } = d
                {
                    s.count = s.known.union_with(&row);
                    free_rows.borrow_mut().push(row);
                }
            },
        );
    }

    /// Whether every *alive* node has complete knowledge. Permanently
    /// dead nodes can never learn, so counting them (as this once did)
    /// made discovery unwinnable under any failure plan or no-recovery
    /// churn — the loop always burned its full round cap.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.informed() == self.net.alive_count()
    }

    /// Alive nodes that know all `n` IDs.
    #[must_use]
    pub fn informed(&self) -> usize {
        let n = self.net.len();
        self.net
            .states()
            .iter()
            .enumerate()
            .filter(|(i, s)| self.net.is_alive(NodeIdx(*i as u32)) && s.count == n)
            .count()
    }

    /// The accounting gathered so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        self.net.metrics()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use gossip_core::algo::Scenario;
    use phonecall::{AsyncConfig, ChurnConfig, DirectAddressing, Engine, Latency, Wire};

    use super::*;

    /// The ID-list message of the reference below.
    struct IdList {
        ids: Vec<NodeId>,
        id_bits: u64,
    }

    impl Wire for IdList {
        fn size_bits(&self) -> u64 {
            16 + self.ids.len() as u64 * self.id_bits
        }
    }

    /// Name-Dropper as it was before the bit rows, kept as the reference
    /// the differential test compares against: a `BTreeSet<NodeId>` per
    /// node, the target drawn from the set collected into a `Vec`, the
    /// message a cloned ID list with the sender's ID appended.
    fn reference_report(
        n: usize,
        topology: Topology,
        cfg: &CommonConfig,
    ) -> gossip_core::RunReport {
        #[derive(Clone, Debug, Default)]
        struct RefNode {
            known: BTreeSet<NodeId>,
        }
        fn is_complete(net: &Network<RefNode>) -> bool {
            let n = net.len();
            net.states()
                .iter()
                .enumerate()
                .all(|(i, s)| !net.is_alive(NodeIdx(i as u32)) || s.known.len() == n)
        }

        let mut net = cfg.network(n, |_idx, _id| RefNode::default());
        let id_bits = phonecall::id_bits(n);
        let mut seed_rng = phonecall::rng_from_seed(phonecall::derive_seed(cfg.seed, 77));
        for i in 0..n {
            let own = net.id_of(NodeIdx(i as u32));
            let succ = net.id_of(NodeIdx(((i + 1) % n) as u32));
            let st = &mut net.states_mut()[i];
            st.known.insert(own);
            st.known.insert(succ);
        }
        if topology == Topology::SparseRandom {
            for i in 0..n {
                for _ in 0..2 {
                    let j = seed_rng.gen_range(0..n as u32);
                    let id = net.id_of(NodeIdx(j));
                    net.states_mut()[i].known.insert(id);
                }
            }
        }

        let l = gossip_core::config::log2n(n);
        let cap = (4.0 * l * l).ceil() as u64 + 40;
        while !is_complete(&net) && net.round_number() < cap {
            net.round(
                |ctx, rng| {
                    let known: Vec<NodeId> = ctx
                        .state
                        .known
                        .iter()
                        .copied()
                        .filter(|k| *k != ctx.id)
                        .collect();
                    if known.is_empty() {
                        return Action::Idle;
                    }
                    let target = known[rng.gen_range(0..known.len())];
                    let mut ids: Vec<NodeId> = ctx.state.known.iter().copied().collect();
                    ids.push(ctx.id);
                    Action::Push {
                        to: Target::Direct(target),
                        msg: IdList { ids, id_bits },
                    }
                },
                |_s| None,
                |s, d| {
                    if let Delivery::Push {
                        msg: IdList { ids, .. },
                        from,
                    } = d
                    {
                        s.known.insert(from);
                        s.known.extend(ids);
                    }
                },
            );
        }
        let informed = net
            .states()
            .iter()
            .enumerate()
            .filter(|(i, s)| net.is_alive(NodeIdx(*i as u32)) && s.known.len() == n)
            .count();
        gossip_core::RunReport::of(&net, informed, is_complete(&net))
    }

    /// The environments of the differential test, each exercising a way
    /// a message can be dropped, delayed or widened between the send-time
    /// snapshot and the delivery.
    fn environments(n: usize) -> Vec<(&'static str, Scenario)> {
        // E10's storm profile: rolling crashes with recovery plus burst
        // loss, the batch scaled to the network.
        let storm = ChurnConfig {
            crash_rate: 1.0,
            batch_size: (n / 64).max(4) as u32,
            start_round: 1,
            stop_round: Some(30),
            recovery_rate: 0.15,
            burst_enter: 0.15,
            burst_exit: 0.35,
            burst_loss: 0.5,
            protected: vec![0],
            ..ChurnConfig::default()
        };
        // RandomRegular(8) needs degree < n; the tiny sizes take the
        // ring, the other restricted golden row.
        let sparse = if n > 8 {
            phonecall::Topology::RandomRegular(8)
        } else {
            phonecall::Topology::Ring
        };
        let base = || Scenario::broadcast(n);
        vec![
            ("plain", base()),
            ("loss", base().message_loss(0.1)),
            ("storm", base().churn(storm)),
            (
                "restricted",
                base()
                    .topology(sparse)
                    .addressing(DirectAddressing::Restricted),
            ),
            ("rumors", base().rumors(8, 1.0)),
            (
                "async-exp",
                base().engine(Engine::Async(AsyncConfig {
                    latency: Latency::Exponential(0.5),
                    ..AsyncConfig::default()
                })),
            ),
        ]
    }

    /// Tail words (`n % 64 != 0`), an own rank on a word boundary and the
    /// two-node network are where select-with-skip goes wrong; every
    /// `RunReport` field must agree with the `BTreeSet` reference there
    /// and under every environment.
    #[test]
    fn bit_rows_agree_with_the_btreeset_reference() {
        for n in [2, 3, 63, 64, 65, 127, 128, 129, 200, 256] {
            for (env, scenario) in environments(n) {
                for topology in [Topology::Ring, Topology::SparseRandom] {
                    for seed in [1, 7, 0xC0FFEE, 0xB11] {
                        let cfg = scenario.clone().seed(seed);
                        assert_eq!(
                            run_report(n, topology, cfg.common()),
                            reference_report(n, topology, cfg.common()),
                            "n {n}, {env}, {topology:?}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn a_single_node_is_rejected_by_the_direct_api() {
        let _ = run(1, Topology::Ring, &CommonConfig::default());
    }

    #[test]
    fn completes_from_ring() {
        let r = run(128, Topology::Ring, &CommonConfig::default());
        assert!(r.complete, "rounds {}", r.rounds);
    }

    #[test]
    fn run_report_mirrors_discovery_report() {
        let cfg = CommonConfig::default();
        let d = run(128, Topology::Ring, &cfg);
        let r = run_report(128, Topology::Ring, &cfg);
        assert_eq!(
            (r.n, r.rounds, r.messages, r.bits, r.success),
            (d.n, d.rounds, d.messages, d.bits, d.complete)
        );
        assert_eq!(r.informed, 128, "complete discovery informs everyone");
        assert!(r.payload_messages > 0 && r.max_fan_in > 0);
    }

    #[test]
    fn completes_from_sparse_random() {
        let r = run(128, Topology::SparseRandom, &CommonConfig::default());
        assert!(r.complete);
    }

    #[test]
    fn rounds_scale_polylogarithmically() {
        let cfg = CommonConfig::default();
        let small = run(64, Topology::Ring, &cfg);
        let large = run(512, Topology::Ring, &cfg);
        assert!(small.complete && large.complete);
        // log² scaling: (9/6)² = 2.25; allow generous slack but far below
        // the linear ratio of 8.
        let ratio = large.rounds as f64 / small.rounds.max(1) as f64;
        assert!(ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn random_topology_is_faster_than_ring() {
        let cfg = CommonConfig::default();
        let ring = run(256, Topology::Ring, &cfg);
        let rnd = run(256, Topology::SparseRandom, &cfg);
        assert!(
            rnd.rounds <= ring.rounds,
            "random {} vs ring {}",
            rnd.rounds,
            ring.rounds
        );
    }
}
