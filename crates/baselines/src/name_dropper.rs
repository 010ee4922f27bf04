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
//! Note the per-node state and message size are `Θ(n log n)` bits — run
//! this at moderate `n` (the benches use `n ≤ 2¹¹`).

use std::collections::BTreeSet;

use phonecall::{Action, Delivery, Network, NodeId, Target};
use rand::Rng;
use serde::Serialize;

use crate::common::BaselineMsg;
use gossip_core::CommonConfig;

/// Per-node discovery state: the set of known IDs.
#[derive(Clone, Debug, Default)]
pub struct DiscoveryNode {
    /// IDs this node knows (always contains the own ID).
    pub known: BTreeSet<NodeId>,
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

/// Runs Name-Dropper until the knowledge graph is complete (or
/// `4·log₂² n + 40` rounds).
///
/// ```
/// use gossip_baselines::{name_dropper, CommonConfig};
/// let report = name_dropper::run(64, name_dropper::Topology::Ring, &CommonConfig::default());
/// assert!(report.complete);
/// ```
#[must_use]
pub fn run(n: usize, topology: Topology, cfg: &CommonConfig) -> DiscoveryReport {
    let net = run_net(n, topology, cfg);
    let m = net.metrics();
    DiscoveryReport {
        n,
        rounds: m.rounds,
        messages: m.messages,
        bits: m.bits,
        complete: is_complete(&net),
    }
}

/// Runs Name-Dropper and reports it in the common
/// [`RunReport`](gossip_core::RunReport) shape
/// (for the algorithm registry): `informed` counts *alive* nodes whose
/// knowledge is complete (they know all `n` IDs) and `success` means
/// discovery finished — every alive node knows every other. Dead nodes
/// are excluded from both, matching the broadcast baselines' survivor
/// semantics (and keeping `informed ≤ alive` under churn).
#[must_use]
pub fn run_report(n: usize, topology: Topology, cfg: &CommonConfig) -> gossip_core::RunReport {
    let net = run_net(n, topology, cfg);
    let informed = net
        .states()
        .iter()
        .enumerate()
        .filter(|(i, s)| net.is_alive(phonecall::NodeIdx(*i as u32)) && s.known.len() == n)
        .count();
    gossip_core::RunReport::of(&net, informed, is_complete(&net))
}

/// Whether every *alive* node has complete knowledge. Permanently dead
/// nodes can never learn, so counting them (as this once did) made
/// discovery unwinnable under any failure plan or no-recovery churn —
/// the loop always burned its full round cap.
fn is_complete(net: &Network<DiscoveryNode>) -> bool {
    let n = net.len();
    net.states()
        .iter()
        .enumerate()
        .all(|(i, s)| !net.is_alive(phonecall::NodeIdx(i as u32)) || s.known.len() == n)
}

/// The shared discovery loop behind [`run`] and [`run_report`].
fn run_net(n: usize, topology: Topology, cfg: &CommonConfig) -> Network<DiscoveryNode> {
    assert!(n >= 2, "discovery needs at least two nodes");
    // Discovery faces the same environment as the broadcast tasks. Note
    // the *knowledge* seed graph below is a property of the task,
    // independent of the contact graph: under
    // `DirectAddressing::Restricted` a known ID without a link is
    // unusable, which is exactly the regime E11 probes. Workload rumors
    // ride the ID-list messages like any other payload.
    let mut net = cfg.network(n, |_idx, _id| DiscoveryNode::default());
    let id_bits = phonecall::id_bits(n);

    // Seed the initial knowledge graph.
    let mut seed_rng = phonecall::rng_from_seed(phonecall::derive_seed(cfg.seed, 77));
    for i in 0..n {
        let own = net.id_of(phonecall::NodeIdx(i as u32));
        let succ = net.id_of(phonecall::NodeIdx(((i + 1) % n) as u32));
        let st = &mut net.states_mut()[i];
        st.known.insert(own);
        st.known.insert(succ);
    }
    if topology == Topology::SparseRandom {
        for i in 0..n {
            for _ in 0..2 {
                let j = seed_rng.gen_range(0..n as u32);
                let id = net.id_of(phonecall::NodeIdx(j));
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
                    msg: BaselineMsg::IdList { ids, id_bits },
                }
            },
            |_s| None,
            |s, d| {
                if let Delivery::Push {
                    msg: BaselineMsg::IdList { ids, .. },
                    from,
                } = d
                {
                    s.known.insert(from);
                    s.known.extend(ids);
                }
            },
        );
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

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
