//! Oracle `Δ`-ary PULL-tree broadcast: the exact optimum of Lemma 16.
//!
//! Lemma 16 says any algorithm in which no node participates in more
//! than `Δ` communications per round needs `≥ log n / log Δ` rounds. The
//! *matching* upper bound with free address knowledge is a `Δ`-ary tree:
//! give every node `i > 0` the address of its parent `⌊(i−1)/Δ⌋` (an
//! oracle — in the real model addresses must be learned, which is what
//! the paper's `Δ`-clustering machinery is for), root the rumor at node
//! 0, and let every uninformed node PULL its parent each round. The rumor
//! descends one level per round: exactly `⌈log_Δ(n(Δ−1)+1)⌉` rounds, with
//! responder fan-in exactly `≤ Δ`.
//!
//! This is **not** achievable in the random phone call model (nodes start
//! with no addresses) — it serves as the unreachable-optimum reference
//! line in experiment E6, quantifying how close `ClusterPUSH-PULL` gets
//! after paying `O(log log n)` rounds to learn the addresses.

use gossip_core::report::RunReport;
use gossip_core::CommonConfig;
use phonecall::Target;

use crate::common::{rumor_network, spread, Call};

/// The least fan-out the tree runs with.
pub const MIN_DELTA: usize = 2;

/// Rounds the oracle tree needs for `n` nodes and fan-in `delta`.
#[must_use]
pub fn predicted_rounds(n: usize, delta: usize) -> u64 {
    // Depth of the complete Δ-ary tree with n nodes.
    let delta = delta.max(2) as u64;
    let mut covered: u64 = 1;
    let mut level: u64 = 1;
    let mut depth = 0;
    while covered < n as u64 {
        level *= delta;
        covered += level;
        depth += 1;
    }
    depth
}

/// Runs the oracle tree broadcast.
///
/// The source is re-rooted at node 0 for tree regularity (the oracle may
/// as well choose the root). Dead inner nodes orphan their subtrees —
/// the oracle tree is *not* fault tolerant, unlike the paper's
/// clusterings; this shows in experiment E7.
///
/// ```
/// use gossip_baselines::{tree, CommonConfig};
/// let mut cfg = CommonConfig::default();
/// cfg.source = 0;
/// let r = tree::run(1 << 10, 4, &cfg);
/// assert!(r.success);
/// assert_eq!(r.rounds, tree::predicted_rounds(1 << 10, 4));
/// assert!(r.max_fan_in <= 4);
/// ```
#[must_use]
pub fn run(n: usize, delta: usize, cfg: &CommonConfig) -> RunReport {
    assert!(
        delta >= MIN_DELTA,
        "a tree needs fan-out at least {MIN_DELTA}"
    );
    let mut root_cfg = cfg.clone();
    root_cfg.source = 0;
    let net = rumor_network(n, &root_cfg);

    // Oracle address table: parent of node i is (i-1)/delta, pulled
    // exactly at the node's tree depth (the oracle schedule keeps each
    // responder at exactly its Δ children per round — pulling earlier
    // would stack a node's own pull on top of its children's).
    let parents: Vec<_> = (0..n)
        .map(|i| {
            if i == 0 {
                None
            } else {
                Some(net.id_of(phonecall::NodeIdx(((i - 1) / delta) as u32)))
            }
        })
        .collect();
    let mut depth = vec![0u64; n];
    for i in 1..n {
        depth[i] = depth[(i - 1) / delta] + 1;
    }

    let budget = predicted_rounds(n, delta) + 2;
    spread(net, cfg.rumor_bits, budget, |ctx| {
        let i = ctx.idx.as_usize();
        if ctx.state.informed || ctx.round + 1 != depth[i] {
            None
        } else {
            parents[i].map(|p| Call::Pull(Target::Direct(p)))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informs_everyone_in_exactly_tree_depth() {
        for (n, delta) in [(64usize, 2usize), (1 << 10, 4), (1 << 12, 16)] {
            let r = run(n, delta, &CommonConfig::default());
            assert!(r.success, "n={n} delta={delta}");
            assert_eq!(r.rounds, predicted_rounds(n, delta), "n={n} delta={delta}");
        }
    }

    #[test]
    fn fan_in_is_bounded_by_delta() {
        let r = run(1 << 10, 8, &CommonConfig::default());
        assert!(r.max_fan_in <= 8, "fan-in {}", r.max_fan_in);
        let r = run(1 << 12, 3, &CommonConfig::default());
        assert!(r.max_fan_in <= 3, "fan-in {}", r.max_fan_in);
    }

    #[test]
    fn predicted_depths() {
        assert_eq!(predicted_rounds(1, 2), 0);
        assert_eq!(predicted_rounds(3, 2), 1);
        assert_eq!(predicted_rounds(7, 2), 2);
        assert_eq!(predicted_rounds(8, 2), 3);
        assert_eq!(predicted_rounds(1 << 12, 16), 3);
    }

    #[test]
    fn inner_node_failures_orphan_subtrees() {
        // Killing node 1 (a child of the root) must leave its whole
        // subtree uninformed — the brittleness the paper's randomized
        // clusterings avoid.
        let mut cfg = CommonConfig::default();
        cfg.failures = phonecall::FailurePlan::explicit(vec![phonecall::NodeIdx(1)]);
        let r = run(1 << 8, 2, &cfg);
        assert!(!r.success, "orphaned subtree must stay uninformed");
        assert!(r.uninformed() > 50, "half the tree hangs under node 1");
    }

    #[test]
    fn messages_are_exactly_one_pull_per_node() {
        let r = run(1 << 10, 4, &CommonConfig::default());
        // The oracle schedule: each non-root node pulls exactly once.
        assert!(r.payload_messages_per_node() <= 1.0);
        assert!(r.messages as usize <= 2 * (1 << 10));
    }
}
