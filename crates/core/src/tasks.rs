//! Coordination tasks over a network-spanning cluster.
//!
//! The paper's algorithms "compute a cluster containing all nodes …
//! which can then be used to perform any of these tasks easily and
//! efficiently" (Section 2). This module delivers on that sentence: once
//! a spanning cluster exists, leader election is immediate and any
//! associative aggregate (count, sum, min, max) costs two rounds and two
//! messages per node through the `ClusterShare` pattern.

use phonecall::NodeId;

use crate::config::Cluster2Config;
use crate::msg::MsgKind;
use crate::primitives::{collect_members, size_round, Who};
use crate::report::RunReport;
use crate::sim::{pull_round, push_round, to_leader, ClusterSim};

/// Builds a network-spanning cluster with `Cluster2` (the broadcast is
/// run too — the rumor doubles as the liveness beacon) and returns the
/// simulation ready for tasks.
#[must_use]
pub fn build_spanning_cluster(n: usize, cfg: &Cluster2Config) -> (ClusterSim, RunReport) {
    let mut sim = ClusterSim::new(n, &cfg.common);
    let report = crate::cluster2::run_on(&mut sim, cfg);
    (sim, report)
}

/// The elected leader: the spanning cluster's leader ID, which every
/// clustered node holds in its `follow` variable — election is free once
/// the clustering exists. Returns `None` if the nodes do not agree on a
/// single leader (i.e. the clustering is not spanning).
#[must_use]
pub fn elected_leader(sim: &ClusterSim) -> Option<NodeId> {
    let mut leader = None;
    for s in sim.alive_states() {
        match (leader, s.leader()) {
            (_, None) => return None,
            (None, Some(l)) => leader = Some(l),
            (Some(a), Some(b)) if a != b => return None,
            _ => {}
        }
    }
    leader
}

/// Network-wide node count (`ClusterSize` on the spanning cluster): after
/// two rounds, every member's `size` field holds the count of alive
/// clustered nodes. Returns the count.
pub fn count_alive(sim: &mut ClusterSim) -> u64 {
    collect_members(sim, Who::AllClustered);
    size_round(sim, Who::AllClustered, None);
    sim.alive_states()
        .filter_map(|s| s.is_leader().then_some(u64::from(s.size)))
        .max()
        .unwrap_or(0)
}

/// Associative combine operations for [`aggregate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Sum of all values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

impl Combine {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Combine::Sum => a.saturating_add(b),
            Combine::Min => a.min(b),
            Combine::Max => a.max(b),
        }
    }

    fn identity(self) -> u64 {
        match self {
            Combine::Sum => 0,
            Combine::Min => u64::MAX,
            Combine::Max => 0,
        }
    }
}

/// Aggregates one `u64` per node over the spanning cluster in two rounds
/// (`ClusterShare` pattern): members push their value to the leader, the
/// leader folds, members pull the result. `values[i]` is node `i`'s local
/// input; dead and unclustered nodes contribute nothing.
///
/// Returns the aggregate as computed at the leader.
///
/// # Panics
///
/// Panics if `values.len() != sim.n()`.
pub fn aggregate(sim: &mut ClusterSim, values: &[u64], op: Combine) -> u64 {
    let held = aggregate_everywhere(sim, values, op);
    sim.alive_states()
        .find(|s| s.is_leader())
        .map_or(op.identity(), |s| held[s.idx.as_usize()])
}

/// The two rounds of [`aggregate`]; returns the value every node holds
/// afterwards, by node index (members of the spanning cluster: the
/// aggregate).
fn aggregate_everywhere(sim: &mut ClusterSim, values: &[u64], op: Combine) -> Vec<u64> {
    assert_eq!(values.len(), sim.n(), "one value per node");

    // Each node starts from its own input; leaders fold what arrives.
    let mut held = values.to_vec();
    push_round(
        &mut sim.net,
        sim.wire,
        |s| to_leader(s).map(|to| (to, MsgKind::Count(values[s.idx.as_usize()]))),
        |s, kind| {
            if let MsgKind::Count(v) = kind {
                let acc = &mut held[s.idx.as_usize()];
                *acc = op.apply(*acc, v);
            }
        },
    );
    // Leaders publish; members pull.
    for s in sim.net.states() {
        if s.is_leader() {
            let total = MsgKind::Count(held[s.idx.as_usize()]);
            sim.replies.set(s.idx, sim.wire.msg(total));
        }
    }
    pull_round(&mut sim.net, &mut sim.replies, to_leader, |s, kind| {
        if let MsgKind::Count(v) = kind {
            held[s.idx.as_usize()] = v;
        }
    });
    held
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::follow::Follow;
    use phonecall::NodeIdx;

    fn spanning(n: usize) -> ClusterSim {
        let mut sim = ClusterSim::new(n, &CommonConfig::default());
        let leader = sim.net.id_of(NodeIdx(0));
        for i in 0..n {
            sim.net.states_mut()[i].follow = Follow::Of(leader);
        }
        sim
    }

    #[test]
    fn leader_election_from_spanning_cluster() {
        let sim = spanning(64);
        let l = elected_leader(&sim).expect("agreement");
        assert_eq!(l, sim.net.id_of(NodeIdx(0)));
    }

    #[test]
    fn no_leader_without_agreement() {
        let mut sim = spanning(8);
        sim.net.states_mut()[5].follow = Follow::Unclustered;
        assert_eq!(elected_leader(&sim), None);
    }

    #[test]
    fn counting_over_spanning_cluster() {
        let mut sim = spanning(100);
        assert_eq!(count_alive(&mut sim), 100);
    }

    #[test]
    fn aggregates_compute_exactly() {
        let mut sim = spanning(32);
        let values: Vec<u64> = (0..32u64).map(|i| i * 3 + 1).collect();
        assert_eq!(
            aggregate(&mut sim, &values, Combine::Sum),
            values.iter().sum::<u64>()
        );
        let mut sim = spanning(32);
        assert_eq!(aggregate(&mut sim, &values, Combine::Max), 94);
        let mut sim = spanning(32);
        assert_eq!(aggregate(&mut sim, &values, Combine::Min), 1);
    }

    #[test]
    fn members_learn_the_aggregate() {
        let mut sim = spanning(16);
        let values = [2u64; 16];
        let held = aggregate_everywhere(&mut sim, &values, Combine::Sum);
        assert_eq!(held, [32; 16], "every member holds the result");
    }

    #[test]
    fn aggregate_costs_two_rounds() {
        let mut sim = spanning(16);
        let before = sim.net.metrics().rounds;
        let _ = aggregate(&mut sim, &[1; 16], Combine::Sum);
        assert_eq!(sim.net.metrics().rounds - before, 2);
    }

    #[test]
    fn end_to_end_cluster2_then_tasks() {
        let mut cfg = Cluster2Config::default();
        cfg.common.seed = 3;
        let (mut sim, report) = build_spanning_cluster(512, &cfg);
        assert!(report.success);
        assert!(
            elected_leader(&sim).is_some(),
            "cluster2 ends in one spanning cluster"
        );
        let n_measured = count_alive(&mut sim);
        assert_eq!(n_measured, 512);
        let sum = aggregate(&mut sim, &vec![5u64; 512], Combine::Sum);
        assert_eq!(sum, 5 * 512);
    }
}
