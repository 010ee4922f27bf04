//! Cluster2 taken apart from outside: `ClusterSim::new`, then the seven
//! public phase functions in `cluster2::run_on`'s order, then
//! `ClusterSim::report`, each timed on its own.
//!
//! This replicates `Cluster2Algo::run_with_params` + `cluster2::run_on`
//! line for line; the traced run checks its digest against the untraced
//! warm-up's, and `tests` below pin it to `cluster2::run` directly. If
//! `run_on` gains, loses or reorders a phase, both fail.

use std::time::Instant;

use gossip_core::algo::Scenario;
use gossip_core::cluster2;
use gossip_core::primitives::{consolidate, share_rumor};
use gossip_core::{Cluster2Config, ClusterSim, RunReport};

/// A sub-span of a trial: layer name, start and end in ns since `origin`.
pub type Part = (&'static str, u64, u64);

type Phase = (
    &'static str,
    &'static str,
    fn(&mut ClusterSim, &Cluster2Config),
);

/// Span name, `PhaseReport` name and function of each phase, in order.
const PHASES: [Phase; 7] = [
    (
        "core.cluster2.phase.grow_initial",
        "GrowInitialClusters",
        cluster2::grow_initial_clusters,
    ),
    (
        "core.cluster2.phase.square",
        "SquareClusters",
        cluster2::square_clusters,
    ),
    (
        "core.cluster2.phase.merge_all",
        "MergeAllClusters",
        cluster2::merge_all_clusters,
    ),
    (
        "core.cluster2.phase.bounded_push",
        "BoundedClusterPush",
        cluster2::bounded_cluster_push,
    ),
    (
        "core.cluster2.phase.unclustered_pull",
        "UnclusteredNodesPull",
        cluster2::unclustered_nodes_pull,
    ),
    (
        "core.cluster2.phase.consolidate",
        "Consolidate",
        |sim, _| consolidate(sim),
    ),
    ("core.cluster2.phase.share", "ClusterShare", |sim, _| {
        share_rumor(sim)
    }),
];

/// Runs Cluster2 on `scenario` phase by phase, appending one [`Part`] per
/// outside call to `parts`.
pub fn run(scenario: &Scenario, origin: Instant, parts: &mut Vec<Part>) -> RunReport {
    let now = || origin.elapsed().as_nanos() as u64;
    let cfg = Cluster2Config {
        common: scenario.common().clone(),
        ..Cluster2Config::default()
    };

    let start = now();
    let mut sim = ClusterSim::new(scenario.n(), &cfg.common);
    parts.push(("core.sim.new", start, now()));

    for (span, phase, f) in PHASES {
        let start = now();
        sim.begin_phase();
        f(&mut sim, &cfg);
        sim.end_phase(phase);
        parts.push((span, start, now()));
    }

    let start = now();
    let report = sim.report();
    parts.push(("core.sim.report", start, now()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::algo::{Algorithm, CLUSTER2};

    #[test]
    fn replica_equals_cluster2_run() {
        for seed in [1, 2] {
            let scenario = Scenario::broadcast(1 << 10).seed(seed);
            let mut parts = Vec::new();
            let got = run(&scenario, Instant::now(), &mut parts);
            assert_eq!(got, CLUSTER2.run(&scenario), "seed {seed}");
            assert_eq!(parts.len(), 9);
            assert!(parts.windows(2).all(|w| w[0].2 <= w[1].1), "parts overlap");
        }
        // And under a composed scenario, where `ClusterSim::new` installs
        // loss, the adversary and the multi-rumor workload.
        let scenario = crate::workloads::choked_storm(1 << 10).seed(3);
        assert_eq!(
            run(&scenario, Instant::now(), &mut Vec::new()),
            CLUSTER2.run(&scenario)
        );
    }
}
