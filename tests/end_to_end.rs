//! End-to-end integration: every broadcast algorithm, across sizes and
//! seeds, on the shared simulator.

use optimal_gossip::prelude::*;

/// Runs every algorithm at one size/seed and returns (name, report).
fn run_all(n: usize, seed: u64) -> Vec<(&'static str, RunReport)> {
    let mut common = CommonConfig::default();
    common.seed = seed;
    let mut c1 = Cluster1Config::default();
    c1.common = common.clone();
    let mut c2 = Cluster2Config::default();
    c2.common = common.clone();
    vec![
        ("cluster1", cluster1::run(n, &c1)),
        ("cluster2", cluster2::run(n, &c2)),
        ("avin_elsasser", avin_elsasser::run(n, &common)),
        ("karp", karp::run(n, &common)),
        ("push", push::run(n, &common)),
        ("pull", pull::run(n, &common)),
        ("push_pull", push_pull::run(n, &common)),
    ]
}

#[test]
fn all_algorithms_inform_everyone_across_sizes_and_seeds() {
    for n in [256usize, 1024, 4096] {
        for seed in [1u64, 2, 3] {
            for (name, r) in run_all(n, seed) {
                assert!(
                    r.success,
                    "{name} failed at n={n} seed={seed}: {}/{} informed",
                    r.informed, r.alive
                );
                assert_eq!(r.n, n);
                assert_eq!(r.alive, n);
            }
        }
    }
}

#[test]
fn reports_are_internally_consistent() {
    for (name, r) in run_all(1024, 9) {
        assert!(r.informed <= r.alive, "{name}");
        assert!(r.payload_messages <= r.messages, "{name}");
        assert!(r.bits >= r.messages, "{name}: every message has a header");
        assert!(r.rounds > 0, "{name}");
        let phase_rounds: u64 = r.phases.iter().map(|p| p.rounds).sum();
        if !r.phases.is_empty() {
            assert_eq!(phase_rounds, r.rounds, "{name}: phases partition the run");
            let phase_msgs: u64 = r.phases.iter().map(|p| p.messages).sum();
            assert_eq!(phase_msgs, r.messages, "{name}: phase messages sum");
        }
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run_all(512, 77);
    let b = run_all(512, 77);
    for ((name, ra), (_, rb)) in a.iter().zip(&b) {
        assert_eq!(ra, rb, "{name} must be deterministic");
    }
    let c = run_all(512, 78);
    let any_diff = a.iter().zip(&c).any(|((_, ra), (_, rc))| ra != rc);
    assert!(any_diff, "different seeds should give different runs");
}

#[test]
fn cluster_push_pull_end_to_end() {
    for delta in [16usize, 64, 256] {
        let mut cfg = PushPullConfig::default();
        cfg.common.seed = 5;
        let r = cluster_push_pull::run(2048, delta, &cfg);
        assert!(r.success, "delta={delta}: {}/{}", r.informed, r.alive);
        assert!(
            r.max_fan_in <= delta as u64,
            "delta={delta}: fan-in {}",
            r.max_fan_in
        );
    }
}

#[test]
fn delta_clustering_is_well_formed_across_grid() {
    use optimal_gossip::core::verify::check_delta_clustering;
    for n in [512usize, 2048] {
        for delta in [16usize, 64] {
            let mut cfg = Cluster3Config::default();
            cfg.common.seed = 11;
            let (sim, rep) = cluster3::build(n, delta, &cfg);
            assert!(rep.success, "n={n} delta={delta}");
            assert!(rep.max_fan_in <= delta as u64, "n={n} delta={delta}");
            check_delta_clustering(&sim, 1, delta)
                .unwrap_or_else(|e| panic!("n={n} delta={delta}: {e}"));
        }
    }
}

#[test]
fn name_dropper_discovers_complete_graph() {
    let common = CommonConfig::default();
    for topo in [
        name_dropper::Topology::Ring,
        name_dropper::Topology::SparseRandom,
    ] {
        let r = name_dropper::run(192, topo, &common);
        assert!(
            r.complete,
            "{topo:?} did not complete in {} rounds",
            r.rounds
        );
    }
}
