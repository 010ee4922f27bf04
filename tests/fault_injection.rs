//! Failure-injection integration tests: every algorithm against the
//! oblivious adversary of Section 8, plus structural checks that failures
//! can never corrupt a clustering.

use optimal_gossip::core::verify::check_clustering;
use optimal_gossip::prelude::*;

/// Builds a common config with `f` random failures, keeping the source
/// alive.
fn faulty_common(n: usize, f: usize, seed: u64) -> CommonConfig {
    let mut common = CommonConfig::default();
    common.seed = seed;
    common.failures = FailurePlan::random(n, f, phonecall::derive_seed(seed, 0xFA));
    if common
        .failures
        .failed()
        .iter()
        .any(|i| i.0 == common.source)
    {
        common.source = (0..n as u32)
            .find(|i| !common.failures.failed().iter().any(|x| x.0 == *i))
            .expect("not all nodes failed");
    }
    common
}

#[test]
fn every_algorithm_survives_failures() {
    let n = 1024;
    let f = 200;
    for seed in [1u64, 2] {
        let common = faulty_common(n, f, seed);
        let mut c1 = Cluster1Config::default();
        c1.common = common.clone();
        let mut c2 = Cluster2Config::default();
        c2.common = common.clone();
        let runs: Vec<(&str, RunReport)> = vec![
            ("cluster1", cluster1::run(n, &c1)),
            ("cluster2", cluster2::run(n, &c2)),
            ("avin_elsasser", avin_elsasser::run(n, &common)),
            ("karp", karp::run(n, &common)),
            ("push", push::run(n, &common)),
            ("pull", pull::run(n, &common)),
            ("push_pull", push_pull::run(n, &common)),
        ];
        for (name, r) in runs {
            assert_eq!(r.alive, n - f, "{name}");
            // o(F) guarantee, asserted loosely: at most 5% of F.
            assert!(
                r.uninformed() * 20 <= f,
                "{name} seed={seed}: {} uninformed of F={f}",
                r.uninformed()
            );
        }
    }
}

#[test]
fn no_survivor_ever_follows_a_dead_leader() {
    // Failures happen at time 0, before any clustering exists, so no
    // dead node can ever be recruited as a leader (leaders are sampled
    // among alive nodes and merge targets are alive leaders' IDs).
    let n = 2048;
    let common = faulty_common(n, 400, 3);
    let mut cfg = Cluster2Config::default();
    cfg.common = common;
    let mut sim = ClusterSim::new(n, &cfg.common);
    let _ = cluster2::run_on(&mut sim, &cfg);
    check_clustering(&sim).expect("no dangling/dead/non-leader pointers");
}

#[test]
fn delta_clustering_under_failures() {
    let n = 2048;
    let f = 300;
    let mut cfg = Cluster3Config::default();
    cfg.common = faulty_common(n, f, 4);
    let (sim, rep) = cluster3::build(n, 64, &cfg);
    assert!(rep.max_fan_in <= 64);
    check_clustering(&sim).expect("well-formed under failures");
    // All but o(F) survivors clustered.
    assert!(
        rep.clustering.unclustered * 20 <= f,
        "{} unclustered of F={f}",
        rep.clustering.unclustered
    );
}

#[test]
fn broadcast_over_clustering_under_failures() {
    let n = 2048;
    let mut cfg = PushPullConfig::default();
    cfg.common = faulty_common(n, 300, 5);
    let r = cluster_push_pull::run(n, 64, &cfg);
    assert!(r.max_fan_in <= 64);
    assert!(r.uninformed() * 20 <= 300, "{} uninformed", r.uninformed());
}

#[test]
fn extreme_failure_fraction_degrades_gracefully() {
    // Half the network dead: success on all survivors is no longer
    // guaranteed whp, but runs must terminate, stay well-formed, and
    // still inform the vast majority.
    let n = 1024;
    let common = faulty_common(n, n / 2, 6);
    let mut cfg = Cluster2Config::default();
    cfg.common = common;
    let r = cluster2::run(n, &cfg);
    assert_eq!(r.alive, n / 2);
    assert!(
        r.informed * 10 >= r.alive * 9,
        "at least 90% of survivors informed: {}/{}",
        r.informed,
        r.alive
    );
}

#[test]
fn randomized_baselines_self_heal_under_message_loss() {
    let mut common = CommonConfig::default();
    common.seed = 21;
    common.message_loss = 0.15;
    assert!(push::run(1024, &common).success, "push self-heals");
    assert!(
        push_pull::run(1024, &common).success,
        "push-pull self-heals"
    );
    assert!(karp::run(1024, &common).success, "karp self-heals");
}

#[test]
fn cluster2_absorbs_light_message_loss() {
    let mut cfg = Cluster2Config::default();
    cfg.common.seed = 22;
    cfg.common.message_loss = 0.01;
    let r = cluster2::run(1024, &cfg);
    assert!(
        r.informed as f64 >= 0.95 * r.alive as f64,
        "1% loss keeps coverage high: {}/{}",
        r.informed,
        r.alive
    );
}

#[test]
fn failures_do_not_change_round_budgets() {
    // The algorithms run fixed, locally computable schedules, so failures
    // must not change the round count (only message counts).
    let n = 1024;
    let mut healthy = Cluster2Config::default();
    healthy.common.seed = 7;
    let r_healthy = cluster2::run(n, &healthy);
    let mut faulty = Cluster2Config::default();
    faulty.common = faulty_common(n, 200, 7);
    let r_faulty = cluster2::run(n, &faulty);
    assert_eq!(r_healthy.rounds, r_faulty.rounds);
}
