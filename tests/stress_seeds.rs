//! Multi-seed robustness: the paper's guarantees are whp statements, so
//! the implementations must succeed across many independent seeds, not
//! just the ones unit tests happen to use.

use optimal_gossip::prelude::*;

const SEEDS: u64 = 12;

#[test]
fn cluster1_succeeds_across_seeds() {
    for seed in 0..SEEDS {
        let mut cfg = Cluster1Config::default();
        cfg.common.seed = phonecall::derive_seed(0x51, seed);
        let r = cluster1::run(1024, &cfg);
        assert!(r.success, "seed {seed}: {}/{}", r.informed, r.alive);
    }
}

#[test]
fn cluster2_succeeds_across_seeds() {
    for seed in 0..SEEDS {
        let mut cfg = Cluster2Config::default();
        cfg.common.seed = phonecall::derive_seed(0x52, seed);
        let r = cluster2::run(1024, &cfg);
        assert!(r.success, "seed {seed}: {}/{}", r.informed, r.alive);
    }
}

#[test]
fn cluster2_succeeds_across_seeds_odd_sizes() {
    // Non-power-of-two and awkward sizes.
    for (i, n) in [337usize, 999, 1500, 3001].into_iter().enumerate() {
        let mut cfg = Cluster2Config::default();
        cfg.common.seed = phonecall::derive_seed(0x53, i as u64);
        let r = cluster2::run(n, &cfg);
        assert!(r.success, "n={n}: {}/{}", r.informed, r.alive);
    }
}

#[test]
fn cluster_push_pull_succeeds_across_seeds() {
    for seed in 0..SEEDS / 2 {
        let mut cfg = PushPullConfig::default();
        cfg.common.seed = phonecall::derive_seed(0x54, seed);
        let r = cluster_push_pull::run(1024, 32, &cfg);
        assert!(r.success, "seed {seed}: {}/{}", r.informed, r.alive);
        assert!(r.max_fan_in <= 32, "seed {seed}: fan-in {}", r.max_fan_in);
    }
}

#[test]
fn delta_clustering_bounds_hold_across_seeds() {
    for seed in 0..SEEDS / 2 {
        let mut cfg = Cluster3Config::default();
        cfg.common.seed = phonecall::derive_seed(0x55, seed);
        let (_sim, rep) = cluster3::build(1024, 64, &cfg);
        assert!(rep.success, "seed {seed}");
        assert!(
            rep.max_fan_in <= 64,
            "seed {seed}: fan-in {}",
            rep.max_fan_in
        );
    }
}

#[test]
fn baselines_succeed_across_seeds() {
    for seed in 0..SEEDS / 2 {
        let mut common = CommonConfig::default();
        common.seed = phonecall::derive_seed(0x56, seed);
        assert!(push::run(1024, &common).success, "push seed {seed}");
        assert!(pull::run(1024, &common).success, "pull seed {seed}");
        assert!(
            push_pull::run(1024, &common).success,
            "push_pull seed {seed}"
        );
        assert!(karp::run(1024, &common).success, "karp seed {seed}");
        assert!(avin_elsasser::run(1024, &common).success, "ae seed {seed}");
    }
}

#[test]
fn varying_sources_do_not_matter() {
    // Symmetry: the source's identity is irrelevant.
    for source in [0u32, 1, 500, 1023] {
        let mut cfg = Cluster2Config::default();
        cfg.common.seed = 0x57;
        cfg.common.source = source;
        let r = cluster2::run(1024, &cfg);
        assert!(r.success, "source {source}");
    }
}

#[test]
fn tiny_networks_work() {
    // The asymptotic machinery must degrade gracefully at toy sizes.
    for n in [2usize, 3, 4, 8, 16, 32] {
        let mut cfg = Cluster2Config::default();
        cfg.common.seed = 0x58;
        let r = cluster2::run(n, &cfg);
        assert!(r.success, "n={n}: {}/{}", r.informed, r.alive);
        let mut c1 = Cluster1Config::default();
        c1.common.seed = 0x58;
        let r = cluster1::run(n, &c1);
        assert!(r.success, "cluster1 n={n}: {}/{}", r.informed, r.alive);
    }
}
