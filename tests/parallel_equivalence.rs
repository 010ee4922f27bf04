//! The parallel runner's determinism contract: `run_trials` (fan-out
//! across scoped worker threads) produces **bit-identical** `Summary`
//! values to `run_trials_seq` — for real experiment workloads, at every
//! thread count we care about (1, 2, 4 and 7, including counts that
//! don't divide the trial count evenly).
//!
//! Trials are independently seeded via `trial_seeds` and reassembled in
//! seed order, so this must hold exactly, not approximately; any
//! `assert_eq!` failure here means the parallel path reordered samples
//! or shared RNG state across trials.

use optimal_gossip::prelude::*;

use gossip_harness::{run_trials_on, run_trials_seq, Summary};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

#[test]
fn every_algorithm_label_is_thread_count_invariant() {
    // Mirrors the E1 workload: per-algorithm labels under one master
    // seed, the metric is the report's round count, at the smallest and
    // the largest size of E1's default grid.
    let trials = 9; // deliberately not divisible by 2, 4, or 7
    for n in [1 << 8, 1 << 14] {
        for algo in registry::compared() {
            let seq = run_trials_seq(0xE1, algo.name(), trials, |seed| {
                algo.run(&Scenario::broadcast(n).seed(seed)).rounds as f64
            });
            for threads in THREAD_COUNTS {
                let par = run_trials_on(threads, 0xE1, algo.name(), trials, |seed| {
                    algo.run(&Scenario::broadcast(n).seed(seed)).rounds as f64
                });
                assert_eq!(
                    par,
                    seq,
                    "{} summary diverged at {threads} threads, n = {n}",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn float_sensitive_metrics_are_thread_count_invariant() {
    // Messages-per-node means exercise non-trivial floating point; a
    // reassembly-order bug would change the sum's rounding.
    let cluster2 = registry::by_name("Cluster2").unwrap();
    let seq = run_trials_seq(0xE2, "Cluster2", 11, |seed| {
        cluster2
            .run(&Scenario::broadcast(512).seed(seed))
            .messages_per_node()
    });
    assert!(seq.mean > 0.0);
    for threads in THREAD_COUNTS {
        let par = run_trials_on(threads, 0xE2, "Cluster2", 11, |seed| {
            cluster2
                .run(&Scenario::broadcast(512).seed(seed))
                .messages_per_node()
        });
        assert_eq!(par, seq, "diverged at {threads} threads");
    }
}

#[test]
fn loaded_scenarios_are_thread_count_invariant() {
    // The E13 shape: a multi-rumor workload multiplexed over churn and a
    // topology at once. The workload's completion count and piggyback
    // accounting must reassemble bit-identically at every thread count,
    // just like the single-rumor metrics.
    let churn = phonecall::ChurnConfig {
        crash_rate: 0.5,
        batch_size: 4,
        recovery_rate: 0.2,
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        start_round: 1,
        stop_round: Some(24),
        protected: vec![0],
        ..phonecall::ChurnConfig::default()
    };
    let scenario = Scenario::broadcast(256)
        .rumors(8, 1.0)
        .churn(churn)
        .topology(Topology::RandomRegular(8))
        .addressing(DirectAddressing::Overlay);
    for algo in [
        registry::by_name("ClusterPushPull").unwrap(),
        registry::by_name("PushPull").unwrap(),
    ] {
        let metric = |seed: u64| {
            let r = algo.run(&scenario.clone().seed(seed));
            r.rumors_completed() as f64 * 1e6 + r.rumor_payloads as f64 + r.throughput()
        };
        let seq = run_trials_seq(0xE13, algo.name(), 9, metric);
        assert!(seq.mean > 0.0, "{} carried no workload", algo.name());
        for threads in THREAD_COUNTS {
            let par = run_trials_on(threads, 0xE13, algo.name(), 9, metric);
            assert_eq!(
                par,
                seq,
                "{} loaded summary diverged at {threads} threads",
                algo.name()
            );
        }
    }
}

#[test]
fn async_scenarios_are_thread_count_invariant() {
    // The E14 shape: the asynchronous engine's clock/latency/delivery
    // streams are derived per trial seed, so the continuous virtual
    // clock and the event count must reassemble bit-identically at
    // every thread count — the whole event timeline is part of the
    // determinism contract, not just the aggregate costs.
    let scenario = Scenario::broadcast(256).engine(Engine::Async(AsyncConfig::default()));
    for algo in [
        registry::by_name("Cluster2").unwrap(),
        registry::by_name("PushPull").unwrap(),
    ] {
        let metric = |seed: u64| {
            let r = algo.run(&scenario.clone().seed(seed));
            r.virtual_time + r.events_processed as f64 * 1e6
        };
        let seq = run_trials_seq(0xE14, algo.name(), 9, metric);
        assert!(seq.mean > 0.0, "{} processed no events", algo.name());
        for threads in THREAD_COUNTS {
            let par = run_trials_on(threads, 0xE14, algo.name(), 9, metric);
            assert_eq!(
                par,
                seq,
                "{} async summary diverged at {threads} threads",
                algo.name()
            );
        }
    }
}

#[test]
fn gossip_threads_env_contract_is_documented_default() {
    // The runner must not *require* the env var: with nothing set it
    // falls back to available parallelism and still produces the
    // sequential summary.
    let seq = run_trials_seq(7, "env", 5, |seed| (seed % 97) as f64);
    let par = gossip_harness::run_trials(7, "env", 5, |seed| (seed % 97) as f64);
    assert_eq!(par, seq);
    assert!(gossip_harness::default_threads() >= 1);
}

#[test]
fn empty_and_single_trial_edges_match() {
    for trials in [0u32, 1] {
        let seq = run_trials_seq(3, "edge", trials, |seed| seed as f64);
        for threads in THREAD_COUNTS {
            assert_eq!(
                run_trials_on(threads, 3, "edge", trials, |seed| seed as f64),
                seq
            );
        }
    }
    assert_eq!(
        run_trials_seq(3, "edge", 0, |seed| seed as f64),
        Summary::default()
    );
}
