//! Integration contract of the dynamic adversary (`phonecall::churn`)
//! across the whole stack: scenario-level determinism, thread-count
//! invariance of the parallel runner under an active schedule, builder
//! validation, and schedule-sharing across algorithms.
//!
//! The `churn` suite of `tests/golden_reports.rs` pins exact fields
//! under a canonical scenario (`tests/pins/churn.tsv`); this suite pins
//! the *properties* those fields rely on.

use optimal_gossip::prelude::*;

use gossip_harness::{run_trials_on, run_trials_seq};

/// An aggressive schedule exercising every axis at once: correlated
/// crash batches, recoveries, and burst loss.
fn stormy() -> ChurnConfig {
    ChurnConfig {
        crash_rate: 0.6,
        batch_size: 8,
        recovery_rate: 0.2,
        burst_enter: 0.2,
        burst_exit: 0.4,
        burst_loss: 0.5,
        start_round: 1,
        stop_round: Some(40),
        protected: vec![0],
        ..ChurnConfig::default()
    }
}

#[test]
fn churned_runs_are_bit_identical_per_seed() {
    let scenario = Scenario::broadcast(512).seed(11).churn(stormy());
    for algo in registry::all() {
        let a = algo.run(&scenario);
        let b = algo.run(&scenario);
        assert_eq!(a, b, "{} diverged under churn", algo.name());
    }
}

#[test]
fn churn_actually_perturbs_runs() {
    // Guard against a silently detached adversary: an active schedule
    // must change traffic relative to the quiet scenario.
    let quiet = Scenario::broadcast(512).seed(11);
    let churned = Scenario::broadcast(512).seed(11).churn(stormy());
    let algo = registry::by_name("cluster2").unwrap();
    assert_ne!(
        algo.run(&quiet).messages,
        algo.run(&churned).messages,
        "an active schedule must alter the run"
    );
}

#[test]
fn inert_churn_leaves_runs_bit_identical() {
    // The default (inert) config schedules nothing: attaching it must
    // not perturb a single digest — this is what keeps every pre-churn
    // golden row valid.
    let quiet = Scenario::broadcast(256).seed(7);
    let attached = Scenario::broadcast(256)
        .seed(7)
        .churn(ChurnConfig::default());
    for algo in registry::all() {
        assert_eq!(
            algo.run(&quiet),
            algo.run(&attached),
            "{} perturbed by an inert schedule",
            algo.name()
        );
    }
}

#[test]
fn parallel_runner_is_thread_count_invariant_under_churn() {
    // Mirrors tests/parallel_equivalence.rs with an active adversary:
    // per-trial schedules derive from the trial seed, so the fan-out
    // must stay bit-identical at every thread count.
    let scenario = Scenario::broadcast(256).churn(stormy());
    let trials = 9; // deliberately not divisible by 2, 4, or 7
    for name in ["Cluster2", "ClusterPushPull", "Karp", "Push"] {
        let algo = registry::by_name(name).unwrap();
        let seq = run_trials_seq(0xE10, name, trials, |seed| {
            algo.run(&scenario.clone().seed(seed)).informed as f64
        });
        for threads in [1usize, 2, 4, 7] {
            let par = run_trials_on(threads, 0xE10, name, trials, |seed| {
                algo.run(&scenario.clone().seed(seed)).informed as f64
            });
            assert_eq!(par, seq, "{name} diverged at {threads} threads");
        }
    }
}

#[test]
fn adversary_is_oblivious_to_the_algorithm() {
    // The schedule draws from its own seed-derived stream, never from
    // the engine RNG or node state — so two networks with the same
    // (seed, churn) running *different* algorithms face bit-identical
    // crash/recovery/burst histories over the same number of rounds.
    use phonecall::{Action, Target};

    let history = |pushy: bool| {
        let mut net: Network<u32> = Network::new(256, 21);
        net.set_churn(stormy(), phonecall::derive_seed(21, 4));
        for _ in 0..30 {
            net.round(
                move |_ctx, _rng| {
                    if pushy {
                        Action::Push {
                            to: Target::Random,
                            msg: 1u64,
                        }
                    } else {
                        Action::<u64>::Idle
                    }
                },
                |_s| None,
                |s, _d| *s += 1,
            );
        }
        let m = net.metrics();
        (m.crashes, m.recoveries, m.burst_rounds)
    };
    let busy = history(true);
    assert_eq!(busy, history(false), "traffic must not steer the adversary");
    assert!(busy.0 > 0, "the schedule really fired");
}

#[test]
fn recovered_nodes_finish_informed_under_drained_churn() {
    // A bounded outage with recovery that drains before the schedules
    // end: every survivor — including every recovered node — must be
    // swept back in by the observer-stopped baselines.
    let churn = ChurnConfig {
        crash_rate: 1.0,
        batch_size: 16,
        recovery_rate: 0.4,
        start_round: 1,
        stop_round: Some(6),
        protected: vec![0],
        ..ChurnConfig::default()
    };
    let scenario = Scenario::broadcast(512).seed(5).churn(churn);
    for name in ["Push", "Pull", "PushPull"] {
        let algo = registry::by_name(name).unwrap();
        let r = algo.run(&scenario);
        // The observer keeps the loop alive until every survivor —
        // recovered nodes included — is informed; nodes still crashed
        // when it exits stay out of the denominator (at most the 5
        // batches of 16 the window fired).
        assert!(r.alive >= 512 - 80, "{name}: alive {}", r.alive);
        assert!(r.informed > 432, "{name}: spread happened ({})", r.informed);
        assert!(
            r.success,
            "{name}: recovered nodes must be re-informed, got {}/{}",
            r.informed, r.alive
        );
    }
}

#[test]
#[should_panic(expected = "\"burst_loss\" wants a probability")]
fn scenario_churn_builder_validates_at_the_builder() {
    let _ = Scenario::broadcast(16).churn(ChurnConfig {
        burst_enter: 0.5,
        burst_loss: 17.0,
        ..ChurnConfig::default()
    });
}

#[test]
#[should_panic(expected = "\"message_loss\" wants a probability")]
fn scenario_loss_builder_validates_at_the_builder() {
    let _ = Scenario::broadcast(16).message_loss(-0.25);
}
