//! Integration tests for the asynchronous event-driven engine mode:
//! every registered algorithm completes broadcast under `Engine::Async`
//! with **no algorithm-code changes**, same-seed runs replay the same
//! event trace bit-exactly, and the default `Engine::Sync` is inert —
//! scenarios that never mention an engine run bit-identical to builds
//! that predate the async subsystem.

use optimal_gossip::prelude::*;

fn async_scenario(n: usize, seed: u64) -> Scenario {
    Scenario::broadcast(n)
        .seed(seed)
        .engine(Engine::Async(AsyncConfig::default()))
}

/// The tentpole acceptance bar: all eleven registry algorithms run
/// unmodified through the `Algorithm` trait on the asynchronous engine
/// and complete their task — including the oracle `Tree`, whose
/// exact-round schedule only works because each schedule step drains
/// its whole event cascade before the next begins.
#[test]
fn every_algorithm_completes_under_async() {
    let scenario = async_scenario(256, 3);
    for algo in registry::all() {
        let r = algo.run(&scenario);
        assert!(
            r.success,
            "{} failed under the async engine: {}/{} informed",
            algo.name(),
            r.informed,
            r.alive
        );
        assert!(
            r.events_processed > 0 && r.virtual_time > 0.0,
            "{} reported no event activity — did the async engine run?",
            algo.name()
        );
    }
}

/// Under every latency profile, not just the default.
#[test]
fn every_latency_profile_completes() {
    for profile in ["fixed", "uniform", "exp"] {
        let cfg = Engine::profile(profile).expect("named profile");
        let scenario = Scenario::broadcast(128).seed(5).engine(Engine::Async(cfg));
        for algo in registry::all() {
            let r = algo.run(&scenario);
            assert!(r.success, "{} failed under async:{profile}", algo.name());
        }
    }
}

/// Same seed ⇒ same event trace: the full report (including the event
/// count and the continuous clock) replays bit-exactly.
#[test]
fn async_reports_are_bit_identical() {
    for algo in registry::all() {
        let a = algo.run(&async_scenario(256, 11));
        let b = algo.run(&async_scenario(256, 11));
        assert_eq!(a, b, "{} async run diverged across replays", algo.name());
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.virtual_time.to_bits(), b.virtual_time.to_bits());
    }
}

/// Different seeds genuinely reorder the timeline (the determinism
/// assertion above is not vacuous).
#[test]
fn async_reports_differ_across_seeds() {
    let cluster2 = registry::by_name("cluster2").unwrap();
    let a = cluster2.run(&async_scenario(256, 11));
    let b = cluster2.run(&async_scenario(256, 12));
    assert_ne!(
        (a.messages, a.virtual_time.to_bits()),
        (b.messages, b.virtual_time.to_bits()),
        "different seeds should not replay the same timeline"
    );
}

/// Sync-inertness: a scenario that spells out `Engine::Sync` runs
/// bit-identical to one that never mentions an engine at all — the
/// async machinery draws nothing unless installed. (The pinned golden
/// tables in `golden_reports.rs` extend this check back to the digests
/// generated before the async subsystem existed.)
#[test]
fn explicit_sync_engine_is_inert() {
    for algo in registry::all() {
        let default_run = algo.run(&Scenario::broadcast(256).seed(1));
        let explicit_run = algo.run(&Scenario::broadcast(256).seed(1).engine(Engine::Sync));
        assert_eq!(
            default_run,
            explicit_run,
            "{} changed behavior under explicit Engine::Sync",
            algo.name()
        );
        assert_eq!(default_run.events_processed, 0, "sync processes no events");
        assert!(
            default_run.virtual_time == 0.0,
            "sync has no continuous clock"
        );
    }
}

/// The async engine composes with the rest of the environment: loss,
/// churn, a restricted topology and the multi-rumor workload all ride
/// the event queue deterministically.
#[test]
fn async_composes_with_adversary_and_workload() {
    let churn = ChurnConfig {
        crash_rate: 0.5,
        batch_size: 4,
        recovery_rate: 0.2,
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        start_round: 1,
        stop_round: Some(24),
        protected: vec![0],
        ..ChurnConfig::default()
    };
    let scenario = Scenario::broadcast(256)
        .seed(7)
        .engine(Engine::Async(AsyncConfig::default()))
        .message_loss(0.05)
        .churn(churn)
        .topology(Topology::RandomRegular(8))
        .addressing(DirectAddressing::Restricted)
        .rumors(8, 1.0);
    for algo in registry::all() {
        let a = algo.run(&scenario);
        let b = algo.run(&scenario);
        assert_eq!(a, b, "{} diverged under the full environment", algo.name());
        assert!(a.events_processed > 0);
    }
}

/// The engine survives the scenario's JSON parameter round trip like
/// every other knob: `params -> render -> parse -> apply` reproduces
/// the run bit-exactly.
#[test]
fn engine_round_trips_through_json_params() {
    for engine in [
        Engine::Sync,
        Engine::Async(AsyncConfig::default()),
        Engine::Async(Engine::profile("uniform").unwrap()),
        Engine::Async(Engine::profile("exp").unwrap()),
    ] {
        let doc = Value::parse(&engine.params().render()).unwrap();
        let mut back = Engine::Sync;
        back.apply_params(&doc).unwrap();
        assert_eq!(back, engine, "engine lost in the JSON round trip");
    }
}
