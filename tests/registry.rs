//! Integration tests for the algorithm registry: the names are stable
//! API, every algorithm module is registered, every parameter document
//! survives a JSON round trip, and lookups fail helpfully.

use optimal_gossip::prelude::*;
use std::collections::BTreeSet;

/// The registry's names are unique and pinned — experiment CSVs, BENCH
/// records and the golden table all key on them.
#[test]
fn names_are_unique_and_stable() {
    let names: Vec<&str> = registry::all().iter().map(|a| a.name()).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate names: {names:?}");
    assert_eq!(
        names,
        [
            "Cluster2",
            "Cluster1",
            "AvinElsasser",
            "Karp",
            "PushPull",
            "Push",
            "Pull",
            "Cluster3",
            "ClusterPushPull",
            "Tree",
            "NameDropper",
        ],
        "registry names/order are stable API"
    );
}

/// Every algorithm module exported from `gossip_core`'s and
/// `gossip_baselines`'s `lib.rs` module lists has a registry entry, under
/// a name that normalizes to the module name.
#[test]
fn every_algorithm_module_is_registered() {
    // The algorithm modules of the two crates' `lib.rs` files (the
    // non-algorithm modules — config, report, primitives, common, … —
    // have no `run` entry point to register).
    let modules = [
        // gossip_core
        "cluster1",
        "cluster2",
        "cluster3",
        "cluster_push_pull",
        // gossip_baselines
        "avin_elsasser",
        "karp",
        "name_dropper",
        "pull",
        "push",
        "push_pull",
        "tree",
    ];
    assert_eq!(
        modules.len(),
        registry::all().len(),
        "module list and registry disagree on the algorithm count"
    );
    for module in modules {
        let algo = registry::by_name(module)
            .unwrap_or_else(|e| panic!("module {module} has no registry entry: {e}"));
        // by_name is separator-insensitive, so the module name itself is
        // a valid CLI spelling of the algorithm.
        assert!(!algo.about().is_empty(), "{module} has no description");
    }
}

/// Every algorithm's parameter document survives `render -> parse`, and
/// feeding the defaults back as overrides changes nothing about the run.
#[test]
fn every_config_round_trips_through_json() {
    let scenario = Scenario::broadcast(128).seed(3);
    for algo in registry::all() {
        let params = algo.default_params();
        let doc = params.render();
        let reparsed = Value::parse(&doc).unwrap_or_else(|e| {
            panic!(
                "{}: default params do not re-parse: {e}\n{doc}",
                algo.name()
            )
        });
        assert_eq!(
            reparsed,
            params,
            "{}: JSON round trip lost data",
            algo.name()
        );
        assert_eq!(
            algo.run_with_params(&scenario, &reparsed).unwrap(),
            algo.run(&scenario),
            "{}: defaults-as-overrides changed the run",
            algo.name()
        );
    }
}

/// Unknown names error out listing every valid name; unknown parameter
/// keys error out naming the valid keys.
#[test]
fn unknown_lookups_are_helpful() {
    let err = registry::by_name("raft").unwrap_err();
    let msg = err.to_string();
    for algo in registry::all() {
        assert!(msg.contains(algo.name()), "{msg:?} missing {}", algo.name());
    }

    let scenario = Scenario::broadcast(64).seed(1);
    for algo in registry::all() {
        let err = algo
            .run_with_params(&scenario, &Value::parse(r#"{"warp_factor": 9}"#).unwrap())
            .expect_err("unknown key must be rejected");
        assert!(
            err.to_string().contains("warp_factor"),
            "{}: error does not name the bad key: {err}",
            algo.name()
        );
        // A non-object override document (e.g. double-encoded JSON) must
        // error, not silently run with defaults.
        let err = algo
            .run_with_params(&scenario, &Value::Str(r#"{"delta": 4}"#.into()))
            .expect_err("non-object overrides must be rejected");
        assert!(
            err.to_string().contains("JSON object"),
            "{}: {err}",
            algo.name()
        );
    }
}

/// The harness entry point fans an algorithm's trials out over the
/// parallel runner with the same seed derivation the binaries use.
#[test]
fn run_algorithm_trials_is_deterministic_and_seed_ordered() {
    let algo = registry::by_name("push").unwrap();
    let scenario = Scenario::broadcast(256).seed(0xE1);
    let a = run_algorithm_trials(algo, &scenario, 5);
    let b = run_algorithm_trials(algo, &scenario, 5);
    assert_eq!(a, b, "same scenario, same reports");
    assert_eq!(a.len(), 5);
    assert!(a.iter().all(|r| r.success));
    // Trials are genuinely independently seeded, not clones.
    assert!(
        a.iter().any(|r| r.messages != a[0].messages),
        "all trials identical — seeds not varied?"
    );
}

/// The acceptance loop of the registry: every algorithm runs the default
/// broadcast scenario through the trait with a successful report.
#[test]
fn registry_runs_default_broadcast_scenario() {
    let scenario = Scenario::broadcast(512).seed(9);
    for algo in registry::all() {
        let r = algo.run(&scenario);
        assert!(
            r.success,
            "{} failed: {}/{}",
            algo.name(),
            r.informed,
            r.alive
        );
        assert_eq!(r.n, 512);
    }
}

/// Every registry algorithm's tunables document, byte for byte as the
/// parameter codec rendered it before the knob tables: a drift here is a
/// changed public surface, not a refactor.
#[test]
fn default_params_documents_are_pinned() {
    let pinned = [
        (
            "Cluster2",
            r#"{"c_sample":8,"c_cap":8,"grow_slack":4,"square_safety":4,"bounded_push_stall":1.1,"bounded_push_slack":4,"pull_slack":4,"assumed_n":null}"#,
        ),
        (
            "Cluster1",
            r#"{"c_sample":8,"c_min":1,"grow_slack":3,"square_safety":4,"pull_slack":4}"#,
        ),
        ("AvinElsasser", r#"{}"#),
        ("Karp", r#"{}"#),
        ("PushPull", r#"{}"#),
        ("Push", r#"{}"#),
        ("Pull", r#"{}"#),
        (
            "Cluster3",
            r#"{"delta":null,"c_headroom":5,"merge_boost":10,"c2":{"c_sample":8,"c_cap":8,"grow_slack":4,"square_safety":4,"bounded_push_stall":1.1,"bounded_push_slack":4,"pull_slack":4,"assumed_n":null}}"#,
        ),
        (
            "ClusterPushPull",
            r#"{"delta":null,"loop_slack":3,"cluster3":{"c_headroom":5,"merge_boost":10,"c2":{"c_sample":8,"c_cap":8,"grow_slack":4,"square_safety":4,"bounded_push_stall":1.1,"bounded_push_slack":4,"pull_slack":4,"assumed_n":null}}}"#,
        ),
        ("Tree", r#"{"delta":null}"#),
        ("NameDropper", r#"{"topology":"ring"}"#),
    ];
    let names: Vec<&str> = registry::all().iter().map(|a| a.name()).collect();
    assert_eq!(names, pinned.map(|(name, _)| name), "one pin per algorithm");
    for (name, doc) in pinned {
        let algo = registry::by_name(name).unwrap();
        assert_eq!(algo.default_params().render(), doc, "{name}");
    }
}

/// The scenario document, pinned the same way: the defaults, and one
/// config whose churn, traffic, topology, addressing and async engine
/// are all non-default (with a seed above 2^53, which travels as a
/// decimal string).
#[test]
fn scenario_params_documents_are_pinned() {
    assert_eq!(
        CommonConfig::default().params().render(),
        r#"{"seed":12648430,"rumor_bits":256,"source":0,"extra_sources":[],"failures":[],"message_loss":0,"churn":{"crash_rate":0,"batch_size":1,"recovery_rate":0,"burst_enter":0,"burst_exit":0,"burst_loss":0,"start_round":0,"stop_round":null,"protected":[],"max_crashed_frac":0.5},"topology":{"kind":"complete"},"addressing":"overlay","traffic":{"rumors":0,"arrival_rate":1,"bandwidth":0,"start_round":0},"engine":{"mode":"sync"}}"#
    );
    let mut c = CommonConfig::default();
    c.seed = u64::MAX - 12345;
    c.rumor_bits = 512;
    c.source = 1;
    c.extra_sources = vec![3, 5];
    c.failures = FailurePlan::explicit(vec![NodeIdx(8), NodeIdx(2)]);
    c.message_loss = 0.125;
    c.churn = ChurnConfig {
        crash_rate: 0.25,
        batch_size: 4,
        recovery_rate: 0.1,
        burst_enter: 0.05,
        burst_exit: 0.3,
        burst_loss: 0.6,
        start_round: 2,
        stop_round: Some(40),
        protected: vec![0],
        max_crashed_frac: 0.4,
    };
    c.topology = Topology::WattsStrogatz(4, 0.5);
    c.addressing = DirectAddressing::Restricted;
    c.traffic = TrafficConfig {
        rumors: 32,
        arrival_rate: 2.5,
        bandwidth: 3,
        start_round: 4,
    };
    c.engine = Engine::Async(AsyncConfig {
        rate: 2.0,
        latency: Latency::Uniform(0.2, 0.9),
    });
    let doc = c.params().render();
    assert_eq!(
        doc,
        r#"{"seed":"18446744073709539270","rumor_bits":512,"source":1,"extra_sources":[3,5],"failures":[2,8],"message_loss":0.125,"churn":{"crash_rate":0.25,"batch_size":4,"recovery_rate":0.1,"burst_enter":0.05,"burst_exit":0.3,"burst_loss":0.6,"start_round":2,"stop_round":40,"protected":[0],"max_crashed_frac":0.4},"topology":{"kind":"watts_strogatz","k":4,"beta":0.5},"addressing":"restricted","traffic":{"rumors":32,"arrival_rate":2.5,"bandwidth":3,"start_round":4},"engine":{"mode":"async","rate":2,"latency":{"kind":"uniform","lo":0.2,"hi":0.9}}}"#
    );
    let mut rebuilt = CommonConfig::default();
    rebuilt.apply_params(&Value::parse(&doc).unwrap()).unwrap();
    assert_eq!(rebuilt, c, "apply(params()) is the identity");
}

/// Out-of-range algorithm constants used to run and return `Ok`, quietly
/// mis-running (Cluster1 with `c_sample` 0 informed 963 of 1024 nodes;
/// a `grow_slack` of `u32::MAX` wrapped the round budget). Each is now a
/// `ParamError` naming its knob, before anything runs.
#[test]
fn out_of_range_constants_are_rejected_naming_the_knob() {
    let scenario = Scenario::broadcast(1 << 10).seed(1);
    for (algo, overrides, knob) in [
        ("Cluster1", r#"{"c_sample": 0}"#, "\"c_sample\""),
        ("Cluster1", r#"{"square_safety": -1}"#, "\"square_safety\""),
        (
            "Cluster1",
            r#"{"grow_slack": 4294967295}"#,
            "\"grow_slack\"",
        ),
        (
            "Cluster2",
            r#"{"grow_slack": 4294967295}"#,
            "\"grow_slack\"",
        ),
        (
            "Cluster2",
            r#"{"bounded_push_stall": 0}"#,
            "\"bounded_push_stall\"",
        ),
        ("Cluster3", r#"{"c_headroom": 0}"#, "\"c_headroom\""),
        ("Cluster3", r#"{"c2": {"c_cap": 0}}"#, "\"c_cap\""),
        (
            "ClusterPushPull",
            r#"{"cluster3": {"c_headroom": 0}}"#,
            "\"c_headroom\"",
        ),
        (
            "ClusterPushPull",
            r#"{"loop_slack": 4294967295}"#,
            "\"loop_slack\"",
        ),
    ] {
        let err = registry::by_name(algo)
            .unwrap()
            .run_with_params(&scenario, &Value::parse(overrides).unwrap())
            .expect_err(overrides);
        assert!(err.0.contains(knob), "{algo} {overrides}: {err}");
    }
    // Every value the repo runs with stays accepted.
    for (algo, overrides) in [
        ("Cluster2", r#"{"c_sample": 4, "assumed_n": 4096}"#),
        ("Cluster2", r#"{"pull_slack": 9}"#),
        ("Cluster2", r#"{"pull_slack": 12}"#),
        ("Cluster3", r#"{"c2": {"pull_slack": 9}}"#),
    ] {
        let algo = registry::by_name(algo).unwrap();
        assert!(algo
            .run_with_params(&scenario, &Value::parse(overrides).unwrap())
            .is_ok());
    }
}

/// A `delta` below an algorithm's minimum used to panic inside
/// `run_with_params`; it is a `ParamError` naming `"delta"` and the
/// minimum (8 for the clusterings, 2 for the oracle tree).
#[test]
fn small_delta_is_a_param_error_naming_the_minimum() {
    let scenario = Scenario::broadcast(1 << 10).seed(1);
    let delta = |d: u32| Value::parse(&format!(r#"{{"delta": {d}}}"#)).unwrap();
    for (algo, min, rejected) in [
        ("Cluster3", 8, &[0, 1, 7][..]),
        ("ClusterPushPull", 8, &[0, 1, 7]),
        ("Tree", 2, &[0, 1]),
    ] {
        let algo = registry::by_name(algo).unwrap();
        for &d in rejected {
            let err = algo
                .run_with_params(&scenario, &delta(d))
                .expect_err("too small");
            assert!(err.0.contains("\"delta\""), "{} {d}: {err}", algo.name());
            assert!(
                err.0.contains(&format!(">= {min}")),
                "{} {d}: {err}",
                algo.name()
            );
        }
        assert!(algo.run_with_params(&scenario, &delta(min)).is_ok());
    }
    let tree = registry::by_name("tree").unwrap();
    assert!(tree.run_with_params(&scenario, &delta(7)).unwrap().success);
}
