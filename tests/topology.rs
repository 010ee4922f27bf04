//! Integration contract of the topology subsystem
//! (`phonecall::topology`) across the whole stack: complete-graph
//! inertness (the constraint every pre-topology golden digest rests
//! on), scenario-level determinism and graph sharing, thread-count
//! invariance of the parallel runner with a topology active, the
//! churn × topology interaction (crashed nodes leave the neighbor
//! distribution, recoveries re-enter it), builder validation, and the
//! JSON round-trip of the topology environment.
//!
//! The `topology` and `graph` suites of `tests/golden_reports.rs` pin
//! exact fields (`tests/pins/{topology,graph}.tsv`); this suite pins the
//! *properties* those fields rely on.

use optimal_gossip::prelude::*;

use gossip_harness::{run_trials_on, run_trials_seq};
use phonecall::{Action, ChurnRound, Delivery, Target};
use std::sync::Arc;

/// The canonical sparse-but-mixing topology of this suite.
fn expander() -> Topology {
    Topology::RandomRegular(8)
}

#[test]
fn complete_topology_leaves_runs_bit_identical() {
    // Topology::Complete installs nothing: attaching it (under either
    // addressing mode) must not perturb a single digest — this is what
    // keeps every pre-topology golden row valid.
    let quiet = Scenario::broadcast(256).seed(7);
    for mode in [DirectAddressing::Overlay, DirectAddressing::Restricted] {
        let attached = Scenario::broadcast(256)
            .seed(7)
            .topology(Topology::Complete)
            .addressing(mode);
        for algo in registry::all() {
            assert_eq!(
                algo.run(&quiet),
                algo.run(&attached),
                "{} perturbed by the complete topology ({})",
                algo.name(),
                mode.label()
            );
        }
    }
}

#[test]
fn topology_actually_perturbs_runs() {
    // Guard against a silently ignored topology: a sparse graph must
    // change traffic relative to the complete scenario.
    let quiet = Scenario::broadcast(512).seed(11);
    let sparse = Scenario::broadcast(512).seed(11).topology(expander());
    let algo = registry::by_name("push-pull").unwrap();
    assert_ne!(
        algo.run(&quiet).rounds,
        algo.run(&sparse).rounds,
        "an installed topology must alter the run"
    );
}

#[test]
fn topology_runs_are_bit_identical_per_seed() {
    let scenario = Scenario::broadcast(512)
        .seed(11)
        .topology(Topology::WattsStrogatz(6, 0.2))
        .addressing(DirectAddressing::Restricted);
    for algo in registry::all() {
        let a = algo.run(&scenario);
        let b = algo.run(&scenario);
        assert_eq!(a, b, "{} diverged under a topology", algo.name());
    }
}

#[test]
fn one_scenario_means_one_graph_for_every_algorithm() {
    // The graph builds from the run seed under one shared stream label,
    // so every algorithm facing the same scenario faces the same graph
    // — observable through the metrics' shape fields.
    let common = CommonConfig {
        seed: 21,
        topology: expander(),
        ..CommonConfig::default()
    };
    let cluster = ClusterSim::new(256, &common);
    let baseline = optimal_gossip::baselines::common::rumor_network(256, &common);
    let a = cluster.net.topology_adjacency().expect("installed");
    let b = baseline.topology_adjacency().expect("installed");
    assert_eq!(a, b, "ClusterSim and the baselines must share the graph");
    assert_eq!(cluster.net.metrics().topology_edges, 256 * 8 / 2);
    assert_eq!(cluster.net.metrics().topology_max_degree, 8);

    // ...and a different seed means a different graph.
    let other = ClusterSim::new(256, &common.clone().with_seed(22));
    assert_ne!(a, other.net.topology_adjacency().expect("installed"));
}

#[test]
fn parallel_runner_is_thread_count_invariant_under_topology() {
    // Mirrors tests/parallel_equivalence.rs with a topology installed:
    // per-trial graphs derive from the trial seed, so the fan-out must
    // stay bit-identical at every thread count.
    let scenario = Scenario::broadcast(256)
        .topology(expander())
        .addressing(DirectAddressing::Restricted);
    let trials = 9; // deliberately not divisible by 2, 4, or 7
    for name in ["Cluster2", "ClusterPushPull", "Karp", "Push"] {
        let algo = registry::by_name(name).unwrap();
        let seq = run_trials_seq(0xE11, name, trials, |seed| {
            algo.run(&scenario.clone().seed(seed)).informed as f64
        });
        for threads in [1usize, 2, 4, 7] {
            let par = run_trials_on(threads, 0xE11, name, trials, |seed| {
                algo.run(&scenario.clone().seed(seed)).informed as f64
            });
            assert_eq!(par, seq, "{name} diverged at {threads} threads");
        }
    }
}

#[test]
fn random_contacts_are_confined_to_edges() {
    // Every communication of a pure Random workload must travel along a
    // graph edge. Each node's state is its own index and every payload is
    // its sender's, so `deliver` sees both ends of each contact; with
    // everyone alive and no loss, every contact is delivered.
    let n = 64;
    let mut net: Network<u32> = Network::with_state_fn(n, 5, |idx, _| idx.0);
    net.set_topology(expander(), DirectAddressing::Overlay, 99);
    let adj = net.topology_adjacency().expect("installed").clone();
    let ids: Vec<NodeId> = (0..n as u32).map(|i| net.id_of(NodeIdx(i))).collect();
    let mut contacts: Vec<(u32, u32)> = Vec::new();
    for _ in 0..20 {
        net.round(
            |ctx, _rng| {
                if ctx.idx.0 % 2 == 0 {
                    Action::Push {
                        to: Target::Random,
                        msg: u64::from(ctx.idx.0),
                    }
                } else {
                    Action::<u64>::Pull { to: Target::Random }
                }
            },
            |s| Some(u64::from(*s)),
            |s, d| {
                let from = match d {
                    Delivery::Push { msg, .. } | Delivery::PullReply { msg, .. } => msg as u32,
                    Delivery::PulledBy(id) => ids.iter().position(|&x| x == id).unwrap() as u32,
                };
                contacts.push((from, *s));
            },
        );
    }
    assert!(!contacts.is_empty());
    for (from, to) in contacts {
        assert!(
            adj.contains_edge(from, to),
            "a contact from {from} to {to} crossed a non-edge"
        );
    }
}

#[test]
fn restricted_addressing_gates_direct_calls_and_overlay_does_not() {
    let run = |mode: DirectAddressing| {
        let mut net: Network<u32> = Network::new(16, 3);
        net.set_topology(Topology::Ring, mode, 4);
        // Node 0 pushes directly to its antipode — never a ring neighbor.
        let far = net.id_of(NodeIdx(8));
        net.round(
            |ctx, _rng| {
                if ctx.idx.0 == 0 {
                    Action::Push {
                        to: Target::Direct(far),
                        msg: 1u64,
                    }
                } else {
                    Action::<u64>::Idle
                }
            },
            |_s| None,
            |s, d| {
                if matches!(d, Delivery::Push { .. }) {
                    *s += 1;
                }
            },
        );
        let stats = net.metrics().per_round[0];
        (net.states()[8], stats.initiators, stats.messages)
    };
    let (delivered, initiators, messages) = run(DirectAddressing::Overlay);
    assert_eq!(delivered, 1, "overlay: learned IDs cross the graph");
    assert_eq!((initiators, messages), (1, 1));
    let (delivered, initiators, messages) = run(DirectAddressing::Restricted);
    assert_eq!(delivered, 0, "restricted: no link, no delivery");
    assert_eq!(initiators, 1, "the attempt is still an initiation");
    assert_eq!(messages, 0, "lost in the void, like an unknown address");
}

#[test]
fn churned_neighbors_leave_the_contact_distribution_and_recoveries_reenter() {
    // A ring under a bounded full-crash outage with recovery: while a
    // node is down it must receive nothing (dead neighbors leave the
    // sampling distribution — the engine never even targets them), and
    // after recovering it must receive traffic again.
    let mut net: Network<u32> = Network::new(8, 17);
    net.set_topology(Topology::Ring, DirectAddressing::Overlay, 31);
    net.set_churn(
        ChurnConfig {
            crash_rate: 1.0,
            batch_size: 3,
            recovery_rate: 0.5,
            start_round: 5,
            stop_round: Some(6),
            ..ChurnConfig::default()
        },
        77,
    );
    let mut alive_history: Vec<Vec<bool>> = Vec::new();
    // Pushes each node was delivered, per round.
    let mut received: Vec<Vec<u32>> = Vec::new();
    for _ in 0..60 {
        let before = net.states().to_vec();
        let pushes_before = net.metrics().pushes;
        net.round(
            |_ctx, _rng| Action::Push {
                to: Target::Random,
                msg: 1u64,
            },
            |_s| None,
            |s, d| {
                if matches!(d, Delivery::Push { .. }) {
                    *s += 1;
                }
            },
        );
        let got: Vec<u32> = net
            .states()
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .collect();
        // No loss: a push that landed but was not delivered is exactly a
        // push to a dead node, and there is none.
        let delivered: u32 = got.iter().sum();
        assert_eq!(
            net.metrics().pushes - pushes_before,
            u64::from(delivered),
            "round {}: a push targeted a dead node",
            received.len()
        );
        alive_history.push((0..8).map(|i| net.is_alive(NodeIdx(i))).collect());
        received.push(got);
    }
    assert_eq!(net.metrics().crashes, 3, "the outage fired");
    assert_eq!(net.metrics().recoveries, 3, "and drained");
    // Every recovered node receives traffic again after the outage.
    let crashed: Vec<usize> = (0..8).filter(|&i| !alive_history[5][i]).collect();
    assert_eq!(crashed.len(), 3);
    for &i in &crashed {
        let back_in = (6..received.len()).any(|r| alive_history[r][i] && received[r][i] > 0);
        assert!(back_in, "recovered node {i} re-entered the distribution");
    }
}

#[test]
fn all_neighbors_down_means_the_node_sits_out() {
    // Node 0's only ring neighbors (1 and 3 on a 4-ring) are dead: its
    // Random pushes resolve to nobody, but the attempts are charged.
    let mut net: Network<u32> = Network::new(4, 9);
    net.set_topology(Topology::Ring, DirectAddressing::Overlay, 2);
    net.apply_failures(&FailurePlan::explicit(vec![NodeIdx(1), NodeIdx(3)]));
    let stats = net.round(
        |ctx, _rng| {
            if ctx.idx.0 == 0 {
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
    assert_eq!(stats.initiators, 1, "the attempt is an initiation");
    assert_eq!(stats.messages, 0, "but no message could be placed");
    assert_eq!(net.states().iter().sum::<u32>(), 0);
}

#[test]
fn churn_schedule_is_identical_with_and_without_topology() {
    // The adversary draws from its own stream; installing a topology
    // must not shift a single churn event.
    let history = |with_topo: bool| {
        let mut net: Network<u32> = Network::new(128, 33);
        if with_topo {
            net.set_topology(expander(), DirectAddressing::Restricted, 8);
        }
        net.set_churn(
            ChurnConfig {
                crash_rate: 0.5,
                batch_size: 4,
                recovery_rate: 0.25,
                ..ChurnConfig::default()
            },
            55,
        );
        let mut hist: Vec<ChurnRound> = Vec::new();
        for _ in 0..30 {
            net.round(
                |_ctx, _rng| Action::Push {
                    to: Target::Random,
                    msg: 1u64,
                },
                |_s| None,
                |s, _d| *s += 1,
            );
            let m = net.metrics();
            hist.push(ChurnRound {
                crashed: m.crashes as u32,
                recovered: m.recoveries as u32,
                bursting: false,
            });
        }
        hist
    };
    assert_eq!(history(false), history(true));
}

#[test]
fn lowerbound_graph_runs_as_a_topology() {
    // The union graph -> Topology::FromAdjacency bridge end to end: run
    // the headline algorithm on a Theorem 15 sample-union graph.
    let g = optimal_gossip::lowerbound::graph::sample_union_graph(256, 4, 9);
    let scenario = Scenario::broadcast(256)
        .seed(3)
        .topology(Topology::FromAdjacency(Arc::new(g)));
    let r = registry::by_name("push-pull").unwrap().run(&scenario);
    assert!(r.rounds > 0 && r.informed > 1);
}

#[test]
#[should_panic(expected = "\"p\" wants a probability")]
fn scenario_topology_builder_validates_at_the_builder() {
    let _ = Scenario::broadcast(16).topology(Topology::ErdosRenyi(2.0));
}
