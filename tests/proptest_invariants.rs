//! Property-based tests (proptest) on the core invariants: clustering
//! well-formedness under arbitrary primitive sequences, resize bounds,
//! merge conservation, engine determinism and metrics consistency,
//! address-obliviousness and fan-in accounting of the round engine, and
//! the lower-bound graph machinery.

use optimal_gossip::core::primitives::{
    activate, collect_members, dissolve, flatten_round, grow_push_round, merge_iteration, resize,
    sample_singletons, size_round, unclustered_pull_round, MergeOpts, MergeRule, Who,
};
use optimal_gossip::core::verify::check_clustering;
use optimal_gossip::prelude::*;
use proptest::prelude::*;

/// A primitive operation chosen by proptest.
#[derive(Clone, Debug)]
enum Op {
    Grow,
    Activate(u8),
    Dissolve(u8),
    Resize(u8),
    MergeSmallest,
    MergeRandom,
    Flatten,
    PullJoin,
    Size,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Grow),
        (1u8..=100).prop_map(Op::Activate),
        (2u8..=32).prop_map(Op::Dissolve),
        (2u8..=32).prop_map(Op::Resize),
        Just(Op::MergeSmallest),
        Just(Op::MergeRandom),
        Just(Op::Flatten),
        Just(Op::PullJoin),
        Just(Op::Size),
    ]
}

fn apply(sim: &mut ClusterSim, op: &Op) {
    match op {
        Op::Grow => {
            grow_push_round(sim, Who::AllClustered);
        }
        Op::Activate(p) => activate(sim, f64::from(*p) / 100.0),
        Op::Dissolve(s) => dissolve(sim, u64::from(*s), Who::AllClustered),
        Op::Resize(s) => resize(sim, u64::from(*s), Who::AllClustered),
        Op::MergeSmallest => {
            merge_iteration(
                sim,
                MergeOpts {
                    pushers: Who::AllClustered,
                    inactive_merge_only: false,
                    rule: MergeRule::Smallest,
                    smaller_only: true,
                    mark_merged_active: false,
                },
            );
            flatten_round(sim);
        }
        Op::MergeRandom => {
            merge_iteration(
                sim,
                MergeOpts {
                    pushers: Who::ActiveOnly,
                    inactive_merge_only: true,
                    rule: MergeRule::Random,
                    smaller_only: false,
                    mark_merged_active: true,
                },
            );
            flatten_round(sim);
        }
        Op::Flatten => flatten_round(sim),
        Op::PullJoin => {
            unclustered_pull_round(sim);
        }
        Op::Size => {
            collect_members(sim, Who::AllClustered);
            size_round(sim, Who::AllClustered, None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Any sequence of primitives leaves the clustering well-formed:
    /// every clustered node points at an alive leader that follows itself.
    #[test]
    fn primitives_preserve_wellformedness(
        seed in 0u64..1000,
        p in 1u32..40,
        ops in prop::collection::vec(op_strategy(), 1..12),
    ) {
        let mut common = CommonConfig::default();
        common.seed = seed;
        let mut sim = ClusterSim::new(256, &common);
        sample_singletons(&mut sim, f64::from(p) / 100.0);
        for op in &ops {
            apply(&mut sim, op);
        }
        // Merges can leave one-hop chains until flattened; flatten twice
        // (more than the deepest chain a single op sequence can build
        // between flattens) and then demand perfection.
        for _ in 0..4 {
            flatten_round(&mut sim);
        }
        prop_assert!(check_clustering(&sim).is_ok());
    }

    /// Resize always leaves cluster sizes below 2s and never loses nodes.
    #[test]
    fn resize_bounds_hold(seed in 0u64..1000, s in 2u64..32, grows in 1u32..7) {
        let mut common = CommonConfig::default();
        common.seed = seed;
        let mut sim = ClusterSim::new(512, &common);
        sample_singletons(&mut sim, 0.02);
        for _ in 0..grows {
            grow_push_round(&mut sim, Who::AllClustered);
        }
        let before = sim.clustered_count();
        resize(&mut sim, s, Who::AllClustered);
        let stats = sim.clustering_stats();
        prop_assert_eq!(stats.clustered, before, "no node lost");
        prop_assert!((stats.max_size as u64) < 2 * s, "max {} vs 2s {}", stats.max_size, 2 * s);
        prop_assert!(check_clustering(&sim).is_ok());
    }

    /// Merging never changes the number of clustered nodes.
    #[test]
    fn merge_conserves_membership(seed in 0u64..1000, p_act in 10u32..90) {
        let mut common = CommonConfig::default();
        common.seed = seed;
        let mut sim = ClusterSim::new(256, &common);
        sample_singletons(&mut sim, 1.0);
        activate(&mut sim, f64::from(p_act) / 100.0);
        let before = sim.clustered_count();
        merge_iteration(
            &mut sim,
            MergeOpts {
                pushers: Who::ActiveOnly,
                inactive_merge_only: true,
                rule: MergeRule::Random,
                smaller_only: false,
                mark_merged_active: true,
            },
        );
        for _ in 0..3 {
            flatten_round(&mut sim);
        }
        prop_assert_eq!(sim.clustered_count(), before);
        prop_assert!(check_clustering(&sim).is_ok());
    }

    /// Engine determinism: identical seeds yield identical metrics for
    /// any (n, rounds) choice.
    #[test]
    fn engine_is_deterministic(seed in 0u64..5000, n in 8usize..256, rounds in 1u32..6) {
        let run = |seed| {
            let mut common = CommonConfig::default();
            common.seed = seed;
            let mut sim = ClusterSim::new(n, &common);
            sample_singletons(&mut sim, 0.2);
            for _ in 0..rounds {
                grow_push_round(&mut sim, Who::AllClustered);
            }
            (sim.net.metrics().clone(), sim.clustered_count())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Metrics consistency: message counts decompose exactly into pushes,
    /// pull requests and pull replies; payload messages never exceed the
    /// total.
    #[test]
    fn metrics_decompose(seed in 0u64..1000, n in 16usize..256) {
        let mut common = CommonConfig::default();
        common.seed = seed;
        let mut cfg = Cluster2Config::default();
        cfg.common = common;
        let mut sim = ClusterSim::new(n.max(32), &cfg.common);
        let _ = cluster2::run_on(&mut sim, &cfg);
        let m = sim.net.metrics();
        prop_assert_eq!(m.messages, m.pushes + m.pull_requests + m.pull_replies);
        prop_assert_eq!(m.payload_messages, m.pushes + m.pull_replies);
        prop_assert!(m.pull_replies <= m.pull_requests);
        let round_sum: u64 = m.per_round.iter().map(|r| r.messages).sum();
        prop_assert_eq!(round_sum, m.messages);
    }

    /// Lower-bound machinery: certified diameter bounds always contain
    /// the exact diameter, and the budget decision matches it.
    #[test]
    fn diameter_bounds_are_certified(seed in 0u64..1000, n in 16usize..200, t in 1u32..5) {
        use optimal_gossip::lowerbound::diameter::{bounds, diameter_at_most, exact};
        use optimal_gossip::lowerbound::graph::sample_union_graph;
        let g = sample_union_graph(n, t, seed);
        match exact(&g) {
            None => {
                prop_assert!(bounds(&g, 3).is_none());
                prop_assert!(!diameter_at_most(&g, u64::MAX / 2));
            }
            Some(d) => {
                let b = bounds(&g, 3).expect("connected");
                prop_assert!(b.lo <= d && d <= b.hi, "[{}, {}] vs {}", b.lo, b.hi, d);
                for budget in [1u64, 2, 4, 8, 16] {
                    prop_assert_eq!(diameter_at_most(&g, budget), u64::from(d) <= budget);
                }
            }
        }
    }

    /// The word-parallel diameter scan against one scalar BFS per vertex:
    /// sizes below one 64-source batch, off the batch boundary and over
    /// several batches, connected or not.
    #[test]
    fn diameter_scan_matches_scalar_bfs(
        seed in 0u64..1000,
        n in 2usize..400,
        t in 1u32..5,
        shape in 0u32..3,
    ) {
        use optimal_gossip::lowerbound::bfs::{eccentricity, UNREACHABLE};
        use optimal_gossip::lowerbound::diameter::{diameter_at_most, exact};
        use optimal_gossip::lowerbound::graph::sample_union_graph;
        use optimal_gossip::lowerbound::Graph;
        let base = sample_union_graph(n, t, seed);
        // Shape 1 appends an isolated vertex, shape 2 a disjoint copy.
        let extra = [0, 1, n][shape as usize];
        let mut g = Graph::empty(n + extra);
        for v in 0..n as u32 {
            for &u in base.neighbors(v) {
                g.add_edge(v, u);
                if shape == 2 {
                    g.add_edge(v + n as u32, u + n as u32);
                }
            }
        }
        g.finish();
        let eccs: Vec<u32> = (0..g.len() as u32).map(|v| eccentricity(&g, v).ecc).collect();
        let want = (!eccs.contains(&UNREACHABLE)).then(|| eccs.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(exact(&g), want);
        match want {
            None => prop_assert!(!diameter_at_most(&g, u64::MAX / 2)),
            Some(d) => {
                for budget in 0..=d + 1 {
                    prop_assert_eq!(diameter_at_most(&g, u64::from(budget)), d <= budget);
                }
            }
        }
    }

    /// Address-obliviousness (the paper's structural model restriction,
    /// enforced by the `decide`/`respond` split): permuting the node wire
    /// IDs never changes pull responses. Two networks whose nodes hold
    /// identical algorithm states but whose wire IDs are drawn from
    /// different seeds must answer a pull of the *same underlying node*
    /// with the *same payload*.
    #[test]
    fn pull_responses_are_address_oblivious(
        n in 2usize..128,
        seed_a in 0u64..1000,
        perm_shift in 1u64..1000,
        k in 1u32..128,
    ) {
        use phonecall::{Action, Delivery, Target};

        let k = u64::from(k) % n as u64;
        let seed_b = seed_a + perm_shift; // a different ID permutation
        let pull_target = |net_seed: u64| -> Option<u64> {
            // State: the node's dense index (the "algorithm state" the
            // response may legitimately depend on) plus the puller's inbox.
            #[derive(Clone)]
            struct St { val: u64, got: Option<u64> }
            let mut net: Network<St> =
                Network::with_state_fn(n, net_seed, |idx, _id| St { val: u64::from(idx.0), got: None });
            let target_id = net.id_of(NodeIdx(k as u32));
            net.round(
                |ctx, _rng| {
                    if ctx.idx.0 == 0 {
                        Action::<u64>::Pull { to: Target::Direct(target_id) }
                    } else {
                        Action::Idle
                    }
                },
                |s| Some(s.val),
                |s, d| {
                    if let Delivery::PullReply { msg, .. } = d {
                        s.got = Some(msg);
                    }
                },
            );
            net.states()[0].got
        };
        let a = pull_target(seed_a);
        let b = pull_target(seed_b);
        prop_assert_eq!(a, b, "response depended on the wire-ID permutation");
        if k == 0 {
            // Self-pull: node 0 pulls itself; the reply is its own value.
            prop_assert_eq!(a, Some(0));
        } else {
            prop_assert_eq!(a, Some(k), "pull must return the target's state");
        }
    }

    /// Fan-in accounting: within one round, the per-node fan-in counters
    /// sum to the initiations plus the communications that arrived at a
    /// target (push deliveries and pull requests) — nothing is double- or
    /// under-charged.
    #[test]
    fn fan_in_sums_to_deliveries(n in 2usize..200, seed in 0u64..1000, mix in 0u32..3) {
        use phonecall::{Action, Delivery, Target};

        #[derive(Clone, Default)]
        struct St { pushes: u64, pulled_by: u64 }
        let mut net: Network<St> = Network::new(n, seed);
        let stats = net.round(
            |ctx, _rng| {
                // A seeded mix of pushes, pulls and idles (the `mix`
                // parameter shifts the blend across cases).
                match (phonecall::derive_seed(seed, u64::from(ctx.idx.0)) as u32 + mix) % 3 {
                    0 => Action::Push { to: Target::Random, msg: 7u64 },
                    1 => Action::<u64>::Pull { to: Target::Random },
                    _ => Action::Idle,
                }
            },
            |_s| Some(1u64),
            |s, d| match d {
                Delivery::Push { .. } => s.pushes += 1,
                Delivery::PulledBy(_) => s.pulled_by += 1,
                Delivery::PullReply { .. } => {}
            },
        );
        let fan_sum: u64 = net.last_fan_in().iter().map(|&c| u64::from(c)).sum();
        let deliveries: u64 = net
            .states()
            .iter()
            .map(|s| s.pushes + s.pulled_by)
            .sum();
        // All nodes alive, no loss: every resolved communication lands.
        prop_assert_eq!(fan_sum, stats.initiators + deliveries);
        // Cross-check against the round's message accounting: fan-in
        // charges initiations + pushes + pull requests, never replies.
        let m = net.metrics();
        prop_assert_eq!(fan_sum, stats.initiators + m.pushes + m.pull_requests);
        prop_assert_eq!(u64::from(net.last_fan_in().iter().copied().max().unwrap_or(0)), stats.max_fan_in);
    }

    /// Topology generators: every family builds a *connected* graph at
    /// any (n, seed) — disconnected draws are regenerated internally
    /// with a derived seed — with its family's degree bounds intact and
    /// a symmetric edge relation.
    #[test]
    fn generated_topologies_are_connected_with_degree_bounds(
        seed in 0u64..1000,
        n in 8usize..200,
        pick in 0u32..6,
    ) {
        use optimal_gossip::prelude::Topology;
        let p = (3.0 * (n as f64).ln() / n as f64).min(1.0);
        let topo = match pick {
            0 => Topology::Ring,
            1 => Topology::Torus2D,
            2 => Topology::RandomRegular(4),
            3 => Topology::ErdosRenyi(p),
            4 => Topology::WattsStrogatz(4, 0.3),
            _ => Topology::PreferentialAttachment(3),
        };
        let adj = topo.build(n, seed).expect("non-complete topologies materialize");
        prop_assert_eq!(adj.len(), n);
        prop_assert!(adj.is_connected(), "{} disconnected at n={n} seed={seed}", topo.name());
        for v in 0..n as u32 {
            let deg = adj.degree(v);
            prop_assert!(deg >= 1 && deg < n, "{}: degree {deg} at node {v}", topo.name());
            match topo {
                Topology::Ring => prop_assert!(deg <= 2),
                Topology::Torus2D => prop_assert!(deg <= 4),
                Topology::RandomRegular(d) => prop_assert_eq!(deg, d as usize),
                _ => {}
            }
            // Symmetry: every listed edge exists in both directions.
            for &u in adj.neighbors(v) {
                prop_assert!(adj.contains_edge(u, v), "asymmetric edge {u}-{v}");
                prop_assert!(u != v, "self loop at {v}");
            }
        }
    }

    /// With a topology installed, every communication of a Random-target
    /// workload travels along a graph edge — the engine never samples a
    /// non-neighbor — and the run is deterministic per seed.
    #[test]
    fn random_sampling_is_confined_to_edges(
        seed in 0u64..1000,
        n in 8usize..128,
        rounds in 1u32..6,
    ) {
        use optimal_gossip::prelude::{DirectAddressing, Topology};
        use phonecall::{Action, Target};
        let run = |seed: u64| {
            let mut net: Network<u64> = Network::new(n, seed);
            net.set_topology(
                Topology::WattsStrogatz(4, 0.2),
                DirectAddressing::Restricted,
                phonecall::derive_seed(seed, 5),
            );
            net.enable_trace(4 * n * rounds as usize);
            for _ in 0..rounds {
                net.round(
                    |ctx, _rng| {
                        if ctx.idx.0 % 2 == 0 {
                            Action::Push { to: Target::Random, msg: 1u64 }
                        } else {
                            Action::<u64>::Pull { to: Target::Random }
                        }
                    },
                    |s| Some(*s),
                    |s, _d| *s += 1,
                );
            }
            let edges: Vec<(u32, u32)> = net
                .trace()
                .events()
                .iter()
                .map(|e| (e.from.0, e.to.0))
                .collect();
            let adj = net.topology_adjacency().expect("installed").clone();
            (edges, adj, net.metrics().clone())
        };
        let (edges, adj, metrics) = run(seed);
        prop_assert!(!edges.is_empty());
        for (from, to) in &edges {
            prop_assert!(adj.contains_edge(*from, *to), "{from}->{to} is not an edge");
        }
        let (edges2, _, metrics2) = run(seed);
        prop_assert_eq!(edges, edges2, "topology runs must be deterministic");
        prop_assert_eq!(metrics, metrics2);
    }

    /// Failure plans: random plans have exactly the requested size and
    /// stay within range; applying them reduces alive counts accordingly.
    #[test]
    fn failure_plans_are_exact(n in 4usize..300, frac in 0u32..90, seed in 0u64..1000) {
        let f = n * frac as usize / 100;
        let plan = FailurePlan::random(n, f, seed);
        prop_assert_eq!(plan.len(), f);
        let mut common = CommonConfig::default();
        common.seed = seed;
        common.failures = plan;
        if n >= 2 {
            let sim = ClusterSim::new(n, &common);
            prop_assert_eq!(sim.alive_count(), n - f);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The knob tables round-trip every shape they describe: a random
    /// scenario of every topology kind and every latency kind (and the
    /// sync engine), with a full-width seed, renders to a document that
    /// re-parses to itself (`parse(render(v)) == v`) and applies back to
    /// the same config (`apply(params(c)) == c`).
    #[test]
    fn knob_tables_round_trip_every_kind(
        kind in 0u32..9,
        latency in 0u32..4,
        seed in any::<u64>(),
        a in 1u32..1000,
        b in 1u32..1000,
        c in 0u32..1000,
    ) {
        let frac = |x: u32| f64::from(x) / 1000.0;
        let topology = match kind {
            0 => Topology::Complete,
            1 => Topology::Ring,
            2 => Topology::Torus2D,
            3 => Topology::RandomRegular(2 + a),
            4 => Topology::ErdosRenyi(frac(a)),
            5 => Topology::WattsStrogatz(2 * (1 + a % 8), frac(c)),
            6 => Topology::PreferentialAttachment(a),
            7 => Topology::FromAdjacency(vec![vec![a, b], vec![c]]),
            _ => Topology::FromFile(format!("graphs/g{a}.txt")),
        };
        let latency = match latency {
            0 => Some(Latency::Fixed(frac(c))),
            1 => Some(Latency::Uniform(frac(a) / 2.0, 0.5 + frac(b) / 2.0)),
            2 => Some(Latency::Exponential(frac(a))),
            _ => None,
        };
        let mut common = CommonConfig::default().with_seed(seed);
        common.rumor_bits = u64::from(a) * 8;
        common.source = b;
        common.extra_sources = vec![a, c];
        common.failures = FailurePlan::explicit(vec![NodeIdx(a), NodeIdx(c)]);
        common.message_loss = frac(c);
        common.churn = ChurnConfig {
            crash_rate: frac(c),
            batch_size: a,
            recovery_rate: frac(b),
            burst_enter: frac(a),
            burst_exit: frac(b),
            burst_loss: frac(c),
            start_round: seed >> 12,
            stop_round: (b % 2 == 0).then_some((seed >> 12) + u64::from(b)),
            protected: vec![c],
            max_crashed_frac: frac(b),
        };
        common.topology = topology;
        common.addressing = if c % 2 == 0 { DirectAddressing::Overlay } else { DirectAddressing::Restricted };
        common.traffic = TrafficConfig {
            rumors: c,
            arrival_rate: f64::from(a) / 3.0,
            bandwidth: b,
            start_round: seed % 1000,
        };
        common.engine = latency.map_or(Engine::Sync, |latency| {
            Engine::Async(AsyncConfig { rate: f64::from(a) / 7.0, latency })
        });

        let doc = common.params();
        prop_assert_eq!(Value::parse(&doc.render()).unwrap(), doc.clone());
        let mut back = CommonConfig::default();
        back.apply_params(&doc).unwrap();
        prop_assert_eq!(back, common);
    }
}
