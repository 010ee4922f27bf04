//! Property-based tests for the phone-call engine itself.

use phonecall::{Action, ChurnConfig, Delivery, FailurePlan, Network, Target, Wire};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Blob(u64);

impl Wire for Blob {
    fn size_bits(&self) -> u64 {
        self.0
    }
}

#[derive(Default, Clone, PartialEq, Debug)]
struct St {
    got: u32,
    replies: u32,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Message and bit accounting is exact for an all-push round:
    /// `messages = alive`, `bits = alive * (header + payload)`.
    #[test]
    fn push_accounting_is_exact(n in 2usize..300, seed in 0u64..1000, payload in 0u64..500, dead_frac in 0u32..50) {
        let mut net: Network<St> = Network::new(n, seed);
        let f = n * dead_frac as usize / 100;
        net.apply_failures(&FailurePlan::random(n, f, seed));
        let alive = net.alive_count() as u64;
        let stats = net.round(
            |_ctx, _rng| Action::Push { to: Target::Random, msg: Blob(payload) },
            |_s| None,
            |s, d| if matches!(d, Delivery::Push { .. }) { s.got += 1 },
        );
        prop_assert_eq!(stats.messages, alive);
        prop_assert_eq!(stats.bits, alive * (phonecall::header_bits(n) + payload));
        prop_assert_eq!(stats.initiators, alive);
        // Deliveries: only pushes to alive targets arrive.
        let delivered: u32 = net.states().iter().map(|s| s.got).sum();
        prop_assert!(u64::from(delivered) <= alive);
    }

    /// Pull accounting: requests = alive pullers; replies ≤ requests; a
    /// reply happens exactly when the target is alive and responds.
    #[test]
    fn pull_accounting_is_exact(n in 2usize..300, seed in 0u64..1000, dead_frac in 0u32..50) {
        let mut net: Network<St> = Network::new(n, seed);
        let f = n * dead_frac as usize / 100;
        net.apply_failures(&FailurePlan::random(n, f, seed ^ 1));
        let alive = net.alive_count() as u64;
        net.round(
            |_ctx, _rng| Action::<Blob>::Pull { to: Target::Random },
            |_s| Some(Blob(8)),
            |s, d| if matches!(d, Delivery::PullReply { .. }) { s.replies += 1 },
        );
        let m = net.metrics();
        prop_assert_eq!(m.pull_requests, alive);
        prop_assert!(m.pull_replies <= m.pull_requests);
        let replies: u32 = net.states().iter().map(|s| s.replies).sum();
        prop_assert_eq!(u64::from(replies), m.pull_replies);
        // With no failures every pull must be answered.
        if f == 0 {
            prop_assert_eq!(m.pull_replies, alive);
        }
    }

    /// Determinism: identical seeds produce identical metrics and states.
    #[test]
    fn engine_determinism(n in 2usize..200, seed in 0u64..10_000, rounds in 1u32..8) {
        let run = |seed: u64| {
            let mut net: Network<St> = Network::new(n, seed);
            for _ in 0..rounds {
                net.round(
                    |_ctx, _rng| Action::Push { to: Target::Random, msg: Blob(4) },
                    |_s| None,
                    |s, d| if matches!(d, Delivery::Push { .. }) { s.got += 1 },
                );
            }
            (net.metrics().clone(), net.states().to_vec())
        };
        let (m1, s1) = run(seed);
        let (m2, s2) = run(seed);
        prop_assert_eq!(m1, m2);
        prop_assert_eq!(s1, s2);
    }

    /// The async event order `(time, seq, node)` is a *total* order:
    /// comparisons are antisymmetric and transitive for arbitrary keys
    /// (including negative-zero and denormal times, which
    /// `f64::total_cmp` orders deterministically), equality only on
    /// identical keys, and sorting is insertion-order-independent.
    #[test]
    fn event_key_order_is_total_and_deterministic(
        raw in proptest::collection::vec(any::<u64>(), 2..20),
        swap in any::<u64>(),
    ) {
        use phonecall::EventKey;
        let mut keys: Vec<EventKey> = raw
            .iter()
            // Every field derives from one raw u64: arbitrary bit
            // patterns cover negative zero, denormals and NaN times
            // (NaN never occurs in a run — gaps and latencies are
            // finite by validation — but total_cmp orders it anyway).
            .map(|&bits| EventKey {
                time: f64::from_bits(bits),
                seq: bits.rotate_left(17) % 8,
                node: (bits.rotate_left(31) % 8) as u32,
            })
            .collect();
        // Force (time, seq) and (time, seq, node) ties so the later
        // tie-break fields actually decide.
        for i in 0..raw.len() {
            let k = keys[i];
            keys.push(EventKey { seq: k.seq.wrapping_add(1), ..k });
            keys.push(EventKey { node: k.node + 1, ..k });
        }
        for a in &keys {
            prop_assert_eq!(a.cmp(a), std::cmp::Ordering::Equal);
            for b in &keys {
                prop_assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry");
                if a.cmp(b) == std::cmp::Ordering::Equal {
                    prop_assert_eq!(
                        (a.time.total_cmp(&b.time), a.seq, a.node),
                        (b.time.total_cmp(&b.time), b.seq, b.node),
                        "equal keys are identical"
                    );
                }
                for c in &keys {
                    if a.cmp(b) != std::cmp::Ordering::Greater
                        && b.cmp(c) != std::cmp::Ordering::Greater
                    {
                        prop_assert!(a.cmp(c) != std::cmp::Ordering::Greater, "transitivity");
                    }
                }
            }
        }
        // Sorting any permutation yields the same sequence: the order
        // never falls back on insertion order or address identity.
        let mut sorted = keys.clone();
        sorted.sort();
        let mut shuffled = keys;
        // A cheap deterministic shuffle driven by the proptest input.
        let len = shuffled.len();
        for i in 0..len {
            shuffled.swap(i, (swap as usize + i * 7) % len);
        }
        shuffled.sort();
        for (a, b) in sorted.iter().zip(&shuffled) {
            prop_assert_eq!(a.cmp(b), std::cmp::Ordering::Equal);
        }
    }

    /// Async determinism end-to-end: the same seed replays the same
    /// event trace — identical event count, virtual clock, metrics and
    /// final states — and a different engine seed genuinely changes it.
    #[test]
    fn async_engine_determinism(n in 2usize..120, seed in 0u64..10_000, rounds in 1u32..5) {
        use phonecall::{AsyncConfig, Engine, Latency};
        let run = |engine_seed: u64| {
            let mut net: Network<St> = Network::new(n, seed);
            net.set_engine(
                Engine::Async(AsyncConfig {
                    rate: 1.0,
                    latency: Latency::Exponential(0.5),
                }),
                engine_seed,
            );
            net.set_message_loss(0.05);
            for _ in 0..rounds {
                net.round(
                    |ctx, _rng| if ctx.idx.0 % 2 == 0 {
                        Action::Push { to: Target::Random, msg: Blob(4) }
                    } else {
                        Action::Pull { to: Target::Random }
                    },
                    |s| Some(Blob(u64::from(s.got))),
                    |s, d| match d {
                        Delivery::Push { .. } | Delivery::PullReply { .. } => s.got += 1,
                        Delivery::PulledBy(_) => s.replies += 1,
                    },
                );
            }
            (
                net.events_processed(),
                net.virtual_time(),
                net.metrics().clone(),
                net.states().to_vec(),
            )
        };
        let (e1, t1, m1, s1) = run(seed);
        let (e2, t2, m2, s2) = run(seed);
        prop_assert_eq!(e1, e2, "event trace length must replay exactly");
        prop_assert_eq!(t1.to_bits(), t2.to_bits(), "virtual clock must replay bit-exactly");
        prop_assert_eq!(m1, m2);
        prop_assert_eq!(s1, s2);
        // And the sanity check that the equality is not vacuous: a
        // different engine seed reorders the timeline.
        let (e3, t3, ..) = run(seed ^ 0xA5A5);
        prop_assert!(e3 > 0 && e1 > 0);
        prop_assert!(t1.to_bits() != t3.to_bits(), "different seeds must differ");
    }

    /// The charging rules hold under either engine: over random mixes of
    /// pushes, pulls and idling, to random, direct and unknown addresses,
    /// with loss, dead nodes and part-silent responders, every round obeys
    /// the conservation laws. And charging does not depend on the
    /// schedule: when every contact is engine-independent (direct
    /// targets, no loss) and responders are silent-or-constant, the two
    /// engines charge the same messages and bits.
    #[test]
    fn charging_laws_hold_under_both_engines(
        n in 2usize..150,
        seed in 0u64..10_000,
        rounds in 1u64..5,
        loss_quarters in 0u32..4,
        dead_frac in 0u32..50,
        random_targets in any::<bool>(),
    ) {
        use phonecall::{AsyncConfig, Engine, Metrics, NodeId};
        let loss = f64::from(loss_quarters) * 0.25;
        let mix = |i: u32, round: u64, salt: u64| {
            phonecall::derive_seed(seed ^ salt, u64::from(i) << 8 | round)
        };
        let run = |engine: Engine| -> Metrics {
            let mut net: Network<St> = Network::new(n, seed);
            net.set_engine(engine, seed);
            net.set_message_loss(loss);
            net.apply_failures(&FailurePlan::random(n, n * dead_frac as usize / 100, seed));
            let ids: Vec<NodeId> = (0..n as u32).map(|i| net.id_of(phonecall::NodeIdx(i))).collect();
            for (i, s) in net.states_mut().iter_mut().enumerate() {
                s.got = u32::from(i % 3 == 0); // marks the silent responders
            }
            for _ in 0..rounds {
                net.round(
                    |ctx, _rng| {
                        let h = mix(ctx.idx.0, ctx.round, 1);
                        let to = match h % 8 {
                            0 if random_targets => Target::Random,
                            1 => Target::Direct(NodeId::from_raw(h)), // unknown address
                            _ => Target::Direct(ids[(h >> 8) as usize % n]),
                        };
                        match mix(ctx.idx.0, ctx.round, 2) % 3 {
                            0 => Action::Push { to, msg: Blob(h % 64) },
                            1 => Action::Pull { to },
                            _ => Action::Idle,
                        }
                    },
                    |s| (s.got == 0).then_some(Blob(24)),
                    |s, d| if let Delivery::PulledBy(_) = d { s.replies += 1 },
                );
            }
            net.metrics().clone()
        };
        let header = phonecall::header_bits(n);
        let [sync, asynch] = [Engine::Sync, Engine::Async(AsyncConfig::default())].map(run);
        for m in [&sync, &asynch] {
            prop_assert_eq!(m.messages, m.pushes + m.pull_requests + m.pull_replies);
            prop_assert_eq!(m.payload_messages, m.pushes + m.pull_replies);
            prop_assert!(m.bits >= m.messages * header);
            prop_assert!(m.pull_replies <= m.pull_requests);
            for r in &m.per_round {
                prop_assert!(r.max_fan_in <= 1 + r.messages);
                prop_assert!(r.bits >= r.messages * header);
            }
        }
        if loss == 0.0 && !random_targets {
            prop_assert_eq!(
                (sync.messages, sync.bits, sync.pushes, sync.pull_requests, sync.pull_replies),
                (asynch.messages, asynch.bits, asynch.pushes, asynch.pull_requests, asynch.pull_replies)
            );
        }
    }

    /// Fan-in never exceeds the number of communications physically
    /// possible, and per-round stats sum to the aggregate metrics.
    #[test]
    fn fan_in_and_round_sums(n in 2usize..200, seed in 0u64..1000, rounds in 1u32..6) {
        let mut net: Network<St> = Network::new(n, seed);
        for _ in 0..rounds {
            net.round(
                |_ctx, _rng| Action::Push { to: Target::Random, msg: Blob(1) },
                |_s| None,
                |_s, _d| {},
            );
        }
        let m = net.metrics();
        prop_assert!(m.max_fan_in <= n as u64, "fan-in bounded by n");
        prop_assert_eq!(m.per_round.len() as u32, rounds);
        let sum_msgs: u64 = m.per_round.iter().map(|r| r.messages).sum();
        let sum_bits: u64 = m.per_round.iter().map(|r| r.bits).sum();
        prop_assert_eq!(sum_msgs, m.messages);
        prop_assert_eq!(sum_bits, m.bits);
        let max_fan: u64 = m.per_round.iter().map(|r| r.max_fan_in).max().unwrap_or(0);
        prop_assert_eq!(max_fan, m.max_fan_in);
    }

    /// Recovered nodes re-enter the address-oblivious contact
    /// distribution: after a one-round crash batch fully recovers, the
    /// previously crashed nodes both initiate again (initiators return
    /// to n) and are hit by other nodes' uniformly random pushes — no
    /// sender state remembers them as dead.
    #[test]
    fn recovered_nodes_reenter_the_contact_distribution(
        n in 8usize..200,
        seed in 0u64..1000,
        // Stays below the adversary budget (max_crashed_frac/2 of the
        // smallest n) so the full batch always lands.
        batch in 1u32..4,
    ) {
        let mut net: Network<St> = Network::new(n, seed);
        net.set_churn(
            ChurnConfig {
                crash_rate: 1.0,
                batch_size: batch,
                recovery_rate: 1.0,
                start_round: 1,
                stop_round: Some(2),
                ..ChurnConfig::default()
            },
            seed ^ 0xC4,
        );
        let push_round = |net: &mut Network<St>| {
            net.round(
                |_ctx, _rng| Action::Push { to: Target::Random, msg: Blob(1) },
                |_s| None,
                |s, d| if matches!(d, Delivery::Push { .. }) { s.got += 1 },
            )
        };
        prop_assert_eq!(push_round(&mut net).initiators as usize, n);
        let crashed_round = push_round(&mut net);
        prop_assert_eq!(crashed_round.initiators as usize, n - batch as usize);
        // Full recovery at the next boundary: everyone initiates again.
        let recovered_round = push_round(&mut net);
        prop_assert_eq!(recovered_round.initiators as usize, n);
        prop_assert_eq!(net.metrics().crashes, u64::from(batch));
        prop_assert_eq!(net.metrics().recoveries, u64::from(batch));
        // Re-entry on the receiving side: with everyone pushing one
        // random target per round, 40 more rounds leave the chance of
        // any fixed node never being contacted below e^-40 — a miss here
        // means recovered nodes fell out of the sampling distribution.
        for _ in 0..40 {
            push_round(&mut net);
        }
        for (i, s) in net.states().iter().enumerate() {
            prop_assert!(s.got > 0, "node {i} was never contacted after recovery");
        }
    }

    /// Direct addressing hits exactly the addressed node; unknown IDs
    /// deliver nothing but still count as initiated.
    #[test]
    fn direct_addressing_is_precise(n in 3usize..200, seed in 0u64..1000, target in 1usize..100) {
        let target = target % (n - 1) + 1;
        let mut net: Network<St> = Network::new(n, seed);
        let tid = net.id_of(phonecall::NodeIdx(target as u32));
        net.round(
            |ctx, _rng| {
                if ctx.idx.0 == 0 {
                    Action::Push { to: Target::Direct(tid), msg: Blob(2) }
                } else {
                    Action::Idle
                }
            },
            |_s| None,
            |s, d| if matches!(d, Delivery::Push { .. }) { s.got += 1 },
        );
        for (i, s) in net.states().iter().enumerate() {
            prop_assert_eq!(s.got, u32::from(i == target), "only the target receives");
        }
    }
}
