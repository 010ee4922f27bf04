//! Integration contract of the multi-rumor workload
//! (`phonecall::traffic`) across the whole stack: scenario-level
//! determinism, inertness of the default config, schedule-sharing
//! across algorithms, and composition with churn and topologies.
//!
//! The canonical traffic scenario of `tests/golden_reports.rs` pins
//! exact digests; this suite pins the *properties* those digests rely
//! on, plus the digests of one scenario wider than a 32-bit word of
//! rumors.

use optimal_gossip::prelude::*;

/// The canonical E13-style workload: eight rumors at one arrival per
/// round, unlimited bandwidth.
fn loaded(n: usize) -> Scenario {
    Scenario::broadcast(n).rumors(8, 1.0)
}

#[test]
fn loaded_runs_are_bit_identical_per_seed() {
    let scenario = loaded(256).seed(11);
    for algo in registry::all() {
        let a = algo.run(&scenario);
        let b = algo.run(&scenario);
        assert_eq!(a, b, "{} diverged under workload", algo.name());
    }
}

#[test]
fn inert_traffic_leaves_runs_bit_identical() {
    // The default (inert) config installs nothing: attaching it must
    // not perturb a single digest — this is what keeps every
    // pre-workload golden row valid.
    let quiet = Scenario::broadcast(256).seed(7);
    let attached = Scenario::broadcast(256)
        .seed(7)
        .bandwidth(3) // a budget with no rumors budgets nothing
        .rumor_bits(CommonConfig::default().rumor_bits);
    for algo in registry::all() {
        assert_eq!(
            algo.run(&quiet),
            algo.run(&attached),
            "{} perturbed by an inert workload",
            algo.name()
        );
    }
}

#[test]
fn workload_actually_rides_the_messages() {
    // Guard against a silently detached workload: rumors must transfer,
    // bits must grow by exactly the piggybacked payloads, and the
    // message count must not move (payloads widen messages, they never
    // add any).
    let algo = registry::by_name("cluster2").unwrap();
    let quiet = algo.run(&Scenario::broadcast(256).seed(11));
    let r = algo.run(&loaded(256).seed(11));
    assert_eq!(r.rumors.len(), 8, "all eight rumors are reported");
    assert!(r.rumor_payloads > 0, "the workload must have transferred");
    assert_eq!(r.messages, quiet.messages, "piggybacking adds no messages");
    assert_eq!(
        r.bits,
        quiet.bits + r.rumor_payloads * CommonConfig::default().rumor_bits,
        "bits grow by exactly the piggybacked payloads"
    );
}

#[test]
fn one_scenario_means_one_arrival_plan_for_every_algorithm() {
    // The workload stream is seed-derived (label 6), independent of the
    // algorithm: every algorithm must face the same (origin, round)
    // arrival plan.
    let scenario = loaded(256).seed(3);
    let reference: Vec<(u32, u64)> = registry::by_name("push")
        .unwrap()
        .run(&scenario)
        .rumors
        .iter()
        .map(|s| (s.origin, s.arrival))
        .collect();
    assert_eq!(reference.len(), 8);
    for algo in registry::all() {
        let got: Vec<(u32, u64)> = algo
            .run(&scenario)
            .rumors
            .iter()
            .map(|s| (s.origin, s.arrival))
            .collect();
        assert_eq!(got, reference, "{} saw a different plan", algo.name());
    }
}

#[test]
fn workload_composes_with_churn_and_topology() {
    // The full E13 stack: workload + dynamic adversary + restricted
    // topology in one run, bit-deterministic and still reporting.
    let churn = ChurnConfig {
        crash_rate: 0.5,
        batch_size: 4,
        recovery_rate: 0.2,
        start_round: 1,
        stop_round: Some(20),
        protected: vec![0],
        ..ChurnConfig::default()
    };
    let scenario = loaded(256)
        .seed(5)
        .churn(churn)
        .topology(Topology::RandomRegular(8))
        .addressing(DirectAddressing::Overlay);
    let algo = registry::by_name("clusterpushpull").unwrap();
    let a = algo.run(&scenario);
    assert_eq!(a, algo.run(&scenario), "loaded+churned run must be exact");
    assert!(a.rumor_payloads > 0, "workload rode the constrained run");
}

#[test]
fn bandwidth_budget_throttles_but_counts() {
    let algo = registry::by_name("cluster1").unwrap();
    let free = algo.run(&loaded(256).seed(9));
    let choked = algo.run(&loaded(256).seed(9).bandwidth(1));
    assert!(choked.budget_drops > 0, "a budget of 1 must drop transfers");
    assert!(
        choked.rumor_payloads < free.rumor_payloads,
        "the budget must actually throttle"
    );
    assert_eq!(free.budget_drops, 0, "unlimited budget drops nothing");
}

/// Digest of one run of the multi-word scenario: the report's counters
/// plus an FNV-1a fold of every rumor's final status.
type WideDigest = (&'static str, u32, u64, u64, u64, u64, u64, usize, u64);

fn wide_digest(name: &'static str, bandwidth: u32) -> WideDigest {
    let algo = registry::by_name(name).unwrap();
    let r = algo.run(
        &Scenario::broadcast(512)
            .seed(3)
            .rumors(96, 4.0)
            .bandwidth(bandwidth),
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &r.rumors {
        for x in [
            u64::from(s.origin),
            s.arrival,
            s.completed.unwrap_or(u64::MAX),
            s.informed,
        ] {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (
        name,
        bandwidth,
        r.rounds,
        r.messages,
        r.bits,
        r.rumor_payloads,
        r.budget_drops,
        r.rumors_completed(),
        h,
    )
}

#[test]
fn multi_word_rumor_rows_match_golden_digests() {
    // 96 rumors span three 32-bit words of knowledge per node. A budget
    // of 2 binds on most contacts, which pins the budget's choice of
    // which rumor rides; the unlimited rows pin completions across all
    // three words. Only NameDropper completes rumors under the budget,
    // so only its row sees the active-list order that completions
    // reshuffle.
    #[rustfmt::skip]
    const WIDE_GOLDEN: [WideDigest; 7] = [
        ("Cluster2", 2, 79, 14266, 1841868, 3980, 254347, 0, 6324651952990498538),
        ("PushPull", 2, 8, 4446, 859384, 700, 105, 0, 5003411096319316021),
        ("Karp", 2, 28, 5982, 1921784, 2906, 1514, 0, 1763321081536409682),
        ("Cluster2", 0, 79, 14266, 13381324, 49056, 0, 96, 13548224033569014780),
        ("PushPull", 0, 8, 4446, 923640, 951, 0, 0, 16661406131281187992),
        ("Karp", 0, 28, 5982, 2930424, 6846, 0, 0, 4402204461689466861),
        ("NameDropper", 2, 32, 16384, 69215718, 19400, 30675, 10, 3741912548810225743),
    ];
    let got: Vec<WideDigest> = WIDE_GOLDEN.iter().map(|w| wide_digest(w.0, w.1)).collect();
    assert_eq!(got, WIDE_GOLDEN, "the multi-word workload drifted");
}
