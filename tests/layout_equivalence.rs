//! Layout-equivalence at the report level: the PR-6 struct-of-arrays
//! engine (packed bitset flags, u32 id plumbing, simulation-owned node
//! scratch, batched contact resolution) must be *behaviorally invisible*.
//!
//! The suites of `golden_reports.rs` pin fixed grid points; this
//! file covers the space *between* them. A proptest draws random
//! `(n, seed, churn, topology, addressing)` corners and asserts two runs
//! produce **bit-identical** `RunReport`s — any hidden state in the
//! arrival log, leader rows, scratch columns or bitsets that leaks across
//! runs, and
//! any draw-order drift that depends on layout, fails here on corners no
//! pinned suite thought to cover. A second test re-proves the
//! thread-count invariance contract at `n = 2^17`, where the bitset
//! word count and scratch columns are large enough that a false-sharing
//! or reuse bug would actually bite.

use optimal_gossip::prelude::*;
use proptest::prelude::*;

use gossip_harness::{run_trials_on, run_trials_seq};

/// Decodes a drawn corner into a scenario. The topology/churn axes are
/// small enums on purpose: each variant exercises a different engine
/// path (complete = flat sampling, ring/random-regular = CSR neighbor
/// scans, churn = adversary bitsets + recovery resets).
fn corner(n: usize, seed: u64, knobs: u32) -> Scenario {
    let mut s = Scenario::broadcast(n).seed(seed);
    match knobs % 4 {
        1 => s = s.topology(Topology::Ring),
        2 if n > 8 => s = s.topology(Topology::RandomRegular(8)),
        3 => s = s.topology(Topology::ErdosRenyi(0.05)),
        _ => {}
    }
    if knobs & 4 != 0 {
        s = s.addressing(DirectAddressing::Restricted);
    }
    if knobs & 8 != 0 {
        s = s.churn(ChurnConfig {
            crash_rate: 0.5,
            batch_size: (n / 32).max(2) as u32,
            recovery_rate: 0.3,
            burst_enter: 0.1,
            burst_exit: 0.4,
            burst_loss: 0.5,
            protected: vec![0],
            ..ChurnConfig::default()
        });
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Two runs of the same drawn corner are bit-identical — across the
    /// clustered algorithm (node-scratch-heavy path) and the engine baseline
    /// (bitset/scratch path), under every knob combination the draw
    /// lands on.
    #[test]
    fn reports_are_bit_identical_on_random_corners(
        n in 64usize..=1200,
        seed in 0u64..=10_000,
        knobs in 0u32..16,
    ) {
        for name in ["Cluster2", "PushPull"] {
            let algo = registry::by_name(name).expect("registry default");
            let scenario = corner(n, seed, knobs);
            let a = algo.run(&scenario);
            let b = algo.run(&scenario);
            prop_assert_eq!(&a, &b, "{} diverged at n={} seed={} knobs={}", name, n, seed, knobs);
            prop_assert!(a.alive > 0 && a.rounds > 0, "degenerate corner");
        }
    }
}

/// The runner's thread-count invariance, at a size where the packed
/// columns are real (2^17 bits = 2 KiB of alive words per network):
/// summaries at 1/2/4/7 worker threads are
/// bit-identical to the sequential runner, on a float-sensitive metric.
#[test]
fn thread_counts_agree_at_2_pow_17() {
    let n = 1 << 17;
    let algo = registry::by_name("PushPull").expect("registry default");
    let trials = 3; // not divisible by 2, 4, or 7
    let metric = |seed: u64| {
        algo.run(&Scenario::broadcast(n).seed(seed))
            .messages_per_node()
    };
    let seq = run_trials_seq(0x17, "PushPull@2^17", trials, metric);
    assert!(seq.mean > 0.0);
    for threads in [1usize, 2, 4, 7] {
        let par = run_trials_on(threads, 0x17, "PushPull@2^17", trials, metric);
        assert_eq!(par, seq, "summary diverged at {threads} threads");
    }
}
