//! The paper's quantitative claims as executable assertions (the
//! lightweight twin of the EXPERIMENTS.md suite; the `exp_*` binaries
//! produce the full tables).

use optimal_gossip::core::config::{log2n, loglog2n};
use optimal_gossip::prelude::*;

fn c2(n: usize, seed: u64) -> RunReport {
    let mut cfg = Cluster2Config::default();
    cfg.common.seed = seed;
    cluster2::run(n, &cfg)
}

/// Theorem 2 (rounds): Cluster2's round count grows like log log n —
/// going from 2^9 to 2^15 (64x more nodes) must barely move it.
#[test]
fn theorem2_round_shape() {
    let small = c2(1 << 9, 1);
    let large = c2(1 << 15, 1);
    assert!(small.success && large.success);
    let ratio = large.rounds as f64 / small.rounds as f64;
    let loglog_ratio = loglog2n(1 << 15) / loglog2n(1 << 9);
    assert!(
        ratio <= loglog_ratio * 1.5,
        "rounds ratio {ratio} should track loglog ratio {loglog_ratio}"
    );
    // And it must be way below the log-n ratio 15/9 = 1.67 scaled PUSH shows.
    assert!(ratio < 1.45, "rounds ratio {ratio}");
}

/// Theorem 2 (messages): messages per node stay O(1) — flat or shrinking
/// in n, and far below PUSH's Θ(log n) at the same size.
#[test]
fn theorem2_message_shape() {
    let small = c2(1 << 10, 2);
    let large = c2(1 << 15, 2);
    assert!(large.messages_per_node() <= small.messages_per_node() * 1.3);
    let mut common = CommonConfig::default();
    common.seed = 2;
    let push_large = push::run(1 << 15, &common);
    // PUSH sends ~log n per node; Cluster2's constant should not exceed a
    // few times that at this size and will win at scale; what must hold
    // strictly is the growth comparison:
    let c2_growth = large.messages_per_node() / small.messages_per_node();
    let push_small = push::run(1 << 10, &common);
    let push_growth = push_large.messages_per_node() / push_small.messages_per_node();
    assert!(
        c2_growth < push_growth,
        "Cluster2 {c2_growth} vs push {push_growth}"
    );
}

/// Theorem 2 (bits): total bits are O(n·b) — with a large rumor the
/// per-node bit cost is a small multiple of b.
#[test]
fn theorem2_bit_shape() {
    let mut cfg = Cluster2Config::default();
    cfg.common.seed = 3;
    cfg.common.rumor_bits = 4096;
    let r = cluster2::run(1 << 12, &cfg);
    assert!(r.success);
    let per_node = r.bits_per_node() / cfg.common.rumor_bits as f64;
    assert!(per_node < 4.0, "bits/node should be O(b): {per_node} * b");
}

/// Theorem 3: below the threshold no algorithm can finish; above it the
/// obstruction vanishes.
#[test]
fn theorem3_threshold() {
    let n = 1 << 14;
    assert_eq!(estimate_success(n, 1, 6, 4), 0.0, "T=1 must always fail");
    assert_eq!(
        estimate_success(n, 2, 6, 4),
        0.0,
        "T=2 must always fail at n=2^14"
    );
    assert!(estimate_success(n, 6, 6, 4) > 0.99, "T=6 must succeed");
}

/// Theorem 9: Cluster1 informs everyone in O(log log n) rounds (shape).
#[test]
fn theorem9_cluster1_shape() {
    let mut cfg = Cluster1Config::default();
    cfg.common.seed = 5;
    let small = cluster1::run(1 << 9, &cfg);
    let large = cluster1::run(1 << 15, &cfg);
    assert!(small.success && large.success);
    assert!((large.rounds as f64) < small.rounds as f64 * 1.5);
}

/// Theorem 4/18: the delta-clustering respects the fan-in bound while
/// staying O(log log n) rounds.
#[test]
fn theorem18_delta_clustering() {
    let mut cfg = Cluster3Config::default();
    cfg.common.seed = 6;
    let (_s_small, small) = cluster3::build(1 << 9, 32, &cfg);
    let (_s_large, large) = cluster3::build(1 << 15, 32, &cfg);
    assert!(small.complete && large.complete);
    assert!(small.max_fan_in <= 32 && large.max_fan_in <= 32);
    assert!(
        (large.rounds as f64) < small.rounds as f64 * 1.5,
        "O(log log n) rounds"
    );
}

/// Lemma 16/17: more fan-in, fewer rounds — the trade-off is monotone
/// and the loop length tracks log n / log delta.
#[test]
fn lemma16_tradeoff_monotone() {
    let n = 1 << 12;
    let loop_rounds = |delta: usize| {
        let mut cfg = PushPullConfig::default();
        cfg.common.seed = 7;
        let r = cluster_push_pull::run(n, delta, &cfg);
        assert!(r.success);
        r.phase_rounds(cluster_push_pull::LOOP_PHASE)
    };
    let r16 = loop_rounds(16);
    let r256 = loop_rounds(256);
    assert!(r256 < r16, "delta=256 ({r256}) must beat delta=16 ({r16})");
    // Quantitative shape: ratio of loop lengths ~ ratio of 1/log(delta').
    let predicted = ((256.0f64 / 4.0).log2() / (16.0f64 / 4.0).log2()).recip();
    let measured = r256 as f64 / r16 as f64;
    assert!(
        (measured / predicted - 1.0).abs() < 0.8,
        "measured ratio {measured} vs predicted {predicted}"
    );
}

/// Theorem 19: with F oblivious failures, all but o(F) survivors learn
/// the rumor (here: at most 2% of F across the grid).
#[test]
fn theorem19_fault_tolerance() {
    for frac in [0.1f64, 0.3] {
        let n = 1 << 12;
        let f = (n as f64 * frac) as usize;
        let mut cfg = Cluster2Config::default();
        cfg.common.seed = 8;
        cfg.common.failures = FailurePlan::random(n, f, 99);
        if cfg.common.failures.failed().iter().any(|i| i.0 == 0) {
            cfg.common.source = (0..n as u32)
                .find(|i| !cfg.common.failures.failed().iter().any(|x| x.0 == *i))
                .unwrap();
        }
        let r = cluster2::run(n, &cfg);
        assert_eq!(r.alive, n - f);
        assert!(
            (r.uninformed() as f64) <= 0.02 * f as f64,
            "frac={frac}: {} uninformed of F={f}",
            r.uninformed()
        );
    }
}

/// The Avin–Elsässer reconstruction sits strictly between Cluster2 and
/// PUSH in round growth (sqrt(log n) between loglog n and log n).
#[test]
fn avin_elsasser_sits_between() {
    let mut common = CommonConfig::default();
    common.seed = 10;
    let growth = |f: &dyn Fn(usize) -> u64| f(1 << 15) as f64 / f(1 << 9) as f64;
    let ae = growth(&|n| avin_elsasser::run(n, &common).rounds);
    let push_g = growth(&|n| push::run(n, &common).rounds);
    assert!(
        ae < push_g,
        "AE round growth {ae} must be below push {push_g}"
    );
}

/// Karp et al.: rumor transmissions per node stay near-flat while plain
/// PUSH's grow with log n.
#[test]
fn karp_transmission_economy() {
    let mut common = CommonConfig::default();
    common.seed = 11;
    let karp_large = karp::run(1 << 15, &common);
    let push_large = push::run(1 << 15, &common);
    assert!(karp_large.success);
    assert!(
        karp_large.payload_messages_per_node() < push_large.payload_messages_per_node(),
        "karp {} vs push {}",
        karp_large.payload_messages_per_node(),
        push_large.payload_messages_per_node()
    );
    // The asymptotic separation (loglog vs log) shows in the growth rate:
    let karp_small = karp::run(1 << 9, &common);
    let push_small = push::run(1 << 9, &common);
    let karp_growth =
        karp_large.payload_messages_per_node() / karp_small.payload_messages_per_node();
    let push_growth =
        push_large.payload_messages_per_node() / push_small.payload_messages_per_node();
    assert!(
        karp_growth < push_growth,
        "karp growth {karp_growth} must be below push growth {push_growth}"
    );
}

/// Section 3.2 footnote: with the size-controlled Cluster2, every single
/// message stays at O(log n + b) bits — no resize announcement ever
/// carries more than O(1) IDs.
#[test]
fn cluster2_message_sizes_stay_logarithmic() {
    let mut cfg = Cluster2Config::default();
    cfg.common.seed = 13;
    cfg.common.rumor_bits = 256;
    for n in [1usize << 10, 1 << 14] {
        let r = cluster2::run(n, &cfg);
        assert!(r.success);
        let l = log2n(n);
        // Envelope: header (4 log n) + payload ≤ rumor + a handful of IDs.
        let envelope = 4.0 * l + 256.0 + 24.0 * (2.0 * l) + 32.0;
        assert!(
            (r.max_message_bits as f64) <= envelope,
            "n={n}: max message {} bits exceeds O(log n + b) envelope {envelope}",
            r.max_message_bits
        );
    }
}

/// The other half of the Section 3.2 footnote: Cluster1 performs
/// ClusterResize on clusters far larger than the target (its first
/// resize splits Θ(log n)-factor oversized clusters), so its largest
/// message carries ω(1) IDs — strictly larger than Cluster2's, whose
/// continuous size control keeps the ratio s'/s at Θ(1).
#[test]
fn cluster1_resize_messages_exceed_cluster2s() {
    let n = 1 << 14;
    let mut c1 = Cluster1Config::default();
    c1.common.seed = 14;
    c1.common.rumor_bits = 64; // small rumor so control messages dominate
    let r1 = cluster1::run(n, &c1);
    let mut c2 = Cluster2Config::default();
    c2.common.seed = 14;
    c2.common.rumor_bits = 64;
    let r2 = cluster2::run(n, &c2);
    assert!(r1.success && r2.success);
    assert!(
        r1.max_message_bits > 2 * r2.max_message_bits,
        "Cluster1 max msg {} bits should dwarf Cluster2's {}",
        r1.max_message_bits,
        r2.max_message_bits
    );
}

/// Sanity anchor for the baselines: PUSH rounds ≈ log2 n + ln n.
#[test]
fn push_matches_pittel_constant() {
    let mut common = CommonConfig::default();
    common.seed = 12;
    let n = 1 << 14;
    let r = push::run(n, &common);
    let predicted = log2n(n) + (n as f64).ln();
    assert!(
        (r.rounds as f64) < predicted * 1.3 && (r.rounds as f64) > predicted * 0.7,
        "push rounds {} vs Pittel {predicted:.1}",
        r.rounds
    );
}
