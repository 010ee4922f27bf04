//! Monte-Carlo verification of Theorem 3: with `T` rounds, *any* gossip
//! algorithm — unbounded messages, non-oblivious, unbounded fan-out to
//! known nodes — can succeed only if `diam(∪_{t≤T} G_t) ≤ 2^T`.
//!
//! A trial draws the sample-union graph and decides that inequality
//! exactly. `P[diam ≤ 2^T]` as a function of `T` exhibits the sharp
//! threshold at `T ≈ log₂ log₂ n` that Theorem 3 predicts: for
//! `T ≤ 0.99·log₂ log₂ n` the success probability collapses to `0`, a
//! couple of rounds later it is `1` (experiment E4).

use phonecall::derive_seed;
use serde::Serialize;

use crate::diameter::Sweeps;
use crate::graph::sample_union_graph;

/// Outcome of one lower-bound trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TrialVerdict {
    /// Network size.
    pub n: usize,
    /// Round budget `T`.
    pub t: u32,
    /// Whether `diam(∪ G_t) ≤ 2^T` — i.e. whether *any* algorithm could
    /// possibly inform all nodes within `T` rounds for this randomness.
    pub possible: bool,
    /// Certified diameter lower bound of the drawn graph (`u32::MAX`
    /// encodes disconnected).
    pub diam_lo: u32,
}

/// Runs one trial for `(n, t)` with the given seed.
#[must_use]
pub fn trial(n: usize, t: u32, seed: u64) -> TrialVerdict {
    let g = sample_union_graph(n, t, seed);
    let budget = 1u64 << t.min(62);
    // One sweep run serves both readings: the lower bound after two
    // sweeps, then the decision on the four-sweep bounds.
    let (possible, diam_lo) = Sweeps::start(&g).map_or((false, u32::MAX), |mut s| {
        s.advance_to(2);
        let lo = s.bounds().lo;
        (s.at_most(budget), lo)
    });
    TrialVerdict {
        n,
        t,
        possible,
        diam_lo,
    }
}

/// Estimates `P[diam(∪ G_t) ≤ 2^T]` over `trials` independent draws.
///
/// ```
/// // At T = 1 round, 2-hop knowledge cannot span 4096 nodes:
/// let p = gossip_lowerbound::estimate_success(4096, 1, 10, 7);
/// assert_eq!(p, 0.0);
/// ```
///
/// # Panics
///
/// Panics if `trials` is `0`: the estimate would be `0 / 0`.
#[must_use]
pub fn estimate_success(n: usize, t: u32, trials: u32, seed: u64) -> f64 {
    assert!(
        trials >= 1,
        "estimate_success: `trials` must be at least 1, got 0"
    );
    if t == 0 {
        return if n <= 1 { 1.0 } else { 0.0 };
    }
    let mut ok = 0u32;
    for k in 0..trials {
        // detlint: allow(stream_label) — `seed` is the per-threshold seed handed down by empirical_threshold's own derivation, private to this estimator; trial indices cannot alias engine streams
        if trial(n, t, derive_seed(seed, u64::from(k))).possible {
            ok += 1;
        }
    }
    f64::from(ok) / f64::from(trials)
}

/// The paper's threshold: `0.99·log₂ log₂ n` rounds are not enough whp.
#[must_use]
pub fn paper_threshold(n: usize) -> f64 {
    0.99 * gossip_core::config::loglog2n(n)
}

/// Empirical threshold: the smallest `T` whose estimated success
/// probability reaches ½ (the transition is so sharp that any quantile
/// gives nearly the same answer). Returns `max_t + 1` if success is never
/// reached (cannot happen for `max_t ≥ loglog n + 2`).
///
/// # Panics
///
/// Panics if `trials` is `0` (via [`estimate_success`]).
#[must_use]
pub fn empirical_threshold(n: usize, trials: u32, seed: u64, max_t: u32) -> u32 {
    for t in 1..=max_t {
        // detlint: allow(stream_label) — `seed` here is the lower-bound experiment's own constant (0xE4 and friends), never the shared scenario seed, and no engine stream is derived from it
        if estimate_success(n, t, trials, derive_seed(seed, u64::from(t))) >= 0.5 {
            return t;
        }
    }
    max_t + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_budget_always_fails() {
        // n = 2^12, T = 1: knowledge reaches 2 hops in a graph of average
        // degree 2 — nowhere near spanning.
        assert_eq!(estimate_success(1 << 12, 1, 5, 1), 0.0);
    }

    #[test]
    fn generous_budget_always_succeeds() {
        // T = 8 ≫ log2 log2 n: 2^8 = 256 hops covers any random graph of
        // average degree 16 on 2^12 nodes.
        assert_eq!(estimate_success(1 << 12, 8, 5, 2), 1.0);
    }

    #[test]
    fn threshold_sits_between() {
        let n = 1 << 12;
        let below = estimate_success(n, 2, 8, 3);
        let above = estimate_success(n, 6, 8, 3);
        assert!(below < 0.5, "T=2 should mostly fail, got {below}");
        assert!(above > 0.9, "T=6 should succeed, got {above}");
    }

    #[test]
    fn paper_threshold_value() {
        let t = paper_threshold(1 << 16);
        assert!((t - 3.96).abs() < 1e-9);
    }

    #[test]
    fn empirical_threshold_tracks_loglog() {
        let t10 = empirical_threshold(1 << 10, 6, 5, 8);
        let t16 = empirical_threshold(1 << 16, 6, 5, 8);
        assert!(t10 <= t16, "threshold is monotone in n: {t10} vs {t16}");
        // Both sit within one round of log2 log2 n.
        for (n, t) in [(1usize << 10, t10), (1 << 16, t16)] {
            let ll = gossip_core::config::loglog2n(n);
            assert!(
                (f64::from(t) - ll).abs() <= 1.5,
                "n=2^{}: threshold {t} vs loglog {ll:.2}",
                n.trailing_zeros()
            );
        }
    }

    #[test]
    fn empirical_threshold_saturates_at_cap() {
        // With max_t too small the finder reports max_t + 1.
        assert_eq!(empirical_threshold(1 << 16, 4, 1, 2), 3);
    }

    #[test]
    #[should_panic(expected = "`trials` must be at least 1")]
    fn zero_trials_is_refused() {
        let _ = estimate_success(1 << 10, 3, 0, 1);
    }

    #[test]
    fn trial_reads_both_results_off_one_sweep_run() {
        // The formula `trial` used before the sweeps became resumable:
        // the decision and the 2-sweep lower bound as two separate runs.
        use crate::diameter::{bounds, diameter_at_most};
        for k in 0..50u64 {
            let n = [48, 200, 777, 1 << 10, 1 << 11][k as usize % 5];
            let t = 1 + (k / 5) as u32 % 5;
            let g = sample_union_graph(n, t, k);
            let want = TrialVerdict {
                n,
                t,
                possible: diameter_at_most(&g, 1 << t),
                diam_lo: bounds(&g, 2).map_or(u32::MAX, |b| b.lo),
            };
            assert_eq!(trial(n, t, k), want, "n {n} t {t} seed {k}");
        }
    }

    #[test]
    fn verdict_is_deterministic() {
        let a = trial(512, 3, 42);
        let b = trial(512, 3, 42);
        assert_eq!(a, b);
    }
}
