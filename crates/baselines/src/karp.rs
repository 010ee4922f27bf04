//! Karp et al. (FOCS 2000)-style **counter-terminated PUSH-PULL**:
//! `Θ(log n)` rounds with only `O(log log n)`-ish rumor transmissions per
//! node on average.
//!
//! The rumor carries its birth round; with synchronous rounds every node
//! can evaluate the rumor's age locally. An informed node **pushes** only
//! while the age is at most [`push_phase_rounds`]`(n) =
//! ⌈0.65·log₂ n + c₁·log log n⌉` (the exponential growth phase —
//! stopping here keeps total pushes a geometric sum of `O(n)` instead of
//! letting a saturated network push for the whole coupon-collector tail);
//! uninformed nodes PULL every round, and the protocol runs
//! `⌈c₂·log log n⌉ + 2` further rounds in which only those pulls and the
//! informed answers remain (the quadratic-shrinking end-game). Each node
//! therefore transmits the
//! (large, `b`-bit) rumor `O(1)` times on average with an
//! `O(log log n)`-round transmission window, while header-only pull
//! requests are accounted separately — matching the accounting of \[10\],
//! whose `O(n log log n)` bound counts transmissions.
//!
//! This is the age-based variant of \[10\]; their address-oblivious
//! median-counter refinement (which removes the need to know `n` exactly)
//! has the same complexity envelope, which is all the paper's comparison
//! uses (README, "Deviations from the paper").

use gossip_core::config::{log2n, loglog2n};
use gossip_core::report::RunReport;
use gossip_core::CommonConfig;
use phonecall::Target;

use crate::common::{report_from, rumor_network, rumor_round, Call};

/// `c₁`: push-phase extension in units of `log log n`.
const C1: f64 = 1.0;
/// `c₂`: pull end-game length in units of `log log n`.
const C2: f64 = 5.0;

/// Rounds of the push phase for a network of `n` nodes:
/// `⌈0.65·log₂ n + c₁·log log n⌉`. An informed node pushes while the
/// rumor's age is at most this.
///
/// While few nodes are informed, each round's pushes double the informed
/// set and the uninformed pulls add about as many again, a growth factor
/// near 3, so `log₃ n ≈ 0.63·log₂ n` rounds reach saturation. The window
/// closes `c₁·log log n` rounds after `0.65·log₂ n`, just past that
/// point, so the post-saturation overhang — during which the whole
/// network pushes — costs only `O(log log n)` transmissions per node.
/// Pushing longer is exactly what the counter-termination exists to
/// avoid.
#[must_use]
pub fn push_phase_rounds(n: usize) -> u64 {
    (0.65 * log2n(n) + C1 * loglog2n(n)).ceil() as u64
}

/// Total protocol rounds for a network of `n` nodes.
#[must_use]
pub fn total_rounds(n: usize) -> u64 {
    push_phase_rounds(n) + (C2 * loglog2n(n)).ceil() as u64 + 2
}

/// Runs the counter-terminated PUSH-PULL for its fixed schedule (the
/// protocol terminates itself; no global observer is consulted).
///
/// ```
/// use gossip_baselines::{karp, CommonConfig};
/// let report = karp::run(1 << 10, &CommonConfig::default());
/// assert!(report.success);
/// // The headline: O(1) rumor transmissions per node on average.
/// assert!(report.payload_messages_per_node() < 20.0);
/// ```
#[must_use]
pub fn run(n: usize, cfg: &CommonConfig) -> RunReport {
    let mut net = rumor_network(n, cfg);
    let push_until = push_phase_rounds(n);
    for _ in 0..total_rounds(n) {
        rumor_round(&mut net, cfg.rumor_bits, |ctx| {
            let s = ctx.state;
            if !s.informed {
                Some(Call::Pull(Target::Random))
            } else if ctx.round.saturating_sub(s.birth) <= push_until {
                Some(Call::Push(Target::Random))
            } else {
                None
            }
        });
    }
    report_from(&net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informs_everyone() {
        for seed in 0..5 {
            let mut cfg = CommonConfig::default();
            cfg.seed = seed;
            let r = run(1 << 10, &cfg);
            assert!(r.success, "seed {seed}: {}/{}", r.informed, r.alive);
        }
    }

    #[test]
    fn transmissions_per_node_stay_flat() {
        let cfg = CommonConfig::default();
        let small = run(1 << 9, &cfg);
        let large = run(1 << 15, &cfg);
        assert!(small.success && large.success);
        let growth = large.payload_messages_per_node() / small.payload_messages_per_node();
        assert!(growth < 1.8, "transmission growth {growth}");
        let push_large = crate::push::run(1 << 15, &cfg);
        assert!(
            large.payload_messages_per_node() < push_large.payload_messages_per_node(),
            "karp {} must beat push {}",
            large.payload_messages_per_node(),
            push_large.payload_messages_per_node()
        );
    }

    #[test]
    fn rounds_are_logarithmic() {
        let cfg = CommonConfig::default();
        let r = run(1 << 12, &cfg);
        assert_eq!(
            r.rounds,
            total_rounds(1 << 12),
            "fixed self-terminating schedule"
        );
        assert!(
            r.rounds as f64 <= 3.0 * log2n(1 << 12) + 40.0,
            "rounds {}",
            r.rounds
        );
    }

    #[test]
    fn tolerates_failures() {
        let mut cfg = CommonConfig::default();
        cfg.failures = phonecall::FailurePlan::random(1 << 10, 128, 3);
        let r = run(1 << 10, &cfg);
        assert!(r.success, "{}/{} informed", r.informed, r.alive);
    }
}
