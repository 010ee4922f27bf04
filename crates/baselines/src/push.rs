//! Uniform PUSH gossip: every informed node pushes the rumor to a
//! uniformly random node each round.
//!
//! Classic result (Pittel \[12\]): all nodes informed after
//! `log₂ n + ln n + O(1)` rounds whp. Message complexity is `Θ(log n)` per
//! node because during the coupon-collector tail nearly all `n` nodes keep
//! pushing.

use gossip_core::report::RunReport;
use gossip_core::CommonConfig;
use phonecall::Target;

use crate::common::{round_cap, rumor_network, spread, Call};

/// Runs PUSH gossip until every alive node is informed (or a generous
/// round cap is hit).
///
/// ```
/// use gossip_baselines::{push, CommonConfig};
/// let report = push::run(1 << 10, &CommonConfig::default());
/// assert!(report.success);
/// // Θ(log n) rounds: comfortably above log₂ n, below the cap.
/// assert!(report.rounds >= 10);
/// ```
#[must_use]
pub fn run(n: usize, cfg: &CommonConfig) -> RunReport {
    spread(rumor_network(n, cfg), cfg.rumor_bits, round_cap(n), |ctx| {
        ctx.state.informed.then_some(Call::Push(Target::Random))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informs_everyone() {
        for seed in 0..3 {
            let mut cfg = CommonConfig::default();
            cfg.seed = seed;
            let r = run(512, &cfg);
            assert!(r.success, "seed {seed}");
        }
    }

    #[test]
    fn rounds_scale_logarithmically() {
        let cfg = CommonConfig::default();
        let small = run(1 << 8, &cfg);
        let large = run(1 << 14, &cfg);
        // log₂ n + ln n: 8+5.5=13.5 -> 14+9.7=23.7; ratio ≈ 1.7
        assert!(
            large.rounds > small.rounds,
            "{} vs {}",
            large.rounds,
            small.rounds
        );
        let ratio = large.rounds as f64 / small.rounds as f64;
        assert!((1.2..=2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn message_complexity_is_log_per_node() {
        let cfg = CommonConfig::default();
        let r = run(1 << 12, &cfg);
        let per_node = r.messages_per_node();
        // ≈ rounds in the tail: O(log n), clearly above constant.
        assert!(per_node > 5.0 && per_node < 60.0, "msgs/node {per_node}");
    }

    #[test]
    fn respects_failures() {
        let mut cfg = CommonConfig::default();
        // Seed 3 spares node 0, the default source (the O(f) sparse
        // Fisher–Yates draws a different set than the old full shuffle).
        cfg.failures = phonecall::FailurePlan::random(512, 100, 3);
        let r = run(512, &cfg);
        assert_eq!(r.alive, 412);
        assert!(r.success, "push informs all survivors");
    }
}
