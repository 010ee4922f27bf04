//! PUSH-PULL gossip: informed nodes push, uninformed nodes pull, every
//! round.
//!
//! In the bidirectional-call formulation of Karp et al. each node calls a
//! random partner and the rumor moves both ways; our model initiates one
//! directed communication per node per round, so PUSH-PULL becomes
//! "informed push, uninformed pull" — the same `log₃ n + O(log log n)`
//! round behaviour (growth factor ≈ 3: pushes double the informed set
//! while pulls add another `I/n` fraction, then the pull end-game squares).

use gossip_core::report::RunReport;
use gossip_core::CommonConfig;
use phonecall::Target;

use crate::common::{round_cap, rumor_network, spread, Call};

/// Runs PUSH-PULL until every alive node is informed (or the cap).
///
/// ```
/// use gossip_baselines::{push_pull, CommonConfig};
/// let report = push_pull::run(512, &CommonConfig::default());
/// assert!(report.success);
/// ```
#[must_use]
pub fn run(n: usize, cfg: &CommonConfig) -> RunReport {
    spread(rumor_network(n, cfg), cfg.rumor_bits, round_cap(n), |ctx| {
        Some(if ctx.state.informed {
            Call::Push(Target::Random)
        } else {
            Call::Pull(Target::Random)
        })
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
    fn beats_plain_push() {
        let cfg = CommonConfig::default();
        let pp = run(1 << 12, &cfg);
        let ps = crate::push::run(1 << 12, &cfg);
        assert!(
            pp.rounds <= ps.rounds,
            "push-pull {} vs push {}",
            pp.rounds,
            ps.rounds
        );
    }

    #[test]
    fn rounds_scale_logarithmically() {
        let cfg = CommonConfig::default();
        let small = run(1 << 8, &cfg);
        let large = run(1 << 14, &cfg);
        let ratio = large.rounds as f64 / small.rounds as f64;
        assert!((1.1..=2.6).contains(&ratio), "ratio {ratio}");
    }
}
