//! Uniform PULL gossip: every *uninformed* node pulls from a uniformly
//! random node each round; informed responders reply with the rumor.
//!
//! From a single source the early phase is slow (a puller finds the rumor
//! with probability `I/n`), but once a constant fraction is informed the
//! uninformed fraction squares every round — the `Θ(log log n)` end-game
//! the paper's `UnclusteredNodesPull` reuses (Lemma 8).

use gossip_core::report::RunReport;
use gossip_core::CommonConfig;
use phonecall::Target;

use crate::common::{round_cap, rumor_network, spread, Call};

/// Runs PULL gossip until every alive node is informed (or the cap).
///
/// ```
/// use gossip_baselines::{pull, CommonConfig};
/// let report = pull::run(512, &CommonConfig::default());
/// assert!(report.success);
/// ```
#[must_use]
pub fn run(n: usize, cfg: &CommonConfig) -> RunReport {
    spread(rumor_network(n, cfg), cfg.rumor_bits, round_cap(n), |ctx| {
        (!ctx.state.informed).then_some(Call::Pull(Target::Random))
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
    fn transmissions_are_linear_requests_logarithmic() {
        let cfg = CommonConfig::default();
        let r = run(1 << 12, &cfg);
        assert!(r.success);
        // Each node is informed by exactly one reply; a few extra replies
        // can land on already-informed pullers in the same round.
        assert!(
            r.payload_messages_per_node() < 2.0,
            "payload replies per node {}",
            r.payload_messages_per_node()
        );
        // Requests dominate: Θ(log n) per node from the slow start.
        assert!(
            r.messages_per_node() > 5.0,
            "requests/node {}",
            r.messages_per_node()
        );
    }

    #[test]
    fn pull_matches_push_round_shape() {
        // Both double per round early; pull's end-game *squares* the
        // uninformed fraction while push pays a coupon-collector tail, so
        // pull finishes at or slightly before push.
        let cfg = CommonConfig::default();
        let pu = run(1 << 10, &cfg);
        let ps = crate::push::run(1 << 10, &cfg);
        assert!(
            pu.rounds <= ps.rounds + 3,
            "pull {} vs push {}",
            pu.rounds,
            ps.rounds
        );
        assert!(
            pu.rounds >= 8,
            "still Θ(log n) from one source: {}",
            pu.rounds
        );
    }
}
