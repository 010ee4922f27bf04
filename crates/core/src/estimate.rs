//! Success testing and the guess-test-and-double strategy (Section 2).
//!
//! The paper assumes nodes know `n` and argues this is without loss of
//! generality: *"for all problems considered in this paper it is easy to
//! test with high probability whether the algorithm succeeded. This
//! allows for determining the parameter n using the classical
//! guess-test-and-double strategy without increasing the running times by
//! more than a constant factor."* This module implements both halves.
//!
//! * [`broadcast_success_test`] — a 3-round, `O(n)`-message whp test: every
//!   informed node pulls one random node; an uninformed reply raises a
//!   local failure flag, which a `ClusterShare`-style sweep folds into a
//!   network-wide verdict. If `u ≥ 1` nodes are uninformed, some probe
//!   hits one with probability `1 − (1 − u/n)^{n−u}` (≈ `1 − e^{-u}`), so
//!   missing even `log n` stragglers is polynomially unlikely.
//! * [`run_unknown_n`] — runs `Cluster2` with a guessed size, tests, and
//!   re-runs with the guess **squared** until the test passes. Squaring
//!   the guess doubles `log m` per attempt, so `log log m` grows by one
//!   per attempt and the total round count telescopes to
//!   `O(log log n)` — a constant factor over the known-`n` run (doubling
//!   `m` itself would cost a `log n` factor).

use std::cell::Cell;

use phonecall::Target;

use crate::config::Cluster2Config;
use crate::msg::MsgKind;
use crate::node::ClusterNode;
use crate::report::RunReport;
use crate::sim::{pull_round, push_round, to_leader, ClusterSim};

/// Outcome of a whp broadcast-success test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuccessTest {
    /// The verdict every clustered node holds after the test.
    pub verdict: bool,
    /// Rounds the test used.
    pub rounds: u64,
}

/// Runs the 3-round success test on a finished broadcast.
///
/// Round 1: every informed node PULLs a uniformly random node, which
/// answers with its informed bit. Round 2: probes that saw an uninformed
/// node push a failure flag to their leader. Round 3: followers pull the
/// aggregated verdict.
///
/// The verdict is network-wide only if the nodes form one spanning
/// cluster (which the algorithms establish); the engine-side return value
/// reports the leader's verdict for convenience.
pub fn broadcast_success_test(sim: &mut ClusterSim) -> SuccessTest {
    let replies = &mut sim.replies;
    let r0 = sim.net.metrics().rounds;
    // Each node's failure flag, shared by the three rounds. A `Cell`, so a
    // relayed flag is live within its round: under `Engine::Async` it can
    // land before the receiver's own activation reads it.
    let failed = vec![Cell::new(false); sim.net.len()];
    let flag = |s: &ClusterNode| &failed[s.idx.as_usize()];

    // Round 1: probe. An empty reply cannot happen (respond always
    // answers), so the flag is raised exactly by Coin(false) replies.
    for s in sim.net.states() {
        replies.set(s.idx, sim.wire.msg(MsgKind::Coin(s.informed)));
    }
    let ask = |s: &ClusterNode| s.informed.then_some(Target::Random);
    pull_round(&mut sim.net, replies, ask, |s, kind| {
        if kind == MsgKind::Coin(false) {
            flag(s).set(true);
        }
    });

    // Round 2: flag relays to the leader.
    push_round(
        &mut sim.net,
        sim.wire,
        |s| {
            to_leader(s)
                .filter(|_| flag(s).get())
                .map(|to| (to, MsgKind::Coin(false)))
        },
        |s, kind| {
            if kind == MsgKind::Coin(false) {
                flag(s).set(true);
            }
        },
    );

    // Round 3: verdict down. A leader that saw any flag (its own probe or
    // a relayed one) declares failure.
    for s in sim.net.states() {
        if s.is_leader() {
            let ok = !flag(s).get();
            replies.set(s.idx, sim.wire.msg(MsgKind::Coin(ok)));
        }
    }
    pull_round(&mut sim.net, replies, to_leader, |s, kind| {
        // Overwrites: the readout below may key on a stale-pointer
        // follower, which must hold its leader's verdict.
        if let MsgKind::Coin(ok) = kind {
            flag(s).set(!ok);
        }
    });

    // Engine-side readout: the verdict at the largest cluster's leader.
    let verdict = sim
        .cluster_map()
        .into_iter()
        .max_by_key(|(_, members)| members.len())
        .and_then(|(leader, _)| sim.net.resolve(leader))
        .map(|idx| !failed[idx.as_usize()].get())
        .unwrap_or(false);
    SuccessTest {
        verdict,
        rounds: sim.net.metrics().rounds - r0,
    }
}

/// Report of a guess-test-and-double run.
#[derive(Clone, Debug, PartialEq)]
pub struct UnknownNReport {
    /// The final (successful) run's report.
    pub final_run: RunReport,
    /// Guesses attempted, in order.
    pub guesses: Vec<usize>,
    /// Total rounds over all attempts, tests included.
    pub total_rounds: u64,
    /// Total messages over all attempts.
    pub total_messages: u64,
}

/// Broadcasts on a network of (unknown to the nodes) size `n` by running
/// `Cluster2` with guessed sizes `16, 16², …`, testing after each attempt
/// and squaring the guess on failure.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn run_unknown_n(n: usize, cfg: &Cluster2Config) -> UnknownNReport {
    assert!(n >= 2, "need at least two nodes");
    let mut guesses = Vec::new();
    let mut total_rounds = 0;
    let mut total_messages = 0;
    let mut guess: usize = 16;
    let mut attempt: u64 = 0;
    // Per-attempt seeds run on a dedicated derived stream so the attempt
    // counter never aliases the engine's reserved labels on the shared
    // scenario seed (attempt 1..=6 would collide with them).
    const GUESS_STREAM: u64 = 0x9e57;
    loop {
        guesses.push(guess);
        let mut attempt_cfg = cfg.clone();
        attempt_cfg.assumed_n = Some(guess);
        attempt_cfg.common.seed = phonecall::derive_seed(
            phonecall::derive_seed(cfg.common.seed, GUESS_STREAM),
            attempt,
        );
        let mut sim = ClusterSim::new(n, &attempt_cfg.common);
        let run = crate::cluster2::run_on(&mut sim, &attempt_cfg);
        let test = broadcast_success_test(&mut sim);
        total_rounds += run.rounds + test.rounds;
        total_messages += run.messages;
        // A correct test verdict is available to every node; the paper's
        // protocol restarts with a squared guess on failure. `guess ≥ n`
        // always passes whp, so termination is certain.
        if test.verdict && run.informed == run.alive {
            return UnknownNReport {
                final_run: run,
                guesses,
                total_rounds,
                total_messages,
            };
        }
        guess = guess.saturating_mul(guess).min(u32::MAX as usize);
        attempt += 1;
        assert!(attempt < 12, "guess-test-and-double failed to terminate");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::follow::Follow;
    use phonecall::NodeIdx;

    /// One spanning cluster, everyone informed except `holdouts`.
    fn finished_broadcast(n: usize, holdouts: usize) -> ClusterSim {
        let mut sim = ClusterSim::new(n, &CommonConfig::default());
        let leader = sim.net.id_of(NodeIdx(0));
        for i in 0..n {
            let s = &mut sim.net.states_mut()[i];
            s.follow = Follow::Of(leader);
            s.informed = i >= holdouts || i == 0;
        }
        sim
    }

    #[test]
    fn test_passes_on_full_coverage() {
        let mut sim = finished_broadcast(256, 0);
        let t = broadcast_success_test(&mut sim);
        assert!(t.verdict);
        assert_eq!(t.rounds, 3);
    }

    #[test]
    fn test_catches_missing_nodes() {
        // 32 of 256 uninformed: ~224 probes, miss probability (1-1/8)^224.
        let mut sim = finished_broadcast(256, 32);
        // Node 0 is the source/leader and must stay informed; holdouts are 1..32.
        let t = broadcast_success_test(&mut sim);
        assert!(!t.verdict, "32 holdouts must be detected");
    }

    #[test]
    fn unknown_n_terminates_and_succeeds() {
        let cfg = Cluster2Config::default();
        let r = run_unknown_n(1 << 10, &cfg);
        assert!(r.final_run.success);
        assert!(!r.guesses.is_empty());
        assert!(
            *r.guesses.last().unwrap() <= (1usize << 10).pow(2),
            "guess stops near n"
        );
    }

    #[test]
    fn unknown_n_squares_guesses() {
        let cfg = Cluster2Config::default();
        let r = run_unknown_n(600, &cfg);
        for w in r.guesses.windows(2) {
            assert_eq!(w[1], w[0] * w[0], "guesses square");
        }
    }
}
