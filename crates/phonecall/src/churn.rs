//! The **dynamic adversary**: mid-run churn and burst message loss.
//!
//! Section 8 of the paper treats an *oblivious time-0* adversary — a
//! fixed set of nodes dies before round 0 ([`crate::FailurePlan`]) and
//! the links stay reliable (modulo the independent per-message `loss`
//! knob). This module extends the threat model to the dynamic setting
//! that separates structured (clustered) gossip from the memoryless
//! baselines:
//!
//! * **crash events** — with probability [`ChurnConfig::crash_rate`] per
//!   round, a *correlated batch* of [`ChurnConfig::batch_size`] alive
//!   nodes crashes together (a contiguous index range from a random
//!   anchor, modelling rack/zone-correlated failures rather than
//!   independent coin flips per node);
//! * **recoveries** — every node the dynamic adversary crashed comes
//!   back with probability [`ChurnConfig::recovery_rate`] per round,
//!   with its state intact (a disconnection, not a reset). Time-0
//!   [`crate::FailurePlan`] failures remain permanent;
//! * **burst loss** — a Gilbert–Elliott two-state chain: the network
//!   enters a *bad* state with probability [`ChurnConfig::burst_enter`]
//!   per round, leaves it with [`ChurnConfig::burst_exit`], and while
//!   bad every message is additionally lost with probability
//!   [`ChurnConfig::burst_loss`], composed with the engine's base `loss`
//!   knob for that round.
//!
//! The adversary stays **oblivious**: every event is drawn from its own
//! seed-derived stream (`derive_seed(schedule_seed, round)`), never from
//! the engine's target-sampling RNG and never from algorithm state. Two
//! consequences the test-suite pins down:
//!
//! 1. an *inert* config (all rates zero) leaves the engine's random
//!    stream untouched — every pre-churn golden digest still holds;
//! 2. an *active* schedule is bit-deterministic per `(config, seed)`:
//!    identical runs replay identical crash/recovery/burst histories.
//!
//! [`AdversarySchedule::advance`] mutates the alive mask in place and
//! allocates nothing, preserving the engine's zero-allocation round
//! loop (`crates/phonecall/tests/alloc_steady_state.rs` measures a
//! churn-enabled network too).

use serde::{Deserialize, Serialize};

use crate::bitset::BitSet;
use crate::rng::{derive_seed, rng_from_seed};
use rand::Rng;

/// Knobs of the dynamic adversary. The default is **inert** (all rates
/// zero): attaching it to a network changes nothing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Probability per round that a crash batch fires.
    pub crash_rate: f64,
    /// Nodes crashed per batch (a contiguous index range from a random
    /// anchor — correlated failures). Must be at least 1.
    pub batch_size: u32,
    /// Probability per round, per adversary-crashed node, of recovering
    /// (state intact). Time-0 failure-plan deaths never recover.
    pub recovery_rate: f64,
    /// Gilbert–Elliott chain: probability per round of entering the bad
    /// (bursty) state while good.
    pub burst_enter: f64,
    /// Gilbert–Elliott chain: probability per round of leaving the bad
    /// state.
    pub burst_exit: f64,
    /// Additional per-message loss probability while the chain is bad,
    /// composed with the engine's base loss knob for that round.
    pub burst_loss: f64,
    /// First round (inclusive) at which the adversary may crash nodes or
    /// enter the bad state. Recoveries and burst *exits* happen at any
    /// round, so a `[start, stop)` window models a bounded outage whose
    /// after-effects drain naturally.
    pub start_round: u64,
    /// Round (exclusive) after which no new crashes or burst entries
    /// happen; `None` means the adversary never stands down.
    pub stop_round: Option<u64>,
    /// Node indices the adversary never crashes (e.g. the rumor source,
    /// so coverage under churn measures dissemination rather than the
    /// trivial loss of the only copy).
    pub protected: Vec<u32>,
    /// Cap on the fraction of the network the dynamic adversary may hold
    /// crashed at once (its budget; time-0 failures don't count against
    /// it).
    pub max_crashed_frac: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            crash_rate: 0.0,
            batch_size: 1,
            recovery_rate: 0.0,
            burst_enter: 0.0,
            burst_exit: 0.0,
            burst_loss: 0.0,
            start_round: 0,
            stop_round: None,
            protected: Vec::new(),
            max_crashed_frac: 0.5,
        }
    }
}

impl ChurnConfig {
    /// Whether this config can ever do anything. Inert configs are not
    /// scheduled at all, so they cannot perturb determinism or cost
    /// per-round work.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0 || self.recovery_rate > 0.0 || self.burst_enter > 0.0
    }

    /// Validates every knob, naming the offending one in the error.
    ///
    /// # Errors
    ///
    /// Returns a message like
    /// `churn knob "crash_rate" wants a probability in [0, 1], got 1.5`
    /// for the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        for (knob, value) in [
            ("crash_rate", self.crash_rate),
            ("recovery_rate", self.recovery_rate),
            ("burst_enter", self.burst_enter),
            ("burst_exit", self.burst_exit),
            ("burst_loss", self.burst_loss),
            ("max_crashed_frac", self.max_crashed_frac),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!(
                    "churn knob {knob:?} wants a probability in [0, 1], got {value}"
                ));
            }
        }
        if self.batch_size == 0 {
            return Err("churn knob \"batch_size\" wants an integer >= 1, got 0".to_string());
        }
        if let Some(stop) = self.stop_round {
            if stop < self.start_round {
                return Err(format!(
                    "churn knob \"stop_round\" ({stop}) must not precede \"start_round\" ({})",
                    self.start_round
                ));
            }
        }
        Ok(())
    }
}

/// What the adversary did at one round boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnRound {
    /// Nodes crashed at this boundary.
    pub crashed: u32,
    /// Nodes recovered at this boundary.
    pub recovered: u32,
    /// Whether the loss chain is in the bad state this round.
    pub bursting: bool,
}

/// A running instance of the dynamic adversary over one network.
///
/// Holds the Gilbert–Elliott chain state and the set of nodes *it*
/// crashed (the only ones it may recover). All randomness derives from
/// `derive_seed(seed, round)`, so the schedule is a pure function of
/// `(config, seed, round history)` — independent of the engine RNG.
#[derive(Clone, Debug)]
pub struct AdversarySchedule {
    cfg: ChurnConfig,
    seed: u64,
    bursting: bool,
    /// Packed mask: nodes currently crashed *by this schedule*.
    crashed_by_us: BitSet,
    /// Packed mask of [`ChurnConfig::protected`].
    protected: BitSet,
    crashed_count: usize,
    max_crashed: usize,
}

impl AdversarySchedule {
    /// Builds a schedule for a network of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`ChurnConfig::validate`] or a
    /// protected index is outside `0..n`.
    #[must_use]
    pub fn new(cfg: ChurnConfig, n: usize, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid churn schedule: {e}");
        }
        let mut protected = BitSet::new(n);
        for &p in &cfg.protected {
            assert!(
                (p as usize) < n,
                "churn knob \"protected\" references node {p} outside 0..{n}"
            );
            protected.set(p as usize);
        }
        let max_crashed = (cfg.max_crashed_frac * n as f64).floor() as usize;
        AdversarySchedule {
            cfg,
            seed,
            bursting: false,
            crashed_by_us: BitSet::new(n),
            protected,
            crashed_count: 0,
            max_crashed,
        }
    }

    /// The configuration this schedule runs.
    #[must_use]
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Whether the loss chain is currently in the bad state.
    #[must_use]
    pub fn is_bursting(&self) -> bool {
        self.bursting
    }

    /// Number of nodes currently held crashed by this schedule.
    #[must_use]
    pub fn crashed_count(&self) -> usize {
        self.crashed_count
    }

    /// The extra per-message loss probability in force this round
    /// (`burst_loss` while bursting, else 0).
    #[must_use]
    pub fn extra_loss(&self) -> f64 {
        if self.bursting {
            self.cfg.burst_loss
        } else {
            0.0
        }
    }

    /// Executes the round-`round` boundary: steps the burst chain, rolls
    /// recoveries, then rolls a crash batch, mutating `alive` in place.
    ///
    /// Allocation-free; randomness comes from a fresh stream derived
    /// from `(seed, round)`, so one boundary's draw count never shifts
    /// another boundary's events.
    ///
    /// # Panics
    ///
    /// Panics if `alive` is not the length the schedule was built for.
    pub fn advance(&mut self, round: u64, alive: &mut BitSet) -> ChurnRound {
        let n = self.crashed_by_us.len();
        assert_eq!(alive.len(), n, "alive mask length changed under churn");
        // detlint: allow(stream_label) — self.seed is the schedule's private churn stream (derived from the scenario seed with reserved label 4 at wiring), so per-round labels cannot alias anyone else's
        let mut rng = rng_from_seed(derive_seed(self.seed, round));
        let cfg = &self.cfg;
        let in_window = round >= cfg.start_round && cfg.stop_round.is_none_or(|stop| round < stop);

        // Burst chain: exits roll every round, entries only in-window.
        if self.bursting {
            if cfg.burst_exit > 0.0 && rng.gen_bool(cfg.burst_exit) {
                self.bursting = false;
            }
        } else if in_window && cfg.burst_enter > 0.0 && rng.gen_bool(cfg.burst_enter) {
            self.bursting = true;
        }

        // Recoveries (every round: an ended outage drains naturally).
        // Word-streams the crashed set — one coin per crashed node, in
        // index order, exactly as the dense-mask engine drew them.
        let mut recovered = 0u32;
        if cfg.recovery_rate > 0.0 && self.crashed_count > 0 {
            for wi in 0..self.crashed_by_us.words().len() {
                let mut w = self.crashed_by_us.words()[wi];
                while w != 0 {
                    let i = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    if rng.gen_bool(cfg.recovery_rate) {
                        self.crashed_by_us.clear(i);
                        alive.set(i);
                        self.crashed_count -= 1;
                        recovered += 1;
                    }
                }
            }
        }

        // Crash batch: a contiguous alive range from a random anchor
        // (correlated failures), bounded by the adversary's budget.
        let mut crashed = 0u32;
        if in_window && cfg.crash_rate > 0.0 && rng.gen_bool(cfg.crash_rate) {
            let mut i = rng.gen_range(0..n as u32) as usize;
            for _ in 0..n {
                if crashed >= cfg.batch_size || self.crashed_count >= self.max_crashed {
                    break;
                }
                if alive.get(i) && !self.protected.get(i) {
                    alive.clear(i);
                    self.crashed_by_us.set(i);
                    self.crashed_count += 1;
                    crashed += 1;
                }
                i += 1;
                if i == n {
                    i = 0;
                }
            }
        }

        ChurnRound {
            crashed,
            recovered,
            bursting: self.bursting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy() -> ChurnConfig {
        ChurnConfig {
            crash_rate: 1.0,
            batch_size: 4,
            recovery_rate: 0.5,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn default_is_inert_and_valid() {
        let c = ChurnConfig::default();
        assert!(!c.is_active());
        c.validate().expect("default must validate");
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let mut c = ChurnConfig::default();
        c.crash_rate = 1.5;
        assert!(c.validate().unwrap_err().contains("\"crash_rate\""));
        let mut c = ChurnConfig::default();
        c.burst_loss = -0.1;
        assert!(c.validate().unwrap_err().contains("\"burst_loss\""));
        let mut c = ChurnConfig::default();
        c.batch_size = 0;
        assert!(c.validate().unwrap_err().contains("\"batch_size\""));
        let mut c = ChurnConfig::default();
        c.start_round = 10;
        c.stop_round = Some(5);
        assert!(c.validate().unwrap_err().contains("\"stop_round\""));
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sched = AdversarySchedule::new(crashy(), 64, seed);
            let mut alive = BitSet::new_set(64);
            let mut history = Vec::new();
            for round in 0..32 {
                history.push(sched.advance(round, &mut alive));
            }
            (history, alive)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds, different histories");
    }

    #[test]
    fn crashes_and_recoveries_move_the_alive_mask() {
        let mut sched = AdversarySchedule::new(crashy(), 32, 3);
        let mut alive = BitSet::new_set(32);
        let ev = sched.advance(0, &mut alive);
        assert_eq!(ev.crashed, 4, "crash_rate 1.0 fires a full batch");
        assert_eq!(alive.len() - alive.count_ones(), 4);
        assert_eq!(sched.crashed_count(), 4);
        // Recovery at rate 0.5 eventually brings everyone back once the
        // budget stops new crashes... run until the counts settle.
        let mut total_recovered = 0u32;
        for round in 1..64 {
            total_recovered += sched.advance(round, &mut alive).recovered;
        }
        assert!(total_recovered > 0, "some nodes recovered");
    }

    #[test]
    fn protected_nodes_never_crash() {
        let cfg = ChurnConfig {
            crash_rate: 1.0,
            batch_size: 16,
            protected: vec![0, 7],
            max_crashed_frac: 1.0,
            ..ChurnConfig::default()
        };
        let mut sched = AdversarySchedule::new(cfg, 16, 1);
        let mut alive = BitSet::new_set(16);
        for round in 0..8 {
            sched.advance(round, &mut alive);
        }
        assert!(alive.get(0) && alive.get(7), "protected nodes stay alive");
        assert_eq!(
            alive.len() - alive.count_ones(),
            14,
            "everyone else is fair game"
        );
    }

    #[test]
    fn budget_caps_simultaneous_crashes() {
        let cfg = ChurnConfig {
            crash_rate: 1.0,
            batch_size: 100,
            max_crashed_frac: 0.25,
            ..ChurnConfig::default()
        };
        let mut sched = AdversarySchedule::new(cfg, 100, 2);
        let mut alive = BitSet::new_set(100);
        for round in 0..10 {
            sched.advance(round, &mut alive);
        }
        assert_eq!(sched.crashed_count(), 25, "budget = max_crashed_frac * n");
    }

    #[test]
    fn window_bounds_crashes_but_not_recoveries() {
        let cfg = ChurnConfig {
            crash_rate: 1.0,
            batch_size: 8,
            recovery_rate: 0.4,
            start_round: 2,
            stop_round: Some(4),
            ..ChurnConfig::default()
        };
        let mut sched = AdversarySchedule::new(cfg, 64, 5);
        let mut alive = BitSet::new_set(64);
        assert_eq!(sched.advance(0, &mut alive).crashed, 0, "before window");
        assert_eq!(sched.advance(1, &mut alive).crashed, 0);
        let mut total_crashed = 0;
        let mut total_recovered = 0;
        for round in 2..4 {
            let ev = sched.advance(round, &mut alive);
            assert_eq!(ev.crashed, 8, "full batch while the window is open");
            total_crashed += ev.crashed;
            total_recovered += ev.recovered;
        }
        for round in 4..80 {
            let ev = sched.advance(round, &mut alive);
            assert_eq!(ev.crashed, 0, "window closed at round {round}");
            total_recovered += ev.recovered;
        }
        assert_eq!(total_crashed, 16);
        assert_eq!(total_recovered, 16, "outage drains after the window");
        assert_eq!(alive.count_ones(), alive.len());
    }

    #[test]
    fn burst_chain_visits_both_states() {
        let cfg = ChurnConfig {
            burst_enter: 0.3,
            burst_exit: 0.3,
            burst_loss: 0.9,
            ..ChurnConfig::default()
        };
        assert!(cfg.is_active());
        let mut sched = AdversarySchedule::new(cfg, 8, 7);
        let mut alive = BitSet::new_set(8);
        let mut bad_rounds = 0;
        for round in 0..200 {
            let ev = sched.advance(round, &mut alive);
            assert_eq!(ev.bursting, sched.is_bursting());
            if ev.bursting {
                bad_rounds += 1;
                assert!((sched.extra_loss() - 0.9).abs() < f64::EPSILON);
            } else {
                assert_eq!(sched.extra_loss(), 0.0);
            }
        }
        assert!(
            (20..180).contains(&bad_rounds),
            "chain mixes: {bad_rounds}/200 bad"
        );
        assert_eq!(
            alive.count_ones(),
            alive.len(),
            "pure burst config crashes nobody"
        );
    }

    #[test]
    #[should_panic(expected = "crash_rate")]
    fn invalid_config_rejected_at_construction() {
        let mut cfg = ChurnConfig::default();
        cfg.crash_rate = 7.0;
        let _ = AdversarySchedule::new(cfg, 8, 0);
    }

    #[test]
    #[should_panic(expected = "protected")]
    fn out_of_range_protected_rejected() {
        let cfg = ChurnConfig {
            protected: vec![99],
            ..ChurnConfig::default()
        };
        let _ = AdversarySchedule::new(cfg, 8, 0);
    }
}
