//! The **multi-rumor workload**: K rumors multiplexed over one run under
//! a per-node bandwidth budget.
//!
//! The paper analyzes spreading a *single* rumor; production gossip
//! (membership, pub/sub, CRDT anti-entropy) carries a continuous stream.
//! This module adds that workload as an engine-level layer: K workload
//! rumors originate at seeded random `(node, round)` pairs and then
//! **piggyback on the payload messages the running algorithm already
//! sends** — every delivered push and every delivered pull reply also
//! carries the workload rumors its sender knows and its receiver does
//! not, up to [`TrafficConfig::bandwidth`] rumor payloads per sender per
//! round. Transfers beyond the budget are counted as
//! [`crate::Metrics::budget_drops`] and retried on later contacts.
//!
//! Riding the algorithm's own contact stream is what makes the
//! measurement uniform: all eleven registry algorithms multiplex the
//! same workload without a line of per-algorithm code, and the
//! comparison (throughput, per-rumor latency, fairness) isolates how
//! well each algorithm's *contact pattern* carries heavy traffic.
//!
//! Three invariants the test-suite pins down, mirroring `churn` and
//! `topology`:
//!
//! 1. an **inert** config (`rumors == 0`) installs nothing — runs are
//!    bit-identical to pre-workload builds;
//! 2. an **active** plan is bit-deterministic per `(config, seed)`: the
//!    arrival schedule is pre-generated at install time from its own
//!    seed-derived stream, so the engine RNG draws exactly what it
//!    always drew and no round-time randomness exists at all;
//! 3. the round loop stays **allocation-free**: the node rows of known
//!    rumors (`⌈K/64⌉` words per node), the active list and mask and the
//!    budget counters are all sized at install time
//!    (`crates/phonecall/tests/alloc_steady_state.rs` measures a
//!    traffic-enabled network too).

use serde::{Deserialize, Serialize};

use crate::bitset::{BitMatrix, BitSet};
use crate::rng::rng_from_seed;
use rand::Rng;

/// Knobs of the multi-rumor workload. The default is **inert**
/// (`rumors == 0`): attaching it to a network changes nothing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Number of workload rumors to originate (K). 0 disables the
    /// workload entirely.
    pub rumors: u32,
    /// Expected rumor arrivals per round: inter-arrival gaps are drawn
    /// exponentially with this rate, so `8.0` front-loads a burst and
    /// `0.25` trickles one rumor every ~4 rounds. Must be positive when
    /// `rumors > 0`.
    pub arrival_rate: f64,
    /// Per-node per-round budget of workload rumor payloads a sender may
    /// piggyback (across all its delivered pushes and pull replies of
    /// the round). 0 means unlimited.
    pub bandwidth: u32,
    /// First round (inclusive) at which rumors may arrive.
    pub start_round: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            rumors: 0,
            arrival_rate: 1.0,
            bandwidth: 0,
            start_round: 0,
        }
    }
}

impl TrafficConfig {
    /// Whether this config can ever do anything. Inert configs are not
    /// installed at all, so they cannot perturb determinism or cost
    /// per-round work.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rumors > 0
    }

    /// Validates every knob, naming the offending one in the error.
    ///
    /// # Errors
    ///
    /// Returns a message like
    /// `traffic knob "arrival_rate" wants a positive finite rate, got 0`
    /// for the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.arrival_rate.is_finite() && self.arrival_rate > 0.0) {
            return Err(format!(
                "traffic knob \"arrival_rate\" wants a positive finite rate, got {}",
                self.arrival_rate
            ));
        }
        Ok(())
    }
}

/// Final status of one workload rumor (see
/// [`crate::Network::traffic_summary`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RumorStatus {
    /// Node the rumor originated at.
    pub origin: u32,
    /// Round the rumor entered the network (0-based).
    pub arrival: u64,
    /// Round at which every alive node knew the rumor, if that ever
    /// happened. Latency is `completed - arrival + 1` rounds.
    pub completed: Option<u64>,
    /// Nodes (alive or since crashed) that know the rumor.
    pub informed: u64,
}

impl RumorStatus {
    /// Rounds from arrival to completion, inclusive (`None` while the
    /// rumor is still spreading).
    #[must_use]
    pub fn latency(&self) -> Option<u64> {
        self.completed.map(|c| c - self.arrival + 1)
    }
}

/// What the workload transferred on one delivered payload message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TransferOutcome {
    /// Rumor payloads piggybacked onto the message.
    pub transferred: u32,
    /// Transfers suppressed by the sender's bandwidth budget.
    pub dropped: u32,
}

/// A running instance of the workload over one network: the pre-generated
/// arrival plan, the known rumors as an `n × K` [`BitMatrix`] (a row of
/// `⌈K/64⌉` words per node, so a delivered payload reads two rows and the
/// active mask whatever K is), and the per-round budget ledger. All
/// storage is sized at install time; the round loop never allocates.
#[derive(Debug)]
pub struct TrafficPlan {
    cfg: TrafficConfig,
    /// The workload rumor payload size in bits (each piggybacked
    /// transfer charges this much).
    pub(crate) rumor_bits: u64,
    origins: Vec<u32>,
    arrivals: Vec<u64>,
    completed: Vec<Option<u64>>,
    /// Row `v`, bit `r`: node `v` knows rumor `r`.
    known: BitMatrix,
    /// A row with the bit of every active rumor set.
    active_mask: BitSet,
    /// End-of-round scratch row: active rumors every alive node knows.
    everyone: BitSet,
    /// Indices of rumors that have arrived and not yet completed. Under a
    /// binding budget their order picks which wanted rumors ride.
    active: Vec<u32>,
    /// Next entry of the arrival plan to activate.
    next_arrival: usize,
    /// Rumor payloads each node has piggybacked this round (kept only
    /// under a finite budget).
    budget_used: Vec<u32>,
    /// Nodes with a nonzero `budget_used` entry (sparse reset).
    charged: Vec<u32>,
}

impl TrafficPlan {
    /// Builds a plan for a network of `n` nodes: origins and arrival
    /// rounds are drawn once here, from their own stream, so the
    /// schedule is a pure function of `(config, seed)` — independent of
    /// the engine RNG and of anything that happens during the run.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`TrafficConfig::validate`].
    #[must_use]
    pub fn new(cfg: TrafficConfig, n: usize, rumor_bits: u64, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid traffic plan: {e}");
        }
        let k = cfg.rumors as usize;
        let mut rng = rng_from_seed(seed);
        let mut origins = Vec::with_capacity(k);
        let mut arrivals = Vec::with_capacity(k);
        // Poisson-style arrivals: exponential inter-arrival gaps with
        // mean 1/arrival_rate, accumulated in f64 and floored to rounds
        // (so several rumors can share a round under a high rate).
        let mut clock = cfg.start_round as f64;
        for _ in 0..k {
            origins.push(rng.gen_range(0..n as u32));
            arrivals.push(clock as u64);
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            clock += -u.ln() / cfg.arrival_rate;
        }
        TrafficPlan {
            cfg,
            rumor_bits,
            origins,
            arrivals,
            completed: vec![None; k],
            known: BitMatrix::new(n, k),
            active_mask: BitSet::new(k),
            everyone: BitSet::new(k),
            active: Vec::with_capacity(k),
            next_arrival: 0,
            budget_used: vec![0; n],
            charged: Vec::with_capacity(n),
        }
    }

    /// Round-boundary step: resets the budget ledger (sparsely — only
    /// nodes charged last round) and activates every rumor whose arrival
    /// round has come. Returns the number of rumors started. The origin
    /// learns its rumor even while crashed (state-intact semantics,
    /// matching churn recoveries): a disconnected producer still holds
    /// its data and spreads it once it reconnects.
    pub(crate) fn begin_round(&mut self, round: u64) -> u32 {
        for &node in &self.charged {
            self.budget_used[node as usize] = 0;
        }
        self.charged.clear();
        let mut started = 0;
        while self.next_arrival < self.arrivals.len() && self.arrivals[self.next_arrival] <= round {
            let r = self.next_arrival;
            self.known.set(self.origins[r] as usize, r);
            self.active_mask.set(r);
            self.active.push(r as u32);
            self.next_arrival += 1;
            started += 1;
        }
        started
    }

    /// Piggybacks active rumors onto one delivered payload message from
    /// `src` to `dst`: every rumor the sender knows and the receiver
    /// does not transfers, up to the sender's remaining budget for the
    /// round. Over-budget transfers are counted, not queued — the rumor
    /// simply waits for a later contact. When the budget binds part-way,
    /// the wanted rumors that ride are the first ones in `active` order.
    pub(crate) fn on_payload(&mut self, src: u32, dst: u32) -> TransferOutcome {
        if self.active.is_empty() {
            return TransferOutcome::default();
        }
        let budget = self.cfg.bandwidth;
        let room = if budget == 0 {
            u32::MAX
        } else {
            budget - self.budget_used[src as usize]
        };
        let (s, d, mask) = (src as usize, dst as usize, self.active_mask.words());
        let wanted = self.known.transfer(s, d, mask, room as usize, &self.active) as u32;
        let sent = wanted.min(room);
        if budget > 0 && sent > 0 {
            let used = &mut self.budget_used[src as usize];
            if *used == 0 {
                self.charged.push(src);
            }
            *used += sent;
        }
        TransferOutcome {
            transferred: sent,
            dropped: wanted - sent,
        }
    }

    /// End-of-round completion scan: a rumor completes when every alive
    /// node knows it. One pass ANDs the alive rows into a copy of the
    /// active mask until no active rumor is left in it. Completed rumors
    /// leave the active list by swap-remove, which reorders it, and that
    /// order decides which rumors a binding budget lets through later.
    /// Their completion round freezes — a node crashing afterwards does
    /// not un-complete them. Returns the number completed this round.
    pub(crate) fn end_round(&mut self, round: u64, alive: &BitSet) -> u32 {
        if self.active.is_empty() {
            return 0;
        }
        let everyone = &mut self.everyone;
        everyone.set_all();
        let mut left = everyone.intersect_with(self.active_mask.words());
        for v in alive.iter_ones() {
            if !left {
                break;
            }
            left = everyone.intersect_with(self.known.row(v));
        }
        let mut done = 0;
        let mut i = 0;
        while i < self.active.len() {
            let r = self.active[i] as usize;
            if everyone.get(r) {
                self.completed[r] = Some(round);
                self.active_mask.clear(r);
                self.active.swap_remove(i);
                done += 1;
            } else {
                i += 1;
            }
        }
        done
    }

    /// Per-rumor final status, in arrival order.
    #[must_use]
    pub fn summary(&self) -> Vec<RumorStatus> {
        (0..self.origins.len())
            .map(|r| RumorStatus {
                origin: self.origins[r],
                arrival: self.arrivals[r],
                completed: self.completed[r],
                informed: (0..self.known.rows())
                    .filter(|&v| self.known.get(v, r))
                    .count() as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rumors: u32, rate: f64) -> TrafficConfig {
        TrafficConfig {
            rumors,
            arrival_rate: rate,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn default_is_inert() {
        assert!(!TrafficConfig::default().is_active());
        assert!(cfg(3, 1.0).is_active());
    }

    #[test]
    fn validate_names_the_knob() {
        let bad = cfg(2, 0.0);
        let e = bad.validate().unwrap_err();
        assert!(e.contains("\"arrival_rate\""), "{e}");
        assert!(cfg(2, 0.5).validate().is_ok());
    }

    #[test]
    fn arrivals_are_sorted_and_respect_start_round() {
        let plan = TrafficPlan::new(
            TrafficConfig {
                rumors: 50,
                arrival_rate: 0.7,
                start_round: 9,
                ..TrafficConfig::default()
            },
            64,
            128,
            42,
        );
        assert!(plan.arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.arrivals[0], 9);
        assert!(plan.origins.iter().all(|&o| o < 64));
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let build = |seed| {
            let p = TrafficPlan::new(cfg(20, 2.0), 128, 64, seed);
            (p.origins.clone(), p.arrivals.clone())
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn transfer_moves_known_rumors_once() {
        let mut plan = TrafficPlan::new(cfg(2, 100.0), 8, 64, 1);
        assert_eq!(plan.begin_round(0), 2, "high rate front-loads arrivals");
        let src = plan.origins[0];
        let dst = (src + 1) % 8;
        let t = plan.on_payload(src, dst);
        assert!(t.transferred >= 1);
        // The same contact again transfers nothing new.
        let t2 = plan.on_payload(src, dst);
        assert_eq!(t2, TransferOutcome::default());
    }

    #[test]
    fn bandwidth_budget_caps_and_counts() {
        let mut plan = TrafficPlan::new(
            TrafficConfig {
                rumors: 4,
                arrival_rate: 100.0,
                bandwidth: 1,
                ..TrafficConfig::default()
            },
            8,
            64,
            3,
        );
        plan.begin_round(0);
        // Put all four rumors at node 0 so one contact wants 4 transfers,
        // aimed at a node that is nobody's origin (origins already know
        // their own rumor, which would shrink the want-list).
        for r in 0..4 {
            plan.learn(0, r);
        }
        let dst = (1..8).find(|&d| !plan.origins.contains(&d)).unwrap();
        let t = plan.on_payload(0, dst);
        assert_eq!(t.transferred, 1, "budget of 1 allows one payload");
        assert_eq!(t.dropped, 3, "the rest are counted as budget drops");
        // A new round resets the ledger.
        plan.begin_round(1);
        let t = plan.on_payload(0, dst);
        assert_eq!(t.transferred, 1);
    }

    #[test]
    fn completion_freezes_latency() {
        let n = 4;
        let mut plan = TrafficPlan::new(cfg(1, 100.0), n, 64, 5);
        let alive = BitSet::new_set(n);
        plan.begin_round(0);
        let origin = plan.origins[0];
        assert_eq!(plan.end_round(0, &alive), 0, "not everyone knows yet");
        for d in 0..n as u32 {
            if d != origin {
                plan.on_payload(origin, d);
            }
        }
        assert_eq!(plan.end_round(1, &alive), 1);
        let s = plan.summary();
        assert_eq!(s[0].completed, Some(1));
        assert_eq!(s[0].latency(), Some(2));
        assert_eq!(s[0].informed, n as u64);
        assert!(plan.active.is_empty(), "completed rumors leave the list");
    }

    impl TrafficPlan {
        fn knows(&self, v: u32, r: u32) -> bool {
            self.known.get(v as usize, r as usize)
        }

        fn learn(&mut self, v: u32, r: u32) {
            self.known.set(v as usize, r as usize);
        }
    }

    #[test]
    fn a_binding_budget_follows_the_reordered_active_list() {
        let mut plan = TrafficPlan::new(
            TrafficConfig {
                rumors: 3,
                arrival_rate: 100.0,
                bandwidth: 1,
                ..TrafficConfig::default()
            },
            8,
            64,
            2,
        );
        assert_eq!(plan.begin_round(0), 3);
        for v in 0..8 {
            plan.learn(v, 0);
        }
        assert_eq!(plan.end_round(0, &BitSet::new_set(8)), 1);
        assert_eq!(plan.active, [2, 1], "swap_remove moved rumor 2 first");
        let dst = (0..8)
            .find(|&d| !plan.knows(d, 1) && !plan.knows(d, 2))
            .unwrap();
        let src = (dst + 1) % 8;
        plan.learn(src, 1);
        plan.learn(src, 2);
        plan.begin_round(1);
        let t = plan.on_payload(src, dst);
        assert_eq!((t.transferred, t.dropped), (1, 1));
        assert!(
            plan.knows(dst, 2) && !plan.knows(dst, 1),
            "the one slot goes to the rumor first in active order, not the first to arrive"
        );
    }

    /// The column-major layout the node rows replaced: one n-bit mask per
    /// rumor, and a walk over the whole active list on every payload.
    /// Slow but plainly right, so the node rows must agree with it.
    struct ColumnPlan {
        bandwidth: u32,
        origins: Vec<u32>,
        arrivals: Vec<u64>,
        completed: Vec<Option<u64>>,
        known: Vec<BitSet>,
        active: Vec<u32>,
        next_arrival: usize,
        budget_used: Vec<u32>,
    }

    impl ColumnPlan {
        fn of(plan: &TrafficPlan) -> Self {
            let n = plan.budget_used.len();
            ColumnPlan {
                bandwidth: plan.cfg.bandwidth,
                origins: plan.origins.clone(),
                arrivals: plan.arrivals.clone(),
                completed: vec![None; plan.origins.len()],
                known: plan.origins.iter().map(|_| BitSet::new(n)).collect(),
                active: Vec::new(),
                next_arrival: 0,
                budget_used: vec![0; n],
            }
        }

        fn begin_round(&mut self, round: u64) -> u32 {
            self.budget_used.fill(0);
            let mut started = 0;
            while self.next_arrival < self.arrivals.len()
                && self.arrivals[self.next_arrival] <= round
            {
                self.known[self.next_arrival].set(self.origins[self.next_arrival] as usize);
                self.active.push(self.next_arrival as u32);
                self.next_arrival += 1;
                started += 1;
            }
            started
        }

        fn on_payload(&mut self, src: u32, dst: u32) -> TransferOutcome {
            let mut out = TransferOutcome::default();
            for &r in &self.active {
                let mask = &mut self.known[r as usize];
                if !mask.get(src as usize) || mask.get(dst as usize) {
                    continue;
                }
                if self.bandwidth > 0 && self.budget_used[src as usize] >= self.bandwidth {
                    out.dropped += 1;
                    continue;
                }
                mask.set(dst as usize);
                self.budget_used[src as usize] += 1;
                out.transferred += 1;
            }
            out
        }

        fn end_round(&mut self, round: u64, alive: &BitSet) -> u32 {
            let mut done = 0;
            let mut i = 0;
            while i < self.active.len() {
                let r = self.active[i] as usize;
                if alive.iter_ones().all(|v| self.known[r].get(v)) {
                    self.completed[r] = Some(round);
                    self.active.swap_remove(i);
                    done += 1;
                } else {
                    i += 1;
                }
            }
            done
        }

        fn summary(&self) -> Vec<RumorStatus> {
            (0..self.origins.len())
                .map(|r| RumorStatus {
                    origin: self.origins[r],
                    arrival: self.arrivals[r],
                    completed: self.completed[r],
                    informed: self.known[r].count_ones() as u64,
                })
                .collect()
        }
    }

    /// Drives the node-row plan and the column model through the same
    /// random rounds of arrivals, payloads and alive masks, asserting
    /// agreement on every outcome, every completion count and the final
    /// summary. Returns how many payloads moved some rumors but not all
    /// they wanted, and how many rumors completed.
    fn rows_agree_with_columns(rumors: u32, bandwidth: u32, n: usize, seed: u64) -> (u32, u32) {
        let cfg = TrafficConfig {
            rumors,
            arrival_rate: [0.5, 4.0, 64.0][seed as usize % 3],
            bandwidth,
            start_round: seed % 4,
        };
        let mut plan = TrafficPlan::new(cfg, n, 64, seed);
        let mut model = ColumnPlan::of(&plan);
        let mut rng = rng_from_seed(seed.rotate_left(17));
        let (mut split, mut completed) = (0, 0);
        for round in 0..48 {
            assert_eq!(plan.begin_round(round), model.begin_round(round));
            for _ in 0..rng.gen_range(0..3 * n) {
                let (src, dst) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                let want = model.on_payload(src, dst);
                assert_eq!(
                    plan.on_payload(src, dst),
                    want,
                    "round {round}: {src} -> {dst}"
                );
                split += u32::from(want.transferred > 0 && want.dropped > 0);
            }
            // Mostly everyone alive, sometimes a churned subset, and
            // rarely nobody (every active rumor completes vacuously).
            let p = match rng.gen_range(0..32u32) {
                0 => 0.0,
                1..=8 => 0.5,
                9..=16 => 0.9,
                _ => 1.0,
            };
            let mut alive = BitSet::new(n);
            for v in 0..n {
                if rng.gen_bool(p) {
                    alive.set(v);
                }
            }
            let done = model.end_round(round, &alive);
            assert_eq!(plan.end_round(round, &alive), done, "round {round}");
            assert_eq!(plan.active, model.active, "round {round}");
            completed += done;
        }
        assert_eq!(plan.summary(), model.summary());
        (split, completed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn node_rows_agree_with_per_rumor_columns(
            k in 0..11usize,
            bw in 0..4usize,
            n in 1usize..100,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let rumors = [1, 31, 32, 33, 63, 64, 65, 96, 128, 129, 130][k];
            let _ = rows_agree_with_columns(rumors, [0, 1, 2, 5][bw], n, seed);
        }
    }

    #[test]
    fn node_rows_agree_with_per_rumor_columns_on_every_width() {
        for rumors in [1, 31, 32, 33, 63, 64, 65, 96, 128, 129, 130] {
            for bandwidth in [0, 1, 2, 5] {
                let (mut split, mut completed) = (0, 0);
                for (n, seed) in [(1, 3), (33, 4), (95, 5)] {
                    let (s, c) = rows_agree_with_columns(rumors, bandwidth, n, seed);
                    split += s;
                    completed += c;
                }
                // Guards against a vacuous drive: rumors must complete,
                // and a budget must bind part-way whenever K exceeds it.
                assert!(
                    completed > 0,
                    "K={rumors} bw={bandwidth}: nothing completed"
                );
                if bandwidth > 0 && rumors > bandwidth {
                    assert!(split > 0, "K={rumors} bw={bandwidth}: budget never split");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "\"arrival_rate\"")]
    fn invalid_rate_panics_at_install() {
        let _ = TrafficPlan::new(cfg(1, f64::NAN), 8, 64, 0);
    }
}
