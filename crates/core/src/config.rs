//! Run configuration and the explicit constants behind the paper's `Θ(·)`s.
//!
//! The paper states loop lengths and thresholds asymptotically
//! (`Θ(log log n)` iterations, sampling probability `1/C log n`, …). A
//! running implementation must pick constants; this module is the single
//! place they live, so experiments and ablations can vary them. Defaults
//! were validated across `n ∈ [2^8, 2^20]` (see the integration tests and
//! EXPERIMENTS.md).
//!
//! **The knob rule.** A knob is one row: each cluster config's
//! [`Knobs::knobs`] lists every tunable once, as a name and a typed slot
//! for its field, and the JSON form ([`crate::params::Params`]) and the
//! override errors follow from that list. A knob's range lives in that
//! type's [`Knobs::validate`], which every apply runs: for the four
//! cluster configs, one rule — every `f64` constant finite and positive,
//! every slack at most [`MAX_SLACK`] rounds.
//!
//! The shared [`CommonConfig`] is the environment, not a tunable: it is
//! set in code (through [`crate::algo::Scenario`]'s builders) and has no
//! JSON form. Its own [`CommonConfig::validate`] checks
//! `"message_loss"`; the configs nested in it validate themselves.

use phonecall::knob::{Knob, Slot};
use phonecall::{
    derive_seed, ChurnConfig, DirectAddressing, Engine, FailurePlan, Knobs, Network, NodeId,
    NodeIdx, Topology, TrafficConfig,
};
use serde::{Deserialize, Serialize};

/// Parameters shared by every algorithm run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommonConfig {
    /// Seed for all randomness of the run.
    pub seed: u64,
    /// Rumor size `b` in bits. The paper assumes `b = Ω(log n)`; the
    /// default (256) is a typical small payload.
    pub rumor_bits: u64,
    /// Dense index of the node that initially knows the rumor.
    pub source: u32,
    /// Additional initial rumor holders — the paper's broadcast task
    /// allows the rumor to start at "one node (or multiple nodes)".
    pub extra_sources: Vec<u32>,
    /// Nodes the oblivious adversary fails at time 0.
    pub failures: FailurePlan,
    /// Independent per-message loss probability (transient link failures
    /// — the paper's introduction names these among the failures gossip
    /// tolerates; 0.0 is the base model of Section 2).
    pub message_loss: f64,
    /// The dynamic adversary: mid-run crash batches, recoveries and
    /// Gilbert–Elliott burst loss (see `phonecall::churn`). Inert by
    /// default, in which case nothing is scheduled and runs are
    /// bit-identical to pre-churn builds.
    pub churn: ChurnConfig,
    /// The communication topology (see `phonecall::topology`).
    /// [`Topology::Complete`] — the default — installs nothing, keeping
    /// runs bit-identical to pre-topology builds; anything else confines
    /// address-oblivious contacts to graph neighbors.
    pub topology: Topology,
    /// How direct addressing interacts with a restricted topology:
    /// learned-ID calls cross the graph under
    /// [`DirectAddressing::Overlay`] (default) and are confined to edges
    /// under [`DirectAddressing::Restricted`]. Vacuous on the complete
    /// graph.
    pub addressing: DirectAddressing,
    /// The multi-rumor workload (see `phonecall::TrafficConfig`): K
    /// extra rumors arriving at seeded random `(node, round)` pairs that
    /// piggyback on the algorithm's payload messages under a per-node
    /// per-round bandwidth budget. Inert by default, keeping runs
    /// bit-identical to pre-workload builds.
    pub traffic: TrafficConfig,
    /// The execution engine (see `phonecall::events`):
    /// [`Engine::Sync`] — the default — runs lockstep rounds and
    /// installs nothing, keeping runs bit-identical to pre-async
    /// builds; [`Engine::Async`] drives each schedule step from a
    /// deterministic event queue with exponential activation clocks and
    /// sampled message latencies.
    pub engine: Engine,
}

impl Default for CommonConfig {
    fn default() -> Self {
        CommonConfig {
            seed: 0xC0FFEE,
            rumor_bits: 256,
            source: 0,
            extra_sources: Vec::new(),
            failures: FailurePlan::none(),
            message_loss: 0.0,
            churn: ChurnConfig::default(),
            topology: Topology::Complete,
            addressing: DirectAddressing::Overlay,
            traffic: TrafficConfig::default(),
            engine: Engine::Sync,
        }
    }
}

impl CommonConfig {
    /// Same configuration with a different seed (for multi-trial sweeps).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds an `n`-node network facing this environment: node `i`
    /// starts in `state(i, id)`, the failure plan is applied, and loss,
    /// churn, topology, traffic and engine are installed (inert configs,
    /// the complete topology and the sync engine install nothing).
    ///
    /// Stream labels on the scenario seed: 1/2 are the engine's (ids,
    /// targets), 3 the algorithm's own coins, 4 the churn schedule, 5 the
    /// topology, 6 the traffic plan, and 7/8/9 the async clock/latency/
    /// delivery streams, which `set_engine` derives itself. Every
    /// algorithm builds its network here, so one scenario means one
    /// adversary history, one graph, one rumor stream and one event
    /// timeline whichever algorithm runs.
    #[must_use]
    pub fn network<S>(&self, n: usize, state: impl FnMut(NodeIdx, NodeId) -> S) -> Network<S> {
        let mut net = Network::with_state_fn(n, self.seed, state);
        net.apply_failures(&self.failures);
        net.set_message_loss(self.message_loss);
        net.set_churn(self.churn.clone(), derive_seed(self.seed, 4));
        net.set_topology(
            self.topology.clone(),
            self.addressing,
            derive_seed(self.seed, 5),
        );
        net.set_traffic(
            self.traffic.clone(),
            self.rumor_bits,
            derive_seed(self.seed, 6),
        );
        net.set_engine(self.engine.clone(), self.seed);
        net
    }

    /// Whether this environment fits a network of `n` nodes: `n ≥ 2`,
    /// every node it names (source, extra sources, failures, churn's
    /// protected set) below `n`, and [`Topology::check`]. The network
    /// builders panic where this fails; every registered algorithm calls
    /// it first to report the error instead. It reads no file: a
    /// `FromFile` graph's size is checked where it loads.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob (or `n`).
    pub fn check(&self, n: usize) -> Result<(), String> {
        if n < 2 {
            return Err(format!(
                "scenario size \"n\" wants at least 2 (gossip needs at least two nodes), got {n}"
            ));
        }
        let named = [("source", self.source)]
            .into_iter()
            .chain(self.extra_sources.iter().map(|&i| ("extra_sources", i)))
            .chain(self.failures.failed().iter().map(|i| ("failures", i.0)))
            .chain(self.churn.protected.iter().map(|&i| ("protected", i)));
        for (knob, i) in named {
            if i as usize >= n {
                return Err(format!(
                    "scenario knob {knob:?} names node {i}, outside 0..{n}"
                ));
            }
        }
        self.topology.check(n)
    }

    /// Checks `"message_loss"` (the nested configs validate themselves).
    ///
    /// # Errors
    ///
    /// Returns a message naming the knob when the loss probability is
    /// outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.message_loss) {
            return Err(format!(
                "scenario knob \"message_loss\" wants a probability in [0, 1], got {}",
                self.message_loss
            ));
        }
        Ok(())
    }
}

/// Tuning for [`crate::cluster1`] (Algorithm 1).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster1Config {
    /// Shared parameters.
    pub common: CommonConfig,
    /// `C`: initial leaders are sampled with probability `1/(C·log₂ n)`.
    pub c_sample: f64,
    /// `C'`: the initial cluster-size floor is `C'·log₂ n`
    /// (`ClusterDissolve` threshold). The paper requires `C' ≪ C`.
    pub c_min: f64,
    /// Extra rounds added to the computed `GrowInitialClusters` budget.
    pub grow_slack: u32,
    /// Safety divisor in the squaring schedule `s ← s²/safety` (absorbs
    /// collision losses so the schedule never overshoots real sizes).
    pub square_safety: f64,
    /// Extra rounds added to the computed `UnclusteredNodesPull` budget.
    pub pull_slack: u32,
}

impl Default for Cluster1Config {
    fn default() -> Self {
        Cluster1Config {
            common: CommonConfig::default(),
            c_sample: 8.0,
            c_min: 1.0,
            grow_slack: 3,
            square_safety: 4.0,
            pull_slack: 4,
        }
    }
}

/// Tuning for [`crate::cluster2`] (Algorithm 2).
///
/// The paper's exponents (`1/C log⁴ n` sampling, `C' log³ n` caps) only
/// separate scales at astronomically large `n`; at laptop scales
/// (`n ≤ 2^22`) they degenerate (e.g. `√n/log² n < 1`). We keep the
/// *mechanisms* — a `Θ(n/log n)` clustered backbone, growth-stall
/// detection at `2 − 1/log n`, continuous resizing, squaring with a
/// `1/log n` hit-rate penalty, a bounded PUSH before the final PULL — and
/// use one power of `log n` less so every phase is exercised at practical
/// sizes (README, "Deviations from the paper").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster2Config {
    /// Shared parameters.
    pub common: CommonConfig,
    /// Initial leaders are sampled with probability
    /// `1/(c_sample·log₂² n)`.
    pub c_sample: f64,
    /// Size cap during controlled growth is `c_cap·log₂ n`; together with
    /// `c_sample = c_cap` this makes the clustered backbone plateau at
    /// `≈ n/log₂ n` nodes exactly when the stall rule `2 − 1/log n`
    /// triggers.
    pub c_cap: f64,
    /// Extra rounds for the growth loop beyond the computed budget.
    pub grow_slack: u32,
    /// Safety divisor in the squaring schedule `s ← s²·f/safety`.
    pub square_safety: f64,
    /// Growth-stall threshold of `BoundedClusterPush` (paper: 1.1).
    pub bounded_push_stall: f64,
    /// Extra rounds for `BoundedClusterPush` beyond the computed budget.
    pub bounded_push_slack: u32,
    /// Extra rounds for the final PULL phase.
    pub pull_slack: u32,
    /// The network size the *nodes believe* (guess-test-and-double,
    /// Section 2). `None` means the true `n` is known — the paper's
    /// default assumption. All sampling probabilities and round budgets
    /// are computed from this value when set.
    pub assumed_n: Option<usize>,
}

impl Default for Cluster2Config {
    fn default() -> Self {
        Cluster2Config {
            common: CommonConfig::default(),
            c_sample: 8.0,
            c_cap: 8.0,
            grow_slack: 4,
            square_safety: 4.0,
            bounded_push_stall: 1.1,
            bounded_push_slack: 4,
            pull_slack: 4,
            assumed_n: None,
        }
    }
}

impl Cluster2Config {
    /// The size the protocol's parameters are computed from: the assumed
    /// size when set (guess-test-and-double), else the true size.
    #[must_use]
    pub fn parameter_n(&self, true_n: usize) -> usize {
        self.assumed_n.unwrap_or(true_n).max(2)
    }
}

/// Tuning for [`crate::cluster3`] (Algorithm 4 — `Δ`-clustering).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster3Config {
    /// Shared parameters.
    pub common: CommonConfig,
    /// Underlying Cluster2-style growth/squaring constants.
    pub c2: Cluster2Config,
    /// `C''`: cluster-size head-room below `Δ`. Working sizes are
    /// `Δ/c_headroom`; resizing bounds clusters by `2Δ/C''` and a single
    /// recruit round can at most double that before the next resize, so
    /// `C'' ≥ 5` keeps every transient (`4Δ/C''` plus pull-round joins)
    /// strictly below `Δ`.
    pub c_headroom: f64,
    /// Activation multiplier in `MergeClusters` (paper: 10).
    pub merge_boost: f64,
}

impl Default for Cluster3Config {
    fn default() -> Self {
        Cluster3Config {
            common: CommonConfig::default(),
            c2: Cluster2Config::default(),
            c_headroom: 5.0,
            merge_boost: 10.0,
        }
    }
}

/// Tuning for [`crate::cluster_push_pull`] (Algorithm 3).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PushPullConfig {
    /// Shared parameters.
    pub common: CommonConfig,
    /// The `Δ`-clustering construction parameters.
    pub cluster3: Cluster3Config,
    /// Extra main-loop iterations beyond the computed
    /// `⌈log n / log Δ'⌉` budget.
    pub loop_slack: u32,
}

impl Default for PushPullConfig {
    fn default() -> Self {
        PushPullConfig {
            common: CommonConfig::default(),
            cluster3: Cluster3Config::default(),
            loop_slack: 3,
        }
    }
}

/// The largest slack any cluster config accepts, in rounds: far above
/// any useful schedule, and far below where `budget + slack` could wrap
/// a `u32` (every computed budget is a few hundred rounds at most).
pub const MAX_SLACK: u32 = 1 << 20;

/// The cluster configs' range rule, read off their knob rows: every
/// `f64` knob is an algorithm constant and must be finite and positive,
/// every integer knob is a slack of at most [`MAX_SLACK`] rounds, and
/// nested configs must pass their own rule.
fn check_constants(what: &str, mut cfg: impl Knobs) -> Result<(), String> {
    for (knob, slot) in cfg.knobs() {
        let (wants, got) = match slot {
            Slot::F64(x) if !(x.is_finite() && *x > 0.0) => ("a finite number > 0".into(), *x),
            Slot::U32(s) if *s > MAX_SLACK => {
                (format!("at most {MAX_SLACK} rounds"), f64::from(*s))
            }
            Slot::Nested(inner) => {
                inner.validate()?;
                continue;
            }
            _ => continue,
        };
        return Err(format!("{what} knob {knob:?} wants {wants}, got {got}"));
    }
    Ok(())
}

/// The tunables (everything except the shared [`CommonConfig`], which
/// the [`crate::algo::Scenario`] owns).
impl Knobs for Cluster1Config {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        vec![
            ("c_sample", Slot::F64(&mut self.c_sample)),
            ("c_min", Slot::F64(&mut self.c_min)),
            ("grow_slack", Slot::U32(&mut self.grow_slack)),
            ("square_safety", Slot::F64(&mut self.square_safety)),
            ("pull_slack", Slot::U32(&mut self.pull_slack)),
        ]
    }

    fn validate(&self) -> Result<(), String> {
        check_constants("Cluster1", self.clone())
    }
}

/// The tunables (see [`Cluster1Config`]'s); `"assumed_n"` is `null`
/// when the true `n` is known.
impl Knobs for Cluster2Config {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        vec![
            ("c_sample", Slot::F64(&mut self.c_sample)),
            ("c_cap", Slot::F64(&mut self.c_cap)),
            ("grow_slack", Slot::U32(&mut self.grow_slack)),
            ("square_safety", Slot::F64(&mut self.square_safety)),
            (
                "bounded_push_stall",
                Slot::F64(&mut self.bounded_push_stall),
            ),
            (
                "bounded_push_slack",
                Slot::U32(&mut self.bounded_push_slack),
            ),
            ("pull_slack", Slot::U32(&mut self.pull_slack)),
            ("assumed_n", Slot::OptUsize(&mut self.assumed_n)),
        ]
    }

    fn validate(&self) -> Result<(), String> {
        check_constants("Cluster2", self.clone())
    }
}

/// The tunables; the underlying Cluster2 constants nest under `"c2"`.
impl Knobs for Cluster3Config {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        vec![
            ("c_headroom", Slot::F64(&mut self.c_headroom)),
            ("merge_boost", Slot::F64(&mut self.merge_boost)),
            ("c2", Slot::Nested(&mut self.c2)),
        ]
    }

    fn validate(&self) -> Result<(), String> {
        check_constants("Cluster3", self.clone())
    }
}

/// The tunables; the `Δ`-clustering constants nest under `"cluster3"`.
impl Knobs for PushPullConfig {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        vec![
            ("loop_slack", Slot::U32(&mut self.loop_slack)),
            ("cluster3", Slot::Nested(&mut self.cluster3)),
        ]
    }

    fn validate(&self) -> Result<(), String> {
        check_constants("ClusterPushPull", self.clone())
    }
}

/// `log₂ n`, floored at 1 (the ubiquitous `L` of the budget formulas).
#[must_use]
pub fn log2n(n: usize) -> f64 {
    (n.max(2) as f64).log2().max(1.0)
}

/// `log₂ log₂ n`, floored at 1 (`LL` of the budget formulas).
#[must_use]
pub fn loglog2n(n: usize) -> f64 {
    log2n(n).log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Params, Value};

    #[test]
    fn defaults_are_sane() {
        let c1 = Cluster1Config::default();
        assert!(c1.c_min < c1.c_sample, "the paper requires C' << C");
        let c2 = Cluster2Config::default();
        assert!(
            (c2.c_sample - c2.c_cap).abs() < f64::EPSILON,
            "plateau calibration"
        );
        assert!(c2.bounded_push_stall > 1.0);
        let c3 = Cluster3Config::default();
        assert!(
            c3.c_headroom >= 4.0,
            "transient doubling must stay under delta"
        );
    }

    #[test]
    fn log_helpers() {
        assert!((log2n(1024) - 10.0).abs() < 1e-9);
        assert!((loglog2n(1 << 16) - 4.0).abs() < 1e-9);
        assert!((log2n(1) - 1.0).abs() < 1e-9, "floored at 1");
        assert!((loglog2n(2) - 1.0).abs() < 1e-9, "floored at 1");
    }

    #[test]
    fn params_round_trip_through_json() {
        let docs = [
            Cluster1Config::default().params(),
            Cluster2Config::default().params(),
            Cluster3Config::default().params(),
            PushPullConfig::default().params(),
        ];
        for p in docs {
            assert_eq!(Value::parse(&p.render()).unwrap(), p);
        }
    }

    #[test]
    fn apply_own_params_is_identity() {
        let mut c2 = Cluster2Config::default();
        c2.apply_params(&Cluster2Config::default().params())
            .unwrap();
        assert_eq!(c2, Cluster2Config::default());

        let mut pp = PushPullConfig::default();
        pp.apply_params(&PushPullConfig::default().params())
            .unwrap();
        assert_eq!(pp, PushPullConfig::default());
    }

    #[test]
    fn apply_params_overrides_and_rejects() {
        let mut c2 = Cluster2Config::default();
        c2.apply_params(&Value::parse(r#"{"c_sample": 4, "assumed_n": 4096}"#).unwrap())
            .unwrap();
        assert!((c2.c_sample - 4.0).abs() < f64::EPSILON);
        assert_eq!(c2.assumed_n, Some(4096));
        c2.apply_params(&Value::parse(r#"{"assumed_n": null}"#).unwrap())
            .unwrap();
        assert_eq!(c2.assumed_n, None);

        let err = c2
            .apply_params(&Value::parse(r#"{"nope": 1}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("valid keys"), "{err}");
        let err = c2
            .apply_params(&Value::parse(r#"{"grow_slack": 1.5}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("integer"), "{err}");

        // A failed override leaves the config unchanged, even the knobs
        // it set before reaching the bad one.
        let mut fresh = Cluster2Config::default();
        let err = fresh
            .apply_params(&Value::parse(r#"{"c_sample": 4, "grow_slack": 1.5}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("integer"), "{err}");
        assert_eq!(
            fresh,
            Cluster2Config::default(),
            "failed applies leave the value"
        );

        // Nested overrides reach the inner config.
        let mut c3 = Cluster3Config::default();
        c3.apply_params(&Value::parse(r#"{"c2": {"pull_slack": 9}}"#).unwrap())
            .unwrap();
        assert_eq!(c3.c2.pull_slack, 9);
    }

    #[test]
    fn full_width_u64_knobs_round_trip_exactly() {
        // JSON numbers are doubles; `assumed_n` values above 2^53 travel
        // as decimal strings so replay stays exact. 2^53 + 1 is the
        // first integer a double cannot hold.
        let c2 = Cluster2Config {
            assumed_n: Some((1 << 53) + 1),
            ..Cluster2Config::default()
        };
        let doc = c2.params();
        assert_eq!(
            doc.get("assumed_n"),
            Some(&Value::Str("9007199254740993".into()))
        );
        let mut rebuilt = Cluster2Config::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, c2, "assumed_n survives a round trip exactly");
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = CommonConfig::default();
        let b = a.clone().with_seed(9);
        assert_eq!(b.seed, 9);
        assert_eq!(a.rumor_bits, b.rumor_bits);
    }
}
