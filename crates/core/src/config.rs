//! Run configuration and the explicit constants behind the paper's `Θ(·)`s.
//!
//! The paper states loop lengths and thresholds asymptotically
//! (`Θ(log log n)` iterations, sampling probability `1/C log n`, …). A
//! running implementation must pick constants; this module is the single
//! place they live, so experiments and ablations can vary them. Defaults
//! were validated across `n ∈ [2^8, 2^20]` (see the integration tests and
//! EXPERIMENTS.md).

use phonecall::{
    derive_seed, AsyncConfig, ChurnConfig, DirectAddressing, Engine, FailurePlan, Latency, Network,
    NodeId, NodeIdx, Topology, TrafficConfig,
};
use serde::{Deserialize, Serialize};

use crate::params::{err, ParamError, Value};

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
    const PARAM_KEYS: &'static [&'static str] = &[
        "seed",
        "rumor_bits",
        "source",
        "extra_sources",
        "failures",
        "message_loss",
        "churn",
        "topology",
        "addressing",
        "traffic",
        "engine",
    ];

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

    /// The whole environment as a JSON object: the scalar knobs, the
    /// failure plan as an index array, and the [`ChurnConfig`] nested
    /// under `"churn"` — so a scenario travels through files and perf
    /// records like any algorithm's tunables.
    #[must_use]
    pub fn params(&self) -> Value {
        Value::obj([
            ("seed", u64_value(self.seed)),
            ("rumor_bits", u64_value(self.rumor_bits)),
            ("source", Value::Num(f64::from(self.source))),
            (
                "extra_sources",
                Value::Arr(
                    self.extra_sources
                        .iter()
                        .map(|&s| Value::Num(f64::from(s)))
                        .collect(),
                ),
            ),
            (
                "failures",
                Value::Arr(
                    self.failures
                        .failed()
                        .iter()
                        .map(|i| Value::Num(f64::from(i.0)))
                        .collect(),
                ),
            ),
            ("message_loss", Value::Num(self.message_loss)),
            ("churn", churn_params(&self.churn)),
            ("topology", topology_params(&self.topology)),
            (
                "addressing",
                Value::Str(self.addressing.label().to_string()),
            ),
            ("traffic", traffic_params(&self.traffic)),
            ("engine", engine_params(&self.engine)),
        ])
    }

    /// Applies a JSON object of overrides onto this config, including a
    /// nested `"churn"` object (see [`apply_churn_params`]).
    ///
    /// # Errors
    ///
    /// Rejects unknown keys (listing the valid ones), wrongly typed
    /// values, out-of-range probabilities (naming the offending knob),
    /// and churn configs failing [`ChurnConfig::validate`].
    pub fn apply_params(&mut self, overrides: &Value) -> Result<(), ParamError> {
        for (key, v) in overrides.expect_obj("scenario parameters")? {
            match key.as_str() {
                "seed" => self.seed = want_u64(key, v)?,
                "rumor_bits" => self.rumor_bits = want_u64(key, v)?,
                "source" => self.source = want_u32(key, v)?,
                "extra_sources" => {
                    self.extra_sources = want_u32_array(key, v)?;
                }
                "failures" => {
                    self.failures = FailurePlan::explicit(
                        want_u32_array(key, v)?.into_iter().map(NodeIdx).collect(),
                    );
                }
                "message_loss" => {
                    let p = v.as_f64().ok_or_else(|| {
                        err(format!(
                            "parameter \"message_loss\" wants a number, got {}",
                            v.render()
                        ))
                    })?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(err(format!(
                            "scenario knob \"message_loss\" wants a probability in [0, 1], got {p}"
                        )));
                    }
                    self.message_loss = p;
                }
                "churn" => apply_churn_params(&mut self.churn, v)?,
                "topology" => apply_topology_params(&mut self.topology, v)?,
                "traffic" => apply_traffic_params(&mut self.traffic, v)?,
                "engine" => apply_engine_params(&mut self.engine, v)?,
                "addressing" => {
                    let label = v.as_str().ok_or_else(|| {
                        err(format!(
                            "parameter \"addressing\" wants a string, got {}",
                            v.render()
                        ))
                    })?;
                    self.addressing = DirectAddressing::parse(label).map_err(ParamError)?;
                }
                _ => return Err(unknown_key("scenario", key, Self::PARAM_KEYS)),
            }
        }
        Ok(())
    }
}

/// A [`ChurnConfig`] as a JSON object (the churn half of
/// [`CommonConfig::params`]).
#[must_use]
pub fn churn_params(c: &ChurnConfig) -> Value {
    Value::obj([
        ("crash_rate", Value::Num(c.crash_rate)),
        ("batch_size", Value::Num(f64::from(c.batch_size))),
        ("recovery_rate", Value::Num(c.recovery_rate)),
        ("burst_enter", Value::Num(c.burst_enter)),
        ("burst_exit", Value::Num(c.burst_exit)),
        ("burst_loss", Value::Num(c.burst_loss)),
        ("start_round", u64_value(c.start_round)),
        ("stop_round", c.stop_round.map_or(Value::Null, u64_value)),
        (
            "protected",
            Value::Arr(
                c.protected
                    .iter()
                    .map(|&p| Value::Num(f64::from(p)))
                    .collect(),
            ),
        ),
        ("max_crashed_frac", Value::Num(c.max_crashed_frac)),
    ])
}

const CHURN_PARAM_KEYS: &[&str] = &[
    "crash_rate",
    "batch_size",
    "recovery_rate",
    "burst_enter",
    "burst_exit",
    "burst_loss",
    "start_round",
    "stop_round",
    "protected",
    "max_crashed_frac",
];

/// Applies a JSON object of overrides onto a [`ChurnConfig`] and
/// validates the result.
///
/// # Errors
///
/// Rejects unknown keys (listing the valid ones), wrongly typed values,
/// and any resulting config failing [`ChurnConfig::validate`] (the error
/// names the offending knob).
pub fn apply_churn_params(c: &mut ChurnConfig, overrides: &Value) -> Result<(), ParamError> {
    for (key, v) in overrides.expect_obj("churn parameters")? {
        match key.as_str() {
            "crash_rate" => set_f64(&mut c.crash_rate, key, v)?,
            "batch_size" => set_u32(&mut c.batch_size, key, v)?,
            "recovery_rate" => set_f64(&mut c.recovery_rate, key, v)?,
            "burst_enter" => set_f64(&mut c.burst_enter, key, v)?,
            "burst_exit" => set_f64(&mut c.burst_exit, key, v)?,
            "burst_loss" => set_f64(&mut c.burst_loss, key, v)?,
            "start_round" => c.start_round = want_u64(key, v)?,
            "stop_round" => {
                c.stop_round = match v {
                    Value::Null => None,
                    _ => Some(want_u64(key, v)?),
                }
            }
            "protected" => c.protected = want_u32_array(key, v)?,
            "max_crashed_frac" => set_f64(&mut c.max_crashed_frac, key, v)?,
            _ => return Err(unknown_key("churn", key, CHURN_PARAM_KEYS)),
        }
    }
    c.validate().map_err(ParamError)
}

/// A [`TrafficConfig`] as a JSON object (the workload slice of
/// [`CommonConfig::params`]).
#[must_use]
pub fn traffic_params(t: &TrafficConfig) -> Value {
    Value::obj([
        ("rumors", Value::Num(f64::from(t.rumors))),
        ("arrival_rate", Value::Num(t.arrival_rate)),
        ("bandwidth", Value::Num(f64::from(t.bandwidth))),
        ("start_round", u64_value(t.start_round)),
    ])
}

const TRAFFIC_PARAM_KEYS: &[&str] = &["rumors", "arrival_rate", "bandwidth", "start_round"];

/// Applies a JSON object of overrides onto a [`TrafficConfig`] and
/// validates the result.
///
/// # Errors
///
/// Rejects unknown keys (listing the valid ones), wrongly typed values,
/// and any resulting config failing [`TrafficConfig::validate`] (the
/// error names the offending knob).
pub fn apply_traffic_params(t: &mut TrafficConfig, overrides: &Value) -> Result<(), ParamError> {
    for (key, v) in overrides.expect_obj("traffic parameters")? {
        match key.as_str() {
            "rumors" => set_u32(&mut t.rumors, key, v)?,
            "arrival_rate" => set_f64(&mut t.arrival_rate, key, v)?,
            "bandwidth" => set_u32(&mut t.bandwidth, key, v)?,
            "start_round" => t.start_round = want_u64(key, v)?,
            _ => return Err(unknown_key("traffic", key, TRAFFIC_PARAM_KEYS)),
        }
    }
    t.validate().map_err(ParamError)
}

/// An [`Engine`] as a JSON object (the engine slice of
/// [`CommonConfig::params`]): a `"mode"` tag (`"sync"` / `"async"`),
/// and for the async engine the clock rate plus a kind-tagged latency
/// object — so the execution model travels through files and perf
/// records like any other tunable.
#[must_use]
pub fn engine_params(e: &Engine) -> Value {
    match e {
        Engine::Sync => Value::obj([("mode", Value::Str("sync".into()))]),
        Engine::Async(cfg) => {
            let latency = match cfg.latency {
                Latency::Fixed(v) => Value::obj([
                    ("kind", Value::Str("fixed".into())),
                    ("value", Value::Num(v)),
                ]),
                Latency::Uniform(lo, hi) => Value::obj([
                    ("kind", Value::Str("uniform".into())),
                    ("lo", Value::Num(lo)),
                    ("hi", Value::Num(hi)),
                ]),
                Latency::Exponential(mean) => Value::obj([
                    ("kind", Value::Str("exponential".into())),
                    ("mean", Value::Num(mean)),
                ]),
            };
            Value::obj([
                ("mode", Value::Str("async".into())),
                ("rate", Value::Num(cfg.rate)),
                ("latency", latency),
            ])
        }
    }
}

const ENGINE_PARAM_KEYS: &[&str] = &["mode", "rate", "latency"];
const LATENCY_KINDS: &[&str] = &["fixed", "uniform", "exponential"];

/// Replaces an [`Engine`] from a JSON object (the inverse of
/// [`engine_params`]): the `"mode"` tag selects the engine, `"rate"`
/// and the kind-tagged `"latency"` object tune the async one (both
/// optional — omitted knobs keep the async defaults), and the result
/// must pass [`Engine::validate`].
///
/// # Errors
///
/// Rejects a missing or unknown `"mode"`, knobs on the sync engine,
/// wrongly typed values, an unknown latency `"kind"` (listing the valid
/// ones), and out-of-range knobs (naming the offending one).
pub fn apply_engine_params(e: &mut Engine, overrides: &Value) -> Result<(), ParamError> {
    let entries = overrides.expect_obj("engine parameters")?;
    let knob = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let mode = knob("mode")
        .ok_or_else(|| err("engine parameters need a \"mode\" key".to_string()))?
        .as_str()
        .ok_or_else(|| err("parameter \"mode\" wants a string".to_string()))?;
    let built = match mode {
        "sync" => {
            if let Some((key, _)) = entries.iter().find(|(k, _)| k != "mode") {
                return Err(err(format!(
                    "engine mode \"sync\" has no knobs, got {key:?}"
                )));
            }
            Engine::Sync
        }
        "async" => {
            let mut cfg = AsyncConfig::default();
            for (key, v) in entries {
                match key.as_str() {
                    "mode" => {}
                    "rate" => cfg.rate = want_f64(key, v)?,
                    "latency" => cfg.latency = latency_from_params(v)?,
                    _ => return Err(unknown_key("engine", key, ENGINE_PARAM_KEYS)),
                }
            }
            Engine::Async(cfg)
        }
        other => {
            return Err(err(format!(
                "engine mode wants \"sync\" or \"async\", got {other:?}"
            )))
        }
    };
    built.validate().map_err(ParamError)?;
    *e = built;
    Ok(())
}

/// Parses a kind-tagged latency object (see [`engine_params`]).
fn latency_from_params(v: &Value) -> Result<Latency, ParamError> {
    let entries = v.expect_obj("latency parameters")?;
    let knob = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let kind = knob("kind")
        .ok_or_else(|| err("latency parameters need a \"kind\" key".to_string()))?
        .as_str()
        .ok_or_else(|| err("parameter \"kind\" wants a string".to_string()))?;
    let (built, valid_knobs): (Latency, &[&str]) = match kind {
        "fixed" => {
            let value = match knob("value") {
                Some(v) => want_f64("value", v)?,
                None => return Err(err("latency kind \"fixed\" needs \"value\"".to_string())),
            };
            (Latency::Fixed(value), &["value"])
        }
        "uniform" => {
            let (lo, hi) = match (knob("lo"), knob("hi")) {
                (Some(lo), Some(hi)) => (want_f64("lo", lo)?, want_f64("hi", hi)?),
                _ => {
                    return Err(err(
                        "latency kind \"uniform\" needs \"lo\" and \"hi\"".to_string()
                    ))
                }
            };
            (Latency::Uniform(lo, hi), &["lo", "hi"])
        }
        "exponential" => {
            let mean = match knob("mean") {
                Some(v) => want_f64("mean", v)?,
                None => {
                    return Err(err(
                        "latency kind \"exponential\" needs \"mean\"".to_string()
                    ))
                }
            };
            (Latency::Exponential(mean), &["mean"])
        }
        other => {
            return Err(err(format!(
                "unknown latency kind {other:?}; valid kinds: {}",
                LATENCY_KINDS.join(", ")
            )))
        }
    };
    for (key, _) in entries {
        if key != "kind" && !valid_knobs.contains(&key.as_str()) {
            return Err(err(format!(
                "latency kind {kind:?} does not take knob {key:?}; valid knobs: {}",
                valid_knobs.join(", ")
            )));
        }
    }
    Ok(built)
}

/// A [`Topology`] as a JSON object (the topology half of
/// [`CommonConfig::params`]): a `"kind"` tag plus the family's knobs,
/// so a scenario's contact graph travels through files and perf records
/// like any other tunable.
#[must_use]
pub fn topology_params(t: &Topology) -> Value {
    let kind = |k: &str| ("kind", Value::Str(k.to_string()));
    match t {
        Topology::Complete => Value::obj([kind("complete")]),
        Topology::Ring => Value::obj([kind("ring")]),
        Topology::Torus2D => Value::obj([kind("torus2d")]),
        Topology::RandomRegular(d) => Value::obj([
            kind("random_regular"),
            ("degree", Value::Num(f64::from(*d))),
        ]),
        Topology::ErdosRenyi(p) => Value::obj([kind("erdos_renyi"), ("p", Value::Num(*p))]),
        Topology::WattsStrogatz(k, beta) => Value::obj([
            kind("watts_strogatz"),
            ("k", Value::Num(f64::from(*k))),
            ("beta", Value::Num(*beta)),
        ]),
        Topology::PreferentialAttachment(m) => Value::obj([
            kind("preferential_attachment"),
            ("m", Value::Num(f64::from(*m))),
        ]),
        Topology::FromAdjacency(lists) => Value::obj([
            kind("from_adjacency"),
            (
                "adjacency",
                Value::Arr(
                    lists
                        .iter()
                        .map(|row| {
                            Value::Arr(row.iter().map(|&v| Value::Num(f64::from(v))).collect())
                        })
                        .collect(),
                ),
            ),
        ]),
        Topology::FromFile(path) => {
            Value::obj([kind("from_file"), ("path", Value::Str(path.clone()))])
        }
    }
}

const TOPOLOGY_KINDS: &[&str] = &[
    "complete",
    "ring",
    "torus2d",
    "random_regular",
    "erdos_renyi",
    "watts_strogatz",
    "preferential_attachment",
    "from_adjacency",
    "from_file",
];

/// Replaces a [`Topology`] from a JSON object (the inverse of
/// [`topology_params`]): the `"kind"` tag selects the family, the
/// remaining keys must be exactly that family's knobs, and the result
/// must pass [`Topology::validate`].
///
/// # Errors
///
/// Rejects a missing or unknown `"kind"` (listing the valid ones),
/// knobs that don't belong to the selected family, wrongly typed
/// values, and out-of-range knobs (naming the offending one).
pub fn apply_topology_params(t: &mut Topology, overrides: &Value) -> Result<(), ParamError> {
    let entries = overrides.expect_obj("topology parameters")?;
    let kind = entries
        .iter()
        .find(|(k, _)| k == "kind")
        .map(|(_, v)| v)
        .ok_or_else(|| err("topology parameters need a \"kind\" key".to_string()))?;
    let kind = kind.as_str().ok_or_else(|| {
        err(format!(
            "parameter \"kind\" wants a string, got {}",
            kind.render()
        ))
    })?;
    let knob = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let (built, valid_knobs): (Topology, &[&str]) = match kind {
        "complete" => (Topology::Complete, &[]),
        "ring" => (Topology::Ring, &[]),
        "torus2d" => (Topology::Torus2D, &[]),
        "random_regular" => {
            let d = match knob("degree") {
                Some(v) => want_u32("degree", v)?,
                None => {
                    return Err(err(
                        "topology kind \"random_regular\" needs \"degree\"".to_string()
                    ))
                }
            };
            (Topology::RandomRegular(d), &["degree"])
        }
        "erdos_renyi" => {
            let p = match knob("p") {
                Some(v) => want_f64("p", v)?,
                None => return Err(err("topology kind \"erdos_renyi\" needs \"p\"".to_string())),
            };
            (Topology::ErdosRenyi(p), &["p"])
        }
        "watts_strogatz" => {
            let k = match knob("k") {
                Some(v) => want_u32("k", v)?,
                None => {
                    return Err(err(
                        "topology kind \"watts_strogatz\" needs \"k\"".to_string()
                    ))
                }
            };
            let beta = match knob("beta") {
                Some(v) => want_f64("beta", v)?,
                None => {
                    return Err(err(
                        "topology kind \"watts_strogatz\" needs \"beta\"".to_string()
                    ))
                }
            };
            (Topology::WattsStrogatz(k, beta), &["k", "beta"])
        }
        "preferential_attachment" => {
            let m = match knob("m") {
                Some(v) => want_u32("m", v)?,
                None => {
                    return Err(err(
                        "topology kind \"preferential_attachment\" needs \"m\"".to_string()
                    ))
                }
            };
            (Topology::PreferentialAttachment(m), &["m"])
        }
        "from_adjacency" => {
            let lists = match knob("adjacency") {
                Some(Value::Arr(rows)) => rows
                    .iter()
                    .map(|row| want_u32_array("adjacency", row))
                    .collect::<Result<Vec<_>, _>>()?,
                Some(v) => {
                    return Err(err(format!(
                        "parameter \"adjacency\" wants an array of integer arrays, got {}",
                        v.render()
                    )))
                }
                None => {
                    return Err(err(
                        "topology kind \"from_adjacency\" needs \"adjacency\"".to_string()
                    ))
                }
            };
            (Topology::FromAdjacency(lists), &["adjacency"])
        }
        "from_file" => {
            let path = match knob("path") {
                Some(Value::Str(p)) => p.clone(),
                Some(v) => {
                    return Err(err(format!(
                        "parameter \"path\" wants a string, got {}",
                        v.render()
                    )))
                }
                None => return Err(err("topology kind \"from_file\" needs \"path\"".to_string())),
            };
            (Topology::FromFile(path), &["path"])
        }
        other => {
            return Err(err(format!(
                "unknown topology kind {other:?}; valid kinds: {}",
                TOPOLOGY_KINDS.join(", ")
            )))
        }
    };
    for (key, _) in entries {
        if key != "kind" && !valid_knobs.contains(&key.as_str()) {
            return Err(err(format!(
                "topology knob {key:?} does not apply to kind {kind:?}; valid knobs: {}",
                if valid_knobs.is_empty() {
                    "(none)".to_string()
                } else {
                    valid_knobs.join(", ")
                }
            )));
        }
    }
    built.validate().map_err(ParamError)?;
    *t = built;
    Ok(())
}

/// A `u64` as a JSON value: a plain number when exactly representable
/// as `f64` (≤ 2^53), else a decimal string — JSON numbers are doubles,
/// and silently rounding a 64-bit seed would break exact replay.
fn u64_value(x: u64) -> Value {
    if x <= (1u64 << 53) {
        Value::Num(x as f64)
    } else {
        Value::Str(x.to_string())
    }
}

/// Numeric view of an override value, reporting type errors by key.
fn want_f64(key: &str, v: &Value) -> Result<f64, ParamError> {
    v.as_f64().ok_or_else(|| {
        err(format!(
            "parameter {key:?} wants a number, got {}",
            v.render()
        ))
    })
}

/// Integer view of an override value (a JSON number, or the decimal
/// string [`u64_value`] emits for values above 2^53), reporting type
/// errors by key.
fn want_u64(key: &str, v: &Value) -> Result<u64, ParamError> {
    match v {
        Value::Str(s) => s.parse().map_err(|_| {
            err(format!(
                "parameter {key:?} wants an integer, got {}",
                v.render()
            ))
        }),
        _ => v.as_u64().ok_or_else(|| {
            err(format!(
                "parameter {key:?} wants an integer, got {}",
                v.render()
            ))
        }),
    }
}

fn want_u32(key: &str, v: &Value) -> Result<u32, ParamError> {
    let x = want_u64(key, v)?;
    u32::try_from(x).map_err(|_| err(format!("parameter {key:?} out of range: {x}")))
}

fn want_u32_array(key: &str, v: &Value) -> Result<Vec<u32>, ParamError> {
    match v {
        Value::Arr(items) => items.iter().map(|x| want_u32(key, x)).collect(),
        _ => Err(err(format!(
            "parameter {key:?} wants an array of integers, got {}",
            v.render()
        ))),
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
/// sizes. DESIGN.md §2 documents this substitution.
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

/// Applies one numeric override, reporting type errors by key.
fn set_f64(slot: &mut f64, key: &str, v: &Value) -> Result<(), ParamError> {
    *slot = want_f64(key, v)?;
    Ok(())
}

/// Applies one integer override, reporting type errors by key.
fn set_u32(slot: &mut u32, key: &str, v: &Value) -> Result<(), ParamError> {
    *slot = want_u32(key, v)?;
    Ok(())
}

fn unknown_key(config: &str, key: &str, valid: &[&str]) -> ParamError {
    ParamError(format!(
        "unknown {config} parameter {key:?}; valid keys: {}",
        valid.join(", ")
    ))
}

impl Cluster1Config {
    const PARAM_KEYS: &'static [&'static str] = &[
        "c_sample",
        "c_min",
        "grow_slack",
        "square_safety",
        "pull_slack",
    ];

    /// The tunables (everything except the shared [`CommonConfig`], which
    /// the [`crate::algo::Scenario`] owns) as a JSON object.
    #[must_use]
    pub fn params(&self) -> Value {
        Value::obj([
            ("c_sample", Value::Num(self.c_sample)),
            ("c_min", Value::Num(self.c_min)),
            ("grow_slack", Value::Num(f64::from(self.grow_slack))),
            ("square_safety", Value::Num(self.square_safety)),
            ("pull_slack", Value::Num(f64::from(self.pull_slack))),
        ])
    }

    /// Applies a JSON object of overrides onto this config.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys (listing the valid ones) and wrongly typed
    /// values.
    pub fn apply_params(&mut self, overrides: &Value) -> Result<(), ParamError> {
        for (key, v) in overrides.expect_obj("Cluster1 parameters")? {
            match key.as_str() {
                "c_sample" => set_f64(&mut self.c_sample, key, v)?,
                "c_min" => set_f64(&mut self.c_min, key, v)?,
                "grow_slack" => set_u32(&mut self.grow_slack, key, v)?,
                "square_safety" => set_f64(&mut self.square_safety, key, v)?,
                "pull_slack" => set_u32(&mut self.pull_slack, key, v)?,
                _ => return Err(unknown_key("Cluster1", key, Self::PARAM_KEYS)),
            }
        }
        Ok(())
    }
}

impl Cluster2Config {
    const PARAM_KEYS: &'static [&'static str] = &[
        "c_sample",
        "c_cap",
        "grow_slack",
        "square_safety",
        "bounded_push_stall",
        "bounded_push_slack",
        "pull_slack",
        "assumed_n",
    ];

    /// The tunables as a JSON object (see [`Cluster1Config::params`]).
    #[must_use]
    pub fn params(&self) -> Value {
        Value::obj([
            ("c_sample", Value::Num(self.c_sample)),
            ("c_cap", Value::Num(self.c_cap)),
            ("grow_slack", Value::Num(f64::from(self.grow_slack))),
            ("square_safety", Value::Num(self.square_safety)),
            ("bounded_push_stall", Value::Num(self.bounded_push_stall)),
            (
                "bounded_push_slack",
                Value::Num(f64::from(self.bounded_push_slack)),
            ),
            ("pull_slack", Value::Num(f64::from(self.pull_slack))),
            (
                "assumed_n",
                self.assumed_n.map_or(Value::Null, |n| Value::Num(n as f64)),
            ),
        ])
    }

    /// Applies a JSON object of overrides onto this config.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys (listing the valid ones) and wrongly typed
    /// values.
    pub fn apply_params(&mut self, overrides: &Value) -> Result<(), ParamError> {
        for (key, v) in overrides.expect_obj("Cluster2 parameters")? {
            match key.as_str() {
                "c_sample" => set_f64(&mut self.c_sample, key, v)?,
                "c_cap" => set_f64(&mut self.c_cap, key, v)?,
                "grow_slack" => set_u32(&mut self.grow_slack, key, v)?,
                "square_safety" => set_f64(&mut self.square_safety, key, v)?,
                "bounded_push_stall" => set_f64(&mut self.bounded_push_stall, key, v)?,
                "bounded_push_slack" => set_u32(&mut self.bounded_push_slack, key, v)?,
                "pull_slack" => set_u32(&mut self.pull_slack, key, v)?,
                "assumed_n" => {
                    self.assumed_n = match v {
                        Value::Null => None,
                        _ => Some(v.as_u64().ok_or_else(|| {
                            ParamError(format!(
                                "parameter \"assumed_n\" wants an integer or null, got {}",
                                v.render()
                            ))
                        })? as usize),
                    }
                }
                _ => return Err(unknown_key("Cluster2", key, Self::PARAM_KEYS)),
            }
        }
        Ok(())
    }
}

impl Cluster3Config {
    const PARAM_KEYS: &'static [&'static str] = &["c_headroom", "merge_boost", "c2"];

    /// The tunables as a JSON object; the underlying Cluster2 constants
    /// nest under `"c2"`.
    #[must_use]
    pub fn params(&self) -> Value {
        Value::obj([
            ("c_headroom", Value::Num(self.c_headroom)),
            ("merge_boost", Value::Num(self.merge_boost)),
            ("c2", self.c2.params()),
        ])
    }

    /// Applies a JSON object of overrides onto this config.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys (listing the valid ones) and wrongly typed
    /// values, including inside the nested `"c2"` object.
    pub fn apply_params(&mut self, overrides: &Value) -> Result<(), ParamError> {
        for (key, v) in overrides.expect_obj("Cluster3 parameters")? {
            match key.as_str() {
                "c_headroom" => set_f64(&mut self.c_headroom, key, v)?,
                "merge_boost" => set_f64(&mut self.merge_boost, key, v)?,
                "c2" => self.c2.apply_params(v)?,
                _ => return Err(unknown_key("Cluster3", key, Self::PARAM_KEYS)),
            }
        }
        Ok(())
    }
}

impl PushPullConfig {
    const PARAM_KEYS: &'static [&'static str] = &["loop_slack", "cluster3"];

    /// The tunables as a JSON object; the `Δ`-clustering constants nest
    /// under `"cluster3"`.
    #[must_use]
    pub fn params(&self) -> Value {
        Value::obj([
            ("loop_slack", Value::Num(f64::from(self.loop_slack))),
            ("cluster3", self.cluster3.params()),
        ])
    }

    /// Applies a JSON object of overrides onto this config.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys (listing the valid ones) and wrongly typed
    /// values, including inside the nested `"cluster3"` object.
    pub fn apply_params(&mut self, overrides: &Value) -> Result<(), ParamError> {
        for (key, v) in overrides.expect_obj("ClusterPushPull parameters")? {
            match key.as_str() {
                "loop_slack" => set_u32(&mut self.loop_slack, key, v)?,
                "cluster3" => self.cluster3.apply_params(v)?,
                _ => return Err(unknown_key("ClusterPushPull", key, Self::PARAM_KEYS)),
            }
        }
        Ok(())
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

        // Nested overrides reach the inner config.
        let mut c3 = Cluster3Config::default();
        c3.apply_params(&Value::parse(r#"{"c2": {"pull_slack": 9}}"#).unwrap())
            .unwrap();
        assert_eq!(c3.c2.pull_slack, 9);
    }

    #[test]
    fn common_and_churn_params_round_trip_through_json() {
        let mut common = CommonConfig::default();
        common.seed = 99;
        common.extra_sources = vec![3, 5];
        common.failures = FailurePlan::explicit(vec![NodeIdx(8), NodeIdx(2)]);
        common.message_loss = 0.125;
        common.churn = ChurnConfig {
            crash_rate: 0.25,
            batch_size: 4,
            recovery_rate: 0.1,
            burst_enter: 0.05,
            burst_exit: 0.3,
            burst_loss: 0.6,
            start_round: 2,
            stop_round: Some(40),
            protected: vec![0],
            max_crashed_frac: 0.4,
        };
        let doc = common.params();
        assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
        let mut rebuilt = CommonConfig::default();
        rebuilt.apply_params(&doc).unwrap();
        assert_eq!(rebuilt, common, "apply(params()) is the identity");
    }

    #[test]
    fn full_width_u64_knobs_round_trip_exactly() {
        // JSON numbers are doubles; seeds above 2^53 (e.g. derive_seed
        // outputs) travel as decimal strings so replay stays exact.
        let mut common = CommonConfig::default();
        common.seed = u64::MAX - 12345;
        common.churn.crash_rate = 0.1;
        common.churn.start_round = (1 << 60) + 1;
        common.churn.stop_round = Some(u64::MAX);
        let doc = common.params();
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common, "no f64 rounding of 64-bit knobs");
    }

    #[test]
    fn churn_apply_rejects_bad_keys_and_values() {
        let mut c = ChurnConfig::default();
        let e = apply_churn_params(&mut c, &Value::parse(r#"{"crash_rat": 0.5}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("valid keys"), "{e}");
        let e = apply_churn_params(&mut c, &Value::parse(r#"{"crash_rate": 1.5}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("\"crash_rate\""), "{e}");
        let e = apply_churn_params(&mut c, &Value::parse(r#"{"batch_size": 0.5}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
        // stop_round accepts null.
        apply_churn_params(
            &mut c,
            &Value::parse(r#"{"stop_round": 12, "crash_rate": 0.5}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(c.stop_round, Some(12));
        apply_churn_params(&mut c, &Value::parse(r#"{"stop_round": null}"#).unwrap()).unwrap();
        assert_eq!(c.stop_round, None);
    }

    #[test]
    fn topology_params_round_trip_every_family() {
        for topo in [
            Topology::Complete,
            Topology::Ring,
            Topology::Torus2D,
            Topology::RandomRegular(8),
            Topology::ErdosRenyi(0.125),
            Topology::WattsStrogatz(6, 0.25),
            Topology::PreferentialAttachment(3),
            Topology::FromAdjacency(vec![vec![1], vec![0, 2], vec![1]]),
            Topology::FromFile("tests/data/pa_2k.txt".to_string()),
        ] {
            let doc = topology_params(&topo);
            assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
            let mut rebuilt = Topology::Complete;
            apply_topology_params(&mut rebuilt, &doc).unwrap();
            assert_eq!(rebuilt, topo, "apply(params()) is the identity");
        }
    }

    #[test]
    fn topology_apply_rejects_bad_kinds_knobs_and_values() {
        let mut t = Topology::Complete;
        let e = apply_topology_params(&mut t, &Value::parse(r#"{"kind": "moebius"}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("valid kinds"), "{e}");
        let e =
            apply_topology_params(&mut t, &Value::parse(r#"{"degree": 4}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("\"kind\""), "{e}");
        let e = apply_topology_params(
            &mut t,
            &Value::parse(r#"{"kind": "ring", "degree": 4}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("does not apply"), "{e}");
        let e = apply_topology_params(
            &mut t,
            &Value::parse(r#"{"kind": "random_regular"}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("needs \"degree\""), "{e}");
        let e = apply_topology_params(
            &mut t,
            &Value::parse(r#"{"kind": "erdos_renyi", "p": 7}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("\"p\""), "{e}");
        let e = apply_topology_params(&mut t, &Value::parse(r#"{"kind": "from_file"}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("needs \"path\""), "{e}");
        let e = apply_topology_params(
            &mut t,
            &Value::parse(r#"{"kind": "from_file", "path": 7}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("wants a string"), "{e}");
        let e = apply_topology_params(
            &mut t,
            &Value::parse(r#"{"kind": "from_file", "path": ""}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("\"path\""), "{e}");
        assert_eq!(t, Topology::Complete, "failed applies leave the value");
    }

    #[test]
    fn engine_params_round_trip_every_mode_and_latency() {
        for engine in [
            Engine::Sync,
            Engine::Async(AsyncConfig::default()),
            Engine::Async(AsyncConfig {
                rate: 2.0,
                latency: Latency::Fixed(0.25),
            }),
            Engine::Async(AsyncConfig {
                rate: 0.5,
                latency: Latency::Uniform(0.1, 1.5),
            }),
            Engine::Async(AsyncConfig {
                rate: 1.0,
                latency: Latency::Exponential(0.75),
            }),
        ] {
            let doc = engine_params(&engine);
            assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
            let mut rebuilt = Engine::Sync;
            apply_engine_params(&mut rebuilt, &doc).unwrap();
            assert_eq!(rebuilt, engine, "apply(params()) is the identity");
        }
    }

    #[test]
    fn engine_apply_rejects_bad_modes_knobs_and_values() {
        let mut e = Engine::Sync;
        let err =
            apply_engine_params(&mut e, &Value::parse(r#"{"rate": 1.0}"#).unwrap()).unwrap_err();
        assert!(err.0.contains("\"mode\""), "{err}");
        let err = apply_engine_params(&mut e, &Value::parse(r#"{"mode": "turbo"}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("\"sync\" or \"async\""), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "sync", "rate": 1.0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("no knobs"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "clock": 1.0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("valid keys"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "rate": -1.0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("rate"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "latency": {"kind": "gamma"}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("valid kinds"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "latency": {"kind": "fixed"}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("needs \"value\""), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "latency": {"kind": "uniform", "lo": 0.5}}"#)
                .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("\"lo\" and \"hi\""), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(
                r#"{"mode": "async", "latency": {"kind": "fixed", "value": 0.5, "mean": 1.0}}"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("does not take knob"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(
                r#"{"mode": "async", "latency": {"kind": "uniform", "lo": 2.0, "hi": 1.0}}"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("lo"), "{err}");
        assert_eq!(e, Engine::Sync, "failed applies leave the value");

        // Omitted knobs keep the async defaults.
        apply_engine_params(&mut e, &Value::parse(r#"{"mode": "async"}"#).unwrap()).unwrap();
        assert_eq!(e, Engine::Async(AsyncConfig::default()));
    }

    #[test]
    fn common_params_round_trip_engine() {
        let mut common = CommonConfig::default();
        common.engine = Engine::Async(AsyncConfig {
            rate: 2.0,
            latency: Latency::Uniform(0.2, 0.9),
        });
        let doc = common.params();
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common, "apply(params()) is the identity");
        assert!(
            CommonConfig::PARAM_KEYS.contains(&"engine"),
            "the engine must be addressable as a named override"
        );
    }

    #[test]
    fn common_params_round_trip_topology_and_addressing() {
        let mut common = CommonConfig::default();
        common.topology = Topology::WattsStrogatz(4, 0.5);
        common.addressing = DirectAddressing::Restricted;
        let doc = common.params();
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common);

        let e = rebuilt
            .apply_params(&Value::parse(r#"{"addressing": "tunnel"}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("overlay"), "{e}");
    }

    #[test]
    fn traffic_params_round_trip_through_json() {
        let mut common = CommonConfig::default();
        common.traffic = TrafficConfig {
            rumors: 32,
            arrival_rate: 2.5,
            bandwidth: 3,
            start_round: 4,
        };
        let doc = common.params();
        assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common, "apply(params()) is the identity");
    }

    #[test]
    fn traffic_apply_rejects_bad_keys_and_values() {
        let mut t = TrafficConfig::default();
        let e =
            apply_traffic_params(&mut t, &Value::parse(r#"{"rumor": 5}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("valid keys"), "{e}");
        let e = apply_traffic_params(&mut t, &Value::parse(r#"{"arrival_rate": 0}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("\"arrival_rate\""), "{e}");
        let e =
            apply_traffic_params(&mut t, &Value::parse(r#"{"rumors": 1.5}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
        let mut t = TrafficConfig::default();
        apply_traffic_params(
            &mut t,
            &Value::parse(r#"{"rumors": 8, "bandwidth": 2}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(t.rumors, 8);
        assert_eq!(t.bandwidth, 2);
    }

    #[test]
    fn common_apply_rejects_out_of_range_loss_naming_the_knob() {
        let mut common = CommonConfig::default();
        let e = common
            .apply_params(&Value::parse(r#"{"message_loss": 2}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("\"message_loss\""), "{e}");
        assert!(e.0.contains("probability"), "{e}");
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = CommonConfig::default();
        let b = a.clone().with_seed(9);
        assert_eq!(b.seed, 9);
        assert_eq!(a.rumor_bits, b.rumor_bits);
    }
}
