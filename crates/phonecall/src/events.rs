//! The **asynchronous event-driven engine**: a second execution mode for
//! [`Network`] in which a round is no longer a lockstep barrier but a
//! *window of timestamped events* drained from a deterministic queue.
//!
//! # Model
//!
//! Synchronous rounds (the paper's model, and [`Network::round`]'s
//! default) fire every node simultaneously and deliver every message
//! instantaneously. Under [`Engine::Async`] each schedule step instead
//! plays out in continuous virtual time:
//!
//! * every alive node **activates once per step**, at an offset drawn
//!   from its exponential activation clock (rate `λ` =
//!   [`AsyncConfig::rate`]) — the classic asynchronous-gossip clock
//!   model, renewed at each step so algorithm schedules keep their
//!   meaning;
//! * every message incurs a **latency** drawn from the configured
//!   [`Latency`] distribution, so deliveries interleave with later
//!   activations — in-flight messages straddle activation boundaries,
//!   and a pull is answered from the responder's state *at request
//!   arrival*, not from a start-of-round snapshot;
//! * loss verdicts are drawn when a message is *sent*, from a stream of
//!   their own.
//!
//! That is all this module decides: *when* nodes activate and messages
//! land, and with which verdict. What an activation resolves to and what
//! a landing costs — boundary moves, topology gating, charging, traffic
//! piggybacking, fan-in, tracing — is the step core (`step.rs`), the
//! very methods the synchronous phases call.
//!
//! The step ends when the queue drains (activation chains are finite:
//! an activation spawns at most one request, a request at most one
//! reply), so causality across steps is preserved — algorithms with
//! exact-round schedules (the oracle tree) still complete — while the
//! *within*-step interleaving, response timing and message ordering are
//! genuinely asynchronous. The run's continuous clock is exposed as
//! [`Network::virtual_time`]; expect each step to cost `Θ(log n / λ)`
//! virtual time (the maximum of `n` exponential clocks) plus the
//! latency tail — the asynchrony tax the E14 experiment measures.
//!
//! # Determinism
//!
//! The queue is a binary heap ordered by [`EventKey`] — `(virtual_time,
//! seq, node)` compared via [`f64::total_cmp`] — and every event carries
//! a unique `seq`, so the order is *total*: no tie ever falls back on
//! allocation order or hash state. Clock offsets, latencies and loss
//! verdicts draw from three dedicated reserved streams
//! ([`crate::rng::ASYNC_CLOCK_STREAM`] / [`ASYNC_LATENCY_STREAM`] /
//! [`ASYNC_DELIVERY_STREAM`]), so installing [`Engine::Sync`] (the
//! default) draws nothing at all and stays bit-identical to builds that
//! predate this module — every pre-async golden digest still holds.
//!
//! [`ASYNC_LATENCY_STREAM`]: crate::rng::ASYNC_LATENCY_STREAM
//! [`ASYNC_DELIVERY_STREAM`]: crate::rng::ASYNC_DELIVERY_STREAM

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::action::{Action, Delivery};
use crate::id::NodeIdx;
use crate::metrics::RoundStats;
use crate::network::{Network, NodeCtx};
use crate::rng::{
    derive_seed, rng_from_seed, ASYNC_CLOCK_STREAM, ASYNC_DELIVERY_STREAM, ASYNC_LATENCY_STREAM,
};
use crate::wire::Wire;

// ----------------------------------------------------------------------
// Configuration
// ----------------------------------------------------------------------

/// Which engine executes [`Network::round`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Engine {
    /// Lockstep synchronous rounds: the paper's model and the default.
    /// Installs nothing — runs are bit-identical to builds that predate
    /// the asynchronous engine.
    #[default]
    Sync,
    /// The event-driven engine of [`crate::events`]: exponential
    /// activation clocks, sampled message latencies, a deterministic
    /// `(time, seq, node)`-ordered queue.
    Async(AsyncConfig),
}

/// Knobs of the asynchronous engine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Rate `λ` of each node's exponential activation clock: the mean
    /// activation offset within a step is `1/λ`.
    pub rate: f64,
    /// The message-latency distribution.
    pub latency: Latency,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            rate: 1.0,
            latency: Latency::default(),
        }
    }
}

/// The longest span of virtual time one knob may stand for — a mean
/// activation gap `1/rate`, a latency parameter. Far above anything a
/// scenario means and far below where the `f64` clock degrades: a
/// subnormal `rate` is positive and finite, yet every gap `-ln(u)/rate`
/// it draws is `+inf`, after which [`Network::virtual_time`] reads `inf`
/// and every later event ties.
const MAX_SPAN: f64 = 1e12;

impl AsyncConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        let ok = self.rate > 0.0 && self.rate.is_finite() && 1.0 / self.rate <= MAX_SPAN;
        if !ok {
            return Err(format!(
                "async engine rate must be positive and finite with 1/rate at most \
                 {MAX_SPAN:e}, got {}",
                self.rate
            ));
        }
        self.latency.validate()
    }
}

/// A message-latency distribution (virtual time from send to arrival).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Latency {
    /// Every message takes exactly this long.
    Fixed(f64),
    /// Uniform on `[lo, hi)`.
    Uniform(f64, f64),
    /// Exponential with the given mean (heavy right tail: stragglers).
    Exponential(f64),
}

impl Default for Latency {
    fn default() -> Self {
        Latency::Fixed(0.5)
    }
}

impl Latency {
    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Latency::Fixed(v) if !(0.0..=MAX_SPAN).contains(&v) => Err(format!(
                "fixed latency must be in [0, {MAX_SPAN:e}], got {v}"
            )),
            Latency::Uniform(lo, hi) if !(0.0 <= lo && lo < hi && hi <= MAX_SPAN) => Err(format!(
                "uniform latency wants 0 <= lo < hi <= {MAX_SPAN:e}, got [{lo}, {hi})"
            )),
            Latency::Exponential(mean) if !(0.0 < mean && mean <= MAX_SPAN) => Err(format!(
                "exponential latency mean must be in (0, {MAX_SPAN:e}], got {mean}"
            )),
            _ => Ok(()),
        }
    }

    /// Stable lowercase family label (the JSON `"kind"` value).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Latency::Fixed(_) => "fixed",
            Latency::Uniform(..) => "uniform",
            Latency::Exponential(_) => "exponential",
        }
    }

    /// Draws one latency.
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            Latency::Fixed(v) => v,
            Latency::Uniform(lo, hi) => rng.gen_range(lo..hi),
            Latency::Exponential(mean) => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -u.ln() * mean
            }
        }
    }
}

impl Engine {
    /// Whether this is the asynchronous engine.
    #[must_use]
    pub fn is_async(&self) -> bool {
        matches!(self, Engine::Async(_))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Engine::Sync => Ok(()),
            Engine::Async(cfg) => cfg.validate(),
        }
    }

    /// Stable spec string: `"sync"`, or `"async:<profile>"` for the
    /// named latency profiles (the `--engine` CLI syntax).
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            Engine::Sync => "sync".into(),
            Engine::Async(cfg) => format!("async:{}", cfg.latency.label()),
        }
    }

    /// The named engine specs with one-line descriptions (the
    /// `--list-engines` catalog).
    #[must_use]
    pub fn catalog() -> &'static [(&'static str, &'static str)] {
        &[
            (
                "sync",
                "lockstep synchronous rounds (the paper's model; default)",
            ),
            (
                "async:fixed",
                "event-driven, exponential clocks (rate 1), fixed latency 0.5",
            ),
            (
                "async:uniform",
                "event-driven, exponential clocks (rate 1), uniform latency [0.1, 1.0)",
            ),
            (
                "async:exp",
                "event-driven, exponential clocks (rate 1), exponential latency (mean 0.5)",
            ),
        ]
    }

    /// The [`AsyncConfig`] behind a named latency profile
    /// (`"fixed"` / `"uniform"` / `"exp"`), case- and
    /// separator-insensitive. `None` for unknown names.
    #[must_use]
    pub fn profile(name: &str) -> Option<AsyncConfig> {
        match normalize(name).as_str() {
            "fixed" => Some(AsyncConfig {
                rate: 1.0,
                latency: Latency::Fixed(0.5),
            }),
            "uniform" => Some(AsyncConfig {
                rate: 1.0,
                latency: Latency::Uniform(0.1, 1.0),
            }),
            "exp" | "exponential" => Some(AsyncConfig {
                rate: 1.0,
                latency: Latency::Exponential(0.5),
            }),
            _ => None,
        }
    }

    /// Parses an engine spec: `"sync"`, `"async"` (the default profile,
    /// `fixed`), or `"async:<profile>"`. Matching is case- and
    /// separator-insensitive, like the algorithm and topology registries.
    ///
    /// # Errors
    ///
    /// Returns a message listing every valid spec for anything else.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let (head, profile) = match spec.split_once(':') {
            Some((h, p)) => (h, Some(p)),
            None => (spec, None),
        };
        let invalid = || {
            let specs: Vec<&str> = Self::catalog().iter().map(|&(s, _)| s).collect();
            format!(
                "unknown engine {spec:?}; valid specs (case-insensitive): {}",
                specs.join(", ")
            )
        };
        match (normalize(head).as_str(), profile) {
            ("sync", None) => Ok(Engine::Sync),
            ("async", None) => Ok(Engine::Async(AsyncConfig::default())),
            ("async", Some(p)) => Engine::profile(p).map(Engine::Async).ok_or_else(invalid),
            _ => Err(invalid()),
        }
    }
}

/// Case- and separator-insensitive key, matching the algorithm and
/// topology registries.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '-' && *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

// ----------------------------------------------------------------------
// The event queue
// ----------------------------------------------------------------------

/// Total order over events: `(virtual_time, seq, node)`.
///
/// `time` compares via [`f64::total_cmp`] and `seq` is unique per event
/// (a single counter stamps activations and messages alike), so the
/// order is total and strict — heap pops are seed-reproducible with no
/// dependence on insertion order.
#[derive(Clone, Copy, Debug)]
pub struct EventKey {
    /// Virtual firing time.
    pub time: f64,
    /// Global stamp order (unique per event).
    pub seq: u64,
    /// The node the event fires *at* (activating node or recipient).
    pub node: u32,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
            .then(self.node.cmp(&other.node))
    }
}

/// An in-flight message: fires at `key.time` at node `key.node`.
struct MsgEv<M> {
    key: EventKey,
    /// The sending node (the puller, for replies the responder).
    src: u32,
    kind: MsgKind<M>,
}

/// What arrives when an in-flight message fires, with the loss verdict
/// it was sent under.
enum MsgKind<M> {
    /// A push payload.
    Push { msg: M, lost: bool },
    /// A pull request, carrying the verdicts of both legs: its own
    /// (`lost`) and the one a reply will travel under (`rep_lost`).
    PullReq { lost: bool, rep_lost: bool },
    /// A pull reply carrying the responder's answer back to the puller.
    PullReply { msg: M, lost: bool },
}

impl<M> PartialEq for MsgEv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<M> Eq for MsgEv<M> {}

impl<M> PartialOrd for MsgEv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for MsgEv<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// The in-flight message heap, min-first. It lives in the network's
/// buffer slot between steps — empty then, since every step drains it —
/// so its allocation grows to the steady-state high-water mark and stays.
type Inflight<M> = BinaryHeap<Reverse<MsgEv<M>>>;

// ----------------------------------------------------------------------
// Engine state
// ----------------------------------------------------------------------

/// The asynchronous engine's run state: the three reserved random
/// streams, the activation-clock heap, the global event stamp and the
/// continuous clock. Boxed on [`Network`] so [`Engine::Sync`] costs one
/// `Option` discriminant.
#[derive(Debug)]
pub(crate) struct AsyncState {
    cfg: AsyncConfig,
    /// Activation-clock offsets (reserved stream 7).
    clock_rng: SmallRng,
    /// Message latencies (reserved stream 8).
    latency_rng: SmallRng,
    /// Loss verdicts (reserved stream 9; the synchronous engine draws
    /// these from the engine stream, but the async draw *order* differs,
    /// so they get a stream of their own).
    delivery_rng: SmallRng,
    /// Pending activations, min-heap. Capacity `n` — exactly one
    /// activation per node per round, pushed into an empty heap — so
    /// the steady-state loop never reallocates it.
    clocks: BinaryHeap<Reverse<EventKey>>,
    seq: u64,
    virtual_time: f64,
    events: u64,
}

impl AsyncState {
    pub(crate) fn new(cfg: AsyncConfig, n: usize, seed: u64) -> Self {
        AsyncState {
            clock_rng: rng_from_seed(derive_seed(seed, ASYNC_CLOCK_STREAM)),
            latency_rng: rng_from_seed(derive_seed(seed, ASYNC_LATENCY_STREAM)),
            delivery_rng: rng_from_seed(derive_seed(seed, ASYNC_DELIVERY_STREAM)),
            clocks: BinaryHeap::with_capacity(n),
            seq: 0,
            virtual_time: 0.0,
            events: 0,
            cfg,
        }
    }

    pub(crate) fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    pub(crate) fn events_processed(&self) -> u64 {
        self.events
    }

    /// Stamps the next event key.
    fn next_key(&mut self, time: f64, node: u32) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        EventKey { time, seq, node }
    }

    /// One exponential activation gap (mean `1/rate`).
    fn clock_gap(&mut self) -> f64 {
        let u: f64 = self.clock_rng.gen::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.cfg.rate
    }

    /// One loss verdict, drawn when the message is sent. A pull draws
    /// both its legs unconditionally when the knob is on — the delivery
    /// stream never depends on an earlier verdict — and nothing is drawn
    /// when it is zero.
    fn verdict(&mut self, loss: f64) -> bool {
        loss > 0.0 && self.delivery_rng.gen_bool(loss)
    }

    /// Puts a message in flight at time `now`: it fires at `dst` one
    /// sampled latency later.
    fn send<M>(&mut self, msgs: &mut Inflight<M>, now: f64, src: u32, dst: u32, kind: MsgKind<M>) {
        let arrive = now + self.cfg.latency.sample(&mut self.latency_rng);
        let key = self.next_key(arrive, dst);
        msgs.push(Reverse(MsgEv { key, src, kind }));
    }
}

// ----------------------------------------------------------------------
// The event-driven round
// ----------------------------------------------------------------------

impl<S> Network<S> {
    /// Executes one schedule step of [`Network::round`] on the
    /// asynchronous engine: schedules every node's activation at an
    /// exponential clock offset, then drains activations and in-flight
    /// message arrivals in `(time, seq, node)` order. Deliveries land
    /// mid-step, pulls are answered from current state at request
    /// arrival, and every ordering decision is a timestamp; the rules
    /// applied at each event are the step core's (`step.rs`).
    pub(crate) fn round_async<M: Wire + 'static>(
        &mut self,
        mut decide: impl FnMut(NodeCtx<'_, S>, &mut SmallRng) -> Action<M>,
        mut respond: impl FnMut(&S) -> Option<M>,
        mut deliver: impl FnMut(&mut S, Delivery<M>),
    ) -> RoundStats {
        // The boundary moves fire once per schedule step, before any
        // activation of the step; `loss` holds for the step's sends.
        let (mut stats, loss) = self.begin_step();
        let n = self.len();
        let mut axs = self
            .async_state
            .take()
            .expect("round_async dispatched without async state");
        let mut msgs = self.buffers.take::<Inflight<M>>();
        // Pre-size the event pool: at any instant at most one in-flight
        // message exists per node (an activation's single send, or the
        // reply that replaces its request when the request pops), so
        // capacity `n` makes the drain loop allocation-free from the
        // first step — no warm-up-dependent high-water mark.
        if msgs.capacity() < n {
            msgs.reserve(n - msgs.len());
        }

        // Schedule this step's activations: one exponential clock offset
        // per node, dead or alive — dead nodes are skipped at fire time,
        // so the clock stream never depends on the churn history.
        let t0 = axs.virtual_time;
        for i in 0..n as u32 {
            let gap = axs.clock_gap();
            let key = axs.next_key(t0 + gap, i);
            axs.clocks.push(Reverse(key));
        }

        // Drain the queue in (time, seq, node) order, merging the two
        // heaps by their tops. Chains are finite (activation → at most
        // one request → at most one reply), so the step terminates.
        loop {
            let fire_msg = match (axs.clocks.peek(), msgs.peek()) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(Reverse(c)), Some(Reverse(m))) => m.key < *c,
            };
            axs.events += 1;
            if !fire_msg {
                // An activation: whatever the node sends goes in flight
                // under verdicts drawn now.
                let Some(Reverse(key)) = axs.clocks.pop() else {
                    unreachable!()
                };
                axs.virtual_time = key.time;
                let src = NodeIdx(key.node);
                if !self.is_alive(src) {
                    continue;
                }
                let (dst, kind) = match self.activate(src, &mut decide, &mut stats) {
                    Some((dst, Action::Push { msg, .. })) => {
                        let lost = axs.verdict(loss);
                        (dst, MsgKind::Push { msg, lost })
                    }
                    Some((dst, Action::Pull { .. })) => {
                        let lost = axs.verdict(loss);
                        let rep_lost = axs.verdict(loss);
                        (dst, MsgKind::PullReq { lost, rep_lost })
                    }
                    _ => continue,
                };
                axs.send(&mut msgs, key.time, src.0, dst.0, kind);
                continue;
            }

            // A message arrival.
            let Some(Reverse(ev)) = msgs.pop() else {
                unreachable!()
            };
            let now = ev.key.time;
            axs.virtual_time = now;
            let src = NodeIdx(ev.src);
            let dst = NodeIdx(ev.key.node);
            match ev.kind {
                MsgKind::Push { msg, lost } => {
                    self.land_push(src, dst, msg, lost, &mut stats, &mut deliver);
                }
                MsgKind::PullReq { lost, rep_lost } => {
                    self.land_pull_request(src, dst, lost, &mut stats);
                    if !self.hears(dst, lost) {
                        continue;
                    }
                    // Asynchronous semantics: the response reads the
                    // responder's state *now*, at request arrival — not
                    // a start-of-round snapshot — and the pulled-by
                    // notification lands immediately.
                    let state = &mut self.states[dst.as_usize()];
                    let resp = respond(state);
                    deliver(state, Delivery::PulledBy(self.ids.id_of(src)));
                    if let Some(msg) = resp {
                        let kind = MsgKind::PullReply {
                            msg,
                            lost: rep_lost,
                        };
                        axs.send(&mut msgs, now, dst.0, src.0, kind);
                    }
                }
                MsgKind::PullReply { msg, lost } => {
                    self.land_reply(src, dst, msg, lost, &mut stats, &mut deliver);
                }
            }
        }
        self.buffers.put(msgs);
        self.async_state = Some(axs);
        self.end_step(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_key_order_is_time_then_seq_then_node() {
        let a = EventKey {
            time: 1.0,
            seq: 5,
            node: 9,
        };
        let b = EventKey {
            time: 2.0,
            seq: 1,
            node: 0,
        };
        assert!(a < b, "earlier time wins");
        let c = EventKey {
            time: 1.0,
            seq: 6,
            node: 0,
        };
        assert!(a < c, "seq breaks time ties");
        let d = EventKey {
            time: 1.0,
            seq: 5,
            node: 10,
        };
        assert!(a < d, "node breaks (time, seq) ties");
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn parse_spec_accepts_profiles_and_separators() {
        assert_eq!(Engine::parse_spec("sync").unwrap(), Engine::Sync);
        assert_eq!(Engine::parse_spec("SYNC").unwrap(), Engine::Sync);
        assert_eq!(
            Engine::parse_spec("async").unwrap(),
            Engine::Async(AsyncConfig::default())
        );
        assert_eq!(
            Engine::parse_spec("Async:Fixed").unwrap(),
            Engine::Async(AsyncConfig {
                rate: 1.0,
                latency: Latency::Fixed(0.5),
            })
        );
        assert_eq!(
            Engine::parse_spec("async:EXPONENTIAL").unwrap(),
            Engine::parse_spec("async:exp").unwrap()
        );
        assert!(matches!(
            Engine::parse_spec("async:uniform").unwrap(),
            Engine::Async(AsyncConfig {
                latency: Latency::Uniform(..),
                ..
            })
        ));
    }

    #[test]
    fn parse_spec_rejects_unknown_names_listing_specs() {
        for bad in ["warp", "async:bimodal", "sync:fixed"] {
            let err = Engine::parse_spec(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            for (spec, _) in Engine::catalog() {
                assert!(err.contains(spec), "{err} missing {spec}");
            }
        }
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let bad_rate = AsyncConfig {
            rate: 0.0,
            ..AsyncConfig::default()
        };
        assert!(bad_rate.validate().unwrap_err().contains("rate"));
        assert!(Latency::Fixed(-1.0)
            .validate()
            .unwrap_err()
            .contains("fixed"));
        assert!(Latency::Uniform(2.0, 1.0)
            .validate()
            .unwrap_err()
            .contains("uniform"));
        assert!(Latency::Exponential(f64::NAN)
            .validate()
            .unwrap_err()
            .contains("exponential"));
        assert!(Engine::Sync.validate().is_ok());
        assert!(Engine::Async(AsyncConfig::default()).validate().is_ok());
    }

    #[test]
    fn validate_rejects_spans_no_clock_can_hold() {
        // A subnormal rate is positive and finite, but its mean gap is
        // not; so is one whose gap merely dwarfs any run.
        for rate in [5e-324, 1e-300, 1e-13, f64::INFINITY, f64::NAN] {
            let err = AsyncConfig {
                rate,
                ..AsyncConfig::default()
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("rate") && err.contains("1e12"), "{err}");
        }
        for (latency, knob) in [
            (Latency::Fixed(1e308), "fixed"),
            (Latency::Fixed(f64::INFINITY), "fixed"),
            (Latency::Uniform(0.0, 1e308), "uniform"),
            (Latency::Uniform(f64::NAN, 1.0), "uniform"),
            (Latency::Exponential(1e308), "exponential"),
            (Latency::Exponential(1e13), "exponential"),
        ] {
            let err = latency.validate().unwrap_err();
            assert!(err.contains(knob) && err.contains("1e12"), "{err}");
            let cfg = AsyncConfig { rate: 1.0, latency };
            assert_eq!(Engine::Async(cfg).validate().unwrap_err(), err);
        }
        // Generous but representable knobs, and the whole catalog, pass.
        let slow = AsyncConfig {
            rate: 1e-11,
            latency: Latency::Uniform(0.0, 1e12),
        };
        assert!(slow.validate().is_ok());
        for name in ["fixed", "uniform", "exp"] {
            let cfg = Engine::profile(name).expect("a catalog profile");
            assert!(Engine::Async(cfg).validate().is_ok(), "{name}");
        }
    }

    #[test]
    fn latency_samples_respect_their_support() {
        let mut rng = rng_from_seed(7);
        for _ in 0..256 {
            assert_eq!(Latency::Fixed(0.25).sample(&mut rng), 0.25);
            let u = Latency::Uniform(0.1, 1.0).sample(&mut rng);
            assert!((0.1..1.0).contains(&u), "{u}");
            let e = Latency::Exponential(0.5).sample(&mut rng);
            assert!(e > 0.0 && e.is_finite(), "{e}");
        }
    }

    #[test]
    fn spec_round_trips_through_parse() {
        for (spec, _) in Engine::catalog() {
            let engine = Engine::parse_spec(spec).unwrap();
            // `exp` is shorthand; the canonical spec spells the family out.
            let want = if *spec == "async:exp" {
                "async:exponential"
            } else {
                *spec
            };
            assert_eq!(engine.spec(), want);
        }
    }
}
