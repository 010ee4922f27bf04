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
//! Events fire in [`EventKey`] order — `(virtual_time, seq, node)`
//! compared via [`f64::total_cmp`] — and every event carries a unique
//! `seq`, so the order is *total*: no tie ever falls back on allocation
//! order or hash state. A step stamps its `n` activations first, node
//! `i` with `seq = base + i`, before any message of the step, so the
//! activations need no queue: they are one column of node indices
//! sorted by `(time, index)`, and the drain merges a cursor over it
//! with the earliest in-flight message. In flight, fixed latency keeps
//! messages in a FIFO (they are sent in arrival order) and sampled
//! latency in a calendar queue whose days are monotone in time; both pop
//! in exact [`EventKey`] order, as one heap would. Clock offsets, latencies
//! and loss verdicts draw from three dedicated reserved streams
//! ([`crate::rng::ASYNC_CLOCK_STREAM`] / [`ASYNC_LATENCY_STREAM`] /
//! [`ASYNC_DELIVERY_STREAM`]), so installing [`Engine::Sync`] (the
//! default) draws nothing at all and stays bit-identical to builds that
//! predate this module — every pre-async golden digest still holds.
//!
//! [`ASYNC_LATENCY_STREAM`]: crate::rng::ASYNC_LATENCY_STREAM
//! [`ASYNC_DELIVERY_STREAM`]: crate::rng::ASYNC_DELIVERY_STREAM

use std::cmp::Ordering;

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::action::{Action, Delivery};
use crate::id::NodeIdx;
use crate::knob::{self, Kind, Knob, Knobs, Slot, Tag};
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
        unit_rate(Latency::default())
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
        LATENCIES[0].default
    }
}

/// The latency families, once: each kind's JSON name and the value a
/// bare kind builds.
#[rustfmt::skip]
static LATENCIES: [Kind<Latency>; 3] = [
    Kind { name: "fixed", default: Latency::Fixed(0.5), catalog: ("", "") },
    Kind { name: "uniform", default: Latency::Uniform(0.1, 1.0), catalog: ("", "") },
    Kind { name: "exponential", default: Latency::Exponential(0.5), catalog: ("", "") },
];

impl Latency {
    /// Stable lowercase family label (the JSON `"kind"` value).
    #[must_use]
    pub fn label(&self) -> &'static str {
        LATENCIES[knob::kind_index(&LATENCIES, self)].name
    }

    /// The mean latency.
    fn mean(&self) -> f64 {
        match *self {
            Latency::Fixed(v) => v,
            Latency::Uniform(lo, hi) => lo + (hi - lo) / 2.0,
            Latency::Exponential(mean) => mean,
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
    pub fn catalog() -> Vec<&'static (&'static str, &'static str)> {
        ENGINES.iter().map(|e| &e.catalog).collect()
    }

    /// The [`AsyncConfig`] behind a named latency profile
    /// (`"fixed"` / `"uniform"` / `"exp"`), case- and
    /// separator-insensitive. `None` for unknown names.
    #[must_use]
    pub fn profile(name: &str) -> Option<AsyncConfig> {
        match Engine::parse_spec(&format!("async:{name}")) {
            Ok(Engine::Async(cfg)) => Some(cfg),
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
        let key = knob::normalize(spec);
        // A bare mode picks its first row (bare `async` the default
        // profile), and a profile also answers to its latency family's
        // full name (`async:exponential` for `async:exp`), the form
        // `spec` prints.
        ENGINES
            .iter()
            .find(|e| {
                [e.name, e.catalog.0, &e.default.spec()]
                    .map(knob::normalize)
                    .contains(&key)
            })
            .map(|e| e.default.clone())
            .ok_or_else(|| {
                let specs: Vec<&str> = Self::catalog().iter().map(|(s, _)| *s).collect();
                format!(
                    "unknown engine {spec:?}; valid specs (case-insensitive): {}",
                    specs.join(", ")
                )
            })
    }
}

/// The engine schedules, once: each row's JSON mode, the engine it
/// builds, and its `--list-engines` line. A bare `"mode": "async"` (and
/// the spec `async`) builds the first async row, the default
/// [`AsyncConfig`].
#[rustfmt::skip]
static ENGINES: [Kind<Engine>; 4] = [
    Kind { name: "sync", default: Engine::Sync,
        catalog: ("sync", "lockstep synchronous rounds (the paper's model; default)") },
    Kind { name: "async", default: Engine::Async(unit_rate(Latency::Fixed(0.5))),
        catalog: ("async:fixed", "event-driven, exponential clocks (rate 1), fixed latency 0.5") },
    Kind { name: "async", default: Engine::Async(unit_rate(Latency::Uniform(0.1, 1.0))),
        catalog: ("async:uniform",
            "event-driven, exponential clocks (rate 1), uniform latency [0.1, 1.0)") },
    Kind { name: "async", default: Engine::Async(unit_rate(Latency::Exponential(0.5))),
        catalog: ("async:exp",
            "event-driven, exponential clocks (rate 1), exponential latency (mean 0.5)") },
];

/// The async engine's knobs at clock rate 1 with the given latency
/// (every catalog profile, and the default).
const fn unit_rate(latency: Latency) -> AsyncConfig {
    AsyncConfig { rate: 1.0, latency }
}

impl Knobs for Engine {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        match self {
            Engine::Sync => Vec::new(),
            Engine::Async(cfg) => vec![
                ("rate", Slot::F64(&mut cfg.rate)),
                ("latency", Slot::Nested(&mut cfg.latency)),
            ],
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    fn validate(&self) -> Result<(), String> {
        match self {
            Engine::Sync => Ok(()),
            Engine::Async(cfg) => cfg.validate(),
        }
    }

    fn tag(&self) -> Option<Tag> {
        Some(Tag::of("mode", &ENGINES, self, false))
    }

    fn set_kind(&mut self, i: usize) {
        *self = ENGINES[i].default.clone();
    }
}

impl Knobs for Latency {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        match self {
            Latency::Fixed(value) => vec![("value", Slot::F64(value))],
            Latency::Uniform(lo, hi) => vec![("lo", Slot::F64(lo)), ("hi", Slot::F64(hi))],
            Latency::Exponential(mean) => vec![("mean", Slot::F64(mean))],
        }
    }

    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    fn validate(&self) -> Result<(), String> {
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

    fn tag(&self) -> Option<Tag> {
        Some(Tag::of("kind", &LATENCIES, self, true))
    }

    fn set_kind(&mut self, i: usize) {
        *self = LATENCIES[i].default;
    }
}

// ----------------------------------------------------------------------
// The event queue
// ----------------------------------------------------------------------

/// Total order over events: `(virtual_time, seq, node)`.
///
/// `time` compares via [`f64::total_cmp`] and `seq` is unique per event
/// (a single counter stamps activations and messages alike), so the
/// order is total and strict — the drain is seed-reproducible with no
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

/// The end of an intrusive list through a [`Slab`].
const NIL: u32 = u32::MAX;

/// A step's in-flight messages, popped in [`EventKey`] order.
///
/// At any instant at most one message per node is in flight (an
/// activation's single send, or the reply that replaces its request when
/// the request pops), so either order keeps its messages in one [`Slab`]
/// of `n` entries, reserved on the first step: the drain never
/// allocates. The order follows from the installed [`Latency`] family
/// alone:
///
/// * **Fixed latency — a FIFO.** A message sent while the event at time
///   `now` fires arrives at `now + L`. The drain's `now` never decreases,
///   IEEE addition is monotone, and every send takes a larger `seq`, so
///   messages are pushed already in [`EventKey`] order: the oldest
///   message is always the minimum.
/// * **Sampled latency — a [`Calendar`].** Arrivals overtake each other,
///   so the order has to be searched for.
///
/// The queue lives in the network's buffer slot between steps — empty
/// then, since every step drains it — so its slab is allocated once.
enum Inflight<M> {
    Fifo(Fifo<M>),
    Calendar(Calendar<M>),
}

impl<M> Default for Inflight<M> {
    fn default() -> Self {
        Inflight::Fifo(Fifo::default())
    }
}

impl<M> Inflight<M> {
    /// Readies the (empty) queue for a step of `n` nodes under `latency`:
    /// takes the order the family allows and reserves its slab of `n`
    /// entries, which allocates on the first step only.
    fn open(&mut self, latency: &Latency, n: usize) {
        debug_assert_eq!(self.len(), 0, "a step opened with messages in flight");
        let fixed = matches!(latency, Latency::Fixed(_));
        match self {
            Inflight::Fifo(_) if !fixed => *self = Inflight::Calendar(Calendar::default()),
            Inflight::Calendar(_) if fixed => *self = Inflight::Fifo(Fifo::default()),
            _ => {}
        }
        match self {
            Inflight::Fifo(q) => q.slab.reserve(n),
            Inflight::Calendar(c) => c.open(latency.mean(), n),
        }
    }

    fn len(&self) -> usize {
        match self {
            Inflight::Fifo(q) => q.slab.len,
            Inflight::Calendar(c) => c.slab.len,
        }
    }

    fn push(&mut self, ev: MsgEv<M>) {
        match self {
            Inflight::Fifo(q) => q.push(ev),
            Inflight::Calendar(c) => c.push(ev),
        }
    }

    /// The earliest in-flight key, if any.
    fn peek(&mut self) -> Option<EventKey> {
        match self {
            Inflight::Fifo(q) => (q.head != NIL).then(|| *q.slab.key(q.head)),
            Inflight::Calendar(c) => c.peek(),
        }
    }

    /// Removes the earliest in-flight message.
    fn pop(&mut self) -> Option<MsgEv<M>> {
        match self {
            Inflight::Fifo(q) => q.pop(),
            Inflight::Calendar(c) => c.pop(),
        }
    }
}

/// The storage under either order: entries holding in-flight messages,
/// each with one intrusive `u32` link, and a free list threaded through
/// the entries no message holds.
///
/// Entries are written only as far as the peak in-flight count reaches,
/// within a capacity reserved once: a popped entry goes to the free list
/// and the next push takes it back.
struct Slab<M> {
    entries: Vec<Entry<M>>,
    /// The first free entry.
    free: u32,
    /// Entries holding a message.
    len: usize,
}

/// One slab entry: a message's fields, with the link beside `src` where
/// a `MsgEv` with an 8-byte-aligned payload has padding, so an entry
/// costs no more than the message it holds.
struct Entry<M> {
    key: EventKey,
    src: u32,
    /// The next entry of the same list (FIFO, calendar bucket, or the
    /// free list).
    next: u32,
    /// The payload while in flight.
    kind: Option<MsgKind<M>>,
}

impl<M> Default for Slab<M> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            free: NIL,
            len: 0,
        }
    }
}

impl<M> Slab<M> {
    /// Reserves room for `n` messages; allocates once.
    fn reserve(&mut self, n: usize) {
        self.entries.reserve(n.saturating_sub(self.entries.len()));
    }

    /// Stores a message, unlinked, and returns its entry.
    fn insert(&mut self, ev: MsgEv<M>) -> u32 {
        let entry = Entry {
            key: ev.key,
            src: ev.src,
            next: NIL,
            kind: Some(ev.kind),
        };
        self.len += 1;
        if self.free == NIL {
            debug_assert!(self.entries.len() < self.entries.capacity());
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = self.next(s);
            self.entries[s as usize] = entry;
            s
        }
    }

    /// Takes the message out of entry `s`, already unlinked from its
    /// list, and frees the entry.
    fn remove(&mut self, s: u32) -> MsgEv<M> {
        let free = self.free;
        let e = &mut self.entries[s as usize];
        let ev = MsgEv {
            key: e.key,
            src: e.src,
            kind: e.kind.take().expect("an entry in flight"),
        };
        e.next = free;
        self.free = s;
        self.len -= 1;
        ev
    }

    fn key(&self, s: u32) -> &EventKey {
        &self.entries[s as usize].key
    }

    fn next(&self, s: u32) -> u32 {
        self.entries[s as usize].next
    }

    fn link(&mut self, s: u32, next: u32) {
        self.entries[s as usize].next = next;
    }
}

/// Fixed latency's order: one list through the slab, oldest first.
struct Fifo<M> {
    slab: Slab<M>,
    head: u32,
    tail: u32,
}

impl<M> Default for Fifo<M> {
    fn default() -> Self {
        Fifo {
            slab: Slab::default(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<M> Fifo<M> {
    fn push(&mut self, ev: MsgEv<M>) {
        debug_assert!(
            self.tail == NIL || *self.slab.key(self.tail) < ev.key,
            "fixed latency pushed a message out of key order"
        );
        let s = self.slab.insert(ev);
        if self.tail == NIL {
            self.head = s;
        } else {
            self.slab.link(self.tail, s);
        }
        self.tail = s;
    }

    fn pop(&mut self) -> Option<MsgEv<M>> {
        let s = self.head;
        if s == NIL {
            return None;
        }
        self.head = self.slab.next(s);
        if self.head == NIL {
            self.tail = NIL;
        }
        Some(self.slab.remove(s))
    }
}

/// A calendar queue (R. Brown, "Calendar queues", CACM 1988) over a
/// [`Slab`].
///
/// Virtual time is cut into *days* of width `w`: a message arriving at
/// `t` belongs to day `⌊t · (1/w)⌋`, and the days share `B` buckets
/// cyclically (day `d` in bucket `d mod B`; `B` days make a *year*).
/// Each bucket is an unordered list threaded through the slab. The day
/// is monotone in `t` — IEEE multiplication by a positive constant and
/// truncation both are — so every message of an earlier day is strictly
/// earlier than every message of a later one. The minimum is therefore
/// the least [`EventKey`] — time, then `seq`, then node, so ties break
/// exactly as everywhere else — among the messages of the earliest
/// non-empty day.
///
/// Invariant: no message's day is before `day`, where the search resumes.
/// The search walks `day`'s bucket, skipping messages of later years (a
/// long tail of exponential latency lands there), and moves on a day at
/// a time; a year without a message ends in a direct search for the
/// earliest day over every bucket, so no tail needs a side heap.
///
/// `B` is the next power of two at or above `n`. The width comes from
/// the latency and what the previous step observed: its peak in-flight
/// count `m`, spread over the mean latency `E[L]`, puts about `m / E[L]`
/// messages on each unit of time just ahead of `now`, and `w = 4 E[L] /
/// m` sizes a day for a few of them. A year then spans `4 B / m ≥ 4`
/// mean latencies. On the benchmark's `n = 2^14` cells a search scanned
/// 2.2–2.9 entries and 1.1–1.8 empty days per minimum, and Karp at
/// `n = 2^20` 2.2–2.3 entries and 2.1–2.2 days; a quarter of that width
/// scanned 1.4 entries but four times the days and ran slower; twice it
/// scanned 3.3–4.7 entries and ran no faster. The first step sizes for
/// `m = n`, and a step that outgrows twice the count it was sized for
/// re-derives `w` and re-buckets in place.
struct Calendar<M> {
    slab: Slab<M>,
    /// The first entry of each bucket (`B` of them, a power of two).
    heads: Vec<u32>,
    /// `1 / w`: a message at time `t` belongs to day `⌊t · scale⌋`.
    scale: f64,
    /// The mean latency `w` is derived from.
    mean: f64,
    /// The in-flight count `w` was derived for.
    sized_for: usize,
    /// The most messages in flight at once this step.
    peak: usize,
    /// The day the search for the minimum resumes at.
    day: u64,
    /// The minimum once found, until a push or a pop moves it: its
    /// predecessor in its bucket's list (or [`NIL`] at the head) and its
    /// slab entry. It always belongs to `day`.
    min: Option<(u32, u32)>,
}

impl<M> Default for Calendar<M> {
    fn default() -> Self {
        Calendar {
            slab: Slab::default(),
            heads: Vec::new(),
            scale: 0.0,
            mean: 1.0,
            sized_for: 1,
            peak: 0,
            day: 0,
            min: None,
        }
    }
}

impl<M> Calendar<M> {
    /// Readies the empty calendar for a step of `n` nodes with mean
    /// latency `mean`, reserving the slab and buckets on the first step.
    fn open(&mut self, mean: f64, n: usize) {
        if self.heads.len() != n.next_power_of_two() {
            // The first step: no count observed yet, so the width is
            // sized for the bound.
            self.heads = vec![NIL; n.next_power_of_two()];
            self.peak = n;
        }
        self.slab.reserve(n);
        self.mean = mean;
        self.size_for(self.peak);
        self.peak = 0;
    }

    /// Derives the width for `count` messages in flight:
    /// `w = 4 · E[L] / count`.
    fn size_for(&mut self, count: usize) {
        self.sized_for = count.max(1);
        self.scale = (self.sized_for as f64 / (4.0 * self.mean)).min(f64::MAX);
    }

    fn day_of(&self, time: f64) -> u64 {
        (time * self.scale) as u64
    }

    fn bucket(&self, day: u64) -> usize {
        day as usize & (self.heads.len() - 1)
    }

    fn push(&mut self, ev: MsgEv<M>) {
        let (key, day) = (ev.key, self.day_of(ev.key.time));
        let s = self.slab.insert(ev);
        if self.slab.len == 1 || day < self.day {
            self.day = day;
        }
        let b = self.bucket(day);
        let head = self.heads[b];
        self.slab.link(s, head);
        self.heads[b] = s;
        // The new entry is its bucket's head: if the cached minimum was,
        // the new entry now precedes it.
        self.min = match self.min {
            Some((NIL, m)) if head == m => Some((s, m)),
            cached => cached,
        };
        if self.min.is_some_and(|(_, m)| key < *self.slab.key(m)) {
            self.min = Some((NIL, s));
        }
        self.peak = self.peak.max(self.slab.len);
        if self.slab.len > 2 * self.sized_for {
            self.rebucket();
        }
    }

    fn peek(&mut self) -> Option<EventKey> {
        if self.slab.len == 0 {
            return None;
        }
        let found = match self.min {
            Some(found) => found,
            None => self.find_min(),
        };
        self.min = Some(found);
        Some(*self.slab.key(found.1))
    }

    fn pop(&mut self) -> Option<MsgEv<M>> {
        self.peek()?;
        let (prev, s) = self.min.take().expect("peek found the minimum");
        let after = self.slab.next(s);
        if prev == NIL {
            let b = self.bucket(self.day);
            self.heads[b] = after;
        } else {
            self.slab.link(prev, after);
        }
        Some(self.slab.remove(s))
    }

    /// Finds the minimum of a non-empty calendar, moving `day` to its
    /// day: `(predecessor, entry)`.
    fn find_min(&mut self) -> (u32, u32) {
        loop {
            for _ in 0..self.heads.len() {
                let (mut prev, mut s) = (NIL, self.heads[self.bucket(self.day)]);
                let mut best: Option<(u32, u32)> = None;
                while s != NIL {
                    let key = self.slab.key(s);
                    if self.day_of(key.time) == self.day
                        && best.is_none_or(|(_, b)| *key < *self.slab.key(b))
                    {
                        best = Some((prev, s));
                    }
                    prev = s;
                    s = self.slab.next(s);
                }
                if let Some(found) = best {
                    return found;
                }
                self.day += 1;
            }
            // A year without a message: resume at the earliest day.
            self.day = self
                .heads
                .iter()
                .flat_map(|&head| self.chain(head))
                .map(|s| self.day_of(self.slab.key(s).time))
                .min()
                .expect("a non-empty calendar");
        }
    }

    /// The entries of the list starting at `s`.
    fn chain(&self, mut s: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::from_fn(move || {
            let here = s;
            (here != NIL).then(|| {
                s = self.slab.next(here);
                here
            })
        })
    }

    /// Re-derives the width for the current count and re-buckets every
    /// message in place: the buckets are emptied into one chain, then
    /// each entry is linked into its new bucket.
    fn rebucket(&mut self) {
        self.size_for(self.slab.len);
        let mut chain = NIL;
        for b in 0..self.heads.len() {
            let mut s = std::mem::replace(&mut self.heads[b], NIL);
            while s != NIL {
                let after = self.slab.next(s);
                self.slab.link(s, chain);
                chain = s;
                s = after;
            }
        }
        let mut first = u64::MAX;
        while chain != NIL {
            let s = chain;
            chain = self.slab.next(s);
            let day = self.day_of(self.slab.key(s).time);
            first = first.min(day);
            let b = self.bucket(day);
            self.slab.link(s, self.heads[b]);
            self.heads[b] = s;
        }
        self.day = first;
        self.min = None;
    }
}

// ----------------------------------------------------------------------
// Engine state
// ----------------------------------------------------------------------

/// The asynchronous engine's run state: the three reserved random
/// streams, the step's sorted activation column, the global event stamp
/// and the continuous clock. Boxed on [`Network`] so [`Engine::Sync`]
/// costs one `Option` discriminant.
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
    /// This step's activation time of node `i`, drawn in index order.
    /// Node `i`'s activation is stamped `seq = base + i`, `base` being
    /// the stamp counter when the step opens.
    at: Vec<f64>,
    /// Bucket offsets of the counting pass that builds `order`
    /// (`n + 1` entries).
    start: Vec<u32>,
    /// Node indices sorted by `(at[i], i)`: the step's activations in
    /// [`EventKey`] order. The three columns are sized `n` here and
    /// overwritten every step, so the steady-state loop never
    /// reallocates them.
    order: Vec<u32>,
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
            at: vec![0.0; n],
            start: vec![0; n + 1],
            order: vec![0; n],
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
        debug_assert!(
            msgs.len() < self.at.len(),
            "at most one message per node is in flight"
        );
        let arrive = now + self.cfg.latency.sample(&mut self.latency_rng);
        let key = self.next_key(arrive, dst);
        msgs.push(MsgEv { key, src, kind });
    }

    /// Opens a step at the current clock: draws every node's activation
    /// time in index order, stamps node `i` with `seq = base + i`, and
    /// sorts the column. Returns `base`.
    fn schedule_activations(&mut self) -> u64 {
        let t0 = self.virtual_time;
        for i in 0..self.at.len() {
            self.at[i] = t0 + self.clock_gap();
        }
        let base = self.seq;
        self.seq += self.at.len() as u64;
        sort_by_time(&self.at, &mut self.start, &mut self.order);
        base
    }

    /// The key of the activation at position `k` of the sorted column,
    /// as it was stamped, or `None` past the last.
    fn activation(&self, k: usize, base: u64) -> Option<EventKey> {
        let &node = self.order.get(k)?;
        Some(EventKey {
            time: self.at[node as usize],
            seq: base + u64::from(node),
            node,
        })
    }
}

/// Fills `order` with the indices of `at` sorted by `(at[i], i)`, using
/// `start` (`at.len() + 1` entries) for bucket offsets.
///
/// One stable counting pass spreads the indices over `n` equal-width
/// buckets of `[lo, hi]`, then an insertion sort orders each bucket by
/// time. The bucket is monotone in `t` — IEEE subtraction,
/// multiplication, division and truncation all are — so the buckets
/// come out in time order; stability keeps tied times in index order,
/// and the insertion sort moves a key only past strictly later ones.
/// The times are finite and positive (no clock gap is zero), where `>`
/// agrees with [`f64::total_cmp`]. One step's activations are `n`
/// i.i.d. exponential offsets spanning about `ln n` time units, so the
/// densest buckets hold about `ln n` keys and the insertion sorts make
/// about `n ln n / 8` moves in all: about two per key at `n = 2^20`.
fn sort_by_time(at: &[f64], start: &mut [u32], order: &mut [u32]) {
    let n = at.len();
    let (lo, hi) = at
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
    let span = hi - lo;
    let bucket = |t: f64| {
        if span > 0.0 {
            (((t - lo) * n as f64 / span) as usize).min(n - 1)
        } else {
            0
        }
    };
    // Count each bucket, prefix-sum into bucket ends, then fill back to
    // front so each end walks down to its bucket's start: equal buckets
    // keep index order.
    start.fill(0);
    for &t in at {
        start[bucket(t)] += 1;
    }
    let mut end = 0;
    for s in start.iter_mut() {
        end += *s;
        *s = end;
    }
    for i in (0..n).rev() {
        let b = bucket(at[i]);
        start[b] -= 1;
        order[start[b] as usize] = i as u32;
    }
    for b in 0..n {
        let (first, last) = (start[b] as usize, start[b + 1] as usize);
        for k in first + 1..last {
            let node = order[k];
            let t = at[node as usize];
            let mut j = k;
            while j > first && at[order[j - 1] as usize] > t {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = node;
        }
    }
}

/// The drain's merge: whether the next event is the earliest in-flight
/// message `msg` rather than the next activation `act`, or `None` once
/// both are exhausted. Strict: every event carries its own `seq`, so the
/// keys never tie.
fn message_first(act: Option<EventKey>, msg: Option<EventKey>) -> Option<bool> {
    match (act, msg) {
        (None, None) => None,
        (Some(_), None) => Some(false),
        (None, Some(_)) => Some(true),
        (Some(c), Some(m)) => Some(m < c),
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
        msgs.open(&axs.cfg.latency, n);

        // Schedule this step's activations: one exponential clock offset
        // per node, dead or alive — dead nodes are skipped at fire time,
        // so the clock stream never depends on the churn history.
        let base = axs.schedule_activations();
        let events_before = axs.events;

        // Drain in (time, seq, node) order, merging the cursor over the
        // sorted activations with the earliest in-flight message. Chains
        // are finite (activation → at most one request → at most one
        // reply), so the step terminates.
        let mut next = 0;
        loop {
            let act = axs.activation(next, base);
            let Some(fire_msg) = message_first(act, msgs.peek()) else {
                break;
            };
            axs.events += 1;
            if !fire_msg {
                // An activation: whatever the node sends goes in flight
                // under verdicts drawn now.
                let Some(key) = act else { unreachable!() };
                next += 1;
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
            let Some(ev) = msgs.pop() else { unreachable!() };
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
        // Conservation: every node's clock fired, dead or alive, and
        // every message sent — lost or not — arrived within the step.
        debug_assert_eq!(axs.events - events_before, n as u64 + stats.messages);
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

    /// `sort_by_time` on `at`, through fresh columns.
    fn column_order(at: &[f64]) -> Vec<u32> {
        let mut start = vec![u32::MAX; at.len() + 1];
        let mut order = vec![u32::MAX; at.len()];
        sort_by_time(at, &mut start, &mut order);
        order
    }

    /// The reference: the activations stamped as a step stamps them
    /// (`seq = base + i`), sorted by [`EventKey`].
    fn key_order(at: &[f64]) -> Vec<u32> {
        let mut keys: Vec<EventKey> = (0..at.len() as u32)
            .map(|node| EventKey {
                time: at[node as usize],
                seq: 1000 + u64::from(node),
                node,
            })
            .collect();
        keys.sort();
        keys.iter().map(|k| k.node).collect()
    }

    #[test]
    fn activation_column_sorts_like_event_keys() {
        let mut rng = rng_from_seed(11);
        let mut cases = vec![
            vec![3.5],
            vec![2.0, 1.0],
            vec![1.0, 1.0],
            // All times equal: `hi == lo`, index order decides.
            vec![4.25; 37],
            vec![5.0, 5.0, 5.0, 1.0, 1.0, 1.0, 3.0, 3.0],
        ];
        // One far outlier, above or below: every other key shares a
        // bucket, ties included.
        let near: Vec<f64> = (0..64).map(|i| 10.0 + f64::from(i % 5)).collect();
        for (pos, far) in [(17, 1e9), (0, 1e9), (63, 1e-9), (30, 1e-9)] {
            let mut at = near.clone();
            at[pos] = far;
            cases.push(at);
        }
        // A step's draws: `t0` plus exponential gaps, as drawn and with
        // forced ties (quantised to a coarse grid).
        for n in [3, 100, 1000, 4096] {
            let at: Vec<f64> = (0..n)
                .map(|_| 5.0 - rng.gen::<f64>().max(f64::MIN_POSITIVE).ln())
                .collect();
            cases.push(at.iter().map(|t| (t * 4.0).floor() / 4.0).collect());
            cases.push(at);
        }
        for at in &cases {
            assert_eq!(column_order(at), key_order(at), "{at:?}");
        }
    }

    /// The latency profiles the in-flight order is checked under, each
    /// with the grid its event times are floored to (`0` keeps them as
    /// drawn). `Fixed(0.0)` and the grids force time ties, which only
    /// `seq` can break; the last profile lands no message before every
    /// activation has fired, so all `n` can be in flight at once.
    const PROFILES: [(Latency, f64); 9] = [
        (Latency::Fixed(0.5), 0.0),
        (Latency::Fixed(0.0), 0.0),
        (Latency::Fixed(0.5), 0.25),
        (Latency::Uniform(0.1, 1.0), 0.0),
        (Latency::Uniform(0.1, 1.0), 0.25),
        (Latency::Exponential(0.5), 0.0),
        (Latency::Exponential(0.5), 0.25),
        (Latency::Exponential(0.02), 0.01),
        (Latency::Uniform(100.0, 101.0), 0.0),
    ];

    /// Drains one step per entry of `sends` over `n` nodes the way
    /// `round_async` does — the activation cursor merged with
    /// [`Inflight`] by [`message_first`] — and, in lockstep, a reference
    /// that keeps every event of the step, activations and messages, in
    /// one `BinaryHeap<Reverse<EventKey>>`. Activation `k` of a step
    /// sends a pull request when bit `k % 64` of the step's word is set,
    /// and a request not lost is answered, so each node has at most one
    /// message in flight and the count can reach `n`. Both sides must
    /// fire the identical key sequence. Returns the peak in-flight count.
    fn drain_matches_reference(
        profile: usize,
        loss: f64,
        n: usize,
        seed: u64,
        sends: &[u64],
    ) -> usize {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let (latency, grid) = PROFILES[profile];
        let floor = |t: f64| {
            if grid > 0.0 {
                (t / grid).floor() * grid
            } else {
                t
            }
        };
        let mut axs = AsyncState::new(unit_rate(latency), n, seed);
        let mut msgs = Inflight::<u32>::default();
        let mut reference = BinaryHeap::new();
        let mut peak = 0;
        for &word in sends {
            msgs.open(&latency, n);
            let base = axs.schedule_activations();
            for t in &mut axs.at {
                *t = floor(*t);
            }
            sort_by_time(&axs.at, &mut axs.start, &mut axs.order);
            reference.extend((0..n).filter_map(|k| axs.activation(k, base)).map(Reverse));
            let mut next = 0;
            while let Some(is_msg) = message_first(axs.activation(next, base), msgs.peek()) {
                let Reverse(want) = reference.pop().expect("the reference holds every event");
                let (key, kind) = if is_msg {
                    let ev = msgs.pop().expect("a peeked message");
                    let reply = match ev.kind {
                        MsgKind::PullReq { lost, rep_lost } => {
                            (!lost).then_some(MsgKind::PullReply {
                                msg: ev.src,
                                lost: rep_lost,
                            })
                        }
                        _ => None,
                    };
                    (ev.key, reply)
                } else {
                    let key = axs.activation(next, base).expect("a pending activation");
                    // An exact tie, which unique stamps rule out, would
                    // go to the activation: the merge is strict.
                    assert_eq!(message_first(Some(key), Some(key)), Some(false));
                    let pull = (word >> (next % 64) & 1 == 1).then(|| MsgKind::PullReq {
                        lost: axs.verdict(loss),
                        rep_lost: axs.verdict(loss),
                    });
                    next += 1;
                    (key, pull)
                };
                assert_eq!(key, want, "{:?} fired out of order", PROFILES[profile]);
                axs.virtual_time = key.time;
                if let Some(kind) = kind {
                    let arrive = floor(key.time + latency.sample(&mut axs.latency_rng));
                    let (src, dst) = (key.node, (key.node * 7 + 3) % n as u32);
                    let key = axs.next_key(arrive, dst);
                    reference.push(Reverse(key));
                    assert!(msgs.len() < n, "at most one message per node in flight");
                    msgs.push(MsgEv { key, src, kind });
                    peak = peak.max(msgs.len());
                }
            }
            assert!(reference.is_empty() && msgs.len() == 0);
        }
        peak
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn inflight_pops_in_reference_heap_order(
            profile in 0..PROFILES.len(),
            lossy in proptest::prelude::any::<bool>(),
            n in 1usize..64,
            seed in proptest::prelude::any::<u64>(),
            sends in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::prelude::Just(0u64),
                    proptest::prelude::Just(u64::MAX),
                    proptest::prelude::any::<u64>(),
                ],
                1..5,
            ),
        ) {
            let loss = if lossy { 0.3 } else { 0.0 };
            drain_matches_reference(profile, loss, n, seed, &sends);
        }
    }

    #[test]
    fn inflight_pops_in_reference_heap_order_at_scale() {
        for profile in 0..PROFILES.len() {
            for (loss, sends) in [
                (0.0, [u64::MAX; 3]),
                (0.1, [0x5555_5555_5555_5555, u64::MAX, 1]),
            ] {
                let peak = drain_matches_reference(profile, loss, 4096, 9, &sends);
                if profile == PROFILES.len() - 1 {
                    assert_eq!(peak, 4096, "every node's request in flight at once");
                }
            }
        }
    }

    #[test]
    fn a_slab_entry_costs_no_more_than_its_message() {
        use std::mem::size_of;
        assert_eq!(size_of::<Entry<u64>>(), size_of::<MsgEv<u64>>());
        assert_eq!(size_of::<Entry<[u64; 3]>>(), size_of::<MsgEv<[u64; 3]>>());
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
