//! A deterministic simulator of the **random phone call model with direct
//! addressing**, the communication model of *Optimal Gossip with Direct
//! Addressing* (Haeupler & Malkhi, PODC 2014).
//!
//! # Model
//!
//! The network is complete and consists of `n` nodes. Each node has a unique
//! ID drawn from a polynomially large ID space (so IDs cost `Θ(log n)` bits
//! on the wire and cannot be enumerated). Communication proceeds in
//! synchronous rounds. In each round every *alive* node may initiate at most
//! one communication:
//!
//! * **PUSH** a message to a target, or
//! * **PULL** a message from a target,
//!
//! where the target is either a **uniformly random** node or — this is the
//! *direct addressing* assumption — any node whose ID the initiator has
//! learned earlier.
//!
//! Responses to PULLs are **address-oblivious**: the engine computes a
//! node's pull response from that node's state alone, without exposing the
//! requester, so a node necessarily answers every PULL of a round with the
//! same message. (Algorithms may still observe *that* they were pulled, and
//! by whom, when updating state for the *next* round; this matches the
//! paper's definition, which constrains only what is sent within a round.)
//!
//! # What the engine accounts for
//!
//! * **round complexity** — number of executed rounds;
//! * **message complexity** — PUSH = one message; PULL = one request plus
//!   one response (when answered); the engine also tracks *payload-bearing*
//!   messages separately so that comparisons that only count rumor
//!   transmissions (as Karp et al. do) are possible;
//! * **bit complexity** — every message carries a `⌈2·log₂ n⌉`-bit header
//!   (sender/receiver IDs from the polynomial ID space) plus the payload's
//!   [`Wire::size_bits`];
//! * **fan-in `Δ`** — the maximum number of communications any node
//!   participates in during any single round (initiated + received pushes +
//!   answered pulls), the quantity bounded in Section 7 of the paper;
//! * **failures** — an oblivious adversary may fail any set of nodes at
//!   time 0 (or between rounds); failed nodes never act, never respond, and
//!   silently swallow messages addressed to them. A *dynamic* adversary
//!   ([`ChurnConfig`] / [`Network::set_churn`]) additionally crashes
//!   correlated batches mid-run, recovers them probabilistically, and
//!   drives Gilbert–Elliott burst message loss — all from its own
//!   seed-derived stream, so runs without churn are bit-identical to
//!   runs before the subsystem existed.
//!
//! A **multi-rumor workload** ([`TrafficConfig`] /
//! [`Network::set_traffic`]) multiplexes K workload rumors over the
//! run: each rumor originates at a seeded random `(node, round)` pair
//! and piggybacks on the payload messages the running algorithm already
//! sends, under a per-node per-round bandwidth budget. Inert configs
//! install nothing, so single-rumor runs stay bit-identical to
//! pre-workload builds. See [`traffic`](TrafficConfig).
//!
//! The network is complete by default, but a seeded [`Topology`]
//! ([`Network::set_topology`]) restricts the contact graph: `Random`
//! targets become uniformly random alive neighbors and, under
//! [`DirectAddressing::Restricted`], learned-ID calls are confined to
//! edges too. `Topology::Complete` installs nothing, so complete-graph
//! runs stay bit-identical to pre-topology builds. See [`topology`].
//! Real-graph snapshots enter as `Topology::FromFile`: SNAP-style edge
//! lists parsed, cached in a checksummed binary CSR, and measured with
//! a HyperBall diameter estimator — see [`dataset`].
//!
//! Rounds are lockstep by default, but [`Network::set_engine`] swaps in
//! the **asynchronous event-driven engine** ([`Engine::Async`] /
//! [`events`]): per-node exponential activation clocks, sampled message
//! latencies, and a deterministic `(virtual_time, seq, node)`-ordered
//! event queue, with the continuous clock exposed as
//! [`Network::virtual_time`]. [`Engine::Sync`] installs nothing, so
//! synchronous runs stay bit-identical to pre-async builds. Both engines
//! are schedulers over one step core (`step.rs`): what an activation
//! resolves to and what a landing message costs is written once, so the
//! accounting cannot depend on the engine.
//!
//! # Determinism
//!
//! All randomness flows from a single `u64` seed. Given `(n, seed)` and the
//! same sequence of [`Network::round`] calls, every run is bit-identical,
//! which the test-suite relies on.
//!
//! # Example
//!
//! A one-round push of a tiny payload from node 0 to a random node:
//!
//! ```
//! use phonecall::{Action, Delivery, Network, Target, Wire};
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//! impl Wire for Token {
//!     fn size_bits(&self) -> u64 { 1 }
//! }
//!
//! #[derive(Default, Clone)]
//! struct St { got: bool }
//!
//! let mut net: Network<St> = Network::new(8, 42);
//! net.round(
//!     |ctx, _rng| if ctx.idx.as_usize() == 0 {
//!         Action::Push { to: Target::Random, msg: Token }
//!     } else {
//!         Action::Idle
//!     },
//!     |_state| None,
//!     |state, delivery| {
//!         if let Delivery::Push { .. } = delivery { state.got = true; }
//!     },
//! );
//! assert_eq!(net.metrics().messages, 1);
//! assert_eq!(net.states().iter().filter(|s| s.got).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod action;
mod bitset;
mod churn;
pub mod dataset;
mod error;
pub mod events;
mod failure;
mod id;
pub mod knob;
mod metrics;
mod network;
mod rng;
mod step;
pub mod topology;
mod traffic;
mod wire;

pub use action::{Action, Delivery, Target};
pub use bitset::{BitMatrix, BitSet};
pub use churn::{AdversarySchedule, ChurnConfig, ChurnRound};
pub use error::PhoneCallError;
pub use events::{AsyncConfig, Engine, EventKey, Latency};
pub use failure::FailurePlan;
pub use id::{IdSpace, NodeId, NodeIdx};
pub use knob::Knobs;
pub use metrics::{Metrics, RoundStats};
pub use network::{Network, NodeCtx};
pub use rng::{
    derive_seed, rng_from_seed, ASYNC_CLOCK_STREAM, ASYNC_DELIVERY_STREAM, ASYNC_LATENCY_STREAM,
};
pub use topology::{Adjacency, DirectAddressing, Topology};
pub use traffic::{RumorStatus, TrafficConfig, TrafficPlan};
pub use wire::{header_bits, id_bits, Wire};
