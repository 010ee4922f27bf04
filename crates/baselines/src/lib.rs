//! Baseline gossip algorithms the paper compares against.
//!
//! | module | algorithm | rounds | msgs/node |
//! |---|---|---|---|
//! | [`push`] | uniform PUSH gossip (Pittel \[12\]) | `Θ(log n)` | `Θ(log n)` |
//! | [`pull`] | uniform PULL gossip | `Θ(log n)` | `Θ(log n)` requests |
//! | [`push_pull`] | PUSH-PULL (informed push, uninformed pull) | `Θ(log n)` | `Θ(log n)` |
//! | [`karp`] | Karp et al. \[10\]-style counter-terminated PUSH-PULL | `Θ(log n)` | `Θ(log log n)` transmissions |
//! | [`avin_elsasser`] | Avin–Elsässer \[1\] structural reconstruction (fixed-fanout clustering; README, "Deviations from the paper") | `Θ(√log n)` | `Θ(√log n)` |
//! | [`name_dropper`] | Name-Dropper resource discovery \[9\] | `Θ(log² n)` | `Θ(log² n)` (large messages) |
//! | [`tree`] | oracle `Δ`-ary PULL tree (unreachable optimum of Lemma 16) | `⌈log_Δ n⌉` | `O(1)` |
//!
//! All of them run on the same [`phonecall`] simulator as the paper's
//! algorithms, so round/message/bit/fan-in numbers are directly
//! comparable. Every broadcast baseline returns the same
//! [`gossip_core::RunReport`].
//!
//! The five rumor baselines — [`push`], [`pull`], [`push_pull`],
//! [`karp`] and [`tree`] — are call rules over one exchange,
//! [`common::rumor_round`]: each says only who PUSHes or PULLs whom in a
//! round. [`registry`] describes all eleven algorithms as one
//! [`gossip_core::algo::Algo`] row each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avin_elsasser;
pub mod common;
pub mod karp;
pub mod name_dropper;
pub mod pull;
pub mod push;
pub mod push_pull;
pub mod registry;
pub mod tree;

pub use common::{RumorMsg, RumorNode};
pub use gossip_core::CommonConfig;
pub use registry::UnknownAlgorithm;
