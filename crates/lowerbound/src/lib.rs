//! Empirical machinery for the paper's `Ω(log log n)` lower bound
//! (Theorem 3 / Theorem 15, Section 6).
//!
//! # The argument
//!
//! Fix all random choices in advance: `u_{v,t}` is the random node handed
//! to `v` if it samples in round `t`, and `G_t` is the graph of all
//! potentially sampled pairs of round `t`. Lemma 14 shows the *knowledge
//! graph* (who has learned whose ID) satisfies
//!
//! ```text
//! K_T ⊆ ( G_1 ∪ … ∪ G_T )^(2^T)
//! ```
//!
//! — even with unbounded message sizes, non-address-oblivious behaviour
//! and unbounded fan-out to known nodes, a node's knowledge after `T`
//! rounds reaches at most its `2^T`-hop neighbourhood in the union graph
//! `K' = ∪ G_t`. Spreading a rumor to everyone would make `K_T`-style
//! reachability complete, which requires `diam(K') ≤ 2^T`. Since `K'` is a
//! random graph of average degree `≈ 2T` its diameter is
//! `Θ(log n / log log n)` whp, forcing `2^T ≥ diam`, i.e.
//! `T ≥ (1−o(1)) log log n`.
//!
//! # What this crate computes
//!
//! * [`graph::sample_union_graph`] — draws `K' = ∪_{t≤T} G_t`;
//! * [`bfs`] / [`diameter`] — BFS eccentricities and certified
//!   diameter *bounds* (double-sweep lower bound, center-eccentricity
//!   upper bound) plus the word-parallel bounded-depth scan — 64 BFS
//!   sources per pass — that settles `diam ≤ 2^T` when they straddle;
//! * [`theorem3`] — per-trial verdicts `diam(K') ≤ 2^T?` and Monte-Carlo
//!   estimates of the success probability, reproducing the sharp
//!   threshold at `T ≈ log₂ log₂ n` (experiment E4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod diameter;
pub mod graph;
pub mod knowledge;
pub mod theorem3;

pub use diameter::DiameterBounds;
pub use graph::Graph;
pub use knowledge::{rounds_to_complete, KnowledgeGraph};
pub use theorem3::{empirical_threshold, estimate_success, TrialVerdict};
