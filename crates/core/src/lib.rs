//! The algorithms of *Optimal Gossip with Direct Addressing* (Haeupler &
//! Malkhi, PODC 2014), implemented on the [`phonecall`] simulator.
//!
//! # Contents
//!
//! * [`follow`] / [`node`] / [`sim`] — the **clustering** abstraction of
//!   Section 3: every node carries a `follow` variable holding its cluster
//!   leader's ID (or ∞), and a [`sim::ClusterSim`] drives a network of such
//!   nodes.
//! * [`primitives`] — the cluster coordination macros of Section 3.2
//!   (`ClusterActivate`, `ClusterSize`, `ClusterDissolve`, `ClusterResize`,
//!   `ClusterPUSH`/merge iterations, `ClusterShare`, …), each costing `O(1)`
//!   rounds.
//! * [`cluster1`] — Algorithm 1: the `O(log log n)`-round gossip
//!   demonstrating cluster squaring (Theorem 9).
//! * [`cluster2`] — Algorithm 2: the headline result — `O(log log n)`
//!   rounds, `O(1)` messages per node on average, `O(nb)` bits
//!   (Theorem 2).
//! * [`cluster3`] — Algorithm 4: computing a `Δ`-clustering in
//!   `O(log log n)` rounds with no node answering more than `Δ` requests
//!   per round (Theorem 4/18).
//! * [`cluster_push_pull`] — Algorithm 3: broadcast over a `Δ`-clustering
//!   in `O(log n / log Δ)` rounds (Lemma 17).
//!
//! # Quick start
//!
//! ```
//! use gossip_core::{cluster2, Cluster2Config};
//!
//! let report = cluster2::run(1 << 12, &Cluster2Config::default());
//! assert!(report.success, "every alive node must learn the rumor");
//! // Theorem 2's shape: O(1) messages per node on average.
//! assert!(report.messages_per_node() < 40.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod cluster1;
pub mod cluster2;
pub mod cluster3;
pub mod cluster_push_pull;
pub mod config;
pub mod estimate;
pub mod follow;
pub mod msg;
pub mod node;
pub mod params;
pub mod primitives;
pub mod report;
pub mod sim;
pub mod tasks;
pub mod verify;

pub use algo::{Algorithm, Law, Scenario};
pub use config::{Cluster1Config, Cluster2Config, Cluster3Config, CommonConfig, PushPullConfig};
pub use estimate::{broadcast_success_test, run_unknown_n, SuccessTest, UnknownNReport};
pub use follow::Follow;
pub use msg::{Msg, MsgKind};
pub use node::ClusterNode;
pub use params::{ParamError, Params, Value};
pub use report::{ClusteringStats, PhaseReport, RunReport};
pub use sim::ClusterSim;
