//! **optimal-gossip** — a reproduction of *Optimal Gossip with Direct
//! Addressing* (Bernhard Haeupler & Dahlia Malkhi, PODC 2014,
//! arXiv:1402.2701).
//!
//! The paper gives gossip algorithms for the **random phone call model
//! with direct addressing** that spread a `b`-bit rumor to `n` nodes in
//! the *optimal* `Θ(log log n)` rounds with the *optimal* `O(1)` messages
//! per node and `O(nb)` bits — plus a matching `Ω(log log n)` lower bound
//! and a round/fan-in trade-off (`Δ`-clusterings).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`phonecall`] — the simulator substrate: synchronous rounds, one
//!   initiated PUSH/PULL per node, random or direct targets,
//!   address-oblivious responses, message/bit/fan-in accounting,
//!   oblivious failures, dynamic churn, communication topologies and the
//!   multi-rumor traffic workload.
//! * [`core`] (crate `gossip-core`) — clusterings, the Section 3.2
//!   coordination primitives, and Algorithms 1–4 (`Cluster1`, `Cluster2`,
//!   `Cluster3`, `ClusterPushPull`).
//! * [`baselines`] — PUSH, PULL, PUSH-PULL, Karp et al., an
//!   Avin–Elsässer reconstruction, and Name-Dropper.
//! * [`lowerbound`] — the Theorem 3 knowledge-graph machinery.
//! * [`harness`] — statistics, sweeps, scaling fits and tables for the
//!   experiment binaries.
//!
//! # Quick start
//!
//! Describe *what* to run with a [`core::algo::Scenario`], then run it
//! against any algorithm from the [`registry`] — the paper's four
//! algorithms and all seven baselines behind one object-safe
//! [`core::algo::Algorithm`] trait:
//!
//! ```
//! use optimal_gossip::prelude::*;
//!
//! // One scenario, many comparable runs.
//! let scenario = Scenario::broadcast(1 << 12).seed(42).rumor_bits(1024);
//!
//! // The paper's headline algorithm...
//! let cluster2 = registry::by_name("cluster2").unwrap();
//! let report = cluster2.run(&scenario);
//! assert!(report.success);
//! println!(
//!     "rounds: {}, messages/node: {:.1}, bits/node: {:.0}",
//!     report.rounds,
//!     report.messages_per_node(),
//!     report.bits_per_node()
//! );
//!
//! // ...or the whole field at once.
//! for algo in registry::all() {
//!     let r = algo.run(&scenario);
//!     println!("{:<16} {:>12} {} rounds", algo.name(), algo.law().label(), r.rounds);
//! }
//! ```
//!
//! Tunables override through JSON (the serde-style param hook):
//!
//! ```
//! use optimal_gossip::prelude::*;
//!
//! let tree = registry::by_name("tree").unwrap();
//! let overrides = Value::parse(r#"{"delta": 4}"#).unwrap();
//! let r = tree.run_with_params(&Scenario::broadcast(1 << 10).seed(1), &overrides).unwrap();
//! assert!(r.max_fan_in <= 4);
//! ```
//!
//! The direct, fully typed entry points remain
//! (`cluster2::run(n, &Cluster2Config)` and friends) — the trait impls
//! are thin wrappers over them, bit-identical run for run.
//!
//! See `examples/` for runnable scenarios and EXPERIMENTS.md for the
//! experiment suite reproducing every quantitative claim of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gossip_baselines as baselines;
pub use gossip_baselines::registry;
pub use gossip_core as core;
pub use gossip_harness as harness;
pub use gossip_lowerbound as lowerbound;
pub use phonecall;

/// Convenience prelude: the types and entry points most programs need.
pub mod prelude {
    pub use gossip_baselines::registry;
    pub use gossip_baselines::{avin_elsasser, karp, name_dropper, pull, push, push_pull};
    pub use gossip_core::{
        broadcast_success_test, cluster1, cluster2, cluster3, cluster_push_pull, estimate,
        run_unknown_n, tasks, Algorithm, Cluster1Config, Cluster2Config, Cluster3Config,
        ClusterSim, CommonConfig, Law, ParamError, Params, PushPullConfig, RunReport, Scenario,
        Value,
    };
    pub use gossip_harness::{run_algorithm_trials, Summary, Table};
    pub use gossip_lowerbound::estimate_success;
    pub use phonecall::{
        Adjacency, AsyncConfig, ChurnConfig, DirectAddressing, Engine, FailurePlan, Latency,
        Metrics, Network, NodeId, NodeIdx, RumorStatus, Topology, TrafficConfig,
    };
}
