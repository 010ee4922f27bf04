//! The repo benchmark: seven workloads, four bounded end-to-end metrics
//! (plus `failed_frac`), and per-layer probes taken **from outside** —
//! nothing in the measured crates changes; every number comes from timing
//! calls into their public functions.
//!
//! `README.md` beside this crate has the tables: what each metric means,
//! why each workload exists, and which end-to-end metric each per-layer
//! metric should move. `run.sh` is the one command.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod digest;
pub mod host;
pub mod json;
pub mod names;
pub mod probes;
pub mod replica;
pub mod runner;
pub mod span;
pub mod stats;
pub mod workloads;
