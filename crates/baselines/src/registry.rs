//! The algorithm registry: every gossip algorithm in the repository —
//! the four paper algorithms and the seven baselines — as one
//! [`Algo`] row each, held as `&'static dyn Algorithm` and addressable
//! by name.
//!
//! This is the single dispatch point the experiment binaries
//! (`--algo <name>` / `--list-algos`), the examples and the golden-report
//! tests all share; nothing else in the tree needs a per-algorithm
//! `match`.
//!
//! ```
//! use gossip_baselines::registry;
//! use gossip_core::algo::Scenario;
//!
//! let scenario = Scenario::broadcast(256).seed(1);
//! for algo in registry::all() {
//!     let report = algo.run(&scenario);
//!     assert!(report.success, "{} failed", algo.name());
//! }
//! let cluster2 = registry::by_name("cluster2").unwrap(); // case-insensitive
//! assert_eq!(cluster2.name(), "Cluster2");
//! ```

use std::fmt;

use gossip_core::algo::{
    Algo, Algorithm, DeltaParams, Law, CLUSTER1, CLUSTER2, CLUSTER3, CLUSTER_PUSH_PULL,
};
use gossip_core::params::{overridden, Params};
use phonecall::knob::{normalize, Knob, Knobs, Slot};

use crate::name_dropper::{self, Topology};
use crate::{avin_elsasser, karp, pull, push, push_pull, tree};

/// The row of a baseline with no tunables: `$module::run(n, common)`.
macro_rules! plain {
    ($name:literal, $law:ident, $about:literal, $module:ident) => {
        Algo {
            name: $name,
            about: $about,
            law: Law::$law,
            params: || ().params(),
            run: |name, scenario, overrides| {
                overridden(name, (), overrides)?;
                Ok($module::run(scenario.n(), scenario.common()))
            },
        }
    };
}

/// Uniform PUSH gossip — see [`push`].
pub static PUSH: Algo = plain!(
    "Push",
    Log,
    "Uniform PUSH gossip (Pittel): Theta(log n) rounds, Theta(log n) msgs/node",
    push
);

/// Uniform PULL gossip — see [`pull`].
pub static PULL: Algo = plain!(
    "Pull",
    Log,
    "Uniform PULL gossip: Theta(log n) rounds, Theta(log n) requests/node",
    pull
);

/// PUSH-PULL (informed push, uninformed pull) — see [`push_pull`].
pub static PUSH_PULL: Algo = plain!(
    "PushPull",
    Log,
    "PUSH-PULL (informed push, uninformed pull): Theta(log n) rounds",
    push_pull
);

/// Karp et al. counter-terminated PUSH-PULL — see [`karp`].
pub static KARP: Algo = plain!(
    "Karp",
    Log,
    "Karp et al. counter-terminated PUSH-PULL: Theta(log n) rounds, Theta(log log n) transmissions",
    karp
);

/// Avin–Elsässer structural reconstruction — see [`avin_elsasser`].
pub static AVIN_ELSASSER: Algo = plain!(
    "AvinElsasser",
    SqrtLog,
    "Avin-Elsasser structural reconstruction: Theta(sqrt(log n)) rounds",
    avin_elsasser
);

/// Name-Dropper resource discovery (Harchol-Balter, Leighton & Lewin) —
/// see [`name_dropper`]. Discovery, not broadcast: `informed` counts
/// nodes with complete knowledge, `success` means the knowledge graph
/// closed.
pub static NAME_DROPPER: Algo = Algo {
    name: "NameDropper",
    about: "Name-Dropper resource discovery: O(log^2 n) rounds, Theta(n log n)-bit messages",
    law: Law::LogSquared,
    params: || NameDropperParams(Topology::Ring).params(),
    run: |name, scenario, overrides| {
        let NameDropperParams(topology) =
            overridden(name, NameDropperParams(Topology::Ring), overrides)?;
        Ok(name_dropper::run_report(
            scenario.n(),
            topology,
            scenario.common(),
        ))
    },
};

/// Name-Dropper's one knob: the initial knowledge graph.
#[derive(Clone, Debug)]
struct NameDropperParams(Topology);

impl Knobs for NameDropperParams {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        vec![("topology", Slot::Choice(&mut self.0))]
    }
}

/// Oracle `Δ`-ary PULL tree: exactly `⌈log_Δ n⌉` rounds with free
/// address knowledge, the unreachable optimum of Lemma 16 — see [`tree`].
pub static TREE: Algo = Algo {
    name: "Tree",
    about: "Oracle delta-ary PULL tree: exactly ceil(log_delta n) rounds (Lemma 16 optimum)",
    law: Law::TreeDepth,
    params: || DeltaParams::new(tree::MIN_DELTA, ()).params(),
    run: |name, scenario, overrides| {
        let p = overridden(name, DeltaParams::new(tree::MIN_DELTA, ()), overrides)?;
        let delta = p.delta_for(scenario.n());
        Ok(tree::run(scenario.n(), delta, scenario.common()))
    },
};

/// Every algorithm in the repository, headline comparison first: the
/// seven broadcast algorithms compared across experiments E1–E3 (in their
/// canonical table order), then the `Δ`-parameterized paper algorithms
/// and the discovery baseline.
#[must_use]
pub fn all() -> &'static [&'static dyn Algorithm] {
    static ALL: [&'static dyn Algorithm; 11] = [
        &CLUSTER2,
        &CLUSTER1,
        &AVIN_ELSASSER,
        &KARP,
        &PUSH_PULL,
        &PUSH,
        &PULL,
        &CLUSTER3,
        &CLUSTER_PUSH_PULL,
        &TREE,
        &NAME_DROPPER,
    ];
    &ALL
}

/// The paper's headline comparison set (experiments E1–E3, the shootout
/// example and the golden grid): unparameterized broadcast algorithms,
/// headline first.
#[must_use]
pub fn compared() -> &'static [&'static dyn Algorithm] {
    &all()[..7]
}

/// Error from [`by_name`]: no algorithm under that name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownAlgorithm {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = all().iter().map(|a| a.name()).collect();
        write!(
            f,
            "unknown algorithm {:?}; valid names (case-insensitive): {}",
            self.name,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownAlgorithm {}

/// Looks an algorithm up by name (case- and separator-insensitive).
///
/// # Errors
///
/// Returns [`UnknownAlgorithm`] — whose `Display` lists every valid
/// name — when nothing matches.
pub fn by_name(name: &str) -> Result<&'static dyn Algorithm, UnknownAlgorithm> {
    let key = normalize(name);
    all()
        .iter()
        .find(|a| normalize(a.name()) == key)
        .copied()
        .ok_or_else(|| UnknownAlgorithm { name: name.into() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::algo::Scenario;
    use gossip_core::params::Value;

    #[test]
    fn registry_has_all_eleven() {
        assert_eq!(all().len(), 11);
        assert_eq!(compared().len(), 7);
        assert_eq!(compared()[0].name(), "Cluster2", "headline first");
    }

    #[test]
    fn by_name_is_case_and_separator_insensitive() {
        for (query, want) in [
            ("cluster2", "Cluster2"),
            ("CLUSTER2", "Cluster2"),
            ("push-pull", "PushPull"),
            ("push_pull", "PushPull"),
            ("cluster-push-pull", "ClusterPushPull"),
            ("name_dropper", "NameDropper"),
            ("avinelsasser", "AvinElsasser"),
        ] {
            assert_eq!(by_name(query).unwrap().name(), want, "{query}");
        }
    }

    #[test]
    fn unknown_name_lists_valid_names() {
        let err = by_name("gossipzilla").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gossipzilla"), "{msg}");
        for algo in all() {
            assert!(msg.contains(algo.name()), "{msg} missing {}", algo.name());
        }
    }

    #[test]
    fn name_dropper_names_n_when_the_network_is_too_small() {
        for n in [0, 1] {
            let err = NAME_DROPPER
                .run_with_params(&Scenario::broadcast(n), &Value::empty())
                .unwrap_err();
            assert!(
                err.0.contains("\"n\"") && err.0.contains(&format!("got {n}")),
                "{err:?}"
            );
        }
        assert!(NAME_DROPPER
            .run_with_params(&Scenario::broadcast(2), &Value::empty())
            .is_ok());
    }

    #[test]
    fn every_algorithm_runs_the_default_scenario() {
        let scenario = gossip_core::algo::Scenario::broadcast(256).seed(1);
        for algo in all() {
            let r = algo.run(&scenario);
            assert!(
                r.success,
                "{} failed: {}/{}",
                algo.name(),
                r.informed,
                r.alive
            );
            assert!(r.rounds > 0, "{} reported zero rounds", algo.name());
        }
    }
}
