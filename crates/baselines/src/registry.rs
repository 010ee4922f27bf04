//! The algorithm registry: every gossip algorithm in the repository —
//! the four paper algorithms and the seven baselines — as
//! `&'static dyn Algorithm`, addressable by name.
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
    resolve_delta, Algorithm, Law, Scenario, CLUSTER1, CLUSTER2, CLUSTER3, CLUSTER_PUSH_PULL,
};
use gossip_core::params::{ParamError, Value};
use gossip_core::report::RunReport;

use crate::name_dropper::{self, Topology};
use crate::{avin_elsasser, karp, pull, push, push_pull, tree};

/// Rejects any override for an algorithm without tunables (including
/// non-object override documents, which would otherwise be silently
/// ignored).
fn no_params(name: &str, overrides: &Value) -> Result<(), ParamError> {
    match overrides.expect_obj(&format!("{name} parameters"))? {
        [] => Ok(()),
        [(key, _), ..] => Err(ParamError(format!(
            "unknown {name} parameter {key:?}; {name} has no tunable parameters"
        ))),
    }
}

macro_rules! simple_baseline {
    ($struct_name:ident, $static_name:ident, $name:literal, $law:expr, $about:literal, $module:ident) => {
        #[doc = concat!("[`", stringify!($module), "`] as a trait object.")]
        pub struct $struct_name;

        #[doc = $about]
        pub static $static_name: $struct_name = $struct_name;

        impl Algorithm for $struct_name {
            fn name(&self) -> &'static str {
                $name
            }

            fn about(&self) -> &'static str {
                $about
            }

            fn law(&self) -> Law {
                $law
            }

            fn default_params(&self) -> Value {
                Value::empty()
            }

            fn run_with_params(
                &self,
                scenario: &Scenario,
                overrides: &Value,
            ) -> Result<RunReport, ParamError> {
                no_params($name, overrides)?;
                Ok($module::run(scenario.n(), scenario.common()))
            }
        }
    };
}

simple_baseline!(
    PushAlgo,
    PUSH,
    "Push",
    Law::Log,
    "Uniform PUSH gossip (Pittel): Theta(log n) rounds, Theta(log n) msgs/node",
    push
);
simple_baseline!(
    PullAlgo,
    PULL,
    "Pull",
    Law::Log,
    "Uniform PULL gossip: Theta(log n) rounds, Theta(log n) requests/node",
    pull
);
simple_baseline!(
    PushPullAlgo,
    PUSH_PULL,
    "PushPull",
    Law::Log,
    "PUSH-PULL (informed push, uninformed pull): Theta(log n) rounds",
    push_pull
);
simple_baseline!(
    KarpAlgo,
    KARP,
    "Karp",
    Law::Log,
    "Karp et al. counter-terminated PUSH-PULL: Theta(log n) rounds, Theta(log log n) transmissions",
    karp
);
simple_baseline!(
    AvinElsasserAlgo,
    AVIN_ELSASSER,
    "AvinElsasser",
    Law::SqrtLog,
    "Avin-Elsasser structural reconstruction: Theta(sqrt(log n)) rounds",
    avin_elsasser
);

/// [`name_dropper`] as a trait object (resource discovery, not broadcast:
/// `informed` counts nodes with complete knowledge, `success` means the
/// knowledge graph closed).
pub struct NameDropperAlgo;

/// Name-Dropper resource discovery (Harchol-Balter, Leighton & Lewin).
pub static NAME_DROPPER: NameDropperAlgo = NameDropperAlgo;

impl Algorithm for NameDropperAlgo {
    fn name(&self) -> &'static str {
        "NameDropper"
    }

    fn about(&self) -> &'static str {
        "Name-Dropper resource discovery: O(log^2 n) rounds, Theta(n log n)-bit messages"
    }

    fn law(&self) -> Law {
        Law::LogSquared
    }

    fn default_params(&self) -> Value {
        Value::obj([("topology", Value::Str("ring".into()))])
    }

    fn run_with_params(
        &self,
        scenario: &Scenario,
        overrides: &Value,
    ) -> Result<RunReport, ParamError> {
        let mut topology = Topology::Ring;
        for (key, v) in overrides.expect_obj("NameDropper parameters")? {
            match key.as_str() {
                "topology" => {
                    topology = match v.as_str() {
                        Some("ring") => Topology::Ring,
                        Some("sparse-random") => Topology::SparseRandom,
                        _ => {
                            return Err(ParamError(format!(
                            "parameter \"topology\" wants \"ring\" or \"sparse-random\", got {}",
                            v.render()
                        )))
                        }
                    }
                }
                _ => {
                    return Err(ParamError(format!(
                        "unknown NameDropper parameter {key:?}; valid keys: topology"
                    )))
                }
            }
        }
        let n = scenario.n();
        if n < 2 {
            return Err(ParamError(format!(
                "scenario size \"n\" wants at least 2 for NameDropper (discovery needs someone to discover), got {n}"
            )));
        }
        Ok(name_dropper::run_report(n, topology, scenario.common()))
    }
}

/// [`tree`] as a trait object: the oracle `Δ`-ary PULL tree, the
/// unreachable optimum of Lemma 16.
pub struct TreeAlgo;

/// Oracle `Δ`-ary PULL tree: exactly `⌈log_Δ n⌉` rounds with free
/// address knowledge.
pub static TREE: TreeAlgo = TreeAlgo;

impl Algorithm for TreeAlgo {
    fn name(&self) -> &'static str {
        "Tree"
    }

    fn about(&self) -> &'static str {
        "Oracle delta-ary PULL tree: exactly ceil(log_delta n) rounds (Lemma 16 optimum)"
    }

    fn law(&self) -> Law {
        Law::TreeDepth
    }

    fn default_params(&self) -> Value {
        Value::obj([("delta", Value::Null)])
    }

    fn run_with_params(
        &self,
        scenario: &Scenario,
        overrides: &Value,
    ) -> Result<RunReport, ParamError> {
        for (key, _) in overrides.expect_obj("Tree parameters")? {
            if key != "delta" {
                return Err(ParamError(format!(
                    "unknown Tree parameter {key:?}; valid keys: delta"
                )));
            }
        }
        let delta = resolve_delta(overrides, scenario.n())?;
        Ok(tree::run(scenario.n(), delta, scenario.common()))
    }
}

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

/// Case- and separator-insensitive key: `"push-pull"`, `"push_pull"` and
/// `"PushPull"` all address the same algorithm.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '-' && *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

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
