//! The seven workloads: which grid of trials each one runs.
//!
//! A workload is a list of cells; a cell is one job repeated over
//! `trials` seeds that `gossip_harness::trial_seeds(seed, label, trials)`
//! derives from the benchmark's `--seed`. The library under test receives
//! only the generated `Scenario`s and seeds. Why each workload exists is
//! recorded in `../README.md` and `../../BENCHMARK.json`.

use std::path::Path;

use gossip_baselines::registry;
use gossip_core::algo::{Algorithm, Scenario};
use gossip_core::report::RunReport;
use gossip_lowerbound::{knowledge, theorem3, TrialVerdict};
use phonecall::dataset::fixture;
use phonecall::{ChurnConfig, DirectAddressing, Engine, Topology};

use crate::digest;

/// Workload names, in the order `run.sh` runs them.
pub const NAMES: [&str; 7] = [
    "complete_sync",
    "huge_sync",
    "graph_contacts",
    "async_latency",
    "traffic_churn",
    "sweep_small",
    "lowerbound_threshold",
];

/// Threads `sweep_small` fans its trials over. The sizing box has two
/// cores; the benchmark never uses more, so numbers stay comparable.
pub const SWEEP_THREADS: usize = 2;

/// What one trial executes.
// A grid holds at most 60 cells; boxing the scenario would save nothing.
#[allow(clippy::large_enum_variant)]
pub enum Job {
    /// `algo.run(&scenario.seed(trial_seed))`.
    Algo {
        /// The registry algorithm.
        algo: &'static dyn Algorithm,
        /// The scenario every trial of the cell shares, up to its seed.
        scenario: Scenario,
    },
    /// `theorem3::trial(n, t, trial_seed)`.
    Theorem3 {
        /// Network size.
        n: usize,
        /// Round budget `T`.
        t: u32,
    },
    /// `knowledge::rounds_to_complete(n, trial_seed, cap)`.
    Knowledge {
        /// Network size.
        n: usize,
        /// Round cap.
        cap: u32,
    },
}

/// What one trial returned.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// An algorithm run.
    Report(RunReport),
    /// A lower-bound trial.
    Verdict(TrialVerdict),
    /// A knowledge-graph completion time on `n` nodes.
    Rounds {
        /// Network size.
        n: usize,
        /// Rounds until complete, `None` past the cap.
        rounds: Option<u32>,
        /// The cap that was passed.
        cap: u32,
    },
}

/// One job over `trials` derived seeds.
pub struct Cell {
    /// Label: the seed-derivation key and the row in `expected/*.tsv`.
    pub label: String,
    /// Trials (seeds) in the cell.
    pub trials: u32,
    /// The job.
    pub job: Job,
    /// Complete graph, synchronous engine, no adversary: the paper's
    /// setting, where every algorithm informs every node.
    pub expect_success: bool,
}

/// A named grid.
pub struct Workload {
    /// One of [`NAMES`].
    pub name: &'static str,
    /// Threads handed to `par_map_trials_on`.
    pub threads: usize,
    /// The grid.
    pub cells: Vec<Cell>,
}

impl Job {
    /// Runs one trial.
    #[must_use]
    pub fn run(&self, seed: u64) -> Outcome {
        match self {
            Job::Algo { algo, scenario } => Outcome::Report(algo.run(&scenario.clone().seed(seed))),
            Job::Theorem3 { n, t } => Outcome::Verdict(theorem3::trial(*n, *t, seed)),
            Job::Knowledge { n, cap } => Outcome::Rounds {
                n: *n,
                rounds: knowledge::rounds_to_complete(*n, seed, *cap),
                cap: *cap,
            },
        }
    }

    /// The layer (`crate.module.function`) a trial's span is named after.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        match self {
            Job::Algo { algo, .. } => match algo.name() {
                "Cluster1" => "core.cluster1.run",
                "Cluster2" => "core.cluster2.run",
                "Cluster3" => "core.cluster3.run",
                "ClusterPushPull" => "core.cluster_push_pull.run",
                "AvinElsasser" => "baselines.avin_elsasser.run",
                "Karp" => "baselines.karp.run",
                "PushPull" => "baselines.push_pull.run",
                "Push" => "baselines.push.run",
                "Pull" => "baselines.pull.run",
                "NameDropper" => "baselines.name_dropper.run",
                "Tree" => "baselines.tree.run",
                other => panic!("algorithm {other} has no layer name; add it to Job::layer"),
            },
            Job::Theorem3 { .. } => "lowerbound.theorem3.trial",
            Job::Knowledge { .. } => "lowerbound.knowledge.rounds_to_complete",
        }
    }
}

impl Outcome {
    /// FNV-1a over every field.
    #[must_use]
    pub fn digest(&self) -> u64 {
        match self {
            Outcome::Report(r) => digest::report(r),
            Outcome::Verdict(v) => digest::verdict(v),
            Outcome::Rounds { rounds, .. } => digest::rounds(*rounds),
        }
    }

    /// Simulated events: `n ×` rounds (schedule steps under the async
    /// engine, `T` for a lower-bound trial).
    #[must_use]
    pub fn node_rounds(&self) -> u64 {
        match self {
            Outcome::Report(r) => r.n as u64 * r.rounds,
            Outcome::Verdict(v) => v.n as u64 * u64::from(v.t),
            Outcome::Rounds { n, rounds, cap } => *n as u64 * u64::from(rounds.unwrap_or(*cap)),
        }
    }

    /// Simulated messages (0 for lower-bound trials, which send none).
    #[must_use]
    pub fn msgs(&self) -> u64 {
        match self {
            Outcome::Report(r) => r.messages,
            Outcome::Verdict(_) | Outcome::Rounds { .. } => 0,
        }
    }

    /// The seed-independent checks: what must hold for *any* seed.
    #[must_use]
    pub fn violation(&self, cell: &Cell) -> Option<String> {
        match self {
            Outcome::Report(r) => {
                if r.informed > r.alive {
                    Some(format!("informed {} > alive {}", r.informed, r.alive))
                } else if cell.expect_success && !r.success {
                    Some(format!("{}/{} informed, want success", r.informed, r.alive))
                } else {
                    None
                }
            }
            // Theorem 3's 0.99·log log n is asymptotic: at n ≤ 2^16 the
            // T = 3 cells sit on the transition and do come out possible,
            // so the seed-independent law is held one round further down.
            Outcome::Verdict(v) => (f64::from(v.t + 1) <= theorem3::paper_threshold(v.n)
                && v.possible)
                .then(|| format!("T = {} is a round below the threshold but possible", v.t)),
            Outcome::Rounds { .. } => None,
        }
    }
}

fn algo(name: &str) -> &'static dyn Algorithm {
    registry::by_name(name).unwrap_or_else(|e| panic!("benchmark grid: {e}"))
}

fn algo_cell(label: String, trials: u32, name: &str, scenario: Scenario, ok: bool) -> Cell {
    Cell {
        label,
        trials,
        job: Job::Algo {
            algo: algo(name),
            scenario,
        },
        expect_success: ok,
    }
}

/// E10's `storm` profile: crash batches of `n/64` with recovery over the
/// first 30 rounds, plus Gilbert–Elliott burst loss; the source protected.
#[must_use]
pub fn storm_churn(n: usize) -> ChurnConfig {
    ChurnConfig {
        crash_rate: 1.0,
        batch_size: (n / 64).max(4) as u32,
        recovery_rate: 0.15,
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        start_round: 1,
        stop_round: Some(30),
        protected: vec![0],
        ..ChurnConfig::default()
    }
}

/// The `choked_storm` scenario of `traffic_churn` (also the raw probes').
#[must_use]
pub fn choked_storm(n: usize) -> Scenario {
    Scenario::broadcast(n)
        .rumors(32, 8.0)
        .bandwidth(1)
        .churn(storm_churn(n))
        .message_loss(0.05)
}

/// The synthetic graph families of `graph_contacts`, with their metric tags.
#[must_use]
pub fn graph_families() -> [(&'static str, Topology); 5] {
    [
        ("ring", Topology::Ring),
        ("torus2d", Topology::Torus2D),
        ("random_regular", Topology::RandomRegular(8)),
        ("watts_strogatz", Topology::WattsStrogatz(8, 0.1)),
        ("pref_attach", Topology::PreferentialAttachment(4)),
    ]
}

fn complete(tag: &str, n: usize, algos: &[&str]) -> Vec<Cell> {
    algos
        .iter()
        .map(|name| {
            algo_cell(
                format!("complete/{tag}/{name}"),
                1,
                name,
                Scenario::broadcast(n),
                true,
            )
        })
        .collect()
}

fn graph_contacts(fixtures: &Path) -> Vec<Cell> {
    let mut graphs: Vec<(String, usize, Topology)> = Vec::new();
    for (tag, topo) in graph_families() {
        graphs.push((format!("{tag}/2p11"), 1 << 11, topo));
    }
    for (tag, topo) in [&graph_families()[2], &graph_families()[4]] {
        graphs.push((format!("{tag}/2p14"), 1 << 14, topo.clone()));
    }
    for f in fixture::catalog() {
        // The label (not the path) feeds seed derivation, so trial seeds
        // do not depend on where the checkout lives.
        let path = fixtures.join(f.file_name).to_string_lossy().into_owned();
        graphs.push((
            format!("file:{}", f.name),
            f.nodes,
            Topology::FromFile(path),
        ));
    }
    let mut cells = Vec::new();
    for (tag, n, topo) in &graphs {
        for name in ["Cluster2", "PushPull", "Karp"] {
            for mode in [DirectAddressing::Overlay, DirectAddressing::Restricted] {
                let scenario = Scenario::broadcast(*n)
                    .topology(topo.clone())
                    .addressing(mode);
                let label = format!("graph/{tag}/{name}/{}", mode.label());
                cells.push(algo_cell(label, 3, name, scenario, false));
            }
        }
    }
    cells
}

fn async_latency() -> Vec<Cell> {
    let n = 1 << 14;
    let mut cells = Vec::new();
    for profile in ["fixed", "uniform", "exp"] {
        let cfg = Engine::profile(profile).expect("a catalog latency profile");
        for name in ["Cluster2", "PushPull", "Karp"] {
            let scenario = Scenario::broadcast(n).engine(Engine::Async(cfg.clone()));
            cells.push(algo_cell(
                format!("async/{profile}/{name}"),
                1,
                name,
                scenario,
                false,
            ));
        }
    }
    cells
}

fn traffic_churn() -> Vec<Cell> {
    let n = 1 << 14;
    let profiles = [
        ("choked_storm", choked_storm(n)),
        ("steady", Scenario::broadcast(n).rumors(32, 1.0)),
    ];
    let mut cells = Vec::new();
    for (profile, scenario) in &profiles {
        for name in ["Cluster2", "ClusterPushPull", "PushPull", "Karp"] {
            let label = format!("traffic/{profile}/{name}");
            cells.push(algo_cell(label, 4, name, scenario.clone(), false));
        }
    }
    cells
}

fn sweep_small() -> Vec<Cell> {
    let mut cells = Vec::new();
    for exp in [8u32, 10, 12] {
        for a in registry::all() {
            // NameDropper's quadratic state is visible at 2^8 and would
            // drown every other layer above it (0.66 s per trial at 2^10).
            if a.name() == "NameDropper" && exp > 8 {
                continue;
            }
            cells.push(Cell {
                label: format!("sweep/2p{exp}/{}", a.name()),
                trials: 32,
                job: Job::Algo {
                    algo: *a,
                    scenario: Scenario::broadcast(1 << exp),
                },
                expect_success: true,
            });
        }
    }
    cells
}

fn lowerbound_threshold() -> Vec<Cell> {
    let lb = |n: usize, t: u32, trials: u32| Cell {
        label: format!("lb/2p{}/T{t}", n.trailing_zeros()),
        trials,
        job: Job::Theorem3 { n, t },
        expect_success: false,
    };
    let mut cells = Vec::new();
    for n in [1usize << 10, 1 << 12] {
        cells.extend((1..=6).map(|t| lb(n, t, 3)));
    }
    cells.extend([2, 4, 6].map(|t| lb(1 << 16, t, 1)));
    cells.push(Cell {
        label: "lb/knowledge/2p10".to_string(),
        trials: 5,
        job: Job::Knowledge {
            n: 1 << 10,
            cap: 30,
        },
        expect_success: false,
    });
    cells
}

/// Builds the named workload's grid. `fixtures` is where
/// `graph_contacts` finds its edge-list files (see `runner::setup`).
///
/// # Errors
///
/// Returns a message listing the valid names for an unknown one.
pub fn build(name: &str, fixtures: &Path) -> Result<Workload, String> {
    let Some(&name) = NAMES.iter().find(|&&w| w == name) else {
        return Err(format!(
            "unknown workload {name:?}; valid: {}",
            NAMES.join(", ")
        ));
    };
    let cells = match name {
        "complete_sync" => complete(
            "2p16",
            1 << 16,
            &[
                "Cluster2",
                "Cluster1",
                "Cluster3",
                "ClusterPushPull",
                "AvinElsasser",
                "Karp",
                "PushPull",
                "Push",
                "Pull",
            ],
        ),
        "huge_sync" => complete("2p19", 1 << 19, &["Cluster2", "PushPull", "Karp"]),
        "graph_contacts" => graph_contacts(fixtures),
        "async_latency" => async_latency(),
        "traffic_churn" => traffic_churn(),
        "sweep_small" => sweep_small(),
        "lowerbound_threshold" => lowerbound_threshold(),
        _ => unreachable!("NAMES is matched exhaustively"),
    };
    Ok(Workload {
        name,
        threads: if name == "sweep_small" {
            SWEEP_THREADS
        } else {
            1
        },
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trials(name: &str) -> u32 {
        let w = build(name, Path::new("unused")).unwrap();
        w.cells.iter().map(|c| c.trials).sum()
    }

    #[test]
    fn grids_have_the_documented_sizes() {
        assert_eq!(trials("complete_sync"), 9);
        assert_eq!(trials("huge_sync"), 3);
        assert_eq!(trials("graph_contacts"), 180);
        assert_eq!(trials("async_latency"), 9);
        assert_eq!(trials("traffic_churn"), 32);
        assert_eq!(trials("sweep_small"), 992);
        assert_eq!(trials("lowerbound_threshold"), 44);
    }

    #[test]
    fn labels_are_unique_within_a_workload() {
        for name in NAMES {
            let w = build(name, Path::new("unused")).unwrap();
            let mut labels: Vec<&str> = w.cells.iter().map(|c| c.label.as_str()).collect();
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(labels.len(), before, "{name}");
            assert_eq!(w.threads, if name == "sweep_small" { 2 } else { 1 });
        }
        assert!(build("nope", Path::new("unused"))
            .err()
            .unwrap()
            .contains("valid:"));
    }

    #[test]
    fn every_registry_algorithm_has_a_layer_name() {
        for a in registry::all() {
            let job = Job::Algo {
                algo: *a,
                scenario: Scenario::broadcast(8),
            };
            assert!(job.layer().ends_with(".run"), "{}", a.name());
        }
    }

    #[test]
    fn outcomes_count_simulated_events_and_check_invariants() {
        let cell = &build("sweep_small", Path::new("unused")).unwrap().cells[0];
        let Outcome::Report(mut r) = cell.job.run(3) else {
            panic!("algo cells return reports")
        };
        let out = Outcome::Report(r.clone());
        assert_eq!(out.node_rounds(), 256 * r.rounds);
        assert_eq!(out.msgs(), r.messages);
        assert_eq!(out.violation(cell), None);
        r.success = false;
        assert!(Outcome::Report(r.clone()).violation(cell).is_some());
        r.informed = r.alive + 1;
        assert!(Outcome::Report(r).violation(cell).is_some());

        let low = Outcome::Verdict(TrialVerdict {
            n: 1 << 12,
            t: 2,
            possible: true,
            diam_lo: 9,
        });
        assert!(low.violation(cell).is_some());
        assert_eq!(low.node_rounds(), 2 << 12);
        let none = Outcome::Rounds {
            n: 16,
            rounds: None,
            cap: 30,
        };
        assert_eq!(none.node_rounds(), 16 * 30);
    }
}
