//! Set-up, repeats and output checks shared by both binaries.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use gossip_harness::par_map_trials_on;
use phonecall::dataset::{self, fixture};

use crate::replica::{self, Part};
use crate::span::Trace;
use crate::workloads::{self, Cell, Job, Outcome, Workload};

/// The seed `expected/*.tsv` were blessed under, and `run.sh`'s default.
pub const DEFAULT_SEED: u64 = 0xB11;

/// When one trial ran, for the traced binary.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Outside calls inside the trial (the Cluster2 replica's phases).
    pub parts: Vec<Part>,
}

/// One executed trial.
#[derive(Clone, Debug)]
pub struct TrialRecord {
    /// The trial seed.
    pub seed: u64,
    /// Result digest; `None` when the trial panicked.
    pub digest: Option<u64>,
    /// Simulated events (see [`Outcome::node_rounds`]).
    pub node_rounds: u64,
    /// Simulated messages.
    pub msgs: u64,
    /// A seed-independent invariant the outcome broke, if any.
    pub violation: Option<String>,
    /// Timestamps; only filled when tracing.
    pub timing: Timing,
}

/// One pass over a workload's whole grid.
#[derive(Clone, Debug)]
pub struct Repeat {
    /// Host time for the pass.
    pub wall_ns: u64,
    /// `trials[c]` are cell `c`'s records, in seed order.
    pub trials: Vec<Vec<TrialRecord>>,
    /// `(start, end)` of each cell, ns since the trace origin; zeros when
    /// not tracing.
    pub cell_bounds: Vec<(u64, u64)>,
}

impl Repeat {
    /// Every record, cell by cell.
    pub fn records(&self) -> impl Iterator<Item = &TrialRecord> {
        self.trials.iter().flatten()
    }

    /// Trials in the grid.
    #[must_use]
    pub fn trial_count(&self) -> u64 {
        self.records().count() as u64
    }

    /// Σ simulated events over the grid.
    #[must_use]
    pub fn node_rounds(&self) -> u64 {
        self.records().map(|t| t.node_rounds).sum()
    }

    /// Σ simulated messages over the grid.
    #[must_use]
    pub fn msgs(&self) -> u64 {
        self.records().map(|t| t.msgs).sum()
    }

    /// Each trial's span in ns (all zero unless the pass was traced).
    #[must_use]
    pub fn trial_ns(&self) -> Vec<f64> {
        self.records()
            .map(|r| (r.timing.end_ns - r.timing.start_ns) as f64)
            .collect()
    }
}

/// Where a workload keeps its generated edge-list files.
#[must_use]
pub fn fixtures_dir(out: &Path) -> PathBuf {
    out.join("fixtures")
}

/// Everything before the first repeat: resolve the registry names, build
/// the grid, and — for `graph_contacts`, the one workload that reads
/// files — regenerate the fixtures under `out/fixtures/` and load each
/// once cold (parse + `.csrcache` write), so trials hit warm caches. The
/// committed `tests/data/` is never touched.
///
/// # Errors
///
/// Returns a message for an unknown workload or an unwritable `out`.
pub fn setup(name: &str, out: &Path) -> Result<Workload, String> {
    let fixtures = fixtures_dir(out);
    if name == "graph_contacts" {
        // A leftover cache with a matching length/mtime stamp would turn
        // the cold load warm; start from nothing.
        match std::fs::remove_dir_all(&fixtures) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot clear {}: {e}", fixtures.display())),
        }
        for path in fixture::write_all(&fixtures)? {
            dataset::load(&path)?;
        }
    }
    workloads::build(name, &fixtures)
}

fn run_trial(cell: &Cell, seed: u64, clock: Option<Instant>) -> TrialRecord {
    let now = |c: Instant| c.elapsed().as_nanos() as u64;
    let mut timing = Timing::default();
    if let Some(c) = clock {
        timing.start_ns = now(c);
    }
    let parts = &mut timing.parts;
    // A panicking trial is a failed operation, not a failed benchmark.
    let outcome = catch_unwind(AssertUnwindSafe(|| match (&cell.job, clock) {
        (Job::Algo { algo, scenario }, Some(origin)) if algo.name() == "Cluster2" => {
            Outcome::Report(replica::run(&scenario.clone().seed(seed), origin, parts))
        }
        (job, _) => job.run(seed),
    }));
    if let Some(c) = clock {
        timing.end_ns = now(c);
    }
    match outcome {
        Ok(o) => TrialRecord {
            seed,
            digest: Some(o.digest()),
            node_rounds: o.node_rounds(),
            msgs: o.msgs(),
            violation: o.violation(cell),
            timing,
        },
        Err(_) => TrialRecord {
            seed,
            digest: None,
            node_rounds: 0,
            msgs: 0,
            violation: Some("panicked".to_string()),
            timing,
        },
    }
}

/// Runs the whole grid once on `threads` threads. With a `clock`, trials
/// carry timestamps and Cluster2 runs phase by phase through
/// [`replica::run`]; without, nothing but the pass itself is timed.
#[must_use]
pub fn run_repeat(w: &Workload, threads: usize, seed: u64, clock: Option<Instant>) -> Repeat {
    let start = Instant::now();
    let now = || clock.map_or(0, |c| c.elapsed().as_nanos() as u64);
    let mut trials = Vec::with_capacity(w.cells.len());
    let mut cell_bounds = Vec::with_capacity(w.cells.len());
    for cell in &w.cells {
        let cell_start = now();
        trials.push(par_map_trials_on(
            threads,
            seed,
            &cell.label,
            cell.trials,
            |trial_seed| run_trial(cell, trial_seed, clock),
        ));
        cell_bounds.push((cell_start, now()));
    }
    Repeat {
        wall_ns: start.elapsed().as_nanos() as u64,
        trials,
        cell_bounds,
    }
}

/// Runs one traced repeat and records it under `parent`: repeat → cell →
/// trial → parts. Returns the repeat and its span id.
pub fn run_traced_repeat(
    w: &Workload,
    seed: u64,
    trace: &mut Trace,
    parent: u32,
    next_trial: &mut u32,
) -> (Repeat, u32) {
    let id = trace.open(Some(parent), "repeat");
    let repeat = run_repeat(w, w.threads, seed, Some(trace.origin()));
    trace.close(id);
    for ((cell, records), &(start, end)) in
        w.cells.iter().zip(&repeat.trials).zip(&repeat.cell_bounds)
    {
        let cell_id = trace.add(Some(id), None, format!("cell {}", cell.label), start, end);
        for r in records {
            let trial = Some(*next_trial);
            *next_trial += 1;
            let t = &r.timing;
            let trial_id = trace.add(Some(cell_id), trial, cell.job.layer(), t.start_ns, t.end_ns);
            for &(name, start, end) in &t.parts {
                trace.add(Some(trial_id), trial, name, start, end);
            }
        }
    }
    (repeat, id)
}

/// Renders a repeat as `expected/<workload>.tsv`: one
/// `label<TAB>seed<TAB>digest` line per trial.
#[must_use]
pub fn render_tsv(w: &Workload, repeat: &Repeat) -> String {
    let mut out = String::from("# cell\tseed\tdigest (FNV-1a over every result field)\n");
    for (cell, records) in w.cells.iter().zip(&repeat.trials) {
        for r in records {
            let digest = r
                .digest
                .map_or_else(|| "panicked".to_string(), |d| format!("{d:016x}"));
            out.push_str(&format!("{}\t{:016x}\t{digest}\n", cell.label, r.seed));
        }
    }
    out
}

/// Failed trials of `repeat`, with the reason for the first few.
///
/// A trial fails when it panicked, broke a seed-independent invariant,
/// differs from the `reference` pass (the warm-up: same seeds, so every
/// digest must repeat), or — when `expected` is the blessed TSV for this
/// seed — differs from the committed digest.
#[must_use]
pub fn failures(
    w: &Workload,
    repeat: &Repeat,
    reference: Option<&Repeat>,
    expected: Option<&str>,
) -> Vec<String> {
    let blessed: Option<BTreeMap<(&str, &str), &str>> = expected.map(|text| {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.split('\t');
                Some(((f.next()?, f.next()?), f.next()?))
            })
            .collect()
    });
    let mut out = Vec::new();
    for (c, (cell, records)) in w.cells.iter().zip(&repeat.trials).enumerate() {
        for (k, r) in records.iter().enumerate() {
            let seed = format!("{:016x}", r.seed);
            let digest = r.digest.map(|d| format!("{d:016x}"));
            let why = if let Some(v) = &r.violation {
                Some(v.clone())
            } else if reference.is_some_and(|p| p.trials[c][k].digest != r.digest) {
                Some("digest differs from the warm-up pass".to_string())
            } else if let Some(map) = &blessed {
                match map.get(&(cell.label.as_str(), seed.as_str())) {
                    None => Some("no blessed digest (re-run with --bless)".to_string()),
                    Some(&want) if Some(want) != digest.as_deref() => Some(format!(
                        "digest {} differs from blessed {want}",
                        digest.as_deref().unwrap_or("-")
                    )),
                    Some(_) => None,
                }
            } else {
                None
            };
            if let Some(why) = why {
                out.push(format!("{} seed {seed}: {why}", cell.label));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Cell, Job};
    use gossip_core::algo::Scenario;

    /// A seconds-scale stand-in grid: real algorithms, tiny `n`.
    fn tiny() -> Workload {
        let algo = |name: &str| Cell {
            label: format!("tiny/{name}"),
            trials: 3,
            job: Job::Algo {
                algo: gossip_baselines::registry::by_name(name).unwrap(),
                scenario: Scenario::broadcast(1 << 9),
            },
            expect_success: true,
        };
        Workload {
            name: "complete_sync",
            threads: 2,
            cells: vec![
                algo("Cluster2"),
                algo("PushPull"),
                Cell {
                    label: "tiny/lb".to_string(),
                    trials: 2,
                    job: Job::Theorem3 { n: 256, t: 5 },
                    expect_success: false,
                },
            ],
        }
    }

    #[test]
    fn repeats_agree_and_traced_equals_untraced() {
        let w = tiny();
        let a = run_repeat(&w, 1, 7, None);
        let b = run_repeat(&w, 2, 7, None);
        assert_eq!(a.trial_count(), 8);
        assert!(a.node_rounds() > 0 && a.msgs() > 0);
        assert!(failures(&w, &b, Some(&a), None).is_empty());
        let tsv = render_tsv(&w, &a);
        assert_eq!(tsv.lines().count(), 9);
        assert!(failures(&w, &b, None, Some(&tsv)).is_empty());

        let mut trace = Trace::default();
        let root = trace.open(None, "workload");
        let mut next = 0;
        let (traced, id) = run_traced_repeat(&w, 7, &mut trace, root, &mut next);
        trace.close(root);
        assert_eq!(next, 8);
        assert!(failures(&w, &traced, Some(&a), Some(&tsv)).is_empty());
        // repeat + 3 cells + 8 trials + 9 parts for each Cluster2 trial.
        assert_eq!(trace.spans().len(), 1 + 1 + 3 + 8 + 27);
        let layers = trace.layer_times(id);
        assert_eq!(layers["core.cluster2.run"].count, 3);
        assert_eq!(layers["core.cluster2.phase.square"].count, 3);
        assert_eq!(layers["cell"].count, 3);

        // Another seed is another grid.
        let c = run_repeat(&w, 1, 8, None);
        assert!(!failures(&w, &c, Some(&a), None).is_empty());
    }

    #[test]
    fn failures_name_what_went_wrong() {
        let w = tiny();
        let a = run_repeat(&w, 1, 7, None);
        let tsv = render_tsv(&w, &a);

        let mut moved = a.clone();
        moved.trials[1][2].digest = Some(1);
        let f = failures(&w, &moved, Some(&a), None);
        assert_eq!(f.len(), 1);
        assert!(f[0].starts_with("tiny/PushPull") && f[0].contains("warm-up"));
        let f = failures(&w, &moved, None, Some(&tsv));
        assert!(f[0].contains("differs from blessed"), "{f:?}");

        let mut panicked = a.clone();
        panicked.trials[0][0].digest = None;
        panicked.trials[0][0].violation = Some("panicked".to_string());
        assert!(failures(&w, &panicked, Some(&a), Some(&tsv))[0].contains("panicked"));
        assert!(render_tsv(&w, &panicked).contains("\tpanicked\n"));

        // A blessed file from another seed has no row for these trials.
        let other = render_tsv(&w, &run_repeat(&w, 1, 9, None));
        assert_eq!(failures(&w, &a, None, Some(&other)).len(), 8);
    }

    #[test]
    fn a_panicking_trial_is_counted_not_fatal() {
        let w = Workload {
            name: "complete_sync",
            threads: 1,
            cells: vec![Cell {
                label: "tiny/too-small".to_string(),
                trials: 2,
                // ClusterSim::new asserts n >= 2.
                job: Job::Algo {
                    algo: gossip_baselines::registry::by_name("Cluster2").unwrap(),
                    scenario: Scenario::broadcast(1),
                },
                expect_success: true,
            }],
        };
        let r = run_repeat(&w, 1, 1, None);
        assert!(r.records().all(|t| t.digest.is_none()));
        assert_eq!(failures(&w, &r, None, None).len(), 2);
    }

    #[test]
    fn setup_writes_fixtures_only_under_out() {
        let out =
            std::env::temp_dir().join(format!("gossip-benchmark-test-{}", std::process::id()));
        let w = setup("graph_contacts", &out).unwrap();
        assert_eq!(w.cells.len(), 60);
        for f in fixture::catalog() {
            let path = fixtures_dir(&out).join(f.file_name);
            assert!(path.exists());
            assert!(
                dataset::cache_path(&path).exists(),
                "cold load writes the cache"
            );
        }
        // A second set-up starts cold again.
        setup("graph_contacts", &out).unwrap();
        assert!(setup("nope", &out).is_err());
        std::fs::remove_dir_all(&out).unwrap();
    }
}
