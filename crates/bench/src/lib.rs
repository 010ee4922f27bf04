//! The one experiment driver behind the `exp_e1`…`exp_e14` binaries (see
//! EXPERIMENTS.md).
//!
//! Each binary is a grid description — a [`Spec`] naming its sizes and
//! trial counts per grid, its algorithm set and the flags it has no use
//! for — plus the measure and folds only it knows. [`Experiment`] owns
//! everything they share: the [`cli`] flags and their "ignoring --flag"
//! warnings, grid resolution (default / `--full` / `--huge`), the
//! `--topo` / `--engine` overrides ([`Experiment::scenario`]), the
//! algorithm × column cell loop ([`Experiment::sweep`]), table emission
//! in markdown or CSV with one blank line between blocks and the
//! closing "Reading" paragraph last, and the `BENCH_eK.json` record
//! `--json` writes.
//!
//! Every binary accepts `--full` for the larger grids recorded in
//! EXPERIMENTS.md, `--huge` for the million-node grid (the `--full`
//! grid where an experiment has none), `--csv` to emit CSV instead of
//! markdown, `--json` to additionally write a `BENCH_eK.json` results
//! record, the algorithm selection flags `--algo <name>` /
//! `--list-algos` / `--n <size>` / `--trials <k>` backed by the
//! algorithm registry (`gossip_baselines::registry`), the topology flags
//! `--topo <name[:param]>` / `--list-topos` backed by
//! `phonecall::Topology::catalog` and the engine flags
//! `--engine <sync|async[:profile]>` / `--list-engines` backed by
//! `phonecall::Engine::catalog` — no binary carries its own dispatch
//! table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

use std::io::Write;

pub use cli::Options;
use gossip_baselines::registry;
use gossip_core::algo::{Algorithm, Scenario};
use gossip_core::report::RunReport;
use gossip_core::Value;
use gossip_harness::{par_map_trials, Summary, Table};
use phonecall::{DirectAddressing, Topology};

/// Resolves a list of registry names into algorithm handles; the
/// experiment binaries use this for their fixed default sets.
///
/// # Panics
///
/// Panics if a name is not in the registry — the binaries' defaults are
/// compile-time constants, so a miss is a programming error.
#[must_use]
pub fn algos_by_name(names: &[&str]) -> Vec<&'static dyn Algorithm> {
    names
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|e| panic!("bad default algorithm list: {e}")))
        .collect()
}

/// Which of an experiment's grids a run resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// The quick grid a binary runs without flags.
    Default,
    /// The larger grid recorded in EXPERIMENTS.md: `--full`, and `--huge`
    /// on an experiment without a million-node grid.
    Full,
    /// The million-node grid (`--huge`), trials scaled down with `n`
    /// (see [`Experiment::trials_at`]).
    Huge,
}

impl Grid {
    fn label(self) -> &'static str {
        match self {
            Grid::Default => "default",
            Grid::Full => "full",
            Grid::Huge => "huge",
        }
    }
}

/// An experiment as a grid description: what [`Experiment::start`]
/// needs to resolve the command line into the grid that runs.
#[derive(Default)]
pub struct Spec {
    /// Record key and stderr prefix, e.g. `"e1"`.
    pub name: &'static str,
    /// Sizes and per-cell trial count of the default grid. No sizes
    /// means the experiment takes them from its inputs, and `--n` is
    /// ignored with a warning.
    pub default: (Vec<usize>, u32),
    /// Sizes and per-cell trial count of the `--full` grid.
    pub full: (Vec<usize>, u32),
    /// Sizes and base trial count of the million-node grid, if the
    /// experiment has one; without it `--huge` runs the `--full` grid.
    pub huge: Option<(Vec<usize>, u32)>,
    /// The algorithms to run; `--algo` replaces them unless `fixed`.
    pub algos: Vec<&'static dyn Algorithm>,
    /// The algorithm set is fixed by construction: `--algo` warns and is
    /// ignored unless it names one of `algos`.
    pub fixed: bool,
    /// The headline algorithm of the BENCH record when `--algo` selects
    /// none (default: the first of `algos`).
    pub head: Option<&'static str>,
    /// The experiment runs no scenario topology: `--topo` warns and is
    /// dropped.
    pub ignore_topo: bool,
    /// The experiment runs no scenario engine: `--engine` warns and is
    /// dropped.
    pub ignore_engine: bool,
}

/// Whether a `--topo` override fits every size of the resolved grid (a
/// knob error [`Topology::parse_spec`] cannot see without `n`). A
/// file-loaded graph is loaded once here, so a missing file or a node
/// count off the grid is reported before any trial builds it.
fn topo_fits(topo: Option<&Topology>, sizes: &[usize]) -> Result<(), String> {
    let Some(t) = topo else { return Ok(()) };
    sizes.iter().try_for_each(|&n| t.check(n))?;
    let Topology::FromFile(path) = t else {
        return Ok(());
    };
    let nodes = phonecall::dataset::load(path)
        .map_err(|e| format!("topology knob \"path\": {e}"))?
        .len();
    match sizes.iter().find(|&&n| n != nodes) {
        Some(n) => Err(format!(
            "topology knob \"path\": {path:?} describes {nodes} nodes but the network has {n}"
        )),
        None => Ok(()),
    }
}

/// One experiment run: the resolved grid, the output stream and the
/// BENCH record.
pub struct Experiment {
    name: &'static str,
    /// The parsed flags, minus the overrides the spec ignores.
    pub opts: Options,
    /// The grid that runs.
    pub grid: Grid,
    /// The size grid (`[--n]` if given).
    pub sizes: Vec<usize>,
    /// The base per-cell trial count (`--trials` if given).
    pub trials: u32,
    /// The algorithms to run (`[--algo]` if given and not fixed).
    pub algos: Vec<&'static dyn Algorithm>,
    /// The headline algorithm of the BENCH record: the `--algo`
    /// selection, else the spec's.
    pub head: &'static str,
    /// The record's `grid`: the grid's label, then the selection flags
    /// that took effect.
    label: String,
    out: Box<dyn Write + Send + Sync>,
    emitted: bool,
    metrics: Vec<(String, f64)>,
}

impl Experiment {
    /// Parses the command line (see [`cli::parse`]) and resolves it
    /// against `spec`; stdout is the output stream.
    #[must_use]
    pub fn start(spec: Spec) -> Self {
        Self::new(spec, cli::parse(), Box::new(std::io::stdout()))
    }

    fn new(spec: Spec, mut opts: Options, out: Box<dyn Write + Send + Sync>) -> Self {
        let name = spec.name;
        if spec.ignore_topo {
            if let Some(t) = opts.topo.take() {
                let t = t.describe();
                eprintln!("{name} does not run on a scenario topology; ignoring --topo {t}");
            }
        }
        if spec.ignore_engine {
            if let Some(e) = opts.engine.take() {
                let e = e.spec();
                eprintln!("{name} does not run on a scenario engine; ignoring --engine {e}");
            }
        }
        // The selection flags that take effect, for the record's `grid`.
        let mut flags = String::new();
        let head = spec.head.or(spec.algos.first().map(|a| a.name()));
        let (algos, head) = match opts.algo {
            Some(a) if !spec.fixed => {
                flags += &format!(" --algo {}", a.name());
                (vec![a], a.name())
            }
            Some(a) => {
                let runs: Vec<&str> = spec.algos.iter().map(|a| a.name()).collect();
                let a = a.name();
                if runs.is_empty() {
                    eprintln!("{name} has no algorithm to select; ignoring --algo {a}");
                } else if !runs.contains(&a) {
                    eprintln!("{name} always runs {}; ignoring --algo {a}", runs.join("+"));
                }
                (spec.algos, head.unwrap_or_default())
            }
            None => (spec.algos, head.unwrap_or_default()),
        };
        let grid = match (opts.huge, spec.huge.is_some(), opts.full) {
            (true, true, _) => Grid::Huge,
            (true, false, _) => {
                eprintln!("{name} has no million-node grid; running --full");
                Grid::Full
            }
            (false, _, true) => Grid::Full,
            (false, _, false) => Grid::Default,
        };
        let (sizes, trials) = match grid {
            Grid::Default => spec.default,
            Grid::Full => spec.full,
            Grid::Huge => spec.huge.expect("resolved only when present"),
        };
        let sizes = match opts.n {
            Some(_) if sizes.is_empty() => {
                eprintln!("{name} takes its sizes from its input files; ignoring --n");
                sizes
            }
            Some(n) => {
                flags += &format!(" --n {n}");
                vec![n]
            }
            None => sizes,
        };
        if let Some(t) = opts.trials {
            flags += &format!(" --trials {t}");
        }
        if let Some(t) = &opts.topo {
            flags += &format!(" --topo {}", t.describe());
        }
        if let Some(e) = &opts.engine {
            flags += &format!(" --engine {}", e.spec());
        }
        if let Err(e) = topo_fits(opts.topo.as_ref(), &sizes) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Experiment {
            name,
            grid,
            sizes,
            trials: opts.trials.unwrap_or(trials),
            algos,
            head,
            label: format!("{}{flags}", grid.label()),
            opts,
            out,
            emitted: false,
            metrics: Vec::new(),
        }
    }

    /// Per-cell trial count at size `n`: [`Experiment::trials`] as-is on
    /// the default and full grids, scaled down `∝ 2^14/n` (never below
    /// 1, never above the base) on the huge grid, so a million-node cell
    /// costs about as much wall time as a 2^14 cell at full trials.
    #[must_use]
    pub fn trials_at(&self, n: usize) -> u32 {
        if self.grid != Grid::Huge {
            return self.trials;
        }
        let scaled = (u64::from(self.trials) << 14) / n.max(1) as u64;
        scaled.clamp(1, u64::from(self.trials)) as u32
    }

    /// Applies the `--topo` and `--engine` overrides (if any) onto a
    /// scenario; without the flags the scenario — and with it every
    /// historical stdout — is untouched.
    #[must_use]
    pub fn scenario(&self, scenario: Scenario) -> Scenario {
        let scenario = match &self.opts.topo {
            Some(t) => scenario.topology(t.clone()),
            None => scenario,
        };
        match &self.opts.engine {
            Some(e) => scenario.engine(e.clone()),
            None => scenario,
        }
    }

    /// The algorithm × column cell loop: for every algorithm (in
    /// [`Experiment::algos`] order) and every column, `cell` names the
    /// trial label and count, `par_map_trials(master, label, trials, …)`
    /// runs `measure` once per trial seed, and `fold` reduces the
    /// seed-ordered records. Returns one row of folded cells per
    /// algorithm.
    pub fn sweep<C: Sync, T: Send, R>(
        &self,
        master: u64,
        cols: &[C],
        cell: impl Fn(&dyn Algorithm, &C) -> (String, u32),
        measure: impl Fn(&dyn Algorithm, &C, u64) -> T + Sync,
        fold: impl Fn(Vec<T>) -> R,
    ) -> Vec<Vec<R>> {
        let measure = &measure;
        self.algos
            .iter()
            .map(|&algo| {
                cols.iter()
                    .map(|col| {
                        let (label, trials) = cell(algo, col);
                        fold(par_map_trials(master, &label, trials, |seed| {
                            measure(algo, col, seed)
                        }))
                    })
                    .collect()
            })
            .collect()
    }

    /// The row of algorithm `name` in a [`Experiment::sweep`] result, if
    /// it ran.
    #[must_use]
    pub fn row<'r, R>(&self, rows: &'r [Vec<R>], name: &str) -> Option<&'r [R]> {
        let i = self.algos.iter().position(|a| a.name() == name)?;
        Some(&rows[i])
    }

    /// The headline algorithm's row in a [`Experiment::sweep`] result.
    ///
    /// # Panics
    ///
    /// Panics if the headline algorithm did not run — a spec error.
    #[must_use]
    pub fn head_row<'r, R>(&self, rows: &'r [Vec<R>]) -> &'r [R] {
        self.row(rows, self.head)
            .expect("the headline algorithm runs")
    }

    /// Prints a table (markdown, or CSV under `--csv`), one blank line
    /// after the previous block.
    pub fn emit(&mut self, table: &Table) {
        let text = if self.opts.csv {
            table.to_csv()
        } else {
            table.to_markdown()
        };
        self.emit_text(&text);
    }

    /// Prints a pre-rendered block (e.g. a plot), one blank line after
    /// the previous block.
    pub fn emit_text(&mut self, text: &str) {
        let gap = if self.emitted { "\n" } else { "" };
        self.emitted = true;
        write!(self.out, "{gap}{text}").expect("failed to write experiment output");
    }

    /// Prints one table of a [`Experiment::sweep`] result: an `algorithm`
    /// column then `cols`, one row per algorithm, each cell rendered by
    /// `cell`.
    pub fn emit_rows<R>(
        &mut self,
        title: impl Into<String>,
        cols: &[String],
        rows: &[Vec<R>],
        cell: impl Fn(&R) -> String,
    ) {
        let mut t = table(title, &["algorithm"], cols);
        for (algo, row) in self.algos.iter().zip(rows) {
            let mut cells = vec![algo.name().to_string()];
            cells.extend(row.iter().map(&cell));
            t.push_row(cells);
        }
        self.emit(&t);
    }

    /// Prints the coverage-plus-mean-rounds table pair of a sweep folded
    /// by [`coverage_rounds`]: coverage to four places, then rounds to
    /// the nearest round.
    pub fn emit_pair(
        &mut self,
        coverage_title: impl Into<String>,
        rounds_title: impl Into<String>,
        cols: &[String],
        rows: &[Vec<(f64, f64)>],
    ) {
        self.emit_rows(coverage_title, cols, rows, |&(c, _)| format!("{c:.4}"));
        self.emit_rows(rounds_title, cols, rows, |&(_, r)| format!("{r:.0}"));
    }

    /// The overlay-vs-restricted sweep of the restricted-graph
    /// experiments (E11, E12): under each direct-addressing mode, every
    /// algorithm on every named base scenario (label
    /// `<algorithm>/<column>/<mode>`), printed as a coverage-plus-rounds
    /// pair. Cluster2's and PushPull's cells at the columns `key` names
    /// become the `<algorithm>_<key>_<mode>_{coverage,rounds}` metrics.
    pub fn addressing_pairs(
        &mut self,
        master: u64,
        cols: &[(&str, Scenario)],
        coverage_title: &str,
        key: impl Fn(&str) -> Option<String>,
    ) {
        let names: Vec<String> = cols.iter().map(|(name, _)| name.to_string()).collect();
        for mode in [DirectAddressing::Overlay, DirectAddressing::Restricted] {
            let mode_name = mode.label();
            let rows = self.sweep(
                master,
                cols,
                |algo, (name, base)| {
                    let label = format!("{}/{name}/{mode_name}", algo.name());
                    (label, self.trials_at(base.n()))
                },
                |algo, (_, base), seed| {
                    let scenario = self.scenario(base.clone().addressing(mode));
                    coverage(&algo.run(&scenario.seed(seed)))
                },
                coverage_rounds,
            );
            self.emit_pair(
                format!("{coverage_title}, {mode_name} addressing"),
                format!(
                    "{}b: mean rounds, {mode_name} addressing",
                    self.name.to_uppercase()
                ),
                &names,
                &rows,
            );
            for algo in ["Cluster2", "PushPull"] {
                let Some(row) = self.row(&rows, algo) else {
                    continue;
                };
                for ((name, _), &(cov, rounds)) in cols.iter().zip(row) {
                    if let Some(col) = key(name) {
                        let key = format!("{}_{col}_{mode_name}", algo.to_lowercase());
                        self.metric(format!("{key}_coverage"), cov);
                        self.metric(format!("{key}_rounds"), rounds);
                    }
                }
            }
        }
    }

    /// Records one headline metric of the BENCH record.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already recorded — a JSON object with a
    /// repeated key is not a record anyone can read back.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        assert!(
            self.metrics.iter().all(|(k, _)| *k != key),
            "BENCH metric {key:?} recorded twice"
        );
        self.metrics.push((key, value));
    }

    /// Records `<head>_<suffix>`, keyed by the lowercased headline
    /// algorithm.
    pub fn head_metric(&mut self, suffix: &str, value: f64) {
        let key = format!("{}_{suffix}", self.head.to_lowercase());
        self.metric(key, value);
    }

    /// Prints the closing Reading paragraph (if any) as the last block
    /// and, under `--json`, writes the BENCH record.
    ///
    /// # Panics
    ///
    /// Panics if the output or the record cannot be written (the binaries
    /// have no better recovery than telling the operator).
    pub fn finish(mut self, reading: Option<&str>) {
        if let Some(text) = reading {
            self.emit_text(&format!("{text}\n"));
        }
        self.out.flush().expect("failed to write experiment output");
        if self.opts.json {
            let path = format!("BENCH_{}.json", self.key());
            std::fs::write(&path, self.render()).expect("failed to write BENCH json record");
            eprintln!("wrote {path}");
        }
    }

    /// The record key (and file stem): the name, with a `_huge` suffix on
    /// the huge grid so million-node records never overwrite the
    /// default-grid baseline.
    fn key(&self) -> String {
        match self.grid {
            Grid::Huge => format!("{}_huge", self.name),
            _ => self.name.to_string(),
        }
    }

    /// Renders the BENCH record: key, grid label and the headline
    /// metrics in recording order (non-finite values as `null`).
    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\n    \"{k}\": {}", Value::Num(*v).render()))
            .collect();
        let close = if metrics.is_empty() { "" } else { "\n  " };
        format!(
            "{{\n  \"experiment\": \"{}\",\n  \"grid\": {},\n  \"metrics\": {{{}{close}}}\n}}\n",
            self.key(),
            Value::Str(self.label.clone()).render(),
            metrics.join(","),
        )
    }
}

/// Builds a table: fixed `prefix` columns followed by `cols`.
#[must_use]
pub fn table(title: impl Into<String>, prefix: &[&str], cols: &[String]) -> Table {
    let columns: Vec<&str> = prefix
        .iter()
        .copied()
        .chain(cols.iter().map(String::as_str))
        .collect();
    Table::new(title, &columns)
}

/// A size label: `2^k` for a power of two `n = 2^k`, the decimal
/// value otherwise.
#[must_use]
pub fn pow2(n: usize) -> String {
    if n.is_power_of_two() {
        format!("2^{}", n.trailing_zeros())
    } else {
        n.to_string()
    }
}

/// One `n=` column header per sweep size, labelled by [`pow2`].
#[must_use]
pub fn ns_cols(ns: &[usize]) -> Vec<String> {
    ns.iter().map(|&n| format!("n={}", pow2(n))).collect()
}

/// A run's (informed fraction of the alive nodes, rounds) — the record
/// [`coverage_rounds`] folds.
#[must_use]
pub fn coverage(r: &RunReport) -> (f64, f64) {
    (r.informed as f64 / r.alive as f64, r.rounds as f64)
}

/// Folds seed-ordered (coverage, rounds) records into the cell of the
/// table pair [`Experiment::emit_pair`] prints: the coverage samples'
/// [`Summary`] mean and the rounds' sum ÷ trials.
#[must_use]
pub fn coverage_rounds(reps: Vec<(f64, f64)>) -> (f64, f64) {
    let coverage: Vec<f64> = reps.iter().map(|&(c, _)| c).collect();
    let rounds = reps.iter().map(|&(_, r)| r).sum::<f64>() / reps.len() as f64;
    (Summary::from_samples(&coverage).mean, rounds)
}

/// The [`Summary`] mean of a cell's samples.
#[must_use]
pub fn mean(samples: Vec<f64>) -> f64 {
    Summary::from_samples(&samples).mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use gossip_harness::trial_seeds;
    use phonecall::Engine;

    /// An output stream the test can read back.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("unpoisoned").write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Captured {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("unpoisoned").clone()).expect("utf-8")
        }
    }

    #[test]
    fn pow2_labels_only_powers_of_two_as_powers() {
        assert_eq!(pow2(1), "2^0");
        assert_eq!(pow2(1 << 16), "2^16");
        assert_eq!(pow2(3), "3");
        assert_eq!(pow2(1000), "1000");
        assert_eq!(ns_cols(&[256, 1000]), ["n=2^8", "n=1000"]);
    }

    fn opts(args: &[&str]) -> Options {
        cli::try_parse(args.iter().map(|s| (*s).to_string())).expect("valid flags")
    }

    fn spec(huge: bool) -> Spec {
        Spec {
            name: "e0",
            default: (vec![1 << 8, 1 << 10], 8),
            full: (vec![1 << 8, 1 << 12], 20),
            huge: huge.then(|| (vec![1 << 14, 1 << 17, 1 << 20], 16)),
            algos: registry::compared().to_vec(),
            ..Spec::default()
        }
    }

    fn experiment(spec: Spec, args: &[&str]) -> (Experiment, Captured) {
        let out = Captured::default();
        (
            Experiment::new(spec, opts(args), Box::new(out.clone())),
            out,
        )
    }

    #[test]
    fn every_compared_algorithm_succeeds_at_small_n() {
        let scenario = Scenario::broadcast(512).seed(1);
        for algo in registry::compared() {
            let r = algo.run(&scenario);
            assert!(
                r.success,
                "{} failed: {}/{}",
                algo.name(),
                r.informed,
                r.alive
            );
        }
    }

    #[test]
    fn algos_by_name_resolves_defaults() {
        let algos = algos_by_name(&["Cluster1", "Cluster2", "Karp", "Push"]);
        assert_eq!(algos.len(), 4);
        assert_eq!(algos[1].name(), "Cluster2");
    }

    #[test]
    #[should_panic(expected = "bad default algorithm list")]
    fn algos_by_name_panics_on_typo() {
        let _ = algos_by_name(&["Clustre2"]);
    }

    #[test]
    fn sweep_cells_equal_direct_trial_fan_out_in_algorithm_major_order() {
        let (ex, _) = experiment(
            Spec {
                algos: algos_by_name(&["Push", "Pull", "Karp"]),
                ..spec(false)
            },
            &[],
        );
        let cols = [3u32, 1, 5];
        let calls = Mutex::new(Vec::new());
        let rows = ex.sweep(
            0xE0,
            &cols,
            |algo, &c| {
                let label = format!("{}{c}", algo.name());
                calls.lock().expect("unpoisoned").push(label.clone());
                (label, c)
            },
            |algo, &c, seed| (algo.name(), c, seed),
            |reps| reps,
        );
        let mut want_calls = Vec::new();
        for (algo, row) in ex.algos.iter().zip(&rows) {
            assert_eq!(row.len(), cols.len());
            for (&c, cell) in cols.iter().zip(row) {
                let label = format!("{}{c}", algo.name());
                let direct = par_map_trials(0xE0, &label, c, |seed| (algo.name(), c, seed));
                assert_eq!(*cell, direct, "{label}");
                let seeds: Vec<u64> = cell.iter().map(|&(.., s)| s).collect();
                assert_eq!(seeds, trial_seeds(0xE0, &label, c), "seed order");
                want_calls.push(label);
            }
        }
        assert_eq!(rows.len(), 3);
        assert_eq!(*calls.lock().expect("unpoisoned"), want_calls);
    }

    #[test]
    fn grids_resolve_default_full_and_huge() {
        for (huge, args, grid, sizes, trials) in [
            (true, &[][..], Grid::Default, vec![1 << 8, 1 << 10], 8),
            (true, &["--full"][..], Grid::Full, vec![1 << 8, 1 << 12], 20),
            (
                true,
                &["--huge"][..],
                Grid::Huge,
                vec![1 << 14, 1 << 17, 1 << 20],
                16,
            ),
            (
                true,
                &["--huge", "--full"][..],
                Grid::Huge,
                vec![1 << 14, 1 << 17, 1 << 20],
                16,
            ),
            (false, &[][..], Grid::Default, vec![1 << 8, 1 << 10], 8),
            (
                false,
                &["--full"][..],
                Grid::Full,
                vec![1 << 8, 1 << 12],
                20,
            ),
            // No million-node grid: --huge runs exactly the --full grid.
            (
                false,
                &["--huge"][..],
                Grid::Full,
                vec![1 << 8, 1 << 12],
                20,
            ),
            (
                false,
                &["--huge", "--n", "1024", "--trials", "1"][..],
                Grid::Full,
                vec![1024],
                1,
            ),
            (
                true,
                &["--n", "99", "--trials", "2"][..],
                Grid::Default,
                vec![99],
                2,
            ),
        ] {
            let (ex, _) = experiment(spec(huge), args);
            assert_eq!(
                (ex.grid, &ex.sizes, ex.trials),
                (grid, &sizes, trials),
                "{args:?}"
            );
        }
        // The record names the grid that ran.
        let (ex, _) = experiment(spec(false), &["--huge"]);
        assert!(ex
            .render()
            .contains("\"experiment\": \"e0\",\n  \"grid\": \"full\""));
        let (ex, _) = experiment(spec(true), &["--huge"]);
        assert!(ex
            .render()
            .contains("\"experiment\": \"e0_huge\",\n  \"grid\": \"huge\""));
        // Sizes taken from input files: --n is ignored.
        let no_sizes = Spec {
            default: (vec![], 5),
            ..spec(false)
        };
        let (ex, _) = experiment(no_sizes, &["--n", "64"]);
        assert!(ex.sizes.is_empty());
    }

    #[test]
    fn huge_scales_cell_trials_down_with_n() {
        let (ex, _) = experiment(spec(true), &["--huge"]);
        assert_eq!(ex.trials_at(1 << 10), 16, "small cells keep base");
        assert_eq!(ex.trials_at(1 << 14), 16);
        assert_eq!(ex.trials_at(1 << 17), 2);
        assert_eq!(ex.trials_at(1 << 20), 1, "never below one trial");
        // Off the huge grid the base count passes through untouched —
        // including --huge on an experiment that runs --full instead.
        for (huge, args) in [
            (true, &[][..]),
            (true, &["--full"][..]),
            (false, &["--huge"][..]),
        ] {
            let (ex, _) = experiment(spec(huge), args);
            assert_eq!(ex.trials_at(1 << 20), ex.trials, "{args:?}");
        }
    }

    #[test]
    fn algo_selection_replaces_the_set_unless_fixed() {
        let (ex, _) = experiment(spec(false), &["--algo", "push"]);
        let names: Vec<&str> = ex.algos.iter().map(|a| a.name()).collect();
        assert_eq!((names, ex.head), (vec!["Push"], "Push"));
        let (ex, _) = experiment(spec(false), &[]);
        assert_eq!((ex.algos.len(), ex.head), (7, "Cluster2"));
        let headed = Spec {
            head: Some("Karp"),
            ..spec(false)
        };
        assert_eq!(experiment(headed, &[]).0.head, "Karp");
        let fixed = || Spec {
            algos: algos_by_name(&["Cluster3"]),
            fixed: true,
            ..spec(false)
        };
        for args in [&["--algo", "push"][..], &["--algo", "cluster3"][..]] {
            let (ex, _) = experiment(fixed(), args);
            assert_eq!((ex.algos.len(), ex.head), (1, "Cluster3"), "{args:?}");
        }
    }

    #[test]
    fn overrides_leave_default_scenarios_untouched() {
        let s = Scenario::broadcast(64).seed(3);
        let (ex, _) = experiment(spec(false), &[]);
        assert_eq!(ex.scenario(s.clone()), s);
        let (ex, _) = experiment(spec(false), &["--engine", "async:fixed", "--topo", "ring"]);
        let applied = ex.scenario(s.clone());
        assert!(applied.common().engine.is_async());
        assert_eq!(applied.common().topology, Topology::Ring);
        assert_eq!(
            s.common().engine,
            Engine::Sync,
            "builder copies, not mutates"
        );
        // An experiment with no scenario topology or engine drops both.
        let pinned = Spec {
            ignore_topo: true,
            ignore_engine: true,
            ..spec(false)
        };
        let (ex, _) = experiment(pinned, &["--engine", "async", "--topo", "ring"]);
        assert!(ex.opts.topo.is_none() && ex.opts.engine.is_none());
        assert_eq!(ex.scenario(s.clone()), s);
    }

    #[test]
    fn a_topo_that_does_not_fit_the_grid_is_a_knob_error() {
        for (topo, sizes) in [
            ("random-regular:3", &[9][..]),
            ("random-regular:64", &[32]),
            ("watts-strogatz:40,0.1", &[16]),
            ("preferential-attachment:4", &[256, 4]),
        ] {
            let o = opts(&["--topo", topo]);
            let err = topo_fits(o.topo.as_ref(), sizes).unwrap_err();
            assert!(err.contains("topology knob"), "{topo}: {err}");
        }
        // Fits every size of the grid, or there is no override at all.
        let o = opts(&["--topo", "random-regular:8"]);
        assert_eq!(topo_fits(o.topo.as_ref(), &[1 << 8, 1 << 10]), Ok(()));
        assert_eq!(topo_fits(None, &[3]), Ok(()));

        // A file-loaded graph: a missing file, and a node count that fits
        // one grid size but not the other. The edge list lives in a temp
        // dir because loading writes a `.csrcache` next to it.
        let missing = Topology::FromFile("/nonexistent/edges.txt".into());
        let err = topo_fits(Some(&missing), &[4]).unwrap_err();
        assert!(err.contains("topology knob \"path\""), "{err}");
        let dir = std::env::temp_dir().join(format!("topo-fits-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("triangle.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let file = Topology::FromFile(path.to_string_lossy().into_owned());
        assert_eq!(topo_fits(Some(&file), &[3]), Ok(()));
        let err = topo_fits(Some(&file), &[3, 4]).unwrap_err();
        assert!(
            err.contains("topology knob \"path\"")
                && err.contains("3 nodes")
                && err.contains("has 4"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn emitted(args: &[&str], reading: Option<&str>) -> String {
        let (mut ex, out) = experiment(spec(false), args);
        let cols = vec!["x".to_string(), "y".to_string()];
        let rows = vec![vec![(0.5, 3.0), (1.0, 4.0)]; ex.algos.len()];
        ex.emit_pair("Coverage", "Rounds", &cols, &rows);
        ex.emit_text("plot\n");
        ex.finish(reading);
        out.text()
    }

    /// The table pair [`emitted`] prints, rendered by `render`.
    fn pair(render: impl Fn(&Table) -> String) -> [String; 2] {
        ["Coverage", "Rounds"].map(|title| {
            let mut t = table(title, &["algorithm"], &["x".into(), "y".into()]);
            for algo in registry::compared() {
                let cells = if title == "Coverage" {
                    ["0.5000", "1.0000"]
                } else {
                    ["3", "4"]
                };
                t.push_row([algo.name(), cells[0], cells[1]].map(String::from).to_vec());
            }
            render(&t)
        })
    }

    #[test]
    fn emission_separates_blocks_by_one_blank_line_and_ends_with_reading() {
        let [cov, rounds] = pair(Table::to_markdown);
        assert!(cov.contains("| Cluster2     | 0.5000 | 1.0000 |"), "{cov}");
        assert_eq!(
            emitted(&[], Some("Reading: done.")),
            format!("{cov}\n{rounds}\nplot\n\nReading: done.\n")
        );
        let [cov, rounds] = pair(Table::to_csv);
        assert!(
            cov.starts_with("algorithm,x,y\nCluster2,0.5000,1.0000\n"),
            "{cov}"
        );
        assert_eq!(
            emitted(&["--csv"], None),
            format!("{cov}\n{rounds}\nplot\n")
        );
    }

    /// The `grid` of a record, read back through the JSON parser.
    fn grid_of(doc: &str) -> String {
        let record = Value::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        record
            .get("grid")
            .and_then(Value::as_str)
            .expect("a grid")
            .to_string()
    }

    #[test]
    fn bench_record_renders_valid_shape() {
        let (mut ex, _) = experiment(spec(false), &[]);
        ex.metric("mean_rounds", 12.5);
        ex.head_metric("msgs_per_node", 3.0);
        let doc = ex.render();
        assert_eq!(
            doc,
            "{\n  \"experiment\": \"e0\",\n  \"grid\": \"default\",\n  \"metrics\": {\n    \
             \"mean_rounds\": 12.5,\n    \"cluster2_msgs_per_node\": 3\n  }\n}\n"
        );
        assert_eq!(grid_of(&doc), "default");
        let (ex, _) = experiment(spec(false), &[]);
        assert!(ex.render().contains("\"metrics\": {}\n}\n"));

        // A selection names the flags that shaped the run, in a fixed
        // order whatever the command line's.
        let args = [
            "--engine=async:fixed",
            "--topo=ring",
            "--trials=2",
            "--n=256",
            "--algo=push",
        ];
        let (ex, _) = experiment(spec(false), &args);
        assert_eq!(
            grid_of(&ex.render()),
            "default --algo Push --n 256 --trials 2 --topo Ring --engine async:fixed"
        );
        // Flags the experiment ignored are not named.
        let pinned = Spec {
            algos: algos_by_name(&["Cluster3"]),
            fixed: true,
            ignore_topo: true,
            ..spec(true)
        };
        let (ex, _) = experiment(pinned, &["--huge", "--algo", "push", "--topo", "ring"]);
        assert_eq!(grid_of(&ex.render()), "huge");
        // A file path with JSON's special characters stays valid JSON.
        let dir = std::env::temp_dir().join(format!("bench-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tri\"an\\gle.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let path = path.to_string_lossy().into_owned();
        let (ex, _) = experiment(
            spec(false),
            &["--n", "3", "--topo", &format!("file:{path}")],
        );
        assert_eq!(
            grid_of(&ex.render()),
            format!("default --n 3 --topo FromFile({path})")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_finite_metrics_become_null() {
        let (mut ex, _) = experiment(spec(false), &[]);
        ex.metric("bad", f64::NAN);
        ex.metric("worse", f64::INFINITY);
        let doc = ex.render();
        assert!(doc.contains("\"bad\": null"));
        assert!(doc.contains("\"worse\": null"));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
    }

    #[test]
    #[should_panic(expected = "BENCH metric \"karp_coverage_storm\" recorded twice")]
    fn a_repeated_metric_key_panics() {
        let (mut ex, _) = experiment(spec(false), &["--algo", "karp"]);
        ex.head_metric("coverage_storm", 1.0);
        ex.metric("karp_coverage_storm", 1.0);
    }

    #[test]
    fn coverage_rounds_folds_like_the_tables_always_did() {
        let reps = vec![(1.0, 10.0), (0.5, 11.0), (0.25, 13.0)];
        let (cov, rounds) = coverage_rounds(reps);
        assert_eq!(cov, Summary::from_samples(&[1.0, 0.5, 0.25]).mean);
        assert_eq!(rounds, (10.0 + 11.0 + 13.0) / 3.0);
        assert_eq!(mean(vec![1.0, 2.0]), 1.5);
        assert_eq!(ns_cols(&[256, 4096]), ["n=2^8", "n=2^12"]);
    }
}
