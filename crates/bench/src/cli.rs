//! The one flag parser all fourteen `exp_e*` binaries share (through
//! [`crate::Experiment::start`], which resolves the flags against each
//! experiment's [`crate::Spec`]).
//!
//! Flags:
//!
//! * `--full` — the larger grid recorded in EXPERIMENTS.md;
//! * `--huge` — the million-node grid (E1/E10/E11/E13/E14: n up to 2^20
//!   with per-cell trial counts auto-scaled down so a sweep stays
//!   tractable; the other experiments say so on stderr and run `--full`);
//! * `--csv` — CSV tables instead of markdown;
//! * `--json` — additionally write a `BENCH_eK.json` record: the
//!   experiment, its grid label followed by the selection flags that
//!   took effect, and its headline result metrics (no timings);
//! * `--algo <name>` — run a single algorithm from the registry
//!   (case-insensitive; unknown names exit listing the valid ones);
//! * `--list-algos` — print the registry (name, law, description) and
//!   exit;
//! * `--topo <name[:param]>` — override the communication topology
//!   (case-insensitive, e.g. `random-regular:8`, or `file:<path>` to
//!   load a SNAP-style edge list; unknown names exit listing the valid
//!   ones);
//! * `--list-topos` — print the topology catalog and exit;
//! * `--engine <sync|async[:profile]>` — override the engine schedule
//!   (case-insensitive, e.g. `async:uniform`; unknown names exit
//!   listing the valid specs);
//! * `--list-engines` — print the engine catalog and exit;
//! * `--n <size>` — replace the size grid with a single `n`;
//! * `--trials <k>` — override the per-cell trial count.
//!
//! Experiments that run a fixed construction (E4's lower bound, E5/E6's
//! `Δ` machinery, E8's ablations) warn and ignore `--algo`, and those
//! with no scenario to restrict or re-time warn and ignore `--topo` /
//! `--engine` (see [`crate::Spec`]).

use gossip_baselines::registry;
use gossip_core::algo::Algorithm;
use phonecall::{Engine, Topology};

/// Parsed command-line options shared by all experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Use the larger sweep recorded in EXPERIMENTS.md.
    pub full: bool,
    /// Use the million-node grid (n up to 2^20, trials auto-scaled via
    /// [`crate::Experiment::trials_at`]). Runs the `--full` grid where an
    /// experiment has no dedicated huge grid.
    pub huge: bool,
    /// Emit CSV instead of markdown.
    pub csv: bool,
    /// Additionally write a `BENCH_eK.json` results record.
    pub json: bool,
    /// Run only this algorithm (resolved through the registry).
    pub algo: Option<&'static dyn Algorithm>,
    /// Run on this communication topology (parsed via
    /// [`Topology::parse_spec`]). `None` leaves the experiment's default
    /// (the complete graph, or E11's own grid).
    pub topo: Option<Topology>,
    /// Run under this engine schedule (parsed via
    /// [`Engine::parse_spec`]). `None` leaves the experiment's default
    /// (the synchronous engine, or E14's own sync × async grid).
    pub engine: Option<Engine>,
    /// Replace the experiment's size grid with this single `n`.
    pub n: Option<usize>,
    /// Override the per-cell trial count.
    pub trials: Option<u32>,
}

/// Outcome of [`try_parse`]: options, or a terminal request/error the
/// caller turns into an exit.
#[derive(Clone, Debug)]
pub(crate) enum Terminal {
    /// A `--list-*` flag: print this catalog listing and exit 0.
    List(String),
    /// A bad value, already reported on stderr: exit 2.
    Error,
}

/// Parses the standard experiment flags from `std::env::args`, handling
/// `--list-algos` / `--list-topos` / `--list-engines` (prints the
/// catalog, exits 0) and bad values (exits 2 with a message) in place.
/// Unknown flags warn and are ignored, as they always were.
#[must_use]
pub fn parse() -> Options {
    match try_parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(Terminal::List(listing)) => {
            print!("{listing}");
            std::process::exit(0);
        }
        Err(Terminal::Error) => std::process::exit(2),
    }
}

pub(crate) fn try_parse(args: impl Iterator<Item = String>) -> Result<Options, Terminal> {
    let mut o = Options::default();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, mut inline) = match a.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (a, None),
        };
        let mut value = || {
            inline.take().or_else(|| args.next()).ok_or_else(|| {
                eprintln!("{flag} needs a value");
                Terminal::Error
            })
        };
        match flag.as_str() {
            "--full" => o.full = true,
            "--huge" => o.huge = true,
            "--csv" => o.csv = true,
            "--json" => o.json = true,
            "--list-algos" => return Err(Terminal::List(render_algo_list())),
            "--list-topos" => return Err(Terminal::List(render_topo_list())),
            "--list-engines" => return Err(Terminal::List(render_engine_list())),
            "--algo" => o.algo = Some(reported(registry::by_name(&value()?))?),
            "--topo" => o.topo = Some(reported(Topology::parse_spec(&value()?))?),
            "--engine" => o.engine = Some(reported(Engine::parse_spec(&value()?))?),
            // Gossip needs at least two nodes; catching it here gives a
            // clean exit instead of a simulator panic.
            "--n" => o.n = Some(at_least(&flag, value()?, 2)?),
            // Zero trials would print all-zero summaries that look like
            // measurements.
            "--trials" => o.trials = Some(at_least(&flag, value()?, 1)?),
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    Ok(o)
}

/// Reports a bad flag value's error on stderr.
fn reported<T, E: std::fmt::Display>(parsed: Result<T, E>) -> Result<T, Terminal> {
    parsed.map_err(|e| {
        eprintln!("{e}");
        Terminal::Error
    })
}

/// Parses an integer flag value no smaller than `min`.
fn at_least<T>(flag: &str, v: String, min: T) -> Result<T, Terminal>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    match v.parse() {
        Ok(x) if x >= min => Ok(x),
        _ => {
            eprintln!("{flag} wants an integer >= {min}, got {v:?}");
            Err(Terminal::Error)
        }
    }
}

/// The `--list-algos` listing: one line per registry entry.
#[must_use]
pub fn render_algo_list() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<16} {:<12} description\n", "name", "rounds"));
    for algo in registry::all() {
        out.push_str(&format!(
            "{:<16} {:<12} {}\n",
            algo.name(),
            algo.law().label(),
            algo.about()
        ));
    }
    out.push_str("\nselect one with --algo <name> (case-insensitive)\n");
    out
}

/// The `--list-topos` listing: one line per topology catalog entry.
#[must_use]
pub fn render_topo_list() -> String {
    render_catalog(32, Topology::catalog(), "--topo <name[:param]>")
}

/// The `--list-engines` listing: one line per engine catalog entry.
#[must_use]
pub fn render_engine_list() -> String {
    render_catalog(20, Engine::catalog(), "--engine <sync|async[:profile]>")
}

/// A `(spec, description)` catalog as a `--list-*` listing.
fn render_catalog(width: usize, catalog: Vec<&(&str, &str)>, select: &str) -> String {
    let mut out = format!("{:<width$} description\n", "spec");
    for (spec, about) in catalog {
        out.push_str(&format!("{spec:<width$} {about}\n"));
    }
    out.push_str(&format!("\nselect one with {select} (case-insensitive)\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_vec(args: &[&str]) -> Result<Options, Terminal> {
        try_parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_are_off() {
        let o = parse_vec(&[]).unwrap();
        assert!(!o.full && !o.huge && !o.csv && !o.json);
        assert!(o.algo.is_none() && o.n.is_none() && o.trials.is_none());
        assert!(o.topo.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let o = parse_vec(&[
            "--full", "--csv", "--json", "--algo", "cluster2", "--topo", "ring", "--n", "512",
            "--trials", "3",
        ])
        .unwrap();
        assert!(o.full && o.csv && o.json);
        assert_eq!(o.algo.unwrap().name(), "Cluster2");
        assert_eq!(o.topo, Some(Topology::Ring));
        assert_eq!(o.n, Some(512));
        assert_eq!(o.trials, Some(3));
    }

    #[test]
    fn parses_equals_form() {
        let o = parse_vec(&["--algo=push-pull", "--n=64", "--topo=Random-Regular:4"]).unwrap();
        assert_eq!(o.algo.unwrap().name(), "PushPull");
        assert_eq!(o.n, Some(64));
        assert_eq!(o.topo, Some(Topology::RandomRegular(4)));
    }

    #[test]
    fn topo_flag_matches_algo_flag_ergonomics() {
        // Same case/separator-insensitive matching as --algo...
        for spec in [
            "watts-strogatz:4,0.1",
            "WATTS_STROGATZ:4,0.1",
            "WattsStrogatz:4,0.1",
        ] {
            let o = parse_vec(&["--topo", spec]).unwrap();
            assert_eq!(o.topo, Some(Topology::WattsStrogatz(4, 0.1)), "{spec}");
        }
        // The file: form keeps its path verbatim (no case folding).
        let o = parse_vec(&["--topo", "file:tests/data/WS_1k.txt"]).unwrap();
        assert_eq!(
            o.topo,
            Some(Topology::FromFile("tests/data/WS_1k.txt".into()))
        );
        // ...and the same clean error exit on unknown names.
        assert!(matches!(
            parse_vec(&["--topo", "donutworld"]),
            Err(Terminal::Error)
        ));
        assert!(matches!(
            parse_vec(&["--topo", "ring:7"]),
            Err(Terminal::Error)
        ));
        assert!(matches!(
            parse_vec(&["--list-topos"]),
            Err(Terminal::List(_))
        ));
        let listing = render_topo_list();
        for (spec, _) in Topology::catalog() {
            assert!(listing.contains(spec), "missing {spec}");
        }
    }

    #[test]
    fn engine_flag_matches_topo_flag_ergonomics() {
        // Same case/separator-insensitive matching as --algo/--topo...
        for spec in ["async:exp", "ASYNC:EXPONENTIAL", "Async:Exp"] {
            let o = parse_vec(&["--engine", spec]).unwrap();
            let e = o.engine.unwrap();
            assert!(e.is_async(), "{spec}");
            assert_eq!(e.spec(), "async:exponential", "{spec}");
        }
        let o = parse_vec(&["--engine=sync"]).unwrap();
        assert_eq!(o.engine, Some(Engine::Sync));
        // ...and the same clean error exit on unknown names.
        assert!(matches!(
            parse_vec(&["--engine", "lockstep"]),
            Err(Terminal::Error)
        ));
        assert!(matches!(
            parse_vec(&["--engine", "async:gaussian"]),
            Err(Terminal::Error)
        ));
        assert!(matches!(
            parse_vec(&["--list-engines"]),
            Err(Terminal::List(_))
        ));
        let listing = render_engine_list();
        for (spec, _) in Engine::catalog() {
            assert!(listing.contains(spec), "missing {spec}");
        }
    }

    #[test]
    fn bad_values_error() {
        assert!(matches!(
            parse_vec(&["--algo", "nonesuch"]),
            Err(Terminal::Error)
        ));
        assert!(matches!(parse_vec(&["--n", "many"]), Err(Terminal::Error)));
        assert!(matches!(parse_vec(&["--trials"]), Err(Terminal::Error)));
        // Degenerate sizes/counts get the clean error path, not a panic
        // (gossip needs n >= 2; zero trials fake all-zero summaries).
        assert!(matches!(parse_vec(&["--n", "0"]), Err(Terminal::Error)));
        assert!(matches!(parse_vec(&["--n", "1"]), Err(Terminal::Error)));
        assert!(matches!(
            parse_vec(&["--trials", "0"]),
            Err(Terminal::Error)
        ));
        assert!(parse_vec(&["--n", "2", "--trials", "1"]).is_ok());
    }

    #[test]
    fn list_algos_is_terminal_and_complete() {
        assert!(matches!(
            parse_vec(&["--list-algos"]),
            Err(Terminal::List(_))
        ));
        let listing = render_algo_list();
        for algo in registry::all() {
            assert!(listing.contains(algo.name()), "missing {}", algo.name());
        }
    }
}
