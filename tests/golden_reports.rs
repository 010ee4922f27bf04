//! Golden-report regression tests. A *suite* is a name and an ordered
//! list of cells; a cell is a string key (`Cluster2/256/7`,
//! `Push/rr8/overlay`, `Ring/1024/1`) and a closure that measures named
//! integer fields. Every suite's rows are pinned in
//! `tests/pins/<suite>.tsv`: a `key` header naming the fields, then one
//! tab-separated line per cell.
//!
//! All randomness flows from the run seed, so the fields are exact — an
//! engine or algorithm refactor that silently changes behavior (an extra
//! RNG draw, a reordered delivery, a different accounting charge) fails
//! loudly here rather than surfacing as a subtly shifted experiment
//! table months later. One comparer checks every suite and fails once
//! with every difference, one line each:
//!
//! ```text
//! churn Karp/256/1: max_fan_in 7 → 6
//! broadcast Cluster9/64/1: stray row
//! ```
//!
//! The file's key list must equal the grid's exactly and in order. The
//! run grids iterate `registry::all()`, so a newly registered algorithm
//! fails as missing rows until it is pinned, and a renamed one leaves
//! stray rows; the graph grid is checked against the topology catalog.
//!
//! To re-pin after an *intentional* behavior change, run
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_reports -- --nocapture
//! ```
//!
//! which prints each suite's differences from its committed file — the
//! moved cells and fields a re-pin shows in review — and then rewrites
//! the file. Do this only when the change is meant to alter behavior;
//! the whole point of the pins is to make that decision explicit.

use optimal_gossip::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

/// One pinned cell: its grid key and the closure that measures it.
struct Cell {
    key: String,
    measure: Box<dyn Fn() -> Vec<u64>>,
}

/// A named, ordered grid of cells that share one field list.
struct Suite {
    name: &'static str,
    fields: &'static [&'static str],
    cells: Vec<Cell>,
}

/// Keyed rows, each holding its values in the suite's field order.
type Rows = Vec<(String, Vec<u64>)>;

/// The fields of every run cell: each integer counter of [`RunReport`]
/// and its [`ClusteringStats`] (`n` is part of the key; the floats
/// `virtual_time` and `mean_size` and the phase rows stay out), the
/// workload rumors completed, and an FNV-1a fold of every rumor's final
/// `(origin, arrival, completed, informed)`.
#[rustfmt::skip]
const RUN_FIELDS: &[&str] = &[
    "alive", "rounds", "events_processed", "messages", "payload_messages", "bits",
    "max_fan_in", "max_message_bits", "informed", "success",
    "clusters", "clustered", "unclustered", "min_size", "max_size",
    "rumor_payloads", "budget_drops", "rumors_completed", "rumor_fnv",
];

/// [`RUN_FIELDS`] of one report, in that order.
fn run_fields(r: &RunReport) -> Vec<u64> {
    let c = &r.clustering;
    let rumors = r.rumors.iter().flat_map(|s| {
        [
            u64::from(s.origin),
            s.arrival,
            s.completed.unwrap_or(u64::MAX),
            s.informed,
        ]
    });
    vec![
        r.alive as u64,
        r.rounds,
        r.events_processed,
        r.messages,
        r.payload_messages,
        r.bits,
        r.max_fan_in,
        r.max_message_bits,
        r.informed as u64,
        u64::from(r.success),
        c.clusters as u64,
        c.clustered as u64,
        c.unclustered as u64,
        c.min_size as u64,
        c.max_size as u64,
        r.rumor_payloads,
        r.budget_drops,
        r.rumors_completed() as u64,
        fnv(rumors.flat_map(u64::to_le_bytes)),
    ]
}

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A run suite over explicit `(key, algorithm, scenario)` cells.
fn run_suite(name: &'static str, runs: Vec<(String, &'static dyn Algorithm, Scenario)>) -> Suite {
    let cells = runs
        .into_iter()
        .map(|(key, algo, scenario)| Cell {
            key,
            measure: Box::new(move || run_fields(&algo.run(&scenario))),
        })
        .collect();
    Suite {
        name,
        fields: RUN_FIELDS,
        cells,
    }
}

/// A run suite pinning every registered algorithm at every grid point,
/// keyed `<algorithm>/<point>`.
fn registry_suite(name: &'static str, points: Vec<(String, Scenario)>) -> Suite {
    let mut runs = Vec::new();
    for &algo in registry::all() {
        for (point, scenario) in &points {
            runs.push((format!("{}/{point}", algo.name()), algo, scenario.clone()));
        }
    }
    run_suite(name, runs)
}

/// `scenario` at seeds {1, 7}, keyed `<prefix><seed>`.
fn seeds(prefix: &str, scenario: &Scenario) -> Vec<(String, Scenario)> {
    [1u64, 7]
        .map(|seed| (format!("{prefix}{seed}"), scenario.clone().seed(seed)))
        .into()
}

/// The loss-free grid `n ∈ {64, 256, 1024} × seed ∈ {1, 7}` for every
/// registered algorithm, `Δ`-parameterized ones at their auto `Δ =
/// max(16, ⌈√n⌉)`. For the non-broadcast tasks `informed` follows the
/// registry's report semantics: clustered nodes for `Cluster3`, nodes
/// with complete knowledge for `NameDropper`. Every one of these runs
/// must succeed.
fn broadcast() -> Suite {
    let points = [64usize, 256, 1024]
        .iter()
        .flat_map(|&n| seeds(&format!("{n}/"), &Scenario::broadcast(n)))
        .collect();
    registry_suite("broadcast", points)
}

/// The canonical churn scenario: an early correlated outage with
/// recovery plus burst loss, source protected — every axis of the
/// dynamic adversary active at once — at `n = 256, seed ∈ {1, 7}`. The
/// rows pin the adversary's event stream *and* the engine's loss
/// composition. Unlike the loss-free grid these runs are *not* required
/// to succeed (churn is allowed to strand survivors).
fn churn() -> Suite {
    let churn = ChurnConfig {
        crash_rate: 0.5,
        batch_size: 4,
        recovery_rate: 0.2,
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        start_round: 1,
        stop_round: Some(24),
        protected: vec![0],
        ..ChurnConfig::default()
    };
    let s = Scenario::broadcast(256).churn(churn);
    registry_suite("churn", seeds("256/", &s))
}

/// One sparse extreme and one expander under restricted addressing, the
/// same expander plus a small world under overlay — the four corners of
/// E11's sweep — at `n = 256`, seed 1. As with churn, the runs are
/// *not* required to succeed (restricted sparse graphs defeat the
/// clustered algorithms by design); the rows pin the neighbor-sampling
/// stream, the restricted-edge gating and the per-scenario graph build.
fn topology() -> Suite {
    use DirectAddressing::{Overlay, Restricted};
    let points = [
        ("ring/restricted", Topology::Ring, Restricted),
        ("rr8/restricted", Topology::RandomRegular(8), Restricted),
        ("rr8/overlay", Topology::RandomRegular(8), Overlay),
        ("ws6/overlay", Topology::WattsStrogatz(6, 0.2), Overlay),
    ];
    let points = points
        .into_iter()
        .map(|(key, topo, mode)| {
            let s = Scenario::broadcast(256).seed(1).topology(topo);
            (key.to_string(), s.addressing(mode))
        })
        .collect();
    registry_suite("topology", points)
}

/// The `ws_1k` loaded snapshot (a file-loaded `Topology::FromFile`,
/// exercising the whole dataset pipeline: text parse or binary cache →
/// relabeled CSR → simulate) under both addressing modes at seed 1. As
/// with the synthetic topologies, restricted runs are *not* required to
/// succeed; the rows pin the loaded graph — and with it the parser, the
/// id relabeling and the cache round-trip — bit-exactly.
fn dataset() -> Suite {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/ws_1k.txt");
    let points = [
        ("ws_1k/overlay", DirectAddressing::Overlay),
        ("ws_1k/restricted", DirectAddressing::Restricted),
    ]
    .map(|(key, mode)| {
        let s = Scenario::broadcast(1024).seed(1);
        let s = s.topology(Topology::FromFile(path.to_string()));
        (key.to_string(), s.addressing(mode))
    });
    registry_suite("dataset", points.into())
}

/// The canonical multi-rumor workload (eight rumors arriving at one per
/// round, unlimited bandwidth) at `n = 256, seed ∈ {1, 7}`. The workload
/// rides the algorithms' own messages, so `rounds` matches the loss-free
/// grid while `bits` grows by the piggybacked payloads;
/// `rumors_completed` pins the workload semantics (a bounded-schedule
/// algorithm may finish before late arrivals spread) and
/// `rumor_payloads` the transfer stream itself.
fn traffic() -> Suite {
    let s = Scenario::broadcast(256).rumors(8, 1.0);
    registry_suite("traffic", seeds("", &s))
}

/// `Engine::Async(AsyncConfig::default())` (`rate = 1`, fixed latency
/// `0.5`) at `n = 256, seed ∈ {1, 7}`. `events_processed` — the length
/// of the timestamp-ordered event trace — pins the event ordering, the
/// clock/latency/delivery streams and the drain schedule even when the
/// aggregate costs happen to agree.
fn async_suite() -> Suite {
    let s = Scenario::broadcast(256).engine(Engine::Async(AsyncConfig::default()));
    registry_suite("async", seeds("", &s))
}

/// The two sampled latency profiles, `async:uniform` and `async:exp`, at
/// `n = 256, seed ∈ {1, 7}`. The `async` suite pins fixed latency, where
/// messages land in the order they are sent; here arrivals overtake each
/// other, so these rows pin the in-flight queue's ordering itself.
fn latency() -> Suite {
    let mut points = Vec::new();
    for profile in ["uniform", "exp"] {
        let cfg = Engine::profile(profile).expect("a catalog latency profile");
        let s = Scenario::broadcast(256).engine(Engine::Async(cfg));
        points.extend(seeds(&format!("{profile}/"), &s));
    }
    registry_suite("latency", points)
}

/// A scenario wider than one 32-bit word of rumors: 96 rumors on 512
/// nodes at seed 3, keyed `<algorithm>/bw<budget>`. A budget of 2 binds
/// on most contacts, which pins the budget's choice of which rumor
/// rides; the unlimited (`bw0`) rows pin completions across all three
/// words. Only NameDropper completes rumors under the budget, so only
/// its row sees the active-list order that completions reshuffle.
fn wide() -> Suite {
    let cells = [
        ("Cluster2", 2),
        ("PushPull", 2),
        ("Karp", 2),
        ("Cluster2", 0),
        ("PushPull", 0),
        ("Karp", 0),
        ("NameDropper", 2),
    ];
    let runs = cells
        .into_iter()
        .map(|(name, budget)| {
            let algo = registry::by_name(name).expect("a registered algorithm");
            let s = Scenario::broadcast(512).seed(3).rumors(96, 4.0);
            (format!("{name}/bw{budget}"), algo, s.bandwidth(budget))
        })
        .collect();
    run_suite("wide", runs)
}

/// The graph grid, `(n, topology)` per generated family, each at seeds
/// {1, 7}: two ordinary sizes (256 and 1024) and two edge cases per
/// family, keyed `<family>/<n>/<seed>`. Within a family `n` alone tells
/// the rows apart, so each size carries one fixed set of knobs. The
/// edge cases include the regeneration paths (`random-regular:3` on 10
/// nodes at seed 1 gets stuck pairing, `random-regular:2` on 64 nodes
/// at seed 7 and `erdos-renyi:0.1` on 32 nodes at both seeds come out
/// disconnected on the first attempt).
fn graph_grid() -> Vec<(usize, Topology)> {
    vec![
        (2, Topology::Ring),
        (3, Topology::Ring),
        (256, Topology::Ring),
        (1024, Topology::Ring),
        // 2 x 3: the row wrap lists every vertical edge twice.
        (6, Topology::Torus2D),
        // Prime: a 1 x 13 grid, i.e. a ring.
        (13, Topology::Torus2D),
        (256, Topology::Torus2D),
        (1024, Topology::Torus2D),
        (10, Topology::RandomRegular(3)),
        (64, Topology::RandomRegular(2)),
        (256, Topology::RandomRegular(8)),
        (1024, Topology::RandomRegular(8)),
        (16, Topology::ErdosRenyi(1.0)),
        (32, Topology::ErdosRenyi(0.1)),
        (256, Topology::ErdosRenyi(0.05)),
        (1024, Topology::ErdosRenyi(0.05)),
        // K5: every rewiring draw finds its edge taken.
        (5, Topology::WattsStrogatz(4, 0.3)),
        (64, Topology::WattsStrogatz(2, 0.5)),
        (256, Topology::WattsStrogatz(6, 0.2)),
        (1024, Topology::WattsStrogatz(6, 0.2)),
        // The seed clique alone: no arrivals.
        (5, Topology::PreferentialAttachment(4)),
        (64, Topology::PreferentialAttachment(1)),
        (256, Topology::PreferentialAttachment(4)),
        (1024, Topology::PreferentialAttachment(4)),
    ]
}

/// Every generated graph built straight from [`Topology::build`]: the
/// `topology` suite sees three graphs only through algorithm runs, these
/// rows pin the CSR arrays of every family bit for bit — `csr_fnv` is
/// FNV-1a over `offsets` then `neighbors`, each `u32` little-endian.
fn graph() -> Suite {
    let mut cells = Vec::new();
    for (n, topo) in graph_grid() {
        for seed in [1u64, 7] {
            let key = format!("{}/{n}/{seed}", topo.name());
            let topo = topo.clone();
            let measure = move || {
                let adj = topo.build(n, seed).expect("a generated family");
                let degrees = (0..n as u32).map(|v| adj.degree(v) as u32);
                let offsets = std::iter::once(0).chain(degrees.scan(0, |o, d| {
                    *o += d;
                    Some(*o)
                }));
                let neighbors = (0..n as u32).flat_map(|v| adj.neighbors(v).iter().copied());
                let csr = offsets.chain(neighbors).flat_map(u32::to_le_bytes);
                vec![adj.edge_count() as u64, adj.max_degree() as u64, fnv(csr)]
            };
            cells.push(Cell {
                key,
                measure: Box::new(measure),
            });
        }
    }
    Suite {
        name: "graph",
        fields: &["edges", "max_degree", "csr_fnv"],
        cells,
    }
}

fn all_suites() -> [Suite; 9] {
    [
        broadcast(),
        churn(),
        topology(),
        dataset(),
        traffic(),
        async_suite(),
        latency(),
        wide(),
        graph(),
    ]
}

fn pins_path(suite: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "tests", "pins", suite]
        .iter()
        .collect::<PathBuf>()
        .with_extension("tsv")
}

/// Parses a pins file: a `key` header naming exactly the suite's fields
/// in order, then one tab-separated row per cell. Every problem is
/// collected, each naming the suite, the key (or `header`) and the field.
fn parse(suite: &Suite, text: &str) -> Result<Rows, Vec<String>> {
    let name = suite.name;
    let mut lines = text.lines();
    let mut header = lines.next().unwrap_or_default().split('\t');
    let mut problems = Vec::new();
    if header.next() != Some("key") {
        problems.push(format!("{name} header: the first column is not `key`"));
    }
    let named: Vec<&str> = header.collect();
    for field in named.iter().filter(|f| !suite.fields.contains(f)) {
        problems.push(format!("{name} header: unknown field {field}"));
    }
    for field in suite.fields.iter().filter(|f| !named.contains(f)) {
        problems.push(format!("{name} header: field {field} missing"));
    }
    if problems.is_empty() && named != suite.fields {
        problems.push(format!("{name} header: fields out of order"));
    }
    if !problems.is_empty() {
        return Err(problems);
    }
    let mut rows = Rows::new();
    for line in lines {
        let (key, values) = line.split_once('\t').unwrap_or((line, ""));
        let values: Vec<&str> = values.split('\t').collect();
        if values.len() != suite.fields.len() {
            let (got, want) = (values.len(), suite.fields.len());
            problems.push(format!("{name} {key}: {got} values for {want} fields"));
            continue;
        }
        let mut row = Vec::new();
        for (field, v) in suite.fields.iter().zip(values) {
            match v.parse() {
                Ok(v) => row.push(v),
                Err(_) => problems.push(format!("{name} {key}: {field} {v:?} is not an integer")),
            }
        }
        rows.push((key.to_string(), row));
    }
    if problems.is_empty() {
        Ok(rows)
    } else {
        Err(problems)
    }
}

/// Renders rows as a pins file; [`parse`] reads it back unchanged.
fn render(suite: &Suite, rows: &Rows) -> String {
    let mut out = format!("key\t{}\n", suite.fields.join("\t"));
    for (key, values) in rows {
        out.push_str(key);
        for v in values {
            write!(out, "\t{v}").expect("writing to a String");
        }
        out.push('\n');
    }
    out
}

/// Every difference between the pinned and the measured rows, one line
/// each: a duplicate, stray or missing row, rows out of grid order, or
/// a field that moved (`<suite> <key>: <field> <pinned> → <measured>`).
fn diff(suite: &Suite, pinned: &Rows, measured: &Rows) -> Vec<String> {
    let name = suite.name;
    let grid: BTreeSet<&str> = measured.iter().map(|r| r.0.as_str()).collect();
    let mut pins = BTreeMap::new();
    let mut out = Vec::new();
    for (key, values) in pinned {
        if pins.insert(key.as_str(), values).is_some() {
            out.push(format!("{name} {key}: duplicate row"));
        } else if !grid.contains(key.as_str()) {
            out.push(format!("{name} {key}: stray row"));
        }
    }
    for (key, _) in measured {
        if !pins.contains_key(key.as_str()) {
            out.push(format!("{name} {key}: missing row"));
        }
    }
    if out.is_empty() && pinned.iter().zip(measured).any(|(p, m)| p.0 != m.0) {
        out.push(format!("{name}: rows out of grid order"));
    }
    for (key, got) in measured {
        let Some(want) = pins.get(key.as_str()) else {
            continue;
        };
        for ((field, w), g) in suite.fields.iter().zip(want.iter()).zip(got) {
            if w != g {
                out.push(format!("{name} {key}: {field} {w} → {g}"));
            }
        }
    }
    out
}

/// Everything wrong with `text` as the pins of `measured`.
fn problems(suite: &Suite, text: &str, measured: &Rows) -> Vec<String> {
    parse(suite, text).map_or_else(|p| p, |pinned| diff(suite, &pinned, measured))
}

/// Measures every cell of `suite` and compares the rows with its pins
/// file, failing once with every difference. Under `GOLDEN_REGEN` it
/// prints the same lines as re-pin evidence and rewrites the file.
fn check(suite: &Suite) -> Rows {
    let measured: Rows = suite
        .cells
        .iter()
        .map(|c| (c.key.clone(), (c.measure)()))
        .collect();
    let width = suite.fields.len();
    assert!(
        measured.iter().all(|r| r.1.len() == width),
        "one value per field"
    );
    let path = pins_path(suite.name);
    let found = match std::fs::read_to_string(&path) {
        Ok(text) => problems(suite, &text, &measured),
        Err(e) => vec![format!("{}: {e}", path.display())],
    };
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        found.iter().for_each(|line| println!("{line}"));
        // Write-then-rename, so a concurrent reader never sees half a file.
        let tmp = path.with_extension("tsv.tmp");
        std::fs::write(&tmp, render(suite, &measured)).expect("writing the pins");
        std::fs::rename(&tmp, &path).expect("replacing the pins");
    } else {
        assert!(
            found.is_empty(),
            "{} pins differ from the runs; re-pin with GOLDEN_REGEN=1 only if the change \
             is intended:\n{}",
            suite.name,
            found.join("\n")
        );
    }
    measured
}

#[test]
fn run_reports_match_golden_digests() {
    // The loss-free rows must describe *successful* runs (broadcast
    // complete, clustering complete, discovery closed); a pinned failure
    // would silently weaken every other experiment.
    let success = RUN_FIELDS.iter().position(|&f| f == "success").unwrap();
    for (key, values) in check(&broadcast()) {
        assert_eq!(values[success], 1, "broadcast {key}: the run failed");
    }
}

#[test]
fn churn_run_reports_match_golden_digests() {
    check(&churn());
}

#[test]
fn topology_run_reports_match_golden_digests() {
    check(&topology());
}

#[test]
fn dataset_run_reports_match_golden_digests() {
    check(&dataset());
}

#[test]
fn traffic_run_reports_match_golden_digests() {
    check(&traffic());
}

#[test]
fn async_run_reports_match_golden_digests() {
    check(&async_suite());
}

#[test]
fn sampled_latency_run_reports_match_golden_digests() {
    check(&latency());
}

#[test]
fn multi_word_rumor_rows_match_golden_digests() {
    check(&wide());
}

#[test]
fn generated_graphs_match_golden_digests() {
    // Every family the catalog generates is pinned: `Complete`
    // materializes nothing and a supplied graph generates nothing.
    let generated: BTreeSet<&str> = Topology::catalog()
        .iter()
        .filter_map(|(spec, _)| Topology::parse_spec(spec.split('[').next()?).ok())
        .filter(|t| !matches!(t, Topology::Complete | Topology::FromFile(_)))
        .map(|t| t.name())
        .collect();
    let pinned: BTreeSet<&str> = graph_grid().iter().map(|(_, t)| t.name()).collect();
    assert_eq!(pinned, generated, "the graph suite must pin every family");
    check(&graph());
}

// The loader tests below vandalize committed pins and compare them with
// the unvandalized rows standing in for a measurement: no simulation.

fn churn_pins() -> (Suite, String, Rows) {
    let suite = churn();
    let text = std::fs::read_to_string(pins_path(suite.name)).expect("committed churn pins");
    let rows = parse(&suite, &text).expect("committed churn pins parse");
    (suite, text, rows)
}

#[test]
fn pins_reject_duplicate_stray_and_missing_rows() {
    let (suite, text, rows) = churn_pins();
    let first = text.lines().nth(1).unwrap();
    let key = &rows[0].0;
    let duplicated = format!("{text}{first}\n");
    assert_eq!(
        problems(&suite, &duplicated, &rows),
        [format!("churn {key}: duplicate row")]
    );
    let stray = format!(
        "{text}{}\n",
        first.replacen(key.as_str(), "Cluster9/256/1", 1)
    );
    assert_eq!(
        problems(&suite, &stray, &rows),
        ["churn Cluster9/256/1: stray row"]
    );
    let last = &rows[rows.len() - 1].0;
    let missing = text.lines().filter(|l| !l.starts_with(last.as_str()));
    let missing: String = missing.map(|l| format!("{l}\n")).collect();
    assert_eq!(
        problems(&suite, &missing, &rows),
        [format!("churn {last}: missing row")]
    );
    let mut swapped = rows.clone();
    swapped.swap(0, 1);
    assert_eq!(
        problems(&suite, &render(&suite, &swapped), &rows),
        ["churn: rows out of grid order"]
    );
}

#[test]
fn pins_reject_unknown_fields_and_non_integer_cells() {
    let (suite, text, rows) = churn_pins();
    let renamed = text.replacen("\tmax_fan_in\t", "\tfan_in\t", 1);
    assert_eq!(
        problems(&suite, &renamed, &rows),
        [
            "churn header: unknown field fan_in",
            "churn header: field max_fan_in missing"
        ]
    );
    let key = &rows[0].0;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let alive = rows[0].1[0];
    lines[1] = lines[1].replacen(&format!("\t{alive}\t"), "\t7.5\t", 1);
    let vandalized = lines.join("\n");
    assert_eq!(
        problems(&suite, &vandalized, &rows),
        [format!("churn {key}: alive \"7.5\" is not an integer")]
    );
}

#[test]
fn pins_name_every_moved_field() {
    let (suite, text, rows) = churn_pins();
    let mut moved = rows.clone();
    let fan_in = RUN_FIELDS.iter().position(|&f| f == "max_fan_in").unwrap();
    let (a, b) = (moved[0].1[fan_in], moved[3].1[fan_in]);
    moved[0].1[fan_in] += 1;
    moved[3].1[fan_in] -= 1;
    let (k0, k3) = (&rows[0].0, &rows[3].0);
    assert_eq!(
        problems(&suite, &text, &moved),
        [
            format!("churn {k0}: max_fan_in {a} → {}", a + 1),
            format!("churn {k3}: max_fan_in {b} → {}", b - 1),
        ]
    );
}

#[test]
fn bless_renders_every_pins_file_byte_for_byte() {
    for suite in all_suites() {
        let text = std::fs::read_to_string(pins_path(suite.name)).expect("committed pins");
        let rows = parse(&suite, &text).unwrap_or_else(|p| panic!("{}", p.join("\n")));
        assert_eq!(rows.len(), suite.cells.len(), "{}", suite.name);
        assert_eq!(
            render(&suite, &rows),
            text,
            "{} does not round-trip",
            suite.name
        );
    }
}
