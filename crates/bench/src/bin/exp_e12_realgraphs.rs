//! **E12 — real-graph snapshots** (extension; the `phonecall::dataset`
//! subsystem).
//!
//! E11 sweeps synthetic families whose parameters we pick; E12 runs the
//! whole registry on **edge-list snapshots loaded from disk** — the
//! SNAP-shaped fixtures committed under `tests/data/`, parsed through
//! `Topology::FromFile` (and its binary `.csrcache` fast path). The
//! build environment has no network, so the fixtures are seeded,
//! byte-deterministic stand-ins for real downloads: shuffled sparse
//! ids, duplicate and self-loop lines, comments, mixed separators (see
//! `phonecall::dataset::fixture`). The pipeline exercised here is the
//! one a real snapshot would ride: text → parse → relabel → CSR →
//! cache → simulate.
//!
//! The shape table cross-checks the **HyperBall** diameter estimate
//! against the certified exact BFS diameter on every fixture — the ±1
//! agreement the test-suite pins, demonstrated in stdout. Past
//! `n = 2^15` (`diameter::EXACT_LIMIT` — a pinned-output choice, not a
//! cost wall: the exact scan is word-parallel, and raising the limit
//! moves committed digests) the estimator is the only column left; the
//! fixtures are sized so both are printable.
//!
//! Observed shapes (recorded in EXPERIMENTS.md §E12): the loaded
//! graphs behave exactly as their synthetic families predict — the
//! heavy-tailed `pa_2k` and rewired `ws_1k` snapshots mix, so under
//! *overlay* addressing the clustered algorithms keep their loglog
//! schedules and their lead; the high-diameter `torus_1k` collapses
//! them mid-backbone. Under *restricted* addressing every sparse
//! snapshot inverts the gap, as in E11: learned addresses without
//! links are worthless. Loading from file changes none of it — the
//! dataset pipeline is measurement plumbing, not physics.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use gossip_baselines::registry;
use gossip_bench::{Experiment, Spec};
use gossip_core::algo::Scenario;
use gossip_harness::Table;
use gossip_lowerbound::diameter;
use phonecall::dataset::{self, fixture, hyperball};
use phonecall::Topology;

/// Resolves the fixture directory: the working directory's
/// `tests/data` when run from the repo root, else the committed
/// location relative to this crate (so `cargo run` works from
/// anywhere in the workspace).
fn data_dir() -> PathBuf {
    let local = Path::new("tests/data");
    if local.is_dir() {
        local.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data")
    }
}

fn main() {
    // The grid is the fixture catalog: sizes come from the files
    // themselves, and the topology *is* the subject.
    let mut ex = Experiment::start(Spec {
        name: "e12",
        default: (vec![], 5),
        full: (vec![], 10),
        algos: registry::all().to_vec(),
        ignore_topo: true,
        ..Spec::default()
    });
    let dir = data_dir();

    // Load every fixture once up front (writing/reusing its binary
    // cache), and learn each file's node count — FromFile topologies
    // carry no `n` of their own.
    let fixtures: Vec<(&fixture::Fixture, String, phonecall::Adjacency)> = fixture::catalog()
        .iter()
        .map(|f| {
            let path = dir.join(f.file_name);
            let spec = path.to_string_lossy().into_owned();
            let adj = dataset::load(&path).unwrap_or_else(|e| {
                eprintln!("e12: {e}");
                eprintln!("(regenerate the fixtures with: cargo run --bin gen_fixtures)");
                std::process::exit(1);
            });
            (f, spec, adj)
        })
        .collect();

    // Shape table: the loaded graphs, with the HyperBall estimate
    // printed next to the certified BFS diameter — the ±1 agreement
    // the test-suite pins, visible in the record.
    let mut shape_tbl = Table::new(
        "E12: loaded snapshots (HyperBall vs certified exact diameter)",
        &[
            "fixture",
            "nodes",
            "edges",
            "max degree",
            "diam (HyperBall)",
            "diam (exact BFS)",
            "90% eff. diam",
        ],
    );
    ex.metric("trials_per_cell", f64::from(ex.trials));
    for (f, _, adj) in &fixtures {
        let est = hyperball::estimate(adj, 0xE12);
        let exact = if adj.len() <= diameter::EXACT_LIMIT {
            diameter::exact(adj).map_or("inf".to_string(), |d| d.to_string())
        } else {
            "—".to_string() // past the certified scale; estimator only
        };
        shape_tbl.push_row(vec![
            f.name.to_string(),
            adj.len().to_string(),
            adj.edge_count().to_string(),
            adj.max_degree().to_string(),
            format!("~{}", est.diameter),
            exact,
            format!("{:.1}", est.effective_diameter),
        ]);
        ex.metric(
            format!("{}_hyperball_diameter", f.name),
            f64::from(est.diameter),
        );
    }
    ex.emit(&shape_tbl);

    // One (coverage, rounds) table pair per addressing mode, whole
    // registry × every fixture. Rows fold in seed order inside
    // `par_map_trials`, so stdout is byte-identical at every
    // GOSSIP_THREADS — and identical cold or warm, because the cache
    // layer only ever talks on stderr. The label (not the path) feeds
    // seed derivation, so trial seeds do not depend on where the tree
    // lives.
    let cols: Vec<(&str, Scenario)> = fixtures
        .iter()
        .map(|(f, spec, adj)| {
            let topo = Topology::FromFile(spec.clone());
            (f.name, Scenario::broadcast(adj.len()).topology(topo))
        })
        .collect();
    ex.addressing_pairs(
        0xE12,
        &cols,
        "E12: informed fraction of survivors on loaded snapshots",
        |name| Some(name.to_string()),
    );
    ex.finish(Some(
        "Reading: the loaded snapshots behave exactly as their families\n\
         predict. The heavy-tailed pa_2k and rewired ws_1k graphs mix,\n\
         so under overlay addressing the clustered algorithms keep\n\
         their loglog schedules and their 5-10x lead over flooding; the\n\
         diameter-32 torus_1k strands them mid-backbone. Restricted\n\
         addressing inverts the gap on every sparse snapshot, as in\n\
         E11. The dataset pipeline itself — parse, relabel, CSR cache,\n\
         HyperBall — is measurement plumbing: the estimator lands\n\
         within 1 of the certified diameter on every fixture (both\n\
         printed above), and results are byte-identical whether the\n\
         graph came from text or from its binary cache.",
    ));
}
