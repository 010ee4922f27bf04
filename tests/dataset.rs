//! Integration contract of the dataset subsystem
//! (`phonecall::dataset`) across the whole stack: hermeticity of the
//! committed fixtures (bytes regenerate from seeds), the HyperBall
//! estimator against the certified exact BFS diameter — on every
//! committed fixture and property-tested across random connected
//! graphs — the binary cache's round-trip / corruption / staleness
//! behavior through the public `load` path, ingestion edge cases, and
//! cold-vs-warm run equality for file-loaded topologies.
//!
//! The `dataset` suite of `tests/golden_reports.rs` pins exact fields
//! on the `ws_1k` snapshot (`tests/pins/dataset.tsv`); this suite pins
//! the *properties* those fields rely on.

use std::fs;
use std::path::{Path, PathBuf};

use optimal_gossip::lowerbound::diameter;
use optimal_gossip::prelude::*;
use phonecall::dataset::{self, fixture, hyperball, parse_edge_list};
use proptest::prelude::*;

/// The committed fixture directory, resolved from the package root so
/// tests pass regardless of the runner's working directory.
fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// A scratch directory unique to this test, so cache-mutation tests
/// never race the committed fixtures (or each other).
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gossip-dataset-test-{}-{name}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn committed_fixtures_regenerate_byte_identically() {
    // The hermetic-CI contract: `gen_fixtures` into a scratch dir must
    // reproduce the committed bytes exactly. Checked here too, so a
    // drifted tree fails `cargo test` before it fails CI.
    for f in fixture::catalog() {
        let committed = data_dir().join(f.file_name);
        let committed = fs::read_to_string(&committed)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", f.file_name));
        assert_eq!(
            fixture::render(f),
            committed,
            "{} drifted from its seed; regenerate with gen_fixtures",
            f.name
        );
    }
}

#[test]
fn hyperball_matches_exact_bfs_on_every_fixture() {
    // The acceptance bar: within ±1 of the certified diameter on every
    // committed snapshot, at the estimator's own (default) register
    // sizing and the experiment's seed.
    for f in fixture::catalog() {
        let adj = dataset::load(data_dir().join(f.file_name)).unwrap();
        let exact = diameter::exact(&adj).unwrap_or_else(|| panic!("{} must be connected", f.name));
        let est = hyperball::estimate(&adj, 0xE12);
        assert!(
            est.diameter <= exact && est.diameter + 1 >= exact,
            "{}: HyperBall said {} against exact {exact}",
            f.name,
            est.diameter
        );
        assert!(
            est.effective_diameter <= f64::from(est.diameter),
            "{}: effective diameter cannot exceed the saturation round",
            f.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// HyperBall lands within 1 of the exact BFS diameter on every
    /// connected random graph up to 2^10 nodes, across four families
    /// spanning the diameter spectrum (constant to n/2). Registers are
    /// sized to at least 2 per node — the regime the module's ±1 claim
    /// is stated for.
    #[test]
    fn hyperball_is_within_one_of_exact_bfs(
        family in 0u8..4,
        n in 8usize..=1024,
        seed in 0u64..1000,
    ) {
        let topo = match family {
            0 => Topology::Ring,
            1 => Topology::Torus2D,
            2 => Topology::WattsStrogatz(4, 0.2),
            _ => Topology::PreferentialAttachment(3),
        };
        let adj = topo.build(n, seed).expect("materialized family");
        let exact = diameter::exact(&adj)
            .expect("these families are connected by construction");
        let p = (2 * n).next_power_of_two().trailing_zeros().clamp(6, 12);
        let est = hyperball::estimate_with_registers(&adj, seed ^ 0x5eed, p);
        prop_assert!(
            est.diameter <= exact && est.diameter + 1 >= exact,
            "{topo:?} n={n} seed={seed}: HyperBall {} vs exact {exact}",
            est.diameter
        );
    }
}

#[test]
fn cache_survives_round_trip_corruption_and_staleness() {
    let dir = scratch_dir("cache");
    let src = dir.join("g.txt");
    // A 5-ring with noise the parser must absorb: comments, CRLF, a
    // duplicate line, a self-loop line, sparse non-contiguous ids.
    fs::write(
        &src,
        "# five nodes, ring\r\n70 9\r\n9 300\n300 4\t\n4 15\n15 70\n9 70\n300 300\n",
    )
    .unwrap();
    let cpath = dataset::cache_path(&src);
    assert!(!cpath.exists(), "no cache before the first load");

    let cold = dataset::load(&src).unwrap();
    assert_eq!(cold.len(), 5);
    assert_eq!(cold.edge_count(), 5);
    assert!(cpath.exists(), "first load writes the cache");

    let warm = dataset::load(&src).unwrap();
    assert_eq!(cold, warm, "warm load returns the identical CSR");

    // Corrupt the cache: load falls back to the text source (with a
    // stderr warning) and heals the cache file.
    let good_bytes = fs::read(&cpath).unwrap();
    let mut bad = good_bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    fs::write(&cpath, &bad).unwrap();
    let healed = dataset::load(&src).unwrap();
    assert_eq!(cold, healed, "corrupt cache falls back to the text");
    assert_eq!(
        fs::read(&cpath).unwrap(),
        good_bytes,
        "fallback rewrites a good cache"
    );

    // Change the source (different length, so the stamp moves even
    // within mtime granularity): the stale cache must not shadow it.
    fs::write(&src, "1 2\n2 3\n").unwrap();
    let fresh = dataset::load(&src).unwrap();
    assert_eq!(fresh.len(), 3);
    assert_eq!(fresh.edge_count(), 2);
}

#[test]
fn load_errors_name_the_offending_file() {
    let dir = scratch_dir("errors");
    let missing = dir.join("nope.txt");
    let err = dataset::load(&missing).unwrap_err();
    assert!(err.contains("nope.txt"), "{err}");

    let garbage = dir.join("garbage.txt");
    fs::write(&garbage, "hello world\n").unwrap();
    let err = dataset::load(&garbage).unwrap_err();
    assert!(err.contains("garbage.txt"), "{err}");
    assert!(err.contains("not an unsigned integer"), "{err}");

    let empty = dir.join("empty.txt");
    fs::write(&empty, "# nothing here\n\n").unwrap();
    let err = dataset::load(&empty).unwrap_err();
    assert!(err.contains("no edges found"), "{err}");
}

#[test]
fn ingestion_is_separator_and_order_insensitive() {
    // The same graph through three surface forms: canonical, CRLF with
    // tabs and extra columns, shuffled with duplicates and self-loops.
    let canonical = parse_edge_list("10 20\n20 30\n30 10\n").unwrap();
    let noisy = parse_edge_list("# c\r\n10\t20\t99\r\n20\t30\r\n30\t10\r\n").unwrap();
    let shuffled = parse_edge_list("30 10\n20 20\n20 30\n10 20\n20 10\n").unwrap();
    // First-appearance relabeling makes canonical and noisy identical;
    // shuffled permutes labels, so compare its shape instead.
    assert_eq!(canonical, noisy);
    assert_eq!(shuffled.len(), 3);
    assert_eq!(shuffled.edge_count(), 3);
    assert_eq!(canonical.edge_count(), 3);
}

#[test]
fn file_topology_runs_cold_and_warm_identically() {
    // A FromFile scenario must not care whether its graph arrives via
    // the text parser (cold) or the binary cache (warm): same digest.
    let dir = scratch_dir("coldwarm");
    let src = dir.join("ws.txt");
    fs::write(&src, fixture::render(&fixture::catalog()[1])).unwrap();
    let spec = src.to_string_lossy().into_owned();
    let scenario = Scenario::broadcast(1024)
        .seed(3)
        .topology(Topology::FromFile(spec))
        .addressing(DirectAddressing::Overlay);
    let push_pull = registry::by_name("PushPull").unwrap();
    assert!(!dataset::cache_path(&src).exists());
    let cold = push_pull.run(&scenario);
    assert!(
        dataset::cache_path(&src).exists(),
        "the run's graph build populated the cache"
    );
    let warm = push_pull.run(&scenario);
    assert_eq!(
        (cold.rounds, cold.messages, cold.bits, cold.informed),
        (warm.rounds, warm.messages, warm.bits, warm.informed),
        "cold and warm runs must be bit-identical"
    );
}
