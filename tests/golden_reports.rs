//! Golden-report regression tests: a compact digest of [`RunReport`]
//! (rounds, messages, bits, informed count) is pinned for every algorithm
//! in the registry at fixed `(n, seed)` grid points.
//!
//! All randomness flows from the run seed, so these digests are exact —
//! an engine or algorithm refactor that silently changes behavior (an
//! extra RNG draw, a reordered delivery, a different accounting charge)
//! fails loudly here rather than surfacing as a subtly shifted
//! experiment table months later.
//!
//! The grid iterates `registry::all()`, so a newly registered algorithm
//! fails the length check until its digests are pinned — no hand-kept
//! algorithm list to forget to extend.
//!
//! To regenerate after an *intentional* behavior change, run
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_reports -- --nocapture
//! ```
//!
//! and paste the printed rows over the `GOLDEN` table below (the churn,
//! topology, traffic and dataset tests print their rows under
//! `// churn grid:` / `// topology grid:` / `// traffic grid:` /
//! `// dataset grid:` / `// async grid:` / `// latency grid:` headers
//! for their respective tables). Do this
//! only when the change is meant to alter traffic patterns; the whole
//! point of the table is to make that decision explicit.

use optimal_gossip::prelude::*;

/// One pinned grid point: (algorithm, n, seed, rounds, messages, bits,
/// informed).
type Golden = (&'static str, usize, u64, u64, u64, u64, usize);

/// The pinned digests at the grid `n ∈ {64, 256, 1024} × seed ∈ {1, 7}`
/// for every registered algorithm: the seven headline-comparison digests
/// generated from the seed engine (PR 2, byte-identical through the
/// `Algorithm` trait), then the `Δ`-parameterized algorithms (at their
/// auto `Δ = max(16, ⌈√n⌉)`) and Name-Dropper, pinned when the registry
/// was introduced. For the non-broadcast tasks `informed` follows the
/// registry's report semantics: clustered nodes for `Cluster3`, nodes
/// with complete knowledge for `NameDropper`.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    // (algo, n, seed, rounds, messages, bits, informed)
    ("Cluster2", 64, 1, 75, 2380, 94659, 64),
    ("Cluster2", 64, 7, 75, 1994, 81427, 64),
    ("Cluster2", 256, 1, 75, 7172, 373439, 256),
    ("Cluster2", 256, 7, 75, 7291, 380157, 256),
    ("Cluster2", 1024, 1, 96, 27944, 1765062, 1024),
    ("Cluster2", 1024, 7, 96, 27166, 1727236, 1024),
    ("Cluster1", 64, 1, 49, 2892, 113734, 64),
    ("Cluster1", 64, 7, 49, 3029, 118818, 64),
    ("Cluster1", 256, 1, 49, 11740, 587735, 256),
    ("Cluster1", 256, 7, 49, 11169, 560303, 256),
    ("Cluster1", 1024, 1, 61, 59151, 3599080, 1024),
    ("Cluster1", 1024, 7, 61, 58140, 3605204, 1024),
    ("AvinElsasser", 64, 1, 44, 1101, 168101, 64),
    ("AvinElsasser", 64, 7, 44, 1102, 170011, 64),
    ("AvinElsasser", 256, 1, 52, 4948, 808193, 256),
    ("AvinElsasser", 256, 7, 52, 4911, 817647, 256),
    ("AvinElsasser", 1024, 1, 46, 19025, 3071051, 1024),
    ("AvinElsasser", 1024, 7, 46, 18825, 3075447, 1024),
    ("Karp", 64, 1, 22, 552, 97632, 64),
    ("Karp", 64, 7, 22, 560, 99840, 64),
    ("Karp", 256, 1, 26, 2721, 503808, 256),
    ("Karp", 256, 7, 26, 2721, 479904, 256),
    ("Karp", 1024, 1, 29, 11940, 1833792, 1024),
    ("Karp", 1024, 7, 29, 11973, 1919784, 1024),
    ("PushPull", 64, 1, 7, 488, 77664, 64),
    ("PushPull", 64, 7, 6, 432, 59904, 64),
    ("PushPull", 256, 1, 8, 2209, 339968, 256),
    ("PushPull", 256, 7, 8, 2209, 316064, 256),
    ("PushPull", 1024, 1, 10, 10916, 1497920, 1024),
    ("PushPull", 1024, 7, 10, 10949, 1583912, 1024),
    ("Push", 64, 1, 10, 254, 79248, 64),
    ("Push", 64, 7, 11, 323, 100776, 64),
    ("Push", 256, 1, 13, 1251, 400320, 256),
    ("Push", 256, 7, 13, 1282, 410240, 256),
    ("Push", 1024, 1, 17, 7227, 2370456, 1024),
    ("Push", 1024, 7, 19, 9085, 2979880, 1024),
    ("Pull", 64, 1, 9, 467, 29352, 64),
    ("Pull", 64, 7, 10, 526, 30768, 64),
    ("Pull", 256, 1, 12, 2374, 149408, 256),
    ("Pull", 256, 7, 11, 2186, 143392, 256),
    ("Pull", 1024, 1, 16, 14074, 857584, 1024),
    ("Pull", 1024, 7, 14, 12030, 775824, 1024),
    ("Cluster3", 64, 1, 108, 3338, 127024, 64),
    ("Cluster3", 64, 7, 108, 3336, 128045, 64),
    ("Cluster3", 256, 1, 108, 12978, 653690, 256),
    ("Cluster3", 256, 7, 108, 12755, 643926, 256),
    ("Cluster3", 1024, 1, 119, 69014, 4318355, 1024),
    ("Cluster3", 1024, 7, 119, 68031, 4266283, 1024),
    ("ClusterPushPull", 64, 1, 148, 4002, 277104, 64),
    ("ClusterPushPull", 64, 7, 148, 4010, 277597, 64),
    ("ClusterPushPull", 256, 1, 156, 16222, 1350394, 256),
    ("ClusterPushPull", 256, 7, 156, 15970, 1341238, 256),
    ("ClusterPushPull", 1024, 1, 163, 82737, 7431627, 1024),
    ("ClusterPushPull", 1024, 7, 163, 81684, 7402099, 1024),
    ("Tree", 64, 1, 2, 126, 21168, 64),
    ("Tree", 64, 7, 2, 126, 21168, 64),
    ("Tree", 256, 1, 2, 510, 89760, 256),
    ("Tree", 256, 7, 2, 510, 89760, 256),
    ("Tree", 1024, 1, 2, 2046, 376464, 1024),
    ("Tree", 1024, 7, 2, 2046, 376464, 1024),
    ("NameDropper", 64, 1, 20, 1280, 555200, 64),
    ("NameDropper", 64, 7, 18, 1152, 445764, 64),
    ("NameDropper", 256, 1, 26, 6656, 10949984, 256),
    ("NameDropper", 256, 7, 25, 6400, 9813824, 256),
    ("NameDropper", 1024, 1, 31, 31744, 205633104, 1024),
    ("NameDropper", 1024, 7, 34, 34816, 264123936, 1024),
];

/// The canonical churn scenario of the golden grid: an early correlated
/// outage with recovery plus burst loss, source protected — every axis of
/// the dynamic adversary active at once. Digests under this scenario pin
/// the adversary's event stream *and* the engine's loss composition; any
/// change to either fails loudly here.
fn canonical_churn() -> phonecall::ChurnConfig {
    phonecall::ChurnConfig {
        crash_rate: 0.5,
        batch_size: 4,
        recovery_rate: 0.2,
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        start_round: 1,
        stop_round: Some(24),
        protected: vec![0],
        ..phonecall::ChurnConfig::default()
    }
}

/// Pinned digests for every registered algorithm under the canonical
/// churn scenario at `n = 256, seed ∈ {1, 7}`. Unlike the loss-free grid
/// these runs are *not* required to succeed (churn is allowed to strand
/// survivors); the digests pin whatever behavior the adversary produces.
///
/// Re-pinned when sent-but-lost pull replies started being charged to
/// `messages`/`bits` (the sender pays for a reply the network drops):
/// only those two columns moved — every `rounds`/`informed` entry is
/// unchanged because delivery outcomes and the RNG stream were not
/// touched, which is exactly the invariant the re-pin was checked
/// against.
#[rustfmt::skip]
const CHURN_GOLDEN: &[Golden] = &[
    // (algo, n, seed, rounds, messages, bits, informed)
    ("Cluster2", 256, 1, 75, 10188, 505878, 256),
    ("Cluster2", 256, 7, 75, 7533, 389262, 256),
    ("Cluster1", 256, 1, 49, 10634, 531290, 256),
    ("Cluster1", 256, 7, 49, 8469, 433032, 256),
    ("AvinElsasser", 256, 1, 52, 4991, 753513, 256),
    ("AvinElsasser", 256, 7, 52, 4933, 783689, 256),
    ("Karp", 256, 1, 26, 2656, 496832, 249),
    ("Karp", 256, 7, 26, 2705, 433888, 250),
    ("PushPull", 256, 1, 7, 1917, 262656, 246),
    ("PushPull", 256, 7, 9, 2452, 353216, 255),
    ("Push", 256, 1, 14, 1350, 432000, 247),
    ("Push", 256, 7, 14, 1313, 420160, 247),
    ("Pull", 256, 1, 13, 2279, 153280, 249),
    ("Pull", 256, 7, 15, 3066, 170976, 249),
    ("Cluster3", 256, 1, 108, 14372, 709586, 256),
    ("Cluster3", 256, 7, 108, 13146, 663119, 256),
    ("ClusterPushPull", 256, 1, 156, 17554, 1407634, 256),
    ("ClusterPushPull", 256, 7, 156, 16368, 1363471, 256),
    ("Tree", 256, 1, 2, 502, 88352, 252),
    ("Tree", 256, 7, 4, 365, 43360, 66),
    ("NameDropper", 256, 1, 31, 7700, 11128368, 255),
    ("NameDropper", 256, 7, 31, 7750, 13054688, 253),
];

/// The canonical topology grid: one sparse extreme and one expander
/// under restricted addressing, the same expander plus a small world
/// under overlay — the four corners of E11's sweep — at `n = 256`,
/// seed 1. As with churn, the runs are *not* required to succeed
/// (restricted sparse graphs defeat the clustered algorithms by
/// design); the digests pin the neighbor-sampling stream, the
/// restricted-edge gating and the per-scenario graph build exactly.
fn topology_grid_points() -> Vec<(&'static str, Topology, DirectAddressing)> {
    vec![
        (
            "ring/restricted",
            Topology::Ring,
            DirectAddressing::Restricted,
        ),
        (
            "rr8/restricted",
            Topology::RandomRegular(8),
            DirectAddressing::Restricted,
        ),
        (
            "rr8/overlay",
            Topology::RandomRegular(8),
            DirectAddressing::Overlay,
        ),
        (
            "ws6/overlay",
            Topology::WattsStrogatz(6, 0.2),
            DirectAddressing::Overlay,
        ),
    ]
}

/// One pinned topology grid point: (algorithm, scenario, rounds,
/// messages, bits, informed) at `n = 256`, seed 1.
type TopoGolden = (&'static str, &'static str, u64, u64, u64, usize);

/// Pinned digests for every registered algorithm at every point of
/// [`topology_grid_points`].
#[rustfmt::skip]
const TOPOLOGY_GOLDEN: &[TopoGolden] = &[
    // (algo, topology/addressing, rounds, messages, bits, informed)
    ("Cluster2", "ring/restricted", 75, 4471, 203562, 1),
    ("Cluster2", "rr8/restricted", 75, 4924, 231666, 1),
    ("Cluster2", "rr8/overlay", 75, 8105, 416078, 256),
    ("Cluster2", "ws6/overlay", 75, 8111, 419020, 256),
    ("Cluster1", "ring/restricted", 49, 2713, 102076, 3),
    ("Cluster1", "rr8/restricted", 49, 2386, 112939, 1),
    ("Cluster1", "rr8/overlay", 49, 11409, 572079, 256),
    ("Cluster1", "ws6/overlay", 49, 9641, 489288, 256),
    ("AvinElsasser", "ring/restricted", 52, 3849, 153278, 21),
    ("AvinElsasser", "rr8/restricted", 52, 3261, 348920, 256),
    ("AvinElsasser", "rr8/overlay", 52, 4913, 803960, 256),
    ("AvinElsasser", "ws6/overlay", 52, 4777, 769455, 256),
    ("Karp", "ring/restricted", 26, 6271, 236672, 35),
    ("Karp", "rr8/restricted", 26, 2736, 432288, 256),
    ("Karp", "rr8/overlay", 26, 2736, 432288, 256),
    ("Karp", "ws6/overlay", 26, 2741, 337408, 256),
    ("PushPull", "ring/restricted", 104, 26742, 3238944, 159),
    ("PushPull", "rr8/restricted", 9, 2480, 350368, 256),
    ("PushPull", "rr8/overlay", 9, 2480, 350368, 256),
    ("PushPull", "ws6/overlay", 11, 2985, 415488, 256),
    ("Push", "ring/restricted", 104, 6072, 1943040, 122),
    ("Push", "rr8/restricted", 14, 1374, 439680, 256),
    ("Push", "rr8/overlay", 14, 1374, 439680, 256),
    ("Push", "ws6/overlay", 22, 2296, 734720, 256),
    ("Pull", "ring/restricted", 104, 21388, 714944, 107),
    ("Pull", "rr8/restricted", 12, 2303, 147136, 256),
    ("Pull", "rr8/overlay", 12, 2303, 147136, 256),
    ("Pull", "ws6/overlay", 20, 3379, 181568, 256),
    ("Cluster3", "ring/restricted", 108, 5128, 239689, 237),
    ("Cluster3", "rr8/restricted", 108, 6603, 322424, 256),
    ("Cluster3", "rr8/overlay", 108, 12781, 644070, 256),
    ("Cluster3", "ws6/overlay", 108, 12833, 646565, 256),
    ("ClusterPushPull", "ring/restricted", 156, 8298, 364169, 27),
    ("ClusterPushPull", "rr8/restricted", 156, 8560, 635416, 256),
    ("ClusterPushPull", "rr8/overlay", 156, 16004, 1321926, 256),
    ("ClusterPushPull", "ws6/overlay", 156, 16186, 1294533, 256),
    ("Tree", "ring/restricted", 4, 2, 352, 2),
    ("Tree", "rr8/restricted", 4, 8, 544, 2),
    ("Tree", "rr8/overlay", 2, 510, 89760, 256),
    ("Tree", "ws6/overlay", 2, 510, 89760, 256),
    ("NameDropper", "ring/restricted", 296, 9392, 3161504, 0),
    ("NameDropper", "rr8/restricted", 296, 2650, 296112, 0),
    ("NameDropper", "rr8/overlay", 26, 6656, 10949984, 256),
    ("NameDropper", "ws6/overlay", 26, 6656, 10949984, 256),
];

/// One pinned traffic grid point: (algorithm, seed, rounds, messages,
/// bits, workload rumors completed, piggybacked payloads) at `n = 256`
/// under the canonical E13 workload.
type TrafficGolden = (&'static str, u64, u64, u64, u64, usize, u64);

/// Pinned digests for every registered algorithm under the canonical
/// multi-rumor workload (eight rumors arriving at one per round,
/// unlimited bandwidth) at `n = 256, seed ∈ {1, 7}`. The workload rides
/// the algorithms' own messages, so `rounds` matches the loss-free grid
/// while `bits` grows by the piggybacked payloads; `completed` pins the
/// workload semantics (a bounded-schedule algorithm may finish before
/// late arrivals spread) and `payloads` the transfer stream itself.
#[rustfmt::skip]
const TRAFFIC_GOLDEN: &[TrafficGolden] = &[
    // (algo, seed, rounds, messages, bits, completed, payloads)
    ("Cluster2", 1, 75, 7172, 895679, 8, 2040),
    ("Cluster2", 7, 75, 7291, 902397, 8, 2040),
    ("Cluster1", 1, 49, 11740, 1109975, 8, 2040),
    ("Cluster1", 7, 49, 11169, 1082543, 8, 2040),
    ("AvinElsasser", 1, 52, 4948, 942593, 0, 525),
    ("AvinElsasser", 7, 52, 4911, 1096175, 0, 1088),
    ("Karp", 1, 26, 2721, 606720, 0, 402),
    ("Karp", 7, 26, 2721, 608928, 0, 504),
    ("PushPull", 1, 8, 2209, 357376, 0, 68),
    ("PushPull", 7, 8, 2209, 339872, 0, 93),
    ("Push", 1, 13, 1251, 565440, 0, 645),
    ("Push", 7, 13, 1282, 668288, 0, 1008),
    ("Pull", 1, 12, 2374, 155552, 0, 24),
    ("Pull", 7, 11, 2186, 145184, 0, 7),
    ("Cluster3", 1, 108, 12978, 1062778, 4, 1598),
    ("Cluster3", 7, 108, 12755, 1053526, 5, 1600),
    ("ClusterPushPull", 1, 156, 16222, 1816826, 6, 1822),
    ("ClusterPushPull", 7, 156, 15970, 1805878, 7, 1815),
    ("Tree", 1, 2, 510, 89760, 0, 0),
    ("Tree", 7, 2, 510, 93856, 0, 16),
    ("NameDropper", 1, 26, 6656, 11472224, 8, 2040),
    ("NameDropper", 7, 25, 6400, 10336064, 8, 2040),
];

/// Pinned digests for every registered algorithm on the `ws_1k` loaded
/// snapshot (a file-loaded `Topology::FromFile`, exercising the whole
/// dataset pipeline: text parse or binary cache → relabeled CSR →
/// simulate) under both addressing modes at seed 1. The scenario name
/// column records the addressing mode. As with the synthetic topology
/// grid, restricted runs are *not* required to succeed; the digests pin
/// the loaded graph — and with it the parser, the id relabeling, and
/// the cache round-trip — bit-exactly.
#[rustfmt::skip]
const DATASET_GOLDEN: &[TopoGolden] = &[
    // (algo, fixture/addressing, rounds, messages, bits, informed)
    ("Cluster2", "ws_1k/overlay", 96, 31560, 1992103, 1024),
    ("Cluster2", "ws_1k/restricted", 96, 15652, 922993, 1),
    ("Cluster1", "ws_1k/overlay", 61, 43021, 2626450, 1019),
    ("Cluster1", "ws_1k/restricted", 61, 10187, 581086, 7),
    ("AvinElsasser", "ws_1k/overlay", 46, 19354, 2705819, 1024),
    ("AvinElsasser", "ws_1k/restricted", 46, 13847, 1041603, 695),
    ("Karp", "ws_1k/overlay", 29, 15763, 1055896, 1024),
    ("Karp", "ws_1k/restricted", 29, 15763, 1055896, 1024),
    ("PushPull", "ws_1k/overlay", 20, 21166, 3144592, 1024),
    ("PushPull", "ws_1k/restricted", 20, 21166, 3144592, 1024),
    ("Push", "ws_1k/overlay", 32, 12580, 4126240, 1024),
    ("Push", "ws_1k/restricted", 32, 12580, 4126240, 1024),
    ("Pull", "ws_1k/overlay", 32, 21251, 1144664, 1024),
    ("Pull", "ws_1k/restricted", 32, 21251, 1144664, 1024),
    ("Cluster3", "ws_1k/overlay", 119, 63664, 3997761, 1024),
    ("Cluster3", "ws_1k/restricted", 119, 13000, 790903, 1024),
    ("ClusterPushPull", "ws_1k/overlay", 163, 78391, 6908761, 1024),
    ("ClusterPushPull", "ws_1k/restricted", 163, 23526, 1605159, 777),
    ("Tree", "ws_1k/overlay", 2, 2046, 376464, 1024),
    ("Tree", "ws_1k/restricted", 4, 10, 688, 2),
    ("NameDropper", "ws_1k/overlay", 31, 31744, 205633104, 1024),
    ("NameDropper", "ws_1k/restricted", 440, 121813, 16579308, 0),
];

/// The committed `ws_1k` fixture, resolved from the package root so the
/// test passes regardless of the runner's working directory.
fn ws_1k_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/ws_1k.txt").to_string()
}

fn dataset_grid() -> Vec<(&'static dyn Algorithm, &'static str, DirectAddressing)> {
    let mut g = Vec::new();
    for &algo in registry::all() {
        for (name, mode) in [
            ("ws_1k/overlay", DirectAddressing::Overlay),
            ("ws_1k/restricted", DirectAddressing::Restricted),
        ] {
            g.push((algo, name, mode));
        }
    }
    g
}

fn dataset_digest(
    algo: &dyn Algorithm,
    scenario_name: &'static str,
    mode: DirectAddressing,
) -> TopoGolden {
    let r = algo.run(
        &Scenario::broadcast(1024)
            .seed(1)
            .topology(Topology::FromFile(ws_1k_path()))
            .addressing(mode),
    );
    (
        algo.name(),
        scenario_name,
        r.rounds,
        r.messages,
        r.bits,
        r.informed,
    )
}

#[test]
fn dataset_run_reports_match_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("// dataset grid:");
        for (algo, name, mode) in dataset_grid() {
            let (algo, name, rounds, messages, bits, informed) = dataset_digest(algo, name, mode);
            println!("    (\"{algo}\", \"{name}\", {rounds}, {messages}, {bits}, {informed}),");
        }
        return;
    }
    assert_eq!(
        DATASET_GOLDEN.len(),
        dataset_grid().len(),
        "dataset golden table out of sync with the registry grid; regenerate with GOLDEN_REGEN=1"
    );
    for (&(name, scenario, rounds, messages, bits, informed), (algo, gname, mode)) in
        DATASET_GOLDEN.iter().zip(dataset_grid())
    {
        assert_eq!((name, scenario), (algo.name(), gname), "grid drift");
        let got = dataset_digest(algo, gname, mode);
        assert_eq!(
            got,
            (name, scenario, rounds, messages, bits, informed),
            "{name} at {scenario} drifted from its dataset golden digest"
        );
    }
}

fn traffic_grid() -> Vec<(&'static dyn Algorithm, u64)> {
    let mut g = Vec::new();
    for &algo in registry::all() {
        for seed in [1u64, 7] {
            g.push((algo, seed));
        }
    }
    g
}

fn traffic_digest(algo: &dyn Algorithm, seed: u64) -> TrafficGolden {
    let r = algo.run(&Scenario::broadcast(256).seed(seed).rumors(8, 1.0));
    (
        algo.name(),
        seed,
        r.rounds,
        r.messages,
        r.bits,
        r.rumors_completed(),
        r.rumor_payloads,
    )
}

#[test]
fn traffic_run_reports_match_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("// traffic grid:");
        for (algo, seed) in traffic_grid() {
            let (name, seed, rounds, messages, bits, completed, payloads) =
                traffic_digest(algo, seed);
            println!(
                "    (\"{name}\", {seed}, {rounds}, {messages}, {bits}, {completed}, {payloads}),"
            );
        }
        return;
    }
    assert_eq!(
        TRAFFIC_GOLDEN.len(),
        traffic_grid().len(),
        "traffic golden table out of sync with the registry grid; regenerate with GOLDEN_REGEN=1"
    );
    for (&(name, seed, rounds, messages, bits, completed, payloads), (algo, gseed)) in
        TRAFFIC_GOLDEN.iter().zip(traffic_grid())
    {
        assert_eq!((name, seed), (algo.name(), gseed), "grid drift");
        let got = traffic_digest(algo, seed);
        assert_eq!(
            got,
            (name, seed, rounds, messages, bits, completed, payloads),
            "{name} at seed {seed} drifted from its traffic golden digest"
        );
    }
}

/// One pinned async grid point: (algorithm, seed, rounds, events
/// processed, messages, bits, informed) at `n = 256` under the default
/// asynchronous engine (`rate = 1`, fixed latency `0.5`).
type AsyncGolden = (&'static str, u64, u64, u64, u64, u64, usize);

/// Pinned digests for every registered algorithm under
/// `Engine::Async(AsyncConfig::default())` at `n = 256, seed ∈ {1, 7}`.
/// Alongside the usual cost digest these pin `events_processed` — the
/// length of the timestamp-ordered event trace — so any change to the
/// event ordering, the clock/latency/delivery streams or the drain
/// schedule fails loudly even when the aggregate costs happen to agree.
#[rustfmt::skip]
const ASYNC_GOLDEN: &[AsyncGolden] = &[
    // (algo, seed, rounds, events, messages, bits, informed)
    ("Cluster2", 1, 75, 27430, 8230, 420317, 256),
    ("Cluster2", 7, 75, 26023, 6823, 358588, 256),
    ("Cluster1", 1, 49, 24282, 11738, 587639, 256),
    ("Cluster1", 7, 49, 23710, 11166, 560159, 256),
    ("AvinElsasser", 1, 52, 18256, 4944, 811731, 256),
    ("AvinElsasser", 7, 52, 18246, 4934, 815055, 256),
    ("Karp", 1, 26, 9388, 2732, 553984, 256),
    ("Karp", 7, 26, 9381, 2725, 588896, 256),
    ("PushPull", 1, 7, 3756, 1964, 308224, 256),
    ("PushPull", 7, 6, 3237, 1701, 261216, 256),
    ("Push", 1, 12, 4466, 1394, 446080, 256),
    ("Push", 7, 11, 4083, 1267, 405440, 256),
    ("Pull", 1, 11, 4957, 2141, 141952, 256),
    ("Pull", 7, 10, 4668, 2108, 140896, 256),
    ("Cluster3", 1, 108, 40615, 12967, 652818, 256),
    ("Cluster3", 7, 108, 40665, 13017, 656583, 256),
    ("ClusterPushPull", 1, 156, 56163, 16227, 1335186, 256),
    ("ClusterPushPull", 7, 156, 56186, 16250, 1348839, 256),
    ("Tree", 1, 2, 1022, 510, 89760, 256),
    ("Tree", 7, 2, 1022, 510, 89760, 256),
    ("NameDropper", 1, 22, 11264, 5632, 9352528, 256),
    ("NameDropper", 7, 25, 12800, 6400, 12447680, 256),
];

fn async_grid() -> Vec<(&'static dyn Algorithm, u64)> {
    let mut g = Vec::new();
    for &algo in registry::all() {
        for seed in [1u64, 7] {
            g.push((algo, seed));
        }
    }
    g
}

fn async_digest(algo: &dyn Algorithm, cfg: AsyncConfig, seed: u64) -> AsyncGolden {
    let r = algo.run(
        &Scenario::broadcast(256)
            .seed(seed)
            .engine(Engine::Async(cfg)),
    );
    (
        algo.name(),
        seed,
        r.rounds,
        r.events_processed,
        r.messages,
        r.bits,
        r.informed,
    )
}

#[test]
fn async_run_reports_match_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("// async grid:");
        for (algo, seed) in async_grid() {
            let (name, seed, rounds, events, messages, bits, informed) =
                async_digest(algo, AsyncConfig::default(), seed);
            println!(
                "    (\"{name}\", {seed}, {rounds}, {events}, {messages}, {bits}, {informed}),"
            );
        }
        return;
    }
    assert_eq!(
        ASYNC_GOLDEN.len(),
        async_grid().len(),
        "async golden table out of sync with the registry grid; regenerate with GOLDEN_REGEN=1"
    );
    for (&(name, seed, rounds, events, messages, bits, informed), (algo, gseed)) in
        ASYNC_GOLDEN.iter().zip(async_grid())
    {
        assert_eq!((name, seed), (algo.name(), gseed), "grid drift");
        let got = async_digest(algo, AsyncConfig::default(), seed);
        assert_eq!(
            got,
            (name, seed, rounds, events, messages, bits, informed),
            "{name} at seed {seed} drifted from its async golden digest"
        );
    }
}

/// One pinned async grid point under a sampled latency: (algorithm,
/// profile, seed, rounds, events processed, messages, bits, informed) at
/// `n = 256`, the profile being an `--engine async:<profile>` name.
type LatencyGolden = (&'static str, &'static str, u64, u64, u64, u64, u64, usize);

/// Pinned digests for every registered algorithm under the two sampled
/// latency profiles, `async:uniform` and `async:exp`, at `n = 256, seed ∈
/// {1, 7}`. `ASYNC_GOLDEN` pins fixed latency, where messages land in the
/// order they are sent; here arrivals overtake each other, so these rows
/// pin the in-flight queue's ordering itself.
#[rustfmt::skip]
const LATENCY_GOLDEN: &[LatencyGolden] = &[
    // (algo, profile, seed, rounds, events, messages, bits, informed)
    ("Cluster2", "uniform", 1, 75, 26451, 7251, 376952, 256),
    ("Cluster2", "uniform", 7, 75, 26023, 6823, 358588, 256),
    ("Cluster2", "exp", 1, 75, 27428, 8228, 419986, 256),
    ("Cluster2", "exp", 7, 75, 26783, 7583, 391996, 256),
    ("Cluster1", "uniform", 1, 49, 24282, 11738, 587639, 256),
    ("Cluster1", "uniform", 7, 49, 23710, 11166, 560159, 256),
    ("Cluster1", "exp", 1, 49, 24282, 11738, 587639, 256),
    ("Cluster1", "exp", 7, 49, 23710, 11166, 560159, 256),
    ("AvinElsasser", "uniform", 1, 52, 18282, 4970, 797955, 256),
    ("AvinElsasser", "uniform", 7, 52, 18249, 4937, 815151, 256),
    ("AvinElsasser", "exp", 1, 52, 18259, 4947, 811059, 256),
    ("AvinElsasser", "exp", 7, 52, 18247, 4935, 814831, 256),
    ("Karp", "uniform", 1, 26, 9398, 2742, 583968, 256),
    ("Karp", "uniform", 7, 26, 9378, 2722, 549344, 256),
    ("Karp", "exp", 1, 26, 9393, 2737, 573728, 256),
    ("Karp", "exp", 7, 26, 9390, 2734, 639008, 256),
    ("PushPull", "uniform", 1, 6, 3254, 1718, 256288, 256),
    ("PushPull", "uniform", 7, 6, 3234, 1698, 221664, 256),
    ("PushPull", "exp", 1, 7, 3761, 1969, 327968, 256),
    ("PushPull", "exp", 7, 5, 2734, 1454, 229408, 256),
    ("Push", "uniform", 1, 12, 4433, 1361, 435520, 256),
    ("Push", "uniform", 7, 11, 4069, 1253, 400960, 256),
    ("Push", "exp", 1, 12, 4516, 1444, 462080, 256),
    ("Push", "exp", 7, 11, 4060, 1244, 398080, 256),
    ("Pull", "uniform", 1, 10, 4549, 1989, 137088, 256),
    ("Pull", "uniform", 7, 10, 4525, 1965, 136320, 256),
    ("Pull", "exp", 1, 9, 3930, 1626, 125472, 256),
    ("Pull", "exp", 7, 11, 4892, 2076, 139872, 256),
    ("Cluster3", "uniform", 1, 108, 40537, 12889, 649062, 256),
    ("Cluster3", "uniform", 7, 108, 40839, 13191, 665251, 256),
    ("Cluster3", "exp", 1, 108, 40702, 13054, 656819, 256),
    ("Cluster3", "exp", 7, 108, 40707, 13059, 659372, 256),
    ("ClusterPushPull", "uniform", 1, 156, 56073, 16137, 1340518, 256),
    ("ClusterPushPull", "uniform", 7, 156, 56400, 16464, 1367747, 256),
    ("ClusterPushPull", "exp", 1, 156, 56194, 16258, 1356083, 256),
    ("ClusterPushPull", "exp", 7, 156, 56240, 16304, 1368652, 256),
    ("Tree", "uniform", 1, 2, 1022, 510, 89760, 256),
    ("Tree", "uniform", 7, 2, 1022, 510, 89760, 256),
    ("Tree", "exp", 1, 2, 1022, 510, 89760, 256),
    ("Tree", "exp", 7, 2, 1022, 510, 89760, 256),
    ("NameDropper", "uniform", 1, 24, 12288, 6144, 11412496, 256),
    ("NameDropper", "uniform", 7, 25, 12800, 6400, 12498192, 256),
    ("NameDropper", "exp", 1, 21, 10752, 5376, 9253728, 256),
    ("NameDropper", "exp", 7, 25, 12800, 6400, 12839152, 256),
];

fn latency_grid() -> Vec<(&'static dyn Algorithm, &'static str, u64)> {
    let mut g = Vec::new();
    for &algo in registry::all() {
        for profile in ["uniform", "exp"] {
            for seed in [1u64, 7] {
                g.push((algo, profile, seed));
            }
        }
    }
    g
}

fn latency_digest(algo: &dyn Algorithm, profile: &'static str, seed: u64) -> LatencyGolden {
    let cfg = Engine::profile(profile).expect("a catalog latency profile");
    let (name, seed, rounds, events, messages, bits, informed) = async_digest(algo, cfg, seed);
    (
        name, profile, seed, rounds, events, messages, bits, informed,
    )
}

#[test]
fn sampled_latency_run_reports_match_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("// latency grid:");
        for (algo, profile, seed) in latency_grid() {
            let (name, profile, seed, rounds, events, messages, bits, informed) =
                latency_digest(algo, profile, seed);
            println!(
                "    (\"{name}\", \"{profile}\", {seed}, {rounds}, {events}, {messages}, {bits}, \
                 {informed}),"
            );
        }
        return;
    }
    assert_eq!(
        LATENCY_GOLDEN.len(),
        latency_grid().len(),
        "latency golden table out of sync with the registry grid; regenerate with GOLDEN_REGEN=1"
    );
    for (&row, (algo, profile, seed)) in LATENCY_GOLDEN.iter().zip(latency_grid()) {
        assert_eq!(
            (row.0, row.1, row.2),
            (algo.name(), profile, seed),
            "grid drift"
        );
        assert_eq!(
            latency_digest(algo, profile, seed),
            row,
            "{} under async:{profile} at seed {seed} drifted from its latency golden digest",
            row.0
        );
    }
}

fn topology_grid() -> Vec<(
    &'static dyn Algorithm,
    &'static str,
    Topology,
    DirectAddressing,
)> {
    let mut g = Vec::new();
    for &algo in registry::all() {
        for (name, topo, mode) in topology_grid_points() {
            g.push((algo, name, topo, mode));
        }
    }
    g
}

fn topology_digest(
    algo: &dyn Algorithm,
    scenario_name: &'static str,
    topo: Topology,
    mode: DirectAddressing,
) -> TopoGolden {
    let r = algo.run(
        &Scenario::broadcast(256)
            .seed(1)
            .topology(topo)
            .addressing(mode),
    );
    (
        algo.name(),
        scenario_name,
        r.rounds,
        r.messages,
        r.bits,
        r.informed,
    )
}

#[test]
fn topology_run_reports_match_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("// topology grid:");
        for (algo, name, topo, mode) in topology_grid() {
            let (algo, name, rounds, messages, bits, informed) =
                topology_digest(algo, name, topo, mode);
            println!("    (\"{algo}\", \"{name}\", {rounds}, {messages}, {bits}, {informed}),");
        }
        return;
    }
    assert_eq!(
        TOPOLOGY_GOLDEN.len(),
        topology_grid().len(),
        "topology golden table out of sync with the registry grid; regenerate with GOLDEN_REGEN=1"
    );
    for (&(name, scenario, rounds, messages, bits, informed), (algo, gname, topo, mode)) in
        TOPOLOGY_GOLDEN.iter().zip(topology_grid())
    {
        assert_eq!((name, scenario), (algo.name(), gname), "grid drift");
        let got = topology_digest(algo, gname, topo, mode);
        assert_eq!(
            got,
            (name, scenario, rounds, messages, bits, informed),
            "{name} at {scenario} drifted from its topology golden digest"
        );
    }
}

fn churn_grid() -> Vec<(&'static dyn Algorithm, usize, u64)> {
    let mut g = Vec::new();
    for &algo in registry::all() {
        for seed in [1u64, 7] {
            g.push((algo, 256, seed));
        }
    }
    g
}

fn churn_digest(algo: &dyn Algorithm, n: usize, seed: u64) -> Golden {
    let r = algo.run(&Scenario::broadcast(n).seed(seed).churn(canonical_churn()));
    (
        algo.name(),
        n,
        seed,
        r.rounds,
        r.messages,
        r.bits,
        r.informed,
    )
}

#[test]
fn churn_run_reports_match_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("// churn grid:");
        for (algo, n, seed) in churn_grid() {
            let (name, n, seed, rounds, messages, bits, informed) = churn_digest(algo, n, seed);
            println!("    (\"{name}\", {n}, {seed}, {rounds}, {messages}, {bits}, {informed}),");
        }
        return;
    }
    assert_eq!(
        CHURN_GOLDEN.len(),
        churn_grid().len(),
        "churn golden table out of sync with the registry grid; regenerate with GOLDEN_REGEN=1"
    );
    for (&(name, n, seed, rounds, messages, bits, informed), (algo, gn, gseed)) in
        CHURN_GOLDEN.iter().zip(churn_grid())
    {
        assert_eq!((name, n, seed), (algo.name(), gn, gseed), "grid drift");
        let got = churn_digest(algo, n, seed);
        assert_eq!(
            got,
            (name, n, seed, rounds, messages, bits, informed),
            "{name} at (n={n}, seed={seed}) drifted from its churn golden digest"
        );
    }
}

fn grid() -> Vec<(&'static dyn Algorithm, usize, u64)> {
    let mut g = Vec::new();
    for &algo in registry::all() {
        for n in [64usize, 256, 1024] {
            for seed in [1u64, 7] {
                g.push((algo, n, seed));
            }
        }
    }
    g
}

fn digest(algo: &dyn Algorithm, n: usize, seed: u64) -> Golden {
    let r = algo.run(&Scenario::broadcast(n).seed(seed));
    (
        algo.name(),
        n,
        seed,
        r.rounds,
        r.messages,
        r.bits,
        r.informed,
    )
}

#[test]
fn run_reports_match_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        for (algo, n, seed) in grid() {
            let (name, n, seed, rounds, messages, bits, informed) = digest(algo, n, seed);
            println!("    (\"{name}\", {n}, {seed}, {rounds}, {messages}, {bits}, {informed}),");
        }
        return;
    }
    assert_eq!(
        GOLDEN.len(),
        grid().len(),
        "golden table out of sync with the registry grid; regenerate with GOLDEN_REGEN=1"
    );
    for (&(name, n, seed, rounds, messages, bits, informed), (algo, gn, gseed)) in
        GOLDEN.iter().zip(grid())
    {
        assert_eq!((name, n, seed), (algo.name(), gn, gseed), "grid drift");
        let got = digest(algo, n, seed);
        assert_eq!(
            got,
            (name, n, seed, rounds, messages, bits, informed),
            "{name} at (n={n}, seed={seed}) drifted from its golden digest"
        );
    }
}

#[test]
fn golden_runs_all_succeed() {
    // The digests above must describe *successful* runs (broadcast
    // complete, clustering complete, discovery closed); a pinned failure
    // would silently weaken every other experiment.
    for (algo, n, seed) in grid() {
        let r = algo.run(&Scenario::broadcast(n).seed(seed));
        assert!(
            r.success,
            "{} failed at (n={n}, seed={seed}): {}/{}",
            algo.name(),
            r.informed,
            r.alive
        );
    }
}
