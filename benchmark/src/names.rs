//! Every metric the benchmark reports: name, unit, direction.
//!
//! `../../BENCHMARK.json` lists exactly these (a test compares the two),
//! and later issues refer to the names verbatim. `README.md` says which
//! end-to-end metric each per-layer metric should move, on which
//! workload.

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// What a user of the simulator pays per grid; measured with tracing off.
///
/// `failed_frac` is reported beside these on every run but cannot sit in
/// `BENCHMARK.json`: it is 0 on a healthy tree, and the driver's bounds
/// are shares of a median. It travels as the result line's `failed` ÷
/// `attempted`, and any value above 0 makes the run incorrect.
pub const END_TO_END: [Def; 4] = [
    ("setup_s", "s", LOWER),
    ("wall_s", "s", LOWER),
    ("ns_per_node_round", "ns", LOWER),
    ("peak_rss_mb", "MB", LOWER),
];

/// How many leading entries of [`PER_LAYER`] a workload's own traced
/// repeats give; the raw probes, which no workload changes, give the rest.
pub const OWN: usize = 9;

/// Per-layer metrics of the traced run; layer = `crate.module`.
pub const PER_LAYER: [Def; 91] = [
    // every workload: exact counts of its own grid, and the trace itself
    ("sim.trials", "count", LOWER),
    ("sim.node_rounds", "count", LOWER),
    ("sim.msgs", "count", LOWER),
    ("alloc.count", "count", LOWER),
    ("alloc.bytes", "B", LOWER),
    ("trace.overhead_ratio", "ratio", LOWER),
    ("trace.accounted_share", "ratio", HIGHER),
    ("trace.trial_ms.p50", "ms", LOWER),
    ("trace.trial_ms.max", "ms", LOWER),
    // phonecall.network
    (
        "phonecall.network.round.push_ns_per_contact.2p10",
        "ns",
        LOWER,
    ),
    (
        "phonecall.network.round.push_ns_per_contact.2p14",
        "ns",
        LOWER,
    ),
    (
        "phonecall.network.round.push_ns_per_contact.2p17",
        "ns",
        LOWER,
    ),
    (
        "phonecall.network.round.push_ns_per_contact.2p20",
        "ns",
        LOWER,
    ),
    (
        "phonecall.network.round.mixed_ns_per_node.2p14",
        "ns",
        LOWER,
    ),
    (
        "phonecall.network.round.mixed_ns_per_node.2p20",
        "ns",
        LOWER,
    ),
    ("phonecall.network.round.scale_ratio", "ratio", LOWER),
    ("phonecall.network.new_ms.2p16", "ms", LOWER),
    ("phonecall.network.new_ms.2p19", "ms", LOWER),
    ("phonecall.network.round.allocs_steady", "count", LOWER),
    (
        "phonecall.network.round.loss_overhead_ratio",
        "ratio",
        LOWER,
    ),
    // phonecall.topology / phonecall.dataset
    ("phonecall.topology.build_ms.ring.2p11", "ms", LOWER),
    ("phonecall.topology.build_ms.ring.2p14", "ms", LOWER),
    ("phonecall.topology.build_ms.torus2d.2p11", "ms", LOWER),
    ("phonecall.topology.build_ms.torus2d.2p14", "ms", LOWER),
    (
        "phonecall.topology.build_ms.random_regular.2p11",
        "ms",
        LOWER,
    ),
    (
        "phonecall.topology.build_ms.random_regular.2p14",
        "ms",
        LOWER,
    ),
    (
        "phonecall.topology.build_ms.watts_strogatz.2p11",
        "ms",
        LOWER,
    ),
    (
        "phonecall.topology.build_ms.watts_strogatz.2p14",
        "ms",
        LOWER,
    ),
    ("phonecall.topology.build_ms.pref_attach.2p11", "ms", LOWER),
    ("phonecall.topology.build_ms.pref_attach.2p14", "ms", LOWER),
    ("phonecall.topology.build_ms.from_file", "ms", LOWER),
    ("phonecall.topology.build_share", "ratio", LOWER),
    ("phonecall.topology.sample_neighbor_ns", "ns", LOWER),
    (
        "phonecall.topology.round.push_ns_per_contact.rr8_2p14",
        "ns",
        LOWER,
    ),
    ("phonecall.dataset.parse_edge_list_ms", "ms", LOWER),
    ("phonecall.dataset.load_cold_ms", "ms", LOWER),
    ("phonecall.dataset.load_warm_ms", "ms", LOWER),
    ("phonecall.dataset.hyperball_ms", "ms", LOWER),
    // phonecall.events
    ("phonecall.events.ns_per_event.fixed", "ns", LOWER),
    ("phonecall.events.ns_per_event.uniform", "ns", LOWER),
    ("phonecall.events.ns_per_event.exp", "ns", LOWER),
    ("phonecall.events.events_per_s", "1/s", HIGHER),
    ("phonecall.events.async_over_sync", "ratio", LOWER),
    ("phonecall.events.events", "count", LOWER),
    // phonecall.churn / phonecall.traffic
    ("phonecall.churn.new_ms", "ms", LOWER),
    ("phonecall.churn.advance_ns_per_round", "ns", LOWER),
    ("phonecall.churn.crashes", "count", LOWER),
    ("phonecall.traffic.plan_new_ms", "ms", LOWER),
    ("phonecall.traffic.round_overhead_ratio", "ratio", LOWER),
    ("phonecall.traffic.rumor_payloads", "count", LOWER),
    ("phonecall.traffic.budget_drops", "count", LOWER),
    // core
    ("core.cluster1.run_ms.2p16", "ms", LOWER),
    ("core.cluster2.run_ms.2p16", "ms", LOWER),
    ("core.cluster2.run_ms.2p19", "ms", LOWER),
    ("core.cluster3.run_ms.2p16", "ms", LOWER),
    ("core.cluster_push_pull.run_ms.2p16", "ms", LOWER),
    ("core.sim.new_ms.2p12", "ms", LOWER),
    ("core.sim.new_ms.2p16", "ms", LOWER),
    ("core.sim.new_ms.2p19", "ms", LOWER),
    ("core.cluster2.phase.grow_initial_ms", "ms", LOWER),
    ("core.cluster2.phase.square_ms", "ms", LOWER),
    ("core.cluster2.phase.merge_all_ms", "ms", LOWER),
    ("core.cluster2.phase.bounded_push_ms", "ms", LOWER),
    ("core.cluster2.phase.unclustered_pull_ms", "ms", LOWER),
    ("core.cluster2.phase.consolidate_ms", "ms", LOWER),
    ("core.cluster2.phase.share_ms", "ms", LOWER),
    ("core.cluster2.async_run_ms", "ms", LOWER),
    ("core.cluster2.bytes_per_node", "B", LOWER),
    // baselines
    ("baselines.push.run_ms.2p16", "ms", LOWER),
    ("baselines.pull.run_ms.2p16", "ms", LOWER),
    ("baselines.push_pull.run_ms.2p16", "ms", LOWER),
    ("baselines.karp.run_ms.2p16", "ms", LOWER),
    ("baselines.avin_elsasser.run_ms.2p16", "ms", LOWER),
    ("baselines.tree.run_ms.2p12", "ms", LOWER),
    ("baselines.name_dropper.run_ms.2p8", "ms", LOWER),
    ("baselines.name_dropper.run_ms.2p10", "ms", LOWER),
    ("baselines.name_dropper.share", "ratio", LOWER),
    // harness
    ("harness.runner.speedup_2t", "ratio", HIGHER),
    ("harness.runner.overhead_us_per_trial", "us", LOWER),
    ("harness.stats.fold_ms", "ms", LOWER),
    ("harness.trial_ms.p50", "ms", LOWER),
    ("harness.trial_ms.p99", "ms", LOWER),
    // lowerbound
    ("lowerbound.graph.sample_union_ms.2p12", "ms", LOWER),
    ("lowerbound.graph.sample_union_ms.2p16", "ms", LOWER),
    ("lowerbound.theorem3.trial_ms.2p12_t3", "ms", LOWER),
    ("lowerbound.theorem3.trial_ms.2p12_t6", "ms", LOWER),
    ("lowerbound.theorem3.trial_ms.2p16_t4", "ms", LOWER),
    ("lowerbound.theorem3.borderline_share", "ratio", LOWER),
    ("lowerbound.bfs.eccentricity_us.2p12", "us", LOWER),
    (
        "lowerbound.knowledge.rounds_to_complete_ms.2p10",
        "ms",
        LOWER,
    ),
    ("lowerbound.graph.edges.2p16", "count", LOWER),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Collects metrics by name, looking units up in the tables above.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither table, or recorded twice — a
    /// benchmark bug, caught by the tiny-size test run.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in names.rs"))
            .1;
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name:?} recorded twice"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The recorded metrics, in the order of `table`; every entry of
    /// `table` must have been recorded.
    ///
    /// # Panics
    ///
    /// Panics naming the first metric of `table` that is missing.
    #[must_use]
    pub fn in_order(&self, table: &[Def]) -> Vec<Metric> {
        table
            .iter()
            .map(|(name, ..)| {
                self.0
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name:?} was never measured"))
                    .clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{items, Json};
    use crate::workloads;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.0)
            .chain(workloads::NAMES)
            .collect();
        for name in &all {
            assert!(valid(name), "{name:?}");
        }
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_these() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let doc = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<Def> {
            items(doc.get(key).unwrap())
                .iter()
                .map(|m| {
                    let field = |f: &str| -> &'static str {
                        Box::leak(
                            m.get(f)
                                .unwrap()
                                .as_str()
                                .unwrap()
                                .to_string()
                                .into_boxed_str(),
                        )
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
        for m in items(doc.get("end_to_end").unwrap()) {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        let names: Vec<&str> = items(doc.get("workloads").unwrap())
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
        for w in items(doc.get("workloads").unwrap()) {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            items(doc.get("paths").unwrap()),
            [Json::Str("benchmark".into())]
        );
    }

    #[test]
    fn metrics_reject_unknown_and_missing_names() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.5);
        assert!(std::panic::catch_unwind(|| Metrics::default().put("nope", 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| m.in_order(&END_TO_END)).is_err());
        assert_eq!(m.in_order(&END_TO_END[1..2])[0].unit, "s");
    }
}
