//! Raw per-layer probes: each layer's public functions timed on their own,
//! beside the workloads.
//!
//! Calls that happen *inside* a trial and cannot be wrapped from outside
//! (`Topology::build`, `dataset::load`, `TrafficPlan::new`,
//! `AdversarySchedule::new`) are timed here by calling the same public
//! function with the same arguments. What no probe can see is the time
//! inside `Network::round`'s own phases; that needs the in-program `Probe`
//! of a later issue.
//!
//! No probe depends on the workload, so a traced suite measures the list
//! once, after its workloads. Inputs derive from the benchmark seed;
//! counts are exact for a given seed.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gossip_baselines::registry;
use gossip_core::algo::Scenario;
use gossip_core::ClusterSim;
use gossip_harness::{trial_seeds, Summary, Table};
use gossip_lowerbound::{bfs, graph, knowledge, theorem3};
use phonecall::dataset::{self, fixture, hyperball};
use phonecall::{
    derive_seed, rng_from_seed, Action, AdversarySchedule, BitSet, Delivery, DirectAddressing,
    Engine, Network, NodeIdx, Target, Topology, TrafficPlan,
};

use crate::alloc;
use crate::names::Metrics;
use crate::replica;
use crate::runner;
use crate::stats::{median, quantile};
use crate::workloads::{self, graph_families, Job, Workload};

/// Problem sizes. Real runs use [`Scale::FULL`]; the crate's own test
/// shrinks every size so the whole list runs in seconds, keeping the
/// metric names (which encode the full sizes) as they are.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Subtracted from every size exponent (floored at 2^6).
    pub shift: u32,
    /// Cap on the grid probes' cells and trials per cell.
    pub grid_cap: Option<(usize, u32)>,
}

impl Scale {
    /// The sizes the metric names state.
    pub const FULL: Scale = Scale {
        shift: 0,
        grid_cap: None,
    };

    fn n(self, exp: u32) -> usize {
        1 << exp.saturating_sub(self.shift).max(6)
    }

    fn cap(self, w: &mut Workload) {
        if let Some((cells, trials)) = self.grid_cap {
            w.cells.truncate(cells);
            for c in &mut w.cells {
                c.trials = c.trials.min(trials);
            }
        }
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median over `reps` calls of `f`'s host time in ms.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            ms(start)
        })
        .collect();
    median(&samples)
}

#[derive(Clone, Default)]
struct St {
    got: u64,
}

/// Every node pushes one word to a uniform target: exactly `n` contacts
/// resolved, loss-checked and delivered (`bench_round_engine`'s closure).
fn push_storm(net: &mut Network<St>) {
    net.round(
        |_ctx, _rng| Action::Push {
            to: Target::Random,
            msg: 0xFEEDu64,
        },
        |_s| None,
        |s, d| {
            if let Delivery::Push { msg, .. } = d {
                s.got = msg;
            }
        },
    );
}

/// A third push, a third pull, a third idle (`bench_round_engine`'s other
/// closure).
fn mixed_traffic(net: &mut Network<St>) {
    net.round(
        |ctx, _rng| match ctx.idx.0 % 3 {
            0 => Action::Push {
                to: Target::Random,
                msg: 1u64,
            },
            1 => Action::<u64>::Pull { to: Target::Random },
            _ => Action::Idle,
        },
        |s| Some(s.got),
        |s, d| match d {
            Delivery::Push { msg, .. } | Delivery::PullReply { msg, .. } => s.got = msg,
            Delivery::PulledBy(_) => {}
        },
    );
}

/// ns per node per round of `round` on `net`, after one warming round.
fn ns_per_node(net: &mut Network<St>, round: fn(&mut Network<St>)) -> f64 {
    round(net);
    // ~2^22 contacts per size: steady at 2^10, sub-second at 2^20.
    let iters = ((1usize << 22) / net.len()).clamp(4, 256);
    let start = Instant::now();
    for _ in 0..iters {
        round(net);
        black_box(net.metrics().rounds);
    }
    start.elapsed().as_nanos() as f64 / (iters as f64 * net.len() as f64)
}

struct Probes<'a> {
    m: &'a mut Metrics,
    scale: Scale,
    seed: u64,
    out: &'a Path,
}

impl Probes<'_> {
    /// A private seed per probe, so adding one never shifts another.
    fn seed(&self, label: &str) -> u64 {
        trial_seeds(self.seed, label, 1)[0]
    }

    fn network(&mut self) {
        let seed = self.seed("probe/network");
        let mut push = Vec::new();
        for exp in [10, 14, 17, 20] {
            let mut net: Network<St> = Network::new(self.scale.n(exp), seed);
            let ns = ns_per_node(&mut net, push_storm);
            self.m.put(
                &format!("phonecall.network.round.push_ns_per_contact.2p{exp}"),
                ns,
            );
            push.push(ns);
        }
        self.m
            .put("phonecall.network.round.scale_ratio", push[3] / push[0]);
        for exp in [14, 20] {
            let mut net: Network<St> = Network::new(self.scale.n(exp), seed);
            let ns = ns_per_node(&mut net, mixed_traffic);
            self.m.put(
                &format!("phonecall.network.round.mixed_ns_per_node.2p{exp}"),
                ns,
            );
        }
        for exp in [16, 19] {
            let n = self.scale.n(exp);
            let t = time_ms(3, || Network::<St>::new(n, seed));
            self.m.put(&format!("phonecall.network.new_ms.2p{exp}"), t);
        }

        let n = self.scale.n(14);
        let mut net: Network<St> = Network::new(n, seed);
        push_storm(&mut net);
        net.reserve_rounds(64);
        let before = alloc::snapshot().count;
        for _ in 0..64 {
            push_storm(&mut net);
        }
        self.m.put(
            "phonecall.network.round.allocs_steady",
            (alloc::snapshot().count - before) as f64,
        );

        let plain = ns_per_node(&mut net, push_storm);
        let mut lossy: Network<St> = Network::new(n, seed);
        lossy.set_message_loss(0.05);
        self.m.put(
            "phonecall.network.round.loss_overhead_ratio",
            ns_per_node(&mut lossy, push_storm) / plain,
        );

        // The same storm through `traffic_churn`'s knobs, one at a time
        // for the ratio and all at once for the exact counts.
        let scenario = workloads::choked_storm(n);
        let common = scenario.common();
        let mut loaded: Network<St> = Network::new(n, seed);
        loaded.set_traffic(
            common.traffic.clone(),
            common.rumor_bits,
            derive_seed(seed, 6),
        );
        self.m.put(
            "phonecall.traffic.round_overhead_ratio",
            ns_per_node(&mut loaded, push_storm) / plain,
        );
        let mut storm: Network<St> = Network::new(n, seed);
        storm.set_message_loss(common.message_loss);
        storm.set_churn(common.churn.clone(), derive_seed(seed, 4));
        storm.set_traffic(
            common.traffic.clone(),
            common.rumor_bits,
            derive_seed(seed, 6),
        );
        for _ in 0..40 {
            push_storm(&mut storm);
        }
        let counts = storm.metrics();
        self.m.put(
            "phonecall.traffic.rumor_payloads",
            counts.rumor_payloads as f64,
        );
        self.m
            .put("phonecall.traffic.budget_drops", counts.budget_drops as f64);
        self.m.put("phonecall.churn.crashes", counts.crashes as f64);

        let t = time_ms(5, || {
            TrafficPlan::new(common.traffic.clone(), n, common.rumor_bits, seed)
        });
        self.m.put("phonecall.traffic.plan_new_ms", t);
        let t = time_ms(5, || AdversarySchedule::new(common.churn.clone(), n, seed));
        self.m.put("phonecall.churn.new_ms", t);
        let mut schedule = AdversarySchedule::new(common.churn.clone(), n, seed);
        let mut alive = BitSet::new_set(n);
        let rounds = 256;
        let start = Instant::now();
        for round in 0..rounds {
            black_box(schedule.advance(round, &mut alive));
        }
        self.m.put(
            "phonecall.churn.advance_ns_per_round",
            start.elapsed().as_nanos() as f64 / rounds as f64,
        );
    }

    fn topology(&mut self) {
        let seed = self.seed("probe/topology");
        for (tag, topo) in graph_families() {
            for (exp, reps) in [(11, 5), (14, 3)] {
                let n = self.scale.n(exp);
                let t = time_ms(reps, || topo.build(n, seed));
                self.m
                    .put(&format!("phonecall.topology.build_ms.{tag}.2p{exp}"), t);
            }
        }

        let n = self.scale.n(14);
        let rr8 = Topology::RandomRegular(8);
        let adj = rr8.build(n, seed).expect("a materialized family");
        let alive = BitSet::new_set(n);
        let mut rng = rng_from_seed(seed);
        let passes = 16;
        let start = Instant::now();
        for _ in 0..passes {
            for v in 0..n as u32 {
                black_box(adj.sample_alive_neighbor(&mut rng, NodeIdx(v), &alive));
            }
        }
        self.m.put(
            "phonecall.topology.sample_neighbor_ns",
            start.elapsed().as_nanos() as f64 / (passes * n) as f64,
        );
        let mut net: Network<St> = Network::new(n, seed);
        net.set_topology(rr8, DirectAddressing::Overlay, derive_seed(seed, 5));
        self.m.put(
            "phonecall.topology.round.push_ns_per_contact.rr8_2p14",
            ns_per_node(&mut net, push_storm),
        );
    }

    /// `pa_2k` through the dataset pipeline. Leaves warm fixtures behind
    /// for [`Self::graph_grid`].
    fn dataset(&mut self) -> Result<(), String> {
        let seed = self.seed("probe/dataset");
        let dir = runner::fixtures_dir(self.out);
        fixture::write_all(&dir)?;
        let pa = &fixture::catalog()[0];
        let path = dir.join(pa.file_name);
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let t = time_ms(5, || dataset::parse_edge_list(&text));
        self.m.put("phonecall.dataset.parse_edge_list_ms", t);
        let cache = dataset::cache_path(&path);
        let mut cold = Vec::new();
        for _ in 0..3 {
            let _ = std::fs::remove_file(&cache);
            let start = Instant::now();
            black_box(dataset::load(&path)?);
            cold.push(ms(start));
        }
        self.m.put("phonecall.dataset.load_cold_ms", median(&cold));
        let t = time_ms(5, || dataset::load(&path));
        self.m.put("phonecall.dataset.load_warm_ms", t);
        let spec = path.to_string_lossy().into_owned();
        let t = time_ms(5, || Topology::FromFile(spec.clone()).build(pa.nodes, seed));
        self.m.put("phonecall.topology.build_ms.from_file", t);
        let adj = dataset::load(&path)?;
        let t = time_ms(3, || hyperball::estimate(&adj, seed));
        self.m.put("phonecall.dataset.hyperball_ms", t);
        Ok(())
    }

    fn events(&mut self) {
        let seed = self.seed("probe/events");
        let n = self.scale.n(14);
        let (mut events, mut nanos) = (0u64, 0u128);
        for profile in ["fixed", "uniform", "exp"] {
            let cfg = Engine::profile(profile).expect("a catalog latency profile");
            let mut net: Network<St> = Network::new(n, seed);
            net.set_engine(Engine::Async(cfg), seed);
            push_storm(&mut net);
            let before = net.events_processed();
            let start = Instant::now();
            for _ in 0..32 {
                push_storm(&mut net);
            }
            let spent = start.elapsed().as_nanos();
            let done = net.events_processed() - before;
            self.m.put(
                &format!("phonecall.events.ns_per_event.{profile}"),
                spent as f64 / done as f64,
            );
            events += done;
            nanos += spent;
        }
        self.m.put("phonecall.events.events", events as f64);
        self.m.put(
            "phonecall.events.events_per_s",
            events as f64 / (nanos as f64 * 1e-9),
        );

        let cluster2 = registry::by_name("Cluster2").expect("a registry name");
        let sync = Scenario::broadcast(n).seed(seed);
        let fixed = Engine::profile("fixed").expect("a catalog latency profile");
        let asynch = sync.clone().engine(Engine::Async(fixed));
        let sync_ms = time_ms(3, || cluster2.run(&sync));
        let async_ms = time_ms(1, || cluster2.run(&asynch));
        self.m.put("core.cluster2.async_run_ms", async_ms);
        self.m
            .put("phonecall.events.async_over_sync", async_ms / sync_ms);
    }

    fn core(&mut self) {
        let seed = self.seed("probe/core");
        let n16 = self.scale.n(16);
        for (layer, name) in [
            ("core.cluster1", "Cluster1"),
            ("core.cluster3", "Cluster3"),
            ("core.cluster_push_pull", "ClusterPushPull"),
            ("baselines.push", "Push"),
            ("baselines.pull", "Pull"),
            ("baselines.push_pull", "PushPull"),
            ("baselines.karp", "Karp"),
            ("baselines.avin_elsasser", "AvinElsasser"),
        ] {
            let algo = registry::by_name(name).expect("a registry name");
            let scenario = Scenario::broadcast(n16).seed(seed);
            let t = time_ms(1, || algo.run(&scenario));
            self.m.put(&format!("{layer}.run_ms.2p16"), t);
        }
        for (name, exp) in [("Tree", 12), ("NameDropper", 8), ("NameDropper", 10)] {
            let algo = registry::by_name(name).expect("a registry name");
            let scenario = Scenario::broadcast(self.scale.n(exp)).seed(seed);
            let layer = if name == "Tree" {
                "tree"
            } else {
                "name_dropper"
            };
            let t = time_ms(1, || algo.run(&scenario));
            self.m.put(&format!("baselines.{layer}.run_ms.2p{exp}"), t);
        }

        let scenario = Scenario::broadcast(self.scale.n(12)).seed(seed);
        let t = time_ms(5, || ClusterSim::new(scenario.n(), scenario.common()));
        self.m.put("core.sim.new_ms.2p12", t);

        // Cluster2 phase by phase at 2^16 and 2^19; the larger run also
        // gives bytes per node, from the counting allocator's live peak.
        for exp in [16, 19] {
            let scenario = Scenario::broadcast(self.scale.n(exp)).seed(seed);
            let origin = Instant::now();
            let mut parts = Vec::new();
            let (_, peak) = alloc::live_peak_during(|| {
                black_box(replica::run(&scenario, origin, &mut parts));
            });
            let total = ms(origin);
            self.m.put(&format!("core.cluster2.run_ms.2p{exp}"), total);
            for (name, start, end) in parts {
                let part_ms = (end - start) as f64 * 1e-6;
                if name == "core.sim.new" {
                    self.m.put(&format!("core.sim.new_ms.2p{exp}"), part_ms);
                } else if exp == 16 && name.starts_with("core.cluster2.phase.") {
                    self.m.put(&format!("{name}_ms"), part_ms);
                }
            }
            if exp == 19 {
                self.m.put(
                    "core.cluster2.bytes_per_node",
                    peak as f64 / scenario.n() as f64,
                );
            }
        }
    }

    fn lowerbound(&mut self) {
        let seed = self.seed("probe/lowerbound");
        let (n12, n16) = (self.scale.n(12), self.scale.n(16));
        let t = time_ms(5, || graph::sample_union_graph(n12, 3, seed));
        self.m.put("lowerbound.graph.sample_union_ms.2p12", t);
        let t = time_ms(3, || graph::sample_union_graph(n16, 4, seed));
        self.m.put("lowerbound.graph.sample_union_ms.2p16", t);
        self.m.put(
            "lowerbound.graph.edges.2p16",
            graph::sample_union_graph(n16, 4, seed).edge_count() as f64,
        );

        // One seed across T = 1…6 at 2^12: the borderline T = 3 cell
        // falls back to all-pairs BFS; the others decide at once.
        let row: Vec<f64> = (1..=6)
            .map(|t| time_ms(1, || theorem3::trial(n12, t, seed)))
            .collect();
        self.m.put("lowerbound.theorem3.trial_ms.2p12_t3", row[2]);
        self.m.put("lowerbound.theorem3.trial_ms.2p12_t6", row[5]);
        self.m.put(
            "lowerbound.theorem3.borderline_share",
            row[2] / row.iter().sum::<f64>(),
        );
        let t = time_ms(1, || theorem3::trial(n16, 4, seed));
        self.m.put("lowerbound.theorem3.trial_ms.2p16_t4", t);

        let g = graph::sample_union_graph(n12, 6, seed);
        let t = time_ms(9, || bfs::eccentricity(&g, 0));
        self.m.put("lowerbound.bfs.eccentricity_us.2p12", t * 1e3);
        let n10 = self.scale.n(10);
        let t = time_ms(3, || knowledge::rounds_to_complete(n10, seed, 30));
        self.m
            .put("lowerbound.knowledge.rounds_to_complete_ms.2p10", t);
    }

    /// `graph_contacts`' grid once, then `Topology::build` with each
    /// trial's own arguments beside it.
    fn graph_grid(&mut self) -> Result<(), String> {
        let mut w = runner::setup("graph_contacts", self.out)?;
        self.scale.cap(&mut w);
        let repeat = runner::run_repeat(&w, 1, self.seed, Some(Instant::now()));
        let mut build_ns = 0u128;
        for (cell, records) in w.cells.iter().zip(&repeat.trials) {
            let Job::Algo { scenario, .. } = &cell.job else {
                continue;
            };
            for r in records {
                // `ClusterSim::new` and the baselines' set-up hand the
                // topology stream label 5 of the trial seed.
                let start = Instant::now();
                black_box(
                    scenario
                        .common()
                        .topology
                        .build(scenario.n(), derive_seed(r.seed, 5)),
                );
                build_ns += start.elapsed().as_nanos();
            }
        }
        self.m.put(
            "phonecall.topology.build_share",
            build_ns as f64 / repeat.trial_ns().iter().sum::<f64>(),
        );
        Ok(())
    }

    /// `sweep_small`'s grid on one thread (trial by trial) and on two.
    fn sweep_grid(&mut self) -> Result<(), String> {
        let mut w = runner::setup("sweep_small", self.out)?;
        self.scale.cap(&mut w);
        let one = runner::run_repeat(&w, 1, self.seed, Some(Instant::now()));
        let two = runner::run_repeat(
            &w,
            workloads::SWEEP_THREADS,
            self.seed,
            Some(Instant::now()),
        );
        let spans = one.trial_ns();
        let total: f64 = spans.iter().sum();
        self.m.put(
            "harness.runner.speedup_2t",
            one.wall_ns as f64 / two.wall_ns as f64,
        );
        self.m.put(
            "harness.runner.overhead_us_per_trial",
            (one.wall_ns as f64 - total) * 1e-3 / spans.len() as f64,
        );
        let trial_ms: Vec<f64> = spans.iter().map(|ns| ns * 1e-6).collect();
        self.m.put("harness.trial_ms.p50", median(&trial_ms));
        self.m
            .put("harness.trial_ms.p99", quantile(&trial_ms, 0.99));
        let name_dropper: f64 = w
            .cells
            .iter()
            .zip(&one.trials)
            .filter(|(cell, _)| cell.job.layer() == "baselines.name_dropper.run")
            .flat_map(|(_, records)| records)
            .map(|r| (r.timing.end_ns - r.timing.start_ns) as f64)
            .sum();
        self.m
            .put("baselines.name_dropper.share", name_dropper / total);

        // The fold every `exp_eK` does per cell: summarize, then render.
        let t = time_ms(5, || {
            let mut table = Table::new("sweep", &["cell", "node-rounds", "msgs"]);
            for (cell, records) in w.cells.iter().zip(&one.trials) {
                let col = |f: fn(&runner::TrialRecord) -> u64| {
                    let xs: Vec<f64> = records.iter().map(|r| f(r) as f64).collect();
                    Summary::from_samples(&xs).display_mean_ci()
                };
                table.push_row(vec![
                    cell.label.clone(),
                    col(|r| r.node_rounds),
                    col(|r| r.msgs),
                ]);
            }
            table.to_markdown()
        });
        self.m.put("harness.stats.fold_ms", t);
        Ok(())
    }
}

/// Runs every raw probe, recording into `m`. `out` is where fixtures may
/// be written.
///
/// # Errors
///
/// Returns a message when a fixture cannot be written or loaded.
pub fn run_all(m: &mut Metrics, scale: Scale, seed: u64, out: &Path) -> Result<(), String> {
    let mut p = Probes {
        m,
        scale,
        seed,
        out,
    };
    p.network();
    p.topology();
    p.dataset()?;
    p.events();
    p.core();
    p.lowerbound();
    p.graph_grid()?;
    p.sweep_grid()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{OWN, PER_LAYER};

    #[test]
    fn every_probe_metric_is_measured_at_tiny_sizes() {
        let out =
            std::env::temp_dir().join(format!("gossip-benchmark-probes-{}", std::process::id()));
        let mut m = Metrics::default();
        let scale = Scale {
            shift: 6,
            grid_cap: Some((12, 2)),
        };
        run_all(&mut m, scale, 5, &out).unwrap();
        // The first `OWN` of PER_LAYER come from a workload's own repeats.
        for metric in m.in_order(&PER_LAYER[OWN..]) {
            assert!(
                metric.value.is_finite() && metric.value >= 0.0,
                "{metric:?}"
            );
        }
        std::fs::remove_dir_all(&out).unwrap();
    }
}
