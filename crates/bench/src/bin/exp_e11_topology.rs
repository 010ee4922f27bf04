//! **E11 — restricted communication topologies** (extension; the
//! `phonecall::topology` subsystem).
//!
//! Every earlier experiment runs on the complete graph — the one setting
//! where address-oblivious gossip is already strong, so the only setting
//! where the paper's direct-addressing advantage can be measured at its
//! *smallest*. This experiment sweeps the contact graph itself: the
//! broadcast field runs on rings, tori, random-regular expanders,
//! `G(n,p)`, Watts–Strogatz small worlds and preferential-attachment
//! scale-free graphs, under both readings of direct addressing on a
//! restricted graph:
//!
//! * **overlay** — learned-ID calls cross the graph (the topology only
//!   shapes who you *meet* at random — an IP network);
//! * **restricted** — learned-ID calls are confined to edges (an
//!   address without a link is worthless).
//!
//! Observed shapes (recorded in EXPERIMENTS.md §E11): under *overlay*
//! the paper's advantage **survives sparsification wherever the graph
//! mixes** — on scale-free, `G(n,p)` and random-regular contact graphs
//! the clustered algorithms complete at their unchanged `Θ(log log n)`
//! schedules, still 5–10× ahead of flooding — and **collapses with the
//! diameter**: the torus strands them mid-backbone and the ring drops
//! their coverage to ~1%, while the observer-stopped baselines simply
//! stretch toward their round caps. Under *restricted* addressing the
//! clustered algorithms collapse on *every* sparse graph (< 1%
//! coverage): their merge/squaring coordination routes messages to
//! learned leader IDs, and an address without a link is worthless. The
//! address-oblivious baselines don't notice the mode at all — their
//! contacts were already edges — so the paper's gap *inverts*: on
//! restricted sparse graphs plain flooding dominates. Direct
//! addressing buys `log log n` exactly because the address space is
//! flat; confine it to edges and graph geometry rules again.

#![forbid(unsafe_code)]

use gossip_baselines::registry;
use gossip_bench::{pow2, Experiment, Grid, Spec};
use gossip_core::algo::Scenario;
use gossip_harness::Table;
use gossip_lowerbound::diameter;
use phonecall::dataset::hyperball;
use phonecall::Topology;

/// The topology grid: named points across the density spectrum, from
/// the complete base model down to the ring. `G(n,p)` keeps its
/// expected degree at `2 ln n` so instances stay connected whp at
/// every sweep size; families whose knobs do not fit `--n`
/// ([`Topology::check`]) are skipped with a note rather than panicking
/// mid-grid.
fn topologies(n: usize) -> Vec<(&'static str, Topology)> {
    let p = (2.0 * (n as f64).ln() / n as f64).min(1.0);
    let all = vec![
        ("complete", Topology::Complete),
        ("pref-attach:4", Topology::PreferentialAttachment(4)),
        ("erdos-renyi", Topology::ErdosRenyi(p)),
        ("random-reg:8", Topology::RandomRegular(8)),
        ("watts-strog:6", Topology::WattsStrogatz(6, 0.1)),
        ("torus2d", Topology::Torus2D),
        ("ring", Topology::Ring),
    ];
    all.into_iter()
        .filter(|(name, topo)| match topo.check(n) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("skipping {name}: {e}");
                false
            }
        })
        .collect()
}

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e11",
        default: (vec![1 << 10], 5),
        full: (vec![1 << 12], 10),
        // --huge scales trials down with n (to 1 at n = 2^20).
        huge: Some((vec![1 << 20], 5)),
        // The headline comparison seven: the paper's algorithms against
        // the address-oblivious baselines, on every graph.
        algos: registry::compared().to_vec(),
        ..Spec::default()
    });
    let n = ex.sizes[0];
    let trials = ex.trials_at(n);
    let topos = match &ex.opts.topo {
        Some(t) => vec![("selected", t.clone())],
        // At million-node scale the high-diameter families (ring, torus)
        // only re-tell the diameter-collapse story the --full grid
        // already records, at enormous wall cost: baselines burn their
        // full ~200-round cap at 2^20 contacts per round. The huge grid
        // keeps the mixing families where the loglog claim is at stake.
        None if ex.grid == Grid::Huge => topologies(n)
            .into_iter()
            .filter(|(name, _)| !matches!(*name, "ring" | "torus2d"))
            .collect(),
        None => topologies(n),
    };

    // Graph shapes first: one representative seeded instance per family
    // (each trial builds its own graph from its trial seed, so this row
    // characterizes the family's typical shape, not any one cell's
    // exact graph — the table header says so).
    let mut shape_tbl = Table::new(
        format!(
            "E11: contact-graph shapes (representative seeded instance, n = {})",
            pow2(n)
        ),
        &["topology", "edges", "max degree", "diameter"],
    );
    for (name, topo) in &topos {
        let row = match topo.build(n, 0xE11) {
            None => vec![
                (*name).to_string(),
                (n * (n - 1) / 2).to_string(),
                (n - 1).to_string(),
                "1".to_string(),
            ],
            Some(adj) => {
                // Past the exact-BFS scale the certified column switches
                // to the HyperBall estimator (`~d`, one-sided within 1):
                // repeated full BFS at n = 2^20 would dwarf the sweep.
                let diam = if n > diameter::EXACT_LIMIT {
                    format!("~{}", hyperball::estimate(&adj, 0xE11).diameter)
                } else {
                    match diameter::bounds(&adj, 4) {
                        None => "inf".to_string(),
                        Some(b) if b.is_exact() => b.lo.to_string(),
                        Some(b) => format!("{}..{}", b.lo, b.hi),
                    }
                };
                vec![
                    (*name).to_string(),
                    adj.edge_count().to_string(),
                    adj.max_degree().to_string(),
                    diam,
                ]
            }
        };
        shape_tbl.push_row(row);
    }

    ex.emit(&shape_tbl);
    ex.metric("trials_per_cell", f64::from(trials));

    // One (coverage, rounds) table pair per addressing mode. All compute
    // fans out through the deterministic runner; rows fold in seed
    // order, so stdout is byte-identical at every GOSSIP_THREADS.
    let cols: Vec<(&str, Scenario)> = topos
        .iter()
        .map(|(name, topo)| (*name, Scenario::broadcast(n).topology(topo.clone())))
        .collect();
    ex.addressing_pairs(
        0xE11,
        &cols,
        "E11: informed fraction of survivors",
        |name| {
            matches!(name, "complete" | "random-reg:8" | "ring")
                .then(|| name.replace([':', '-'], "_"))
        },
    );
    ex.finish(Some(
        "Reading: under overlay addressing the paper's advantage survives\n\
         sparsification wherever the contact graph mixes — on the\n\
         scale-free, G(n,p) and random-regular graphs the clustered\n\
         algorithms complete at their unchanged loglog schedules — and\n\
         collapses with the diameter (torus strands them mid-backbone,\n\
         the ring drops coverage to ~1%), while the observer-stopped\n\
         baselines just stretch toward their round caps. Under restricted\n\
         addressing the clustered algorithms collapse on every sparse\n\
         graph: their coordination routes to learned leader IDs, and an\n\
         address without a link is worthless — the oblivious baselines\n\
         don't notice the mode at all, so the gap inverts and flooding\n\
         dominates. Direct addressing buys loglog n exactly because the\n\
         address space is flat; confine it to edges and graph geometry\n\
         rules again.",
    ));
}
