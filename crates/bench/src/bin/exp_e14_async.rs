//! **E14 — asynchrony** (extension; the event-driven engine of
//! `phonecall::events`).
//!
//! Every experiment so far runs the paper's synchronous rounds: all
//! nodes act in lockstep, all messages arrive instantly. E14 re-runs
//! the registry under the **asynchronous engine** — per-node
//! exponential activation clocks and a configurable message-latency
//! distribution, processed as one deterministic timestamp-ordered event
//! queue — and asks which of the paper's findings survive the loss of
//! lockstep.
//!
//! The grid crosses the algorithm registry with four engine schedules:
//! synchronous, and asynchronous under fixed / uniform / exponential
//! latency. Per cell it measures schedule steps to completion, elapsed
//! continuous virtual time, and messages per node; a second table probes
//! E11's **restricted-addressing collapse** (sparse graphs defeat the
//! clustered protocols when unknown addresses cannot be dialed) under
//! the same schedules.
//!
//! Observed shapes (recorded in EXPERIMENTS.md): the round/step counts
//! — and with them the `Θ(log log n)` vs `Θ(log n)` separation — are
//! engine-invariant for the bounded-schedule protocols, because a
//! schedule step drains its whole event cascade before the next begins;
//! what asynchrony adds is a *virtual-time tax* per step (the `ln n / λ`
//! straggler wait plus the latency tail) and, for the observer-stopped
//! baselines, a small extra message cost from pulls answered mid-cascade
//! with fresher state. The restricted collapse is schedule-independent:
//! it is a property of the contact graph, not of timing.

#![forbid(unsafe_code)]

use gossip_baselines::registry;
use gossip_bench::{pow2, Experiment, Options, Spec};
use gossip_core::algo::Scenario;
use gossip_harness::{par_map_trials, Table};
use phonecall::{DirectAddressing, Engine, Topology};

/// The engine schedules of the grid, by catalog spec.
fn engines(opts: &Options) -> Vec<(String, Engine)> {
    match &opts.engine {
        // --engine restricts the grid to the one requested schedule
        // (mirrors what --topo does to E11's topology grid).
        Some(e) => vec![(e.spec(), e.clone())],
        None => Engine::catalog()
            .into_iter()
            .map(|&(spec, _)| {
                let e = Engine::parse_spec(spec).expect("catalog specs parse");
                (e.spec(), e)
            })
            .collect(),
    }
}

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e14",
        default: (vec![1 << 10], 5),
        full: (vec![1 << 12], 10),
        huge: Some((vec![1 << 20], 5)),
        // The whole registry: the acceptance bar for the async engine is
        // that every algorithm runs unmodified through the Algorithm trait.
        // Headline metrics contrast Cluster2 across engines — or track
        // the selected algorithm under --algo.
        algos: registry::all().to_vec(),
        ..Spec::default()
    });
    let n = ex.sizes[0];
    let trials = ex.trials_at(n);
    let engines = engines(&ex.opts);
    let t = f64::from(trials);
    // Per cell: mean steps, virtual time, messages per node and success
    // rate, each a sum ÷ trials.
    let rows = ex.sweep(
        0xE14,
        &engines,
        |algo, (spec, _)| (format!("{}/{spec}", algo.name()), trials),
        |algo, (_, engine), seed| {
            let r = algo.run(
                &ex.scenario(Scenario::broadcast(n).engine(engine.clone()))
                    .seed(seed),
            );
            // Sync has no clock: its virtual-time cells print a dash.
            let vt = engine.is_async().then_some(r.virtual_time);
            let ok = f64::from(u8::from(r.success));
            (r.rounds as f64, vt, r.messages_per_node(), ok)
        },
        |reps| {
            let rounds: f64 = reps.iter().map(|&(r, ..)| r).sum::<f64>() / t;
            let vt = reps.iter().map(|&(_, v, ..)| v).sum::<Option<f64>>();
            let msgs: f64 = reps.iter().map(|&(_, _, m, _)| m).sum::<f64>() / t;
            let ok: f64 = reps.iter().map(|&(.., s)| s).sum::<f64>() / t;
            (rounds, vt.map(|vt| vt / t), msgs, ok)
        },
    );

    let cols: Vec<String> = engines.iter().map(|(spec, _)| spec.clone()).collect();
    ex.emit_rows(
        format!("E14: schedule steps to completion (n = {})", pow2(n)),
        &cols,
        &rows,
        |&(rounds, _, _, ok)| {
            if ok < 1.0 {
                format!("{rounds:.1} ({:.0}% ok)", ok * 100.0)
            } else {
                format!("{rounds:.1}")
            }
        },
    );
    ex.emit_rows(
        "E14b: elapsed virtual time (asynchronous engines; sync has no clock)",
        &cols,
        &rows,
        |(_, vt, ..)| vt.map_or("—".to_string(), |vt| format!("{vt:.1}")),
    );
    ex.emit_rows("E14c: messages per node", &cols, &rows, |&(_, _, m, _)| {
        format!("{m:.2}")
    });

    let (mut rounds_sync, mut msgs_sync) = (f64::NAN, f64::NAN);
    let (mut rounds_async, mut vt_async, mut msgs_async) = (f64::NAN, f64::NAN, f64::NAN);
    for &(rounds, vt, msgs, _) in ex.head_row(&rows) {
        match vt {
            // Last async column wins; with the default grid that is
            // async:exponential, the heaviest latency tail.
            Some(vt) => (rounds_async, vt_async, msgs_async) = (rounds, vt, msgs),
            None => (rounds_sync, msgs_sync) = (rounds, msgs),
        }
    }

    // The E11 corner: does the restricted-addressing collapse survive
    // asynchrony? Sparse restricted graphs defeat the clustered
    // protocols under lockstep; the async engine changes timing, not
    // reachability, so the collapse must persist.
    let head_name = ex.head;
    let corner_algos: Vec<&str> = if ex.opts.algo.is_some() {
        vec![head_name]
    } else {
        vec!["Cluster2", "PushPull"]
    };
    let corner_n = n.min(1 << 10);
    let mut corner_tbl = Table::new(
        format!(
            "E14d: restricted-addressing coverage (n = {}, informed/alive)",
            pow2(corner_n)
        ),
        &["algorithm/topology", "sync", "async:fixed"],
    );
    let mut head_restricted_async = f64::NAN;
    for name in &corner_algos {
        let algo = registry::by_name(name).expect("corner algorithms are registered");
        for (tname, topo) in [
            ("ring", Topology::Ring),
            ("rr8", Topology::RandomRegular(8)),
        ] {
            let mut row = vec![format!("{name} on {tname}/restricted")];
            for engine in [
                Engine::Sync,
                Engine::Async(Engine::profile("fixed").expect("fixed profile exists")),
            ] {
                let is_async = engine.is_async();
                let scenario = Scenario::broadcast(corner_n)
                    .topology(topo.clone())
                    .addressing(DirectAddressing::Restricted)
                    .engine(engine);
                let label = format!("{name}/{tname}/restricted/async={is_async}");
                let reps = par_map_trials(0xE14, &label, trials, |seed| {
                    let r = algo.run(&scenario.clone().seed(seed));
                    r.informed as f64 / r.alive as f64
                });
                let cov: f64 = reps.iter().sum::<f64>() / t;
                if *name == head_name && tname == "rr8" && is_async {
                    head_restricted_async = cov;
                }
                row.push(format!("{cov:.4}"));
            }
            corner_tbl.push_row(row);
        }
    }
    ex.emit(&corner_tbl);
    ex.metric("trials_per_cell", t);
    ex.head_metric("rounds_sync", rounds_sync);
    ex.head_metric("rounds_async", rounds_async);
    ex.head_metric("virtual_time_async", vt_async);
    ex.head_metric("messages_per_node_sync", msgs_sync);
    ex.head_metric("messages_per_node_async", msgs_async);
    ex.head_metric("restricted_coverage_async", head_restricted_async);
    ex.finish(Some(
        "Reading: the step counts are engine-invariant for the\n\
         bounded-schedule protocols — each asynchronous step drains its\n\
         whole event cascade before the next begins, so the loglog-vs-log\n\
         separation of E1 survives asynchrony untouched. What the\n\
         asynchronous engine adds is a virtual-time tax per step (the\n\
         ln(n)/lambda straggler wait plus the latency tail — compare the\n\
         fixed and exponential columns) and slightly different message\n\
         counts where pulls are answered mid-cascade with fresher state\n\
         than the start-of-round snapshot. The restricted collapse of\n\
         E11 persists under every schedule: it is a property of the\n\
         contact graph, not of timing.",
    ));
}
