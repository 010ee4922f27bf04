//! **E10 — dynamic churn & burst loss** (extension; the dynamic
//! adversary of `phonecall::churn`).
//!
//! E7 reproduces the paper's *oblivious time-0* crash model and E9 its
//! iid-loss extension; this experiment sweeps the axes both leave out:
//! **mid-run** correlated crash batches, probabilistic **recovery** of
//! crashed nodes (state intact — a disconnection, not a reset), and
//! Gilbert–Elliott **burst loss** that modulates the loss knob per
//! round. The profile grid crosses crash-rate × recovery-rate ×
//! burst-loss; every algorithm faces the identical seed-derived
//! crash/recovery/burst history per trial.
//!
//! Observed shapes (recorded in EXPERIMENTS.md): the observer-stopped
//! baselines (PUSH, PULL, PUSH-PULL) buy full coverage with extra
//! rounds. Among the self-terminating protocols the split is sharp:
//! Karp's age counters close its schedule early, stranding nodes that
//! recover in its final rounds, while **ClusterPUSH-PULL** — broadcast
//! over a `Δ`-clustering by repeated pulls — completes every profile at
//! an unchanged round budget. Cluster1/Cluster2 are the fragile ones:
//! their backbone coordination (merge targets, follow pointers) can be
//! corrupted by a single unluckily timed leader crash, so mid-run churn
//! is exactly where their time-0 guarantee (Theorem 19) stops applying.

#![forbid(unsafe_code)]

use gossip_bench::{algos_by_name, coverage, coverage_rounds, pow2, Experiment, Spec};
use gossip_core::algo::Scenario;
use phonecall::ChurnConfig;

/// The churn profiles: named points on the crash-rate × recovery-rate ×
/// burst-loss grid. `n` scales the batch so the adversary's punch stays
/// proportional to the network.
fn profiles(n: usize) -> Vec<(&'static str, ChurnConfig)> {
    let batch = (n / 64).max(4) as u32;
    let base = ChurnConfig {
        // The rumor source is protected: coverage under churn should
        // measure dissemination, not the trivial loss of the only copy.
        protected: vec![0],
        ..ChurnConfig::default()
    };
    // Crash-only: an early outage nobody comes back from (the crashed
    // stay dead, so they leave the coverage denominator).
    let crash = ChurnConfig {
        crash_rate: 1.0,
        batch_size: batch,
        start_round: 1,
        stop_round: Some(13),
        ..base.clone()
    };
    // Crash + recovery: a rolling outage across the first ~30 rounds;
    // recovered nodes re-enter with state intact and must be re-swept.
    let churn = ChurnConfig {
        recovery_rate: 0.15,
        stop_round: Some(30),
        ..crash.clone()
    };
    // Burst loss only: Gilbert–Elliott bad states averaging ~3 rounds,
    // 50% loss while bad, ~30% of rounds bad in steady state.
    let burst = ChurnConfig {
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        ..base.clone()
    };
    // Everything at once.
    let storm = ChurnConfig {
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        ..churn.clone()
    };
    vec![
        ("none", base),
        ("crash", crash),
        ("churn", churn),
        ("burst", burst),
        ("storm", storm),
    ]
}

fn main() {
    let mut ex = Experiment::start(Spec {
        name: "e10",
        default: (vec![1 << 11], 6),
        full: (vec![1 << 13], 12),
        // --huge scales trials down with n (to 1 at n = 2^20).
        huge: Some((vec![1 << 20], 6)),
        // The broadcast field: the headline comparison seven plus the
        // clustered algorithm that actually survives churn (Algorithm 3).
        algos: algos_by_name(&[
            "Cluster2",
            "Cluster1",
            "ClusterPushPull",
            "AvinElsasser",
            "Karp",
            "PushPull",
            "Push",
            "Pull",
        ]),
        // Headline metrics contrast the robust clustered algorithm with
        // the counter-terminated baseline under the storm profile — or
        // track the selected algorithm under --algo.
        head: Some("ClusterPushPull"),
        ..Spec::default()
    });
    let n = ex.sizes[0];
    let trials = ex.trials_at(n);
    let profiles = profiles(n);
    let rows = ex.sweep(
        0xE10,
        &profiles,
        |algo, (profile_name, _)| (format!("{}{profile_name}", algo.name()), trials),
        |algo, (_, churn), seed| {
            let scenario = ex.scenario(Scenario::broadcast(n).churn(churn.clone()));
            coverage(&algo.run(&scenario.seed(seed)))
        },
        coverage_rounds,
    );
    let cols: Vec<String> = profiles
        .iter()
        .map(|(name, _)| (*name).to_string())
        .collect();
    ex.emit_pair(
        format!(
            "E10: informed fraction of survivors under dynamic churn (n = {})",
            pow2(n)
        ),
        "E10b: rounds used (observer-stopped baselines stretch; schedules don't)",
        &cols,
        &rows,
    );
    let storm = profiles.iter().position(|(name, _)| *name == "storm");
    let storm = storm.expect("storm is a profile");
    let (cov, rounds) = ex.head_row(&rows)[storm];
    ex.metric("trials_per_cell", f64::from(trials));
    ex.head_metric("coverage_storm", cov);
    ex.head_metric("mean_rounds_storm", rounds);
    if ex.head != "Karp" {
        if let Some(karp) = ex.row(&rows, "Karp") {
            ex.metric("karp_coverage_storm", karp[storm].0);
        }
    }
    ex.finish(Some(
        "Reading: the observer-stopped baselines (Push/Pull/PushPull) trade\n\
         rounds for coverage — they keep running until every recovered node\n\
         is re-informed. The self-terminating protocols cannot. Karp's age\n\
         counters close its schedule early and strand late recoveries;\n\
         ClusterPushPull's repeated pulls over the delta-clustering complete\n\
         every profile at an unchanged round budget; Cluster1/Cluster2's\n\
         backbone coordination is the fragile piece — an unluckily timed\n\
         leader crash mid-merge can corrupt the whole run, which is exactly\n\
         why the paper's fault guarantee (Theorem 19) is stated for the\n\
         time-0 adversary only.",
    ));
}
