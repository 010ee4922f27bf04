//! Section 7 in action: broadcasting when no node may answer more than
//! `Δ` requests per round (think: NIC queue limits, SYN-flood guards,
//! per-connection quotas).
//!
//! We build a `Δ`-clustering with `Cluster3` and broadcast over it with
//! `ClusterPUSH-PULL`, sweeping `Δ` to trace the Lemma 16 trade-off curve
//! `rounds ≈ log n / log Δ`.
//!
//! ```text
//! cargo run --example bounded_fanout
//! ```

use optimal_gossip::core::config::log2n;
use optimal_gossip::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::arg_n;

fn main() {
    let n = arg_n(1 << 13);
    println!("Broadcast to {n} nodes with bounded per-round fan-in\n");
    println!(
        "{:<8} {:>22} {:>12} {:>12} {:>10}",
        "delta", "bound log n/log delta'", "loop iters", "max fan-in", "success"
    );

    // Algorithm 3 from the registry; `Δ` rides in as a JSON parameter
    // override (the same hook the `--algo` CLI uses).
    let push_pull = registry::by_name("cluster-push-pull").unwrap();
    let scenario = Scenario::broadcast(n).seed(7);
    for delta in [16usize, 64, 256, 1024].into_iter().filter(|d| *d <= n) {
        let overrides = Value::parse(&format!(r#"{{"delta": {delta}}}"#)).unwrap();
        let report = push_pull.run_with_params(&scenario, &overrides).unwrap();
        assert!(report.max_fan_in <= delta as u64, "fan-in bound violated");
        let working = delta as f64 / PushPullConfig::default().cluster3.c_headroom;
        let bound = log2n(n) / (working / 2.0).log2().max(1.0);
        let loop_iters = report.phase_rounds(cluster_push_pull::LOOP_PHASE) as f64 / 4.0;
        println!(
            "{:<8} {:>22.1} {:>12.0} {:>12} {:>10}",
            delta, bound, loop_iters, report.max_fan_in, report.success
        );
    }

    println!(
        "\nReading: quadrupling delta roughly halves the broadcast loop —\n\
         the log n / log delta trade-off of Lemma 16 — while the observed\n\
         fan-in always stays below the configured delta. With delta = n the\n\
         curve bottoms out at the Theta(log log n) of Cluster2 (Theorem 3)."
    );
}
