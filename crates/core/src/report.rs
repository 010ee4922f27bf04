//! Run reports: what an algorithm run cost and whether it succeeded.

use phonecall::{Network, RumorStatus};
use serde::Serialize;

/// Cost of one named phase of an algorithm.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct PhaseReport {
    /// Phase name (e.g. [`crate::sim::GROW_INITIAL_CLUSTERS`]).
    pub name: &'static str,
    /// Rounds spent in the phase.
    pub rounds: u64,
    /// Messages sent during the phase.
    pub messages: u64,
    /// Bits sent during the phase.
    pub bits: u64,
}

/// Snapshot statistics of a clustering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct ClusteringStats {
    /// Number of clusters.
    pub clusters: usize,
    /// Alive clustered nodes.
    pub clustered: usize,
    /// Alive unclustered nodes.
    pub unclustered: usize,
    /// Smallest cluster size (0 when there are no clusters).
    pub min_size: usize,
    /// Largest cluster size.
    pub max_size: usize,
    /// Mean cluster size.
    pub mean_size: f64,
}

/// Full report of one algorithm run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RunReport {
    /// Network size.
    pub n: usize,
    /// Alive nodes (after time-0 failures).
    pub alive: usize,
    /// Rounds used. Under the asynchronous engine this counts *schedule
    /// steps*, not elapsed time — see [`Self::virtual_time`].
    pub rounds: u64,
    /// Elapsed continuous virtual time under the asynchronous engine
    /// (the timestamp of the last processed event); `0.0` under the
    /// synchronous engine, where `rounds` is the only clock.
    pub virtual_time: f64,
    /// Events (activations + message arrivals) processed by the
    /// asynchronous engine, dead nodes' activations included (every
    /// node's clock fires once per step); `0` under the synchronous
    /// engine.
    pub events_processed: u64,
    /// Total messages.
    pub messages: u64,
    /// Payload-bearing messages (rumor transmissions + ID-carrying
    /// messages; excludes header-only pull requests).
    pub payload_messages: u64,
    /// Total bits.
    pub bits: u64,
    /// Maximum per-round per-node communications (the `Δ` of Section 7).
    pub max_fan_in: u64,
    /// Largest single message in bits (Section 3.2 footnote: `Θ(log n)`
    /// except rumor shares and resize announcements).
    pub max_message_bits: u64,
    /// Alive nodes that know the rumor at the end.
    pub informed: usize,
    /// Whether every alive node was informed.
    pub success: bool,
    /// Final clustering snapshot.
    pub clustering: ClusteringStats,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
    /// Per-rumor status of the multi-rumor workload, in arrival order
    /// (empty for the paper's single-rumor task).
    pub rumors: Vec<RumorStatus>,
    /// Workload rumor payloads piggybacked on delivered messages.
    pub rumor_payloads: u64,
    /// Workload transfers suppressed by the per-node bandwidth budget.
    pub budget_drops: u64,
}

impl RunReport {
    /// The report of a finished run on `net`: sizes, clocks and every
    /// cost counter read off the network, `informed`/`success` as judged
    /// by the task, no clustering and no phases.
    #[must_use]
    pub fn of<S>(net: &Network<S>, informed: usize, success: bool) -> Self {
        let m = net.metrics();
        RunReport {
            n: net.len(),
            alive: net.alive_count(),
            rounds: m.rounds,
            virtual_time: net.virtual_time(),
            events_processed: net.events_processed(),
            messages: m.messages,
            payload_messages: m.payload_messages,
            bits: m.bits,
            max_fan_in: m.max_fan_in,
            max_message_bits: m.max_message_bits,
            informed,
            success,
            clustering: ClusteringStats::default(),
            phases: Vec::new(),
            rumors: net.traffic_summary(),
            rumor_payloads: m.rumor_payloads,
            budget_drops: m.budget_drops,
        }
    }

    /// Average messages per node — the paper's message-complexity measure.
    #[must_use]
    pub fn messages_per_node(&self) -> f64 {
        self.messages as f64 / self.n as f64
    }

    /// Average payload-bearing messages per node.
    #[must_use]
    pub fn payload_messages_per_node(&self) -> f64 {
        self.payload_messages as f64 / self.n as f64
    }

    /// Total bits divided by `n`.
    #[must_use]
    pub fn bits_per_node(&self) -> f64 {
        self.bits as f64 / self.n as f64
    }

    /// Rounds of the first phase recorded as `name` (0 if none was).
    #[must_use]
    pub fn phase_rounds(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.rounds)
    }

    /// Alive nodes left uninformed.
    #[must_use]
    pub fn uninformed(&self) -> usize {
        self.alive - self.informed
    }

    /// Workload rumors that reached every alive node.
    #[must_use]
    pub fn rumors_completed(&self) -> usize {
        self.rumors.iter().filter(|r| r.completed.is_some()).count()
    }

    /// Latencies (arrival → completion, inclusive) of the completed
    /// workload rumors, in arrival order.
    #[must_use]
    pub fn rumor_latencies(&self) -> Vec<u64> {
        self.rumors
            .iter()
            .filter_map(RumorStatus::latency)
            .collect()
    }

    /// Workload throughput in rumors completed per round (0 for a
    /// zero-round or workload-free run).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.rumors_completed() as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            n: 100,
            alive: 90,
            rounds: 12,
            virtual_time: 0.0,
            events_processed: 0,
            messages: 500,
            payload_messages: 300,
            bits: 10_000,
            max_fan_in: 30,
            max_message_bits: 99,
            informed: 88,
            success: false,
            clustering: ClusteringStats::default(),
            phases: vec![],
            rumors: vec![],
            rumor_payloads: 0,
            budget_drops: 0,
        }
    }

    #[test]
    fn per_node_measures() {
        let r = report();
        assert!((r.messages_per_node() - 5.0).abs() < 1e-12);
        assert!((r.payload_messages_per_node() - 3.0).abs() < 1e-12);
        assert!((r.bits_per_node() - 100.0).abs() < 1e-12);
        assert_eq!(r.uninformed(), 2);
    }

    #[test]
    fn workload_measures() {
        let mut r = report();
        assert_eq!(r.rumors_completed(), 0);
        assert!((r.throughput() - 0.0).abs() < 1e-12, "no workload");
        r.rumors = vec![
            RumorStatus {
                origin: 1,
                arrival: 0,
                completed: Some(5),
                informed: 90,
            },
            RumorStatus {
                origin: 2,
                arrival: 3,
                completed: Some(6),
                informed: 90,
            },
            RumorStatus {
                origin: 3,
                arrival: 4,
                completed: None,
                informed: 12,
            },
        ];
        assert_eq!(r.rumors_completed(), 2);
        assert_eq!(r.rumor_latencies(), vec![6, 4]);
        assert!((r.throughput() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn serializes() {
        let r = report();
        let _cloned = r.clone();
        assert_eq!(r, _cloned);
    }
}
