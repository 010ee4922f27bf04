//! Round-, message-, bit- and fan-in accounting.
//!
//! The paper evaluates algorithms on three complexity measures (Section 2)
//! plus the per-round communication bound `Δ` (Section 7):
//!
//! * **round complexity** — synchronous rounds used;
//! * **message complexity** — messages sent *per node on average*; we track
//!   the total and let callers divide by `n`. PULLs cost a request and, when
//!   answered, a response. Because Karp et al. count only rumor
//!   *transmissions* (payload-bearing messages), `payload_messages` is
//!   tracked separately from `messages`;
//! * **bit complexity** — total bits over all messages, each charged a
//!   header (sender+receiver IDs) plus its payload size;
//! * **`Δ` / fan-in** — the maximum number of communications one node
//!   participates in within one round.
//!
//! The rules that charge these counters — who pays for a lost message,
//! what a piggybacked rumor costs, what counts towards fan-in — are stated
//! once, on the step core both engines run on ([`crate::step`]).

use serde::{Deserialize, Serialize};

/// Aggregate accounting over a whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Number of rounds executed.
    pub rounds: u64,
    /// Total messages (pushes + pull requests + pull responses).
    pub messages: u64,
    /// Messages that carried a non-empty payload (pushes and pull
    /// responses; pull requests are header-only). This is the
    /// "transmissions" count of Karp et al.
    pub payload_messages: u64,
    /// Total bits over all messages, headers included.
    pub bits: u64,
    /// PUSH messages sent.
    pub pushes: u64,
    /// PULL requests sent.
    pub pull_requests: u64,
    /// PULL responses sent (requests to dead or silent nodes go unanswered).
    pub pull_replies: u64,
    /// Maximum over all rounds and nodes of the number of communications a
    /// single node participated in during a single round.
    pub max_fan_in: u64,
    /// Largest single message observed, in bits (header + payload). The
    /// paper's algorithms keep this at `Θ(log n)` except for rumor shares
    /// and `ClusterResize` announcements (its Section 3.2 footnote).
    pub max_message_bits: u64,
    /// Nodes crashed mid-run by the dynamic adversary (see
    /// [`crate::ChurnConfig`]; time-0 failure plans are not counted here).
    pub crashes: u64,
    /// Mid-run recoveries of adversary-crashed nodes.
    pub recoveries: u64,
    /// Rounds spent in the burst-loss chain's bad state.
    pub burst_rounds: u64,
    /// Undirected edge count of the installed contact graph (see
    /// `crate::Topology`); 0 on the complete graph, whose edges are
    /// implicit.
    pub topology_edges: u64,
    /// Maximum degree of the installed contact graph; 0 on the complete
    /// graph.
    pub topology_max_degree: u64,
    /// Workload rumors activated so far by the traffic plan (see
    /// [`crate::TrafficConfig`]); 0 when no workload is attached.
    pub rumors_started: u64,
    /// Workload rumors that reached every alive node (each counted once,
    /// at the round it completed).
    pub rumors_completed: u64,
    /// Workload rumor payloads piggybacked on delivered pushes and pull
    /// replies (each transfer charges the rumor size to `bits`).
    pub rumor_payloads: u64,
    /// Workload rumor transfers suppressed by the per-node per-round
    /// bandwidth budget (see [`crate::TrafficConfig::bandwidth`]).
    pub budget_drops: u64,
    /// Per-round breakdown (always recorded; one small struct per round).
    pub per_round: Vec<RoundStats>,
}

impl Metrics {
    /// Average messages per node, the paper's message-complexity measure.
    #[must_use]
    pub fn messages_per_node(&self, n: usize) -> f64 {
        self.messages as f64 / n as f64
    }

    /// Average payload-bearing messages per node.
    #[must_use]
    pub fn payload_messages_per_node(&self, n: usize) -> f64 {
        self.payload_messages as f64 / n as f64
    }

    /// Total bits divided by `n`, for comparing against `O(b)`-per-node
    /// claims.
    #[must_use]
    pub fn bits_per_node(&self, n: usize) -> f64 {
        self.bits as f64 / n as f64
    }

    /// Accumulates another metrics block (e.g. a later phase of the same
    /// run) into this one.
    pub fn absorb(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.payload_messages += other.payload_messages;
        self.bits += other.bits;
        self.pushes += other.pushes;
        self.pull_requests += other.pull_requests;
        self.pull_replies += other.pull_replies;
        self.max_fan_in = self.max_fan_in.max(other.max_fan_in);
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.burst_rounds += other.burst_rounds;
        // Graph shape is a property of the run, not a flow; keep the
        // densest phase's values.
        self.topology_edges = self.topology_edges.max(other.topology_edges);
        self.topology_max_degree = self.topology_max_degree.max(other.topology_max_degree);
        self.rumors_started += other.rumors_started;
        self.rumors_completed += other.rumors_completed;
        self.rumor_payloads += other.rumor_payloads;
        self.budget_drops += other.budget_drops;
        self.per_round.extend(other.per_round.iter().copied());
    }
}

/// Accounting for one synchronous round.
///
/// Deliberately `Copy` (five plain counters): the engine appends one per
/// round to [`Metrics::per_round`] and returns it by value, and neither
/// costs an allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round number (0-based within the run).
    pub round: u64,
    /// Messages sent this round.
    pub messages: u64,
    /// Bits sent this round.
    pub bits: u64,
    /// Nodes that initiated a communication this round.
    pub initiators: u64,
    /// Maximum communications a single node participated in this round.
    pub max_fan_in: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = Metrics {
            rounds: 2,
            messages: 10,
            bits: 100,
            max_fan_in: 3,
            rumors_started: 4,
            rumors_completed: 2,
            ..Default::default()
        };
        let b = Metrics {
            rounds: 1,
            messages: 5,
            bits: 50,
            max_fan_in: 7,
            rumors_started: 1,
            rumors_completed: 1,
            rumor_payloads: 9,
            budget_drops: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.messages, 15);
        assert_eq!(a.bits, 150);
        assert_eq!(a.max_fan_in, 7);
        assert_eq!(a.rumors_started, 5, "workload counters flow additively");
        assert_eq!(a.rumors_completed, 3);
        assert_eq!(a.rumor_payloads, 9);
        assert_eq!(a.budget_drops, 3);
    }

    #[test]
    fn per_node_averages() {
        let m = Metrics {
            messages: 100,
            payload_messages: 40,
            bits: 1000,
            ..Default::default()
        };
        assert!((m.messages_per_node(50) - 2.0).abs() < 1e-12);
        assert!((m.payload_messages_per_node(50) - 0.8).abs() < 1e-12);
        assert!((m.bits_per_node(50) - 20.0).abs() < 1e-12);
    }
}
