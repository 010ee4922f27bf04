//! Shared node state, messages and report assembly for the baselines.

use gossip_core::report::RunReport;
use gossip_core::CommonConfig;
use phonecall::{BitSet, Network, Wire};

/// Node state for the rumor-spreading baselines.
#[derive(Clone, Debug, Default)]
pub struct RumorNode {
    /// Whether this node knows the rumor.
    pub informed: bool,
    /// Round at which the rumor was born (attached to the rumor itself;
    /// lets age-based termination rules work without global state).
    pub birth: u64,
}

/// Messages the baselines exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineMsg {
    /// The rumor, carrying its birth round (`b + O(log n)` bits).
    Rumor {
        /// Round the rumor entered the network.
        birth: u64,
        /// Rumor payload size in bits.
        bits: u64,
    },
    /// A list of node IDs (Name-Dropper's knowledge transfer), held as
    /// a snapshot of the sender's knowledge row: bit `r` stands for the
    /// run's `r`-th smallest ID. The simulated wire still carries the
    /// IDs themselves, `listed` of them.
    IdRow {
        /// The sender's knowledge at send time, by ID rank.
        row: BitSet,
        /// IDs on the wire: every member of `row`, plus the sender's own
        /// ID once more as the list's closing entry.
        listed: u64,
        /// Per-ID wire width in bits.
        id_bits: u64,
    },
}

impl Wire for BaselineMsg {
    fn size_bits(&self) -> u64 {
        match self {
            // birth counter costs one ID-width slot (O(log n) bits).
            BaselineMsg::Rumor { bits, .. } => bits + 32,
            BaselineMsg::IdRow {
                listed, id_bits, ..
            } => 16 + listed * id_bits,
        }
    }
}

/// Builds a [`Network`] of [`RumorNode`]s with the failure plan applied and
/// the source informed (mirrors `ClusterSim::new` for the baselines).
///
/// # Panics
///
/// Panics if `n < 2` or the source index is out of range.
#[must_use]
pub fn rumor_network(n: usize, cfg: &CommonConfig) -> Network<RumorNode> {
    assert!(n >= 2, "gossip needs at least two nodes");
    assert!((cfg.source as usize) < n, "source index out of range");
    let mut net = cfg.network(n, |_idx, _id| RumorNode::default());
    net.states_mut()[cfg.source as usize].informed = true;
    for &extra in &cfg.extra_sources {
        assert!((extra as usize) < n, "extra source index out of range");
        net.states_mut()[extra as usize].informed = true;
    }
    net
}

/// Assembles a [`RunReport`] from a finished baseline network.
#[must_use]
pub fn report_from(net: &Network<RumorNode>) -> RunReport {
    let informed = informed_count(net);
    RunReport::of(net, informed, informed == net.alive_count())
}

/// Counts alive informed nodes.
#[must_use]
pub fn informed_count(net: &Network<RumorNode>) -> usize {
    net.states()
        .iter()
        .enumerate()
        .filter(|(i, s)| net.is_alive(phonecall::NodeIdx(*i as u32)) && s.informed)
        .count()
}

/// Default round cap: generous multiple of the `Θ(log n)` bound so a run
/// that should succeed always terminates, while a stuck run stops cleanly.
#[must_use]
pub fn round_cap(n: usize) -> u64 {
    (8.0 * (n.max(2) as f64).log2()).ceil() as u64 + 40
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rumor_network_marks_source() {
        let net = rumor_network(8, &CommonConfig::default());
        assert!(net.states()[0].informed);
        assert_eq!(informed_count(&net), 1);
    }

    #[test]
    fn report_reflects_informedness() {
        let net = rumor_network(8, &CommonConfig::default());
        let r = report_from(&net);
        assert_eq!(r.informed, 1);
        assert!(!r.success);
        assert_eq!(r.alive, 8);
    }

    #[test]
    fn msg_sizes() {
        let rumor = BaselineMsg::Rumor {
            birth: 0,
            bits: 100,
        };
        assert_eq!(rumor.size_bits(), 132);
        // Charged by the IDs listed, not by the row's width in words.
        let ids = BaselineMsg::IdRow {
            row: BitSet::new(4096),
            listed: 1,
            id_bits: 20,
        };
        assert_eq!(ids.size_bits(), 36);
    }

    #[test]
    fn round_cap_scales_with_log() {
        assert!(round_cap(1 << 20) > round_cap(1 << 10));
        assert!(round_cap(1 << 10) >= 80);
    }
}
