//! Shared node state, the rumor message, the rumor round and report
//! assembly for the baselines.
//!
//! Push, Pull, PushPull, Karp and the oracle tree differ only in who
//! calls whom, and when: each is a call rule ([`Call`]) handed to
//! [`rumor_round`], the one exchange they all share.

use gossip_core::report::RunReport;
use gossip_core::CommonConfig;
use phonecall::{Action, Delivery, Network, NodeCtx, Target, Wire};

/// Node state for the rumor-spreading baselines.
#[derive(Clone, Debug, Default)]
pub struct RumorNode {
    /// Whether this node knows the rumor.
    pub informed: bool,
    /// Round at which the rumor was born (attached to the rumor itself;
    /// lets age-based termination rules work without global state).
    pub birth: u64,
}

/// The rumor, carrying its birth round (`b + O(log n)` bits): the one
/// message of the rumor baselines. A plain value with no destructor, like
/// `gossip_core`'s `Msg`, so the engine moves it as a copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RumorMsg {
    /// Round the rumor entered the network.
    pub birth: u64,
    /// Rumor payload size in bits.
    pub bits: u64,
}

const _: () = assert!(!std::mem::needs_drop::<RumorMsg>());

impl Wire for RumorMsg {
    fn size_bits(&self) -> u64 {
        // The birth counter costs one ID-width slot (O(log n) bits).
        self.bits + 32
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

/// A node's one call of a rumor round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// PUSH the rumor (with the caller's birth round) to the target.
    Push(Target),
    /// PULL from the target; it answers with the rumor if it knows it.
    Pull(Target),
}

/// One [`Network::round`] of the rumor exchange under the call rule
/// `call` (`None`: stay silent). A responder answers a pull only if it
/// is informed; an uninformed node adopts the first rumor delivered to
/// it, by push or by pull reply, with that rumor's birth round. The
/// engine RNG is never drawn from here.
pub fn rumor_round(
    net: &mut Network<RumorNode>,
    rumor_bits: u64,
    call: impl Fn(&NodeCtx<'_, RumorNode>) -> Option<Call>,
) {
    let rumor = |s: &RumorNode| RumorMsg {
        birth: s.birth,
        bits: rumor_bits,
    };
    net.round(
        |ctx, _rng| match call(&ctx) {
            Some(Call::Push(to)) => Action::Push {
                to,
                msg: rumor(ctx.state),
            },
            Some(Call::Pull(to)) => Action::Pull { to },
            None => Action::Idle,
        },
        |s| s.informed.then(|| rumor(s)),
        |s, d| {
            if let Delivery::Push {
                msg: RumorMsg { birth, .. },
                ..
            }
            | Delivery::PullReply {
                msg: RumorMsg { birth, .. },
                ..
            } = d
            {
                if !s.informed {
                    s.informed = true;
                    s.birth = birth;
                }
            }
        },
    );
}

/// Runs [`rumor_round`] under `call` until every alive node is informed
/// or `cap` rounds have run, and reports the finished network.
#[must_use]
pub fn spread(
    mut net: Network<RumorNode>,
    rumor_bits: u64,
    cap: u64,
    call: impl Fn(&NodeCtx<'_, RumorNode>) -> Option<Call>,
) -> RunReport {
    while informed_count(&net) < net.alive_count() && net.round_number() < cap {
        rumor_round(&mut net, rumor_bits, &call);
    }
    report_from(&net)
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
    fn a_rumor_costs_b_bits_plus_its_birth() {
        let rumor = RumorMsg {
            birth: 0,
            bits: 100,
        };
        assert_eq!(rumor.size_bits(), 132);
    }

    /// Every node in `from` pushes directly to `to` this round.
    fn push_to(net: &mut Network<RumorNode>, from: &[usize], to: usize) {
        let target = Target::Direct(net.id_of(phonecall::NodeIdx(to as u32)));
        rumor_round(net, 64, |ctx| {
            from.contains(&ctx.idx.as_usize())
                .then_some(Call::Push(target))
        });
    }

    #[test]
    fn the_first_rumor_delivered_is_adopted_and_kept() {
        let mut net = rumor_network(8, &CommonConfig::default());
        for (i, birth) in [(1, 5), (2, 9)] {
            let s = &mut net.states_mut()[i];
            s.informed = true;
            s.birth = birth;
        }
        // Two pushes with different births land on node 3 in one round;
        // the lower index lands first under the sync engine.
        push_to(&mut net, &[1, 2], 3);
        assert!(net.states()[3].informed);
        assert_eq!(net.states()[3].birth, 5, "first delivered push wins");
        // A later push does not overwrite an adopted birth, nor an
        // informed node's own.
        push_to(&mut net, &[2], 3);
        push_to(&mut net, &[2], 1);
        assert_eq!(net.states()[3].birth, 5);
        assert_eq!(net.states()[1].birth, 5);
        assert_eq!(net.states()[2].birth, 9);
    }

    #[test]
    fn an_uninformed_responder_does_not_answer_a_pull() {
        let mut net = rumor_network(8, &CommonConfig::default());
        let target = Target::Direct(net.id_of(phonecall::NodeIdx(5)));
        rumor_round(&mut net, 64, |ctx| {
            (ctx.idx.as_usize() == 4).then_some(Call::Pull(target))
        });
        let r = report_from(&net);
        assert_eq!((r.messages, r.payload_messages), (1, 0));
        assert!(!net.states()[4].informed);
    }

    #[test]
    fn round_cap_scales_with_log() {
        assert!(round_cap(1 << 20) > round_cap(1 << 10));
        assert!(round_cap(1 << 10) >= 80);
    }
}
