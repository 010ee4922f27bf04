//! The engine-agnostic **step core**: what one schedule step of
//! [`Network::round`] *costs* and *delivers*, written once.
//!
//! Both engines — the lockstep phases of [`crate::network`] and the event
//! queue of [`crate::events`] — are schedulers over these methods: they
//! decide *when* a node activates and *when* (and with which loss
//! verdict) a message lands, and nothing else. Every boundary move,
//! target-resolution rule, charging statement and fan-in count lives
//! here, and no method asks which engine called it.
//!
//! The methods are `#[inline(always)]`, not `#[inline]`: they are
//! instantiated in the algorithm crates with the closures inside, and
//! under the plain hint the landing methods stayed out of line there —
//! measured at 1.2× (raw mixed round) to 1.6× (PushPull at 2^16) the
//! cost of the same rules written in place.
//!
//! # Accounting under message loss
//!
//! The **sender pays** for every message it actually put on the wire,
//! delivered or not: a lost push and a lost pull request are charged to
//! `messages`/`bits` like delivered ones, and a pull reply that the
//! responder *sent* but the link dropped is charged too
//! (`messages`/`bits`/`pull_replies`/`payload_messages`). What is *not*
//! charged is a reply that was never sent — when the pull request itself
//! was lost in transit, the responder stayed silent, exactly like a
//! request to a dead node.
//!
//! # Fan-in
//!
//! A node's fan-in for a step counts its own initiation plus every
//! message that *landed* at it, delivered or not: a push counts at its
//! destination even when the link lost it or the destination is dead,
//! and a pull request counts at a dead responder. The one exception is a
//! pull request lost in transit, which counts nowhere. A pull reply
//! never counts at the puller (the puller's initiation already did).

use std::any::Any;
use std::fmt;

use rand::rngs::SmallRng;

use crate::action::{Action, Delivery, Target};
use crate::id::NodeIdx;
use crate::metrics::RoundStats;
use crate::network::{Network, NodeCtx};
use crate::topology::DirectAddressing;
use crate::wire::Wire;

/// Type-erased holder for the running engine's per-message-type buffers.
///
/// `round` is generic over the message type `M` while the network is not,
/// so the buffers are stashed as `dyn Any` between rounds: consecutive
/// rounds with the same `M` (the hot path — every algorithm loop) get the
/// very same box back, contents and capacity intact, and a phase
/// switching to a different message type transparently starts afresh.
/// The box is what keeps the cycle allocation-free: `take`/`put` shuttle
/// it through the slot instead of re-boxing every round.
#[derive(Default)]
pub(crate) struct Slot(Option<Box<dyn Any>>);

impl Slot {
    /// Takes the buffers out for the duration of a round, leaving the
    /// slot empty.
    pub(crate) fn take<T: Default + 'static>(&mut self) -> Box<T> {
        match self.0.take().map(Box::<dyn Any>::downcast::<T>) {
            Some(Ok(held)) => held,
            _ => Box::default(),
        }
    }

    /// Returns the buffers after the round.
    pub(crate) fn put<T: 'static>(&mut self, held: Box<T>) {
        self.0 = Some(held);
    }
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Slot(warm)"
        } else {
            "Slot(empty)"
        })
    }
}

impl<S> Network<S> {
    /// Opens a step: the boundary moves, then this step's blank
    /// [`RoundStats`] and effective loss probability.
    ///
    /// The dynamic adversary (if any) moves first — crashes, recoveries
    /// and the burst-loss chain, from its own random stream, so churn-off
    /// runs draw the exact engine RNG sequence they always drew; burst
    /// loss composes with the base loss knob for this step only. Then the
    /// workload (if any): the bandwidth ledger resets and due rumors
    /// arrive at their origins, alive or not (state-intact semantics,
    /// like churn recoveries).
    #[inline(always)]
    pub(crate) fn begin_step(&mut self) -> (RoundStats, f64) {
        let mut loss = self.loss;
        if let Some(churn) = self.churn.as_mut() {
            let ev = churn.advance(self.round, &mut self.alive);
            self.alive_count = self.alive_count + ev.recovered as usize - ev.crashed as usize;
            self.metrics.crashes += u64::from(ev.crashed);
            self.metrics.recoveries += u64::from(ev.recovered);
            if ev.bursting {
                self.metrics.burst_rounds += 1;
                loss = 1.0 - (1.0 - loss) * (1.0 - churn.extra_loss());
            }
        }
        if let Some(tp) = self.traffic.as_mut() {
            self.metrics.rumors_started += u64::from(tp.begin_round(self.round));
        }
        // Reset the fan-in counters sparsely: only nodes whose `touched`
        // bit was set last step can hold a nonzero counter, so zero 64
        // counters per set word instead of streaming all n.
        let n = self.len();
        for wi in 0..self.touched.words().len() {
            if self.touched.words()[wi] != 0 {
                let start = wi * 64;
                self.fan_in[start..(start + 64).min(n)].fill(0);
            }
        }
        self.touched.clear_all();
        let stats = RoundStats {
            round: self.round,
            ..Default::default()
        };
        (stats, loss)
    }

    /// Activates alive node `idx`: runs `decide` on its state and the
    /// engine stream, counts the initiation (and its fan-in), and
    /// resolves the target. `None` means nothing goes on the wire: the
    /// node idles, or its call fails to connect — an attempt that still
    /// counts as an initiated communication.
    #[inline(always)]
    pub(crate) fn activate<M>(
        &mut self,
        idx: NodeIdx,
        decide: &mut impl FnMut(NodeCtx<'_, S>, &mut SmallRng) -> Action<M>,
        stats: &mut RoundStats,
    ) -> Option<(NodeIdx, Action<M>)> {
        let i = idx.as_usize();
        let ctx = NodeCtx {
            idx,
            id: self.ids.id_of(idx),
            state: &self.states[i],
            round: self.round,
        };
        let action = decide(ctx, &mut self.rng);
        let target = match &action {
            Action::Idle => return None,
            Action::Push { to, .. } | Action::Pull { to } => *to,
        };
        stats.initiators += 1;
        self.fan_in[i] += 1;
        self.touched.set(i);
        let n = self.len() as u32;
        let dst = match target {
            Target::Random => match self.topo.as_mut() {
                None if n == 1 => return None, // nobody to talk to
                None => Self::sample_other(&mut self.rng, n, idx),
                // On a contact graph: a uniformly random alive neighbor,
                // from the topology's own stream. With every neighbor
                // down the connection attempt fails.
                Some(view) => view
                    .adj
                    .sample_alive_neighbor(&mut view.rng, idx, &self.alive)?,
            },
            Target::Direct(id) => {
                // An unknown address is lost in the void.
                let d = self.ids.resolve(id)?;
                // Restricted direct addressing: a learned ID is only
                // usable over an existing link; a call to a non-neighbor
                // is lost in the void too.
                if let Some(view) = &self.topo {
                    if view.mode == DirectAddressing::Restricted
                        && !view.adj.contains_edge(idx.0, d.0)
                    {
                        return None;
                    }
                }
                d
            }
        };
        Some((dst, action))
    }

    /// Lands a push at `dst`: charged in full whatever happens to it,
    /// counted in the destination's fan-in, delivered only to an alive
    /// node over a link that did not drop it (`lost`).
    #[inline(always)]
    pub(crate) fn land_push<M: Wire>(
        &mut self,
        src: NodeIdx,
        dst: NodeIdx,
        msg: M,
        lost: bool,
        stats: &mut RoundStats,
        deliver: &mut impl FnMut(&mut S, Delivery<M>),
    ) {
        let d = dst.as_usize();
        let alive = self.alive.get(d);
        let delivered = alive && !lost;
        self.charge_payload(src, dst, msg.size_bits(), delivered, stats);
        self.metrics.pushes += 1;
        self.fan_in[d] += 1;
        self.touched.set(d);
        if delivered {
            let from = self.ids.id_of(src);
            deliver(&mut self.states[d], Delivery::Push { from, msg });
        }
    }

    /// Lands a pull request at `dst`: header-only and sender-paid whether
    /// or not it arrives. It counts in `dst`'s fan-in unless it was
    /// `lost` in transit; a request to a dead `dst` still counts. Whether
    /// a reply and a pulled-by notification are due is [`Self::hears`].
    #[inline(always)]
    pub(crate) fn land_pull_request(&mut self, dst: NodeIdx, lost: bool, stats: &mut RoundStats) {
        stats.messages += 1;
        stats.bits += self.header_bits;
        self.metrics.pull_requests += 1;
        if !lost {
            self.fan_in[dst.as_usize()] += 1;
            self.touched.set(dst.as_usize());
        }
    }

    /// Whether a pull request to `dst` gets through to a responder: it
    /// was not `lost` and `dst` is alive. Only then may `respond` run and
    /// `dst` learn it was pulled.
    #[inline(always)]
    pub(crate) fn hears(&self, dst: NodeIdx, lost: bool) -> bool {
        !lost && self.alive.get(dst.as_usize())
    }

    /// Lands the reply `from` a responder back at the puller `to`. A
    /// reply exists only because its request was heard; the responder
    /// sent it, so it is charged in full even when the return leg drops
    /// it (`lost`).
    #[inline(always)]
    pub(crate) fn land_reply<M: Wire>(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        msg: M,
        lost: bool,
        stats: &mut RoundStats,
        deliver: &mut impl FnMut(&mut S, Delivery<M>),
    ) {
        self.charge_payload(from, to, msg.size_bits(), !lost, stats);
        self.metrics.pull_replies += 1;
        if !lost {
            let from = self.ids.id_of(from);
            deliver(
                &mut self.states[to.as_usize()],
                Delivery::PullReply { from, msg },
            );
        }
    }

    /// Charges one payload message (a push or a pull reply): header plus
    /// payload bits, sender-paid. The workload piggybacks on *delivered*
    /// payload messages only: whatever transfers rides this one and
    /// widens it by `rumor_bits` per rumor carried.
    #[inline(always)]
    fn charge_payload(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        payload_bits: u64,
        delivered: bool,
        stats: &mut RoundStats,
    ) {
        let mut bits = self.header_bits + payload_bits;
        if delivered {
            if let Some(tp) = self.traffic.as_mut() {
                let t = tp.on_payload(from.0, to.0);
                bits += u64::from(t.transferred) * tp.rumor_bits;
                self.metrics.rumor_payloads += u64::from(t.transferred);
                self.metrics.budget_drops += u64::from(t.dropped);
            }
        }
        stats.messages += 1;
        stats.bits += bits;
        self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits);
        self.metrics.payload_messages += 1;
    }

    /// Closes a step: the workload's end-of-step check (a rumor completes
    /// once every alive node knows it — after all deliveries, so one can
    /// arrive, spread and complete within a single step on a tiny
    /// network), the fan-in maximum, and the fold of `stats` into the
    /// run's [`crate::Metrics`].
    #[inline(always)]
    pub(crate) fn end_step(&mut self, mut stats: RoundStats) -> RoundStats {
        if let Some(tp) = self.traffic.as_mut() {
            self.metrics.rumors_completed += u64::from(tp.end_round(self.round, &self.alive));
        }
        // Only touched nodes can hold a nonzero counter (the sparse-reset
        // invariant), so the maximum skips untouched words.
        let mut max_fan = 0u32;
        for (wi, &word) in self.touched.words().iter().enumerate() {
            let mut w = word;
            while w != 0 {
                max_fan = max_fan.max(self.fan_in[wi * 64 + w.trailing_zeros() as usize]);
                w &= w - 1;
            }
        }
        stats.max_fan_in = u64::from(max_fan);
        self.metrics.rounds += 1;
        self.metrics.messages += stats.messages;
        self.metrics.bits += stats.bits;
        self.metrics.max_fan_in = self.metrics.max_fan_in.max(stats.max_fan_in);
        self.metrics.per_round.push(stats);
        // Conservation laws, checked where every step of either engine
        // ends: each message is exactly one of the three kinds, payload
        // messages are the pushes and replies, every message carries at
        // least a header, and a node takes part in at most its own
        // initiation plus every message of the step.
        let m = &self.metrics;
        debug_assert_eq!(m.messages, m.pushes + m.pull_requests + m.pull_replies);
        debug_assert_eq!(m.payload_messages, m.pushes + m.pull_replies);
        debug_assert!(m.bits >= m.messages * self.header_bits);
        debug_assert!(stats.max_fan_in <= 1 + stats.messages);
        self.round += 1;
        stats
    }
}
