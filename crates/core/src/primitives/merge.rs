//! `ClusterPUSH` + `ClusterMerge` iterations (the squaring and merge-all
//! machinery of `SquareClusters`, `MergeClusters` and `MergeAllClusters`).
//!
//! One iteration is three rounds:
//!
//! 1. **push** — every member of a pushing cluster PUSHes its cluster's ID
//!    (`follow`) to a uniformly random node;
//! 2. **relay** — members of merge-eligible clusters forward the candidate
//!    IDs they received to their leader (the paper's "all messages received
//!    … get relayed to their cluster leader");
//! 3. **merge** — each merge-eligible leader picks a target among the
//!    relayed candidates (smallest or uniformly random, per the algorithm)
//!    and all its followers pull the new leader ID (`ClusterMerge`).
//!
//! Simultaneous merges can leave one-hop stale pointers; callers follow up
//! with [`super::flatten_round`] (see README, "Deviations from the paper").

use rand::Rng;

use crate::follow::Follow;
use crate::msg::MsgKind;
use crate::node::ClusterNode;
use crate::sim::{pull_round, push_round, to_leader, ClusterSim};

use super::{activate, flatten_round, recruit::push_recruits, resize, Who};

/// How a merging leader picks among relayed candidates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeRule {
    /// The smallest candidate ID (Algorithm 1's `SquareClusters`).
    Smallest,
    /// A uniformly random candidate (Algorithm 2's `SquareClusters` and
    /// Algorithm 4's `MergeClusters` — randomization spreads inactive
    /// clusters evenly over the active ones).
    Random,
}

/// The two kinds of [`merge_iteration`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Merge {
    /// Recruiting (`SquareClusters`, `MergeClusters`): active clusters
    /// push, inactive clusters merge into a candidate the rule picks, and
    /// whatever merges becomes active (it joined an active cluster).
    Recruit(MergeRule),
    /// `MergeAllClusters`: every cluster pushes and merges into the
    /// smallest candidate ID below its own, which makes the globally
    /// smallest cluster the sink.
    All,
}

/// Runs one push → relay → merge iteration (three rounds).
pub fn merge_iteration(sim: &mut ClusterSim, merge: Merge) {
    let (pushers, rule, recruit) = match merge {
        Merge::Recruit(rule) => (Who::ActiveOnly, rule, true),
        Merge::All => (Who::AllClustered, MergeRule::Smallest, false),
    };
    // Round 1: pushing clusters PUSH their cluster ID to random nodes.
    push_recruits(sim, pushers);
    let n = sim.n();
    let (arrivals, leaders, replies) = (&mut sim.arrivals, &mut sim.leaders, &mut sim.replies);

    // Round 2: members of merge-eligible clusters relay what they received
    // (arrival order and length intact: `Candidates` is charged per listed
    // ID) to their leader; leaders take their own arrivals locally. The
    // relay names the sender's bucket of the grouped arrival log, which
    // nothing writes until the round is over.
    arrivals.group(n);
    let eligible = move |s: &ClusterNode| -> bool { s.is_clustered() && !(recruit && s.active) };
    for s in sim.net.states() {
        let got = arrivals.of(s.idx);
        if s.is_leader() && eligible(s) && !got.is_empty() {
            leaders.row(s.idx).candidates.extend_from_slice(got);
        }
    }
    push_round(
        &mut sim.net,
        sim.wire,
        |s| {
            let got = arrivals.span_of(s.idx);
            let to = to_leader(s).filter(|_| eligible(s) && !got.is_empty())?;
            Some((to, MsgKind::Candidates(got)))
        },
        |s, kind| {
            if let MsgKind::Candidates(got) = kind {
                let got = got.of(arrivals.grouped());
                leaders.row(s.idx).candidates.extend_from_slice(got);
            }
        },
    );
    // Relayed or not, this iteration's arrivals are spent.
    arrivals.clear();

    // Round 3: merge-eligible leaders decide and everyone pulls the verdict.
    for i in 0..n {
        // (split borrow: draw randomness before touching the state)
        let pick_random: f64 = sim.rng.gen();
        let s = &mut sim.net.states_mut()[i];
        if !s.is_leader() {
            continue;
        }
        let mut target = None;
        if let Some(row) = leaders.get_mut(s.idx).filter(|_| eligible(s)) {
            let (own, cands) = (s.id, &mut row.candidates);
            cands.retain(|c| *c != own && (recruit || *c < own));
            match rule {
                MergeRule::Smallest => target = cands.iter().copied().min(),
                MergeRule::Random => {
                    if !cands.is_empty() {
                        cands.sort_unstable();
                        cands.dedup();
                        let k = (pick_random * cands.len() as f64) as usize;
                        target = Some(cands[k.min(cands.len() - 1)]);
                    }
                }
            }
        }
        let verdict = target.unwrap_or(s.id);
        replies.set(s.idx, sim.wire.msg(MsgKind::FollowVal(Some(verdict))));
        if target.is_some() {
            s.follow = Follow::Of(verdict);
            s.active |= recruit;
        }
    }
    // Whatever was relayed is spent — including what stale pointers sent
    // to nodes that lead nothing.
    for row in leaders.rows_mut() {
        row.candidates.clear();
    }
    pull_round(&mut sim.net, replies, to_leader, |s, kind| {
        if let MsgKind::FollowVal(Some(v)) = kind {
            if Follow::Of(v) != s.follow {
                s.follow = Follow::Of(v);
                s.active |= recruit;
            }
        }
    });
}

/// `MergeAllClusters`: repeatedly merge every cluster into the smallest
/// cluster ID it hears about, followed by a pointer-jumping round, until
/// (budget permitting) a single cluster remains.
///
/// ```
/// use gossip_core::{primitives, ClusterSim, CommonConfig};
/// let mut sim = ClusterSim::new(128, &CommonConfig::default());
/// primitives::sample_singletons(&mut sim, 1.0); // everyone a singleton
/// primitives::merge_all(&mut sim, 8);
/// assert_eq!(sim.clustering_stats().clusters, 1);
/// ```
///
/// The paper uses exactly two iterations, which suffices asymptotically; at
/// practical sizes the per-iteration absorption factor is finite, so the
/// caller passes an explicitly computed `iterations` budget (still
/// `O(log log n)`, see README, "Deviations from the paper").
pub fn merge_all(sim: &mut ClusterSim, iterations: u32) {
    for _ in 0..iterations {
        merge_iteration(sim, Merge::All);
        flatten_round(sim);
    }
    flatten_round(sim);
}

/// One recruiting step (a `SquareClusters` iteration's body, and all of
/// `MergeClusters`): activate each cluster with probability `p`, run two
/// [`Merge::Recruit`] iterations — the second catches the inactive
/// clusters the first one missed — and flatten the pointers the merges
/// left.
pub fn recruit_merge(sim: &mut ClusterSim, p: f64, rule: MergeRule) {
    activate(sim, p);
    for _ in 0..2 {
        merge_iteration(sim, Merge::Recruit(rule));
    }
    flatten_round(sim);
}

/// `SquareClusters`' loop from cluster size `s`: resize to `[s, 2s)`,
/// [`recruit_merge`] at activation `1/s`, and grow `s` to
/// `max(2s, s²·hit/safety)`, capped just past `target`. `hit` is the
/// chance that a push lands on a clustered node (`1` when nearly every
/// node is clustered, `1/log n` on Cluster2's thin backbone). The loop
/// runs while `s < target`, at least 32 clusters of size `s` fit in the
/// `clustered` nodes (fewer are `MergeAllClusters`' job) and fewer than
/// 24 iterations ran.
pub fn square(
    sim: &mut ClusterSim,
    mut s: f64,
    target: f64,
    clustered: f64,
    hit: f64,
    safety: f64,
    rule: MergeRule,
) {
    let mut iterations = 0u32;
    while s < target && clustered / s >= 32.0 && iterations < 24 {
        resize(sim, s as u64, Who::AllClustered);
        recruit_merge(sim, 1.0 / s, rule);
        s = (2.0 * s).max(s * s * hit / safety).min(target + 1.0);
        iterations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::primitives::sample_singletons;
    use crate::verify::check_clustering;
    use phonecall::NodeIdx;

    /// Everyone a singleton leader.
    fn all_singletons(n: usize, seed: u64) -> ClusterSim {
        let mut common = CommonConfig::default();
        common.seed = seed;
        let mut s = ClusterSim::new(n, &common);
        sample_singletons(&mut s, 1.0);
        s
    }

    #[test]
    fn merge_all_converges_to_one_cluster() {
        let mut s = all_singletons(256, 1);
        merge_all(&mut s, 8);
        check_clustering(&s).expect("well-formed");
        let stats = s.clustering_stats();
        assert_eq!(stats.clusters, 1, "got {} clusters", stats.clusters);
        assert_eq!(stats.clustered, 256);
    }

    #[test]
    fn merge_all_sink_is_smallest_id() {
        let mut s = all_singletons(128, 2);
        let min_id = s.alive_states().map(|x| x.id).min().unwrap();
        merge_all(&mut s, 8);
        let map = s.cluster_map();
        assert!(map.contains_key(&min_id), "smallest ID is the sink");
    }

    #[test]
    fn merge_preserves_membership_count() {
        let mut s = all_singletons(200, 3);
        let before = s.clustered_count();
        merge_iteration(&mut s, Merge::All);
        flatten_round(&mut s);
        flatten_round(&mut s);
        assert_eq!(s.clustered_count(), before, "no node lost by merging");
        check_clustering(&s).expect("well-formed after flatten");
    }

    #[test]
    fn inactive_only_merge_leaves_active_clusters_in_place() {
        let mut s = all_singletons(64, 4);
        // Mark half the singletons inactive.
        for i in 0..64 {
            s.net.states_mut()[i].active = i % 2 == 0;
        }
        let active_leaders: Vec<_> = s
            .alive_states()
            .filter(|x| x.is_leader() && x.active)
            .map(|x| x.id)
            .collect();
        merge_iteration(&mut s, Merge::Recruit(MergeRule::Random));
        // Every active leader still leads its own cluster.
        for id in active_leaders {
            let idx = s.net.resolve(id).unwrap();
            assert!(s.net.states()[idx.as_usize()].is_leader());
        }
        // Everything clustered that merged is now active.
        let map = s.cluster_map();
        for members in map.values() {
            if members.len() > 1 {
                for m in members {
                    assert!(s.net.states()[m.as_usize()].active);
                }
            }
        }
    }

    #[test]
    fn a_follower_relays_every_arrival_duplicates_included() {
        // Cluster A (leader node 0, active) pushes into cluster B (leader
        // node 32, inactive, so merge-eligible): every arrival is A's ID.
        let n = 64;
        let two_clusters = || {
            let mut s = ClusterSim::new(n, &CommonConfig::default());
            for i in 0..n {
                let leader = s.net.id_of(NodeIdx(if i < 32 { 0 } else { 32 }));
                s.net.states_mut()[i].follow = Follow::Of(leader);
                s.net.states_mut()[i].active = i < 32;
            }
            s
        };
        // The iteration's push round, replayed on a twin: it is the
        // iteration's first step, so the twin's arrival log is exactly
        // what the followers heard.
        let mut twin = two_clusters();
        push_recruits(&mut twin, Who::ActiveOnly);
        let mut heard = vec![0u64; n];
        for (to, _) in twin.arrivals.iter() {
            heard[to.as_usize()] += 1;
        }
        let mut s = two_clusters();
        merge_iteration(&mut s, Merge::Recruit(MergeRule::Random));
        // B's followers relay what they heard, one `Candidates` each,
        // charged per listed ID.
        let relayed: Vec<u64> = heard[33..].iter().copied().filter(|&k| k > 0).collect();
        assert!(relayed.contains(&2), "a follower heard A twice: {heard:?}");
        let round2 = &s.net.metrics().per_round[1];
        assert_eq!(round2.messages, relayed.len() as u64);
        let header = phonecall::header_bits(n);
        let charged: u64 = relayed
            .iter()
            .map(|k| header + 16 + k * s.wire.id_bits)
            .sum();
        assert_eq!(round2.bits, charged);
    }

    #[test]
    fn merge_iteration_costs_three_rounds_plus_flatten() {
        let mut s = all_singletons(64, 5);
        let before = s.net.metrics().rounds;
        merge_iteration(&mut s, Merge::All);
        assert_eq!(s.net.metrics().rounds - before, 3);
    }
}
