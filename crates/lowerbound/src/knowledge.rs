//! Direct simulation of the knowledge-graph dynamics of Lemma 14.
//!
//! Lemma 14 bounds what *any* algorithm can know: `K₀ = ∅` and
//! `K_{t+1} ⊆ (K_t ∪ G_{t+1})²` — in one round a node can at best learn
//! everything known to everybody it knows or samples (2-hop closure).
//! This module simulates exactly that **most powerful conceivable
//! algorithm** (unbounded messages, unbounded fan-out, full cooperation)
//! and measures when its knowledge graph completes. The measured
//! completion round is a *lower bound* on every real algorithm's
//! broadcast time and empirically lands right at `log₂ log₂ n + O(1)`,
//! bracketing Theorem 3 from the constructive side.
//!
//! State is an `n × n` [`BitMatrix`] (the engine's row kernels, one
//! row-OR per known ID per round), so keep `n ≤ 2¹³` or so.

use phonecall::{derive_seed, rng_from_seed, BitMatrix};
use rand::Rng;

/// A dense boolean knowledge matrix: row `u`, bit `v` ⇔ `u` knows `v`'s ID.
#[derive(Clone, Debug)]
pub struct KnowledgeGraph(BitMatrix);

impl KnowledgeGraph {
    /// The initial knowledge: everyone knows only themselves (`K₀` plus
    /// the reflexive closure, which is implicit in the paper).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one node");
        let mut known = BitMatrix::new(n, n);
        for v in 0..n {
            known.set(v, v);
        }
        KnowledgeGraph(known)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.rows()
    }

    /// Whether the graph is empty (never for constructed graphs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `u` knows `v`.
    #[must_use]
    pub fn knows(&self, u: usize, v: usize) -> bool {
        self.0.get(u, v)
    }

    /// Number of IDs `u` knows (including itself).
    #[must_use]
    pub fn known_count(&self, u: usize) -> usize {
        self.0.count_row(u)
    }

    /// Whether every node knows every other node.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        (0..self.len()).all(|u| self.known_count(u) == self.len())
    }

    /// One round of the most powerful dynamics: every node samples one
    /// uniform contact (the `G_{t+1}` edge, both endpoints learn each
    /// other), then knowledge closes under one join step:
    /// `K' = (K ∪ G)²` — `u` learns everything known to everyone it
    /// knows. Returns the sampled `G_{t+1}` edges (for Lemma 14
    /// containment checks).
    pub fn round(&mut self, rng: &mut impl Rng) -> Vec<(u32, u32)> {
        let n = self.len();
        // Sample G_{t+1}: symmetric edges.
        let mut sampled = Vec::with_capacity(n);
        for u in 0..n {
            if n > 1 {
                let v = loop {
                    let c = rng.gen_range(0..n);
                    if c != u {
                        break c;
                    }
                };
                self.0.set(u, v);
                self.0.set(v, u);
                sampled.push((u as u32, v as u32));
            }
        }
        // Square against the pre-round snapshot so the closure is exactly
        // one step: row u |= snapshot row v for every v in snapshot row u
        // (live row u equals snapshot row u until its own turn).
        let snapshot = self.0.clone();
        for u in 0..n {
            self.0.or_rows(u, &snapshot, snapshot.row(u));
        }
        sampled
    }
}

/// Runs the most powerful dynamics until the knowledge graph is complete;
/// returns the rounds used (`None` if `cap` was hit, which cannot happen
/// for sane caps). A single node knows everyone before any round, so
/// `n = 1` takes `Some(0)` rounds whatever the cap.
#[must_use]
pub fn rounds_to_complete(n: usize, seed: u64, cap: u32) -> Option<u32> {
    let mut g = KnowledgeGraph::new(n);
    let mut rng = rng_from_seed(derive_seed(seed, 0x5eed));
    let mut t = 0;
    while !g.is_complete() {
        if t == cap {
            return None;
        }
        let _ = g.round(&mut rng);
        t += 1;
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_knowledge_is_reflexive_only() {
        let g = KnowledgeGraph::new(10);
        for u in 0..10 {
            assert_eq!(g.known_count(u), 1);
            assert!(g.knows(u, u));
        }
        assert!(!g.is_complete());
    }

    #[test]
    fn single_node_is_trivially_complete() {
        let g = KnowledgeGraph::new(1);
        assert!(g.is_complete());
        for cap in [0, 1, 20] {
            assert_eq!(rounds_to_complete(1, 7, cap), Some(0), "cap {cap}");
        }
    }

    #[test]
    fn knowledge_only_grows() {
        let mut g = KnowledgeGraph::new(64);
        let mut rng = rng_from_seed(1);
        let mut prev: Vec<usize> = (0..64).map(|u| g.known_count(u)).collect();
        for _ in 0..4 {
            let _ = g.round(&mut rng);
            let now: Vec<usize> = (0..64).map(|u| g.known_count(u)).collect();
            for (p, c) in prev.iter().zip(&now) {
                assert!(c >= p, "knowledge is monotone");
            }
            prev = now;
        }
    }

    #[test]
    fn completes_in_loglog_plus_constant() {
        // The most powerful algorithm completes extremely fast: the
        // squaring gives doubly exponential knowledge growth.
        let r = rounds_to_complete(512, 7, 20).expect("completes");
        // log2 log2 512 ≈ 3.17; allow the +O(1).
        assert!((2..=7).contains(&r), "completed in {r} rounds");
    }

    #[test]
    fn completion_time_grows_very_slowly() {
        let small = rounds_to_complete(64, 3, 20).unwrap();
        let large = rounds_to_complete(2048, 3, 20).unwrap();
        assert!(large <= small + 2, "{small} -> {large}: loglog growth");
    }

    /// The squaring against a plain `Vec<Vec<bool>>` two-hop closure,
    /// drawing the same contacts from a twin RNG stream, on sizes around
    /// the 64-bit word boundaries.
    #[test]
    fn squaring_matches_a_naive_two_hop_closure() {
        for n in [1, 2, 63, 64, 65, 130] {
            let mut g = KnowledgeGraph::new(n);
            let mut model: Vec<Vec<bool>> =
                (0..n).map(|u| (0..n).map(|v| u == v).collect()).collect();
            let (mut rng, mut twin) = (rng_from_seed(n as u64), rng_from_seed(n as u64));
            for t in 1..=4 {
                let mut edges = Vec::new();
                for u in 0..n {
                    if n > 1 {
                        let v = loop {
                            let c = twin.gen_range(0..n);
                            if c != u {
                                break c;
                            }
                        };
                        edges.push((u as u32, v as u32));
                    }
                }
                for &(u, v) in &edges {
                    model[u as usize][v as usize] = true;
                    model[v as usize][u as usize] = true;
                }
                assert_eq!(g.round(&mut rng), edges, "n {n}, round {t}");
                model = (0..n)
                    .map(|u| {
                        (0..n)
                            .map(|w| (0..n).any(|v| model[u][v] && model[v][w]))
                            .collect()
                    })
                    .collect();
                for (u, row) in model.iter().enumerate() {
                    for (v, &known) in row.iter().enumerate() {
                        assert_eq!(g.knows(u, v), known, "n {n}, round {t}: {u} knows {v}");
                    }
                    let count = row.iter().filter(|&&k| k).count();
                    assert_eq!(g.known_count(u), count, "n {n}, round {t}: row {u}");
                }
            }
        }
    }

    #[test]
    fn lemma14_containment_in_union_graph_power() {
        // Lemma 14: K_t ⊆ (∪_{i≤t} G_i)^{2^t} — every pair (u, v) with
        // "u knows v" at round t must lie within 2^t hops in the union of
        // the sampled graphs.
        use crate::bfs::distances;
        let n = 128;
        let mut g = KnowledgeGraph::new(n);
        let mut edges = Vec::new();
        let mut rng = rng_from_seed(derive_seed(9, 0x5eed));
        for t in 1u32..=4 {
            edges.extend(g.round(&mut rng));
            let union = phonecall::Adjacency::from_edges(n, &edges).unwrap();
            let budget = 1u32 << t;
            for u in 0..n {
                let dist = distances(&union, u as u32);
                for (v, d) in dist.iter().enumerate() {
                    if g.knows(u, v) {
                        assert!(
                            *d <= budget,
                            "round {t}: {u} knows {v} at union-distance {d} > 2^{t}"
                        );
                    }
                }
            }
        }
    }
}
