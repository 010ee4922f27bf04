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
//! State is an `n × n` bit matrix, so keep `n ≤ 2¹³` or so.

use phonecall::{derive_seed, rng_from_seed};
use rand::Rng;

/// A dense boolean knowledge matrix: `knows[u][v]` ⇔ `u` knows `v`'s ID.
#[derive(Clone, Debug)]
pub struct KnowledgeGraph {
    n: usize,
    words: usize,
    bits: Vec<u64>, // row-major bitset, n rows of `words` u64s
}

impl KnowledgeGraph {
    /// The initial knowledge: everyone knows only themselves (`K₀` plus
    /// the reflexive closure, which is implicit in the paper).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one node");
        let words = n.div_ceil(64);
        let mut g = KnowledgeGraph {
            n,
            words,
            bits: vec![0; n * words],
        };
        for v in 0..n {
            g.set(v, v);
        }
        g
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph is empty (never for constructed graphs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn row(&self, u: usize) -> &[u64] {
        &self.bits[u * self.words..(u + 1) * self.words]
    }

    /// Marks `u` as knowing `v`.
    pub fn set(&mut self, u: usize, v: usize) {
        self.bits[u * self.words + v / 64] |= 1u64 << (v % 64);
    }

    /// Whether `u` knows `v`.
    #[must_use]
    pub fn knows(&self, u: usize, v: usize) -> bool {
        self.bits[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Number of IDs `u` knows (including itself).
    #[must_use]
    pub fn known_count(&self, u: usize) -> usize {
        self.row(u).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every node knows every other node.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        (0..self.n).all(|u| self.known_count(u) == self.n)
    }

    /// One round of the most powerful dynamics: every node samples one
    /// uniform contact (the `G_{t+1}` edge, both endpoints learn each
    /// other), then knowledge closes under one join step:
    /// `K' = (K ∪ G)²` — `u` learns everything known to everyone it
    /// knows. Returns the sampled `G_{t+1}` edges (for Lemma 14
    /// containment checks).
    pub fn round(&mut self, rng: &mut impl Rng) -> Vec<(u32, u32)> {
        let n = self.n;
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
                self.set(u, v);
                self.set(v, u);
                sampled.push((u as u32, v as u32));
            }
        }
        // Square: row_u |= OR of row_w for all known w. Compute against
        // the pre-round snapshot so the closure is exactly one step.
        let snapshot = self.bits.clone();
        let words = self.words;
        let mut acc = vec![0u64; words];
        for u in 0..n {
            acc.fill(0);
            for (wi, word) in snapshot[u * words..(u + 1) * words].iter().enumerate() {
                let mut w = *word;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    let v = wi * 64 + b;
                    w &= w - 1;
                    for (a, s) in acc.iter_mut().zip(&snapshot[v * words..(v + 1) * words]) {
                        *a |= s;
                    }
                }
            }
            for (dst, a) in self.bits[u * words..(u + 1) * words].iter_mut().zip(&acc) {
                *dst |= a;
            }
        }
        sampled
    }
}

/// Runs the most powerful dynamics until the knowledge graph is complete;
/// returns the rounds used (`None` if `cap` was hit, which cannot happen
/// for sane caps).
#[must_use]
pub fn rounds_to_complete(n: usize, seed: u64, cap: u32) -> Option<u32> {
    let mut g = KnowledgeGraph::new(n);
    let mut rng = rng_from_seed(derive_seed(seed, 0x5eed));
    for t in 1..=cap {
        let _ = g.round(&mut rng);
        if g.is_complete() {
            return Some(t);
        }
    }
    None
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

    #[test]
    fn lemma14_containment_in_union_graph_power() {
        // Lemma 14: K_t ⊆ (∪_{i≤t} G_i)^{2^t} — every pair (u, v) with
        // "u knows v" at round t must lie within 2^t hops in the union of
        // the sampled graphs.
        use crate::bfs::distances;
        use crate::graph::Graph;
        let n = 128;
        let mut g = KnowledgeGraph::new(n);
        let mut union = Graph::empty(n);
        let mut rng = rng_from_seed(derive_seed(9, 0x5eed));
        for t in 1u32..=4 {
            for (a, b) in g.round(&mut rng) {
                union.add_edge(a, b);
            }
            let mut u_sorted = union.clone();
            u_sorted.finish();
            let budget = 1u32 << t;
            for u in 0..n {
                let dist = distances(&u_sorted, u as u32);
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
