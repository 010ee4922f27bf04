//! The random sample-union graph `K' = ∪_{t≤T} G_t` of the lower-bound
//! argument, drawn straight into the simulator's CSR
//! [`phonecall::Adjacency`].
//!
//! Every other module of this crate reads that same type, so a contact
//! graph from [`phonecall::Topology::build`] or [`phonecall::dataset`]
//! is certified by [`crate::diameter`] as it is, and a union graph runs
//! under the whole algorithm registry wrapped as
//! [`phonecall::Topology::FromAdjacency`].

use phonecall::{derive_seed, rng_from_seed, Adjacency};
use rand::Rng;

/// Draws the union graph `K' = ∪_{t=1..t_rounds} G_t`: every node samples
/// one uniformly random other node per round; each sample contributes an
/// undirected edge.
///
/// This is exactly the graph of Theorem 15's proof — a random graph where
/// every node has drawn `t_rounds` independent uniform contacts (expected
/// average degree `≈ 2·t_rounds`). The `n · t_rounds` draws go into one
/// edge list, which [`Adjacency::from_edges`] symmetrizes and
/// deduplicates in one counting pass.
///
/// ```
/// let g = gossip_lowerbound::graph::sample_union_graph(100, 3, 7);
/// assert_eq!(g.len(), 100);
/// assert!(g.edge_count() <= 300);
/// ```
///
/// # Panics
///
/// Panics if `n < 2` (no other node to sample) or if `n` does not fit
/// a `u32` node index.
#[must_use]
pub fn sample_union_graph(n: usize, t_rounds: u32, seed: u64) -> Adjacency {
    assert!(n >= 2, "need at least two nodes");
    let nodes = u32::try_from(n).expect("node indices are u32");
    let mut rng = rng_from_seed(derive_seed(seed, 0x10ba));
    let mut edges = Vec::with_capacity(n * t_rounds as usize);
    for _t in 0..t_rounds {
        for v in 0..nodes {
            let u = loop {
                let c = rng.gen_range(0..nodes);
                if c != v {
                    break c;
                }
            };
            edges.push((v, u));
        }
    }
    Adjacency::from_edges(n, &edges).expect("draws are in range and loop-free")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The builder [`sample_union_graph`] replaced, kept as its
    /// reference: the same draws, each pushed onto both endpoints' own
    /// rows, then every row sorted and deduplicated.
    fn reference_union_rows(n: usize, t_rounds: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = rng_from_seed(derive_seed(seed, 0x10ba));
        let mut rows = vec![Vec::new(); n];
        for _t in 0..t_rounds {
            for v in 0..n as u32 {
                let u = loop {
                    let c = rng.gen_range(0..n as u32);
                    if c != v {
                        break c;
                    }
                };
                rows[v as usize].push(u);
                rows[u as usize].push(v);
            }
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        rows
    }

    fn assert_matches_reference(n: usize, t_rounds: u32, seed: u64) {
        let g = sample_union_graph(n, t_rounds, seed);
        let want = reference_union_rows(n, t_rounds, seed);
        assert_eq!(g.len(), n);
        assert_eq!(
            g.edge_count(),
            want.iter().map(Vec::len).sum::<usize>() / 2,
            "n {n} T {t_rounds} seed {seed}"
        );
        for (v, row) in want.iter().enumerate() {
            assert_eq!(
                g.neighbors(v as u32),
                &row[..],
                "n {n} T {t_rounds} seed {seed} node {v}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn union_graph_matches_the_per_row_reference(
            n in 2usize..400,
            t_rounds in 0u32..7,
            seed in proptest::prelude::any::<u64>(),
        ) {
            assert_matches_reference(n, t_rounds, seed);
        }
    }

    #[test]
    fn union_graph_matches_the_per_row_reference_at_2p16() {
        for t_rounds in [2, 4, 6] {
            assert_matches_reference(1 << 16, t_rounds, 0xE4);
        }
    }

    #[test]
    fn union_graph_has_expected_density() {
        let g = sample_union_graph(1000, 4, 1);
        // 4000 samples, minus collisions: between 3.5k and 4k edges.
        assert!(
            g.edge_count() > 3500 && g.edge_count() <= 4000,
            "{}",
            g.edge_count()
        );
        let avg_deg = 2.0 * g.edge_count() as f64 / 1000.0;
        assert!((6.0..=8.5).contains(&avg_deg), "avg degree {avg_deg}");
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = sample_union_graph(64, 5, 2);
        for v in 0..64u32 {
            let nb = g.neighbors(v);
            assert!(!nb.contains(&v), "self loop at {v}");
            let mut d = nb.to_vec();
            d.dedup();
            assert_eq!(d.len(), nb.len(), "duplicate edge at {v}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(sample_union_graph(128, 3, 9), sample_union_graph(128, 3, 9));
    }

    #[test]
    fn zero_rounds_gives_empty_graph() {
        let g = sample_union_graph(16, 0, 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn topology_bridge_round_trips() {
        use phonecall::Topology;
        use std::sync::Arc;
        let g = sample_union_graph(64, 3, 4);
        let topo = Topology::FromAdjacency(Arc::new(g.clone()));
        let adj = topo.build(64, 0).expect("FromAdjacency materializes");
        assert_eq!(adj, g);
    }
}
