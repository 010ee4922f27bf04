//! Breadth-first search primitives over a CSR [`Adjacency`].

use phonecall::Adjacency;

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Reusable single-source BFS state: one distance vector and one queue,
/// sized once, so a caller running many searches over the same graph
/// (the diameter sweeps) allocates nothing per search.
#[derive(Debug)]
pub(crate) struct Search {
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Search {
    /// Scratch for graphs on `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        Search {
            dist: vec![UNREACHABLE; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Distances of the last [`Search::run`] (`UNREACHABLE` where
    /// disconnected).
    pub(crate) fn dist(&self) -> &[u32] {
        &self.dist
    }

    /// BFS from `src`, overwriting the distances of the previous search.
    fn fill(&mut self, g: &Adjacency, src: u32) {
        self.dist.fill(UNREACHABLE);
        self.queue.clear();
        self.dist[src as usize] = 0;
        self.queue.push(src);
        let (offsets, neighbors) = (g.raw_offsets(), g.raw_neighbors());
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let dv = self.dist[v as usize];
            let row = offsets[v as usize] as usize..offsets[v as usize + 1] as usize;
            for &u in &neighbors[row] {
                if self.dist[u as usize] == UNREACHABLE {
                    self.dist[u as usize] = dv + 1;
                    self.queue.push(u);
                }
            }
        }
    }

    /// BFS from `src` and its eccentricity (see [`eccentricity`]); the
    /// distances stay readable through [`Search::dist`].
    pub(crate) fn run(&mut self, g: &Adjacency, src: u32) -> Ecc {
        self.fill(g, src);
        let mut ecc = 0;
        let mut farthest = src;
        for (v, &d) in self.dist.iter().enumerate() {
            if d == UNREACHABLE {
                return Ecc {
                    ecc: UNREACHABLE,
                    farthest: v as u32,
                };
            }
            if d > ecc {
                ecc = d;
                farthest = v as u32;
            }
        }
        Ecc { ecc, farthest }
    }
}

/// BFS from `src`; returns the distance vector (`UNREACHABLE` where
/// disconnected).
#[must_use]
pub fn distances(g: &Adjacency, src: u32) -> Vec<u32> {
    let mut search = Search::new(g.len());
    search.fill(g, src);
    search.dist
}

/// Result of one eccentricity computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ecc {
    /// The eccentricity (max finite distance), or `UNREACHABLE` if some
    /// vertex is unreachable from the source.
    pub ecc: u32,
    /// A vertex realizing the eccentricity (the farthest vertex found).
    pub farthest: u32,
}

/// Eccentricity of `src`: the maximum distance to any vertex, or
/// `UNREACHABLE` when the graph is disconnected from `src`.
#[must_use]
pub fn eccentricity(g: &Adjacency, src: u32) -> Ecc {
    Search::new(g.len()).run(g, src)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-...-k.
    fn path(k: usize) -> Adjacency {
        let edges: Vec<(u32, u32)> = (0..k as u32).map(|i| (i, i + 1)).collect();
        Adjacency::from_edges(k + 1, &edges).unwrap()
    }

    #[test]
    fn distances_on_a_path() {
        let g = path(4);
        let d = distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = distances(&g, 2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn eccentricity_on_a_path() {
        let g = path(6);
        assert_eq!(eccentricity(&g, 0).ecc, 6);
        assert_eq!(eccentricity(&g, 3).ecc, 3);
        assert_eq!(eccentricity(&g, 0).farthest, 6);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Adjacency::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(eccentricity(&g, 0).ecc, UNREACHABLE);
    }

    #[test]
    fn singleton_is_connected() {
        let g = Adjacency::from_edges(1, &[]).unwrap();
        assert!(g.is_connected());
        assert_eq!(eccentricity(&g, 0).ecc, 0);
    }
}
