//! Certified diameter bounds and the bounded-depth diameter decision.
//!
//! The lower-bound experiment only needs to compare `diam(K')` with the
//! power-of-two budget `2^T`, so certified *bounds* usually suffice:
//!
//! * a **lower bound** from double-sweep BFS (the eccentricity of any
//!   vertex is a lower bound; sweeping to the farthest vertex and
//!   repeating tightens it);
//! * an **upper bound** from center eccentricities: for any vertex `c`,
//!   `diam ≤ 2·ecc(c)`, and the minimum eccentricity among sampled
//!   midpoints often certifies much less.
//!
//! The sweeps are one resumable state over one reusable BFS scratch, so
//! each search runs once however many callers read the bounds.
//!
//! When the bounds straddle the budget — the borderline cells
//! `T ≈ log₂ log₂ n` the experiment exists to show — "`diam ≤ d`" is
//! *checked*, not computed, by a **word-parallel bounded-depth BFS**: 64
//! sources advance together, one bit each, over a flat CSR copy of the
//! graph. Per level every unsaturated vertex ORs its neighbours' frontier
//! words (`next[v] = (⋁_{u ∈ N(v)} frontier[u]) & !seen[v]`), a batch ends
//! as soon as every word is full, and the scan answers "no" the moment a
//! batch exhausts its `d` levels or its frontier empties with bits
//! missing (disconnected). The exact diameter is the same kernel with the
//! depth cap lifted: the last level that set a bit. Cost:
//! `⌈n/64⌉ · levels · 2m` word-ORs, against `n · 2m` queue steps for one
//! scalar BFS per vertex.

use crate::bfs::{Search, UNREACHABLE};
use crate::graph::Graph;

/// Certified diameter bounds (`lo ≤ diam ≤ hi`); `None` when the graph is
/// disconnected (infinite diameter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiameterBounds {
    /// Certified lower bound.
    pub lo: u32,
    /// Certified upper bound.
    pub hi: u32,
}

impl DiameterBounds {
    /// Whether the bounds pin the diameter exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }
}

/// The double-sweep + midpoint refinement as one resumable state: a
/// caller that wants the bounds after 2 sweeps *and* after 4
/// ([`crate::theorem3::trial`]) reads them off the same run.
pub(crate) struct Sweeps<'g> {
    g: &'g Graph,
    search: Search,
    lo: u32,
    hi: u32,
    frontier: u32,
    done: u32,
}

impl<'g> Sweeps<'g> {
    /// The initial bounds from one BFS at vertex `0`; `None` for
    /// disconnected graphs.
    pub(crate) fn start(g: &'g Graph) -> Option<Self> {
        let mut search = Search::new(g.len());
        let (ecc, frontier) = if g.is_empty() {
            (0, 0)
        } else {
            let first = search.run(g, 0);
            if first.ecc == UNREACHABLE {
                return None;
            }
            (first.ecc, first.farthest)
        };
        Some(Sweeps {
            g,
            search,
            lo: ecc,
            hi: 2 * ecc,
            frontier,
            done: 0,
        })
    }

    /// Runs refinement iterations until `sweeps` have run in total or the
    /// bounds meet.
    pub(crate) fn advance_to(&mut self, sweeps: u32) {
        while self.done < sweeps && self.lo != self.hi {
            // Sweep: BFS from the current farthest vertex.
            let e = self.search.run(self.g, self.frontier);
            self.lo = self.lo.max(e.ecc);
            // Midpoint refinement: the middle vertex of the found long path
            // has small eccentricity; diam <= 2*ecc(mid).
            let mid = self
                .search
                .dist()
                .iter()
                .position(|&d| 2 * d >= e.ecc && 2 * d <= e.ecc + 1)
                .map_or(self.frontier, |v| v as u32);
            let mid_ecc = self.search.run(self.g, mid).ecc;
            self.hi = self.hi.min(2 * mid_ecc);
            self.frontier = e.farthest;
            self.done += 1;
        }
    }

    /// The bounds certified so far.
    pub(crate) fn bounds(&self) -> DiameterBounds {
        DiameterBounds {
            lo: self.lo,
            hi: self.hi.max(self.lo),
        }
    }

    /// Decides `diam ≤ budget` (see [`diameter_at_most`]).
    pub(crate) fn at_most(&mut self, budget: u64) -> bool {
        self.advance_to(4);
        let b = self.bounds();
        if u64::from(b.hi) <= budget {
            true
        } else if u64::from(b.lo) > budget {
            false
        } else if self.g.len() <= EXACT_LIMIT {
            scan(self.g, u32::try_from(budget).unwrap_or(u32::MAX)).is_some()
        } else {
            u64::from(multi_start_lower_bound(self.g, 24, &mut self.search)) <= budget
        }
    }
}

/// Double-sweep + midpoint bounds; `sweeps` controls how many
/// refinement iterations run (3 is plenty for random graphs).
///
/// Returns `None` for disconnected graphs.
#[must_use]
pub fn bounds(g: &Graph, sweeps: u32) -> Option<DiameterBounds> {
    let mut s = Sweeps::start(g)?;
    s.advance_to(sweeps);
    Some(s.bounds())
}

/// The word-parallel bounded-depth BFS (module docs): `Some(diam)` when
/// `g` is connected and `diam ≤ cap`, `None` otherwise — as soon as one
/// batch of 64 sources proves it.
fn scan(g: &Graph, cap: u32) -> Option<u32> {
    let n = g.len();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(2 * g.edge_count());
    offsets.push(0);
    for v in 0..n as u32 {
        targets.extend_from_slice(g.neighbors(v));
        offsets.push(targets.len());
    }
    // Bit `i` of word `v`: source `first + i` has reached (`seen`) / reached
    // at the previous level (`frontier`) / reaches at this level (`next`)
    // vertex `v`.
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut diam = 0;
    for first in (0..n).step_by(64) {
        let width = (n - first).min(64);
        // Tail mask: the last batch has `n % 64` sources.
        let full = u64::MAX >> (64 - width);
        seen.fill(0);
        frontier.fill(0);
        for i in 0..width {
            seen[first + i] = 1 << i;
            frontier[first + i] = 1 << i;
        }
        let mut unsaturated = seen.iter().filter(|&&s| s != full).count();
        let mut level = 0;
        while unsaturated > 0 {
            if level == cap {
                return None;
            }
            let mut grew = false;
            for v in 0..n {
                let s = seen[v];
                if s == full {
                    next[v] = 0;
                    continue;
                }
                let reached = targets[offsets[v]..offsets[v + 1]]
                    .iter()
                    .fold(0, |acc, &u| acc | frontier[u as usize]);
                let new = reached & !s;
                next[v] = new;
                if new != 0 {
                    grew = true;
                    seen[v] = s | new;
                    unsaturated -= usize::from(s | new == full);
                }
            }
            if !grew {
                return None;
            }
            level += 1;
            std::mem::swap(&mut frontier, &mut next);
        }
        diam = diam.max(level);
    }
    Some(diam)
}

/// Exact diameter: the word-parallel scan (module docs) with no depth
/// cap — `⌈n/64⌉ · diam · 2m` word-ORs. Returns `None` for disconnected
/// graphs.
#[must_use]
pub fn exact(g: &Graph) -> Option<u32> {
    scan(g, u32::MAX)
}

/// Largest graph on which [`diameter_at_most`] settles a
/// bound-straddling case with the scan; the experiment binaries switch
/// their certified-diameter columns to the HyperBall estimator past this
/// size. The value is pinned by committed outputs (E4's table, E11's
/// `--huge` shape table), not by the scan's cost.
pub const EXACT_LIMIT: usize = 1 << 15;

/// Decides `diam(g) ≤ budget`: tries cheap certified bounds first; when
/// they straddle the budget, falls back to the bounded-depth scan for
/// graphs up to `EXACT_LIMIT` vertices. Beyond that, the verdict uses an
/// intensified multi-sweep lower bound (double-sweep lower bounds are
/// empirically exact on random graphs; the straddling regime is a
/// one-round sliver around the threshold, so any residual error only
/// blurs the E4 transition by a single cell). `None` (disconnected)
/// counts as **no** (infinite diameter).
#[must_use]
pub fn diameter_at_most(g: &Graph, budget: u64) -> bool {
    Sweeps::start(g).is_some_and(|mut s| s.at_most(budget))
}

/// Multi-start double-sweep lower bound: repeated farthest-vertex sweeps
/// from rotating deterministic starts. Certified as a lower bound; on
/// random near-regular graphs it almost always equals the diameter.
#[must_use]
pub fn intensive_lower_bound(g: &Graph, sweeps: u32) -> u32 {
    multi_start_lower_bound(g, sweeps, &mut Search::new(g.len()))
}

/// [`intensive_lower_bound`] on the caller's BFS scratch.
fn multi_start_lower_bound(g: &Graph, sweeps: u32, search: &mut Search) -> u32 {
    if g.is_empty() {
        return 0;
    }
    let n = g.len() as u32;
    let mut lb = 0;
    let mut frontier = 0u32;
    for k in 0..sweeps {
        let e = search.run(g, frontier);
        if e.ecc == UNREACHABLE {
            return UNREACHABLE;
        }
        lb = lb.max(e.ecc);
        // Alternate between chasing the farthest vertex and fresh
        // deterministic starts spread over the vertex range.
        frontier = if k % 3 == 2 {
            ((u64::from(k) * 2_654_435_761) % u64::from(n)) as u32
        } else {
            e.farthest
        };
    }
    lb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{distances, eccentricity};
    use crate::graph::sample_union_graph;

    fn path(k: usize) -> Graph {
        let mut g = Graph::empty(k + 1);
        for i in 0..k {
            g.add_edge(i as u32, (i + 1) as u32);
        }
        g.finish();
        g
    }

    fn cycle(k: usize) -> Graph {
        let mut g = Graph::empty(k);
        for i in 0..k {
            g.add_edge(i as u32, ((i + 1) % k) as u32);
        }
        g.finish();
        g
    }

    #[test]
    fn exact_on_known_graphs() {
        assert_eq!(exact(&path(7)), Some(7));
        assert_eq!(exact(&cycle(10)), Some(5));
        assert_eq!(exact(&cycle(11)), Some(5));
    }

    #[test]
    fn scan_at_and_below_the_diameter() {
        // Sizes straddle the 64-source batch: one partial batch, exactly
        // one, one plus a one-source tail, and several.
        let mut cases: Vec<(Graph, u32)> = Vec::new();
        for n in [1usize, 2, 64, 65, 130] {
            cases.push((path(n - 1), n as u32 - 1));
        }
        for n in [3usize, 64, 65, 128] {
            cases.push((cycle(n), n as u32 / 2));
        }
        for (g, diam) in &cases {
            let n = g.len();
            assert_eq!(exact(g), Some(*diam), "n = {n}");
            assert_eq!(scan(g, *diam), Some(*diam), "n = {n}, cap = diam");
            assert!(diameter_at_most(g, u64::from(*diam)), "n = {n}");
            if *diam > 0 {
                assert_eq!(scan(g, diam - 1), None, "n = {n}, cap = diam - 1");
                assert!(!diameter_at_most(g, u64::from(diam - 1)), "n = {n}");
            }
        }
    }

    #[test]
    fn scan_matches_scalar_eccentricities() {
        for (n, t, seed) in [(40, 2, 1), (64, 3, 2), (65, 3, 3), (200, 2, 4), (333, 4, 5)] {
            let g = sample_union_graph(n, t, seed);
            let eccs: Vec<u32> = (0..n as u32).map(|v| eccentricity(&g, v).ecc).collect();
            let want = (!eccs.contains(&UNREACHABLE)).then(|| eccs.iter().copied().max().unwrap());
            assert_eq!(exact(&g), want, "n {n} t {t} seed {seed}");
        }
    }

    /// The sweep loop as it stood before it became [`Sweeps`]: three
    /// scalar searches per iteration, fresh vectors each.
    fn reference_bounds(g: &Graph, sweeps: u32) -> Option<DiameterBounds> {
        if g.is_empty() {
            return Some(DiameterBounds { lo: 0, hi: 0 });
        }
        let first = eccentricity(g, 0);
        if first.ecc == UNREACHABLE {
            return None;
        }
        let mut lo = first.ecc;
        let mut hi = 2 * first.ecc;
        let mut frontier = first.farthest;
        for _ in 0..sweeps {
            let e = eccentricity(g, frontier);
            lo = lo.max(e.ecc);
            let dist = distances(g, frontier);
            let mid = dist
                .iter()
                .position(|&d| d != UNREACHABLE && 2 * d >= e.ecc && 2 * d <= e.ecc + 1)
                .map_or(frontier, |v| v as u32);
            hi = hi.min(2 * eccentricity(g, mid).ecc);
            frontier = e.farthest;
            if lo == hi {
                break;
            }
        }
        Some(DiameterBounds { lo, hi: hi.max(lo) })
    }

    #[test]
    fn resumable_sweeps_match_the_reference_loop() {
        let mut graphs = vec![Graph::empty(0), Graph::empty(1), path(9), cycle(12)];
        for seed in 0..20 {
            graphs.push(sample_union_graph(
                50 + 37 * seed as usize,
                1 + seed as u32 % 4,
                seed,
            ));
        }
        for g in &graphs {
            for sweeps in 0..=4 {
                assert_eq!(
                    bounds(g, sweeps),
                    reference_bounds(g, sweeps),
                    "n = {}",
                    g.len()
                );
            }
            // Resuming (2, then 4) reads the same bounds as two fresh runs.
            if let Some(mut s) = Sweeps::start(g) {
                s.advance_to(2);
                assert_eq!(Some(s.bounds()), reference_bounds(g, 2));
                s.advance_to(4);
                assert_eq!(Some(s.bounds()), reference_bounds(g, 4));
            }
        }
    }

    #[test]
    fn bounds_contain_exact() {
        for seed in 0..5 {
            let g = sample_union_graph(300, 3, seed);
            if let Some(b) = bounds(&g, 3) {
                let d = exact(&g).expect("connected since bounds returned Some");
                assert!(
                    b.lo <= d && d <= b.hi,
                    "bounds [{}, {}] vs exact {d}",
                    b.lo,
                    b.hi
                );
            }
        }
    }

    #[test]
    fn decision_matches_exact() {
        for seed in 0..5 {
            let g = sample_union_graph(200, 2, seed);
            let d = exact(&g);
            for budget in [1u64, 2, 4, 8, 16, 32] {
                let want = d.is_some_and(|d| u64::from(d) <= budget);
                assert_eq!(
                    diameter_at_most(&g, budget),
                    want,
                    "seed {seed} budget {budget}"
                );
            }
        }
    }

    #[test]
    fn disconnected_is_never_within_budget() {
        let mut g = Graph::empty(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.finish();
        assert!(!diameter_at_most(&g, 1_000_000));
        assert_eq!(bounds(&g, 3), None);
        assert_eq!(exact(&g), None);
    }
}
