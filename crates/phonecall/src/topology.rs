//! **Communication topologies**: restricting the contact graph of the
//! random phone call model.
//!
//! The base model (and every experiment before E11) hardwires the
//! *complete* graph: a `Random` target is a uniformly random other node,
//! and a `Direct` target — the paper's direct-addressing assumption —
//! reaches any node whose ID the caller has learned. This module makes
//! the contact graph a first-class, seeded, validated knob:
//!
//! * a [`Topology`] names a graph family (`Ring`, `Torus2D`,
//!   `RandomRegular`, `ErdosRenyi`, `WattsStrogatz`,
//!   `PreferentialAttachment`, or an explicit [`Topology::FromAdjacency`]
//!   graph);
//! * [`Topology::build`] materializes it **once per network** as a CSR
//!   [`Adjacency`], deterministically from a seed, regenerating with a
//!   derived seed until the graph is connected (random families can
//!   draw disconnected instances; a disconnected contact graph makes
//!   every broadcast trivially unwinnable). Every generator emits one
//!   flat edge list, and a single counting pass turns it into CSR: no
//!   per-node list is ever allocated;
//! * [`DirectAddressing`] picks the *reading* of the paper on a
//!   restricted graph: [`DirectAddressing::Overlay`] lets learned-ID
//!   calls cross the graph (the topology shapes who you *meet*, but any
//!   learned address is routable — the IP-network reading), while
//!   [`DirectAddressing::Restricted`] confines direct calls to edges
//!   (the address is only usable if a physical link exists).
//!
//! With a non-complete topology installed
//! ([`crate::Network::set_topology`]), a `Random` target becomes a
//! uniformly random **alive neighbor** — crashed neighbors leave the
//! contact distribution and recovered ones re-enter it, modelling a
//! failed link-layer handshake that the caller retries within the
//! round. The neighbor draws come from their own seed-derived stream,
//! and `Topology::Complete` installs nothing at all, so complete-graph
//! runs stay bit-identical to builds that predate this module — every
//! pre-topology golden digest still holds.
//!
//! Everything here follows the [`crate::ChurnConfig`] contract: validated
//! knobs that name the offending field, determinism per `(config,
//! seed)`, and no per-round allocation (the adjacency is built once per
//! network; sampling scans a CSR row). The topology seed is derived
//! from the trial seed, so each trial of a random family builds its own
//! graph; only `Ring`, `Torus2D` and file-loaded graphs are the same in
//! every trial.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bitset::BitSet;
use crate::id::NodeIdx;
use crate::knob::{self, Kind, Knob, Knobs, Slot};
use crate::rng::{derive_seed, rng_from_seed};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// How direct addressing interacts with a restricted contact graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirectAddressing {
    /// Learned-ID calls may cross the graph: the topology constrains only
    /// the *address-oblivious* (`Random`) contacts, while any learned
    /// address is routable — gossip over an IP network whose peer
    /// sampling is topology-bound. This is the default, and the setting
    /// under which the paper's direct-addressing advantage is expected
    /// to survive sparsification.
    #[default]
    Overlay,
    /// Learned-ID calls are confined to edges: a direct call to a
    /// non-neighbor is lost in the void (the attempt is still charged,
    /// exactly like a call to an unknown address). Address knowledge
    /// without a link is worthless here, so this is the setting where
    /// the `log log n` advantage can collapse.
    Restricted,
}

impl DirectAddressing {
    /// Stable lowercase label, for tables and plot series.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DirectAddressing::Overlay => "overlay",
            DirectAddressing::Restricted => "restricted",
        }
    }
}

/// A communication-graph family with its knobs. The default —
/// [`Topology::Complete`] — is the base model and installs nothing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// The complete graph: the paper's base model. Never materialized;
    /// installing it leaves the engine on its original sampling path,
    /// bit-identical to pre-topology builds.
    #[default]
    Complete,
    /// A cycle: node `i` is linked to `i ± 1 (mod n)`. Degree 2,
    /// diameter `⌊n/2⌋` — the sparsest connected extreme.
    Ring,
    /// A 2-D torus on an `r × c` grid with `r·c = n`, `r` the largest
    /// divisor of `n` at most `√n`. Degree ≤ 4, diameter `Θ(√n)` for
    /// near-square factorizations; a prime `n` degenerates to a ring.
    Torus2D,
    /// A uniformly random simple `d`-regular graph (pairing model with
    /// stub repair). Diameter `Θ(log n / log (d-1))` — the classic
    /// expander-like testbed. `n·d` must be even.
    RandomRegular(u32),
    /// An Erdős–Rényi `G(n, p)`: each pair is an edge independently
    /// with probability `p`. Connected instances require roughly
    /// `p ≳ ln n / n`; sparser settings exhaust the regeneration budget
    /// and panic rather than silently running a partitioned broadcast.
    ErdosRenyi(f64),
    /// A Watts–Strogatz small world: a ring lattice where every node
    /// links to its `k/2` nearest neighbors per side (`k` even), each
    /// lattice edge rewired with probability `beta`.
    WattsStrogatz(u32, f64),
    /// A Barabási–Albert preferential-attachment graph: nodes arrive one
    /// at a time and link to `m` distinct existing nodes with
    /// probability proportional to degree (seeded from an `(m+1)`-clique).
    /// Heavy-tailed degrees — the hub-and-spoke stress test for fan-in.
    PreferentialAttachment(u32),
    /// An explicit graph, already in CSR form (built with
    /// [`Adjacency::from_edges`] from any external edge list) and
    /// shared, so every network built from this topology copies the
    /// arrays instead of rebuilding them. Exempt from the connectivity
    /// requirement — a supplied graph is used as-is, partitions
    /// included.
    FromAdjacency(Arc<Adjacency>),
    /// A real-graph snapshot loaded from a SNAP-style edge-list file
    /// (see [`crate::dataset`]): whitespace-separated node-id pairs,
    /// `#` comments, arbitrary non-contiguous ids. Parsed once and
    /// memoized in a binary CSR cache next to the source file. Like
    /// [`Topology::FromAdjacency`], the snapshot is used as-is —
    /// exempt from the connectivity requirement.
    FromFile(String),
}

/// Attempts per [`Topology::build`] before concluding the knobs cannot
/// produce a connected graph at this `n`.
const BUILD_ATTEMPTS: u64 = 64;

/// Stream label for regeneration draws: retries run on
/// `derive_seed(derive_seed(seed, RETRY_STREAM), attempt)` so the
/// attempt counter never walks through labels other streams own on the
/// shared scenario seed (attempt values 1..=6 would otherwise collide
/// with the engine's reserved streams). The first draw stays on
/// `derive_seed(seed, 0)`, which it has always used.
const RETRY_STREAM: u64 = 0x7e7a;

impl Topology {
    /// Stable family name (also the `--topo` CLI name; matching is case-
    /// and separator-insensitive).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Complete => "Complete",
            Topology::Ring => "Ring",
            Topology::Torus2D => "Torus2D",
            Topology::RandomRegular(_) => "RandomRegular",
            Topology::ErdosRenyi(_) => "ErdosRenyi",
            Topology::WattsStrogatz(..) => "WattsStrogatz",
            Topology::PreferentialAttachment(_) => "PreferentialAttachment",
            Topology::FromAdjacency(_) => "FromAdjacency",
            Topology::FromFile(_) => "FromFile",
        }
    }

    /// Whether this is the complete graph (the base model; nothing is
    /// materialized or installed for it).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Topology::Complete)
    }

    /// Materializes the topology for `n` nodes as a CSR [`Adjacency`],
    /// or `None` for [`Topology::Complete`] (which has no materialized
    /// form — the engine keeps its original uniform sampling).
    ///
    /// Deterministic per `(topology, n, seed)`. Random families draw
    /// their first attempt from `derive_seed(seed, 0)` and regenerate
    /// on a dedicated retry stream (`derive_seed(derive_seed(seed,
    /// RETRY_STREAM), attempt)`) when an attempt comes out disconnected
    /// (or, for the pairing model, unpairable), so callers always
    /// receive a connected graph without the attempt counter ever
    /// touching labels other streams own on the scenario seed.
    /// [`Topology::FromAdjacency`] is used verbatim.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`Topology::validate`] or
    /// [`Topology::check`] (an adjacency whose size is not `n` among
    /// them), or if no connected instance emerges within the
    /// regeneration budget — all with the offending knob named.
    #[must_use]
    pub fn build(&self, n: usize, seed: u64) -> Option<Adjacency> {
        if let Err(e) = self.validate() {
            panic!("invalid topology: {e}");
        }
        if self.is_complete() {
            return None;
        }
        if let Err(e) = self.check(n) {
            panic!("invalid topology: {e}");
        }
        if let Topology::FromAdjacency(adj) = self {
            return Some(Adjacency::clone(adj));
        }
        if let Topology::FromFile(path) = self {
            let adj =
                crate::dataset::load(path).unwrap_or_else(|e| panic!("invalid topology: {e}"));
            assert_eq!(
                adj.len(),
                n,
                "topology knob \"path\": {path:?} describes {} nodes but the network has {n}",
                adj.len()
            );
            return Some(adj);
        }
        for attempt in 0..BUILD_ATTEMPTS {
            // First draw on the long-established label 0; retries on a
            // dedicated derived stream (see `RETRY_STREAM`).
            let mut rng = rng_from_seed(if attempt == 0 {
                derive_seed(seed, 0)
            } else {
                derive_seed(derive_seed(seed, RETRY_STREAM), attempt)
            });
            let edges = match self {
                Topology::Ring => Some(ring(n)),
                Topology::Torus2D => Some(torus2d(n)),
                Topology::RandomRegular(d) => random_regular(n, *d as usize, &mut rng),
                Topology::ErdosRenyi(p) => Some(erdos_renyi(n, *p, &mut rng)),
                Topology::WattsStrogatz(k, beta) => {
                    Some(watts_strogatz(n, *k as usize, *beta, &mut rng))
                }
                Topology::PreferentialAttachment(m) => {
                    Some(preferential_attachment(n, *m as usize, &mut rng))
                }
                Topology::Complete | Topology::FromAdjacency(_) | Topology::FromFile(_) => {
                    unreachable!()
                }
            };
            let adj = edges.map(|edges| {
                Adjacency::from_edges(n, &edges).expect("generators emit in-range, loop-free edges")
            });
            if let Some(adj) = adj.filter(Adjacency::is_connected) {
                return Some(adj);
            }
        }
        panic!(
            "topology {} failed to produce a connected graph on n = {n} in {BUILD_ATTEMPTS} attempts; raise its density knobs",
            self.describe()
        );
    }

    /// Whether the knobs fit a network of `n` nodes: the `n`-dependent
    /// rules [`Topology::validate`] cannot check (`degree < n`, `n·degree`
    /// even, `k < n`, `m < n`, an adjacency of exactly `n` nodes) and
    /// `n ≥ 2`.
    /// [`Topology::build`] panics where this fails; a front end calls it
    /// first to report the error instead. A `FromFile` graph's size is
    /// not checked here: that needs the file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob (or `n`).
    pub fn check(&self, n: usize) -> Result<(), String> {
        if n < 2 {
            return Err(format!("gossip needs at least two nodes, got n = {n}"));
        }
        if let Topology::FromAdjacency(adj) = self {
            if adj.len() != n {
                return Err(format!(
                    "topology knob \"adjacency\" describes {} nodes but the network has {n}",
                    adj.len()
                ));
            }
        }
        let (knob, wants, got) = match *self {
            Topology::RandomRegular(d) if d as usize >= n => ("degree", "degree < n", d),
            Topology::RandomRegular(d) if !(n * d as usize).is_multiple_of(2) => {
                ("degree", "n * degree even (stubs must pair up)", d)
            }
            Topology::WattsStrogatz(k, _) if k as usize >= n => ("k", "k < n", k),
            Topology::PreferentialAttachment(m) if m as usize >= n => ("m", "m < n", m),
            _ => return Ok(()),
        };
        Err(format!(
            "topology knob {knob:?} wants {wants}, got {knob} {got} on n = {n}"
        ))
    }

    /// Human-readable name with knob values, e.g. `RandomRegular(d=8)`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Topology::Complete | Topology::Ring | Topology::Torus2D => self.name().to_string(),
            Topology::RandomRegular(d) => format!("RandomRegular(d={d})"),
            Topology::ErdosRenyi(p) => format!("ErdosRenyi(p={p})"),
            Topology::WattsStrogatz(k, beta) => format!("WattsStrogatz(k={k}, beta={beta})"),
            Topology::PreferentialAttachment(m) => format!("PreferentialAttachment(m={m})"),
            Topology::FromAdjacency(adj) => format!("FromAdjacency({} nodes)", adj.len()),
            Topology::FromFile(path) => format!("FromFile({path})"),
        }
    }

    /// The CLI catalog: `(spec, description)` per selectable family, in
    /// listing order. [`Topology::FromAdjacency`] is programmatic-only
    /// and deliberately absent.
    #[must_use]
    pub fn catalog() -> Vec<&'static (&'static str, &'static str)> {
        FAMILIES.iter().map(|f| &f.catalog).collect()
    }

    /// Parses a `--topo` spec: a catalog name, optionally followed by
    /// `:param[,param]` numeric knobs. Name matching is case- and
    /// separator-insensitive (`random-regular:8`, `RandomRegular:8` and
    /// `random_regular:8` agree); omitted knobs take the catalog
    /// defaults. The one non-numeric spec is `file:<path>`, which loads
    /// a SNAP-style edge list via [`crate::dataset`]; the path after
    /// the first `:` is kept verbatim.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid topology specs for an
    /// unknown family, and a knob-shaped message (via
    /// [`Topology::validate`]) for unparsable or out-of-range knobs.
    pub fn parse_spec(spec: &str) -> Result<Topology, String> {
        let (name, params) = spec.split_once(':').unwrap_or((spec, ""));
        // `file:` keeps its payload verbatim — a path is case- and
        // separator-sensitive, unlike the family names (and may itself
        // contain `:` or `,`), so it bypasses the knob machinery.
        if name.eq_ignore_ascii_case("file") {
            let topo = Topology::FromFile(params.trim().to_string());
            topo.validate()?;
            return Ok(topo);
        }
        // `torus` is short for `torus2d`.
        let key = knob::normalize(name);
        let key = if key == "torus" { key + "2d" } else { key };
        let family = FAMILIES
            .iter()
            .find(|f| knob::normalize(f.catalog.0.split([':', '[']).next().unwrap_or("")) == key)
            .ok_or_else(|| {
                let specs: Vec<&str> = Self::catalog().iter().map(|(s, _)| *s).collect();
                format!(
                    "unknown topology {name:?}; valid specs (case-insensitive): {}",
                    specs.join(", ")
                )
            })?;
        let mut topo = family.default.clone();
        let mut given = params.split(',').map(str::trim).filter(|s| !s.is_empty());
        for (knob, slot) in topo.knobs() {
            let Some(raw) = given.next() else { break };
            let v: f64 = raw
                .parse()
                .map_err(|_| format!("topology knob {knob:?} wants a number, got {raw:?}"))?;
            match slot {
                Slot::F64(x) => *x = v,
                // Integer knobs parse exactly, not via an `as` cast: `8.9`
                // must not silently run a different graph, and `-3` must
                // not saturate into a misleading range error.
                Slot::U32(x) if f64::from(v as u32) == v => *x = v as u32,
                _ => return Err(format!("topology knob {knob:?} wants an integer, got {v}")),
            }
        }
        if let Some(extra) = given.next() {
            return Err(format!("topology {name:?} got an extra knob {extra:?}"));
        }
        topo.validate()?;
        Ok(topo)
    }
}

/// The `--topo` families, once: the value a bare spec builds (its knobs
/// are the `--topo` defaults) and its `--list-topos` line.
/// [`Topology::FromAdjacency`] is programmatic-only and has no row.
#[rustfmt::skip]
static FAMILIES: [Kind<Topology>; 8] = [
    Kind { default: Topology::Complete,
        catalog: ("complete", "the base model: every pair is an edge") },
    Kind { default: Topology::Ring,
        catalog: ("ring", "cycle, degree 2, diameter n/2") },
    Kind { default: Topology::Torus2D,
        catalog: ("torus2d", "2-D torus grid, degree <= 4, diameter ~sqrt(n)") },
    Kind { default: Topology::RandomRegular(8),
        catalog: ("random-regular[:d]", "random simple d-regular graph (default d = 8)") },
    Kind { default: Topology::ErdosRenyi(0.05),
        catalog: ("erdos-renyi[:p]",
            "G(n, p) random graph (default p = 0.05; needs p >~ ln n / n)") },
    Kind { default: Topology::WattsStrogatz(6, 0.2),
        catalog: ("watts-strogatz[:k,beta]",
            "small world: k-lattice, beta rewiring (default 6, 0.2)") },
    Kind { default: Topology::PreferentialAttachment(4),
        catalog: ("preferential-attachment[:m]",
            "Barabasi-Albert scale-free, m links per arrival (default m = 4)") },
    Kind { default: Topology::FromFile(String::new()),
        catalog: ("file:<path>",
            "SNAP-style edge list loaded from <path> (cached as <path>.csrcache)") },
];

/// The positional `--topo` knobs of each family, in spec order.
impl Knobs for Topology {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        match self {
            Topology::RandomRegular(d) => vec![("degree", Slot::U32(d))],
            Topology::ErdosRenyi(p) => vec![("p", Slot::F64(p))],
            Topology::WattsStrogatz(k, beta) => {
                vec![("k", Slot::U32(k)), ("beta", Slot::F64(beta))]
            }
            Topology::PreferentialAttachment(m) => vec![("m", Slot::U32(m))],
            _ => Vec::new(),
        }
    }

    /// Validates every knob, naming the offending one in the error
    /// (the [`crate::ChurnConfig::validate`] convention).
    ///
    /// # Errors
    ///
    /// Returns a message like
    /// `topology knob "degree" wants an integer >= 2, got 1` for the
    /// first invalid knob. Knobs that depend on `n` (e.g. `degree < n`)
    /// are checked by [`Topology::check`] instead.
    fn validate(&self) -> Result<(), String> {
        let (knob, wants, got) = match self {
            Topology::RandomRegular(d) if *d < 2 => (
                "degree",
                "an integer >= 2 (degree-1 graphs are disconnected matchings)",
                d.to_string(),
            ),
            Topology::ErdosRenyi(p) if !(*p > 0.0 && *p <= 1.0) => {
                ("p", "a probability in (0, 1]", p.to_string())
            }
            Topology::WattsStrogatz(k, _) if *k < 2 || *k % 2 != 0 => {
                ("k", "an even integer >= 2", k.to_string())
            }
            Topology::WattsStrogatz(_, beta) if !(0.0..=1.0).contains(beta) => {
                ("beta", "a probability in [0, 1]", beta.to_string())
            }
            Topology::PreferentialAttachment(m) if *m < 1 => {
                ("m", "an integer >= 1", m.to_string())
            }
            Topology::FromAdjacency(adj) if adj.is_empty() => (
                "adjacency",
                "at least one node's neighbor list",
                "none".into(),
            ),
            Topology::FromFile(path) if path.trim().is_empty() => (
                "path",
                "a non-empty edge-list file path",
                format!("{path:?}"),
            ),
            _ => return Ok(()),
        };
        Err(format!("topology knob {knob:?} wants {wants}, got {got}"))
    }
}

/// A materialized undirected graph in CSR form: one sorted,
/// duplicate-free neighbor row per node in one `neighbors` column, built
/// once at install time so the round loop never allocates or chases
/// pointers. Every constructor except the cache's `from_csr` goes
/// through one edge-list builder, [`Adjacency::from_edges`]; the
/// topology generators, the dataset loader and `gossip-lowerbound`'s
/// union graph all share it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    /// Row offsets into `neighbors`; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor rows.
    neighbors: Vec<u32>,
}

impl Adjacency {
    /// Builds from an undirected edge list in one counting pass: count
    /// both endpoints of every edge, prefix-sum the counts into
    /// `offsets`, scatter both directions into one `neighbors` column,
    /// then sort and deduplicate each row in place, compacting the
    /// column and rewriting `offsets` as it goes. Parallel edges and
    /// both orientations of one edge collapse to a single entry per
    /// endpoint, so the edge list may be directed, repeated or both;
    /// nodes no edge mentions get empty rows.
    ///
    /// The column keeps the capacity of the scatter, `2·edges.len()`:
    /// the slack is the duplicates removed. Shrinking it would
    /// reallocate megabytes per build, which fragments the heap when
    /// graphs are built one after another.
    ///
    /// # Errors
    ///
    /// Nothing is built, and the message names the offending entry,
    /// when:
    /// * an endpoint lies outside `0..n` — the first such edge in list
    ///   order: "adjacency lists node `v` as neighbor of `u`, outside
    ///   `0..n`", with `u` the out-of-range endpoint;
    /// * otherwise, an edge is a self-loop — the lowest such node:
    ///   "adjacency lists node `v` as its own neighbor (self-loop)";
    /// * the list has more half-edges than a `u32` offset can address.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, String> {
        if edges.len() > (u32::MAX / 2) as usize {
            return Err(format!(
                "{} edges overflow the u32 CSR offsets",
                edges.len()
            ));
        }
        // offsets[v] counts v's half-edges, then (prefix sum) marks the
        // end of its row, then (scatter, back to front) its start.
        let mut offsets = vec![0u32; n + 1];
        let mut self_loop: Option<u32> = None;
        for &(v, u) in edges {
            if v as usize >= n || u as usize >= n {
                let (v, u) = if u as usize >= n { (v, u) } else { (u, v) };
                return Err(format!(
                    "adjacency lists node {v} as neighbor of {u}, outside 0..{n}"
                ));
            }
            if v == u {
                self_loop = Some(self_loop.map_or(v, |w| w.min(v)));
            } else {
                offsets[v as usize] += 1;
                offsets[u as usize] += 1;
            }
        }
        if let Some(v) = self_loop {
            return Err(format!(
                "adjacency lists node {v} as its own neighbor (self-loop)"
            ));
        }
        let mut total = 0u32;
        for end in &mut offsets[..n] {
            total += *end;
            *end = total;
        }
        offsets[n] = total;
        let mut neighbors = vec![0u32; total as usize];
        for &(v, u) in edges {
            offsets[v as usize] -= 1;
            neighbors[offsets[v as usize] as usize] = u;
            offsets[u as usize] -= 1;
            neighbors[offsets[u as usize] as usize] = v;
        }
        let mut kept = 0usize;
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            offsets[v] = kept as u32;
            neighbors[lo..hi].sort_unstable();
            let mut last = None;
            for i in lo..hi {
                let u = neighbors[i];
                if last != Some(u) {
                    neighbors[kept] = u;
                    kept += 1;
                    last = Some(u);
                }
            }
        }
        offsets[n] = kept as u32;
        neighbors.truncate(kept);
        Ok(Adjacency { offsets, neighbors })
    }

    /// Rebuilds from raw CSR arrays (the [`crate::dataset`] cache
    /// path), re-validating every structural invariant the rest of the
    /// crate relies on: `offsets` starts at 0, is non-decreasing, and
    /// ends at `neighbors.len()`; every row is strictly increasing
    /// (sorted, duplicate-free, binary-searchable) with in-range,
    /// non-self neighbors.
    ///
    /// Symmetry is *not* re-checked here — the arrays are only ever
    /// serialized from an already-symmetrized [`Adjacency`], and the
    /// cache layer's checksum catches bit rot.
    pub(crate) fn from_csr(offsets: Vec<u32>, neighbors: Vec<u32>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("CSR offsets must start at 0".to_string());
        }
        let n = offsets.len() - 1;
        if offsets.last().copied().unwrap_or(0) as usize != neighbors.len() {
            return Err(format!(
                "CSR offsets end at {} but there are {} neighbor entries",
                offsets.last().unwrap(),
                neighbors.len()
            ));
        }
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            if lo > hi {
                return Err(format!("CSR offsets decrease at node {v}"));
            }
            let row = &neighbors[lo..hi];
            for (i, &u) in row.iter().enumerate() {
                if u as usize >= n {
                    return Err(format!(
                        "adjacency lists node {v} as neighbor of {u}, outside 0..{n}"
                    ));
                }
                if u as usize == v {
                    return Err(format!(
                        "adjacency lists node {v} as its own neighbor (self-loop)"
                    ));
                }
                if i > 0 && row[i - 1] >= u {
                    return Err(format!("CSR row of node {v} is not strictly increasing"));
                }
            }
        }
        Ok(Adjacency { offsets, neighbors })
    }

    /// The raw CSR row-offset array (length `n + 1`): row `v` is
    /// `raw_neighbors()[raw_offsets()[v]..raw_offsets()[v + 1]]`. For
    /// serialization, and for loops over every row that would otherwise
    /// re-slice through [`Adjacency::neighbors`] once per node.
    #[must_use]
    pub fn raw_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated neighbor rows (see [`Adjacency::raw_offsets`]).
    #[must_use]
    pub fn raw_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted neighbor row of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        &self.neighbors[lo as usize..hi as usize]
    }

    /// Degree of `v`.
    #[must_use]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Maximum degree over all nodes.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.len() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge (`O(log deg)` binary search — this is
    /// the per-message check of [`DirectAddressing::Restricted`]).
    #[must_use]
    pub fn contains_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether the graph is connected (BFS from node 0).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        // A flat queue: `queue[head..]` is the frontier, and everything
        // ever reached stays behind `head`.
        let mut queue = Vec::with_capacity(n);
        seen[0] = true;
        queue.push(0u32);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &u in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push(u);
                }
            }
        }
        queue.len() == n
    }

    /// Samples a uniformly random **alive** neighbor of `src`, or `None`
    /// when every neighbor is down (the node sits the round out).
    ///
    /// Exactly one RNG draw per call with at least one alive neighbor
    /// (and zero draws otherwise), so the stream stays stable under
    /// engine refactors; two `O(deg)` scans, no allocation.
    #[must_use]
    pub fn sample_alive_neighbor(
        &self,
        rng: &mut SmallRng,
        src: NodeIdx,
        alive: &BitSet,
    ) -> Option<NodeIdx> {
        let row = self.neighbors(src.0);
        let alive_deg = row.iter().filter(|&&u| alive.get(u as usize)).count();
        if alive_deg == 0 {
            return None;
        }
        let pick = rng.gen_range(0..alive_deg);
        let mut seen = 0;
        for &u in row {
            if alive.get(u as usize) {
                if seen == pick {
                    return Some(NodeIdx(u));
                }
                seen += 1;
            }
        }
        unreachable!("pick < alive_deg");
    }
}

// ----------------------------------------------------------------------
// Generators. Each returns one flat edge list over `0..n`: every pair is
// in range and loop-free, and an edge may appear more than once, in
// either orientation. `build` turns the list into CSR through
// `Adjacency::from_edges`, which symmetrizes and deduplicates, and then
// checks connectivity. A generator that needs to ask "is this edge
// already there?" while it draws keeps its own fixed-width `Rows` table.
// ----------------------------------------------------------------------

/// Fixed-width neighbor rows in one flat table: row `v` owns the `width`
/// slots from `v · width` and holds its first `len[v]` of them. The
/// generators' duplicate tests scan these rows, and no row outgrows its
/// width.
struct Rows {
    width: usize,
    slots: Vec<u32>,
    len: Vec<u32>,
}

impl Rows {
    fn new(n: usize, width: usize) -> Self {
        Rows {
            width,
            slots: vec![0; n * width],
            len: vec![0; n],
        }
    }

    fn row(&self, v: usize) -> &[u32] {
        &self.slots[v * self.width..][..self.len[v] as usize]
    }

    fn row_mut(&mut self, v: usize) -> &mut [u32] {
        &mut self.slots[v * self.width..][..self.len[v] as usize]
    }

    fn push(&mut self, v: usize, u: u32) {
        debug_assert!((self.len[v] as usize) < self.width, "row {v} is full");
        self.slots[v * self.width + self.len[v] as usize] = u;
        self.len[v] += 1;
    }
}

fn ring(n: usize) -> Vec<(u32, u32)> {
    (0..n).map(|v| (v as u32, ((v + 1) % n) as u32)).collect()
}

/// Factorizes `n` as `r × c` with `r` the largest divisor at most `√n`
/// (a prime `n` yields `1 × n`, i.e. a ring).
fn torus2d(n: usize) -> Vec<(u32, u32)> {
    let mut rows = 1;
    let mut r = (n as f64).sqrt().floor() as usize;
    while r >= 1 {
        if n.is_multiple_of(r) {
            rows = r;
            break;
        }
        r -= 1;
    }
    let cols = n / rows;
    let mut edges = Vec::with_capacity(2 * n);
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            // A 1-wide dimension has no wrap edge — `(c + 1) % 1` would
            // be a self-loop, which `Adjacency::from_edges` rejects.
            if cols > 1 {
                edges.push((at(r, c), at(r, (c + 1) % cols)));
            }
            if rows > 1 {
                edges.push((at(r, c), at((r + 1) % rows, c)));
            }
        }
    }
    edges
}

/// Pairing-model random regular graph with stub repair: shuffle `n·d`
/// stubs, pair left to right, and when a candidate pair is a self-loop
/// or duplicate, swap in a random later stub (bounded retries). Returns
/// `None` when repair gets stuck so the caller re-attempts with a fresh
/// derived seed.
fn random_regular(n: usize, d: usize, rng: &mut SmallRng) -> Option<Vec<(u32, u32)>> {
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    stubs.shuffle(rng);
    // Both endpoints record each pairing; a node has `d` stubs, so its
    // row never holds more than `d` neighbors.
    let mut paired_with = Rows::new(n, d);
    let mut edges = Vec::with_capacity(n * d / 2);
    let mut i = 0;
    while i < stubs.len() {
        let u = stubs[i];
        let mut paired = false;
        for _ in 0..64 {
            let j = rng.gen_range(i + 1..stubs.len());
            let v = stubs[j];
            if u != v && !paired_with.row(u as usize).contains(&v) {
                stubs.swap(i + 1, j);
                paired_with.push(u as usize, v);
                paired_with.push(v as usize, u);
                edges.push((u, v));
                paired = true;
                break;
            }
        }
        if !paired {
            return None;
        }
        i += 2;
    }
    Some(edges)
}

/// `G(n, p)` via geometric skipping over the `n(n-1)/2` pair stream:
/// `O(n + |E|)` rather than a coin per pair.
fn erdos_renyi(n: usize, p: f64, rng: &mut SmallRng) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    let (mut u, mut v) = (0usize, 1usize);
    let advance = |u: &mut usize, v: &mut usize, by: u64| {
        let mut by = by;
        loop {
            let remaining = (n - *v) as u64;
            if by < remaining {
                *v += by as usize;
                return;
            }
            by -= remaining;
            *u += 1;
            *v = *u + 1;
            if *u >= n - 1 {
                *v = n; // exhausted
                return;
            }
        }
    };
    loop {
        if u >= n - 1 || v >= n {
            break;
        }
        let draw: f64 = rng.gen();
        let skip = if p >= 1.0 {
            0
        } else {
            ((1.0 - draw).ln() / (1.0 - p).ln()).floor() as u64
        };
        advance(&mut u, &mut v, skip);
        if u >= n - 1 || v >= n {
            break;
        }
        edges.push((u as u32, v as u32));
        advance(&mut u, &mut v, 1);
    }
    edges
}

fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut SmallRng) -> Vec<(u32, u32)> {
    // The ring lattice, as directed "forward" half-edges: `k/2` per node.
    let mut forward = Rows::new(n, k / 2);
    let has_edge = |f: &Rows, a: usize, b: u32| {
        f.row(a).contains(&b) || f.row(b as usize).contains(&(a as u32))
    };
    for v in 0..n {
        for j in 1..=k / 2 {
            let w = ((v + j) % n) as u32;
            if !has_edge(&forward, v, w) {
                forward.push(v, w);
            }
        }
    }
    // Rewire each lattice edge's far endpoint with probability beta.
    for v in 0..n {
        for slot in 0..forward.row(v).len() {
            if beta > 0.0 && rng.gen_bool(beta) {
                for _ in 0..64 {
                    let w = rng.gen_range(0..n as u32);
                    if w as usize != v && !has_edge(&forward, v, w) {
                        forward.row_mut(v)[slot] = w;
                        break;
                    }
                }
            }
        }
    }
    (0..n)
        .flat_map(|v| forward.row(v).iter().map(move |&w| (v as u32, w)))
        .collect()
}

fn preferential_attachment(n: usize, m: usize, rng: &mut SmallRng) -> Vec<(u32, u32)> {
    let core = (m + 1).min(n);
    let mut edges = Vec::with_capacity(m * n);
    // Degree-proportional sampling pool: one entry per half-edge.
    let mut pool: Vec<u32> = Vec::with_capacity(2 * m * n);
    for v in 0..core {
        for w in v + 1..core {
            edges.push((v as u32, w as u32));
            pool.push(v as u32);
            pool.push(w as u32);
        }
    }
    let mut chosen: Vec<u32> = Vec::with_capacity(m);
    for v in core..n {
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < m && guard < 64 * m {
            let w = pool[rng.gen_range(0..pool.len())];
            if w as usize != v && !chosen.contains(&w) {
                chosen.push(w);
            }
            guard += 1;
        }
        for &w in &chosen {
            edges.push((v as u32, w));
            pool.push(v as u32);
            pool.push(w);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(t: &Topology, n: usize, seed: u64) -> Adjacency {
        t.build(n, seed)
            .expect("non-complete topologies materialize")
    }

    #[test]
    fn complete_materializes_nothing() {
        assert!(Topology::Complete.build(64, 1).is_none());
        assert!(Topology::Complete.is_complete());
        assert!(Topology::default().is_complete());
    }

    #[test]
    fn ring_shape() {
        let adj = built(&Topology::Ring, 8, 1);
        assert_eq!(adj.edge_count(), 8);
        assert_eq!(adj.max_degree(), 2);
        assert_eq!(adj.neighbors(0), &[1, 7]);
        assert!(adj.contains_edge(3, 4) && !adj.contains_edge(3, 5));
        assert!(adj.is_connected());
    }

    #[test]
    fn two_node_ring_is_a_single_edge() {
        let adj = built(&Topology::Ring, 2, 1);
        assert_eq!(adj.edge_count(), 1);
        assert_eq!(adj.neighbors(0), &[1]);
    }

    #[test]
    fn torus_shape() {
        // 16 = 4 x 4: degree exactly 4 everywhere.
        let adj = built(&Topology::Torus2D, 16, 1);
        assert_eq!(adj.max_degree(), 4);
        assert_eq!(adj.edge_count(), 32);
        assert!(adj.is_connected());
        // A prime n degenerates to a ring.
        let adj = built(&Topology::Torus2D, 13, 1);
        assert_eq!(adj.max_degree(), 2);
        assert!(adj.is_connected());
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        for seed in 0..4 {
            let adj = built(&Topology::RandomRegular(8), 128, seed);
            for v in 0..128u32 {
                assert_eq!(adj.degree(v), 8, "node {v} at seed {seed}");
            }
            assert!(adj.is_connected());
        }
    }

    #[test]
    fn erdos_renyi_density_tracks_p() {
        let adj = built(&Topology::ErdosRenyi(0.05), 512, 3);
        let expect = 0.05 * 512.0 * 511.0 / 2.0;
        let got = adj.edge_count() as f64;
        assert!(
            (got - expect).abs() < 0.25 * expect,
            "edges {got} vs expected {expect}"
        );
        assert!(adj.is_connected());
    }

    #[test]
    fn watts_strogatz_rewires_but_stays_connected() {
        let lattice = built(&Topology::WattsStrogatz(6, 0.0), 128, 4);
        assert_eq!(lattice.max_degree(), 6, "beta 0 is the pure lattice");
        let rewired = built(&Topology::WattsStrogatz(6, 0.3), 128, 4);
        assert!(rewired.is_connected());
        assert_ne!(lattice, rewired, "beta 0.3 must actually rewire");
    }

    #[test]
    fn preferential_attachment_grows_hubs() {
        let adj = built(&Topology::PreferentialAttachment(3), 256, 5);
        assert!(adj.is_connected());
        assert!(
            adj.max_degree() > 12,
            "scale-free graphs grow hubs, max degree {}",
            adj.max_degree()
        );
        // Every non-core arrival contributes >= 1 (usually m) edges.
        assert!(adj.edge_count() >= 256 - 4);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        for t in [
            Topology::RandomRegular(6),
            Topology::ErdosRenyi(0.08),
            Topology::WattsStrogatz(4, 0.25),
            Topology::PreferentialAttachment(2),
        ] {
            assert_eq!(built(&t, 96, 11), built(&t, 96, 11), "{}", t.name());
            assert_ne!(built(&t, 96, 11), built(&t, 96, 12), "{}", t.name());
        }
    }

    #[test]
    fn from_adjacency_symmetrizes_and_normalizes() {
        // Directed, duplicated input comes out clean: the parallel
        // `0-1` edge collapses and every edge is mirrored.
        let adj = Adjacency::from_edges(3, &[(0, 1), (0, 1), (1, 2)]).unwrap();
        assert_eq!(adj.neighbors(0), &[1]);
        assert_eq!(adj.neighbors(1), &[0, 2]);
        assert_eq!(adj.neighbors(2), &[1]);
        assert_eq!(adj.edge_count(), 2);
    }

    #[test]
    fn from_adjacency_rejects_out_of_range() {
        let err = Adjacency::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(err.contains("outside 0..2"), "{err}");
    }

    #[test]
    fn from_adjacency_rejects_self_loops_naming_the_node() {
        let err = Adjacency::from_edges(2, &[(0, 1), (1, 1)]).unwrap_err();
        assert!(err.contains("node 1") && err.contains("self-loop"), "{err}");
    }

    /// A [`Topology::FromAdjacency`] over the graph `edges` spans.
    fn explicit(n: usize, edges: &[(u32, u32)]) -> Topology {
        Topology::FromAdjacency(Arc::new(Adjacency::from_edges(n, edges).unwrap()))
    }

    #[test]
    fn from_adjacency_topology_allows_disconnection() {
        // A supplied graph is used as-is — partitions included.
        let t = explicit(4, &[(0, 1), (2, 3)]);
        let adj = t.build(4, 0).unwrap();
        assert!(!adj.is_connected());
        assert_eq!(adj.edge_count(), 2);
    }

    /// The edge list of per-node neighbor lists: `(v, u)` for every `u`
    /// in row `v`, rows in order.
    fn list_edges(lists: &[Vec<u32>]) -> Vec<(u32, u32)> {
        let mut edges = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for (v, row) in lists.iter().enumerate() {
            edges.extend(row.iter().map(|&u| (v as u32, u)));
        }
        edges
    }

    /// The builder `from_edges` replaced, kept as its reference: mirror
    /// every listed edge into the other endpoint's list, then check,
    /// sort and deduplicate each row, and copy the rows into CSR.
    fn reference_from_lists(mut lists: Vec<Vec<u32>>) -> Result<Adjacency, String> {
        let n = lists.len();
        for (v, row) in lists.iter().enumerate() {
            for &u in row {
                if u as usize >= n {
                    return Err(format!(
                        "adjacency lists node {v} as neighbor of {u}, outside 0..{n}"
                    ));
                }
            }
        }
        for v in 0..n {
            for i in 0..lists[v].len() {
                let u = lists[v][i] as usize;
                if u != v {
                    lists[u].push(v as u32);
                }
            }
        }
        for (v, row) in lists.iter_mut().enumerate() {
            if row.contains(&(v as u32)) {
                return Err(format!(
                    "adjacency lists node {v} as its own neighbor (self-loop)"
                ));
            }
            row.sort_unstable();
            row.dedup();
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for row in &lists {
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len() as u32);
        }
        Ok(Adjacency { offsets, neighbors })
    }

    /// Random neighbor lists on `n` nodes: up to `max_deg` entries per
    /// row, drawn so that duplicates, both orientations of one edge and
    /// isolated nodes all occur; `max_deg = 0` is the empty edge list.
    /// Bit 0 of `inject` adds one self-loop, bit 1 one out-of-range
    /// neighbor.
    fn random_lists(n: usize, max_deg: usize, seed: u64, inject: u8) -> Vec<Vec<u32>> {
        let mut rng = rng_from_seed(seed);
        let mut lists = vec![Vec::new(); n];
        for v in 0..n {
            let deg = rng.gen_range(0..=max_deg);
            for _ in 0..deg {
                let u = rng.gen_range(0..n as u32);
                if u as usize == v {
                    continue;
                }
                lists[v].push(u);
                if rng.gen_bool(0.3) {
                    lists[u as usize].push(v as u32);
                }
                if rng.gen_bool(0.2) {
                    lists[v].push(u);
                }
            }
        }
        if inject & 1 != 0 {
            let v = rng.gen_range(0..n);
            let at = rng.gen_range(0..=lists[v].len());
            lists[v].insert(at, v as u32);
        }
        if inject & 2 != 0 {
            let v = rng.gen_range(0..n);
            let at = rng.gen_range(0..=lists[v].len());
            let u = [n as u32, n as u32 + 7, u32::MAX][rng.gen_range(0..3usize)];
            lists[v].insert(at, u);
        }
        lists
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn from_edges_builds_what_mirror_and_normalize_built(
            n in 1usize..200,
            max_deg in 0usize..9,
            seed in proptest::prelude::any::<u64>(),
            inject in 0u8..4,
        ) {
            let lists = random_lists(n, max_deg, seed, inject);
            let want = reference_from_lists(lists.clone());
            assert_eq!(Adjacency::from_edges(n, &list_edges(&lists)), want);
        }
    }

    #[test]
    fn from_edges_names_an_out_of_range_endpoint_on_either_side() {
        let err = Adjacency::from_edges(3, &[(0, 1), (9, 2)]).unwrap_err();
        assert_eq!(err, "adjacency lists node 2 as neighbor of 9, outside 0..3");
        let err = Adjacency::from_edges(3, &[(1, 1), (0, 3)]).unwrap_err();
        assert_eq!(err, "adjacency lists node 0 as neighbor of 3, outside 0..3");
        let err = Adjacency::from_edges(3, &[(2, 2), (0, 1), (1, 1)]).unwrap_err();
        assert_eq!(
            err,
            "adjacency lists node 1 as its own neighbor (self-loop)"
        );
        let empty = Adjacency::from_edges(3, &[]).unwrap();
        assert_eq!((empty.len(), empty.edge_count()), (3, 0));
    }

    #[test]
    fn graph_golden_edge_cases_take_the_regeneration_paths() {
        // The cells of the `graph` suite in `tests/golden_reports.rs`
        // (`tests/pins/graph.tsv`) that pin the retry stream: the first
        // attempt (stream 0 of the build seed) is unpairable or
        // disconnected, so the pinned graph comes from a retry.
        let first = |seed: u64| rng_from_seed(derive_seed(seed, 0));
        let connected =
            |edges: Vec<(u32, u32)>, n| Adjacency::from_edges(n, &edges).unwrap().is_connected();
        assert!(random_regular(10, 3, &mut first(1)).is_none());
        assert!(!connected(
            random_regular(64, 2, &mut first(7)).unwrap(),
            64
        ));
        for seed in [1, 7] {
            assert!(!connected(erdos_renyi(32, 0.1, &mut first(seed)), 32));
        }
    }

    #[test]
    fn validate_names_the_offending_knob() {
        for (t, knob) in [
            (Topology::RandomRegular(1), "\"degree\""),
            (Topology::ErdosRenyi(0.0), "\"p\""),
            (Topology::ErdosRenyi(1.5), "\"p\""),
            (Topology::WattsStrogatz(3, 0.1), "\"k\""),
            (Topology::WattsStrogatz(4, -0.1), "\"beta\""),
            (Topology::PreferentialAttachment(0), "\"m\""),
            (explicit(0, &[]), "\"adjacency\""),
            (Topology::FromFile(String::new()), "\"path\""),
        ] {
            let err = t.validate().unwrap_err();
            assert!(err.contains(knob), "{}: {err}", t.name());
        }
    }

    #[test]
    fn check_names_each_n_dependent_rule() {
        for (t, n, wants) in [
            (Topology::RandomRegular(64), 32, "degree < n"),
            (Topology::RandomRegular(3), 9, "n * degree even"),
            (Topology::WattsStrogatz(40, 0.1), 16, "k < n"),
            (Topology::PreferentialAttachment(4), 4, "m < n"),
            (Topology::Ring, 1, "at least two nodes"),
            (Topology::Complete, 0, "at least two nodes"),
            (explicit(2, &[(0, 1)]), 3, "describes 2 nodes"),
        ] {
            let err = t.check(n).unwrap_err();
            assert!(err.contains(wants), "{} on n = {n}: {err}", t.name());
        }
        // One node more (or an even stub count) and each fits.
        for (t, n) in [
            (Topology::RandomRegular(64), 65),
            (Topology::RandomRegular(3), 10),
            (Topology::WattsStrogatz(40, 0.1), 41),
            (Topology::PreferentialAttachment(4), 5),
            (Topology::Ring, 2),
            (explicit(2, &[(0, 1)]), 2),
        ] {
            assert_eq!(t.check(n), Ok(()), "{} on n = {n}", t.name());
        }
    }

    #[test]
    #[should_panic(expected = "n * degree even")]
    fn odd_stub_count_rejected_at_build() {
        let _ = Topology::RandomRegular(3).build(9, 0);
    }

    #[test]
    #[should_panic(expected = "failed to produce a connected graph")]
    fn hopeless_density_exhausts_the_regeneration_budget() {
        // p = 1e-6 on 64 nodes: ~0.002 expected edges; never connects.
        let _ = Topology::ErdosRenyi(1e-6).build(64, 0);
    }

    #[test]
    fn sampling_is_confined_to_alive_neighbors() {
        let adj = built(&Topology::Ring, 6, 1);
        let mut alive = BitSet::new_set(6);
        let mut rng = rng_from_seed(9);
        for _ in 0..64 {
            let got = adj.sample_alive_neighbor(&mut rng, NodeIdx(0), &alive);
            assert!(matches!(got, Some(NodeIdx(1)) | Some(NodeIdx(5))));
        }
        alive.clear(1);
        for _ in 0..16 {
            let got = adj.sample_alive_neighbor(&mut rng, NodeIdx(0), &alive);
            assert_eq!(got, Some(NodeIdx(5)), "dead neighbors leave the draw");
        }
        alive.clear(5);
        assert_eq!(
            adj.sample_alive_neighbor(&mut rng, NodeIdx(0), &alive),
            None,
            "all neighbors down: the node sits the round out"
        );
    }

    #[test]
    fn parse_spec_matches_names_and_knobs() {
        assert_eq!(Topology::parse_spec("ring").unwrap(), Topology::Ring);
        assert_eq!(
            Topology::parse_spec("Random-Regular:12").unwrap(),
            Topology::RandomRegular(12)
        );
        assert_eq!(
            Topology::parse_spec("watts_strogatz:8,0.5").unwrap(),
            Topology::WattsStrogatz(8, 0.5)
        );
        assert_eq!(
            Topology::parse_spec("ERDOSRENYI").unwrap(),
            Topology::ErdosRenyi(0.05),
            "omitted knobs take catalog defaults"
        );
        assert_eq!(
            Topology::parse_spec("torus").unwrap(),
            Topology::Torus2D,
            "short alias"
        );
    }

    #[test]
    fn parse_spec_rejects_unknowns_listing_the_catalog() {
        let err = Topology::parse_spec("smallworldz").unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");
        for (spec, _) in Topology::catalog() {
            assert!(err.contains(spec), "{err} missing {spec}");
        }
        let err = Topology::parse_spec("random-regular:lots").unwrap_err();
        assert!(err.contains("wants a number"), "{err}");
        // Integer knobs are exact: no silent truncation or saturation.
        let err = Topology::parse_spec("random-regular:8.9").unwrap_err();
        assert!(err.contains("wants an integer"), "{err}");
        let err = Topology::parse_spec("watts-strogatz:-3").unwrap_err();
        assert!(err.contains("wants an integer"), "{err}");
        let err = Topology::parse_spec("ring:3").unwrap_err();
        assert!(err.contains("extra knob"), "{err}");
        let err = Topology::parse_spec("erdos-renyi:7").unwrap_err();
        assert!(err.contains("\"p\""), "{err}");
    }

    #[test]
    fn parse_spec_file_keeps_the_path_verbatim() {
        assert_eq!(
            Topology::parse_spec("file:tests/data/Mixed_Case-1.txt").unwrap(),
            Topology::FromFile("tests/data/Mixed_Case-1.txt".to_string()),
            "paths are not case-folded or separator-stripped"
        );
        assert_eq!(
            Topology::parse_spec("FILE:a:b,c").unwrap(),
            Topology::FromFile("a:b,c".to_string()),
            "only the first `:` splits; the payload may contain `:` and `,`"
        );
        for bare in ["file:", "file", "file:   "] {
            let err = Topology::parse_spec(bare).unwrap_err();
            assert!(err.contains("\"path\""), "{bare}: {err}");
        }
    }
}
