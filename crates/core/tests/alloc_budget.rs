//! Counting-allocator budget for the cluster family.
//!
//! Every message is a plain value: a list payload (`Candidates`,
//! `Leaders`, `Ads`) is a span into a column that a primitive owns and
//! that keeps its capacity from round to round. A pull response is copied
//! once per puller and a push moves by copy, so once those columns are
//! warm a cluster round allocates nothing, whatever the number of
//! leaders, pullers or relayed lists. This test wraps the global
//! allocator in a counter and pins that per primitive, and pins a budget
//! for a whole Cluster3 run.
//!
//! Same shim and the same single-`#[test]` binary as the engine's own
//! `crates/phonecall/tests/alloc_steady_state.rs`, for the same reasons:
//! nothing else may run against the counter, and the counter is
//! thread-local because the libtest harness thread allocates on its own.

// detlint: allow-file(unsafe_code) — the audited GlobalAlloc counting shim: every unsafe fn defers verbatim to `System` and only bumps a thread-local Cell, which allocates nothing and never touches the returned memory
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gossip_core::algo::{Algorithm, Scenario, CLUSTER3};
use gossip_core::primitives::{
    collect_members, grow_push_round, merge_all, merge_iteration, resize, sample_singletons,
    size_round, Merge, Who,
};
use gossip_core::{ClusterSim, CommonConfig, Follow};
use phonecall::NodeIdx;

thread_local! {
    /// Allocation-path calls made by *this* thread. Const-initialized so
    /// reading it from inside the allocator never itself allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of every allocation-path call.
struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter has no effect
// on the returned memory. The thread-local access uses `try_with` so a
// late allocation during thread teardown (destroyed TLS) is simply not
// counted rather than aborting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const N: usize = 4096;
const LEADERS: usize = 16;

/// `LEADERS` clusters over the first `LEADERS * per_cluster` of `N` nodes
/// (node `c * per_cluster` leads cluster `c`), warmed up by one
/// `ClusterSize` so the engine's columns and the leader rows have reached
/// their working size.
fn clustering(per_cluster: usize) -> ClusterSim {
    let mut sim = ClusterSim::new(N, &CommonConfig::default());
    regroup(&mut sim, per_cluster);
    collect_members(&mut sim, Who::AllClustered);
    size_round(&mut sim, Who::AllClustered, None);
    sim.net.reserve_rounds(16);
    sim
}

/// Node `c * per_cluster` leads cluster `c`, for the first `LEADERS`
/// clusters.
fn regroup(sim: &mut ClusterSim, per_cluster: usize) {
    for i in 0..LEADERS * per_cluster {
        let leader = sim.net.id_of(NodeIdx((i - i % per_cluster) as u32));
        sim.net.states_mut()[i].follow = Follow::Of(leader);
    }
}

#[test]
fn warm_cluster_rounds_allocate_nothing() {
    // 63 or 255 pullers per leader: the budget is the same.
    for per_cluster in [64, N / LEADERS] {
        let mut sim = clustering(per_cluster);
        let pulls_before = sim.net.metrics().pull_replies;

        // ClusterSize: the reply is a plain value; nothing to allocate.
        let sizing = allocations_during(|| {
            collect_members(&mut sim, Who::AllClustered);
            size_round(&mut sim, Who::AllClustered, None);
        });
        assert_eq!(
            sizing, 0,
            "{per_cluster} per cluster: ClusterSize allocated"
        );

        // ClusterResize into 4 pieces each. A warm-up resize of the same
        // shape sizes the leader-list column (and opens the new leaders'
        // rows); the clustering is then put back.
        let s = (per_cluster / 4) as u64;
        resize(&mut sim, s, Who::AllClustered);
        regroup(&mut sim, per_cluster);
        let resizing = allocations_during(|| resize(&mut sim, s, Who::AllClustered));
        assert_eq!(
            resizing, 0,
            "{per_cluster} per cluster: resize allocated {resizing} times for {LEADERS} leaders"
        );

        let replies = sim.net.metrics().pull_replies - pulls_before;
        assert_eq!(
            replies as usize,
            3 * LEADERS * (per_cluster - 1),
            "every follower pulled every reply"
        );
        assert_eq!(sim.clustering_stats().clusters, 4 * LEADERS);
    }

    // The push rounds' arrival log keeps its capacity. A recruit round
    // after one that pushed more IDs allocates nothing ...
    let mut sim = clustering(64);
    grow_push_round(&mut sim, Who::AllClustered);
    let mut joined = 0;
    let recruiting = allocations_during(|| joined = grow_push_round(&mut sim, Who::ActiveOnly));
    assert!(joined > 0, "the recruits of the first round recruited");
    assert_eq!(recruiting, 0, "grow_push_round allocated");

    // ... and so does a merge iteration: a relayed candidate list names
    // the sender's bucket of the arrival log. One converged cluster is
    // the steady state: every iteration pushes the same n IDs, relays
    // them and merges nothing.
    let mut sim = ClusterSim::new(256, &CommonConfig::default());
    sample_singletons(&mut sim, 1.0);
    merge_all(&mut sim, 8);
    assert_eq!(sim.clustering_stats().clusters, 1);
    sim.net.reserve_rounds(16);
    merge_iteration(&mut sim, Merge::All);
    let round = sim.net.metrics().per_round.len();
    let merging = allocations_during(|| merge_iteration(&mut sim, Merge::All));
    let relays = sim.net.metrics().per_round[round + 1].messages;
    assert!(relays > 0, "followers relayed");
    assert_eq!(
        merging, 0,
        "merge_iteration allocated {merging} times for {relays} relayed lists"
    );

    // A whole Δ-clustering at 2^12, which resizes after every pull
    // round. What is left is set-up and the columns' growth: 3 810
    // allocations when the budget was set 15 % above that.
    let scenario = Scenario::broadcast(1 << 12);
    let mut report = None;
    let whole_run = allocations_during(|| report = Some(CLUSTER3.run(&scenario)));
    assert!(report.expect("the run returned").success);
    assert!(
        whole_run <= 4_381,
        "Cluster3 at 2^12 allocated {whole_run} times"
    );
}
