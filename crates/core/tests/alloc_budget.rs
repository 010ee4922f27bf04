//! Counting-allocator budget for the cluster family.
//!
//! A pull response is a pre-round snapshot that `respond` clones once per
//! puller. When `ClusterResize`'s leader list was a `Vec`, that clone was
//! one heap allocation per *follower* per resize — 21 allocations per node
//! over a Cluster3 run. The list is shared now (`Rc<[NodeId]>`), so what a
//! reply round allocates must scale with the number of **leaders** and
//! not move with the number of pullers. This test wraps the global
//! allocator in a counter and pins that, per primitive and for a whole
//! Cluster3 run.
//!
//! Same shim and the same single-`#[test]` binary as the engine's own
//! `crates/phonecall/tests/alloc_steady_state.rs`, for the same reasons:
//! nothing else may run against the counter, and the counter is
//! thread-local because the libtest harness thread allocates on its own.

// detlint: allow-file(unsafe_code) — the audited GlobalAlloc counting shim: every unsafe fn defers verbatim to `System` and only bumps a thread-local Cell, which allocates nothing and never touches the returned memory
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gossip_core::algo::{Algorithm, Scenario, CLUSTER3};
use gossip_core::primitives::{collect_members, resize, size_round, Who};
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
/// `ClusterSize` so the engine's columns, the arena and the leader rows
/// have reached their working size.
fn clustering(per_cluster: usize) -> ClusterSim {
    let mut sim = ClusterSim::new(N, &CommonConfig::default());
    for i in 0..LEADERS * per_cluster {
        let leader = sim.net.id_of(NodeIdx((i - i % per_cluster) as u32));
        sim.net.states_mut()[i].follow = Follow::Of(leader);
    }
    collect_members(&mut sim, Who::AllClustered);
    size_round(&mut sim, Who::AllClustered, None);
    sim.net.reserve_rounds(16);
    sim
}

#[test]
fn reply_rounds_allocate_per_leader_not_per_puller() {
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

        // ClusterResize into 4 pieces each: per leader one sorted member
        // list and one shared leader list, whoever pulls it.
        let resizing = allocations_during(|| {
            resize(&mut sim, (per_cluster / 4) as u64, Who::AllClustered);
        });
        assert!(
            resizing <= 2 * LEADERS as u64,
            "{per_cluster} per cluster: resize allocated {resizing} times for {LEADERS} leaders"
        );

        let replies = sim.net.metrics().pull_replies - pulls_before;
        assert_eq!(
            replies as usize,
            2 * LEADERS * (per_cluster - 1),
            "every follower pulled both replies"
        );
        assert_eq!(sim.clustering_stats().clusters, 4 * LEADERS);
    }

    // A whole Δ-clustering at 2^12 — resizes after every pull round —
    // used to allocate 85 770 times (21 per node, one per `Leaders`
    // reply). What is left is per leader and per relayed candidate list.
    let scenario = Scenario::broadcast(1 << 12);
    let mut report = None;
    let whole_run = allocations_during(|| report = Some(CLUSTER3.run(&scenario)));
    assert!(report.expect("the run returned").success);
    assert!(
        whole_run < 25_000,
        "Cluster3 at 2^12 allocated {whole_run} times"
    );
}
