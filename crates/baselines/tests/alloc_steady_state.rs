//! Counting-allocator proof that a loss-free Name-Dropper round is
//! allocation-free after warm-up.
//!
//! Every push carries a snapshot of its sender's knowledge row. The
//! snapshots are not fresh buffers: a delivery hands its row back to a
//! free list the next sends draw from, and the per-round metrics log is
//! sized for the whole run up front — so once the first round has
//! filled the free list, rounds must perform *zero* heap allocations.
//! Same shim and the same single-`#[test]` binary as the engine's own
//! `crates/phonecall/tests/alloc_steady_state.rs`, for the same reasons:
//! nothing else may run against the counter, and the counter is
//! thread-local because the libtest harness thread allocates on its own.

// detlint: allow-file(unsafe_code) — the audited GlobalAlloc counting shim: every unsafe fn defers verbatim to `System` and only bumps a thread-local Cell, which allocates nothing and never touches the returned memory
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gossip_baselines::name_dropper::{Discovery, Topology};
use gossip_baselines::CommonConfig;

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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn name_dropper_rounds_do_not_allocate_after_warm_up() {
    // 200 nodes: a tail word (200 % 64 != 0) in every row.
    let mut d = Discovery::new(200, Topology::Ring, &CommonConfig::default());
    // Round one allocates the n row buffers and the engine's scratch
    // columns; round two finds them all on the free list.
    d.round();
    d.round();

    let before = allocations();
    let mut rounds = 0;
    while !d.is_complete() {
        d.round();
        rounds += 1;
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "Name-Dropper allocated {during} times over {rounds} rounds"
    );
    // The window must have done the real work for the zero to mean
    // anything: from a ring, discovery takes well over two rounds.
    assert!(rounds > 4, "discovery finished inside the warm-up");
    assert_eq!(d.metrics().pushes, 200 * (rounds + 2));
}
