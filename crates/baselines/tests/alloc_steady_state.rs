//! Counting-allocator proof that Name-Dropper's rounds allocate
//! nothing after the first, lossy or not, and that the first allocates
//! nothing per node.
//!
//! Every push names its sender, whose send-time knowledge row sits in
//! one snapshot matrix sized when the run is built; the per-round
//! metrics log is sized for the whole run up front too. So round one
//! allocates only the engine's scratch columns (one buffer each, plus
//! the payload column's doublings), and every later round must perform
//! *zero* heap allocations, also when pushes are lost. Same shim and the same
//! single-`#[test]` binary as the engine's own
//! `crates/phonecall/tests/alloc_steady_state.rs`, for the same reasons:
//! nothing else may run against the counter, and the counter is
//! thread-local because the libtest harness thread allocates on its own.

// detlint: allow-file(unsafe_code) — the audited GlobalAlloc counting shim: every unsafe fn defers verbatim to `System` and only bumps a thread-local Cell, which allocates nothing and never touches the returned memory
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gossip_baselines::name_dropper::{Discovery, Topology};
use gossip_core::algo::Scenario;

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

/// Builds a run outside the counter, then returns the allocations of
/// round one and of every later round up to completion, with the number
/// of later rounds and the pushes made.
fn measure(n: usize, loss: f64) -> (u64, u64, u64, u64) {
    let scenario = Scenario::broadcast(n).message_loss(loss);
    let mut d = Discovery::new(n, Topology::Ring, scenario.common());
    let before = allocations();
    d.round();
    let first = allocations() - before;

    let before = allocations();
    let mut rounds = 0;
    while !d.is_complete() {
        d.round();
        rounds += 1;
    }
    (first, allocations() - before, rounds, d.metrics().pushes)
}

#[test]
fn name_dropper_rounds_do_not_allocate_after_the_first() {
    // 200 nodes: a tail word (200 % 64 != 0) in every row.
    let (first, during, rounds, pushes) = measure(200, 0.0);
    assert_eq!(
        during, 0,
        "Name-Dropper allocated {during} times over {rounds} rounds"
    );
    // The window must have done the real work for the zero to mean
    // anything: from a ring, discovery takes well over two rounds.
    assert!(rounds > 4, "discovery finished inside the warm-up");
    assert_eq!(pushes, 200 * (rounds + 1));

    // Round one allocates the engine's scratch, not a row per sender.
    // The scratch's payload column grows by doubling (it is not
    // presized), so twice the senders cost one more reallocation; a row
    // per sender would cost 200 more.
    let (first_at_400, ..) = measure(400, 0.0);
    assert!(
        first_at_400 <= first + 1,
        "round one allocates per node: {first} at n = 200, {first_at_400} at n = 400"
    );

    // A lost push frees nothing the next send would allocate again.
    let (_, during, rounds, _) = measure(200, 0.1);
    assert!(rounds > 4, "lossy discovery finished inside the warm-up");
    assert_eq!(
        during, 0,
        "lossy Name-Dropper allocated {during} times over {rounds} rounds"
    );
}
