//! A counting allocator for the traced binary.
//!
//! Only `gossip-benchmark-traced` installs it (`#[global_allocator]` in
//! `bin/traced.rs`); in the untraced binary these counters stay at zero
//! and the allocator is the system's, so end-to-end numbers never pay for
//! the counting.
//!
//! Counts are sharded by thread: with one pair of global counters,
//! `sweep_small`'s two threads bounced a cache line on each of their ten
//! million allocations and the traced run took 1.5× the untraced one.

// The one place the benchmark needs `unsafe`: `GlobalAlloc` is an unsafe
// trait. Every method defers verbatim to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SHARDS: usize = 64;

/// One thread's counters, on a cache line of their own.
#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    bytes: AtomicU64,
}

// Statistics only — they publish no other data — so every access below
// is `Relaxed`.
static COUNTERS: [Shard; SHARDS] = [const {
    Shard {
        count: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static TRACK_LIVE: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// This thread's shard. Const-initialized and without a destructor, so
    /// reading it from inside the allocator never itself allocates.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let index = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS);
            }
            s.get()
        })
        // Thread-local storage is gone during thread teardown.
        .unwrap_or(0);
    &COUNTERS[index]
}

fn grew(bytes: usize) {
    let shard = shard();
    shard.count.fetch_add(1, Relaxed);
    shard.bytes.fetch_add(bytes as u64, Relaxed);
    if TRACK_LIVE.load(Relaxed) {
        let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if TRACK_LIVE.load(Relaxed) {
        LIVE.fetch_sub(bytes as i64, Relaxed);
    }
}

/// `System`, plus counts of allocation calls and bytes requested, and on
/// demand the peak of live bytes.
#[derive(Debug)]
pub struct Counting;

// SAFETY: every operation is `System`'s, called with the caller's own
// arguments; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A reading of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation-path calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Reads the counters (all zero unless [`Counting`] is installed).
#[must_use]
pub fn snapshot() -> Snapshot {
    COUNTERS
        .iter()
        .fold(Snapshot::default(), |s, shard| Snapshot {
            count: s.count + shard.count.load(Relaxed),
            bytes: s.bytes + shard.bytes.load(Relaxed),
        })
}

/// Runs `f` and returns, beside its result, how far the live heap bytes
/// rose above their level at the call (0 unless [`Counting`] is
/// installed). Not reentrant; meant for one single-threaded probe.
pub fn live_peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    TRACK_LIVE.store(true, Relaxed);
    let result = f();
    TRACK_LIVE.store(false, Relaxed);
    (result, PEAK.load(Relaxed).max(0) as u64)
}
