//! Counting-allocator proof that the round loop is allocation-free in
//! steady state.
//!
//! The engine keeps its per-round buffers (resolved pushes/pulls, pull
//! responses, fan-in counters) as scratch storage reused across rounds,
//! moves push payloads instead of cloning them, and appends `Copy`
//! per-round stats — so after a warm-up round and a
//! [`Network::reserve_rounds`] call, executing rounds must perform *zero*
//! heap allocations. This test wraps the global allocator in a counter
//! and asserts exactly that — for the base engine, with the dynamic
//! adversary attached, with a `RandomRegular` topology installed
//! (neighbor sampling scans the CSR adjacency built once at install
//! time; it must never allocate per round), with a file-loaded
//! (`FromFile`) snapshot installed, with the multi-rumor
//! workload multiplexed over churn and a topology at once (the K known
//! masks, active list and budget ledger are all sized at install time),
//! and at `n = 2^20` — the struct-of-arrays engine sizes its columns
//! once at construction, so the zero must be scale-independent.
//!
//! It lives in its own integration-test binary (one `#[test]` function)
//! so no concurrently running test can pollute the allocation counter —
//! and the counter is **thread-local**, because the libtest harness
//! thread occasionally allocates (timers, output buffering) concurrently
//! with the measured loop, which made a process-global count flaky.

// detlint: allow-file(unsafe_code) — the audited GlobalAlloc counting shim: every unsafe fn defers verbatim to `System` and only bumps a thread-local Cell, which allocates nothing and never touches the returned memory
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use phonecall::{
    Action, AsyncConfig, ChurnConfig, Delivery, DirectAddressing, Engine, Network, Target,
    Topology, TrafficConfig,
};

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

#[derive(Clone, Default)]
struct St {
    got: u64,
}

/// One round of mixed traffic: a third of the nodes push, a third pull,
/// a third idle. None of the closures allocate.
fn mixed_round(net: &mut Network<St>) {
    net.round(
        |ctx, _rng| match ctx.idx.0 % 3 {
            0 => Action::Push {
                to: Target::Random,
                msg: 0xFEEDu64,
            },
            1 => Action::<u64>::Pull { to: Target::Random },
            _ => Action::Idle,
        },
        |s| Some(s.got),
        |s, d| match d {
            Delivery::Push { msg, .. } | Delivery::PullReply { msg, .. } => s.got = msg,
            Delivery::PulledBy(_) => {}
        },
    );
}

const MEASURED_ROUNDS: usize = 64;

/// Warm-up, reserve, then assert a `rounds`-round measured window
/// allocates nothing.
fn assert_rounds_allocation_free(net: &mut Network<St>, what: &str, rounds: usize) {
    mixed_round(net);
    mixed_round(net);
    net.reserve_rounds(rounds + 1);

    let before = allocations();
    for _ in 0..rounds {
        mixed_round(net);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "{what} round loop allocated {during} times over {rounds} rounds"
    );
}

fn assert_steady_state_is_allocation_free(net: &mut Network<St>, what: &str) {
    assert_rounds_allocation_free(net, what, MEASURED_ROUNDS);
}

#[test]
fn round_loop_does_not_allocate_in_steady_state() {
    let mut net: Network<St> = Network::new(1 << 10, 42);
    assert_steady_state_is_allocation_free(&mut net, "steady-state");

    // The run must still have done real work for the zero to mean
    // anything.
    let m = net.metrics();
    assert!(m.pushes > 0 && m.pull_requests > 0 && m.pull_replies > 0);
    assert_eq!(m.rounds as usize, MEASURED_ROUNDS + 2);

    // Same contract with the dynamic adversary attached: crash batches,
    // recoveries and the burst chain all mutate preallocated masks, so
    // an active schedule must not cost a single steady-state allocation
    // either.
    let mut churny: Network<St> = Network::new(1 << 10, 43);
    churny.set_churn(
        ChurnConfig {
            crash_rate: 0.5,
            batch_size: 8,
            recovery_rate: 0.3,
            burst_enter: 0.2,
            burst_exit: 0.4,
            burst_loss: 0.5,
            ..ChurnConfig::default()
        },
        99,
    );
    assert_steady_state_is_allocation_free(&mut churny, "churn-enabled");
    let m = churny.metrics();
    assert!(
        m.crashes > 0 && m.recoveries > 0 && m.burst_rounds > 0,
        "the schedule must actually have fired for the zero to mean anything"
    );

    // Same contract with a topology installed: the adjacency is built
    // once at install time, Random targets scan a CSR row (no buffers),
    // and the Restricted direct-call gate is a binary search — so a
    // neighbor-constrained network must also run allocation-free. Churn
    // rides along so the alive-neighbor filter actually exercises both
    // branches.
    let mut sparse: Network<St> = Network::new(1 << 10, 44);
    sparse.set_topology(Topology::RandomRegular(8), DirectAddressing::Restricted, 7);
    sparse.set_churn(
        ChurnConfig {
            crash_rate: 0.5,
            batch_size: 8,
            recovery_rate: 0.3,
            ..ChurnConfig::default()
        },
        100,
    );
    assert_steady_state_is_allocation_free(&mut sparse, "topology-enabled");
    let m = sparse.metrics();
    assert_eq!(m.topology_edges, (1 << 10) * 8 / 2);
    assert_eq!(m.topology_max_degree, 8);
    assert!(
        m.pushes > 0 && m.pull_requests > 0 && m.crashes > 0,
        "the constrained network must actually have trafficked"
    );

    // Same contract with a *file-loaded* topology: FromFile parses (or
    // cache-loads) its snapshot once at install time into the same CSR
    // the synthetic families build, so where the graph came from must
    // be invisible to the steady-state zero.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/ws_1k.txt");
    let mut from_file: Network<St> = Network::new(1 << 10, 47);
    from_file.set_topology(
        Topology::FromFile(fixture.to_string()),
        DirectAddressing::Overlay,
        9,
    );
    assert_steady_state_is_allocation_free(&mut from_file, "file-loaded");
    let m = from_file.metrics();
    assert_eq!(m.topology_edges, 3 << 10, "ws_1k is WS(6): nk/2 = 3n edges");
    assert_eq!(m.topology_max_degree, 9);

    // Same contract with the multi-rumor workload multiplexed on top of
    // churn *and* a topology: the arrival plan is pre-generated, the K
    // known masks and the active list are sized at install time, and
    // the budget ledger resets sparsely — so rumors arriving, spreading
    // and completing inside the measured window must cost zero
    // allocations too.
    let mut loaded: Network<St> = Network::new(1 << 10, 46);
    loaded.set_topology(Topology::RandomRegular(8), DirectAddressing::Overlay, 8);
    loaded.set_churn(
        ChurnConfig {
            crash_rate: 0.5,
            batch_size: 8,
            recovery_rate: 0.3,
            ..ChurnConfig::default()
        },
        102,
    );
    loaded.set_traffic(
        TrafficConfig {
            rumors: 32,
            arrival_rate: 2.0,
            bandwidth: 2,
            ..TrafficConfig::default()
        },
        128,
        103,
    );
    assert_steady_state_is_allocation_free(&mut loaded, "traffic-enabled");
    let m = loaded.metrics();
    assert_eq!(m.rumors_started, 32, "every arrival fell in the window");
    assert!(
        m.rumor_payloads > 0 && m.budget_drops > 0 && m.crashes > 0,
        "the workload must actually have trafficked for the zero to mean anything"
    );

    // Same contract on the *asynchronous* engine: the sorted activation
    // column (times, bucket offsets, node order) is sized `n` at install
    // time and overwritten every step, the in-flight message heap is
    // pre-sized to `n` on the first step (at most one in-flight message
    // per node at any instant), the three reserved RNG streams live in
    // the boxed engine state, and the type-erased heap cell is reused
    // across steps — so draining a full event cascade (activations,
    // latencies, pull round-trips, loss verdicts, churn crashes and
    // workload piggybacks, all timestamp-ordered) must also cost zero
    // steady-state allocations.
    let mut evented: Network<St> = Network::new(1 << 10, 48);
    evented.set_engine(Engine::Async(AsyncConfig::default()), 48);
    evented.set_message_loss(0.1);
    evented.set_churn(
        ChurnConfig {
            crash_rate: 0.5,
            batch_size: 8,
            recovery_rate: 0.3,
            ..ChurnConfig::default()
        },
        105,
    );
    evented.set_traffic(
        TrafficConfig {
            rumors: 32,
            arrival_rate: 2.0,
            bandwidth: 2,
            ..TrafficConfig::default()
        },
        128,
        106,
    );
    assert_steady_state_is_allocation_free(&mut evented, "async-engine");
    let m = evented.metrics();
    assert!(
        m.pushes > 0 && m.pull_requests > 0 && m.pull_replies > 0 && m.crashes > 0,
        "the asynchronous network must actually have trafficked"
    );
    assert!(
        evented.events_processed() > 0 && evented.virtual_time() > 0.0,
        "the event queue must actually have drained events"
    );

    // The million-node contract: the bitset/SoA engine sizes every
    // per-node column (alive words, fan-in counters, scratch push/pull
    // columns) once at construction, so the same zero must hold at
    // n = 2^20. A short measured window keeps the debug-build test
    // quick — zero is zero at any window length; what scale tests is
    // that no column ever regrows.
    let mut huge: Network<St> = Network::new(1 << 20, 45);
    huge.set_churn(
        ChurnConfig {
            crash_rate: 0.5,
            batch_size: 1 << 12,
            recovery_rate: 0.3,
            ..ChurnConfig::default()
        },
        101,
    );
    huge.set_traffic(
        TrafficConfig {
            rumors: 16,
            arrival_rate: 8.0,
            ..TrafficConfig::default()
        },
        128,
        104,
    );
    assert_rounds_allocation_free(&mut huge, "million-node", 4);
    let m = huge.metrics();
    assert!(
        m.pushes > (1 << 18) && m.pull_requests > 0 && m.crashes > 0 && m.rumor_payloads > 0,
        "the million-node network must actually have trafficked"
    );
}
