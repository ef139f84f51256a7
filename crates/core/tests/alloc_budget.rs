//! Allocation budget of the coordination path. A counting global
//! allocator sees every block the sessions below ask for; this binary
//! holds one test, so nothing else allocates while it counts.
//!
//! Each bound is the value measured when it was set plus a stated
//! margin. It also sits below what the same session allocated while a
//! one-seq parity coverage was a heap slice and every idle schedule and
//! idle division held a heap base ("heap" below), so the test fails on
//! that code:
//!
//! | session | heap | measured | bound (margin) |
//! |---|---|---|---|
//! | Figure 10 DCoP, per coordination message | 2.81 | 1.19 | 1.5 (+26 %) |
//! | Figure 10 TCoP, per coordination message | 0.54 | 0.13 | 0.2 (+54 %) |
//! | n = 10⁴ DCoP on 2 shards, per activated peer | 8.37 | 7.38 | 7.8 (+6 %) |
//!
//! In blocks: 6 919 → 2 918, 2 643 → 637 and 83 675 → 73 751. The
//! counts are exact and repeat run to run, in debug and release builds
//! alike, so the margins only leave room for unrelated changes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mss_core::config::{Protocol, SessionConfig};
use mss_core::metrics::SessionOutcome;
use mss_core::session::Session;

/// The system allocator, counting every block it hands out (`alloc`,
/// `alloc_zeroed` and `realloc`).
struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `session` to completion (build, run, teardown) and return its
/// outcome with the blocks allocated meanwhile.
fn counted(session: impl FnOnce() -> SessionOutcome) -> (SessionOutcome, u64) {
    let before = BLOCKS.load(Ordering::Relaxed);
    let outcome = session();
    (outcome, BLOCKS.load(Ordering::Relaxed) - before)
}

#[test]
fn coordination_sessions_stay_inside_their_allocation_budget() {
    // Figures 10/11: n = 100, H = 60, h = 1, the first sweep seed.
    let fig = |protocol: Protocol| {
        let mut cfg = SessionConfig::paper_eval(60, 0xF16_0000 + 60);
        cfg.parity_interval = 1;
        counted(|| Session::new(cfg, protocol).run())
    };
    for (protocol, bound) in [(Protocol::Dcop, 1.5), (Protocol::Tcop, 0.2)] {
        let (outcome, blocks) = fig(protocol);
        assert_eq!(outcome.activated, 100, "{protocol:?} activates everyone");
        let per_msg = blocks as f64 / outcome.coord_msgs_total as f64;
        println!(
            "{protocol:?} n=100 H=60 h=1: {blocks} blocks, {per_msg:.2} per coordination message"
        );
        assert!(
            per_msg <= bound,
            "{protocol:?}: {per_msg:.2} blocks per message > {bound}"
        );
    }

    // Population scale: the seed `large_world` runs, at n = 10⁴.
    let (outcome, blocks) = counted(|| {
        Session::new(SessionConfig::large(10_000, 8, 42), Protocol::Dcop)
            .shards(2)
            .run()
    });
    let per_peer = blocks as f64 / outcome.activated as f64;
    println!("Dcop n=10^4 2 shards: {blocks} blocks, {per_peer:.2} per activated peer");
    assert!(
        outcome.activated >= 9_950,
        "{} activated",
        outcome.activated
    );
    assert!(
        per_peer <= 7.8,
        "{per_peer:.2} blocks per activated peer > 7.8"
    );
}
