//! End-to-end kernel throughput: one complete `n = 100` streaming
//! session per iteration (coordination plus full data plane over a
//! 2000-packet content), reported as dispatch-loop events per second.
//!
//! This is the number the DES hot-loop optimizations are judged by:
//! every control-packet fan-out, metric update, timer and data packet
//! in the session flows through `World`'s dispatch loop, so events/sec here is
//! the throughput ceiling for the sweep harness. The event count per
//! session is deterministic (fixed seed), which makes the rate directly
//! comparable across kernel versions — `scripts/bench_baseline.sh`
//! records it in `BENCH_kernel.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mss_core::prelude::*;

/// The benchmark session: every peer streams (full data plane), mid-range
/// fan-out, content long enough that the steady-state send loop dominates.
fn session_cfg(seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::small(100, 8, seed);
    cfg.content = ContentDesc::small(seed, 2_000);
    cfg
}

/// Events dispatched by one full session (deterministic per seed).
fn events_of(protocol: Protocol) -> u64 {
    let (_, world, _) = Session::new(session_cfg(42), protocol).run_with_world();
    world.events_dispatched()
}

fn bench_session(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_throughput");
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        let events = events_of(protocol);
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(
            BenchmarkId::new(protocol.name(), "n100"),
            &protocol,
            |b, &p| {
                b.iter(|| {
                    let (outcome, world, _) = Session::new(session_cfg(42), p).run_with_world();
                    assert!(outcome.complete, "bench session must stream to completion");
                    world.events_dispatched()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
