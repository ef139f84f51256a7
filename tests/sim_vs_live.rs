//! Simulator vs live host: the identical protocol state machines run on
//! the deterministic discrete-event simulator (one world and sharded)
//! and on live workers — the same kernel on a wall clock — over UDP
//! loopback (bundled datagrams, `recvmmsg`/`sendmmsg` batching), and
//! agree on the protocol's observable outcomes (coverage, completion,
//! coordination volume class).

use std::time::Duration;

use mss::core::prelude::*;
use mss::core::session::Session;
use mss::net::{LiveOutcome, LiveSession};

fn shared_cfg() -> SessionConfig {
    let mut cfg = SessionConfig::small(8, 3, 1234);
    cfg.content = ContentDesc::small(21, 100);
    cfg
}

fn run_live(protocol: Protocol, wall_ms: u64) -> LiveOutcome {
    LiveSession::new(shared_cfg(), protocol, Duration::from_millis(wall_ms))
        .run()
        .expect("live session")
}

#[test]
fn dcop_agrees_across_all_three_substrates() {
    let session =
        || Session::new(shared_cfg(), Protocol::Dcop).time_limit(SimDuration::from_secs(60));
    let sim = session().run();
    let sharded = session().shards(2).run();
    let live = run_live(Protocol::Dcop, 1200);

    // All three cover every peer and reconstruct the content.
    assert_eq!(sim.activated, 8);
    assert_eq!(sharded.activated, 8);
    assert_eq!(live.activated, 8);
    assert!(sim.complete);
    assert!(sharded.complete);
    assert!(live.complete, "live missing {}", live.missing);

    // Coordination volume is in the same class (timing and rng streams
    // differ, so exact counts may not match — an order of magnitude must).
    for (name, msgs) in [
        ("sharded", sharded.coord_msgs_total),
        ("live", live.coord_msgs),
    ] {
        assert!(
            msgs >= sim.coord_msgs_total / 4 && msgs <= sim.coord_msgs_total * 4,
            "{name} coordination volume {} vs simulator {}",
            msgs,
            sim.coord_msgs_total
        );
    }
}

#[test]
fn tcop_agrees_across_substrates() {
    let sim = Session::new(shared_cfg(), Protocol::Tcop)
        .time_limit(SimDuration::from_secs(60))
        .run();
    let live = run_live(Protocol::Tcop, 1500);
    assert_eq!(sim.activated, 8);
    assert_eq!(live.activated, 8);
    assert!(sim.complete);
    assert!(live.complete, "live missing {}", live.missing);
}

/// Shared config for the at-scale pinning: n in the hundreds on the
/// live host vs the same config on the simulator. Uses the
/// `live` preset (quadratic extensions off, repair on) for both sides
/// so the comparison is apples to apples.
fn scale_cfg(protocol_seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::live(200, 8, protocol_seed);
    cfg.content = ContentDesc::small(31, 100);
    cfg
}

/// Pin the live host against the simulator at n=200: full activation,
/// complete streaming, and coordination volume in the same class, for
/// both coordination protocols — and no send skips the wire: each one
/// was written into a datagram or counted as dropped, and with nothing
/// lost in the kernel every frame written was received.
#[test]
fn live_host_matches_simulator_at_scale() {
    for (protocol, seed) in [(Protocol::Dcop, 4242u64), (Protocol::Tcop, 4243u64)] {
        let sim = Session::new(scale_cfg(seed), protocol)
            .time_limit(SimDuration::from_secs(120))
            .run();
        let live = LiveSession::new(scale_cfg(seed), protocol, Duration::from_secs(20))
            .run()
            .expect("live session");

        assert_eq!(sim.activated, 200, "{protocol:?} sim activation");
        assert_eq!(
            live.activated,
            200,
            "{protocol:?} live activation (reports: {})",
            live.reports.len()
        );
        assert!(sim.complete, "{protocol:?} sim completion");
        assert!(
            live.complete,
            "{protocol:?} live leaf missing {} packets (rx_dropped {})",
            live.missing,
            live.metrics.counter("net.rx_dropped")
        );
        assert!(
            live.coord_msgs >= sim.coord_msgs_total / 4
                && live.coord_msgs <= sim.coord_msgs_total * 4,
            "{protocol:?} live coordination volume {} vs simulator {}",
            live.coord_msgs,
            sim.coord_msgs_total
        );
        // The batched syscall plane must actually be exercised.
        let m = &live.metrics;
        assert!(m.counter("net.rx_batches") > 0);
        assert!(m.counter("net.tx_datagrams") > 0);
        let tx = m.counter("net.tx_frames");
        assert_eq!(
            m.counter("net.sent"),
            tx + m.counter("net.tx_dropped"),
            "{protocol:?}: a send skipped the wire"
        );
        assert_eq!(m.counter("net.rx_dropped"), 0, "{protocol:?}");
        assert_eq!(m.counter("net.rx_frames"), tx, "{protocol:?}");
    }
}

/// TCoP's probe → reply → commit traffic at n = 600 on the live host:
/// every frame decodes, the probes cross the wire bundled, many frames
/// to a datagram, and fan-outs are written and parsed once.
#[test]
fn live_tcop_fanouts_are_bundled_and_shared_at_600() {
    let n = 600;
    let mut cfg = SessionConfig::live(n, 8, 4244);
    cfg.content = ContentDesc::small(33, 100);
    let live = LiveSession::new(cfg, Protocol::Tcop, Duration::from_secs(30))
        .run()
        .expect("live session");
    assert!(live.complete, "leaf missing {} packets", live.missing);
    let m = &live.metrics;
    assert_eq!(m.counter("net.rx_decode_err"), 0);
    let probes = m.counter("coord.bytes_tx.probe");
    assert!(probes > 0, "the session must have probed");
    let (frames, datagrams) = (m.counter("net.tx_frames"), m.counter("net.tx_datagrams"));
    assert!(
        frames > datagrams,
        "{frames} frames in {datagrams} datagrams"
    );
    assert_fanouts_written_once_and_parsed_once(&live);
}

/// A fan-out's shared body was encoded once for several children and
/// decoded once for several recipients.
fn assert_fanouts_written_once_and_parsed_once(live: &LiveOutcome) {
    let m = &live.metrics;
    for side in ["net.tx_bodies_shared", "net.rx_bodies_shared"] {
        assert!(m.counter(side) > 0, "{side} = 0");
    }
}

/// The DCoP half of the n = 600 live check: its `Activate` fan-outs
/// are written once per sender and parsed once per worker, and the
/// session still streams to completion with nothing undecodable.
#[test]
fn live_dcop_fanouts_are_shared_at_600() {
    let mut cfg = SessionConfig::live(600, 8, 4246);
    cfg.content = ContentDesc::small(35, 100);
    let live = LiveSession::new(cfg, Protocol::Dcop, Duration::from_secs(30))
        .run()
        .expect("live session");
    assert!(live.complete, "leaf missing {} packets", live.missing);
    assert_eq!(live.metrics.counter("net.rx_decode_err"), 0);
    assert_fanouts_written_once_and_parsed_once(&live);
}

#[test]
fn centralized_agrees_across_substrates() {
    let sim = Session::new(shared_cfg(), Protocol::Centralized)
        .time_limit(SimDuration::from_secs(60))
        .run();
    let live = run_live(Protocol::Centralized, 1200);
    assert!(sim.complete);
    assert!(live.complete, "live missing {}", live.missing);
    // 2PC message count is deterministic: 1 + 3(n−1) in every substrate.
    assert_eq!(sim.coord_msgs_total, 1 + 3 * 7);
    assert_eq!(live.coord_msgs, 1 + 3 * 7);
}
