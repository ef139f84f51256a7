//! Simulator vs live host: the identical protocol state machines run on
//! the deterministic discrete-event simulator (one world and sharded)
//! and on live workers — the same kernel on a wall clock — over UDP
//! loopback (bundled datagrams, `recvmmsg`/`sendmmsg` batching), and
//! agree on the protocol's observable outcomes (coverage, completion,
//! coordination volume class, rounds). Every host summarises its run
//! into the same `SessionOutcome`, so one helper compares them.

use std::time::Duration;

use mss::core::metrics as mnames;
use mss::core::prelude::*;
use mss::core::session::Session;
use mss::net::{names, LiveOutcome, LiveSession};
use mss::sim::metrics::NET_SENT;

fn shared_cfg() -> SessionConfig {
    let mut cfg = SessionConfig::small(8, 3, 1234);
    cfg.content = ContentDesc::small(21, 100);
    cfg
}

/// `cfg` on the live host, one worker: the live counterpart of one
/// simulated world. More workers fork other RNG streams per worker and
/// so build other trees (rounds then differ by several waves on an
/// oversubscribed host); the live plane's own tests check those
/// against their peers' reports.
fn run_live(cfg: SessionConfig, protocol: Protocol, wall: Duration) -> LiveOutcome {
    LiveSession::new(cfg, protocol, wall)
        .workers(1)
        .run()
        .expect("live session")
}

/// `other` (a sharded world's or the live host's outcome) against the
/// simulator's `sim`: the same coverage and completion, coordination
/// volume in the same class (within 4× either way: timing and RNG
/// streams differ, so exact counts may not match — an order of
/// magnitude must), and the same rounds where the protocol fixes them
/// (centralized 2PC 3, leaf schedule 1). DCoP's and TCoP's rounds
/// depend on which messages win their races, so they may differ by one
/// wave: one round for DCoP, one probe wave (3 rounds) for TCoP. That
/// is the class observed: over 6 live runs per protocol at n = 8 and
/// n = 200 on one worker the rounds were equal every time, and on three
/// workers they differed by one wave at most (DCoP 5 against 4, TCoP
/// 15 against 12 at n = 200).
fn assert_agrees(sim: &SessionOutcome, other: &SessionOutcome, name: &str) {
    let what = format!("{:?} {name}", sim.protocol);
    assert_eq!(other.activated, sim.activated, "{what}: activated");
    assert_eq!(
        other.complete, sim.complete,
        "{what}: complete (missing {})",
        other.leaf_missing
    );
    let (msgs, base) = (other.coord_msgs_total, sim.coord_msgs_total);
    assert!(
        msgs >= base / 4 && msgs <= base * 4,
        "{what}: coordination volume {msgs} vs simulator {base}"
    );
    let wave = match sim.protocol {
        Protocol::Dcop => 1,
        Protocol::Tcop => 3,
        _ => 0,
    };
    assert!(
        other.rounds.abs_diff(sim.rounds) <= wave,
        "{what}: {} rounds vs simulator {}",
        other.rounds,
        sim.rounds
    );
}

#[test]
fn dcop_agrees_across_all_three_substrates() {
    let session =
        || Session::new(shared_cfg(), Protocol::Dcop).time_limit(SimDuration::from_secs(60));
    let sim = session().run();
    let sharded = session().shards(2).run();
    let live = run_live(shared_cfg(), Protocol::Dcop, Duration::from_millis(1200));

    // All three cover every peer and reconstruct the content.
    assert_eq!(sim.activated, 8);
    assert!(sim.complete);
    assert_agrees(&sim, &sharded, "sharded");
    assert_agrees(&sim, &live.outcome, "live");
}

#[test]
fn tcop_agrees_across_substrates() {
    let sim = Session::new(shared_cfg(), Protocol::Tcop)
        .time_limit(SimDuration::from_secs(60))
        .run();
    let live = run_live(shared_cfg(), Protocol::Tcop, Duration::from_millis(1500));
    assert_eq!(sim.activated, 8);
    assert!(sim.complete);
    assert_agrees(&sim, &live.outcome, "live");
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
        let live = run_live(scale_cfg(seed), protocol, Duration::from_secs(20));

        assert_eq!(sim.activated, 200, "{protocol:?} sim activation");
        assert!(sim.complete, "{protocol:?} sim completion");
        let m = &live.metrics;
        assert_eq!(m.counter(names::RX_DROPPED), 0, "{protocol:?}");
        assert_agrees(&sim, &live.outcome, "live");
        // The batched syscall plane must actually be exercised.
        assert!(m.counter(names::RX_BATCHES) > 0);
        assert!(m.counter(names::TX_DATAGRAMS) > 0);
        let tx = m.counter(names::TX_FRAMES);
        assert_eq!(
            m.counter(NET_SENT),
            tx + m.counter(names::TX_DROPPED),
            "{protocol:?}: a send skipped the wire"
        );
        assert_eq!(m.counter(names::RX_FRAMES), tx, "{protocol:?}");
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
    let o = &live.outcome;
    assert!(o.complete, "leaf missing {} packets", o.leaf_missing);
    let m = &live.metrics;
    assert_eq!(m.counter(names::RX_DECODE_ERR), 0);
    let probes = m.counter(mnames::COORD_BYTES_TX_PROBE);
    assert!(probes > 0, "the session must have probed");
    let (frames, datagrams) = (m.counter(names::TX_FRAMES), m.counter(names::TX_DATAGRAMS));
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
    for side in [names::TX_BODIES_SHARED, names::RX_BODIES_SHARED] {
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
    let o = &live.outcome;
    assert!(o.complete, "leaf missing {} packets", o.leaf_missing);
    assert_eq!(live.metrics.counter(names::RX_DECODE_ERR), 0);
    assert_fanouts_written_once_and_parsed_once(&live);
}

#[test]
fn centralized_agrees_across_substrates() {
    let sim = Session::new(shared_cfg(), Protocol::Centralized)
        .time_limit(SimDuration::from_secs(60))
        .run();
    let live = run_live(
        shared_cfg(),
        Protocol::Centralized,
        Duration::from_millis(1200),
    );
    assert!(sim.complete);
    assert_eq!(sim.rounds, 3);
    assert_agrees(&sim, &live.outcome, "live");
    // 2PC message count is deterministic: 1 + 3(n−1) in every substrate.
    assert_eq!(sim.coord_msgs_total, 1 + 3 * 7);
    assert_eq!(live.outcome.coord_msgs_total, 1 + 3 * 7);
}

/// The leaf computes every schedule: one round and one message per
/// peer on every substrate.
#[test]
fn leaf_schedule_agrees_across_substrates() {
    let session = || {
        Session::new(shared_cfg(), Protocol::LeafSchedule).time_limit(SimDuration::from_secs(60))
    };
    let sim = session().run();
    let live = run_live(
        shared_cfg(),
        Protocol::LeafSchedule,
        Duration::from_millis(1200),
    );
    assert!(sim.complete);
    assert_eq!((sim.rounds, sim.coord_msgs_total), (1, 8));
    assert_agrees(&sim, &session().shards(2).run(), "sharded");
    assert_agrees(&sim, &live.outcome, "live");
}
