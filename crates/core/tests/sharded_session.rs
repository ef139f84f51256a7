//! Sharded-session integration: protocol runs on the parallel kernel
//! must cover the population, complete streaming, and reproduce
//! bit-for-bit for a fixed `(seed, shards)` pair.

use mss_core::prelude::*;
use mss_core::session::sharded_peer_reports;
use mss_overlay::Directory;
use std::sync::Arc;

fn dir_for(n: usize) -> Arc<Directory> {
    Arc::new(Directory::dense(n))
}

#[test]
fn dcop_sharded_covers_and_completes() {
    for shards in [1usize, 2, 3] {
        let cfg = SessionConfig::small(24, 3, 42);
        let (outcome, world, _) = Session::new(cfg, Protocol::Dcop)
            .shards(shards)
            .run_with_sharded_world();
        assert_eq!(outcome.activated, 24, "shards={shards}");
        assert!(outcome.complete, "shards={shards}");
        assert_eq!(world.shard_count(), shards);
        assert_eq!(world.clamped_cross_events(), 0);
    }
}

#[test]
fn tcop_sharded_covers_and_completes() {
    for shards in [2usize, 4] {
        let cfg = SessionConfig::small(20, 3, 7);
        let (outcome, _, _) = Session::new(cfg, Protocol::Tcop)
            .shards(shards)
            .run_with_sharded_world();
        assert_eq!(outcome.activated, 20, "shards={shards}");
        assert!(outcome.complete, "shards={shards}");
        assert_eq!(outcome.rounds % 3, 0, "TCoP rounds come in threes");
    }
}

#[test]
fn sharded_run_is_deterministic_per_seed_and_shards() {
    let run = |protocol| {
        let cfg = SessionConfig::small(30, 4, 11);
        let (outcome, world, reports) = Session::new(cfg, protocol)
            .shards(3)
            .run_with_sharded_world();
        let counters: Vec<(String, u64)> = world
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        (outcome, world.event_digest(), counters, reports.len())
    };
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        let a = run(protocol);
        let b = run(protocol);
        assert_eq!(a.0, b.0, "{protocol:?} outcome");
        assert_eq!(a.1, b.1, "{protocol:?} digest");
        assert_eq!(a.2, b.2, "{protocol:?} counters");
        assert_eq!(a.3, b.3);
    }
}

#[test]
fn session_run_dispatches_to_shards_and_agrees_on_coverage() {
    // `run()` with shards > 1 takes the sharded path (deterministic per
    // (seed, shards)); the protocol invariants hold either way.
    let sharded = Session::new(SessionConfig::small(16, 3, 5), Protocol::Dcop)
        .shards(2)
        .run();
    let single = Session::new(SessionConfig::small(16, 3, 5), Protocol::Dcop).run();
    assert_eq!(sharded.activated, 16);
    assert_eq!(single.activated, 16);
    assert!(sharded.complete && single.complete);
}

#[test]
fn link_runs_sharded_with_its_min_latency_as_lookahead() {
    use mss_sim::link::FixedLatency;
    use mss_sim::time::SimDuration;
    // Each shard gets a clone of the link; its floor is the lookahead.
    let (outcome, world, _) = Session::new(SessionConfig::small(18, 3, 3), Protocol::Dcop)
        .link(FixedLatency::new(SimDuration::from_millis(2)))
        .shards(3)
        .run_with_sharded_world();
    assert_eq!(world.shard_count(), 3);
    assert_eq!(world.lookahead(), SimDuration::from_millis(2));
    assert_eq!(outcome.activated, 18);
    assert!(outcome.complete);
}

#[test]
fn zero_latency_link_falls_back_to_one_world() {
    use mss_sim::link::FixedLatency;
    use mss_sim::time::SimDuration;
    // No lookahead to synchronize shards on: `run()` must take one world
    // (the very outcome `run_with_world` gives) and still finish.
    let session = || {
        Session::new(SessionConfig::small(12, 3, 9), Protocol::Dcop)
            .link(FixedLatency::new(SimDuration::ZERO))
            .shards(4)
    };
    let outcome = session().run();
    assert_eq!(outcome.activated, 12);
    assert!(outcome.complete);
    assert_eq!(outcome, session().run_with_world().0);
}

#[test]
fn sharded_fault_injection_still_completes_with_parity() {
    let mut cfg = SessionConfig::small(8, 4, 19);
    cfg.parity_interval = 3;
    let (outcome, _, _) = Session::new(cfg, Protocol::Dcop)
        .fault(mss_sim::time::SimDuration::from_millis(300), PeerId(2))
        .shards(2)
        .run_with_sharded_world();
    assert!(outcome.complete, "parity recovery failed under sharding");
}

#[test]
fn sharded_reports_match_directory_population() {
    let cfg = SessionConfig::small(15, 3, 2);
    let n = cfg.n;
    let (_, world, reports) = Session::new(cfg, Protocol::Tcop)
        .shards(2)
        .run_with_sharded_world();
    assert_eq!(reports.len(), n);
    assert!(reports.iter().all(|r| r.active));
    let again = sharded_peer_reports(&world, Protocol::Tcop, &dir_for(n));
    assert_eq!(again.len(), n);
}

#[test]
fn shard_blocks_partition_exactly() {
    use mss_core::session::shard_blocks;
    for (n, s) in [(10usize, 3usize), (7, 7), (100, 8), (5, 1), (3, 5)] {
        let starts = shard_blocks(n, s);
        assert_eq!(starts.len(), s + 1);
        assert_eq!(*starts.first().unwrap(), 0);
        assert_eq!(*starts.last().unwrap(), n);
        let sizes: Vec<usize> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "n={n} s={s}: uneven blocks {sizes:?}");
    }
}

/// Golden pin of the activation-only configuration the view-lifetime
/// rule acts on (`SessionConfig::large`: each peer selects once, then
/// its view closes): closing a view must change no decision, message or
/// event, so digest, event count and coverage stay at the values the
/// keep-every-view implementation produced.
#[test]
fn large_config_two_shard_run_matches_the_golden_digest() {
    for (protocol, digest, events, activated) in [
        (Protocol::Dcop, 0x8c0c_220f_863d_d8ca_u64, 46_125, 4999),
        (Protocol::Tcop, 0x4c12_359e_b858_7b7d_u64, 92_638, 4996),
    ] {
        let cfg = SessionConfig::large(5000, 8, 42);
        let (outcome, world, _) = Session::new(cfg, protocol)
            .shards(2)
            .run_with_sharded_world();
        assert_eq!(
            world.event_digest(),
            digest,
            "{protocol:?} digest {:016x}",
            world.event_digest()
        );
        assert_eq!(world.events_dispatched(), events, "{protocol:?} events");
        assert_eq!(outcome.activated, activated, "{protocol:?} activated");
    }
}

/// Builder pin: what the one session builder wires, per protocol, for
/// the single world and for three shards — peers in ascending blocks,
/// then the leaf, then the injector, the same RNG forks. Event counts and
/// three-shard digests were measured before `run_with_world` and
/// `run_with_sharded_world` shared a builder; the single-world digests
/// when the lone world started folding one (PR 25).
#[test]
fn builder_wires_every_protocol_identically_on_both_kernels() {
    let session = |protocol| {
        let mut cfg = SessionConfig::small(24, 4, 7);
        cfg.parity_interval = 3;
        Session::new(cfg, protocol).fault(mss_sim::time::SimDuration::from_millis(300), PeerId(5))
    };
    // In `Protocol::ALL` order: the single-world digest and event count,
    // then the three-shard digest and its summed event count.
    let pinned = [
        (0xe70b_d766_0b3f_3043_u64, 754, 0xb8ff_808c_fd83_8032, 772), // DCoP
        (0x8c88_0e9f_c54c_7278, 993, 0x3c65_42bc_0a3d_21f9, 971),     // TCoP
        (0xb51d_03bb_4540_966c, 1319, 0x0cde_7191_f8cd_be2e, 1329),   // broadcast
        (0xebfe_d246_b1e1_2fe9, 583, 0x7eec_3eb6_6630_0240, 583),     // unicast
        (0x6b1a_6416_bf3d_6954, 605, 0x078d_b548_6b8c_5738, 605),     // centralized
        (0x95e2_1486_8483_7d27, 559, 0x6038_342c_41dd_1149, 559),     // leaf-schedule
    ];
    for (protocol, (single_digest, single_events, digest, sharded_events)) in
        Protocol::ALL.into_iter().zip(pinned)
    {
        let (outcome, world, reports) = session(protocol).run_with_world();
        assert_eq!(
            world.event_digest(),
            single_digest,
            "{protocol:?} single-world digest {:016x}",
            world.event_digest()
        );
        assert_eq!(world.events_dispatched(), single_events, "{protocol:?}");
        assert_eq!(outcome.activated, 24, "{protocol:?} single world");
        assert!(outcome.complete, "{protocol:?} single world");
        assert_eq!(reports.len(), 24);

        let (outcome, world, reports) = session(protocol).shards(3).run_with_sharded_world();
        assert_eq!(
            world.event_digest(),
            digest,
            "{protocol:?} digest {:016x}",
            world.event_digest()
        );
        assert_eq!(world.events_dispatched(), sharded_events, "{protocol:?}");
        assert_eq!(outcome.activated, 24, "{protocol:?} three shards");
        assert!(outcome.complete, "{protocol:?} three shards");
        assert_eq!(reports.len(), 24);
    }
}

/// The outcome's rounds and synchronization time against what the peers
/// themselves report: DCoP's rounds are the deepest activation wave,
/// TCoP's three per probe wave and probing no deeper than its tree, and
/// `sync_nanos` is the last activation.
fn assert_outcome_agrees_with_reports(
    protocol: Protocol,
    outcome: &SessionOutcome,
    reports: &[PeerReport],
    shape: &str,
) {
    let deepest = reports.iter().filter_map(|r| r.wave).max().unwrap_or(0);
    match protocol {
        Protocol::Tcop => assert!(
            outcome.rounds / 3 <= deepest,
            "{shape}: {} rounds for a deepest wave of {deepest}",
            outcome.rounds
        ),
        _ => assert_eq!(outcome.rounds, deepest, "{shape}: rounds"),
    }
    let active = reports.iter().filter(|r| r.active);
    let last = active.clone().map(|r| r.activated_nanos).max();
    assert_eq!(Some(outcome.sync_nanos), last, "{shape}: sync_nanos");
    assert_eq!(
        outcome.activated,
        active.count() as u64,
        "{shape}: activated"
    );
}

/// Splitting a run over worlds must not multiply its rounds: the merged
/// metrics keep each world's deepest wave and last activation a
/// maximum, so 1, 2 and 4 shards read what their peers report.
#[test]
fn rounds_and_sync_time_read_the_reports_on_every_shard_count() {
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        for shards in [1usize, 2, 4] {
            let (outcome, _, reports) = Session::new(SessionConfig::large(600, 8, 4242), protocol)
                .shards(shards)
                .run_with_sharded_world();
            let shape = format!("{protocol:?} on {shards} shard(s)");
            assert_outcome_agrees_with_reports(protocol, &outcome, &reports, &shape);
        }
    }
}
