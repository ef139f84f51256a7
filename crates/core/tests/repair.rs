//! The NACK-repair extension: leaf-driven retransmission closes the
//! residue that parity alone cannot recover.

use mss_core::config::RepairConfig;
use mss_core::metrics::REPAIR_ROUNDS;
use mss_core::prelude::*;
use mss_core::session::Session;
use mss_sim::link::{FixedLatency, IidLoss};
use mss_sim::time::SimDuration;

fn lossy_session(repair: Option<RepairConfig>, p: f64, seed: u64) -> SessionOutcome {
    let mut cfg = SessionConfig::small(16, 4, seed);
    cfg.content = ContentDesc::small(seed + 1, 400);
    cfg.repair = repair;
    Session::new(cfg, Protocol::Dcop)
        .link(IidLoss {
            p,
            inner: FixedLatency::new(SimDuration::from_millis(1)),
        })
        .time_limit(SimDuration::from_secs(120))
        .run()
}

#[test]
fn repair_completes_what_parity_cannot() {
    let mut unrepaired_incomplete = 0;
    for seed in 0..4 {
        let plain = lossy_session(None, 0.05, 7000 + seed);
        let repaired = lossy_session(Some(RepairConfig::default()), 0.05, 7000 + seed);
        if !plain.complete {
            unrepaired_incomplete += 1;
        }
        assert!(
            repaired.complete,
            "seed {seed}: repair left {} packets missing",
            repaired.leaf_missing
        );
    }
    assert!(
        unrepaired_incomplete > 0,
        "5% loss should defeat parity alone in at least one run \
         (otherwise this test shows nothing)"
    );
}

#[test]
fn repair_is_idle_on_clean_channels() {
    let o = lossy_session(Some(RepairConfig::default()), 0.0, 42);
    assert!(o.complete);
    // No repair rounds should fire when the stream completes cleanly
    // before the quiet-check interval expires on an incomplete state.
    assert_eq!(o.leaf_missing, 0);
}

#[test]
fn repair_survives_crash_plus_loss() {
    let mut cfg = SessionConfig::small(16, 4, 99);
    cfg.content = ContentDesc::small(5, 400);
    cfg.repair = Some(RepairConfig::default());
    let o = Session::new(cfg, Protocol::Dcop)
        .link(IidLoss {
            p: 0.03,
            inner: FixedLatency::new(SimDuration::from_millis(1)),
        })
        .fault(SimDuration::from_millis(70), PeerId(3))
        .fault(SimDuration::from_millis(90), PeerId(11))
        .time_limit(SimDuration::from_secs(120))
        .run();
    assert!(
        o.complete,
        "repair + parity should mask 2 crashes and 3% loss (missing {})",
        o.leaf_missing
    );
}

#[test]
fn repair_gives_up_after_max_rounds() {
    // Kill EVERY peer mid-stream: no amount of NACKing can help, and the
    // leaf must stop asking after max_rounds.
    let mut cfg = SessionConfig::small(6, 3, 123);
    cfg.content = ContentDesc::small(9, 300);
    cfg.repair = Some(RepairConfig {
        check_interval: SimDuration::from_millis(20),
        fanout: 2,
        max_rounds: 3,
    });
    let mut session = Session::new(cfg, Protocol::Dcop).time_limit(SimDuration::from_secs(60));
    for i in 0..6 {
        session = session.fault(SimDuration::from_millis(40), PeerId(i));
    }
    let (o, world, _) = session.run_with_world();
    assert!(!o.complete);
    assert!(
        world.metrics().counter(REPAIR_ROUNDS) <= 3,
        "repair kept trying past max_rounds"
    );
}
