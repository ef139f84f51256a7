//! Regression tests for two bugs the round-engine flattening exposed:
//!
//! * **Wave-0 sentinel**: `PeerReport.wave` used to be a bare `u32` with
//!   `0` meaning "never activated" — but a wire-decoded request can
//!   legitimately carry wave 0, making an activated peer look idle. The
//!   report now carries `Option<u32>` and these tests pin both sides.
//! * **Control-kind fallthrough**: a control packet of a kind the
//!   protocol doesn't speak (a probe reaching DCoP, an activate reaching
//!   TCoP) used to fall through to the nearest handler. It must be
//!   dropped — observably, via the `coord.unexpected_kind` counter.

use std::sync::Arc;

use mss_core::metrics::COORD_UNEXPECTED_KIND;
use mss_core::msg::{ContentRequest, ControlBody, ControlKind, Msg};
use mss_core::plane::{PlanePeer, RoundShared};
use mss_core::prelude::*;
use mss_core::{dcop::DcopPeer, tcop::TcopPeer};
use mss_media::PacketSeq;
use mss_overlay::{Directory, View};
use mss_sim::event::{ActorId, TimerId};
use mss_sim::metrics::Metrics;
use mss_sim::rng::SimRng;
use mss_sim::world::Runtime;

/// Captures everything the peer under test does with its runtime.
struct MockRt {
    sent: Vec<(ActorId, Msg)>,
    timers: Vec<(SimDuration, u64)>,
    rng: SimRng,
    metrics: Metrics,
}

impl MockRt {
    fn new() -> MockRt {
        MockRt {
            sent: Vec::new(),
            timers: Vec::new(),
            rng: SimRng::new(1),
            metrics: Metrics::new(),
        }
    }
}

impl Runtime<Msg> for MockRt {
    fn id(&self) -> ActorId {
        ActorId(0)
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn actor_count(&self) -> usize {
        9
    }
    fn is_alive(&self, _actor: ActorId) -> bool {
        true
    }
    fn send(&mut self, to: ActorId, msg: Msg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.timers.push((delay, tag));
        TimerId(self.timers.len() as u64 - 1)
    }
    fn cancel_timer(&mut self, _timer: TimerId) {}
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }
}

fn cfg() -> SessionConfig {
    let mut cfg = SessionConfig::small(8, 3, 5);
    cfg.content = ContentDesc::small(2, 40);
    cfg
}

fn dir() -> Arc<Directory> {
    Arc::new(Directory::dense(8))
}

fn request(wave: u32) -> ContentRequest {
    ContentRequest {
        wave,
        interval_nanos: 1_000_000,
        h: 3,
        fanout: 3,
        part: 0,
        parts: 2,
        view: None,
        weights: None,
    }
}

fn control(kind: ControlKind) -> Msg {
    let body = ControlBody {
        kind,
        from: PeerId(1),
        wave: 1,
        view: View::empty(8),
        sched: PacketSeq::data_range(10).into(),
        pos: 0,
        interval_nanos: 1_000_000,
        mark_delta_nanos: 0,
        parts: 2,
        h: 3,
        fanout: 3,
        basis: None,
    };
    Msg::control(&Arc::new(body), 1)
}

/// An activated peer reports the wave it activated in — even wave 0,
/// which a wire-decoded request can legitimately carry. Under the old
/// `wave: u32` sentinel this peer was indistinguishable from one that
/// never activated.
#[test]
fn wave_zero_activation_is_reported_as_some_zero() {
    let mut rt = MockRt::new();
    let mut shared = RoundShared::default();
    let mut peer = DcopPeer::new(PeerId(0), dir(), cfg());
    peer.plane_message(&mut rt, &mut shared, Msg::request(request(0)));
    let report = peer.report();
    assert!(report.active);
    assert_eq!(report.wave, Some(0), "wave-0 activation must be Some(0)");
}

/// A peer that never activated reports `wave: None`, not a numeric
/// sentinel that collides with a real wave.
#[test]
fn never_activated_peer_reports_wave_none() {
    let peer = DcopPeer::new(PeerId(0), dir(), cfg());
    let report = peer.report();
    assert!(!report.active);
    assert_eq!(report.wave, None);
    let tpeer = TcopPeer::new(PeerId(0), dir(), cfg());
    assert_eq!(tpeer.report().wave, None);
}

/// DCoP speaks only `Activate`. Every other control kind is dropped and
/// counted — it must not activate the peer, adopt a schedule, or spawn a
/// fan-out.
#[test]
fn dcop_drops_and_counts_non_activate_control_kinds() {
    let mut rt = MockRt::new();
    let mut shared = RoundShared::default();
    let mut peer = DcopPeer::new(PeerId(0), dir(), cfg());
    for (i, kind) in [
        ControlKind::Probe,
        ControlKind::Commit,
        ControlKind::Announce,
    ]
    .into_iter()
    .enumerate()
    {
        peer.plane_message(&mut rt, &mut shared, control(kind));
        assert_eq!(
            rt.metrics.counter(COORD_UNEXPECTED_KIND),
            i as u64 + 1,
            "{kind:?} must bump the unexpected-kind counter"
        );
    }
    let report = peer.report();
    assert!(!report.active, "an unexpected kind must not activate");
    assert_eq!(report.sched_len, 0, "no schedule may be adopted");
    assert!(rt.sent.is_empty(), "no fan-out may be spawned");
}

/// TCoP speaks `Probe` and `Commit`; `Activate` and `Announce` are
/// dropped and counted the same way.
#[test]
fn tcop_drops_and_counts_activate_and_announce_kinds() {
    let mut rt = MockRt::new();
    let mut shared = RoundShared::default();
    let mut peer = TcopPeer::new(PeerId(0), dir(), cfg());
    for (i, kind) in [ControlKind::Activate, ControlKind::Announce]
        .into_iter()
        .enumerate()
    {
        peer.plane_message(&mut rt, &mut shared, control(kind));
        assert_eq!(
            rt.metrics.counter(COORD_UNEXPECTED_KIND),
            i as u64 + 1,
            "{kind:?} must bump the unexpected-kind counter"
        );
    }
    let report = peer.report();
    assert!(!report.active, "an unexpected kind must not activate");
    assert!(
        !peer.has_parent(),
        "an unexpected kind must not claim the peer"
    );
    assert!(rt.sent.is_empty(), "no reply or fan-out may be sent");
}

/// The drop is also visible end-to-end: a healthy session records zero
/// unexpected kinds.
#[test]
fn healthy_sessions_record_zero_unexpected_kinds() {
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        let mut cfg = SessionConfig::small(20, 4, 9);
        cfg.content = ContentDesc::small(9, 80);
        let (outcome, world, _) = Session::new(cfg, protocol).run_with_world();
        assert!(outcome.complete);
        assert_eq!(world.metrics().counter(COORD_UNEXPECTED_KIND), 0);
    }
}
