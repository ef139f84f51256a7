//! Focused unit tests of the shared peer core (adopt/merge/switch/NACK)
//! against a mock runtime — no world, no protocol, just the mechanics.

use mss_core::config::SessionConfig;
use mss_core::msg::{ContentRequest, ControlKind, ControlPacket, Msg, Nack, ProbeReply, ViewWire};
use mss_core::peer_core::Core;
use mss_core::schedule::{initial_assignment, TxSchedule};
use mss_core::tcop::TcopPeer;
use mss_media::{ContentDesc, PacketSeq, Seq};
use mss_overlay::{Directory, PeerId, View};
use mss_sim::event::{ActorId, TimerId};
use mss_sim::metrics::Metrics;
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::{Actor, Runtime};
use std::sync::Arc;

/// Captures everything the code under test does with its runtime.
struct MockRt {
    now: SimTime,
    sent: Vec<(ActorId, Msg)>,
    timers: Vec<(SimDuration, u64)>,
    rng: SimRng,
    metrics: Metrics,
}

impl MockRt {
    fn new() -> MockRt {
        MockRt {
            now: SimTime::ZERO,
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
        self.now
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

fn core() -> Core {
    let dir = Arc::new(Directory::dense(8));
    let mut cfg = SessionConfig::small(8, 3, 5);
    cfg.content = ContentDesc::small(2, 40);
    Core::new(PeerId(0), dir, cfg)
}

#[test]
fn adopt_streams_from_phase_offset() {
    let mut c = core();
    let mut rt = MockRt::new();
    let a = initial_assignment(40, 3, 4, 1, 1000);
    let first = a.first_delay_nanos;
    c.adopt(&mut rt, a);
    assert_eq!(rt.timers.len(), 1, "send timer armed");
    assert_eq!(rt.timers[0].0.as_nanos(), first);
}

#[test]
fn merge_while_running_keeps_unsent_and_sums_rates() {
    let mut c = core();
    let mut rt = MockRt::new();
    c.adopt(&mut rt, initial_assignment(40, 3, 4, 0, 1000));
    let before_rate = 1e9 / c.sched.interval_nanos as f64;
    c.active = true;
    // Advance the schedule a little.
    c.sched.pos = 2;
    let sent_already = c.sched.seq.get(0).cloned().unwrap();
    c.adopt(&mut rt, initial_assignment(40, 3, 4, 2, 1000));
    let after_rate = 1e9 / c.sched.interval_nanos as f64;
    assert!(
        (after_rate - 2.0 * before_rate).abs() < before_rate * 0.01,
        "merged rate {after_rate} should be ~double {before_rate}"
    );
    assert_eq!(c.sched.pos, 0, "merged schedule restarts its cursor");
    assert!(
        !c.sched.seq.contains(&sent_already),
        "already-sent packets must not be rescheduled"
    );
}

#[test]
fn switch_applies_at_mark_not_before() {
    let mut c = core();
    let mut rt = MockRt::new();
    c.adopt(&mut rt, initial_assignment(40, 1, 1, 0, 1000));
    c.active = true;
    let next = TxSchedule {
        seq: PacketSeq::from_ids(vec![mss_media::PacketId::Data(Seq(39))]).into(),
        pos: 0,
        interval_nanos: 500,
        first_delay_nanos: 500,
    };
    let original_len = c.sched.seq.len();
    c.arm_switch(&mut rt, next, Some(3));
    // δ fires while the data plane is active and the mark not reached:
    // switch must wait.
    c.on_switch_timer(&mut rt);
    assert_eq!(c.sched.seq.len(), original_len, "switched before the mark");
    // Send three packets: the third send crosses the mark, the fourth
    // timer tick applies the pending schedule before transmitting.
    for _ in 0..3 {
        c.on_send_timer(&mut rt);
    }
    assert_eq!(c.sched.pos, 3);
    c.on_send_timer(&mut rt);
    assert_eq!(c.sched.seq.len(), 1, "pending schedule not applied at mark");
}

#[test]
fn switch_timer_forces_when_no_data_plane() {
    let mut c = core();
    c.cfg.data_plane = false;
    let mut rt = MockRt::new();
    c.adopt(&mut rt, initial_assignment(40, 1, 1, 0, 1000));
    let next = TxSchedule {
        seq: PacketSeq::from_ids(vec![mss_media::PacketId::Data(Seq(7))]).into(),
        pos: 0,
        interval_nanos: 500,
        first_delay_nanos: 500,
    };
    c.arm_switch(&mut rt, next, Some(10));
    c.on_switch_timer(&mut rt);
    assert_eq!(
        c.sched.seq.len(),
        1,
        "coordination-only runs must switch on the δ timer"
    );
}

#[test]
fn nack_retransmits_exactly_the_asked_packets() {
    let mut c = core();
    let mut rt = MockRt::new();
    c.on_nack(
        &mut rt,
        &Nack {
            seqs: vec![Seq(3), Seq(9), Seq(0), Seq(999)].into(), // 0 and 999 invalid
        },
    );
    assert_eq!(rt.sent.len(), 2, "only valid seqs retransmitted");
    for (to, msg) in &rt.sent {
        assert_eq!(*to, ActorId(8), "repairs go to the leaf");
        match msg {
            Msg::Data(d) => assert!(d.packet.id.is_data()),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(rt.metrics.counter("repair.packets"), 2);
}

#[test]
fn nack_is_ignored_without_data_plane() {
    let mut c = core();
    c.cfg.data_plane = false;
    let mut rt = MockRt::new();
    c.on_nack(
        &mut rt,
        &Nack {
            seqs: vec![Seq(1)].into(),
        },
    );
    assert!(rt.sent.is_empty());
}

#[test]
fn send_timer_transmits_in_schedule_order_and_stops_at_end() {
    let mut c = core();
    let mut rt = MockRt::new();
    let a = initial_assignment(6, 1, 1, 0, 1000);
    let expect: Vec<_> = a.seq.iter().cloned().collect();
    c.adopt(&mut rt, a);
    for _ in 0..expect.len() + 3 {
        c.on_send_timer(&mut rt);
    }
    let sent_ids: Vec<_> = rt
        .sent
        .iter()
        .map(|(_, m)| match m {
            Msg::Data(d) => d.packet.id.clone(),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(sent_ids, expect, "must send exactly the schedule, once");
    assert_eq!(c.sent, expect.len() as u64);
}

#[test]
fn select_children_is_bounded_by_population() {
    let mut c = core();
    let picked = c.select_children(100);
    assert_eq!(picked.len(), 7, "everyone but self");
    assert!(c.view().expect("open").is_full());
    assert!(c.selection_done());
    assert!(c.select_children(1).is_empty());
}

#[test]
fn closed_core_ignores_learning_and_selects_nobody() {
    let mut c = core();
    c.learn_peer(PeerId(3));
    assert!(c.view().expect("open").contains(PeerId(3)));
    c.close_view();
    assert!(c.view().is_none(), "a closed view releases its storage");
    assert!(c.selection_done());
    // Nothing a closed peer hears is kept: no reader is left.
    c.learn_peer(PeerId(4));
    c.learn_view(&View::full(8));
    c.learn(&probe_from(PeerId(5), 2));
    assert!(c.view().is_none());
    assert!(c.select_children(3).is_empty());
}

fn probe_from(from: PeerId, wave: u32) -> ControlPacket {
    ControlPacket {
        kind: ControlKind::Probe,
        from,
        wave,
        view: std::sync::Arc::new(View::empty(8)),
        sched: mss_media::SeqView::empty(),
        pos: 0,
        interval_nanos: 1000,
        mark_delta_nanos: 0,
        part: 0,
        parts: 0,
        h: 2,
        fanout: 3,
        basis: None,
        view_wire: ViewWire::full(),
    }
}

/// A TCoP parent's view stays open until its probe round is finished:
/// a probe it receives while waiting for replies must still show up in
/// the view its commits piggyback.
#[test]
fn tcop_prober_learns_from_probes_until_it_commits() {
    let dir = Arc::new(Directory::dense(8));
    let mut cfg = SessionConfig::small(8, 3, 5);
    cfg.content = ContentDesc::small(2, 40);
    let mut peer = TcopPeer::new(PeerId(0), dir, cfg);
    let mut rt = MockRt::new();
    let request = ContentRequest {
        wave: 1,
        interval_nanos: 1000,
        h: 2,
        fanout: 3,
        part: 0,
        parts: 1,
        view: None,
        weights: None,
    };
    peer.on_message(&mut rt, ActorId(8), Msg::request(request));
    let probed: Vec<PeerId> = rt
        .sent
        .drain(..)
        .map(|(to, msg)| match msg {
            Msg::Control(c) if c.kind == ControlKind::Probe => PeerId(to.0),
            other => panic!("expected a probe, got {other:?}"),
        })
        .collect();
    assert_eq!(probed.len(), 3);

    // While the replies are outstanding, someone else probes this peer.
    let stranger = (1..8)
        .map(PeerId)
        .find(|p| !probed.contains(p))
        .expect("8 peers, 3 probed");
    peer.on_message(
        &mut rt,
        ActorId(stranger.0),
        Msg::control(probe_from(stranger, 3)),
    );
    match rt.sent.drain(..).next() {
        Some((_, Msg::Reply(r))) => assert!(!r.accept, "a claimed peer refuses"),
        other => panic!("expected a refusal, got {other:?}"),
    }

    // One child accepts, the others refuse: the round commits.
    for (k, child) in probed.iter().enumerate() {
        let reply = ProbeReply {
            from: *child,
            accept: k == 0,
            wave: 2,
        };
        peer.on_message(&mut rt, ActorId(child.0), Msg::Reply(reply));
    }
    let commits: Vec<_> = rt
        .sent
        .iter()
        .filter_map(|(to, msg)| match msg {
            Msg::Control(c) if c.kind == ControlKind::Commit => Some((*to, c)),
            _ => None,
        })
        .collect();
    assert_eq!(commits.len(), 1);
    let (to, commit) = &commits[0];
    assert_eq!(*to, ActorId(probed[0].0));
    assert!(
        commit.view.contains(stranger),
        "the commit's view must include the peer learned from a probe mid-round"
    );
    for p in &probed {
        assert!(commit.view.contains(*p));
    }
}
