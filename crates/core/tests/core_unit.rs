//! Focused unit tests of the shared peer core (adopt/merge/switch/NACK)
//! against a mock runtime — no world, no protocol, just the mechanics.

use mss_core::config::SessionConfig;
use mss_core::dcop::DcopPeer;
use mss_core::metrics::{COORD_UNEXPECTED_KIND, REPAIR_PACKETS};
use mss_core::msg::{
    ContentRequest, ControlBody, ControlKind, ControlPacket, Msg, Nack, ProbeReply,
};
use mss_core::peer_core::Core;
use mss_core::plane::{PlanePeer, RoundShared};
use mss_core::schedule::{initial_assignment, TxSchedule};
use mss_core::tcop::TcopPeer;
use mss_media::{ContentDesc, PacketSeq, Seq};
use mss_overlay::{Directory, PeerId, View};
use mss_sim::event::{ActorId, TimerId};
use mss_sim::metrics::Metrics;
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::{Runtime, SimMessage};
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
    assert_eq!(rt.metrics.counter(REPAIR_PACKETS), 2);
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
    c.learn(&probe_body(PeerId(5), 2));
    assert!(c.view().is_none());
    assert!(c.select_children(3).is_empty());
}

fn probe_body(from: PeerId, wave: u32) -> ControlBody {
    ControlBody {
        kind: ControlKind::Probe,
        from,
        wave,
        view: View::empty(8),
        sched: mss_media::SeqView::empty(),
        pos: 0,
        interval_nanos: 1000,
        mark_delta_nanos: 0,
        parts: 0,
        h: 2,
        fanout: 3,
        basis: None,
    }
}

fn probe_from(from: PeerId, wave: u32) -> Msg {
    Msg::control(&Arc::new(probe_body(from, wave)), 0)
}

fn peer_cfg() -> (Arc<Directory>, SessionConfig) {
    let mut cfg = SessionConfig::small(8, 3, 5);
    cfg.content = ContentDesc::small(2, 40);
    (Arc::new(Directory::dense(8)), cfg)
}

fn leaf_content_request() -> ContentRequest {
    ContentRequest {
        wave: 1,
        interval_nanos: 1000,
        h: 2,
        fanout: 3,
        part: 0,
        parts: 1,
        view: None,
        weights: None,
    }
}

fn leaf_request() -> Msg {
    Msg::request(leaf_content_request())
}

/// Drain the runtime's sends, which must all be control packets of
/// `kind`, as `(destination, handle)` pairs.
fn drain_controls(rt: &mut MockRt, kind: ControlKind) -> Vec<(PeerId, ControlPacket)> {
    rt.sent
        .drain(..)
        .map(|(to, msg)| match msg {
            Msg::Control(c) if c.body.kind == kind => (PeerId(to.0), c),
            other => panic!("expected {kind:?}, got {other:?}"),
        })
        .collect()
}

/// The handles of one fan-out share one body and differ only in `part`.
fn assert_one_body(fanout: &[(PeerId, ControlPacket)], parts: impl Iterator<Item = u32>) {
    let first = &fanout[0].1.body;
    for (_, c) in fanout {
        assert!(Arc::ptr_eq(&c.body, first), "one fan-out, one body");
    }
    let got: Vec<u32> = fanout.iter().map(|(_, c)| c.part).collect();
    assert_eq!(got, parts.collect::<Vec<_>>());
    assert_eq!(Arc::strong_count(first), fanout.len());
}

/// Deliver `msg` to `peer` as its plane does, on fresh scratch (plane
/// scratch never reaches behaviour).
fn deliver(peer: &mut impl PlanePeer, rt: &mut MockRt, msg: Msg) {
    peer.plane_message(rt, &mut RoundShared::default(), msg);
}

/// A TCoP parent activated by the leaf, with its first probe round
/// (wave 2, three candidates) on the wire.
fn probing_tcop_peer(rt: &mut MockRt) -> (TcopPeer, Vec<(PeerId, ControlPacket)>) {
    let (dir, cfg) = peer_cfg();
    let mut peer = TcopPeer::new(PeerId(0), dir, cfg);
    deliver(&mut peer, rt, leaf_request());
    let probes = drain_controls(rt, ControlKind::Probe);
    assert_eq!(probes.len(), 3);
    (peer, probes)
}

fn reply(peer: &mut TcopPeer, rt: &mut MockRt, from: PeerId, accept: bool) {
    let r = ProbeReply {
        from,
        accept,
        wave: 2,
    };
    deliver(peer, rt, Msg::Reply(r));
}

/// A TCoP parent's view stays open until its probe round is finished:
/// a probe it receives while waiting for replies must still show up in
/// the view its commits piggyback.
#[test]
fn tcop_prober_learns_from_probes_until_it_commits() {
    let mut rt = MockRt::new();
    let (mut peer, probes) = probing_tcop_peer(&mut rt);
    let probed: Vec<PeerId> = probes.iter().map(|(to, _)| *to).collect();

    // While the replies are outstanding, someone else probes this peer.
    let stranger = (1..8)
        .map(PeerId)
        .find(|p| !probed.contains(p))
        .expect("8 peers, 3 probed");
    deliver(&mut peer, &mut rt, probe_from(stranger, 3));
    match rt.sent.drain(..).next() {
        Some((_, Msg::Reply(r))) => assert!(!r.accept, "a claimed peer refuses"),
        other => panic!("expected a refusal, got {other:?}"),
    }

    // One child accepts, the others refuse: the round commits.
    for (k, child) in probed.iter().enumerate() {
        reply(&mut peer, &mut rt, *child, k == 0);
    }
    let commits = drain_controls(&mut rt, ControlKind::Commit);
    assert_eq!(commits.len(), 1);
    let (to, commit) = &commits[0];
    assert_eq!(*to, probed[0]);
    assert!(
        commit.body.view.contains(stranger),
        "the commit's view must include the peer learned from a probe mid-round"
    );
    for p in &probed {
        assert!(commit.body.view.contains(*p));
    }
}

/// One DCoP `Select` builds one body: every child holds a handle on it,
/// and the last handler to drop its handle frees it.
#[test]
fn dcop_fanout_shares_one_body() {
    let (dir, cfg) = peer_cfg();
    let mut peer = DcopPeer::new(PeerId(0), dir, cfg);
    let mut rt = MockRt::new();
    deliver(&mut peer, &mut rt, leaf_request());
    let fanout = drain_controls(&mut rt, ControlKind::Activate);
    assert_eq!(fanout.len(), 3);
    assert_one_body(&fanout, 1..=3);
    assert_eq!(fanout[0].1.body.parts, 4, "children plus the parent");

    let body = Arc::downgrade(&fanout[0].1.body);
    let mut handles = fanout.into_iter();
    drop(handles.next());
    assert!(body.upgrade().is_some(), "two children still hold it");
    drop(handles);
    assert!(body.upgrade().is_none(), "the last handle frees the body");
}

/// A TCoP probe round is one body (part 0 for every candidate) whose
/// view is empty over the population: a candidate reads only a probe's
/// sender and wave. The commit round is one body too, and it carries the
/// full view: every probed peer plus the peer learned mid-round.
#[test]
fn tcop_probes_carry_no_view_and_commits_carry_it_all() {
    let mut rt = MockRt::new();
    let (mut peer, probes) = probing_tcop_peer(&mut rt);
    assert_one_body(&probes, [0, 0, 0].into_iter());
    let probe = &probes[0].1.body;
    assert_eq!(probe.view.count(), 0, "a probe ships no members");
    assert_eq!(probe.view.population(), 8, "over the session's population");

    let probed: Vec<PeerId> = probes.iter().map(|(to, _)| *to).collect();
    let stranger = (1..8).map(PeerId).find(|p| !probed.contains(p)).unwrap();
    deliver(&mut peer, &mut rt, probe_from(stranger, 3));
    rt.sent.clear();

    reply(&mut peer, &mut rt, probed[0], true);
    reply(&mut peer, &mut rt, probed[1], false);
    reply(&mut peer, &mut rt, probed[2], true);
    let commits = drain_controls(&mut rt, ControlKind::Commit);
    let to: Vec<PeerId> = commits.iter().map(|(to, _)| *to).collect();
    assert_eq!(to, [probed[0], probed[2]]);
    assert_one_body(&commits, 1..=2);
    let commit = &commits[0].1.body;
    assert_eq!(commit.parts, 3);
    for p in probed.iter().chain([&stranger]) {
        assert!(commit.view.contains(*p), "commit view lacks {p}");
    }
}

/// A probe costs the same on the wire whatever its sender knows: a
/// prober that has learned half of n = 10⁴ ids sends probes the size of
/// one that knows only itself.
#[test]
fn tcop_probe_size_does_not_grow_with_the_prober_view() {
    const N: usize = 10_000;
    let probe_size = |known: Option<View>| {
        let mut cfg = SessionConfig::small(N, 3, 5);
        cfg.content = ContentDesc::small(2, 40);
        let mut peer = TcopPeer::new(PeerId(0), Arc::new(Directory::dense(N)), cfg);
        let mut rt = MockRt::new();
        let req = ContentRequest {
            wave: 1,
            interval_nanos: 1000,
            h: 2,
            fanout: 3,
            part: 0,
            parts: 1,
            view: known.map(Arc::new),
            weights: None,
        };
        deliver(&mut peer, &mut rt, Msg::request(req));
        let probes = drain_controls(&mut rt, ControlKind::Probe);
        assert_eq!(probes.len(), 3);
        Msg::Control(probes[0].1.clone()).wire_size()
    };
    let half = View::from_sorted_ids(N, (0..N as u32).step_by(2).collect());
    assert_eq!(probe_size(Some(half)), probe_size(None));
}

/// A reply counts once, and only from a candidate this round probed: a
/// duplicated accept or an unsolicited one must not commit a child twice
/// or skew the division arity.
#[test]
fn tcop_counts_each_probed_candidate_once() {
    let mut rt = MockRt::new();
    let (mut peer, probes) = probing_tcop_peer(&mut rt);
    let probed: Vec<PeerId> = probes.iter().map(|(to, _)| *to).collect();
    let stranger = (1..8).map(PeerId).find(|p| !probed.contains(p)).unwrap();

    reply(&mut peer, &mut rt, probed[0], true);
    reply(&mut peer, &mut rt, probed[0], true); // duplicated datagram
    reply(&mut peer, &mut rt, stranger, true); // never probed
    assert!(rt.sent.is_empty(), "two candidates have not answered yet");
    assert_eq!(rt.metrics.counter(COORD_UNEXPECTED_KIND), 2);
    reply(&mut peer, &mut rt, probed[1], true);
    reply(&mut peer, &mut rt, probed[2], false);

    let commits = drain_controls(&mut rt, ControlKind::Commit);
    let to: Vec<PeerId> = commits.iter().map(|(to, _)| *to).collect();
    assert_eq!(to, [probed[0], probed[1]], "one commit per accepted child");
    assert_one_body(&commits, 1..=2);
    assert_eq!(commits[0].1.body.parts, 3, "parts == accepted + 1");
}

/// A request or control packet that breaks the session's contract:
/// `h = 0`, a zero weight, no weight for the recipient's part, a
/// division into no parts, or a part past the division. The control
/// packets are a real DCoP fan-out's, relabelled `control`, with the
/// mark at the parent's position so the recipient divides the whole
/// schedule.
fn contract_breaking_frames(control: ControlKind) -> [(&'static str, Msg); 9] {
    let request = |h: u32, part: u32, weights: &[u64]| {
        Msg::request(ContentRequest {
            h,
            part,
            parts: 2,
            weights: Some(weights.into()),
            ..leaf_content_request()
        })
    };
    let uniform_request = |parts: u32, part: u32| {
        Msg::request(ContentRequest {
            parts,
            part,
            ..leaf_content_request()
        })
    };
    let (dir, cfg) = peer_cfg();
    let mut rt = MockRt::new();
    deliver(
        &mut DcopPeer::new(PeerId(5), dir, cfg),
        &mut rt,
        leaf_request(),
    );
    let sent = drain_controls(&mut rt, ControlKind::Activate);
    let control = |h: u32, parts: u32, part: u32| {
        let body = ControlBody {
            kind: control,
            h,
            parts,
            mark_delta_nanos: 0,
            basis: None,
            ..(*sent[0].1.body).clone()
        };
        Msg::control(&Arc::new(body), part)
    };
    let parts = sent[0].1.body.parts;
    [
        ("request h = 0", request(0, 0, &[1, 1])),
        ("control h = 0", control(0, parts, 1)),
        ("zero weight", request(2, 0, &[1, 0])),
        ("no weight for the part", request(2, 1, &[1])),
        ("control parts = 0", control(2, 0, 0)),
        ("control part = parts", control(2, parts, parts)),
        ("request part past parts", uniform_request(2, 5)),
        ("request parts = 0", uniform_request(0, 0)),
        ("request part = parts", uniform_request(2, 2)),
    ]
}

/// The frames `Msg::fits` rejects since it checks `h`, `weights` and
/// the part of an `Activate` or `Commit`. Before, they passed it, so a
/// live worker's `Inbox::accept` handed them to a peer. Delivered
/// straight to a DCoP or TCoP peer, the first four panic it: `h = 0` in
/// the parity layer, a zero weight in the slot allocator (an `assert!`),
/// and a missing weight in the weighted division (a `debug_assert!`; a
/// release build idles the peer). The rest hand out no part: a control
/// packet or a uniform request (no `weights`) whose `part` is not below
/// its `parts` activates the peer with an empty schedule: it counts as
/// active and sends nothing.
#[test]
fn contract_breaking_frames_do_not_fit_and_panic_a_peer() {
    let (dir, cfg) = peer_cfg();
    for kind in [ControlKind::Activate, ControlKind::Commit] {
        for (what, msg) in contract_breaking_frames(kind) {
            assert!(!msg.fits(8), "{what} fits");
            let (dir, cfg) = (dir.clone(), cfg.clone());
            let delivered = std::panic::catch_unwind(move || {
                let mut rt = MockRt::new();
                match kind {
                    ControlKind::Activate => {
                        let mut peer = DcopPeer::new(PeerId(0), dir, cfg);
                        deliver(&mut peer, &mut rt, msg);
                        peer.report()
                    }
                    _ => {
                        let mut peer = TcopPeer::new(PeerId(0), dir, cfg);
                        deliver(&mut peer, &mut rt, msg);
                        peer.report()
                    }
                }
            });
            match what {
                "control parts = 0"
                | "control part = parts"
                | "request part past parts"
                | "request parts = 0"
                | "request part = parts" => {
                    let report = delivered.expect("an empty part does not panic");
                    assert!(report.active, "{what} to the {kind:?} peer");
                    assert_eq!(report.sched_len, 0, "{what} to the {kind:?} peer");
                }
                _ => {
                    let panics = what != "no weight for the part" || cfg!(debug_assertions);
                    assert_eq!(delivered.is_err(), panics, "{what} to the {kind:?} peer");
                }
            }
        }
    }
}

/// A real TCoP probe divides nothing and says so with `parts = 0`; the
/// part rule covers only the packets that hand out a part, so the probe
/// still fits.
#[test]
fn a_real_tcop_probe_fits() {
    let mut rt = MockRt::new();
    let (_, probes) = probing_tcop_peer(&mut rt);
    for (_, probe) in probes {
        assert_eq!(probe.body.parts, 0);
        assert!(Msg::Control(probe).fits(8));
    }
}
