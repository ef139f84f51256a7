//! Leaf-side unit tests with a mock runtime: gating, duplicate
//! accounting, and repair pacing decisions.

use mss_core::config::{Protocol, RepairConfig, SessionConfig};
use mss_core::leaf::LeafActor;
use mss_core::msg::Msg;
use mss_media::buffer::OverrunGate;
use mss_media::{ContentDesc, PacketId, Seq};
use mss_overlay::Directory;
use mss_sim::event::{ActorId, TimerId};
use mss_sim::metrics::Metrics;
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::{Actor, Runtime};
use std::sync::Arc;

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
            rng: SimRng::new(2),
            metrics: Metrics::new(),
        }
    }
}

impl Runtime<Msg> for MockRt {
    fn id(&self) -> ActorId {
        ActorId(9)
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn actor_count(&self) -> usize {
        10
    }
    fn is_alive(&self, _: ActorId) -> bool {
        true
    }
    fn send(&mut self, to: ActorId, msg: Msg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.timers.push((delay, tag));
        TimerId(self.timers.len() as u64)
    }
    fn cancel_timer(&mut self, _: TimerId) {}
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }
}

fn cfg() -> SessionConfig {
    let mut cfg = SessionConfig::small(9, 3, 3);
    cfg.content = ContentDesc::small(4, 20);
    cfg
}

fn dir() -> Arc<Directory> {
    Arc::new(Directory::dense(9))
}

fn data_msg(content: &ContentDesc, seq: u64) -> Msg {
    Msg::data(
        mss_overlay::PeerId(0),
        content.materialize(&PacketId::Data(Seq(seq))),
    )
}

#[test]
fn leaf_initiation_contacts_exactly_h_peers() {
    let mut leaf = LeafActor::new(cfg(), Protocol::Dcop, dir(), None);
    let mut rt = MockRt::new();
    leaf.on_start(&mut rt);
    assert_eq!(rt.sent.len(), 3, "H = 3 content requests");
    let mut targets: Vec<u32> = rt.sent.iter().map(|(to, _)| to.0).collect();
    targets.sort_unstable();
    targets.dedup();
    assert_eq!(targets.len(), 3, "distinct peers");
    for (_, msg) in &rt.sent {
        assert!(matches!(msg, Msg::Request(_)));
    }
}

#[test]
fn leaf_counts_duplicates_and_completes() {
    let content = cfg().content;
    let mut leaf = LeafActor::new(cfg(), Protocol::Dcop, dir(), None);
    let mut rt = MockRt::new();
    for s in 1..=20 {
        leaf.on_message(&mut rt, ActorId(0), data_msg(&content, s));
    }
    assert!(leaf.is_complete());
    assert!(leaf.payloads_verified());
    assert_eq!(leaf.duplicates(), 0);
    leaf.on_message(&mut rt, ActorId(0), data_msg(&content, 5));
    assert_eq!(leaf.duplicates(), 1);
}

#[test]
fn gate_drops_are_counted_not_decoded() {
    // A zero-burst gate rejects everything.
    let gate = OverrunGate::new(1, 1);
    let content = cfg().content;
    let mut leaf = LeafActor::new(cfg(), Protocol::Dcop, dir(), Some(gate));
    let mut rt = MockRt::new();
    for s in 1..=20 {
        leaf.on_message(&mut rt, ActorId(0), data_msg(&content, s));
    }
    assert!(leaf.overruns() > 0);
    assert!(!leaf.is_complete());
    assert_eq!(leaf.accepted() + leaf.overruns(), 20);
}

#[test]
fn quiet_incomplete_stream_triggers_nacks() {
    let mut c = cfg();
    c.repair = Some(RepairConfig {
        check_interval: SimDuration::from_millis(10),
        fanout: 2,
        max_rounds: 3,
    });
    let content = c.content;
    let mut leaf = LeafActor::new(c, Protocol::Dcop, dir(), None);
    let mut rt = MockRt::new();
    // Half the content arrives, then silence.
    for s in 1..=10 {
        leaf.on_message(&mut rt, ActorId(0), data_msg(&content, s));
    }
    let repair_timers = rt.timers.len();
    assert!(repair_timers >= 1, "repair check armed on first data");
    // First tick observes progress (baseline 0 -> 10) and re-arms;
    // the second tick sees no progress and NACKs.
    rt.now = SimTime(10_000_000);
    leaf.on_timer(&mut rt, TimerId(1), 100);
    let nacks_after_first: usize = rt
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, Msg::Nack(_)))
        .count();
    assert_eq!(nacks_after_first, 0, "progress observed, no NACK yet");
    rt.now = SimTime(20_000_000);
    leaf.on_timer(&mut rt, TimerId(2), 100);
    let nacks: Vec<&Msg> = rt
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, Msg::Nack(_)))
        .map(|(_, m)| m)
        .collect();
    assert_eq!(nacks.len(), 2, "NACK fanout = 2");
    if let Msg::Nack(n) = nacks[0] {
        let want: Vec<Seq> = (11..=20).map(Seq).collect();
        assert_eq!(n.seqs.as_ref(), &want[..], "exactly the missing seqs");
    }
}

#[test]
fn complete_stream_never_nacks() {
    let mut c = cfg();
    c.repair = Some(RepairConfig::default());
    let content = c.content;
    let mut leaf = LeafActor::new(c, Protocol::Dcop, dir(), None);
    let mut rt = MockRt::new();
    for s in 1..=20 {
        leaf.on_message(&mut rt, ActorId(0), data_msg(&content, s));
    }
    rt.now = SimTime(1_000_000_000);
    for t in 0..5 {
        leaf.on_timer(&mut rt, TimerId(t), 100);
    }
    assert!(rt.sent.iter().all(|(_, m)| !matches!(m, Msg::Nack(_))));
}
