//! Multi-leaf sessions — the full MSS model of paper §2.
//!
//! The paper's system is `CP_1..CP_n` contents peers serving
//! `LP_1..LP_m` leaf peers ("a large number of leaf peers are required
//! to be supported"); its evaluation only ever exercises `m = 1`. This
//! module runs the *same* per-session protocol state machines for many
//! concurrent leaves over one shared peer population: every contents
//! peer hosts one independent protocol instance per session, multiplexed
//! through a session-scoping [`Runtime`] adapter — no protocol code
//! changes, which is the point of the `Runtime` abstraction.
//!
//! Message envelopes carry a session id; timer tags are partitioned per
//! session. Each leaf is its own actor; coordination and data traffic of
//! different sessions interleave freely on the shared substrate, so
//! per-peer aggregate load is measured faithfully.

use std::sync::Arc;

use mss_overlay::{Directory, PeerId};
use mss_sim::event::{ActorId, TimerId};
use mss_sim::link::LinkModel;
use mss_sim::metrics::Metrics;
use mss_sim::prelude::*;
use mss_sim::rng::SimRng;
use mss_sim::world::{Actor, Runtime, SimMessage, World};

use crate::baselines::{BroadcastPeer, CentralizedPeer, SchedulePeer};
use crate::config::{Protocol, SessionConfig};
use crate::dcop::DcopPeer;
use crate::leaf::LeafActor;
use crate::metrics as mnames;
use crate::msg::Msg;
use crate::peer_core::PeerReport;
use crate::plane::{PlanePeer, RoundShared};
use crate::session::default_link;
use crate::tcop::TcopPeer;

/// A session-scoped message envelope.
#[derive(Clone, Debug)]
pub struct MultiMsg {
    /// Which leaf's session this belongs to.
    pub session: u32,
    /// The protocol message.
    pub msg: Msg,
}

impl SimMessage for MultiMsg {
    fn wire_size(&self) -> usize {
        4 + self.msg.wire_size()
    }
}

/// Timer-tag space per session (protocol tags are all < 1000).
const TAG_STRIDE: u64 = 1_000;

/// Presents a single-session [`Runtime`] view onto a multi-session host.
struct ScopedRuntime<'a> {
    inner: &'a mut dyn Runtime<MultiMsg>,
    session: u32,
}

impl Runtime<Msg> for ScopedRuntime<'_> {
    fn id(&self) -> ActorId {
        self.inner.id()
    }
    fn now(&self) -> mss_sim::time::SimTime {
        self.inner.now()
    }
    fn actor_count(&self) -> usize {
        self.inner.actor_count()
    }
    fn is_alive(&self, actor: ActorId) -> bool {
        self.inner.is_alive(actor)
    }
    fn send(&mut self, to: ActorId, msg: Msg) {
        self.inner.send(
            to,
            MultiMsg {
                session: self.session,
                msg,
            },
        );
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        debug_assert!(tag < TAG_STRIDE, "protocol timer tag too large");
        self.inner
            .set_timer(delay, u64::from(self.session) * TAG_STRIDE + tag)
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }
    fn rng(&mut self) -> &mut SimRng {
        self.inner.rng()
    }
    fn metrics(&mut self) -> &mut Metrics {
        self.inner.metrics()
    }
    fn kill(&mut self, actor: ActorId) {
        self.inner.kill(actor);
    }
    fn stop_world(&mut self) {
        self.inner.stop_world();
    }
}

/// A contents peer hosting one protocol instance per session, all of
/// them sharing one round scratch (see [`crate::plane`]).
pub struct MultiPeer {
    sessions: Vec<Box<dyn PlanePeer>>,
    shared: RoundShared,
}

/// One directory per concurrent session over the same `n` contents
/// peers: session `s`'s leaf lives at actor id `n + s`.
pub fn session_directories(n: usize, sessions: usize) -> Vec<Arc<Directory>> {
    (0..sessions)
        .map(|s| {
            Arc::new(Directory::new(
                (0..n as u32).map(ActorId).collect(),
                ActorId((n + s) as u32),
            ))
        })
        .collect()
}

impl MultiPeer {
    /// Peer `me` serving one leaf per entry of `dirs`: session `s` uses
    /// `dirs[s]` (see [`session_directories`]), shared by all peers.
    pub fn new(
        me: PeerId,
        dirs: &[Arc<Directory>],
        protocol: Protocol,
        cfg: &SessionConfig,
    ) -> MultiPeer {
        let instances = dirs
            .iter()
            .enumerate()
            .map(|(s, dir)| {
                let mut cfg = cfg.clone();
                // Independent randomness per (peer, session).
                cfg.seed = cfg.seed.wrapping_add(1 + s as u64 * 7919);
                make_peer(protocol, me, Arc::clone(dir), cfg)
            })
            .collect();
        MultiPeer {
            sessions: instances,
            shared: RoundShared::default(),
        }
    }

    /// Per-session reports for this peer.
    pub fn reports(&self) -> Vec<PeerReport> {
        self.sessions.iter().map(|p| p.report()).collect()
    }
}

/// A contents peer of `protocol`, one session's instance on a
/// [`MultiPeer`].
fn make_peer(
    protocol: Protocol,
    me: PeerId,
    dir: Arc<Directory>,
    cfg: SessionConfig,
) -> Box<dyn PlanePeer> {
    match protocol {
        Protocol::Dcop | Protocol::Unicast => Box::new(DcopPeer::new(me, dir, cfg)),
        Protocol::Tcop => Box::new(TcopPeer::new(me, dir, cfg)),
        Protocol::Broadcast => Box::new(BroadcastPeer::new(me, dir, cfg)),
        Protocol::Centralized => Box::new(CentralizedPeer::new(me, dir, cfg)),
        Protocol::LeafSchedule => Box::new(SchedulePeer::new(me, dir, cfg)),
    }
}

impl Actor<MultiMsg> for MultiPeer {
    fn on_message(&mut self, ctx: &mut dyn Runtime<MultiMsg>, _: ActorId, msg: MultiMsg) {
        let Some(inner) = self.sessions.get_mut(msg.session as usize) else {
            return;
        };
        let mut scoped = ScopedRuntime {
            inner: ctx,
            session: msg.session,
        };
        inner.plane_message(&mut scoped, &mut self.shared, msg.msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<MultiMsg>, _: TimerId, tag: u64) {
        let session = (tag / TAG_STRIDE) as u32;
        let Some(inner) = self.sessions.get_mut(session as usize) else {
            return;
        };
        let mut scoped = ScopedRuntime {
            inner: ctx,
            session,
        };
        inner.plane_timer(&mut scoped, &mut self.shared, tag % TAG_STRIDE);
    }

    mss_sim::impl_as_any!();
}

/// A leaf peer bound to one session, optionally starting late (staggered
/// arrivals rather than a flash crowd).
pub struct MultiLeaf {
    session: u32,
    start_delay: SimDuration,
    inner: LeafActor,
}

/// Leaf timer tag reserved for the delayed start.
const TAG_LEAF_START: u64 = 999;

impl MultiLeaf {
    /// Session `session`'s leaf, initiating `start_delay` into the run.
    pub fn new(session: u32, start_delay: SimDuration, inner: LeafActor) -> MultiLeaf {
        MultiLeaf {
            session,
            start_delay,
            inner,
        }
    }

    /// The wrapped leaf, for post-run inspection.
    pub fn leaf(&self) -> &LeafActor {
        &self.inner
    }
}

impl Actor<MultiMsg> for MultiLeaf {
    fn on_start(&mut self, ctx: &mut dyn Runtime<MultiMsg>) {
        let mut scoped = ScopedRuntime {
            inner: ctx,
            session: self.session,
        };
        if self.start_delay == SimDuration::ZERO {
            self.inner.on_start(&mut scoped);
        } else {
            scoped.set_timer(self.start_delay, TAG_LEAF_START);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<MultiMsg>, from: ActorId, msg: MultiMsg) {
        if msg.session != self.session {
            return;
        }
        let mut scoped = ScopedRuntime {
            inner: ctx,
            session: self.session,
        };
        self.inner.on_message(&mut scoped, from, msg.msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<MultiMsg>, timer: TimerId, tag: u64) {
        let mut scoped = ScopedRuntime {
            inner: ctx,
            session: self.session,
        };
        let tag = tag % TAG_STRIDE;
        if tag == TAG_LEAF_START {
            self.inner.on_start(&mut scoped);
        } else {
            self.inner.on_timer(&mut scoped, timer, tag);
        }
    }

    mss_sim::impl_as_any!();
}

/// Per-leaf summary of a multi-session run.
#[derive(Clone, Debug)]
pub struct LeafSummary {
    /// Session index.
    pub session: u32,
    /// Whether this leaf reconstructed its whole content.
    pub complete: bool,
    /// Nanoseconds (absolute) at which reconstruction finished.
    pub complete_nanos: Option<u64>,
    /// Data packets this leaf never reconstructed.
    pub missing: usize,
    /// Received-volume ratio for this leaf.
    pub volume: f64,
}

/// Outcome of a multi-leaf run.
#[derive(Debug)]
pub struct MultiOutcome {
    /// One summary per leaf/session.
    pub per_leaf: Vec<LeafSummary>,
    /// Data packets sent per contents peer, aggregated over sessions.
    pub per_peer_sent: Vec<u64>,
    /// Coordination messages across all sessions.
    pub coord_msgs: u64,
    /// Virtual time at quiescence (nanos).
    pub end_nanos: u64,
}

impl MultiOutcome {
    /// Fraction of leaves that completed.
    pub fn completion(&self) -> f64 {
        if self.per_leaf.is_empty() {
            return 0.0;
        }
        self.per_leaf.iter().filter(|l| l.complete).count() as f64 / self.per_leaf.len() as f64
    }

    /// Heaviest-loaded peer's data-packet count.
    pub fn max_peer_sent(&self) -> u64 {
        self.per_peer_sent.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: max peer load over mean peer load.
    pub fn load_imbalance(&self) -> f64 {
        let mean =
            self.per_peer_sent.iter().sum::<u64>() as f64 / self.per_peer_sent.len().max(1) as f64;
        if mean == 0.0 {
            0.0
        } else {
            self.max_peer_sent() as f64 / mean
        }
    }
}

/// Builder for a shared-swarm, many-leaves run.
pub struct MultiSession {
    cfg: SessionConfig,
    protocol: Protocol,
    leaves: usize,
    stagger: SimDuration,
    link: Box<dyn LinkModel + Send>,
    limit: SimTime,
}

impl MultiSession {
    /// `leaves` concurrent sessions over `cfg.n` shared peers.
    pub fn new(cfg: SessionConfig, protocol: Protocol, leaves: usize) -> MultiSession {
        assert!(leaves >= 1);
        MultiSession {
            cfg: cfg.normalized(protocol),
            protocol,
            leaves,
            stagger: SimDuration::ZERO,
            link: Box::new(default_link()),
            limit: SimTime::MAX,
        }
    }

    /// Delay each successive leaf's request by `stagger` (0 = flash crowd).
    pub fn stagger(mut self, stagger: SimDuration) -> MultiSession {
        self.stagger = stagger;
        self
    }

    /// Replace the network model.
    pub fn link(mut self, link: impl LinkModel + Send + 'static) -> MultiSession {
        self.link = Box::new(link);
        self
    }

    /// Stop the simulation at `limit` even if events remain.
    pub fn time_limit(mut self, limit: SimDuration) -> MultiSession {
        self.limit = SimTime::ZERO + limit;
        self
    }

    /// Run to quiescence and summarize.
    pub fn run(self) -> MultiOutcome {
        let MultiSession {
            cfg,
            protocol,
            leaves,
            stagger,
            link,
            limit,
        } = self;
        let n = cfg.n;
        let mut world: World<MultiMsg> = World::new(link, cfg.seed);
        let dirs = session_directories(n, leaves);
        for i in 0..n {
            world.add_actor(Box::new(MultiPeer::new(
                PeerId(i as u32),
                &dirs,
                protocol,
                &cfg,
            )));
        }
        for (s, dir) in dirs.iter().enumerate() {
            let mut leaf_cfg = cfg.clone();
            leaf_cfg.seed = cfg.seed.wrapping_add(0xF00 + s as u64 * 104_729);
            let inner = LeafActor::new(leaf_cfg, protocol, Arc::clone(dir), None);
            world.add_actor(Box::new(MultiLeaf::new(
                s as u32,
                stagger.saturating_mul(s as u64),
                inner,
            )));
        }
        world.run_until(limit);

        let content_bytes = cfg.content.packets as f64 * cfg.content.packet_bytes as f64;
        let per_leaf = (0..leaves)
            .map(|s| {
                let ml: &MultiLeaf = world.actor_as(ActorId((n + s) as u32)).expect("leaf actor");
                let leaf = ml.leaf();
                LeafSummary {
                    session: s as u32,
                    complete: leaf.is_complete(),
                    complete_nanos: leaf.complete_nanos(),
                    missing: leaf.missing_count(),
                    volume: leaf.received_bytes() as f64 / content_bytes,
                }
            })
            .collect();
        let per_peer_sent = (0..n)
            .map(|i| {
                let mp: &MultiPeer = world.actor_as(ActorId(i as u32)).expect("peer actor");
                mp.reports().iter().map(|r| r.sent).sum()
            })
            .collect();
        MultiOutcome {
            per_leaf,
            per_peer_sent,
            coord_msgs: world.metrics().counter(mnames::COORD_MSGS),
            end_nanos: world.now().as_nanos(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::ContentDesc;

    fn base_cfg() -> SessionConfig {
        let mut cfg = SessionConfig::small(12, 3, 71);
        cfg.content = ContentDesc::small(7, 120);
        cfg
    }

    #[test]
    fn four_leaves_all_complete_over_one_swarm() {
        let out = MultiSession::new(base_cfg(), Protocol::Dcop, 4)
            .time_limit(SimDuration::from_secs(120))
            .run();
        assert_eq!(out.per_leaf.len(), 4);
        for l in &out.per_leaf {
            assert!(l.complete, "leaf {} missing {}", l.session, l.missing);
            assert!(l.volume >= 0.999);
        }
        // Every peer carried work for multiple sessions.
        let total: u64 = out.per_peer_sent.iter().sum();
        let single = MultiSession::new(base_cfg(), Protocol::Dcop, 1)
            .time_limit(SimDuration::from_secs(120))
            .run();
        let single_total: u64 = single.per_peer_sent.iter().sum();
        assert!(
            total >= 3 * single_total,
            "4 sessions should send ~4x one session's packets ({total} vs {single_total})"
        );
    }

    #[test]
    fn staggered_arrivals_complete_in_order() {
        let out = MultiSession::new(base_cfg(), Protocol::Dcop, 3)
            .stagger(SimDuration::from_millis(40))
            .time_limit(SimDuration::from_secs(120))
            .run();
        let times: Vec<u64> = out
            .per_leaf
            .iter()
            .map(|l| l.complete_nanos.expect("complete"))
            .collect();
        assert!(
            times[0] < times[1] && times[1] < times[2],
            "staggered sessions should finish in arrival order: {times:?}"
        );
    }

    #[test]
    fn tcop_multi_leaf_builds_independent_trees() {
        let out = MultiSession::new(base_cfg(), Protocol::Tcop, 3)
            .time_limit(SimDuration::from_secs(120))
            .run();
        for l in &out.per_leaf {
            assert!(l.complete, "leaf {} missing {}", l.session, l.missing);
        }
    }

    #[test]
    fn sessions_are_isolated() {
        // A run with 2 leaves must give each leaf the same completeness a
        // solo run gives, despite interleaved traffic.
        let out = MultiSession::new(base_cfg(), Protocol::Dcop, 2)
            .time_limit(SimDuration::from_secs(120))
            .run();
        assert_eq!(out.completion(), 1.0);
        assert!(out.coord_msgs > 0);
    }
}
