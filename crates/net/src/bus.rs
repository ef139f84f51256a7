//! In-process threaded transport: every peer is an OS thread, messages
//! travel over `std::sync::mpsc` channels.
//!
//! This is the "real peers" counterpart to the simulator: the identical
//! `mss-core` actors, driven by wall-clock timers and true concurrency.
//! [`ThreadedSession`] wires a full streaming session and reports the
//! same top-level facts as the simulated one (coverage, completion,
//! coordination volume), which the integration tests compare.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mss_core::config::{Protocol, SessionConfig};
use mss_core::leaf::LeafActor;
use mss_core::msg::Msg;
use mss_core::peer_core::PeerReport;
use mss_core::session::{make_peer, report_of};
use mss_overlay::{Directory, PeerId};
use mss_sim::event::ActorId;
use mss_sim::metrics::Metrics;

use crate::runtime::{await_session, host_actor, SessionControl, Transport};

/// Post-completion settle: long enough for in-flight datagrams and the
/// final coordination replies to land, far shorter than any wall
/// timeout a test would otherwise sleep out in full. Public so
/// benchmarks can subtract this fixed grace from measured wall-clock.
pub const SETTLE: Duration = Duration::from_millis(200);

/// Channel-based transport endpoint for one actor.
pub struct BusTransport {
    me: ActorId,
    peers: Arc<Vec<Sender<(ActorId, Msg)>>>,
    inbox: Receiver<(ActorId, Msg)>,
}

impl Transport for BusTransport {
    fn send(&mut self, to: ActorId, msg: Msg) {
        if let Some(tx) = self.peers.get(to.index()) {
            // A receiver that already shut down is equivalent to a dead
            // peer; best-effort delivery is the contract.
            let _ = tx.send((self.me, msg));
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ActorId, Msg)> {
        self.inbox.recv_timeout(timeout).ok()
    }
}

/// A transport decorator that drops each outgoing message independently
/// with probability `p` — UDP-like semantics for the in-process bus, used
/// to exercise parity recovery and NACK repair on real threads.
pub struct LossyTransport<T> {
    /// Per-message drop probability.
    pub p: f64,
    /// The wrapped transport.
    pub inner: T,
    /// Deterministic drop decisions.
    pub rng: mss_sim::rng::SimRng,
}

impl<T: crate::runtime::Transport> crate::runtime::Transport for LossyTransport<T> {
    fn send(&mut self, to: ActorId, msg: Msg) {
        if self.rng.gen_bool(self.p) {
            return;
        }
        self.inner.send(to, msg);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ActorId, Msg)> {
        self.inner.recv_timeout(timeout)
    }
}

/// Result of a threaded session run.
#[derive(Debug)]
pub struct ThreadedOutcome {
    /// Contents peers that activated.
    pub activated: usize,
    /// True when the leaf reconstructed the whole content byte-exactly.
    pub complete: bool,
    /// Data packets the leaf never reconstructed.
    pub missing: usize,
    /// Coordination messages across all threads.
    pub coord_msgs: u64,
    /// Per-peer reports.
    pub reports: Vec<PeerReport>,
    /// Merged metrics from every thread.
    pub metrics: Metrics,
    /// Wall-clock from session start to the leaf's done signal, `None`
    /// when the wall deadline (not completion) ended the run. Excludes
    /// the post-completion settle grace and teardown.
    pub time_to_done: Option<Duration>,
}

/// A streaming session over real threads.
pub struct ThreadedSession {
    cfg: SessionConfig,
    protocol: Protocol,
    wall_timeout: Duration,
    loss: f64,
}

impl ThreadedSession {
    /// A session that will be cut off after `wall_timeout` if the stream
    /// has not completed.
    pub fn new(cfg: SessionConfig, protocol: Protocol, wall_timeout: Duration) -> ThreadedSession {
        cfg.validate();
        let mut cfg = cfg;
        if protocol == Protocol::Unicast {
            cfg.fanout = 1;
        }
        ThreadedSession {
            cfg,
            protocol,
            wall_timeout,
            loss: 0.0,
        }
    }

    /// Drop each message with probability `p` (UDP-like lossy links).
    pub fn loss(mut self, p: f64) -> ThreadedSession {
        self.loss = p;
        self
    }

    /// Spawn all threads, stream, and collect the outcome.
    pub fn run(self) -> ThreadedOutcome {
        let ThreadedSession {
            cfg,
            protocol,
            wall_timeout,
            loss,
        } = self;
        let n = cfg.n;
        // One shared table: a plain `Directory` would be deep-copied per peer.
        let dir = Arc::new(Directory::new(
            (0..n as u32).map(ActorId).collect(),
            ActorId(n as u32),
        ));
        let total = n + 1;
        let mut senders = Vec::with_capacity(total);
        let mut receivers = Vec::with_capacity(total);
        for _ in 0..total {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        let ctl = Arc::new(SessionControl::new());
        let epoch = Instant::now();

        let mut handles = Vec::with_capacity(total);
        receivers.reverse();
        for i in 0..n {
            let me = ActorId(i as u32);
            let actor = make_peer(protocol, PeerId(i as u32), dir.clone(), cfg.clone());
            let transport = LossyTransport {
                p: loss,
                inner: BusTransport {
                    me,
                    peers: Arc::clone(&senders),
                    inbox: receivers.pop().expect("receiver"),
                },
                rng: mss_sim::rng::SimRng::new(cfg.seed).fork(0x1055 + i as u64),
            };
            let ctl = Arc::clone(&ctl);
            let seed = cfg.seed;
            handles.push(std::thread::spawn(move || {
                host_actor(me, actor, transport, epoch, seed, n + 1, &ctl, None)
            }));
        }
        let leaf_id = ActorId(n as u32);
        let leaf = Box::new(LeafActor::new(cfg.clone(), protocol, dir.clone(), None));
        // The leaf's own sends (requests, NACKs) stay lossless: losing a
        // request would just rescale `H`, clouding what the test measures.
        let leaf_transport = BusTransport {
            me: leaf_id,
            peers: Arc::clone(&senders),
            inbox: receivers.pop().expect("leaf receiver"),
        };
        let leaf_ctl = Arc::clone(&ctl);
        let seed = cfg.seed;
        let leaf_handle = std::thread::spawn(move || {
            // The leaf's thread watches its own completion and signals
            // the orchestrator the moment the content is reconstructed.
            let watch = |a: &dyn mss_sim::world::Actor<Msg>| {
                a.as_any()
                    .downcast_ref::<LeafActor>()
                    .is_some_and(LeafActor::is_complete)
            };
            host_actor(
                leaf_id,
                leaf,
                leaf_transport,
                epoch,
                seed,
                n + 1,
                &leaf_ctl,
                Some(&watch),
            )
        });

        // Completion-signaled shutdown: the orchestrator returns as soon
        // as the leaf finishes (plus a settle grace for stragglers); the
        // wall timeout is only the upper bound for stuck sessions.
        let time_to_done = await_session(&ctl, wall_timeout, SETTLE);

        let mut metrics = Metrics::new();
        let mut reports = Vec::with_capacity(n);
        for h in handles {
            let r = h.join().expect("peer thread panicked");
            reports.push(report_of(r.actor.as_ref(), protocol).expect("peer report"));
            metrics.merge(&r.metrics);
        }
        let leaf_report = leaf_handle.join().expect("leaf thread panicked");
        metrics.merge(&leaf_report.metrics);
        let leaf: &LeafActor = leaf_report
            .actor
            .as_any()
            .downcast_ref()
            .expect("leaf actor");

        ThreadedOutcome {
            activated: reports.iter().filter(|r| r.active).count(),
            complete: leaf.is_complete(),
            missing: leaf.missing_count(),
            coord_msgs: metrics.counter(mss_core::metrics::COORD_MSGS),
            reports,
            metrics,
            time_to_done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::ContentDesc;

    #[test]
    fn threaded_dcop_streams_a_small_content() {
        let mut cfg = SessionConfig::small(6, 2, 77);
        cfg.content = ContentDesc::small(5, 60);
        // 60 packets at ~512 µs ≈ 31 ms of stream + coordination.
        let out = ThreadedSession::new(cfg, Protocol::Dcop, Duration::from_millis(1500)).run();
        assert_eq!(out.activated, 6, "all peers must activate");
        assert!(out.complete, "leaf missing {} packets", out.missing);
        assert!(out.coord_msgs >= 6);
    }

    #[test]
    fn lossy_threads_with_nack_repair_still_complete() {
        let mut cfg = SessionConfig::small(8, 3, 501);
        cfg.content = ContentDesc::small(13, 120);
        cfg.repair = Some(mss_core::config::RepairConfig {
            check_interval: mss_sim::time::SimDuration::from_millis(60),
            fanout: 3,
            max_rounds: 10,
        });
        // 3% loss on every peer's sends: parity + repair must close it.
        let out = ThreadedSession::new(cfg, Protocol::Dcop, Duration::from_millis(2500))
            .loss(0.03)
            .run();
        assert_eq!(out.activated, 8);
        assert!(
            out.complete,
            "repair failed over lossy threads: missing {}",
            out.missing
        );
    }

    #[test]
    fn threaded_leaf_schedule_streams() {
        let mut cfg = SessionConfig::small(4, 2, 78);
        cfg.content = ContentDesc::small(6, 40);
        let out =
            ThreadedSession::new(cfg, Protocol::LeafSchedule, Duration::from_millis(1200)).run();
        assert_eq!(out.activated, 4);
        assert!(out.complete, "leaf missing {} packets", out.missing);
    }
}
