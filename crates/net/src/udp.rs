//! UDP-localhost transport: the same session as [`crate::bus`], but every
//! message crosses a real socket through the loopback interface, framed
//! by [`crate::codec`].
//!
//! Datagram framing bounds message size at ~64 KiB; live sessions should
//! therefore use modest contents (the explicit-schedule messages of the
//! leaf-schedule baseline grow with content length).

use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mss_core::config::{Protocol, SessionConfig};
use mss_core::leaf::LeafActor;
use mss_core::msg::Msg;
use mss_core::session::{make_peer, report_of};
use mss_overlay::{Directory, PeerId};
use mss_sim::event::ActorId;
use mss_sim::metrics::Metrics;

use crate::bus::{ThreadedOutcome, SETTLE};
use crate::codec::{decode, encode_into};
use crate::runtime::{await_session, host_actor, SessionControl, Transport};
use crate::sys;
use bytes::BytesMut;
use mss_sim::pool::BufPool;

/// Explicit kernel buffer sizes for thread-per-peer sockets. Small
/// per-socket buffers (there are n+1 sockets); the ready-queue runtime
/// in [`crate::live`] sizes its few shared sockets much larger.
const PEER_RCVBUF: usize = 256 * 1024;
const PEER_SNDBUF: usize = 128 * 1024;

/// UDP endpoint for one actor.
pub struct UdpTransport {
    me: ActorId,
    socket: UdpSocket,
    addrs: Arc<Vec<SocketAddr>>,
    buf: Vec<u8>,
    /// Recycled frame buffers: every send encodes into pooled scratch
    /// instead of allocating a fresh frame per delivery.
    frames: BufPool,
    /// View snapshots for the deltas addressed to this actor.
    views: crate::views::ViewReassembler,
}

impl UdpTransport {
    /// Wrap a bound socket with the session address book.
    pub fn new(me: ActorId, socket: UdpSocket, addrs: Arc<Vec<SocketAddr>>) -> UdpTransport {
        UdpTransport {
            me,
            socket,
            addrs,
            buf: vec![0u8; 65_536],
            frames: BufPool::default(),
            views: crate::views::ViewReassembler::new(),
        }
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, to: ActorId, msg: Msg) {
        let Some(addr) = self.addrs.get(to.index()) else {
            return;
        };
        self.views.observe_sent(to, &msg);
        let mut frame = BytesMut::from(self.frames.take());
        encode_into(self.me, &msg, &mut frame);
        // Oversized or transient failures are dropped — UDP semantics.
        let _ = self.socket.send_to(&frame, addr);
        self.frames.put(frame.into());
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ActorId, Msg)> {
        self.socket
            .set_read_timeout(Some(timeout.max(Duration::from_micros(100))))
            .ok()?;
        match self.socket.recv_from(&mut self.buf) {
            Ok((len, _)) => {
                let (from, mut msg) = decode(&self.buf[..len]).ok()?;
                if let Msg::Control(c) = &mut msg {
                    self.views.resolve(from, c);
                }
                Some((from, msg))
            }
            Err(_) => None,
        }
    }
}

/// Run a full streaming session over UDP loopback sockets; the outcome
/// has the same shape as the threaded bus session.
pub fn run_udp_session(
    cfg: SessionConfig,
    protocol: Protocol,
    wall_timeout: Duration,
) -> std::io::Result<ThreadedOutcome> {
    cfg.validate();
    let mut cfg = cfg;
    if protocol == Protocol::Unicast {
        cfg.fanout = 1;
    }
    let n = cfg.n;
    let total = n + 1;
    // Bind ephemeral ports first, then share the address book. Kernel
    // buffers are sized explicitly — the default rcvbuf silently drops
    // bursts at high fan-out (see `crate::live` for the drop metric).
    let sockets: Vec<UdpSocket> = (0..total)
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0")?;
            sys::set_socket_bufs(&s, PEER_RCVBUF, PEER_SNDBUF)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()?;
    let addrs: Arc<Vec<SocketAddr>> = Arc::new(
        sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()?,
    );
    // One shared table: a plain `Directory` would be deep-copied per peer.
    let dir = Arc::new(Directory::new(
        (0..n as u32).map(ActorId).collect(),
        ActorId(n as u32),
    ));
    let ctl = Arc::new(SessionControl::new());
    let epoch = Instant::now();

    let mut handles = Vec::with_capacity(total);
    let mut sockets = sockets.into_iter();
    for i in 0..n {
        let me = ActorId(i as u32);
        let actor = make_peer(protocol, PeerId(i as u32), dir.clone(), cfg.clone());
        let transport = UdpTransport::new(me, sockets.next().expect("socket"), Arc::clone(&addrs));
        let ctl = Arc::clone(&ctl);
        let seed = cfg.seed;
        handles.push(std::thread::spawn(move || {
            host_actor(me, actor, transport, epoch, seed, total, &ctl, None)
        }));
    }
    let leaf_id = ActorId(n as u32);
    let leaf = Box::new(LeafActor::new(cfg.clone(), protocol, dir, None));
    let leaf_transport = UdpTransport::new(leaf_id, sockets.next().expect("socket"), addrs);
    let leaf_ctl = Arc::clone(&ctl);
    let seed = cfg.seed;
    let leaf_handle = std::thread::spawn(move || {
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
            total,
            &leaf_ctl,
            Some(&watch),
        )
    });

    // Return as soon as the leaf completes (plus settle); the wall
    // timeout only bounds sessions that never finish.
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

    Ok(ThreadedOutcome {
        activated: reports.iter().filter(|r| r.active).count(),
        complete: leaf.is_complete(),
        missing: leaf.missing_count(),
        coord_msgs: metrics.counter(mss_core::metrics::COORD_MSGS),
        reports,
        metrics,
        time_to_done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::ContentDesc;

    #[test]
    fn udp_dcop_streams_a_small_content() {
        let mut cfg = SessionConfig::small(5, 2, 91);
        cfg.content = ContentDesc::small(7, 50);
        let out =
            run_udp_session(cfg, Protocol::Dcop, Duration::from_millis(1500)).expect("udp session");
        assert_eq!(out.activated, 5);
        assert!(out.complete, "leaf missing {} packets", out.missing);
    }
}
