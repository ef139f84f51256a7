//! The live network plane: a full streaming session over real UDP
//! loopback sockets. A live worker is an `mss_sim` [`World`] on a wall
//! clock, so the event queue, the timers and the one dispatch loop that
//! run the `mss-core` actors are the simulator's own.
//!
//! [`LiveSession::workers`]`(S)` builds `S` worlds with
//! `Session::into_live_worlds`, registered as for the sharded simulator:
//! worker k hosts block k of `shard_blocks(n, S)` (a `Plane` group),
//! worker 0 also the leaf. Each worker owns one thread, one
//! non-blocking receive socket (sized with `SO_RCVBUF`) and one
//! blocking send socket, and loops:
//!
//! 1. `recvmmsg` until the socket is empty;
//! 2. split each datagram into its records ([`crate::codec`]) and decode
//!    each frame through the worker's [`FanoutDecoder`] (a fan-out's
//!    shared control body once per worker);
//! 3. queue each message as a delivery at now: wall-clock nanoseconds
//!    since the session epoch, but at most `MAX_STEP` past the world's
//!    clock, so a worker that falls behind slows its world down;
//! 4. `run_until(now)`: due timers and deliveries, in time order;
//! 5. drain the sends the world staged into one [`BundleWriter`] per
//!    destination worker, applying [`LiveSession::loss`];
//! 6. seal the bundles and `sendmmsg` them;
//! 7. signal done once the leaf is complete (worker 0);
//! 8. `epoll_wait` until the world's next event or a datagram.
//!
//! A live world hosts no receiver, not even its own peers, so every send
//! crosses the wire: the sessions measure the network, not a shortcut.
//! Sealed bundles go out as soon as 64 (`TX_BATCH`) pile up and always
//! before the worker waits, so nothing waits in a buffer while its
//! worker sleeps. A sender's messages to one receiver leave through one
//! writer in send order, so per-edge FIFO holds unless the kernel drops
//! a datagram, which is all the protocols need (DESIGN.md §mss-net).
//!
//! Loss is still possible (UDP semantics), and its unit is the datagram:
//! if a worker falls behind, the kernel drops whole bundles at its
//! receive queue — those drops are *counted*, not silent, via the
//! `SO_RXQ_OVFL` overflow counter surfaced as the `net.rx_dropped`
//! metric. Batch sizes, bundle fill (`net.tx_frames` ÷
//! `net.tx_datagrams`, likewise `rx`), buffer sizes, the frames written
//! and parsed once per fan-out and the workers' busy time are all
//! reported in the outcome's metrics (see [`crate::names`]) so the
//! batching behavior is observable, not assumed.

use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::time::{Duration, Instant};

use mss_core::config::{Protocol, SessionConfig};
use mss_core::leaf::LeafActor;
use mss_core::metrics::SessionOutcome;
use mss_core::msg::Msg;
use mss_core::peer_core::PeerReport;
use mss_core::session::{collect_reports, shard_blocks, summarize, Session};
use mss_overlay::Directory;
use mss_sim::event::ActorId;
use mss_sim::metrics::Metrics;
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::World;

use crate::codec::{split_bundle, BundleWriter, FanoutDecoder};
use crate::names;
use crate::runtime::{await_session, SessionControl, SETTLE};
use crate::sys::{self, BatchSocket, Dest, Epoll, RxMeta, RX_BATCH, RX_BUF, TX_BATCH};

/// Kernel receive buffer of each worker's socket, sized big: it takes
/// the fan-out bursts of every worker at once, its own included.
const RX_RCVBUF: usize = 4 * 1024 * 1024;
/// Send buffer per worker tx socket; blocking sends make this the
/// backpressure window.
const WORKER_SNDBUF: usize = 1024 * 1024;
/// Epoll token for the rx socket.
const RX_TOKEN: u64 = 0;
/// Upper bound on one wait, so the stop flag stays live even with no
/// event pending.
const MAX_SLEEP_MS: u64 = 50;
/// Most one loop turn advances a world's clock. A worker that falls
/// behind (a burst, or a CPU it shares) lets world time trail the wall
/// clock instead of jumping to it, so the timers that pace the data
/// slow down with the worker as its coordination hops do. Without the
/// cap, overdue data timers fire as one burst and the stream can end
/// before the last TCoP waves are probed: at n = 10⁴ on one worker
/// sharing its CPU with a busy loop, 4 of 8 TCoP sessions stopped at
/// ≈ 0.945 of the peers activated, and none with it.
const MAX_STEP: SimDuration = SimDuration::from_millis(5);

/// Result of a live session run.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The session's outcome, summarised as the simulator summarises
    /// its worlds: rounds, receipt rate, completion time and the rest,
    /// over the metrics merged from every worker.
    pub outcome: SessionOutcome,
    /// A copy of [`SessionOutcome::activated`], held for
    /// `benchmark/src/workloads.rs`, its only reader, until a benchmark
    /// PR reads `outcome` instead.
    pub activated: usize,
    /// A copy of [`SessionOutcome::complete`], held likewise.
    pub complete: bool,
    /// A copy of [`SessionOutcome::leaf_missing`], held likewise.
    pub missing: usize,
    /// A copy of [`SessionOutcome::coord_msgs_total`], held likewise.
    pub coord_msgs: u64,
    /// Per-peer reports.
    pub reports: Vec<PeerReport>,
    /// Merged metrics from every worker.
    pub metrics: Metrics,
    /// Wall-clock from session start to the leaf's done signal, `None`
    /// when the wall deadline (not completion) ended the run. Excludes
    /// the post-completion settle grace and teardown.
    pub time_to_done: Option<Duration>,
    /// Per worker, the time it spent outside `epoll_wait` (the sum is
    /// `net.worker_busy_ns`).
    pub worker_busy: Vec<Duration>,
}

/// A streaming session over UDP loopback: build, tweak, `run()`, get a
/// [`LiveOutcome`].
pub struct LiveSession {
    cfg: SessionConfig,
    protocol: Protocol,
    wall_timeout: Duration,
    workers: usize,
    loss: f64,
}

impl LiveSession {
    /// A session cut off after `wall_timeout` if streaming has not
    /// completed (completion is signaled, so finished sessions return
    /// much sooner).
    pub fn new(cfg: SessionConfig, protocol: Protocol, wall_timeout: Duration) -> LiveSession {
        let cfg = cfg.normalized(protocol);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Never oversubscribe a small box.
        let workers = cores.saturating_sub(1).clamp(1, 8);
        LiveSession {
            cfg,
            protocol,
            wall_timeout,
            workers,
            loss: 0.0,
        }
    }

    /// Drop each message a contents peer sends with probability `p`
    /// before it is bundled (lossy links, per message, on top of whatever
    /// bundles the kernel drops; counted in `net.tx_dropped`). The leaf's
    /// own sends — requests, NACKs — stay lossless: losing a request
    /// would just rescale `H`, clouding what a loss test measures.
    pub fn loss(mut self, p: f64) -> LiveSession {
        self.loss = p;
        self
    }

    /// Override the worker count (default: cores − 1, at least 1 and at
    /// most 8; never more than one per peer).
    pub fn workers(mut self, w: usize) -> LiveSession {
        self.workers = w.max(1);
        self
    }

    /// Bind the sockets, run one thread per worker, stream the session,
    /// and summarise it with the simulator's `session::summarize`.
    pub fn run(self) -> std::io::Result<LiveOutcome> {
        let LiveSession {
            cfg,
            protocol,
            wall_timeout,
            workers,
            loss,
        } = self;
        let n = cfg.n;
        let leaf = ActorId(n as u32);
        let use_mmsg = sys::mmsg_enabled();
        let worlds = Session::new(cfg.clone(), protocol).into_live_worlds(workers);
        let blocks = shard_blocks(n, worlds.len());

        // --- sockets -------------------------------------------------
        let mut metrics = Metrics::new();
        let mut ovfl_counted = true;
        let mut socks = Vec::with_capacity(worlds.len());
        for _ in 0..worlds.len() {
            let rx = UdpSocket::bind("127.0.0.1:0")?;
            let (granted, _) = sys::set_socket_bufs(&rx, RX_RCVBUF, WORKER_SNDBUF)?;
            ovfl_counted &= sys::enable_rxq_ovfl(&rx);
            rx.set_nonblocking(true)?;
            metrics.set_max_id(names::RCVBUF_BYTES_ID, granted as u64);
            socks.push(rx);
        }
        metrics.set_max_id(names::MMSG_ACTIVE_ID, u64::from(use_mmsg));
        metrics.set_max_id(names::RXQ_OVFL_COUNTED_ID, u64::from(ovfl_counted));
        let addrs = socks
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut wires = Vec::with_capacity(worlds.len());
        for (k, rx) in socks.into_iter().enumerate() {
            let inbox = Inbox::new(
                blocks[k] as u32..blocks[k + 1] as u32,
                (k == 0).then_some(leaf),
                n,
            );
            let drops = InjectedLoss {
                p: loss,
                rng: SimRng::new(cfg.seed).fork(0x1055 + k as u64),
                leaf,
            };
            wires.push(Wire::new(rx, &addrs, inbox, drops, use_mmsg)?);
        }

        // --- workers -------------------------------------------------
        let ctl = SessionControl::new();
        let epoch = Instant::now();
        let (time_to_done, finished) = std::thread::scope(|scope| {
            let ctl = &ctl;
            let handles: Vec<_> = worlds
                .into_iter()
                .zip(wires)
                .map(|(mut world, mut wire)| {
                    scope.spawn(move || {
                        let ran = wire.run(&mut world, ctl, epoch);
                        // An I/O error ends the session for every worker.
                        ctl.request_stop();
                        ran.map(|()| (world, wire))
                    })
                })
                .collect();
            let time_to_done = await_session(ctl, wall_timeout, SETTLE);
            wake(&addrs);
            let finished: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("live worker panicked"))
                .collect();
            (time_to_done, finished)
        });

        let mut worlds = Vec::with_capacity(finished.len());
        let mut worker_busy = Vec::with_capacity(finished.len());
        for done in finished {
            let (mut world, mut wire) = done?;
            // Every worker has sent its last datagram: what is still on
            // the way is received, never delivered, so every frame sent
            // is counted on both sides.
            let now = world.now();
            wire.receive(&mut world, now)?;
            metrics.merge(&wire.metrics);
            metrics.merge(world.metrics());
            worker_busy.push(wire.busy);
            worlds.push(world);
        }

        let reports = collect_reports(
            |id| worlds.iter().find_map(|w| w.actor_any(id)),
            protocol,
            &Directory::dense(n),
        );
        let leaf: &LeafActor = worlds[0].actor_as(leaf).expect("leaf actor");
        let outcome = summarize(&metrics, leaf, protocol, &cfg, &reports);
        Ok(LiveOutcome {
            activated: outcome.activated as usize,
            complete: outcome.complete,
            missing: outcome.leaf_missing as usize,
            coord_msgs: outcome.coord_msgs_total,
            outcome,
            reports,
            metrics,
            time_to_done,
            worker_busy,
        })
    }
}

/// Wake every worker out of `epoll_wait` after the stop: a zero-length
/// datagram, which no bundle is, so receivers skip it.
fn wake(addrs: &[SocketAddr]) {
    if let Ok(sock) = UdpSocket::bind("127.0.0.1:0") {
        for addr in addrs {
            let _ = sock.send_to(&[], addr);
        }
    }
}

/// The receivers one worker hosts, and the worker's decoder for them.
struct Inbox {
    /// Contents peers hosted here.
    peers: Range<u32>,
    /// The leaf, on the worker that hosts it.
    leaf: Option<ActorId>,
    /// The session's population: what every message must fit.
    n: usize,
    decoder: FanoutDecoder,
}

impl Inbox {
    /// Receivers `peers` (and `leaf`) of a session of `n` contents
    /// peers, decoding from its senders `0..=n` (the peers and the leaf).
    fn new(peers: Range<u32>, leaf: Option<ActorId>, n: usize) -> Inbox {
        Inbox {
            peers,
            leaf,
            n,
            decoder: FanoutDecoder::new(n + 1),
        }
    }

    /// Whether this worker hosts receiver `id`.
    fn hosts(&self, id: u32) -> bool {
        self.peers.contains(&id) || self.leaf == Some(ActorId(id))
    }

    /// Queue every record of one datagram for delivery at `now`; returns
    /// the frames queued. A record for a receiver hosted elsewhere is
    /// counted in `net.rx_unroutable`; a frame that does not decode, or
    /// decodes to a message that does not fit the session
    /// ([`Msg::fits`]), in `net.rx_decode_err`. Both are skipped. A
    /// malformed record counts one `net.rx_decode_err` and ends the
    /// datagram; the records before it are already queued.
    fn accept(
        &mut self,
        datagram: &[u8],
        now: SimTime,
        world: &mut World<Msg>,
        metrics: &mut Metrics,
    ) -> u64 {
        let mut frames = 0;
        for record in split_bundle(datagram) {
            let Ok((to, frame)) = record else {
                metrics.incr_id(names::RX_DECODE_ERR_ID);
                continue;
            };
            if !self.hosts(to) {
                metrics.incr_id(names::RX_UNROUTABLE_ID);
                continue;
            }
            frames += 1;
            let Some((from, msg)) = self
                .decoder
                .decode(frame)
                .ok()
                .filter(|(_, m)| m.fits(self.n))
            else {
                metrics.incr_id(names::RX_DECODE_ERR_ID);
                continue;
            };
            world.arrive(now, from, ActorId(to), msg);
        }
        metrics.add_id(names::RX_FRAMES_ID, frames);
        frames
    }

    /// Record the decoder's end-of-run counts.
    fn report(&self, metrics: &mut Metrics) {
        metrics.add_id(names::RX_BODIES_SHARED_ID, self.decoder.shared());
        metrics.add_id(names::RX_BODIES_HELD_ID, self.decoder.held() as u64);
    }
}

/// [`LiveSession::loss`] as one worker applies it.
struct InjectedLoss {
    p: f64,
    rng: SimRng,
    /// The leaf's sends are exempt.
    leaf: ActorId,
}

/// One worker's side of the wire: its sockets, one bundle writer per
/// destination worker, the receivers it hosts, and its metrics.
struct Wire {
    rx: UdpSocket,
    rx_batch: BatchSocket,
    bufs: Vec<Vec<u8>>,
    meta: Vec<RxMeta>,
    /// Last cumulative `SO_RXQ_OVFL` count seen.
    last_ovfl: u32,
    tx: UdpSocket,
    tx_batch: BatchSocket,
    /// Every worker's rx socket, in the kernel's address form.
    dests: Vec<Dest>,
    /// One per destination worker.
    bundles: Vec<BundleWriter>,
    /// The sends of one `run_until`, taken from the world's lanes.
    staged: Vec<(usize, ActorId, ActorId, Msg)>,
    inbox: Inbox,
    /// Frames queued since the last `run_until`.
    queued: u64,
    drops: InjectedLoss,
    metrics: Metrics,
    /// Time spent outside `epoll_wait`.
    busy: Duration,
}

impl Wire {
    /// The wire of a worker receiving on `rx`, sending to the workers
    /// listening on `addrs` from a socket of its own.
    fn new(
        rx: UdpSocket,
        addrs: &[SocketAddr],
        inbox: Inbox,
        drops: InjectedLoss,
        use_mmsg: bool,
    ) -> std::io::Result<Wire> {
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        sys::set_socket_bufs(&tx, 64 * 1024, WORKER_SNDBUF)?;
        Ok(Wire {
            rx_batch: BatchSocket::new(&rx, use_mmsg),
            rx,
            bufs: (0..RX_BATCH).map(|_| Vec::with_capacity(RX_BUF)).collect(),
            meta: vec![RxMeta::default(); RX_BATCH],
            last_ovfl: 0,
            tx_batch: BatchSocket::new(&tx, use_mmsg),
            tx,
            dests: addrs.iter().map(|&a| Dest::new(a)).collect(),
            bundles: addrs
                .iter()
                .map(|_| BundleWriter::new(TX_BATCH + 1))
                .collect(),
            staged: Vec::new(),
            inbox,
            queued: 0,
            drops,
            metrics: Metrics::new(),
            busy: Duration::ZERO,
        })
    }

    /// The worker loop (module docs, steps 1–8) until the session stops.
    fn run(
        &mut self,
        world: &mut World<Msg>,
        ctl: &SessionControl,
        epoch: Instant,
    ) -> std::io::Result<()> {
        let epoll = Epoll::new()?;
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            epoll.add(self.rx.as_raw_fd(), RX_TOKEN)?;
        }
        #[cfg(not(target_os = "linux"))]
        epoll.add(-1, RX_TOKEN)?;
        let mut tokens = Vec::new();
        let mut done = false;
        while !ctl.should_stop() {
            let woke = Instant::now();
            let wall = SimTime(woke.duration_since(epoch).as_nanos() as u64);
            let now = wall.min(world.now() + MAX_STEP);
            self.receive(world, now)?;
            self.metrics
                .set_max_id(names::MAILBOX_HWM_ID, std::mem::take(&mut self.queued));
            world.run_until(now);
            self.post(world, now)?;
            if let Some(leaf) = self.inbox.leaf.filter(|_| !done) {
                if world
                    .actor_as::<LeafActor>(leaf)
                    .is_some_and(LeafActor::is_complete)
                {
                    ctl.signal_done();
                    done = true;
                }
            }
            let next = world.peek_time();
            let idle = Instant::now();
            self.busy += idle - woke;
            let until = next.map_or(u64::MAX, |t| {
                let at = epoch + Duration::from_nanos(t.as_nanos());
                at.saturating_duration_since(idle)
                    .as_nanos()
                    .div_ceil(1_000_000) as u64
            });
            epoll.wait(&mut tokens, until.min(MAX_SLEEP_MS) as i32)?;
        }
        self.metrics
            .add_id(names::WORKER_BUSY_NS_ID, self.busy.as_nanos() as u64);
        self.inbox.report(&mut self.metrics);
        Ok(())
    }

    /// Steps 1–3: drain the socket into `world`, every message due at
    /// `now`.
    fn receive(&mut self, world: &mut World<Msg>, now: SimTime) -> std::io::Result<()> {
        loop {
            let got = self
                .rx_batch
                .recv_batch(&self.rx, &mut self.bufs, &mut self.meta)?;
            if got == 0 {
                break;
            }
            let m = &mut self.metrics;
            m.incr_id(names::RX_BATCHES_ID);
            m.set_max_id(names::RX_BATCH_MAX_ID, got as u64);
            let mut ovfl_max = self.last_ovfl;
            for (buf, meta) in self.bufs.iter().zip(&self.meta).take(got) {
                ovfl_max = ovfl_max.max(meta.rxq_ovfl);
                if meta.len > 0 {
                    m.incr_id(names::RX_DATAGRAMS_ID);
                    self.queued += self.inbox.accept(&buf[..meta.len], now, world, m);
                }
            }
            m.add_id(names::RX_DROPPED_ID, u64::from(ovfl_max - self.last_ovfl));
            self.last_ovfl = ovfl_max;
            if got < self.bufs.len() {
                break;
            }
        }
        Ok(())
    }

    /// Steps 5–6: every staged send into its destination's bundle, then
    /// every bundle onto the wire. A burst of one `run_until` can exceed
    /// what the receive buffers hold — this worker's own included, which
    /// nobody else drains — so after each full batch of bundles the
    /// socket is drained too, into deliveries at `now`.
    fn post(&mut self, world: &mut World<Msg>, now: SimTime) -> std::io::Result<()> {
        let mut staged = std::mem::take(&mut self.staged);
        world.drain_staged(|dst, from, to, msg| staged.push((dst, from, to, msg)));
        for (dst, from, to, msg) in staged.drain(..) {
            if self.push(dst, from, to, &msg) {
                self.receive(world, now)?;
            }
        }
        self.staged = staged;
        for dst in 0..self.bundles.len() {
            let copied = self.bundles[dst].forget_body();
            self.metrics.add_id(names::TX_BODIES_SHARED_ID, copied);
            self.bundles[dst].seal();
            self.send_sealed(dst);
        }
        Ok(())
    }

    /// One send: dropped by the injected loss, or encoded into the
    /// bundle for worker `dst`. True when that sent a full batch of
    /// bundles.
    fn push(&mut self, dst: usize, from: ActorId, to: ActorId, msg: &Msg) -> bool {
        let drops = &mut self.drops;
        if drops.p > 0.0 && from != drops.leaf && drops.rng.gen_bool(drops.p) {
            self.metrics.incr_id(names::TX_DROPPED_ID);
            return false;
        }
        if self.bundles[dst].push(to, from, msg) {
            self.metrics.incr_id(names::TX_FRAMES_ID);
        } else {
            self.metrics.incr_id(names::TX_DROPPED_ID); // larger than any datagram
        }
        let full = self.bundles[dst].sealed().len() >= TX_BATCH;
        if full {
            self.send_sealed(dst);
        }
        full
    }

    /// Hand the sealed bundles for worker `dst` to the kernel.
    fn send_sealed(&mut self, dst: usize) {
        let bundles = &mut self.bundles[dst];
        let burst = bundles.sealed().len();
        if burst == 0 {
            return;
        }
        let sent = self
            .tx_batch
            .send_batch(&self.tx, &self.dests[dst], bundles.sealed());
        let (sent, calls) = sent.unwrap_or((0, 1));
        let m = &mut self.metrics;
        m.add_id(names::TX_BATCHES_ID, calls as u64);
        m.add_id(names::TX_DATAGRAMS_ID, sent as u64);
        m.set_max_id(names::TX_BATCH_MAX_ID, sent as u64);
        m.add_id(names::TX_DROPPED_ID, (burst - sent) as u64);
        bundles.recycle_sealed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_core::msg::{ContentRequest, ControlBody, ControlKind, ProbeReply};
    use mss_media::ContentDesc;
    use mss_overlay::{PeerId, View};
    use mss_sim::shard::ShardedWorld;
    use mss_sim::world::{Actor, Runtime};

    /// No frame a worker received was undecodable.
    fn assert_no_decode_errors(out: &LiveOutcome) {
        assert_eq!(out.metrics.counter(names::RX_DECODE_ERR), 0);
    }

    /// Every send crossed the wire: it was written into a datagram or
    /// counted as dropped, and with nothing lost in the kernel every
    /// frame written was received.
    fn assert_every_send_crossed_the_wire(out: &LiveOutcome) {
        let m = &out.metrics;
        let tx = m.counter(names::TX_FRAMES);
        assert_eq!(
            m.counter(mss_sim::metrics::NET_SENT),
            tx + m.counter(names::TX_DROPPED)
        );
        assert_eq!(m.counter(names::RX_DROPPED), 0);
        assert_eq!(m.counter(names::RX_FRAMES), tx);
    }

    /// The outcome, summarised over every worker's merged metrics,
    /// against the peers' own reports: DCoP's rounds are the deepest
    /// activation wave, TCoP's three per probe wave and probing no
    /// deeper than its tree, `sync_nanos` is the last activation, and
    /// `activated` counts the active reports.
    fn assert_outcome_reads_the_reports(out: &LiveOutcome, protocol: Protocol) {
        let (o, reports) = (&out.outcome, &out.reports);
        let deepest = reports.iter().filter_map(|r| r.wave).max().unwrap_or(0);
        match protocol {
            Protocol::Tcop => assert!(
                o.rounds / 3 <= deepest,
                "{} rounds, wave {deepest}",
                o.rounds
            ),
            _ => assert_eq!(o.rounds, deepest, "rounds against the deepest wave"),
        }
        let active = reports.iter().filter(|r| r.active);
        let last = active.clone().map(|r| r.activated_nanos).max();
        assert_eq!(Some(o.sync_nanos), last, "sync_nanos");
        assert_eq!(o.activated, active.count() as u64, "activated");
        assert_eq!(out.activated as u64, o.activated);
    }

    /// An accepting probe reply of the given wave.
    fn reply(wave: u32) -> Msg {
        Msg::Reply(ProbeReply {
            from: PeerId(0),
            accept: true,
            wave,
        })
    }

    /// Logs what it receives: a reply's wave, a data packet's payload size.
    #[derive(Default)]
    struct Recorder(Vec<usize>);
    impl Actor<Msg> for Recorder {
        fn on_message(&mut self, _rt: &mut dyn Runtime<Msg>, _from: ActorId, msg: Msg) {
            match msg {
                Msg::Reply(r) => self.0.push(r.wave as usize),
                Msg::Data(d) => self.0.push(d.packet.payload.len()),
                _ => {}
            }
        }
        mss_sim::impl_as_any!();
    }

    /// Sends its messages when started, then nothing.
    struct Shouter(Vec<(ActorId, Msg)>);
    impl Actor<Msg> for Shouter {
        fn on_start(&mut self, rt: &mut dyn Runtime<Msg>) {
            for (to, msg) in self.0.drain(..) {
                rt.send(to, msg);
            }
        }
        fn on_message(&mut self, _rt: &mut dyn Runtime<Msg>, _from: ActorId, _msg: Msg) {}
        mss_sim::impl_as_any!();
    }

    /// Live worlds hosting `actors[k]` on worker `k`, ids in order.
    fn worlds(actors: Vec<Vec<Box<dyn Actor<Msg>>>>) -> Vec<World<Msg>> {
        let mut sw = ShardedWorld::live(actors.len(), 1);
        for (k, hosted) in actors.into_iter().enumerate() {
            for actor in hosted {
                sw.add_actor(k, actor);
            }
        }
        sw.into_live_worlds()
    }

    /// A bound, non-blocking receive socket.
    fn rx_socket() -> UdpSocket {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        sys::set_socket_bufs(&rx, 1 << 20, 1 << 16).unwrap();
        rx.set_nonblocking(true).unwrap();
        rx
    }

    /// The wire of a worker hosting `peers` of a session of `n`,
    /// receiving on `rx` and sending to `addrs`, without injected loss.
    fn wire(rx: UdpSocket, addrs: &[SocketAddr], peers: Range<u32>, n: usize) -> Wire {
        let no_loss = InjectedLoss {
            p: 0.0,
            rng: SimRng::new(1),
            leaf: ActorId(u32::MAX),
        };
        let inbox = Inbox::new(peers, None, n);
        Wire::new(rx, addrs, inbox, no_loss, sys::mmsg_enabled()).unwrap()
    }

    fn recorded(world: &World<Msg>, id: u32) -> Vec<usize> {
        world.actor_as::<Recorder>(ActorId(id)).unwrap().0.clone()
    }

    /// The receive path on hostile input: a frame that does not decode
    /// counts one `net.rx_decode_err` and is skipped, a record for a
    /// receiver hosted elsewhere counts one `net.rx_unroutable`, and a
    /// malformed record counts one `net.rx_decode_err` and ends the
    /// datagram — the records before it are delivered, in order.
    #[test]
    fn corrupt_or_unroutable_records_are_counted_and_skipped() {
        let mut world = worlds(vec![vec![
            Box::new(Recorder::default()),
            Box::new(Recorder::default()),
        ]])
        .remove(0);
        let mut inbox = Inbox::new(0..2, None, 8);
        let routed = |to: u32, frame: &[u8]| [&to.to_le_bytes()[..], frame].concat();
        let good = crate::codec::encode(ActorId(1), &reply(5));
        let mut w = BundleWriter::new(1);
        assert!(w.push(ActorId(0), ActorId(1), &reply(1)));
        assert!(w.push_frame(&routed(0, &good[..good.len() - 3]))); // truncated body
        assert!(w.push_frame(&routed(0, &[1, 0, 0, 0, 0xEE]))); // unknown kind tag
        assert!(w.push_frame(&routed(1, &[]))); // not even a header
        assert!(w.push(ActorId(1), ActorId(1), &reply(2)));
        assert!(w.push(ActorId(7), ActorId(1), &reply(3))); // hosted nowhere here
        assert!(w.push_frame(&routed(0, &good)));
        w.seal();
        let mut datagram = w.sealed()[0].clone();
        let whole = datagram.clone();
        // A length prefix claiming more than is left, then a record that
        // would be valid by itself and must not be reached.
        datagram.extend_from_slice(&[0xFF, 0x00, 0, 0, 0, 0]);
        datagram.extend_from_slice(&whole);

        let mut m = Metrics::new();
        assert_eq!(inbox.accept(&datagram, SimTime(1), &mut world, &mut m), 6);
        assert_eq!(m.counter(names::RX_FRAMES), 6);
        assert_eq!(m.counter(names::RX_UNROUTABLE), 1);
        assert_eq!(m.counter(names::RX_DECODE_ERR), 4);
        world.run_until(SimTime(1));
        assert_eq!(recorded(&world, 0), [1, 5]);
        assert_eq!(recorded(&world, 1), [2]);
    }

    /// Well-formed frames that break the session's contract reach a
    /// real 10-peer DCoP worker: a control packet whose view ranges over
    /// 50 peers, one from peer 12, one with `h = 0`, one dividing into
    /// no parts, one handing out part 2 of 2, leaf requests with
    /// `h = 0`, with a zero weight, and with no weight for their part,
    /// and uniform leaf requests for part 5 of 2, part 0 of 0 and part 2
    /// of 2. Each counts one `net.rx_decode_err` and is skipped;
    /// delivered, they would panic the peer's view union, its view
    /// insert, the parity layer (both `h = 0`), the slot allocator and,
    /// in debug builds, the weighted division, and the five bad parts
    /// would activate a peer with nothing to send.
    #[test]
    fn frames_that_do_not_fit_the_session_are_counted_and_skipped() {
        let n = 10;
        let mut world = Session::new(SessionConfig::live(n, 2, 7), Protocol::Dcop)
            .into_live_worlds(1)
            .remove(0);
        let mut inbox = Inbox::new(0..n as u32, Some(ActorId(n as u32)), n);
        let activate = |from: u32, population: usize, h: u32, parts: u32, part: u32| {
            let data = (1..=8).map(|s| mss_media::PacketId::Data(mss_media::Seq(s)));
            let body = ControlBody {
                kind: ControlKind::Activate,
                from: PeerId(from),
                wave: 1,
                view: View::empty(population),
                sched: mss_media::PacketSeq::from_ids(data.collect()).into(),
                pos: 0,
                interval_nanos: 1_000,
                mark_delta_nanos: 0,
                parts,
                h,
                fanout: 2,
                basis: None,
            };
            Msg::control(&std::sync::Arc::new(body), part)
        };
        let request = |h: u32, part: u32, weights: &[u64]| {
            Msg::request(ContentRequest {
                wave: 1,
                interval_nanos: 1_000,
                h,
                fanout: 2,
                part,
                parts: 2,
                view: None,
                weights: Some(weights.into()),
            })
        };
        let uniform_request = |parts: u32, part: u32| {
            Msg::request(ContentRequest {
                wave: 1,
                interval_nanos: 1_000,
                h: 2,
                fanout: 2,
                part,
                parts,
                view: None,
                weights: None,
            })
        };
        let leaf = ActorId(n as u32);
        let frames = [
            (ActorId(3), ActorId(0), activate(0, 50, 2, 2, 1)),
            (ActorId(4), ActorId(12), activate(12, n, 2, 2, 1)),
            (ActorId(5), ActorId(1), activate(1, n, 0, 2, 1)),
            (ActorId(6), ActorId(1), activate(1, n, 2, 0, 0)),
            (ActorId(7), ActorId(1), activate(1, n, 2, 2, 2)),
            (ActorId(8), leaf, request(0, 0, &[1, 1])),
            (ActorId(9), leaf, request(2, 0, &[1, 0])),
            (ActorId(2), leaf, request(2, 1, &[1])),
            (ActorId(1), leaf, uniform_request(2, 5)),
            (ActorId(0), leaf, uniform_request(0, 0)),
            (ActorId(3), leaf, uniform_request(2, 2)),
        ];
        let mut w = BundleWriter::new(1);
        for (to, from, msg) in &frames {
            assert!(w.push(*to, *from, msg));
        }
        w.seal();

        let mut m = Metrics::new();
        let accepted = inbox.accept(&w.sealed()[0], SimTime(1), &mut world, &mut m);
        world.run_until(SimTime(1));
        assert_eq!(accepted, frames.len() as u64);
        assert_eq!(m.counter(names::RX_DECODE_ERR), accepted);
    }

    /// Through the real sockets: small frames share a datagram, a frame
    /// over one MTU and one near the UDP limit travel alone, and
    /// everything arrives in send order.
    #[test]
    fn frames_over_one_mtu_and_near_the_udp_limit_arrive() {
        let data = |bytes: usize| {
            let content = ContentDesc {
                packet_bytes: bytes,
                ..ContentDesc::small(3, 4)
            };
            let id = mss_media::PacketId::Data(mss_media::Seq(1));
            Msg::data(PeerId(1), content.materialize(&id))
        };
        let sizes = [1, 2, 2_000, 3, 60_000, 4, 5];
        let sends = sizes
            .iter()
            .map(|&s| (ActorId(1), if s < 10 { reply(s as u32) } else { data(s) }))
            .collect();
        let mut worlds = worlds(vec![
            vec![Box::new(Shouter(sends))],
            vec![Box::new(Recorder::default())],
        ]);
        let (rx0, rx1) = (rx_socket(), rx_socket());
        let addrs = [rx0.local_addr().unwrap(), rx1.local_addr().unwrap()];
        let mut sender = wire(rx0, &addrs, 0..1, 2);
        let mut receiver = wire(rx1, &addrs, 1..2, 2);

        worlds[0].run_until(SimTime(1));
        sender.post(&mut worlds[0], SimTime(1)).unwrap();
        let m = &sender.metrics;
        assert_eq!(m.counter(names::TX_FRAMES), 7);
        assert_eq!(
            m.counter(names::TX_DATAGRAMS),
            5,
            "[1 2] [2000] [3] [60000] [4 5]"
        );
        assert_eq!(m.counter(names::TX_DROPPED), 0);

        let deadline = Instant::now() + Duration::from_secs(10);
        while receiver.metrics.counter(names::RX_DATAGRAMS) < 5 && Instant::now() < deadline {
            receiver.receive(&mut worlds[1], SimTime(1)).unwrap();
            std::thread::yield_now();
        }
        assert_eq!(receiver.metrics.counter(names::RX_FRAMES), 7);
        assert_eq!(receiver.metrics.counter(names::RX_DECODE_ERR), 0);
        worlds[1].run_until(SimTime(1));
        assert_eq!(recorded(&worlds[1], 1), sizes);
    }

    /// The flush rule: a worker whose one actor sends one frame puts it
    /// on the wire before it waits — while the session is still running,
    /// not at the next send, not at shutdown.
    #[test]
    fn a_lone_frame_is_on_the_wire_before_the_worker_blocks() {
        let mut worlds = worlds(vec![
            vec![Box::new(Shouter(vec![(ActorId(1), reply(9))]))],
            vec![Box::new(Recorder::default())],
        ]);
        let (rx0, peer) = (rx_socket(), rx_socket());
        let addrs = [rx0.local_addr().unwrap(), peer.local_addr().unwrap()];
        let mut worker = wire(rx0, &addrs, 0..1, 2);
        let ctl = SessionControl::new();
        let mut buf = [0u8; 2048];
        std::thread::scope(|scope| {
            let (ctl, world) = (&ctl, &mut worlds[0]);
            let running = scope.spawn(move || worker.run(world, ctl, Instant::now()));
            peer.set_nonblocking(false).unwrap();
            peer.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let got = peer.recv(&mut buf);
            assert!(!ctl.should_stop());
            ctl.request_stop();
            wake(&addrs[..1]);
            running.join().expect("worker panicked").unwrap();
            let records: Vec<_> = split_bundle(&buf[..got.expect("frame on the wire")])
                .map(|r| r.unwrap().0)
                .collect();
            assert_eq!(records, [1]);
        });
        peer.set_nonblocking(true).unwrap();
        assert!(
            peer.recv(&mut buf).is_err(),
            "nothing was left for shutdown"
        );
    }

    /// Arms a timer, then blocks its worker for 30 ms; says when the
    /// timer fires.
    struct Stall(std::sync::mpsc::Sender<()>);
    impl Actor<Msg> for Stall {
        fn on_start(&mut self, rt: &mut dyn Runtime<Msg>) {
            rt.set_timer(SimDuration::from_millis(1), 0);
            std::thread::sleep(Duration::from_millis(30));
        }
        fn on_message(&mut self, _rt: &mut dyn Runtime<Msg>, _from: ActorId, _msg: Msg) {}
        fn on_timer(&mut self, _rt: &mut dyn Runtime<Msg>, _t: mss_sim::event::TimerId, _tag: u64) {
            let _ = self.0.send(());
        }
        mss_sim::impl_as_any!();
    }

    /// A worker that falls behind slows its world down rather than
    /// jumping it to the wall clock: after the 30 ms stall, each turn
    /// moves the world's clock by at most `MAX_STEP`, so it is still
    /// short of the stall when the overdue timer has fired.
    #[test]
    fn a_worker_that_falls_behind_slows_its_world() {
        let (fired, on_fire) = std::sync::mpsc::channel();
        let mut world = worlds(vec![vec![Box::new(Stall(fired))]]).remove(0);
        let rx = rx_socket();
        let addrs = [rx.local_addr().unwrap()];
        let mut worker = wire(rx, &addrs, 0..1, 1);
        let ctl = SessionControl::new();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| worker.run(&mut world, &ctl, Instant::now()));
            let timer = on_fire.recv_timeout(Duration::from_secs(10));
            ctl.request_stop();
            wake(&addrs);
            running.join().expect("worker panicked").unwrap();
            timer.expect("the overdue timer fired");
        });
        let stall = SimTime::ZERO + SimDuration::from_millis(30);
        assert!(world.now() < stall, "{:?}", world.now());
    }

    #[test]
    fn live_dcop_streams_a_small_content() {
        let mut cfg = SessionConfig::small(6, 2, 77);
        cfg.content = ContentDesc::small(5, 60);
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_millis(2500))
            .run()
            .expect("live session");
        assert_eq!(out.outcome.activated, 6, "all peers must activate");
        assert!(
            out.outcome.complete,
            "leaf missing {} packets",
            out.outcome.leaf_missing
        );
        assert!(out.outcome.coord_msgs_total >= 6);
        // Batching stats must be observable.
        assert!(out.metrics.counter(names::RX_BATCHES) > 0);
        assert!(out.metrics.counter(names::TX_DATAGRAMS) > 0);
        assert_no_decode_errors(&out);
    }

    /// A fan-out is written once and parsed once per worker. Under the
    /// live preset a DCoP peer selects once, so it sends one fan-out;
    /// on one worker all its recipients decode there, and the last of
    /// them drops the held body: none is left at shutdown.
    #[test]
    fn live_dcop_on_one_worker_leaves_no_held_body() {
        let n = 300;
        let mut cfg = SessionConfig::live(n, 8, 80);
        cfg.content = ContentDesc::small(5, 60);
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_secs(20))
            .workers(1)
            .run()
            .expect("live session");
        assert!(
            out.outcome.activated >= (n - n / 100) as u64,
            "{} activated",
            out.outcome.activated
        );
        assert!(
            out.outcome.complete,
            "leaf missing {} packets",
            out.outcome.leaf_missing
        );
        let m = &out.metrics;
        assert!(m.counter(names::TX_BODIES_SHARED) > 0, "no record copied");
        assert!(m.counter(names::RX_BODIES_SHARED) > 0, "no body shared");
        assert_eq!(m.counter(names::RX_BODIES_HELD), 0);
        assert!(m.counter(names::WORKER_BUSY_NS) > 0);
        assert_no_decode_errors(&out);
    }

    #[test]
    fn live_tcop_streams_a_small_content() {
        let mut cfg = SessionConfig::small(6, 2, 78);
        cfg.content = ContentDesc::small(9, 60);
        let out = LiveSession::new(cfg, Protocol::Tcop, Duration::from_millis(2500))
            .run()
            .expect("live session");
        assert_eq!(out.outcome.activated, 6);
        assert!(
            out.outcome.complete,
            "leaf missing {} packets",
            out.outcome.leaf_missing
        );
        assert_no_decode_errors(&out);
    }

    /// TCoP on two workers, enough peers that bundles fill and edges
    /// cross workers: no record may be malformed, datagrams must
    /// actually carry more than one frame, and every send must cross the
    /// wire.
    #[test]
    fn live_tcop_on_two_workers_bundles_every_send() {
        let n = 300;
        let mut cfg = SessionConfig::live(n, 8, 4245);
        cfg.content = ContentDesc::small(17, 80);
        let out = LiveSession::new(cfg, Protocol::Tcop, Duration::from_secs(30))
            .workers(2)
            .run()
            .expect("live session");
        // Which probes win their races is timing; now and then one peer
        // is claimed by nobody (with one worker and before bundling
        // too), so activation gets a floor and completion stays strict.
        assert!(
            out.outcome.activated >= (n - n / 100) as u64,
            "{} activated",
            out.outcome.activated
        );
        assert!(
            out.outcome.complete,
            "leaf missing {} packets",
            out.outcome.leaf_missing
        );
        assert_no_decode_errors(&out);
        assert_eq!(out.worker_busy.len(), 2);
        let m = &out.metrics;
        assert!(
            m.counter(mss_core::metrics::COORD_BYTES_TX_COMMIT) > 0,
            "no commit sent"
        );
        let (frames, datagrams) = (m.counter(names::TX_FRAMES), m.counter(names::TX_DATAGRAMS));
        assert!(
            frames > datagrams,
            "{frames} frames in {datagrams} datagrams"
        );
        assert_every_send_crossed_the_wire(&out);
        assert_outcome_reads_the_reports(&out, Protocol::Tcop);
    }

    /// DCoP on two workers: each worker's deepest wave and last
    /// activation merge as maxima, so the outcome reads what one world
    /// would, and the peers' reports say so.
    #[test]
    fn live_dcop_on_two_workers_reads_rounds_off_the_reports() {
        let n = 300;
        let mut cfg = SessionConfig::live(n, 8, 4247);
        cfg.content = ContentDesc::small(19, 80);
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_secs(30))
            .workers(2)
            .run()
            .expect("live session");
        assert!(
            out.outcome.complete,
            "leaf missing {}",
            out.outcome.leaf_missing
        );
        assert_no_decode_errors(&out);
        assert_every_send_crossed_the_wire(&out);
        assert_outcome_reads_the_reports(&out, Protocol::Dcop);
    }

    /// Parity + NACK repair over injected loss on the real wire.
    #[test]
    fn lossy_live_session_with_nack_repair_still_completes() {
        let mut cfg = SessionConfig::small(8, 3, 501);
        cfg.content = ContentDesc::small(13, 120);
        cfg.repair = Some(mss_core::config::RepairConfig {
            check_interval: SimDuration::from_millis(60),
            fanout: 3,
            max_rounds: 10,
        });
        // 3% loss on every peer's sends: parity + repair must close it.
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_millis(2500))
            .loss(0.03)
            .run()
            .expect("live session");
        assert_eq!(out.outcome.activated, 8);
        assert!(
            out.outcome.complete,
            "repair failed over lossy links: missing {}",
            out.outcome.leaf_missing
        );
        assert!(
            out.metrics.counter(names::TX_DROPPED) > 0,
            "no send was dropped, so nothing was repaired"
        );
    }

    /// A baseline protocol on the live host: the leaf computes the whole
    /// schedule and every peer streams its share.
    #[test]
    fn live_leaf_schedule_streams() {
        let mut cfg = SessionConfig::small(4, 2, 78);
        cfg.content = ContentDesc::small(6, 40);
        let out = LiveSession::new(cfg, Protocol::LeafSchedule, Duration::from_millis(1200))
            .run()
            .expect("live session");
        assert_eq!(out.outcome.activated, 4);
        assert!(
            out.outcome.complete,
            "leaf missing {} packets",
            out.outcome.leaf_missing
        );
    }

    /// Beyond the old fixed-bitmap frame bound (n ≈ 4·10³): this
    /// population only became hostable with the adaptive view codec.
    /// Ignored by default (it hosts 5·10³ peers
    /// over real sockets); verify.sh runs it with `--include-ignored`,
    /// in both the mmsg and `MSS_NO_MMSG=1` configurations.
    #[test]
    #[ignore = "slow live smoke; run via verify.sh (--include-ignored)"]
    fn live_dcop_streams_beyond_the_old_full_view_cap() {
        let n = 5_000;
        let mut cfg = SessionConfig::live(n, 8, 91);
        cfg.content = ContentDesc::small(11, 80);
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_secs(120))
            .run()
            .expect("live session");
        // The session ends when the leaf completes; a handful of
        // stragglers may still be waiting on a redundant Activate that
        // the kernel dropped under burst load, so assert a floor
        // rather than unanimity (completion stays strict).
        assert!(
            out.outcome.activated >= (n - n / 200) as u64,
            "only {} of {} peers activated",
            out.outcome.activated,
            n
        );
        assert!(
            out.outcome.complete,
            "leaf missing {} packets",
            out.outcome.leaf_missing
        );
        // The adaptive codec must actually be earning the headroom:
        // every frame stayed under the datagram cap (oversized sends
        // are dropped silently, which would show up as misses above).
        assert!(out.metrics.counter(names::TX_DATAGRAMS) > 0);
        assert_no_decode_errors(&out);
    }

    #[test]
    fn live_session_with_forced_fallback_still_streams() {
        // The sendmmsg-unavailable path must behave identically; we
        // can't toggle the env var safely under a threaded test runner,
        // so this is the one-worker session verify.sh also runs under
        // `MSS_NO_MMSG=1`. The socket-level fallback has its own test,
        // `sys::tests::batch_roundtrip_loopback`, which runs both paths.
        let mut cfg = SessionConfig::small(4, 2, 79);
        cfg.content = ContentDesc::small(3, 40);
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_millis(2500))
            .workers(1)
            .run()
            .expect("live session");
        assert_eq!(out.outcome.activated, 4);
        assert!(
            out.outcome.complete,
            "leaf missing {} packets",
            out.outcome.leaf_missing
        );
    }
}
