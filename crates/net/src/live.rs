//! The live network plane: a full streaming session over real UDP
//! loopback sockets, hosted on the cooperative ready-queue runtime —
//! the one live host.
//!
//! Topology: one shared receive socket, sized explicitly via
//! `SO_RCVBUF` and watched by **one** poll thread through epoll. A
//! datagram is a *bundle* of length-prefixed frames (format in
//! [`crate::codec`]); datagrams arrive in `recvmmsg` batches and each
//! record is routed by its 4-byte destination prefix into the task's
//! mailbox *still encoded* — the poll thread is a pure router and never
//! builds a message — and the owning tasks are pushed onto the ready
//! queue. A small pool of worker threads drains the queue; the worker
//! stepping a task pops a step's frames under one lock, decodes them
//! (a fan-out's shared control body once per worker), resolves
//! delta-coded views against the task's own snapshots (see
//! [`crate::views`]) and runs the handler, so a message is allocated
//! and freed on one thread.
//!
//! Egress is bundled per worker, not per task step: a worker's sink
//! encodes every message the tasks it steps send into one open bundle,
//! seals the bundle when the next record would push it past one MTU
//! ([`crate::codec::BUNDLE_MTU`]), and hands the sealed bundles to
//! `sendmmsg` through its own blocking tx socket — a full send buffer
//! throttles the worker (backpressure) instead of dropping — when
//! 64 (`TX_BATCH`) of them have piled up **or the worker is about to
//! block** on an empty ready queue (`Scheduler::run_worker`). The
//! per-datagram kernel cost, which used to be paid per 13-byte reply, is
//! paid once per ≈ 1.4 KB. Per-edge FIFO therefore holds per *worker*:
//! two messages on one edge arrive in send order when one worker sent
//! both, which is all the protocols need (DESIGN.md §mss-net).
//!
//! Loss is still possible (UDP semantics), and its unit is the datagram:
//! if the poll thread falls behind, the kernel drops whole bundles at
//! the receive queue — those drops are *counted*, not silent, via the
//! `SO_RXQ_OVFL` overflow counter surfaced as the `net.rx_dropped`
//! metric. Batch sizes, bundle fill (`net.tx_frames` ÷
//! `net.tx_datagrams`, likewise `rx`), buffer sizes, mailbox
//! high-water marks, the frames written and parsed once per fan-out
//! and the workers' busy time are all reported in the outcome's
//! metrics (see [`crate::names`]) so the batching behavior is
//! observable, not assumed.

use std::net::{SocketAddr, UdpSocket};
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
use mss_sim::rng::SimRng;
use mss_sim::world::Actor;

use crate::codec::{split_bundle, BundleWriter};
use crate::names;
use crate::ready::{OutboxSink, Scheduler};
use crate::runtime::{await_session, SessionControl, SETTLE};
use crate::sys::{self, BatchSocket, Dest, Epoll, RxMeta, RX_BATCH, RX_BUF, TX_BATCH};

/// Kernel receive buffer of the shared rx socket, sized big: the poll
/// thread must survive fan-out bursts from every worker at once.
const RX_RCVBUF: usize = 4 * 1024 * 1024;
/// Send buffer per worker tx socket; blocking sends make this the
/// backpressure window.
const WORKER_SNDBUF: usize = 1024 * 1024;
/// Epoll token for the rx socket.
const RX_TOKEN: u64 = 0;
/// Epoll token for the timer-service wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;
/// Upper bound on one poll-loop sleep, so the stop flag stays live
/// even with no timers pending.
const MAX_SLEEP_MS: i32 = 50;

/// Result of a live session run.
#[derive(Debug)]
pub struct LiveOutcome {
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

/// A streaming session over UDP loopback, hosted by the ready-queue
/// runtime: build, tweak, `run()`, get a [`LiveOutcome`].
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
        // One poll thread + workers; never oversubscribe a small box.
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

    /// Override the worker-thread count (default: cores − 1, min 1).
    pub fn workers(mut self, w: usize) -> LiveSession {
        self.workers = w.max(1);
        self
    }

    /// Bind sockets, spawn the poll thread and worker pool, stream the
    /// session, and collect the outcome.
    pub fn run(self) -> std::io::Result<LiveOutcome> {
        let LiveSession {
            cfg,
            protocol,
            wall_timeout,
            workers,
            loss,
        } = self;
        let n = cfg.n;
        let total = n + 1;
        let use_mmsg = sys::mmsg_enabled();

        // --- sockets -------------------------------------------------
        let mut setup_metrics = Metrics::new();
        let rx_sock = UdpSocket::bind("127.0.0.1:0")?;
        let (granted_r, _) = sys::set_socket_bufs(&rx_sock, RX_RCVBUF, WORKER_SNDBUF)?;
        let ovfl_counted = sys::enable_rxq_ovfl(&rx_sock);
        rx_sock.set_nonblocking(true)?;
        let rx_addr = rx_sock.local_addr()?;
        setup_metrics.set_id(names::rcvbuf_bytes_id(), granted_r as u64);
        setup_metrics.set_id(names::mmsg_active_id(), u64::from(use_mmsg));
        setup_metrics.set_id(names::rxq_ovfl_counted_id(), u64::from(ovfl_counted));

        let epoll = Epoll::new()?;
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            epoll.add(rx_sock.as_raw_fd(), RX_TOKEN)?;
        }
        #[cfg(not(target_os = "linux"))]
        epoll.add(-1, RX_TOKEN)?;

        // --- actors + scheduler -------------------------------------
        // One shared table: a plain `Directory` would be deep-copied per peer.
        let dir = Arc::new(Directory::dense(n));
        let mut actors: Vec<Box<dyn Actor<Msg>>> = Vec::with_capacity(total);
        for i in 0..n {
            actors.push(make_peer(
                protocol,
                PeerId(i as u32),
                dir.clone(),
                cfg.clone(),
            ));
        }
        actors.push(Box::new(LeafActor::new(cfg.clone(), protocol, dir, None)));

        let ctl = Arc::new(SessionControl::new());
        let epoch = Instant::now();
        let watch: crate::ready::Watch = (
            n as u32,
            Box::new(|a| {
                a.as_any()
                    .downcast_ref::<LeafActor>()
                    .is_some_and(LeafActor::is_complete)
            }),
        );
        let sched = Arc::new(Scheduler::new(
            actors,
            cfg.seed,
            epoch,
            Arc::clone(&ctl),
            Some(watch),
        )?);
        epoll.add(sched.timers.wake_fd().raw(), WAKE_TOKEN)?;

        // --- threads -------------------------------------------------
        let outcome = std::thread::scope(|scope| -> std::io::Result<LiveOutcome> {
            let poll_sched = Arc::clone(&sched);
            let poll_ctl = Arc::clone(&ctl);
            let poll =
                scope.spawn(move || poll_loop(poll_sched, poll_ctl, epoll, rx_sock, use_mmsg));

            let mut worker_handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let sched = Arc::clone(&sched);
                let drops = InjectedLoss {
                    p: loss,
                    rng: SimRng::new(cfg.seed).fork(0x1055 + worker as u64),
                    leaf: ActorId(n as u32),
                };
                let handle = scope.spawn(move || -> std::io::Result<Metrics> {
                    let tx = UdpSocket::bind("127.0.0.1:0")?;
                    sys::set_socket_bufs(&tx, 64 * 1024, WORKER_SNDBUF)?;
                    let mut sink = UdpSink::new(&tx, rx_addr, use_mmsg, drops);
                    let mut metrics = Metrics::new();
                    sched.run_worker(&mut sink, &mut metrics);
                    Ok(metrics)
                });
                worker_handles.push(handle);
            }

            // Everything is wired; start the session.
            sched.seed_all();
            let time_to_done = await_session(&ctl, wall_timeout, SETTLE);
            sched.wake_workers();
            sched.timers.wake_fd().signal();

            let mut metrics = setup_metrics;
            for h in worker_handles {
                metrics.merge(&h.join().expect("worker panicked")?);
            }
            metrics.merge(&poll.join().expect("poll thread panicked")?);
            let (fallbacks, tracked) = sched.view_totals();
            metrics.add_id(names::view_resync_fallbacks_id(), fallbacks);
            metrics.add_id(names::view_edges_tracked_id(), tracked as u64);

            let mut reports = Vec::with_capacity(n);
            for i in 0..n as u32 {
                let actor = sched.take_actor(i).expect("peer actor");
                reports.push(report_of(actor.as_ref(), protocol).expect("peer report"));
            }
            let leaf_actor = sched.take_actor(n as u32).expect("leaf actor");
            let leaf: &LeafActor = leaf_actor.as_any().downcast_ref().expect("leaf downcast");

            Ok(LiveOutcome {
                activated: reports.iter().filter(|r| r.active).count(),
                complete: leaf.is_complete(),
                missing: leaf.missing_count(),
                coord_msgs: metrics.counter(mss_core::metrics::COORD_MSGS),
                reports,
                metrics,
                time_to_done,
            })
        })?;
        Ok(outcome)
    }
}

/// The single I/O thread, a pure router: epoll over the rx socket plus
/// the timer wake fd; fires due timers, pulls `recvmmsg` batches, and
/// appends each record's frame — undecoded — to the mailbox its 4-byte
/// destination prefix names.
fn poll_loop(
    sched: Arc<Scheduler>,
    ctl: Arc<SessionControl>,
    epoll: Epoll,
    rx_sock: UdpSocket,
    use_mmsg: bool,
) -> std::io::Result<Metrics> {
    let mut metrics = Metrics::new();
    let mut batcher = BatchSocket::new(&rx_sock, use_mmsg);
    let mut bufs: Vec<Vec<u8>> = (0..RX_BATCH).map(|_| Vec::with_capacity(RX_BUF)).collect();
    let mut meta = vec![RxMeta::default(); RX_BATCH];
    // SO_RXQ_OVFL reports a cumulative drop count; track the last seen
    // value and accumulate deltas.
    let mut last_ovfl = 0u32;
    let mut timer_scratch = Vec::new();
    let mut tokens = Vec::new();
    // The wake fd is drained only after an `epoll_wait` that reported
    // it (and once at start).
    let mut woken = true;

    while !ctl.should_stop() {
        sched.mark_awake(std::mem::take(&mut woken));
        let now = sched.now();
        let next_deadline = sched.fire_due(now, &mut timer_scratch);
        let target = next_deadline.unwrap_or_else(|| now.saturating_add(u64::MAX / 2));
        if !sched.publish_sleep(target) {
            continue; // a timer raced in earlier than `target`; recompute
        }
        let timeout_ms = (target.saturating_sub(now) / 1_000_000).min(MAX_SLEEP_MS as u64) as i32;
        epoll.wait(&mut tokens, timeout_ms)?;
        woken = tokens.contains(&WAKE_TOKEN);
        if !tokens.contains(&RX_TOKEN) {
            continue;
        }
        // Drain the socket: epoll is level-triggered, but emptying it
        // now keeps latency down and batches big.
        loop {
            let got = batcher.recv_batch(&rx_sock, &mut bufs, &mut meta)?;
            if got == 0 {
                break;
            }
            metrics.incr_id(names::rx_batches_id());
            metrics.add_id(names::rx_datagrams_id(), got as u64);
            metrics.set_max_id(names::rx_batch_max_id(), got as u64);
            let mut ovfl_max = last_ovfl;
            for (buf, meta) in bufs.iter().zip(&meta).take(got) {
                ovfl_max = ovfl_max.max(meta.rxq_ovfl);
                route_datagram(&sched, &buf[..meta.len], &mut metrics);
            }
            metrics.add_id(names::rx_dropped_id(), u64::from(ovfl_max - last_ovfl));
            last_ovfl = ovfl_max;
            if got < bufs.len() {
                break;
            }
        }
    }
    Ok(metrics)
}

/// Route one received datagram: every record's frame goes, still
/// encoded, to the mailbox its destination prefix names. A malformed
/// record counts one `net.rx_decode_err` and ends the datagram; the
/// records before it are already in their mailboxes.
fn route_datagram(sched: &Scheduler, datagram: &[u8], metrics: &mut Metrics) {
    let (mut frames, mut deepest) = (0u64, 0usize);
    for record in split_bundle(datagram) {
        match record {
            Ok((to, frame)) if (to as usize) < sched.task_count() => {
                frames += 1;
                deepest = deepest.max(sched.deliver_frame(to, frame));
            }
            Ok(_) => metrics.incr_id(names::rx_unroutable_id()),
            Err(_) => metrics.incr_id(names::rx_decode_err_id()),
        }
    }
    metrics.add_id(names::rx_frames_id(), frames);
    metrics.set_max_id(names::mailbox_hwm_id(), deepest as u64);
}

/// [`LiveSession::loss`] as one worker applies it.
struct InjectedLoss {
    p: f64,
    rng: SimRng,
    /// The leaf's sends are exempt.
    leaf: ActorId,
}

/// Worker-side egress. Each posted message is encoded, as one record,
/// straight into the open bundle — a fan-out's shared body once, its
/// other handles copied ([`BundleWriter::push`]); open and sealed
/// bundles outlive the task step that wrote them, and the sealed ones
/// go to the kernel as one `sendmmsg` burst once [`TX_BATCH`] have
/// piled up or the worker is about to block.
struct UdpSink<'s> {
    sock: &'s UdpSocket,
    batcher: BatchSocket,
    /// The rx socket, in the kernel's address form.
    dest: Dest,
    bundles: BundleWriter,
    drops: InjectedLoss,
}

impl<'s> UdpSink<'s> {
    fn new(
        sock: &'s UdpSocket,
        rx_addr: SocketAddr,
        use_mmsg: bool,
        drops: InjectedLoss,
    ) -> UdpSink<'s> {
        UdpSink {
            sock,
            batcher: BatchSocket::new(sock, use_mmsg),
            dest: Dest::new(rx_addr),
            bundles: BundleWriter::new(TX_BATCH + 1),
            drops,
        }
    }

    /// Hand every sealed bundle to the kernel.
    fn send_sealed(&mut self, metrics: &mut Metrics) {
        let burst = self.bundles.sealed().len();
        if burst == 0 {
            return;
        }
        let sent = self
            .batcher
            .send_batch(self.sock, &self.dest, self.bundles.sealed());
        let (sent, calls) = sent.unwrap_or((0, 1));
        metrics.add_id(names::tx_batches_id(), calls as u64);
        metrics.add_id(names::tx_datagrams_id(), sent as u64);
        metrics.set_max_id(names::tx_batch_max_id(), sent as u64);
        metrics.add_id(names::tx_dropped_id(), (burst - sent) as u64);
        self.bundles.recycle_sealed();
    }
}

impl OutboxSink for UdpSink<'_> {
    fn post(&mut self, from: ActorId, out: &mut Vec<(ActorId, Msg)>, metrics: &mut Metrics) {
        let lossy = self.drops.p > 0.0 && from != self.drops.leaf;
        let mut frames = 0u64;
        for (to, msg) in out.drain(..) {
            if lossy && self.drops.rng.gen_bool(self.drops.p) {
                metrics.incr_id(names::tx_dropped_id());
                continue;
            }
            if self.bundles.push(to, from, &msg) {
                frames += 1;
            } else {
                metrics.incr_id(names::tx_dropped_id()); // larger than any datagram
            }
        }
        metrics.add_id(names::tx_frames_id(), frames);
        metrics.add_id(names::tx_bodies_shared_id(), self.bundles.forget_body());
        if self.bundles.sealed().len() >= TX_BATCH {
            self.send_sealed(metrics);
        }
    }

    fn flush(&mut self, metrics: &mut Metrics) {
        self.bundles.seal();
        self.send_sealed(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ready::test_support::{reply, NullSink};
    use mss_media::ContentDesc;
    use mss_sim::world::Runtime;

    /// View lifetime on the receive side: no frame was undecodable, every
    /// delta found its snapshot, and at shutdown at most `max_edges`
    /// snapshots are left (DCoP tracks none; TCoP at most one per peer —
    /// an accepted probe whose commit never came).
    fn assert_views_died_with_their_readers(out: &LiveOutcome, max_edges: u64) {
        let m = &out.metrics;
        assert_eq!(m.counter(names::RX_DECODE_ERR), 0);
        assert_eq!(m.counter(names::VIEW_RESYNC_FALLBACKS), 0);
        let tracked = m.counter(names::VIEW_EDGES_TRACKED);
        assert!(
            tracked <= max_edges,
            "{tracked} snapshots outlived their readers (bound {max_edges})"
        );
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

    fn recorders(n: usize) -> Scheduler {
        let actors = (0..n)
            .map(|_| Box::new(Recorder::default()) as Box<dyn Actor<Msg>>)
            .collect();
        let ctl = Arc::new(SessionControl::new());
        Scheduler::new(actors, 1, Instant::now(), ctl, None).unwrap()
    }

    /// Step every queued task once and return what each recorder logged.
    fn drain_recorders(sched: &Scheduler, n: u32) -> Vec<Vec<usize>> {
        let mut scratch = crate::ready::StepScratch::new(sched.task_count());
        let mut metrics = Metrics::new();
        while let Some(task) = sched.try_next_task() {
            sched.run_step(task, &mut NullSink, &mut metrics, &mut scratch);
        }
        assert_eq!(metrics.counter(names::RX_DECODE_ERR), 0);
        (0..n)
            .map(|t| {
                let actor = sched.take_actor(t).unwrap();
                actor.as_any().downcast_ref::<Recorder>().unwrap().0.clone()
            })
            .collect()
    }

    /// The router on hostile input: the records before a malformed one
    /// are delivered, the malformed one counts one `net.rx_decode_err`
    /// and ends the datagram, and a well-formed record for a task nobody
    /// hosts is counted apart without ending anything.
    #[test]
    fn a_malformed_record_counts_once_and_spares_the_records_before_it() {
        let sched = recorders(2);
        let mut w = BundleWriter::new(1);
        for (to, wave) in [(0, 1), (1, 2), (7, 3), (0, 4)] {
            assert!(w.push(ActorId(to), ActorId(1), &reply(wave)));
        }
        w.seal();
        let mut datagram = w.sealed()[0].clone();
        let good_len = datagram.len();
        // A length prefix claiming more than is left, then a record that
        // would be valid by itself and must not be reached.
        datagram.extend_from_slice(&[0xFF, 0x00, 0, 0, 0, 0]);
        datagram.extend_from_slice(&w.sealed()[0][..good_len / 4]);

        let mut m = Metrics::new();
        route_datagram(&sched, &datagram, &mut m);
        assert_eq!(m.counter(names::RX_FRAMES), 3);
        assert_eq!(m.counter(names::RX_UNROUTABLE), 1);
        assert_eq!(m.counter(names::RX_DECODE_ERR), 1);
        assert_eq!(m.counter(names::MAILBOX_HWM), 2);
        assert_eq!(drain_recorders(&sched, 2), [vec![1, 4], vec![2]]);
    }

    /// Through the real sink, socket and router: small frames share a
    /// datagram, a frame over one MTU and one near the UDP limit travel
    /// alone, and everything arrives in send order.
    #[test]
    fn frames_over_one_mtu_and_near_the_udp_limit_arrive() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        sys::set_socket_bufs(&rx, 1 << 20, 1 << 16).unwrap();
        rx.set_nonblocking(true).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let no_loss = InjectedLoss {
            p: 0.0,
            rng: SimRng::new(1),
            leaf: ActorId(9),
        };
        let use_mmsg = sys::mmsg_enabled();
        let mut sink = UdpSink::new(&tx, rx.local_addr().unwrap(), use_mmsg, no_loss);
        let data = |bytes: usize| {
            let content = ContentDesc {
                packet_bytes: bytes,
                ..ContentDesc::small(3, 4)
            };
            let id = mss_media::PacketId::Data(mss_media::Seq(1));
            Msg::data(PeerId(1), content.materialize(&id))
        };
        let sizes = [1, 2, 2_000, 3, 60_000, 4, 5];
        let mut out: Vec<(ActorId, Msg)> = sizes
            .iter()
            .map(|&s| (ActorId(0), if s < 10 { reply(s as u32) } else { data(s) }))
            .collect();
        let mut m = Metrics::new();
        sink.post(ActorId(1), &mut out, &mut m);
        assert_eq!(
            m.counter(names::TX_DATAGRAMS),
            0,
            "nothing sent before the flush"
        );
        sink.flush(&mut m);
        assert_eq!(m.counter(names::TX_FRAMES), 7);
        assert_eq!(
            m.counter(names::TX_DATAGRAMS),
            5,
            "[1 2] [2000] [3] [60000] [4 5]"
        );
        assert_eq!(m.counter(names::TX_DROPPED), 0);

        let sched = recorders(1);
        let mut batcher = BatchSocket::new(&rx, use_mmsg);
        let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| Vec::with_capacity(RX_BUF)).collect();
        let mut meta = vec![RxMeta::default(); 8];
        let deadline = Instant::now() + Duration::from_secs(10);
        while m.counter(names::RX_DATAGRAMS) < 5 && Instant::now() < deadline {
            let got = batcher.recv_batch(&rx, &mut bufs, &mut meta).unwrap();
            for (buf, meta) in bufs.iter().zip(&meta).take(got) {
                route_datagram(&sched, &buf[..meta.len], &mut m);
            }
            m.add_id(names::rx_datagrams_id(), got as u64);
            std::thread::yield_now();
        }
        assert_eq!(m.counter(names::RX_FRAMES), 7);
        assert_eq!(m.counter(names::RX_DECODE_ERR), 0);
        assert_eq!(drain_recorders(&sched, 1), [sizes.to_vec()]);
    }

    #[test]
    fn live_dcop_streams_a_small_content() {
        let mut cfg = SessionConfig::small(6, 2, 77);
        cfg.content = ContentDesc::small(5, 60);
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_millis(2500))
            .run()
            .expect("live session");
        assert_eq!(out.activated, 6, "all peers must activate");
        assert!(out.complete, "leaf missing {} packets", out.missing);
        assert!(out.coord_msgs >= 6);
        // Batching stats must be observable.
        assert!(out.metrics.counter("net.rx_batches") > 0);
        assert!(out.metrics.counter("net.tx_datagrams") > 0);
        assert_views_died_with_their_readers(&out, 0);
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
        assert!(out.activated >= n - n / 100, "{} activated", out.activated);
        assert!(out.complete, "leaf missing {} packets", out.missing);
        let m = &out.metrics;
        assert!(m.counter(names::TX_BODIES_SHARED) > 0, "no record copied");
        assert!(m.counter(names::RX_BODIES_SHARED) > 0, "no body shared");
        assert_eq!(m.counter(names::RX_BODIES_HELD), 0);
        assert!(m.counter(names::WORKER_BUSY_NS) > 0);
        assert_views_died_with_their_readers(&out, 0);
    }

    #[test]
    fn live_tcop_streams_a_small_content() {
        let mut cfg = SessionConfig::small(6, 2, 78);
        cfg.content = ContentDesc::small(9, 60);
        let out = LiveSession::new(cfg, Protocol::Tcop, Duration::from_millis(2500))
            .run()
            .expect("live session");
        assert_eq!(out.activated, 6);
        assert!(out.complete, "leaf missing {} packets", out.missing);
        assert_views_died_with_their_readers(&out, 6);
    }

    /// Per-edge FIFO holds per worker, not across workers — and TCoP,
    /// the protocol whose commit deltas need their probe's snapshot,
    /// needs no more: a commit is causally behind the reply to its
    /// probe, so the probe has long left its worker's bundle. Two
    /// workers, enough peers that bundles fill and edges cross workers:
    /// no delta may miss its snapshot, no record may be malformed, and
    /// datagrams must actually carry more than one frame.
    #[test]
    fn live_tcop_on_two_workers_keeps_every_delta_resolvable() {
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
        assert!(out.activated >= n - n / 100, "{} activated", out.activated);
        assert!(out.complete, "leaf missing {} packets", out.missing);
        assert_views_died_with_their_readers(&out, n as u64);
        let m = &out.metrics;
        assert!(
            m.counter("coord.bytes_tx.commit") > 0,
            "no commit delta sent"
        );
        let (frames, datagrams) = (m.counter(names::TX_FRAMES), m.counter(names::TX_DATAGRAMS));
        assert!(
            frames > datagrams,
            "{frames} frames in {datagrams} datagrams"
        );
    }

    /// Parity + NACK repair over injected loss on the real runtime.
    #[test]
    fn lossy_live_session_with_nack_repair_still_completes() {
        let mut cfg = SessionConfig::small(8, 3, 501);
        cfg.content = ContentDesc::small(13, 120);
        cfg.repair = Some(mss_core::config::RepairConfig {
            check_interval: mss_sim::time::SimDuration::from_millis(60),
            fanout: 3,
            max_rounds: 10,
        });
        // 3% loss on every peer's sends: parity + repair must close it.
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_millis(2500))
            .loss(0.03)
            .run()
            .expect("live session");
        assert_eq!(out.activated, 8);
        assert!(
            out.complete,
            "repair failed over lossy links: missing {}",
            out.missing
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
        assert_eq!(out.activated, 4);
        assert!(out.complete, "leaf missing {} packets", out.missing);
    }

    /// Beyond the old fixed-bitmap frame bound (n ≈ 4·10³): this
    /// population only became hostable with the adaptive view codec
    /// and delta piggybacks. Ignored by default (it hosts 5·10³ real
    /// sockets-and-tasks peers); verify.sh runs it with
    /// `--include-ignored`, in both the mmsg and `MSS_NO_MMSG=1`
    /// configurations.
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
            out.activated >= n - n / 200,
            "only {} of {} peers activated",
            out.activated,
            n
        );
        assert!(out.complete, "leaf missing {} packets", out.missing);
        // The adaptive codec must actually be earning the headroom:
        // every frame stayed under the datagram cap (oversized sends
        // are dropped silently, which would show up as misses above).
        assert!(out.metrics.counter("net.tx_datagrams") > 0);
        // DCoP ships every view under epoch 0: nothing is snapshotted.
        assert_views_died_with_their_readers(&out, 0);
    }

    #[test]
    fn live_session_with_forced_fallback_still_streams() {
        // The sendmmsg-unavailable path must behave identically; we
        // can't toggle the env var safely under a threaded test runner,
        // so this is the one-worker session verify.sh also runs under
        // `MSS_NO_MMSG=1`, beside the portable-path assertions in the
        // sys tests.
        let mut cfg = SessionConfig::small(4, 2, 79);
        cfg.content = ContentDesc::small(3, 40);
        let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_millis(2500))
            .workers(1)
            .run()
            .expect("live session");
        assert_eq!(out.activated, 4);
        assert!(out.complete, "leaf missing {} packets", out.missing);
    }
}
