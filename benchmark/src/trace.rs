//! The traced run: the same world `Session::run_with_world` /
//! `run_with_sharded_world` builds, assembled from public pieces with a
//! timing decorator at every layer boundary the public traits expose.
//!
//! Span tree of one traced session:
//!
//! ```text
//! round → session → core.session.build
//!                 → sim.world.run → core.handlers → sim.runtime.send  → sim.link
//!                                                 → sim.runtime.timer
//!                                 → core.leaf     → sim.runtime.send  → sim.link
//!                                                 → sim.runtime.timer
//!                 → core.session.summarize
//!                 → core.session.drop
//! ```
//!
//! Coarse spans (round … drop) are recorded one by one. A session makes
//! 10⁴–10⁷ handler, runtime and link calls, so those are kept as one
//! aggregate per (name, shard, session) — calls and total nanoseconds —
//! under the `sim.world.run` span that caused them. Self time of a node
//! is its total minus its children's totals.
//!
//! The decorators forward every call unchanged and draw nothing from the
//! world's RNG, so a traced session dispatches the event stream of the
//! plain one; the caller asserts that.

use std::any::Any;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mss::core::config::{Protocol, SessionConfig};
use mss::core::dcop::DcopPeer;
use mss::core::leaf::LeafActor;
use mss::core::metrics as mnames;
use mss::core::metrics::SessionOutcome;
use mss::core::msg::Msg;
use mss::core::peer_core::PeerReport;
use mss::core::plane::Plane;
use mss::core::session::{peer_reports, rounds_of_metrics, shard_blocks, sharded_peer_reports};
use mss::core::tcop::TcopPeer;
use mss::overlay::{Directory, PeerId};
use mss::sim::event::{ActorId, TimerId};
use mss::sim::link::{JitterLatency, LinkModel, LinkVerdict};
use mss::sim::metrics::Metrics;
use mss::sim::rng::SimRng;
use mss::sim::shard::ShardedWorld;
use mss::sim::time::{SimDuration, SimTime};
use mss::sim::world::{Actor, ActorGroup, Runtime, World};

use crate::workloads::SessionSpec;

/// Messages kept for the codec probe, across the whole run.
const CORPUS_CAP: usize = 2048;
/// One message in this many is offered to the corpus.
const CORPUS_STRIDE: u64 = 64;

/// Calls and total time of one decorated call family.
#[derive(Clone, Copy, Default, Debug)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

impl Acc {
    #[inline]
    fn time<R>(&mut self, calls: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += calls;
        r
    }

    fn add(&mut self, other: Acc) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// What one decorated host (a shard's plane group, or the leaf) spent:
/// its callbacks, and the runtime calls made from inside them.
#[derive(Clone, Copy, Default, Debug)]
pub struct HostAcc {
    /// `on_start` / `on_message` / `on_timer` spans.
    pub handler: Acc,
    /// `Runtime::send` and `send_batch` spans; `calls` counts messages.
    pub send: Acc,
    /// `Runtime::set_timer` and `cancel_timer` spans.
    pub timer: Acc,
}

impl HostAcc {
    fn self_ns(&self) -> u64 {
        self.handler.ns.saturating_sub(self.send.ns + self.timer.ns)
    }
}

/// Where a session's decorators leave their totals when the world that
/// owns them is dropped (the world API offers no way back to a decorator,
/// and a shared counter on the hot path would cost more than the clock).
#[derive(Default)]
struct Sink {
    inner: Mutex<SinkInner>,
}

#[derive(Default)]
struct SinkInner {
    planes: Vec<(usize, HostAcc)>,
    leaf: HostAcc,
    links: Vec<(usize, Acc)>,
    corpus: Vec<(ActorId, Msg)>,
}

impl Sink {
    /// `Drop` must not panic: a poisoned sink (a handler panicked, the
    /// session is already counted as failed) just loses its totals.
    fn with(&self, f: impl FnOnce(&mut SinkInner)) {
        if let Ok(mut g) = self.inner.lock() {
            f(&mut g);
        }
    }
}

/// The `&mut dyn Runtime` handed to a decorated handler: spans around
/// the calls that reach the queue, the timer table and the link.
struct TimedRuntime<'a> {
    inner: &'a mut dyn Runtime<Msg>,
    acc: &'a mut HostAcc,
    corpus: &'a mut Vec<(ActorId, Msg)>,
}

impl TimedRuntime<'_> {
    #[inline]
    fn sample(&mut self, first: Option<&(ActorId, Msg)>) {
        if self.acc.send.calls.is_multiple_of(CORPUS_STRIDE) && self.corpus.len() < CORPUS_CAP {
            self.corpus.extend(first.cloned());
        }
    }
}

impl Runtime<Msg> for TimedRuntime<'_> {
    fn id(&self) -> ActorId {
        self.inner.id()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn actor_count(&self) -> usize {
        self.inner.actor_count()
    }
    fn is_alive(&self, actor: ActorId) -> bool {
        self.inner.is_alive(actor)
    }
    fn send(&mut self, to: ActorId, msg: Msg) {
        let one = (to, msg);
        self.sample(Some(&one));
        let inner = &mut *self.inner;
        self.acc.send.time(1, || inner.send(one.0, one.1));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let inner = &mut *self.inner;
        self.acc.timer.time(1, || inner.set_timer(delay, tag))
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        let inner = &mut *self.inner;
        self.acc.timer.time(1, || inner.cancel_timer(timer));
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
    fn send_batch(&mut self, batch: &mut Vec<(ActorId, Msg)>) {
        self.sample(batch.first());
        let inner = &mut *self.inner;
        self.acc
            .send
            .time(batch.len() as u64, || inner.send_batch(batch));
    }
}

/// Which host a [`Timed`] decorator wraps, i.e. where its totals go.
#[derive(Clone, Copy)]
enum HostKind {
    /// The plane group of this shard.
    Plane(usize),
    Leaf,
}

/// Timing decorator over a host: a shard's plane group (as an
/// `ActorGroup`) or the leaf (as an `Actor`). Every callback is one
/// handler span, run against a [`TimedRuntime`].
struct Timed<T> {
    inner: T,
    host: HostKind,
    acc: HostAcc,
    corpus: Vec<(ActorId, Msg)>,
    sink: Arc<Sink>,
}

impl<T> Timed<T> {
    fn new(inner: T, host: HostKind, sink: &Arc<Sink>) -> Self {
        Timed {
            inner,
            host,
            acc: HostAcc::default(),
            corpus: Vec::new(),
            sink: Arc::clone(sink),
        }
    }

    #[inline]
    fn call(&mut self, ctx: &mut dyn Runtime<Msg>, f: impl FnOnce(&mut T, &mut dyn Runtime<Msg>)) {
        let t = Instant::now();
        let mut rt = TimedRuntime {
            inner: ctx,
            acc: &mut self.acc,
            corpus: &mut self.corpus,
        };
        f(&mut self.inner, &mut rt);
        self.acc.handler.ns += t.elapsed().as_nanos() as u64;
        self.acc.handler.calls += 1;
    }
}

impl<G: ActorGroup<Msg>> ActorGroup<Msg> for Timed<G> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32) {
        self.call(ctx, |g, rt| g.on_start(rt, member));
    }
    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, from: ActorId, msg: Msg) {
        self.call(ctx, |g, rt| g.on_message(rt, member, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, timer: TimerId, tag: u64) {
        self.call(ctx, |g, rt| g.on_timer(rt, member, timer, tag));
    }
    fn member_as_any(&self, member: u32) -> &dyn Any {
        self.inner.member_as_any(member)
    }
}

/// `as_any` answers as the leaf itself, so `world.actor_as::<LeafActor>`
/// keeps working.
impl Actor<Msg> for Timed<LeafActor> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
        self.call(ctx, |a, rt| a.on_start(rt));
    }
    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, from: ActorId, msg: Msg) {
        self.call(ctx, |a, rt| a.on_message(rt, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, timer: TimerId, tag: u64) {
        self.call(ctx, |a, rt| a.on_timer(rt, timer, tag));
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

impl<T> Drop for Timed<T> {
    fn drop(&mut self) {
        let (host, acc) = (self.host, self.acc);
        let corpus = std::mem::take(&mut self.corpus);
        self.sink.with(|s| {
            match host {
                HostKind::Plane(shard) => s.planes.push((shard, acc)),
                HostKind::Leaf => s.leaf = acc,
            }
            s.corpus.extend(corpus);
        });
    }
}

/// Timing decorator over a shard's link model.
struct TimedLink<L> {
    inner: L,
    shard: usize,
    acc: Acc,
    sink: Arc<Sink>,
}

impl<L: LinkModel> LinkModel for TimedLink<L> {
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        let inner = &mut self.inner;
        self.acc
            .time(1, || inner.process(now, from, to, bytes, rng))
    }
    fn min_latency(&self) -> SimDuration {
        self.inner.min_latency()
    }
}

impl<L> Drop for TimedLink<L> {
    fn drop(&mut self) {
        let (shard, acc) = (self.shard, self.acc);
        self.sink.with(|s| s.links.push((shard, acc)));
    }
}

/// `Session`'s crash-stop injector is private; this is the same actor
/// (one timer per fault armed at start, `kill` when it fires), so the
/// traced world schedules the same events.
struct CrashAt {
    faults: Vec<(SimDuration, ActorId)>,
}

impl Actor<Msg> for CrashAt {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
        for (i, (at, _)) in self.faults.iter().enumerate() {
            ctx.set_timer(*at, i as u64);
        }
    }
    fn on_message(&mut self, _: &mut dyn Runtime<Msg>, _: ActorId, _: Msg) {}
    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, _: TimerId, tag: u64) {
        ctx.kill(self.faults[tag as usize].1);
    }
    mss::sim::impl_as_any!();
}

/// `Session`'s default link: 1 ms base, 1 ms jitter.
fn default_link() -> JitterLatency {
    JitterLatency {
        base: SimDuration::from_millis(1),
        jitter: SimDuration::from_millis(1),
    }
}

fn timed_link(shard: usize, sink: &Arc<Sink>) -> TimedLink<JitterLatency> {
    TimedLink {
        inner: default_link(),
        shard,
        acc: Acc::default(),
        sink: Arc::clone(sink),
    }
}

/// The decorated plane group of peers `block` on `shard`.
fn timed_plane(
    spec: &SessionSpec,
    block: std::ops::Range<usize>,
    dir: &Arc<Directory>,
    shard: usize,
    sink: &Arc<Sink>,
) -> Box<dyn ActorGroup<Msg>> {
    let ids = block.map(|p| PeerId(p as u32));
    match spec.protocol {
        Protocol::Dcop => {
            let members: Vec<DcopPeer> = ids
                .map(|me| DcopPeer::new(me, dir.clone(), spec.cfg.clone()))
                .collect();
            Box::new(Timed::new(
                Plane::new(members),
                HostKind::Plane(shard),
                sink,
            ))
        }
        Protocol::Tcop => {
            let members: Vec<TcopPeer> = ids
                .map(|me| TcopPeer::new(me, dir.clone(), spec.cfg.clone()))
                .collect();
            Box::new(Timed::new(
                Plane::new(members),
                HostKind::Plane(shard),
                sink,
            ))
        }
        other => panic!(
            "the benchmark traces DCoP and TCoP only, not {}",
            other.name()
        ),
    }
}

fn timed_leaf(spec: &SessionSpec, dir: &Arc<Directory>, sink: &Arc<Sink>) -> Box<dyn Actor<Msg>> {
    let leaf = LeafActor::new(spec.cfg.clone(), spec.protocol, dir.clone(), None);
    Box::new(Timed::new(leaf, HostKind::Leaf, sink))
}

fn directory(n: usize) -> Arc<Directory> {
    Arc::new(Directory::new(
        (0..n as u32).map(ActorId).collect(),
        ActorId(n as u32),
    ))
}

fn crash_actor(spec: &SessionSpec, dir: &Directory) -> Option<Box<dyn Actor<Msg>>> {
    spec.crash.map(|(at, peer)| -> Box<dyn Actor<Msg>> {
        Box::new(CrashAt {
            faults: vec![(at, dir.actor_of(peer))],
        })
    })
}

fn limit_of(spec: &SessionSpec) -> SimTime {
    spec.limit.map_or(SimTime::MAX, |l| SimTime::ZERO + l)
}

/// `session::summarize_parts` (private there), field for field.
fn summarize(
    m: &Metrics,
    leaf: &LeafActor,
    protocol: Protocol,
    cfg: &SessionConfig,
    reports: &[PeerReport],
) -> SessionOutcome {
    let packet_bits = (cfg.content.packet_bytes * 8) as f64;
    let analytic_bps: f64 = reports
        .iter()
        .filter(|r| r.active && r.interval_nanos != u64::MAX && r.interval_nanos > 0)
        .map(|r| 1e9 / r.interval_nanos as f64 * packet_bits)
        .sum();
    SessionOutcome {
        protocol,
        n: cfg.n,
        fanout: cfg.fanout,
        rounds: rounds_of_metrics(m, protocol),
        coord_msgs_until_active: m.counter(mnames::COORD_MSGS_AT_ACTIVATION),
        coord_msgs_total: m.counter(mnames::COORD_MSGS),
        coord_bytes: m.counter(mnames::COORD_BYTES),
        coord_bytes_tx: m.counter(mnames::COORD_BYTES_TX),
        coord_bytes_full: m.counter(mnames::COORD_BYTES_FULL),
        activated: m.counter(mnames::COORD_ACTIVATIONS),
        sync_nanos: m.counter(mnames::COORD_LAST_ACTIVATION_NANOS),
        receipt_rate_analytic: analytic_bps / cfg.content.rate_bps as f64,
        receipt_rate_measured: leaf
            .measured_bps()
            .map(|bps| bps / cfg.content.rate_bps as f64),
        receipt_volume_ratio: leaf.received_bytes() as f64
            / (cfg.content.packets as f64 * cfg.content.packet_bytes as f64),
        leaf_accepted: leaf.accepted(),
        leaf_duplicates: leaf.duplicates(),
        leaf_overruns: leaf.overruns(),
        complete: leaf.is_complete(),
        complete_nanos: leaf.complete_nanos(),
        recovered_via_parity: leaf.recovered(),
        leaf_missing: leaf.missing_count() as u64,
        data_msgs: m.counter(mnames::DATA_MSGS),
    }
}

/// One recorded coarse span. Times are nanoseconds since the tracer's
/// epoch; `parent` 0 means none.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// What the span worked on (a session's protocol and shape); empty
    /// where the name says it all.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One aggregate of fine spans: every call of `name` on `shard` that
/// span `parent` (a `sim.world.run`) caused, nested inside the calls of
/// the aggregate (or span) named `under`.
pub struct Agg {
    pub parent: u32,
    pub under: &'static str,
    pub name: &'static str,
    pub shard: usize,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Layer totals over every traced session of the run. Handler, runtime
/// and link figures are CPU time summed over shards; `busy_max_ns` is the
/// per-session maximum over shards of handler time, summed over sessions
/// — the part of `run_ns` no kernel change can remove.
#[derive(Default, Clone, Copy)]
pub struct LayerTotals {
    pub sessions: u64,
    pub build_ns: u64,
    pub run_ns: u64,
    pub summarize_ns: u64,
    pub drop_ns: u64,
    pub plane: HostAcc,
    pub leaf: HostAcc,
    pub link: Acc,
    pub busy_max_ns: u64,
}

impl LayerTotals {
    pub fn handlers_self_ns(&self) -> u64 {
        self.plane.self_ns()
    }
    pub fn leaf_self_ns(&self) -> u64 {
        self.leaf.self_ns()
    }
    pub fn send(&self) -> Acc {
        let mut a = self.plane.send;
        a.add(self.leaf.send);
        a
    }
    pub fn timer(&self) -> Acc {
        let mut a = self.plane.timer;
        a.add(self.leaf.timer);
        a
    }
    /// Time inside `Runtime` calls that is not the link: queue push,
    /// timer table, byte accounting.
    pub fn runtime_self_ns(&self) -> u64 {
        (self.send().ns + self.timer().ns).saturating_sub(self.link.ns)
    }
    /// Single world: `run` minus every handler span — pop, dispatch,
    /// liveness, slot take/put.
    pub fn dispatch_self_ns(&self) -> u64 {
        self.run_ns
            .saturating_sub(self.plane.handler.ns + self.leaf.handler.ns)
    }
    pub fn session_ns(&self) -> u64 {
        self.build_ns + self.run_ns + self.summarize_ns + self.drop_ns
    }
}

/// In-memory span store of one benchmark run, written out at exit.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub aggs: Vec<Agg>,
    pub totals: LayerTotals,
    pub corpus: Vec<(ActorId, Msg)>,
    open: Option<OpenSession>,
}

/// A traced session whose world is still alive (its decorators have not
/// flushed yet).
struct OpenSession {
    session: u32,
    run: u32,
    sink: Arc<Sink>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggs: Vec::new(),
            totals: LayerTotals::default(),
            corpus: Vec::new(),
            open: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 = root) and return its id.
    pub fn open(&mut self, parent: u32, name: &'static str) -> u32 {
        self.open_detailed(parent, name, String::new())
    }

    fn open_detailed(&mut self, parent: u32, name: &'static str, detail: String) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            detail,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = end;
        end - s.start_ns
    }

    fn begin_session(&mut self, round: u32, spec: &SessionSpec) -> (u32, Arc<Sink>) {
        // A session that panicked after its run never got finished; its
        // spans stay in the file, its totals are not counted.
        self.open = None;
        let detail = format!(
            "{} n={} H={} h={} packets={}",
            spec.protocol.name(),
            spec.cfg.n,
            spec.cfg.fanout,
            spec.cfg.parity_interval,
            if spec.cfg.data_plane {
                spec.cfg.content.packets
            } else {
                0
            }
        );
        let session = self.open_detailed(round, "session", detail);
        (session, Arc::new(Sink::default()))
    }

    /// The same world, outcome and reports as `Session::run_with_world`,
    /// with every layer boundary timed. Call [`Tracer::finish_session`]
    /// with the world to close the session.
    pub fn run_with_world(
        &mut self,
        round: u32,
        spec: &SessionSpec,
    ) -> (SessionOutcome, World<Msg>, Vec<PeerReport>) {
        let (session, sink) = self.begin_session(round, spec);
        let cfg = &spec.cfg;
        let n = cfg.n;

        let build = self.open(session, "core.session.build");
        let mut world: World<Msg> = World::new(timed_link(0, &sink), cfg.seed);
        world.reserve_events(cfg.content.packets as usize * 2 + n * 8);
        let dir = directory(n);
        world.add_group(n, timed_plane(spec, 0..n, &dir, 0, &sink));
        world.add_actor(timed_leaf(spec, &dir, &sink));
        if let Some(crash) = crash_actor(spec, &dir) {
            world.add_actor(crash);
        }
        self.totals.build_ns += self.close(build);

        let run = self.open(session, "sim.world.run");
        world.run_until(limit_of(spec));
        self.totals.run_ns += self.close(run);

        let sum = self.open(session, "core.session.summarize");
        let reports = peer_reports(&world, spec.protocol, &dir);
        let leaf: &LeafActor = world.actor_as(dir.leaf()).expect("leaf actor");
        let outcome = summarize(world.metrics(), leaf, spec.protocol, cfg, &reports);
        self.totals.summarize_ns += self.close(sum);

        self.open = Some(OpenSession { session, run, sink });
        (outcome, world, reports)
    }

    /// The same world, outcome and reports as
    /// `Session::shards(k).run_with_sharded_world()`, decorated per shard.
    pub fn run_with_sharded_world(
        &mut self,
        round: u32,
        spec: &SessionSpec,
        shards: usize,
    ) -> (SessionOutcome, ShardedWorld<Msg>, Vec<PeerReport>) {
        let (session, sink) = self.begin_session(round, spec);
        let cfg = &spec.cfg;
        let n = cfg.n;
        let shards = shards.clamp(1, n.max(1));

        let build = self.open(session, "core.session.build");
        let lookahead = default_link().min_latency();
        let mut world: ShardedWorld<Msg> = ShardedWorld::new(
            shards,
            lookahead,
            cfg.seed,
            |k| -> Box<dyn LinkModel + Send> { Box::new(timed_link(k, &sink)) },
        );
        world.reserve_events(cfg.content.packets as usize * 2 + n * 8);
        let dir = directory(n);
        let starts = shard_blocks(n, shards);
        for k in 0..shards {
            let block = starts[k]..starts[k + 1];
            if !block.is_empty() {
                world.add_group(k, block.len(), timed_plane(spec, block, &dir, k, &sink));
            }
        }
        world.add_actor(0, timed_leaf(spec, &dir, &sink));
        if let Some(crash) = crash_actor(spec, &dir) {
            world.add_actor(0, crash);
        }
        self.totals.build_ns += self.close(build);

        let run = self.open(session, "sim.world.run");
        world.run_until(limit_of(spec));
        self.totals.run_ns += self.close(run);

        let sum = self.open(session, "core.session.summarize");
        let reports = sharded_peer_reports(&world, spec.protocol, &dir);
        let leaf: &LeafActor = world.actor_as(dir.leaf()).expect("leaf actor");
        let outcome = summarize(world.metrics(), leaf, spec.protocol, cfg, &reports);
        self.totals.summarize_ns += self.close(sum);

        self.open = Some(OpenSession { session, run, sink });
        (outcome, world, reports)
    }

    /// Drop the traced session's world (a span of its own: tearing down
    /// 10⁵ peers is not free), then collect what its decorators flushed.
    pub fn finish_session<W>(&mut self, world: W, reports: Vec<PeerReport>) {
        let OpenSession { session, run, sink } =
            self.open.take().expect("no traced session is open");
        let drop_span = self.open(session, "core.session.drop");
        drop(world);
        drop(reports);
        self.totals.drop_ns += self.close(drop_span);
        self.close(session);
        self.totals.sessions += 1;

        let inner = match Arc::try_unwrap(sink) {
            Ok(sink) => sink.inner.into_inner().unwrap_or_default(),
            Err(_) => panic!("a decorator outlived its world"),
        };
        let shards = inner.planes.iter().map(|(k, _)| k + 1).max().unwrap_or(1);
        let link_of = |shard: usize| -> Acc {
            let mut a = Acc::default();
            for (_, l) in inner.links.iter().filter(|(k, _)| *k == shard) {
                a.add(*l);
            }
            a
        };
        let mut busy_max_ns = 0u64;
        for shard in 0..shards {
            // The hosts of this shard: its plane group, and on shard 0 the leaf.
            let mut hosts: Vec<(&'static str, HostAcc)> = inner
                .planes
                .iter()
                .filter(|(k, _)| *k == shard)
                .map(|(_, acc)| ("core.handlers", *acc))
                .collect();
            if shard == 0 {
                hosts.push(("core.leaf", inner.leaf));
            }
            let link = link_of(shard);
            let sends: u64 = hosts.iter().map(|(_, h)| h.send.calls).sum();
            busy_max_ns = busy_max_ns.max(hosts.iter().map(|(_, h)| h.handler.ns).sum());
            for (name, acc) in hosts {
                // The link runs once per message at a near-constant cost and
                // is timed per shard, not per host: a host's share of it is
                // its share of the shard's messages.
                let link_share = (u128::from(link.ns) * u128::from(acc.send.calls)
                    / u128::from(sends.max(1))) as u64;
                let lines = [
                    (name, "sim.world.run", acc.handler, acc.self_ns()),
                    (
                        "sim.runtime.send",
                        name,
                        acc.send,
                        acc.send.ns.saturating_sub(link_share),
                    ),
                    ("sim.runtime.timer", name, acc.timer, acc.timer.ns),
                ];
                for (name, under, a, self_ns) in lines {
                    self.aggs.push(Agg {
                        parent: run,
                        under,
                        name,
                        shard,
                        calls: a.calls,
                        total_ns: a.ns,
                        self_ns,
                    });
                }
                let total = if name == "core.leaf" {
                    &mut self.totals.leaf
                } else {
                    &mut self.totals.plane
                };
                total.handler.add(acc.handler);
                total.send.add(acc.send);
                total.timer.add(acc.timer);
            }
            self.aggs.push(Agg {
                parent: run,
                under: "sim.runtime.send",
                name: "sim.link",
                shard,
                calls: link.calls,
                total_ns: link.ns,
                self_ns: link.ns,
            });
            self.totals.link.add(link);
        }
        self.totals.busy_max_ns += busy_max_ns;
        let room = CORPUS_CAP.saturating_sub(self.corpus.len());
        self.corpus.extend(inner.corpus.into_iter().take(room));
    }

    /// One JSON object per line: coarse spans first, then aggregates.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"detail\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.detail, s.start_ns, s.end_ns
            )?;
        }
        for a in &self.aggs {
            writeln!(
                out,
                "{{\"parent\": {}, \"under\": \"{}\", \"name\": \"{}\", \"shard\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                a.parent, a.under, a.name, a.shard, a.calls, a.total_ns, a.self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{round_inputs, Workload};

    /// Decorator fidelity: a small session through the decorators
    /// dispatches the same events and reports the same outcome as
    /// `Session` itself, on both kernels, with and without a crash.
    #[test]
    fn decorated_sessions_are_the_plain_sessions() {
        for protocol in [Protocol::Dcop, Protocol::Tcop] {
            for crash in [None, Some((SimDuration::from_millis(40), PeerId(3)))] {
                let spec = SessionSpec {
                    cfg: SessionConfig::small(10, 3, 42),
                    protocol,
                    crash,
                    limit: None,
                };
                let mut tracer = Tracer::default();
                let round = tracer.open(0, "round");

                let (plain, plain_world, _) = spec.session().run_with_world();
                let (traced, world, reports) = tracer.run_with_world(round, &spec);
                assert_eq!(traced, plain, "{} single world", protocol.name());
                assert_eq!(world.events_dispatched(), plain_world.events_dispatched());
                tracer.finish_session(world, reports);

                let (plain, plain_world, _) = spec.session().shards(2).run_with_sharded_world();
                let (traced, world, reports) = tracer.run_with_sharded_world(round, &spec, 2);
                assert_eq!(traced, plain, "{} sharded", protocol.name());
                assert_eq!(world.events_dispatched(), plain_world.events_dispatched());
                assert_eq!(world.event_digest(), plain_world.event_digest());
                tracer.finish_session(world, reports);
                tracer.close(round);

                // Every handler, runtime and link call was seen, and the
                // children fit inside their parents.
                let t = tracer.totals;
                assert_eq!(t.sessions, 2);
                assert!(t.plane.handler.calls > 0 && t.leaf.handler.calls > 0);
                assert_eq!(t.link.calls, t.send().calls, "one link call per message");
                assert!(t.link.ns <= t.send().ns);
                assert!(t.send().ns + t.timer().ns <= t.plane.handler.ns + t.leaf.handler.ns);
                assert!(t.plane.handler.ns + t.leaf.handler.ns <= t.run_ns * 2);
                assert!(!tracer.corpus.is_empty());
            }
        }
    }

    /// The self times written to the file add up to the run span they
    /// hang under, on the single world.
    #[test]
    fn aggregates_reconcile_with_their_run_span() {
        let spec = round_inputs(Workload::StreamVideo, 5, 0, false).remove(0);
        let spec = SessionSpec {
            cfg: SessionConfig {
                content: mss::media::ContentDesc::small(9, 400),
                ..spec.cfg
            },
            ..spec
        };
        let mut tracer = Tracer::default();
        let (_, world, reports) = tracer.run_with_world(0, &spec);
        tracer.finish_session(world, reports);
        let run = tracer
            .spans
            .iter()
            .find(|s| s.name == "sim.world.run")
            .unwrap();
        let children: u64 = tracer
            .aggs
            .iter()
            .filter(|a| a.parent == run.id)
            .map(|a| a.self_ns)
            .sum();
        let span = run.end_ns - run.start_ns;
        assert!(
            children <= span,
            "children {children} ns exceed their run span {span} ns"
        );
        // What is left is the kernel's own dispatch time — to within the
        // nanosecond per host that sharing out the link time rounds away.
        assert!((span - children).abs_diff(tracer.totals.dispatch_self_ns()) <= 2);
    }
}
