//! Sharded parallel simulation: conservative time-window execution of
//! one logical world split across OS threads.
//!
//! # Model
//!
//! A [`ShardedWorld`] partitions its actors into `S` shards. Each shard
//! owns a full scheduler replica — calendar [`EventQueue`], timer table,
//! link-model instance, forked RNG stream, and [`Metrics`] sink — and
//! runs on its own `std::thread::scope` worker. Execution proceeds in
//! *windows* of the classic conservative (lookahead) kind:
//!
//! 1. every worker posts the time of its earliest pending event; a
//!    barrier reduction yields the global minimum `t0`;
//! 2. every worker dispatches its local events in `[t0, t0 + L)`, where
//!    the lookahead `L` is the minimum cross-shard link latency
//!    ([`crate::link::LinkModel::min_latency`]) — sends to actors of
//!    other shards are staged in per-destination outboxes;
//! 3. outboxes are flushed through mpsc channels, a second barrier
//!    closes the window, and every worker drains its inboxes, sorts the
//!    arrivals by `(time, source shard, source sequence)` and pushes
//!    them into its queue.
//!
//! Because a message sent at `t ≥ t0` arrives no earlier than `t0 + L`,
//! no event delivered at a window boundary can land inside the window
//! just processed: the per-shard event streams are causally complete.
//! An arrival before the closed window's end would mean the link model
//! overstated its `min_latency`; such events are clamped to the window
//! boundary and counted (`shard.clamped_cross_events`), and the run
//! fails hard after joining under `debug_assertions`.
//!
//! # Determinism
//!
//! For a fixed `(seed, shard count)` pair runs are bit-for-bit
//! reproducible: each shard draws from its own forked RNG stream, local
//! dispatch order is the calendar queue's total `(time, seq)` order, and
//! cross-shard arrivals are inserted in the deterministic
//! `(time, src shard, src seq)` order — no outcome ever depends on
//! thread scheduling. Runs with *different* shard counts are equally
//! valid simulations but not stream-identical (RNG streams and tie-break
//! interleavings differ); the single-threaded [`crate::world::World`]
//! remains the reference kernel.
//!
//! Crash-stop kills and `stop_world` are control signals, not timed
//! events: they apply immediately in the calling shard and reach other
//! shards at the next window boundary. This is deterministic per
//! `(seed, shards)` but one documented divergence from the
//! single-world kernel, where a kill is globally instantaneous.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

use crate::event::{ActorId, Event, EventQueue, TimerId};
use crate::link::{LinkModel, LinkVerdict};
use crate::metrics::{self, Metrics};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::{
    is_alive_idx, kill_idx, Actor, ActorGroup, Runtime, SimMessage, Slot, Taken, TimerTable,
};

/// Metric counting cross-shard arrivals that violated the lookahead
/// contract and were clamped to the window boundary (release builds
/// only; a debug build fails the run instead).
pub const CLAMPED_CROSS_EVENTS: &str = "shard.clamped_cross_events";

/// Global-id → (shard, local index) routing table, shared read-only by
/// every worker.
#[derive(Clone, Default)]
struct ShardMap {
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
}

impl ShardMap {
    fn push(&mut self, shard: u32, local: u32) -> ActorId {
        let id = ActorId(self.shard_of.len() as u32);
        self.shard_of.push(shard);
        self.local_of.push(local);
        id
    }

    #[inline]
    fn shard(&self, id: ActorId) -> u32 {
        self.shard_of[id.index()]
    }

    #[inline]
    fn local(&self, id: ActorId) -> u32 {
        self.local_of[id.index()]
    }

    fn len(&self) -> usize {
        self.shard_of.len()
    }
}

/// An event crossing shards: staged in the sender's outbox during a
/// window, delivered into the destination queue at the boundary.
enum Cross<M> {
    /// A link-delivered message for an actor of the destination shard.
    /// `seq` is the sender shard's monotone cross-send counter — the
    /// deterministic tie-break for same-time arrivals.
    Deliver {
        at: SimTime,
        seq: u64,
        from: ActorId,
        to: ActorId,
        msg: M,
    },
    /// Crash-stop propagation (applied to the destination's liveness
    /// copy before any of the window's deliveries are queued).
    Kill(ActorId),
}

/// A cross-shard delivery after unboxing, carrying its sort key.
struct Arrival<M> {
    at: SimTime,
    src: u32,
    seq: u64,
    from: ActorId,
    to: ActorId,
    msg: M,
}

/// Fold one dispatched event into a shard's running stream digest
/// (an FNV-style 64-bit mix; order-sensitive by construction).
#[inline]
fn fold_digest(h: u64, at: SimTime, kind: u64, payload: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut x = h ^ at.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_mul(PRIME);
    x ^= kind.rotate_left(17);
    x = x.wrapping_mul(PRIME);
    x ^= payload.rotate_left(31);
    x.wrapping_mul(PRIME)
}

/// Per-shard load and synchronization counters (see
/// [`ShardedWorld::shard_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Actors hosted by this shard.
    pub actors: usize,
    /// Events dispatched by this shard since construction.
    pub dispatched: u64,
    /// Synchronization windows this shard participated in.
    pub windows: u64,
    /// Events this shard sent to other shards.
    pub cross_sent: u64,
    /// Events still pending in this shard's queue.
    pub pending_events: usize,
    /// Cross-shard arrivals clamped for violating the lookahead bound.
    pub clamped: u64,
}

/// Shared worker coordination state for one `run_until` call.
struct ShardSync {
    barrier: Barrier,
    /// Earliest pending event time per shard (`u64::MAX` = idle),
    /// posted before the window-opening barrier.
    next: Vec<AtomicU64>,
    stop: AtomicBool,
}

/// One shard: a self-contained scheduler over a subset of the actors.
struct Shard<M: SimMessage> {
    index: u32,
    map: Arc<ShardMap>,
    /// Local slots; `globals[i]` is the world-wide id of local slot `i`.
    actors: Vec<Slot<M>>,
    globals: Vec<ActorId>,
    groups: Vec<Option<Box<dyn ActorGroup<M>>>>,
    /// Full-length liveness copy (all shards see all actors); remote
    /// kills are applied at window boundaries.
    alive: Vec<bool>,
    queue: EventQueue<M>,
    timers: TimerTable,
    link: Box<dyn LinkModel + Send>,
    rng: SimRng,
    metrics: Metrics,
    now: SimTime,
    /// End (exclusive) of the last closed window: the floor below which
    /// a cross-shard arrival is a causality violation.
    floor: SimTime,
    stop: bool,
    started: usize,
    dispatched: u64,
    digest: u64,
    /// Per-destination staging for cross-shard events (own index unused).
    out: Vec<Vec<Cross<M>>>,
    xseq: u64,
    windows: u64,
    cross_sent: u64,
    clamped: u64,
}

/// The context handed to actor callbacks running inside a shard. Same
/// contract as the single world's `Ctx`; sends that cross shards are
/// staged instead of queued.
struct ShardCtx<'a, M: SimMessage> {
    shard: u32,
    self_id: ActorId,
    now: SimTime,
    map: &'a ShardMap,
    queue: &'a mut EventQueue<M>,
    link: &'a mut (dyn LinkModel + Send),
    rng: &'a mut SimRng,
    metrics: &'a mut Metrics,
    alive: &'a mut [bool],
    timers: &'a mut TimerTable,
    stop: &'a mut bool,
    out: &'a mut [Vec<Cross<M>>],
    xseq: &'a mut u64,
    clamped: &'a mut u64,
}

impl<'a, M: SimMessage> ShardCtx<'a, M> {
    /// Route one link verdict: local push or cross-shard staging. A
    /// delivery into the past (a link model bug) is clamped to `now`
    /// and counted; the run fails after joining under debug assertions.
    #[inline]
    fn route(&mut self, to: ActorId, verdict: LinkVerdict, msg: M) {
        match verdict {
            LinkVerdict::Deliver(mut at) => {
                if at < self.now {
                    *self.clamped += 1;
                    at = self.now;
                }
                let dst = self.map.shard(to);
                if dst == self.shard {
                    self.queue.push(
                        at,
                        Event::Deliver {
                            from: self.self_id,
                            to,
                            msg,
                        },
                    );
                } else {
                    let seq = *self.xseq;
                    *self.xseq += 1;
                    self.out[dst as usize].push(Cross::Deliver {
                        at,
                        seq,
                        from: self.self_id,
                        to,
                        msg,
                    });
                }
            }
            LinkVerdict::Drop => {
                self.metrics.incr_id(metrics::NET_DROPPED_ID);
            }
        }
    }
}

impl<'a, M: SimMessage> Runtime<M> for ShardCtx<'a, M> {
    #[inline]
    fn id(&self) -> ActorId {
        self.self_id
    }

    #[inline]
    fn now(&self) -> SimTime {
        self.now
    }

    fn actor_count(&self) -> usize {
        self.alive.len()
    }

    /// Liveness against this shard's copy: kills from other shards are
    /// visible from the next window boundary on.
    fn is_alive(&self, actor: ActorId) -> bool {
        is_alive_idx(self.alive, actor.index())
    }

    fn send(&mut self, to: ActorId, msg: M) {
        let bytes = msg.wire_size();
        self.metrics.incr_id(metrics::NET_SENT_ID);
        self.metrics
            .add_id(metrics::NET_BYTES_SENT_ID, bytes as u64);
        let verdict = self
            .link
            .process(self.now, self.self_id, to, bytes, self.rng);
        self.route(to, verdict, msg);
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.timers.arm();
        self.queue.push(
            self.now + delay,
            Event::Timer {
                actor: self.self_id,
                timer: id,
                tag,
            },
        );
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.take(timer);
    }

    #[inline]
    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    #[inline]
    fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Crash-stop `actor`: immediate in this shard, boundary-applied in
    /// the others (see module docs).
    fn kill(&mut self, actor: ActorId) {
        kill_idx(self.alive, actor.index());
        let own = self.shard as usize;
        for (dst, out) in self.out.iter_mut().enumerate() {
            if dst != own {
                out.push(Cross::Kill(actor));
            }
        }
    }

    /// Halt the run: this shard stops dispatching after the current
    /// callback; the other shards finish their open window first.
    fn stop_world(&mut self) {
        *self.stop = true;
    }

    /// Batched send with one metrics update, same per-message link and
    /// routing order as individual sends.
    fn send_batch(&mut self, batch: &mut Vec<(ActorId, M)>) {
        let count = batch.len() as u64;
        let mut bytes = 0u64;
        for (to, msg) in batch.drain(..) {
            let size = msg.wire_size();
            bytes += size as u64;
            let verdict = self
                .link
                .process(self.now, self.self_id, to, size, self.rng);
            self.route(to, verdict, msg);
        }
        self.metrics.add_id(metrics::NET_SENT_ID, count);
        self.metrics.add_id(metrics::NET_BYTES_SENT_ID, bytes);
    }
}

impl<M: SimMessage> Shard<M> {
    fn ctx(&mut self, self_id: ActorId) -> ShardCtx<'_, M> {
        ShardCtx {
            shard: self.index,
            self_id,
            now: self.now,
            map: &self.map,
            queue: &mut self.queue,
            link: self.link.as_mut(),
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            alive: &mut self.alive,
            timers: &mut self.timers,
            stop: &mut self.stop,
            out: &mut self.out,
            xseq: &mut self.xseq,
            clamped: &mut self.clamped,
        }
    }

    fn take_target(&mut self, local: usize) -> Option<Taken<M>> {
        match self.actors.get_mut(local)? {
            Slot::Solo(slot) => slot.take().map(Taken::Actor),
            Slot::Member { group, member } => {
                let (g, m) = (*group as usize, *member);
                self.groups
                    .get_mut(g)
                    .and_then(Option::take)
                    .map(|b| Taken::Group(g, m, b))
            }
        }
    }

    fn put_target(&mut self, local: usize, taken: Taken<M>) {
        match taken {
            Taken::Actor(a) => {
                if let Some(Slot::Solo(slot)) = self.actors.get_mut(local) {
                    *slot = Some(a);
                }
            }
            Taken::Group(g, _, b) => self.groups[g] = Some(b),
        }
    }

    fn actor_any(&self, local: usize) -> Option<&dyn Any> {
        match self.actors.get(local)? {
            Slot::Solo(slot) => slot.as_deref().map(|a| a.as_any()),
            Slot::Member { group, member } => self
                .groups
                .get(*group as usize)
                .and_then(|g| g.as_deref())
                .map(|g| g.member_as_any(*member)),
        }
    }

    /// Run pending `on_start` callbacks in local registration order.
    fn start_pending(&mut self) {
        while self.started < self.actors.len() {
            let idx = self.started;
            self.started += 1;
            let gid = self.globals[idx];
            if !is_alive_idx(&self.alive, gid.index()) {
                continue;
            }
            let Some(mut taken) = self.take_target(idx) else {
                continue;
            };
            match &mut taken {
                Taken::Actor(a) => a.on_start(&mut self.ctx(gid)),
                Taken::Group(_, m, b) => {
                    let m = *m;
                    b.on_start(&mut self.ctx(gid), m);
                }
            }
            self.put_target(idx, taken);
        }
    }

    /// Dispatch every local event at or before `end` (stops early on
    /// `stop_world`).
    fn dispatch_window(&mut self, end: SimTime) {
        while !self.stop {
            let Some((at, event)) = self.queue.pop_at_or_before(end) else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.dispatched += 1;
            match event {
                Event::Deliver { from, to, msg } => {
                    self.digest = fold_digest(
                        self.digest,
                        at,
                        1,
                        (u64::from(from.0) << 32) | u64::from(to.0),
                    );
                    if !is_alive_idx(&self.alive, to.index()) {
                        self.metrics.incr_id(metrics::NET_TO_DEAD_ID);
                        continue;
                    }
                    self.metrics.incr_id(metrics::NET_DELIVERED_ID);
                    let local = self.map.local(to) as usize;
                    let Some(mut taken) = self.take_target(local) else {
                        continue;
                    };
                    match &mut taken {
                        Taken::Actor(a) => a.on_message(&mut self.ctx(to), from, msg),
                        Taken::Group(_, m, b) => {
                            let m = *m;
                            b.on_message(&mut self.ctx(to), m, from, msg);
                        }
                    }
                    self.put_target(local, taken);
                }
                Event::Timer { actor, timer, tag } => {
                    self.digest = fold_digest(self.digest, at, 2, (u64::from(actor.0) << 32) ^ tag);
                    if !self.timers.take(timer) {
                        continue;
                    }
                    if !is_alive_idx(&self.alive, actor.index()) {
                        continue;
                    }
                    let local = self.map.local(actor) as usize;
                    let Some(mut taken) = self.take_target(local) else {
                        continue;
                    };
                    match &mut taken {
                        Taken::Actor(a) => a.on_timer(&mut self.ctx(actor), timer, tag),
                        Taken::Group(_, m, b) => {
                            let m = *m;
                            b.on_timer(&mut self.ctx(actor), m, timer, tag);
                        }
                    }
                    self.put_target(local, taken);
                }
            }
        }
    }

    /// Flush staged cross-shard events, one batch per destination.
    fn flush(&mut self, txs: &[Sender<Vec<Cross<M>>>]) {
        for (dst, buf) in self.out.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.cross_sent += buf.len() as u64;
                // A send can only fail if the destination worker already
                // exited, which the aligned barrier schedule rules out
                // for live runs; ignore rather than unwind mid-scope.
                let _ = txs[dst].send(std::mem::take(buf));
            }
        }
    }

    /// Drain all inboxes and queue the arrivals in deterministic
    /// `(time, src shard, src seq)` order. Kills apply first; arrivals
    /// below the closed window's floor are clamped and counted.
    fn drain(&mut self, rxs: &[Receiver<Vec<Cross<M>>>], inbox: &mut Vec<Arrival<M>>) {
        debug_assert!(inbox.is_empty());
        for (src, rx) in rxs.iter().enumerate() {
            while let Ok(batch) = rx.try_recv() {
                for cross in batch {
                    match cross {
                        Cross::Kill(actor) => kill_idx(&mut self.alive, actor.index()),
                        Cross::Deliver {
                            at,
                            seq,
                            from,
                            to,
                            msg,
                        } => inbox.push(Arrival {
                            at,
                            src: src as u32,
                            seq,
                            from,
                            to,
                            msg,
                        }),
                    }
                }
            }
        }
        // `(at, src, seq)` is unique per arrival (`seq` is the source
        // shard's monotone cross-send counter), so the unstable sort
        // yields the stable order without a merge buffer per window.
        inbox.sort_unstable_by_key(|a| (a.at, a.src, a.seq));
        for a in inbox.drain(..) {
            let mut at = a.at;
            if at < self.floor {
                self.clamped += 1;
                at = self.floor;
            }
            self.queue.push(
                at,
                Event::Deliver {
                    from: a.from,
                    to: a.to,
                    msg: a.msg,
                },
            );
        }
    }

    /// The worker loop: see the module docs for the window algorithm.
    fn run_worker(
        &mut self,
        limit: SimTime,
        lookahead: SimDuration,
        single: bool,
        sync: &ShardSync,
        txs: Vec<Sender<Vec<Cross<M>>>>,
        rxs: Vec<Receiver<Vec<Cross<M>>>>,
    ) {
        let mut inbox: Vec<Arrival<M>> = Vec::new();
        // Wave −1: `on_start` callbacks run before any event, and their
        // sends are exchanged so the first window's queues are complete.
        self.start_pending();
        self.flush(&txs);
        sync.barrier.wait();
        self.drain(&rxs, &mut inbox);
        loop {
            // Publish a pending halt only here, strictly between the
            // window-closing barrier below and the window-opening one:
            // no worker can reach this store for window k+1 until every
            // worker has both read the flag for window k and closed k,
            // so all workers read the same value and take the same
            // branch every iteration. (A mid-window store — the old
            // code stored right after `dispatch_window` — could be read
            // one iteration "early" by a sibling that was descheduled
            // just past the opening barrier; that sibling broke out
            // while the stopper parked on the closing barrier forever.)
            if self.stop {
                sync.stop.store(true, Ordering::Release);
            }
            let next = self.queue.peek_time().map_or(u64::MAX, |t| t.0);
            sync.next[self.index as usize].store(next, Ordering::Release);
            sync.barrier.wait();
            if sync.stop.load(Ordering::Acquire) {
                break;
            }
            let t0 = sync
                .next
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            if t0 == u64::MAX || t0 > limit.0 {
                break;
            }
            let end = if single {
                limit
            } else {
                // Process strictly before t0 + L (inclusive bound is
                // t0 + L − 1), never past the caller's limit.
                SimTime(
                    t0.saturating_add(lookahead.as_nanos())
                        .saturating_sub(1)
                        .min(limit.0),
                )
            };
            self.dispatch_window(end);
            if end.0 < u64::MAX {
                self.floor = SimTime(end.0 + 1);
            }
            self.windows += 1;
            self.flush(&txs);
            sync.barrier.wait();
            self.drain(&rxs, &mut inbox);
        }
    }
}

/// One logical world executed by `S` cooperating shard workers. See the
/// module docs for the synchronization and determinism contract; the
/// registration and inspection API mirrors [`crate::world::World`] with
/// an explicit shard assignment per actor.
pub struct ShardedWorld<M: SimMessage> {
    shards: Vec<Shard<M>>,
    map: Arc<ShardMap>,
    lookahead: SimDuration,
    merged: Metrics,
    now: SimTime,
    stopped: bool,
    ran: bool,
}

impl<M: SimMessage + Send> ShardedWorld<M> {
    /// A world of `shards` shards with per-shard link instances built by
    /// `link_for` and per-shard RNG streams forked from `seed`.
    ///
    /// `lookahead` must be a sound lower bound on every *cross-shard*
    /// one-way latency (use [`LinkModel::min_latency`] of the link the
    /// factory builds) and must be positive unless `shards == 1`.
    pub fn new(
        shards: usize,
        lookahead: SimDuration,
        seed: u64,
        mut link_for: impl FnMut(usize) -> Box<dyn LinkModel + Send>,
    ) -> Self {
        assert!(shards >= 1, "a sharded world needs at least one shard");
        assert!(
            shards == 1 || lookahead > SimDuration::ZERO,
            "conservative time-window sync needs positive lookahead \
             (the link model's min_latency is zero — run single-shard instead)"
        );
        let master = SimRng::new(seed);
        let shards: Vec<Shard<M>> = (0..shards)
            .map(|k| Shard {
                index: k as u32,
                map: Arc::new(ShardMap::default()),
                actors: Vec::new(),
                globals: Vec::new(),
                groups: Vec::new(),
                alive: Vec::new(),
                queue: EventQueue::new(),
                timers: TimerTable::default(),
                link: link_for(k),
                rng: master.fork(k as u64),
                metrics: Metrics::new(),
                now: SimTime::ZERO,
                floor: SimTime::ZERO,
                stop: false,
                started: 0,
                dispatched: 0,
                digest: 0,
                out: Vec::new(),
                xseq: 0,
                windows: 0,
                cross_sent: 0,
                clamped: 0,
            })
            .collect();
        ShardedWorld {
            shards,
            map: Arc::new(ShardMap::default()),
            lookahead,
            merged: Metrics::new(),
            now: SimTime::ZERO,
            stopped: false,
            ran: false,
        }
    }

    fn register(&mut self, shard: usize) -> &mut ShardMap {
        assert!(!self.ran, "registration after the world has run");
        assert!(shard < self.shards.len(), "shard index out of range");
        Arc::get_mut(&mut self.map).expect("map shared while registering")
    }

    /// Register a solo actor on `shard`; global ids stay dense in
    /// registration order across all shards.
    pub fn add_actor(&mut self, shard: usize, actor: Box<dyn Actor<M>>) -> ActorId {
        let local = self.shards[shard].actors.len() as u32;
        let id = self.register(shard).push(shard as u32, local);
        let sh = &mut self.shards[shard];
        sh.actors.push(Slot::Solo(Some(actor)));
        sh.globals.push(id);
        for s in &mut self.shards {
            s.alive.push(true);
        }
        id
    }

    /// Register a group of `members` co-hosted actors on `shard`,
    /// occupying the next `members` dense global ids (the group's member
    /// `m` is global id `first + m`). Returns the first member's id.
    pub fn add_group(
        &mut self,
        shard: usize,
        members: usize,
        group: Box<dyn ActorGroup<M>>,
    ) -> ActorId {
        self.register(shard);
        let gidx = self.shards[shard].groups.len() as u32;
        self.shards[shard].groups.push(Some(group));
        let mut first = None;
        for member in 0..members as u32 {
            let local = self.shards[shard].actors.len() as u32;
            let id = self.register(shard).push(shard as u32, local);
            first.get_or_insert(id);
            let sh = &mut self.shards[shard];
            sh.actors.push(Slot::Member {
                group: gidx,
                member,
            });
            sh.globals.push(id);
            for s in &mut self.shards {
                s.alive.push(true);
            }
        }
        first.expect("empty group")
    }

    /// Number of registered actors across all shards.
    pub fn actor_count(&self) -> usize {
        self.map.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead bound this world synchronizes on.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Current virtual time (after a run: the reached horizon).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Merged metrics of every shard (slot-wise [`Metrics::merge`]),
    /// rebuilt after each run.
    pub fn metrics(&self) -> &Metrics {
        &self.merged
    }

    /// Crash-stop an actor from outside the simulation (applied to every
    /// shard's liveness copy at once).
    pub fn kill(&mut self, actor: ActorId) {
        for s in &mut self.shards {
            kill_idx(&mut s.alive, actor.index());
        }
    }

    /// True if `actor` has not been killed.
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.shards
            .first()
            .map(|s| is_alive_idx(&s.alive, actor.index()))
            .unwrap_or(false)
    }

    /// Borrow any registered actor as `Any` for post-run inspection.
    pub fn actor_any(&self, id: ActorId) -> Option<&dyn Any> {
        if id.index() >= self.map.len() {
            return None;
        }
        let shard = self.map.shard(id) as usize;
        self.shards[shard].actor_any(self.map.local(id) as usize)
    }

    /// Downcast a registered actor to its concrete type.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actor_any(id).and_then(|a| a.downcast_ref::<T>())
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.dispatched).sum()
    }

    /// Order-sensitive digest of every shard's dispatched event stream,
    /// combined in shard order: identical for identical `(seed, shards)`
    /// runs, and a cheap fingerprint for determinism gates.
    pub fn event_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |h, s| h.rotate_left(9) ^ s.digest)
    }

    /// Cross-shard arrivals that violated the lookahead contract and
    /// were clamped (always zero for honest link models).
    pub fn clamped_cross_events(&self) -> u64 {
        self.shards.iter().map(|s| s.clamped).sum()
    }

    /// Per-shard load counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                shard: s.index as usize,
                actors: s.actors.len(),
                dispatched: s.dispatched,
                windows: s.windows,
                cross_sent: s.cross_sent,
                pending_events: s.queue.len(),
                clamped: s.clamped,
            })
            .collect()
    }

    /// Pre-reserve per-shard queue capacity (allocation hint only).
    pub fn reserve_events(&mut self, events: usize) {
        let per = events / self.shards.len().max(1);
        for s in &mut self.shards {
            s.queue.reserve(per);
        }
    }

    /// Run until every queue drains, an actor stops the world, or
    /// virtual time would pass `limit` (same clock semantics as
    /// [`crate::world::World::run_until`]). Returns the time reached.
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        let s = self.shards.len();
        if !self.ran {
            self.ran = true;
            let out_template = || Vec::new();
            for shard in &mut self.shards {
                shard.map = self.map.clone();
                shard.out = (0..s).map(|_| out_template()).collect();
            }
        }
        let sync = ShardSync {
            barrier: Barrier::new(s),
            next: (0..s).map(|_| AtomicU64::new(u64::MAX)).collect(),
            stop: AtomicBool::new(self.stopped),
        };
        // One mpsc channel per ordered shard pair; senders are handed to
        // the source worker, receivers to the destination, both indexed
        // by the opposite end's shard number.
        let mut txs: Vec<Vec<Sender<Vec<Cross<M>>>>> = (0..s).map(|_| Vec::new()).collect();
        let mut rxs: Vec<Vec<Receiver<Vec<Cross<M>>>>> = Vec::with_capacity(s);
        for _dst in 0..s {
            let mut row = Vec::with_capacity(s);
            for tx_row in txs.iter_mut() {
                let (tx, rx) = channel();
                tx_row.push(tx);
                row.push(rx);
            }
            rxs.push(row);
        }
        let lookahead = self.lookahead;
        let single = s == 1;
        std::thread::scope(|scope| {
            let sync = &sync;
            for ((shard, tx_row), rx_row) in self.shards.iter_mut().zip(txs).zip(rxs) {
                scope.spawn(move || {
                    shard.run_worker(limit, lookahead, single, sync, tx_row, rx_row)
                });
            }
        });
        self.stopped = sync.stop.load(Ordering::Acquire);
        let max_now = self
            .shards
            .iter()
            .map(|sh| sh.now)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.now = if self.stopped || limit == SimTime::MAX {
            max_now
        } else {
            limit
        };
        self.merged.clear();
        for sh in &self.shards {
            self.merged.merge(&sh.metrics);
        }
        let clamped = self.clamped_cross_events();
        if clamped > 0 {
            self.merged
                .add_id(metrics::register(CLAMPED_CROSS_EVENTS), clamped);
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            clamped, 0,
            "cross-shard events violated the lookahead contract \
             (the link model's min_latency overstates its real minimum)"
        );
        self.now
    }

    /// Run until every queue drains or an actor stops the world.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }
}
