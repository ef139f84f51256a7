//! Sharded parallel simulation: conservative time-window execution of
//! one logical world split across OS threads.
//!
//! # Model
//!
//! A [`ShardedWorld`] is `S` [`World`]s plus what only sharding needs.
//! A shard is a `World` plus an outbox: it owns its calendar
//! [`EventQueue`](crate::event::EventQueue), timer table, link-model
//! instance, forked RNG stream and [`Metrics`] sink, and runs the one
//! dispatch loop and the one `Ctx`, whose route queues a send locally
//! when the receiver lives on this shard and stages it in the outbox for
//! the receiver's shard otherwise. It hosts its own actors as groups over
//! contiguous global id ranges and keeps a liveness flag for every global
//! id, so global ids need no translation. The composition adds the
//! global-id → shard map, the window floor, the barrier/channel exchange,
//! and the digest combination. Each shard runs on its own
//! `std::thread::scope` worker, in *windows* of the classic conservative
//! (lookahead) kind:
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
//! boundary and counted ([`crate::metrics::NET_CLAMPED`], the counter a
//! lone world's past-delivery guard uses), and the run fails hard after
//! joining under `debug_assertions`.
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
//! interleavings differ); a lone [`World`] (seeded directly, not forked)
//! remains the reference.
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

use crate::event::{ActorId, Event};
use crate::link::{FixedLatency, LinkModel};
use crate::metrics::{self, Metrics};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::{Actor, ActorGroup, SimMessage, World};

/// Global id → hosting shard, shared read-only by every worker.
#[derive(Default)]
pub(crate) struct ShardMap {
    shard_of: Vec<u32>,
}

impl ShardMap {
    #[inline]
    fn shard(&self, id: ActorId) -> u32 {
        self.shard_of[id.index()]
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

/// One destination's staging buffer, alone on its cache lines. Every
/// world allocates its lanes on the building thread right after its
/// siblings', and each worker pushes into its own lanes on every
/// cross-shard send; unpadded, two workers' lanes could share a line.
#[repr(align(128))]
struct Lane<M>(Vec<Cross<M>>);

/// A cross-shard delivery after unboxing, carrying its sort key.
struct Arrival<M> {
    at: SimTime,
    src: u32,
    seq: u64,
    from: ActorId,
    to: ActorId,
    msg: M,
}

/// A world's side of the cross-shard exchange. A lone world's outbox has
/// no destinations, so it hosts every actor and stages nothing.
pub(crate) struct Outbox<M> {
    shard: u32,
    map: Arc<ShardMap>,
    /// Per-destination staging (own index unused).
    out: Vec<Lane<M>>,
    /// Monotone cross-send counter (see [`Cross::Deliver`]).
    seq: u64,
    /// Events flushed to other shards, kills included.
    sent: u64,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            shard: 0,
            map: Arc::default(),
            out: Vec::new(),
            seq: 0,
            sent: 0,
        }
    }
}

impl<M> Outbox<M> {
    /// True when this world hosts `to`: always for a lone world.
    #[inline]
    pub(crate) fn hosts(&self, to: ActorId) -> bool {
        self.out.is_empty() || self.map.shard(to) == self.shard
    }

    /// Stage a delivery for the shard hosting `to`.
    pub(crate) fn stage(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        let Lane(out) = &mut self.out[self.map.shard(to) as usize];
        out.push(Cross::Deliver {
            at,
            seq,
            from,
            to,
            msg,
        });
    }

    /// Stage `actor`'s crash-stop for every other shard.
    pub(crate) fn kill(&mut self, actor: ActorId) {
        let own = self.shard as usize;
        for (dst, Lane(out)) in self.out.iter_mut().enumerate() {
            if dst != own {
                out.push(Cross::Kill(actor));
            }
        }
    }

    /// Hand every staged delivery to `post` as `(destination shard,
    /// from, to, msg)`, lane by lane, each lane in send order. Staged
    /// kills are dropped: the hosts that drain a world carry messages
    /// only (see [`ShardedWorld::into_live_worlds`]).
    pub(crate) fn drain(&mut self, mut post: impl FnMut(usize, ActorId, ActorId, M)) {
        for (dst, Lane(buf)) in self.out.iter_mut().enumerate() {
            self.sent += buf.len() as u64;
            for cross in buf.drain(..) {
                if let Cross::Deliver { from, to, msg, .. } = cross {
                    post(dst, from, to, msg);
                }
            }
        }
    }

    /// Flush staged cross-shard events, one batch per destination.
    fn flush(&mut self, txs: &[Sender<Vec<Cross<M>>>]) {
        for (dst, Lane(buf)) in self.out.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.sent += buf.len() as u64;
                // A send can only fail if the destination worker already
                // exited, which the aligned barrier schedule rules out
                // for live runs; ignore rather than unwind mid-scope.
                let _ = txs[dst].send(std::mem::take(buf));
            }
        }
    }
}

/// Drain all inboxes and queue the arrivals in deterministic
/// `(time, src shard, src seq)` order. Kills apply first; arrivals below
/// the closed window's `floor` are clamped and counted.
fn drain<M: SimMessage>(
    world: &mut World<M>,
    floor: SimTime,
    rxs: &[Receiver<Vec<Cross<M>>>],
    inbox: &mut Vec<Arrival<M>>,
) {
    debug_assert!(inbox.is_empty());
    for (src, rx) in rxs.iter().enumerate() {
        while let Ok(batch) = rx.try_recv() {
            for cross in batch {
                match cross {
                    Cross::Kill(actor) => world.kill(actor),
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
        if at < floor {
            world.metrics_mut().incr_id(metrics::NET_CLAMPED_ID);
            at = floor;
        }
        world.queue.push(
            at,
            Event::Deliver {
                from: a.from,
                to: a.to,
                msg: a.msg,
            },
        );
    }
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
    /// Deliveries clamped for violating the lookahead bound.
    pub clamped: u64,
}

/// Shared worker coordination state for one `run_until` call.
struct ShardSync {
    barrier: Barrier,
    /// Earliest pending event time per shard (`u64::MAX` = idle),
    /// posted before the window-opening barrier.
    next: Vec<AtomicU64>,
    stop: AtomicBool,
    limit: SimTime,
    lookahead: SimDuration,
}

/// One shard's worker loop (see the module docs for the window
/// algorithm), starting from the closed-window `floor`. Returns the
/// windows run and the floor they leave behind — the same on every
/// worker, which all take the same branches on the same values.
fn run_worker<M: SimMessage>(
    world: &mut World<M>,
    mut floor: SimTime,
    sync: &ShardSync,
    txs: Vec<Sender<Vec<Cross<M>>>>,
    rxs: Vec<Receiver<Vec<Cross<M>>>>,
) -> (u64, SimTime) {
    let (limit, shard, single) = (sync.limit, world.outbox.shard as usize, txs.len() == 1);
    let mut windows = 0;
    let mut inbox: Vec<Arrival<M>> = Vec::new();
    // Wave −1: `on_start` callbacks run before any event, and their
    // sends are exchanged so the first window's queues are complete.
    world.start_pending();
    world.outbox.flush(&txs);
    sync.barrier.wait();
    drain(world, floor, &rxs, &mut inbox);
    loop {
        // Publish a pending halt only here, strictly between the
        // window-closing barrier below and the window-opening one:
        // no worker can reach this store for window k+1 until every
        // worker has both read the flag for window k and closed k,
        // so all workers read the same value and take the same
        // branch every iteration. (A mid-window store could be read
        // one iteration "early" by a sibling that was descheduled
        // just past the opening barrier; that sibling broke out
        // while the stopper parked on the closing barrier forever.)
        if world.stop {
            sync.stop.store(true, Ordering::Release);
        }
        let next = world.queue.peek_time().map_or(u64::MAX, |t| t.0);
        sync.next[shard].store(next, Ordering::Release);
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
                t0.saturating_add(sync.lookahead.as_nanos())
                    .saturating_sub(1)
                    .min(limit.0),
            )
        };
        world.dispatch_until(end);
        if end.0 < u64::MAX {
            floor = SimTime(end.0 + 1);
        }
        windows += 1;
        world.outbox.flush(&txs);
        sync.barrier.wait();
        drain(world, floor, &rxs, &mut inbox);
    }
    (windows, floor)
}

/// Window sync needs a lookahead: a positive one unless there is one shard.
fn check_lookahead(shards: usize, lookahead: SimDuration) {
    assert!(
        shards == 1 || lookahead > SimDuration::ZERO,
        "conservative time-window sync needs positive lookahead \
         (the link model's min_latency is zero — run single-shard instead)"
    );
}

/// One logical world executed by `S` cooperating shard [`World`]s. See
/// the module docs for the synchronization and determinism contract; the
/// registration and inspection API mirrors [`World`] with an explicit
/// shard assignment per actor.
pub struct ShardedWorld<M: SimMessage> {
    shards: Vec<World<M>>,
    map: Arc<ShardMap>,
    lookahead: SimDuration,
    /// End (exclusive) of the last closed window: the floor below which
    /// a cross-shard arrival is a causality violation.
    floor: SimTime,
    windows: u64,
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
        link_for: impl FnMut(usize) -> Box<dyn LinkModel + Send>,
    ) -> Self {
        check_lookahead(shards, lookahead);
        Self::build(shards, lookahead, seed, link_for)
    }

    /// A world of `shards` shards that is only registered, never run as
    /// one: a host that carries the traffic between shards itself takes
    /// the shards out with [`ShardedWorld::into_live_worlds`]. Links are
    /// zero-latency, so a send is staged at its send time.
    pub fn live(shards: usize, seed: u64) -> Self {
        Self::build(shards, SimDuration::ZERO, seed, |_| {
            Box::new(FixedLatency::new(SimDuration::ZERO))
        })
    }

    /// The shards as free-standing worlds for a host that carries every
    /// message between them, the live plane's workers. Each world's
    /// outbox gets an own index that no destination has, so it hosts no
    /// receiver, not even its own actors: every send is staged in the
    /// lane of the receiver's shard, and the host drains the lanes with
    /// [`World::drain_staged`] and queues what arrives with
    /// [`World::arrive`].
    pub fn into_live_worlds(self) -> Vec<World<M>> {
        let s = self.shards.len();
        let mut shards = self.shards;
        for world in &mut shards {
            world.outbox = Outbox {
                shard: s as u32,
                map: Arc::clone(&self.map),
                out: (0..s).map(|_| Lane(Vec::new())).collect(),
                ..Outbox::default()
            };
        }
        shards
    }

    fn build(
        shards: usize,
        lookahead: SimDuration,
        seed: u64,
        mut link_for: impl FnMut(usize) -> Box<dyn LinkModel + Send>,
    ) -> Self {
        assert!(shards >= 1, "a sharded world needs at least one shard");
        let master = SimRng::new(seed);
        ShardedWorld {
            shards: (0..shards)
                .map(|k| World::with_rng(link_for(k), master.fork(k as u64)))
                .collect(),
            map: Arc::default(),
            lookahead,
            floor: SimTime::ZERO,
            windows: 0,
            merged: Metrics::new(),
            now: SimTime::ZERO,
            stopped: false,
            ran: false,
        }
    }

    /// Record the next `count` global ids as hosted by `shard`; every
    /// other shard only tracks their liveness.
    fn register(&mut self, shard: usize, count: usize) {
        assert!(!self.ran, "registration after the world has run");
        assert!(shard < self.shards.len(), "shard index out of range");
        let map = Arc::get_mut(&mut self.map).expect("map shared while registering");
        map.shard_of
            .resize(map.shard_of.len() + count, shard as u32);
        for (k, world) in self.shards.iter_mut().enumerate() {
            if k != shard {
                world.add_elsewhere(count);
            }
        }
    }

    /// Register a solo actor on `shard`; global ids stay dense in
    /// registration order across all shards.
    pub fn add_actor(&mut self, shard: usize, actor: Box<dyn Actor<M>>) -> ActorId {
        self.register(shard, 1);
        self.shards[shard].add_actor(actor)
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
        self.register(shard, members);
        self.shards[shard].add_group(members, group)
    }

    /// Number of registered actors across all shards.
    pub fn actor_count(&self) -> usize {
        self.map.shard_of.len()
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
        for world in &mut self.shards {
            world.kill(actor);
        }
    }

    /// True if `actor` has not been killed.
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.shards[0].is_alive(actor)
    }

    /// Borrow any registered actor as `Any` for post-run inspection.
    pub fn actor_any(&self, id: ActorId) -> Option<&dyn Any> {
        let shard = *self.map.shard_of.get(id.index())?;
        self.shards[shard as usize].actor_any(id)
    }

    /// Downcast a registered actor to its concrete type.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actor_any(id).and_then(|a| a.downcast_ref::<T>())
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.shards.iter().map(World::events_dispatched).sum()
    }

    /// Order-sensitive digest of every shard's dispatched event stream,
    /// combined in shard order: identical for identical `(seed, shards)`
    /// runs, and a cheap fingerprint for determinism gates.
    pub fn event_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |h, w| h.rotate_left(9) ^ w.event_digest())
    }

    /// Deliveries that violated the lookahead contract and were clamped
    /// (always zero for honest link models).
    pub fn clamped_cross_events(&self) -> u64 {
        self.shards.iter().map(World::clamped).sum()
    }

    /// Per-shard load counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(k, w)| ShardStats {
                shard: k,
                actors: w.hosted_actors(),
                dispatched: w.events_dispatched(),
                windows: self.windows,
                cross_sent: w.outbox.sent,
                pending_events: w.pending_events(),
                clamped: w.clamped(),
            })
            .collect()
    }

    /// Pre-reserve per-shard queue capacity (allocation hint only).
    pub fn reserve_events(&mut self, events: usize) {
        let per = events / self.shards.len();
        for world in &mut self.shards {
            world.reserve_events(per);
        }
    }

    /// Run until every queue drains, an actor stops the world, or
    /// virtual time would pass `limit` (same clock semantics as
    /// [`World::run_until`]). Returns the time reached.
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        let s = self.shards.len();
        check_lookahead(s, self.lookahead);
        if !self.ran {
            self.ran = true;
            for (k, world) in self.shards.iter_mut().enumerate() {
                world.outbox = Outbox {
                    shard: k as u32,
                    map: Arc::clone(&self.map),
                    out: (0..s).map(|_| Lane(Vec::new())).collect(),
                    ..Outbox::default()
                };
            }
        }
        let sync = ShardSync {
            barrier: Barrier::new(s),
            next: (0..s).map(|_| AtomicU64::new(u64::MAX)).collect(),
            stop: AtomicBool::new(self.stopped),
            limit,
            lookahead: self.lookahead,
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
        let floor = self.floor;
        let ends: Vec<(u64, SimTime)> = std::thread::scope(|scope| {
            let sync = &sync;
            let workers: Vec<_> = self
                .shards
                .iter_mut()
                .zip(txs)
                .zip(rxs)
                .map(|((world, tx_row), rx_row)| {
                    scope.spawn(move || run_worker(world, floor, sync, tx_row, rx_row))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let windows;
        (windows, self.floor) = ends[0];
        self.windows += windows;
        self.stopped = sync.stop.load(Ordering::Acquire);
        let max_now = self
            .shards
            .iter()
            .map(World::now)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.now = if self.stopped || limit == SimTime::MAX {
            max_now
        } else {
            limit
        };
        self.merged.clear();
        for world in &self.shards {
            self.merged.merge(world.metrics());
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            self.clamped_cross_events(),
            0,
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
