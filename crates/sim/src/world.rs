//! The actor world: the simulator's one event kernel — scheduler,
//! dispatch, timers, and fault injection.
//!
//! A [`World`] owns a few actor groups, an [`EventQueue`], a
//! [`LinkModel`], a seeded RNG, and a [`Metrics`] sink. It hosts one
//! shape only: an [`ActorGroup`] over a contiguous id range. A lone
//! [`Actor`] is a one-member group. Actors interact with the world only
//! through the [`Ctx`] handed to their callbacks, which keeps the borrow
//! structure simple and makes actor code look like ordinary
//! message-handler code.
//!
//! The sharded world ([`crate::shard::ShardedWorld`]) is `S` of these
//! side by side: a shard is a `World` plus an outbox. A shard hosts only
//! its own groups but keeps a liveness flag for every id of the session,
//! and [`Ctx`]'s one route queues a send locally when this world hosts
//! the receiver and stages it in the outbox otherwise. A lone
//! world has no other shard, so every send it makes is local. A live
//! worker's world ([`crate::shard::ShardedWorld::into_live_worlds`]) is
//! the opposite case: it hosts no receiver, so every send is staged, and
//! the worker carries it over a socket.
//!
//! Every world folds each dispatched event into an order-sensitive
//! digest ([`World::event_digest`]). A link verdict that lies in the past
//! (a link-model bug) is clamped to the present and counted in
//! [`metrics::NET_CLAMPED`]; a nonzero count fails the run under
//! `debug_assertions`.
//!
//! Determinism: with a fixed seed, fixed actor registration order, and
//! the same message handlers, a run produces an identical event sequence
//! on every platform.

use std::any::Any;

use crate::event::{ActorId, Event, EventQueue, TimerId};
use crate::link::{LinkModel, LinkVerdict};
use crate::metrics::{self, Metrics};
use crate::rng::SimRng;
use crate::shard::Outbox;
use crate::time::{SimDuration, SimTime};

/// Anything that can travel over a simulated link.
pub trait SimMessage: 'static {
    /// Approximate encoded size in bytes, used by bandwidth-limited links
    /// and byte counters.
    fn wire_size(&self) -> usize;
}

impl SimMessage for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}

/// The capabilities an actor may use from whatever hosts it.
///
/// [`Ctx`] is the one implementation on every substrate: a lone world, a
/// shard, and a live worker's world (`mss-net` runs each worker as a
/// [`World`] and carries its staged sends over UDP), so the same actor
/// state machines run unchanged on all three.
pub trait Runtime<M: SimMessage> {
    /// The id of the actor currently running.
    fn id(&self) -> ActorId;
    /// Current time (virtual in simulation, since-start wall time live).
    fn now(&self) -> SimTime;
    /// Number of actors in the session.
    fn actor_count(&self) -> usize;
    /// True if `actor` has not crashed, as far as this world knows.
    fn is_alive(&self, actor: ActorId) -> bool;
    /// Send `msg` to `to` through the hosting transport.
    fn send(&mut self, to: ActorId, msg: M);
    /// Arrange for [`Actor::on_timer`] to run `delay` from now with `tag`.
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId;
    /// Cancel a pending timer (no-op if already fired).
    fn cancel_timer(&mut self, timer: TimerId);
    /// Deterministic per-host random number generator.
    fn rng(&mut self) -> &mut SimRng;
    /// Metric sink.
    fn metrics(&mut self) -> &mut Metrics;
    /// Crash-stop an actor (fault injection); on a live worker, in its
    /// own liveness copy only ([`World::drain_staged`] drops kills).
    fn kill(&mut self, _actor: ActorId) {}
    /// Halt the session; on a live worker, halt that worker's world.
    fn stop_world(&mut self) {}
    /// Send every `(to, msg)` pair in `batch`, draining it. Exactly
    /// equivalent to calling [`Runtime::send`] once per entry in order
    /// (same delivery times, same RNG draws); hosts may amortize
    /// bookkeeping across the batch. A protocol fan-out pushes its whole
    /// round here and pays the per-send accounting once.
    fn send_batch(&mut self, batch: &mut Vec<(ActorId, M)>) {
        for (to, msg) in batch.drain(..) {
            self.send(to, msg);
        }
    }
}

/// A simulated process. Implementors also provide [`Actor::as_any`] so the
/// harness can inspect final actor state after a run (see
/// [`World::actor_as`]).
pub trait Actor<M: SimMessage>: Send + 'static {
    /// Called once, when the world first runs, in registration order.
    fn on_start(&mut self, _ctx: &mut dyn Runtime<M>) {}

    /// A message from `from` arrived.
    fn on_message(&mut self, ctx: &mut dyn Runtime<M>, from: ActorId, msg: M);

    /// A timer set by this actor fired.
    fn on_timer(&mut self, _ctx: &mut dyn Runtime<M>, _timer: TimerId, _tag: u64) {}

    /// Upcast for post-run state inspection.
    fn as_any(&self) -> &dyn Any;
}

/// Implements [`Actor::as_any`] for a concrete actor type.
#[macro_export]
macro_rules! impl_as_any {
    () => {
        fn as_any(&self) -> &dyn ::core::any::Any {
            self
        }
    };
}

/// A batch of co-hosted actors dispatched through one trait object.
///
/// Members are addressed by a dense index assigned at registration
/// ([`World::add_group`]); each member still owns a full [`ActorId`], so
/// liveness, timers, fault injection and message routing are untouched —
/// only *storage* changes. A group keeps its members in one contiguous
/// slab and can thread shared mutable state (scratch arenas, caches)
/// into every callback, which per-member `Box<dyn Actor>` storage cannot.
pub trait ActorGroup<M: SimMessage>: Send + 'static {
    /// Called once per member, in registration order, when the world
    /// first runs.
    fn on_start(&mut self, _ctx: &mut dyn Runtime<M>, _member: u32) {}

    /// A message for `member` arrived from `from`.
    fn on_message(&mut self, ctx: &mut dyn Runtime<M>, member: u32, from: ActorId, msg: M);

    /// A timer set by `member` fired.
    fn on_timer(&mut self, _ctx: &mut dyn Runtime<M>, _member: u32, _timer: TimerId, _tag: u64) {}

    /// Upcast one member for post-run state inspection.
    fn member_as_any(&self, member: u32) -> &dyn Any;
}

/// A lone [`Actor`] hosted as a one-member group.
struct Solo<M: SimMessage>(Box<dyn Actor<M>>);

impl<M: SimMessage> ActorGroup<M> for Solo<M> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<M>, _: u32) {
        self.0.on_start(ctx)
    }
    fn on_message(&mut self, ctx: &mut dyn Runtime<M>, _: u32, from: ActorId, msg: M) {
        self.0.on_message(ctx, from, msg)
    }
    fn on_timer(&mut self, ctx: &mut dyn Runtime<M>, _: u32, timer: TimerId, tag: u64) {
        self.0.on_timer(ctx, timer, tag)
    }
    fn member_as_any(&self, _: u32) -> &dyn Any {
        self.0.as_any()
    }
}

/// One registered group and the ids `first .. first + members` it hosts.
struct Hosted<M: SimMessage> {
    first: u32,
    members: u32,
    group: Box<dyn ActorGroup<M>>,
}

/// Liveness lookup shared by every dispatch site: out-of-range ids are
/// treated as dead (never registered ⇒ cannot receive anything).
#[inline]
fn is_alive_idx(alive: &[bool], idx: usize) -> bool {
    alive.get(idx).copied().unwrap_or(false)
}

/// Crash-stop by index; out-of-range ids are a no-op, matching
/// [`is_alive_idx`].
#[inline]
fn kill_idx(alive: &mut [bool], idx: usize) {
    if let Some(a) = alive.get_mut(idx) {
        *a = false;
    }
}

/// Fold one dispatched event into a world's running stream digest (an
/// FNV-style 64-bit mix; order-sensitive by construction).
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

/// Pending-timer bookkeeping: a generation-stamped slot map.
///
/// A [`TimerId`] packs `slot << 32 | generation`. Arming a timer claims a
/// slot at its current generation; *consuming* the id — by cancelling or
/// by firing — bumps the generation and frees the slot. A stale id (one
/// whose generation no longer matches) is simply ignored, so cancelling
/// a timer that already fired is a no-op rather than a permanently
/// leaked tombstone, and the table's size is bounded by the high-water
/// mark of *concurrently* armed timers. A pending timer event could only
/// misfire if its slot were recycled 2³² times before dispatch, which no
/// realistic run approaches.
#[derive(Default)]
struct TimerTable {
    /// Current generation per slot; odd/even carries no meaning, only
    /// equality with the id's stamp.
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl TimerTable {
    fn arm(&mut self) -> TimerId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.gens.push(0);
                (self.gens.len() - 1) as u32
            }
        };
        self.live += 1;
        TimerId((u64::from(slot) << 32) | u64::from(self.gens[slot as usize]))
    }

    /// Consume `id` (cancel or fire). Returns false when the id is
    /// stale — already fired or already cancelled.
    fn take(&mut self, id: TimerId) -> bool {
        let slot = (id.0 >> 32) as usize;
        let gen = id.0 as u32;
        match self.gens.get_mut(slot) {
            Some(g) if *g == gen => {
                *g = g.wrapping_add(1);
                self.free.push(slot as u32);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }
}

/// The world handle passed to actor callbacks.
pub struct Ctx<'a, M: SimMessage> {
    self_id: ActorId,
    now: SimTime,
    queue: &'a mut EventQueue<M>,
    link: &'a mut (dyn LinkModel + Send),
    rng: &'a mut SimRng,
    metrics: &'a mut Metrics,
    alive: &'a mut [bool],
    timers: &'a mut TimerTable,
    stop: &'a mut bool,
    outbox: &'a mut Outbox<M>,
}

impl<'a, M: SimMessage> Ctx<'a, M> {
    /// The one route every send takes. The link decides the message's
    /// fate; a delivery time in the past is clamped to now and counted;
    /// the delivery is queued here when this world hosts `to` (always,
    /// for a lone world) and staged for the hosting shard otherwise.
    #[inline]
    fn route(&mut self, to: ActorId, bytes: usize, msg: M) {
        match self
            .link
            .process(self.now, self.self_id, to, bytes, self.rng)
        {
            LinkVerdict::Deliver(mut at) => {
                if at < self.now {
                    self.metrics.incr_id(metrics::NET_CLAMPED_ID);
                    at = self.now;
                }
                if self.outbox.hosts(to) {
                    self.queue.push(
                        at,
                        Event::Deliver {
                            from: self.self_id,
                            to,
                            msg,
                        },
                    );
                } else {
                    self.outbox.stage(at, self.self_id, to, msg);
                }
            }
            LinkVerdict::Drop => {
                self.metrics.incr_id(metrics::NET_DROPPED_ID);
            }
        }
    }
}

impl<'a, M: SimMessage> Runtime<M> for Ctx<'a, M> {
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

    /// Liveness as this world sees it: in a shard, kills made on other
    /// shards are visible from the next window boundary on.
    fn is_alive(&self, actor: ActorId) -> bool {
        is_alive_idx(self.alive, actor.index())
    }

    /// The message passes the world's link model and may be delayed,
    /// reordered relative to other pairs, or dropped.
    fn send(&mut self, to: ActorId, msg: M) {
        let bytes = msg.wire_size();
        self.metrics.incr_id(metrics::NET_SENT_ID);
        self.metrics
            .add_id(metrics::NET_BYTES_SENT_ID, bytes as u64);
        self.route(to, bytes, msg);
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

    /// Invalidate the timer's slot; the queued event becomes a tombstone
    /// skipped at dispatch. Cancelling an already-fired (or already-
    /// cancelled) timer is a no-op and leaks nothing.
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

    /// Crash-stop `actor`: it receives no further messages or timers.
    /// In-flight messages *from* it still arrive (they already left). In
    /// a shard the kill is immediate here and reaches the other shards at
    /// the next window boundary.
    fn kill(&mut self, actor: ActorId) {
        kill_idx(self.alive, actor.index());
        self.outbox.kill(actor);
    }

    /// Halt the whole simulation after the current callback returns (a
    /// sharded world's other shards finish their open window first).
    fn stop_world(&mut self) {
        *self.stop = true;
    }

    /// Batched send: one metrics update for the whole fan-out, with link
    /// processing and routing in exact per-message order — the event
    /// stream (delivery times, sequence numbers, RNG draws) is
    /// bit-identical to `batch.len()` individual [`Runtime::send`] calls.
    fn send_batch(&mut self, batch: &mut Vec<(ActorId, M)>) {
        let count = batch.len() as u64;
        let mut bytes = 0u64;
        for (to, msg) in batch.drain(..) {
            let size = msg.wire_size();
            bytes += size as u64;
            self.route(to, size, msg);
        }
        self.metrics.add_id(metrics::NET_SENT_ID, count);
        self.metrics.add_id(metrics::NET_BYTES_SENT_ID, bytes);
    }
}

/// Owns the actors and runs the event loop.
///
/// Aligned to 128 bytes (a cache line and its prefetch pair): a sharded
/// world keeps its shards side by side in one `Vec`, and each shard's
/// worker writes its clock, counters and queue header on every event.
/// Without the alignment, one shard's tail and the next one's head
/// would share a line in three of four heap placements. A session's
/// speed would then depend on where the allocator put the `Vec`.
#[repr(align(128))]
pub struct World<M: SimMessage> {
    /// The hosted groups in id order (other shards host the gaps).
    groups: Vec<Hosted<M>>,
    /// Liveness of every id of the session, hosted here or not.
    alive: Vec<bool>,
    started: usize,
    pub(crate) queue: EventQueue<M>,
    link: Box<dyn LinkModel + Send>,
    rng: SimRng,
    metrics: Metrics,
    now: SimTime,
    timers: TimerTable,
    pub(crate) stop: bool,
    dispatched: u64,
    digest: u64,
    /// Cross-shard staging; a lone world's outbox has no destinations.
    pub(crate) outbox: Outbox<M>,
}

impl<M: SimMessage> World<M> {
    /// A world with the given link model and RNG seed.
    pub fn new(link: impl LinkModel + Send + 'static, seed: u64) -> Self {
        Self::with_rng(Box::new(link), SimRng::new(seed))
    }

    /// A world drawing from `rng` (a shard's forked stream).
    pub(crate) fn with_rng(link: Box<dyn LinkModel + Send>, rng: SimRng) -> Self {
        World {
            groups: Vec::new(),
            alive: Vec::new(),
            started: 0,
            queue: EventQueue::new(),
            link,
            rng,
            metrics: Metrics::new(),
            now: SimTime::ZERO,
            timers: TimerTable::default(),
            stop: false,
            dispatched: 0,
            digest: 0,
            outbox: Outbox::default(),
        }
    }

    /// Register an actor; ids are assigned densely in registration order.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        self.add_group(1, Box::new(Solo(actor)))
    }

    /// Register a group of `members` co-hosted actors; each member gets
    /// its own dense [`ActorId`] (continuing registration order), so a
    /// group of `k` members occupies the next `k` ids. Returns the first
    /// member's id. Scheduling is indistinguishable from `members`
    /// individual [`World::add_actor`] calls — only storage and the
    /// callback path differ.
    pub fn add_group(&mut self, members: usize, group: Box<dyn ActorGroup<M>>) -> ActorId {
        let first = self.alive.len() as u32;
        self.groups.push(Hosted {
            first,
            members: members as u32,
            group,
        });
        self.alive.resize(self.alive.len() + members, true);
        ActorId(first)
    }

    /// Take the next `count` ids for actors another shard hosts: they
    /// stay alive here, so liveness reads and kills cover every id.
    pub(crate) fn add_elsewhere(&mut self, count: usize) {
        self.alive.resize(self.alive.len() + count, true);
    }

    /// The group hosting `id` and the member it is there, or `None` when
    /// no group here hosts `id` (unregistered, or hosted by another
    /// shard).
    #[inline]
    fn locate(&self, id: ActorId) -> Option<(usize, u32)> {
        let after = self.groups.partition_point(|h| h.first <= id.0);
        let g = after.checked_sub(1)?;
        let member = id.0 - self.groups[g].first;
        (member < self.groups[g].members).then_some((g, member))
    }

    /// Number of actors this world hosts (other shards' ids not counted).
    pub(crate) fn hosted_actors(&self) -> usize {
        self.groups.iter().map(|h| h.members as usize).sum()
    }

    /// Number of registered actors (alive or not).
    pub fn actor_count(&self) -> usize {
        self.alive.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Metric sink for this run.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metric sink (e.g. for harness-side annotations).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// True if `actor` has not been killed.
    pub fn is_alive(&self, actor: ActorId) -> bool {
        is_alive_idx(&self.alive, actor.index())
    }

    /// Crash-stop an actor from outside the simulation.
    pub fn kill(&mut self, actor: ActorId) {
        kill_idx(&mut self.alive, actor.index());
    }

    /// Borrow any registered actor — solo or group member — as `Any` for
    /// post-run inspection.
    pub fn actor_any(&self, id: ActorId) -> Option<&dyn Any> {
        let (g, member) = self.locate(id)?;
        Some(self.groups[g].group.member_as_any(member))
    }

    /// Downcast a registered actor to its concrete type for inspection.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actor_any(id).and_then(|a| a.downcast_ref::<T>())
    }

    /// Run one callback of the group hosting `id` (a no-op if none here
    /// does) with a `Ctx` over every other field a callback may touch.
    /// All three dispatch sites (start, deliver, timer) come through here.
    #[inline]
    fn dispatch_to(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut dyn ActorGroup<M>, &mut Ctx<'_, M>, u32),
    ) {
        let Some((g, member)) = self.locate(id) else {
            return;
        };
        let mut ctx = Ctx {
            self_id: id,
            now: self.now,
            queue: &mut self.queue,
            link: self.link.as_mut(),
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            alive: &mut self.alive,
            timers: &mut self.timers,
            stop: &mut self.stop,
            outbox: &mut self.outbox,
        };
        f(self.groups[g].group.as_mut(), &mut ctx, member);
    }

    /// Run the `on_start` callbacks of every actor registered since the
    /// last run, in registration order (skipping other shards' actors).
    pub(crate) fn start_pending(&mut self) {
        let (from, to) = (self.started, self.alive.len());
        self.started = to;
        for idx in from..to {
            if self.alive[idx] {
                self.dispatch_to(ActorId(idx as u32), |g, ctx, m| g.on_start(ctx, m));
            }
        }
    }

    /// The dispatch loop — the only one: dispatch every pending event at
    /// or before `end` in `(time, seq)` order, until none is left or an
    /// actor stops the world. A lone world runs it once per
    /// [`World::run_until`]; a shard runs it once per window.
    pub(crate) fn dispatch_until(&mut self, end: SimTime) {
        while self.step(end) {}
    }

    /// Dispatch a single event if one is pending at or before `end`.
    /// Returns false when nothing was dispatched (empty queue, past the
    /// limit, or the world was stopped).
    fn step(&mut self, end: SimTime) -> bool {
        if self.stop {
            return false;
        }
        let Some((at, event)) = self.queue.pop_at_or_before(end) else {
            return false;
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
                    return true;
                }
                self.metrics.incr_id(metrics::NET_DELIVERED_ID);
                self.dispatch_to(to, |g, ctx, m| g.on_message(ctx, m, from, msg));
            }
            Event::Timer { actor, timer, tag } => {
                self.digest = fold_digest(self.digest, at, 2, (u64::from(actor.0) << 32) ^ tag);
                // A stale id means the timer was cancelled (or the slot
                // already consumed); firing consumes it either way.
                if self.timers.take(timer) && is_alive_idx(&self.alive, actor.index()) {
                    self.dispatch_to(actor, |g, ctx, m| g.on_timer(ctx, m, timer, tag));
                }
            }
        }
        true
    }

    /// Run until the queue drains, an actor stops the world, or virtual
    /// time would pass `limit`. Returns the virtual time reached.
    ///
    /// Unless an actor called `stop_world` (in which case time stays at
    /// the stopping event), the clock always advances to `limit` — both
    /// when events remain past it *and* when the queue drains early, so
    /// `run_until(t)` behaves like "simulate through instant `t`" rather
    /// than "stop at whatever happened last". The one exception is
    /// `limit == SimTime::MAX`, the [`World::run`] sentinel meaning "no
    /// limit", where time stays at the last dispatched event.
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        self.start_pending();
        self.dispatch_until(limit);
        debug_assert_eq!(self.clamped(), 0, "link delivered into the past");
        if !self.stop && limit != SimTime::MAX && self.now < limit {
            self.now = limit;
        }
        self.now
    }

    /// Run until the queue drains or an actor stops the world.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Queue a message that reached this world from outside it (a live
    /// worker's socket) for delivery to `to` at `at`, or now if `at` is
    /// already past.
    pub fn arrive(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: M) {
        self.queue
            .push(at.max(self.now), Event::Deliver { from, to, msg });
    }

    /// Hand every staged send to `post` as `(destination shard, from,
    /// to, msg)`: lane by lane, each in send order, delivery times
    /// dropped. Only a world from [`ShardedWorld::into_live_worlds`]
    /// stages its local sends too.
    ///
    /// [`ShardedWorld::into_live_worlds`]: crate::shard::ShardedWorld::into_live_worlds
    pub fn drain_staged(&mut self, post: impl FnMut(usize, ActorId, ActorId, M)) {
        self.outbox.drain(post);
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of timers currently armed (set but neither fired nor
    /// cancelled).
    pub fn pending_timers(&self) -> usize {
        self.timers.live
    }

    /// Size of the timer bookkeeping table: the high-water mark of
    /// *concurrently* armed timers. Stays flat under fire/cancel churn —
    /// the leak-regression tests assert on this.
    pub fn timer_slots(&self) -> usize {
        self.timers.gens.len()
    }

    /// Pre-reserve queue capacity for a run expected to hold up to
    /// `events` simultaneous pending events (purely an allocation hint;
    /// has no observable effect on scheduling).
    pub fn reserve_events(&mut self, events: usize) {
        self.queue.reserve(events);
    }

    /// Total events dispatched since construction (timers included).
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Order-sensitive digest of every event dispatched so far: identical
    /// for identical runs, and a cheap fingerprint for determinism gates.
    pub fn event_digest(&self) -> u64 {
        self.digest
    }

    /// Deliveries clamped forward so far ([`metrics::NET_CLAMPED`]).
    pub(crate) fn clamped(&self) -> u64 {
        self.metrics.counter_id(metrics::NET_CLAMPED_ID)
    }

    /// Most events that were ever pending at once (sizing diagnostics).
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::FixedLatency;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// Sends `count` pings to a target on start, one per millisecond.
    struct Pinger {
        target: ActorId,
        count: u32,
    }
    impl Actor<Ping> for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
            for i in 0..self.count {
                ctx.set_timer(SimDuration::from_millis(u64::from(i) + 1), u64::from(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn Runtime<Ping>, _from: ActorId, _msg: Ping) {}
        fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _timer: TimerId, tag: u64) {
            ctx.send(self.target, Ping(tag as u32));
        }
        impl_as_any!();
    }

    /// Records what it receives and when.
    #[derive(Default)]
    struct Sink {
        got: Vec<(u64, u32)>,
    }
    impl Actor<Ping> for Sink {
        fn on_message(&mut self, ctx: &mut dyn Runtime<Ping>, _from: ActorId, msg: Ping) {
            self.got.push((ctx.now().as_nanos(), msg.0));
        }
        impl_as_any!();
    }

    fn build(latency_ms: u64, pings: u32) -> (World<Ping>, ActorId, ActorId) {
        let mut w = World::new(
            FixedLatency::new(SimDuration::from_millis(latency_ms)),
            1234,
        );
        let sink = w.add_actor(Box::new(Sink::default()));
        let pinger = w.add_actor(Box::new(Pinger {
            target: sink,
            count: pings,
        }));
        (w, pinger, sink)
    }

    #[test]
    fn messages_arrive_after_latency_in_order() {
        let (mut w, _pinger, sink) = build(5, 3);
        w.run();
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got, vec![(6_000_000, 0), (7_000_000, 1), (8_000_000, 2)]);
        assert_eq!(w.metrics().counter(metrics::NET_SENT), 3);
        assert_eq!(w.metrics().counter(metrics::NET_DELIVERED), 3);
        assert_eq!(w.metrics().counter(metrics::NET_BYTES_SENT), 12);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let (mut w1, _, s1) = build(5, 10);
        let (mut w2, _, s2) = build(5, 10);
        w1.run();
        w2.run();
        let a: &Sink = w1.actor_as(s1).unwrap();
        let b: &Sink = w2.actor_as(s2).unwrap();
        assert_eq!(a.got, b.got);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let (mut w, _, sink) = build(5, 3);
        let reached = w.run_until(SimTime(6_500_000));
        assert_eq!(reached, SimTime(6_500_000));
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got.len(), 1, "only the first ping fits before limit");
        // Resume to completion.
        w.run();
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got.len(), 3);
    }

    #[test]
    fn run_until_advances_to_limit_when_queue_drains_early() {
        // All three pings complete by t=8ms; the clock must still report
        // the requested horizon, matching the events-remain case above.
        let (mut w, _, sink) = build(5, 3);
        let reached = w.run_until(SimTime(50_000_000));
        assert_eq!(reached, SimTime(50_000_000));
        assert_eq!(w.now(), SimTime(50_000_000));
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got.len(), 3, "queue drained before the limit");
        // run() (the MAX sentinel) keeps reporting the last event time.
        let (mut w2, _, _) = build(5, 3);
        let end = w2.run();
        assert_eq!(end, SimTime(8_000_000));
    }

    #[test]
    fn killed_actor_receives_nothing() {
        let (mut w, _, sink) = build(5, 3);
        w.kill(sink);
        w.run();
        let s: &Sink = w.actor_as(sink).unwrap();
        assert!(s.got.is_empty());
        assert_eq!(w.metrics().counter(metrics::NET_TO_DEAD), 3);
    }

    /// Logs its id on start and keeps what each member receives;
    /// hosted both as a solo actor and as a group.
    struct Probe {
        log: Arc<Mutex<Vec<u32>>>,
        got: Vec<Vec<u32>>,
    }
    impl Actor<Ping> for Probe {
        fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
            ActorGroup::on_start(self, ctx, 0)
        }
        fn on_message(&mut self, ctx: &mut dyn Runtime<Ping>, from: ActorId, msg: Ping) {
            ActorGroup::on_message(self, ctx, 0, from, msg)
        }
        impl_as_any!();
    }
    impl ActorGroup<Ping> for Probe {
        fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>, _: u32) {
            self.log.lock().unwrap().push(ctx.id().0);
        }
        fn on_message(&mut self, ctx: &mut dyn Runtime<Ping>, m: u32, _: ActorId, msg: Ping) {
            assert_eq!(ctx.id().0, msg.0, "member {m} ran under another id");
            self.got[m as usize].push(msg.0);
        }
        fn member_as_any(&self, m: u32) -> &dyn Any {
            &self.got[m as usize]
        }
    }

    #[test]
    fn solo_actors_and_groups_share_one_dense_id_space() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let probe = |k: usize| {
            Box::new(Probe {
                log: Arc::clone(&log),
                got: vec![Vec::new(); k],
            })
        };
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 3);
        let ids = [
            w.add_actor(probe(1)),
            w.add_group(3, probe(3)),
            w.add_group(0, probe(0)),
            w.add_actor(probe(1)),
        ];
        // Dense ids; the empty group takes none.
        assert_eq!(ids.map(|id| id.0), [0, 1, 4, 4]);
        assert_eq!(w.actor_count(), 5);
        for to in 0..5 {
            w.arrive(SimTime::ZERO, ids[0], ActorId(to), Ping(to));
        }
        w.run();
        // `on_start` ran in id order.
        assert_eq!(*log.lock().unwrap(), [0, 1, 2, 3, 4]);
        for id in [0, 4] {
            assert_eq!(w.actor_as::<Probe>(ActorId(id)).unwrap().got, [[id]]);
        }
        for id in 1..4 {
            assert_eq!(*w.actor_as::<Vec<u32>>(ActorId(id)).unwrap(), [id]);
        }
        for id in [5, 6, u32::MAX] {
            assert!(w.actor_any(ActorId(id)).is_none(), "id {id} resolved");
        }
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Canceller {
            fired: bool,
        }
        impl Actor<Ping> for Canceller {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                let t = ctx.set_timer(SimDuration::from_millis(1), 7);
                ctx.cancel_timer(t);
                ctx.set_timer(SimDuration::from_millis(2), 8);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, _: &mut dyn Runtime<Ping>, _: TimerId, tag: u64) {
                assert_eq!(tag, 8, "cancelled timer fired");
                self.fired = true;
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 9);
        let id = w.add_actor(Box::new(Canceller { fired: false }));
        w.run();
        assert!(w.actor_as::<Canceller>(id).unwrap().fired);
    }

    #[test]
    fn cancel_after_fire_leaks_no_bookkeeping() {
        // Each tick cancels the timer that *already fired* last tick —
        // the exact race that leaked a `cancelled`-set entry per cancel
        // under the old tombstone HashSet. With the generation-stamped
        // table the stale cancel is a no-op and the single slot is
        // reused for all 200 timers.
        struct PostFireCanceller {
            prev: Option<TimerId>,
            fired: u32,
        }
        impl Actor<Ping> for PostFireCanceller {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, timer: TimerId, tag: u64) {
                if let Some(p) = self.prev.take() {
                    ctx.cancel_timer(p); // fired a whole tick ago
                }
                ctx.cancel_timer(timer); // fired just now
                self.fired += 1;
                if tag < 199 {
                    let next = ctx.set_timer(SimDuration::from_millis(1), tag + 1);
                    self.prev = Some(next);
                }
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 5);
        let id = w.add_actor(Box::new(PostFireCanceller {
            prev: None,
            fired: 0,
        }));
        w.run();
        assert_eq!(w.actor_as::<PostFireCanceller>(id).unwrap().fired, 200);
        assert_eq!(w.pending_timers(), 0);
        assert_eq!(
            w.timer_slots(),
            1,
            "post-fire cancels must not grow timer bookkeeping"
        );
    }

    #[test]
    fn reused_timer_slots_still_give_unique_ids() {
        // Fire-then-rearm reuses the same slot; the generation stamp
        // must still make every armed id distinct from its predecessor,
        // so actors comparing stored ids by equality never confuse two
        // timers.
        struct Rearm {
            seen: Vec<TimerId>,
        }
        impl Actor<Ping> for Rearm {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, timer: TimerId, tag: u64) {
                self.seen.push(timer);
                if tag < 9 {
                    ctx.set_timer(SimDuration::from_millis(1), tag + 1);
                }
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 5);
        let id = w.add_actor(Box::new(Rearm { seen: Vec::new() }));
        w.run();
        let seen = &w.actor_as::<Rearm>(id).unwrap().seen;
        assert_eq!(seen.len(), 10);
        let mut dedup = seen.clone();
        dedup.sort_by_key(|t| t.0);
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "timer ids must be unique across reuse");
        assert_eq!(w.timer_slots(), 1, "all ten timers shared one slot");
    }

    #[test]
    fn stop_world_halts_immediately() {
        struct Stopper;
        impl Actor<Ping> for Stopper {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _: TimerId, tag: u64) {
                assert_eq!(tag, 0, "ran past stop_world");
                ctx.stop_world();
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 9);
        w.add_actor(Box::new(Stopper));
        w.run();
        assert_eq!(w.pending_events(), 1, "second timer left undispatched");
    }

    #[test]
    fn sim_time_never_goes_backwards() {
        struct Clocked {
            last: SimTime,
        }
        impl Actor<Ping> for Clocked {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                for i in 0..100 {
                    let us = ctx.rng().gen_range(1, 1000);
                    ctx.set_timer(SimDuration::from_micros(us), i);
                }
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _: TimerId, _: u64) {
                assert!(ctx.now() >= self.last);
                self.last = ctx.now();
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 77);
        w.add_actor(Box::new(Clocked {
            last: SimTime::ZERO,
        }));
        w.run();
    }
}
