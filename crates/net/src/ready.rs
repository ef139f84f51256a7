//! Cooperative ready-queue scheduler: every peer is a state-machine
//! *task* with a mailbox, not an OS thread.
//!
//! The shape is the classic actor scheduler: a task is IDLE until a
//! message lands in its mailbox or one of its timers fires, at which
//! point it is enqueued on a shared ready queue (enqueue-once — a task
//! appears at most once no matter how many events arrive). Worker
//! threads pop tasks and run them for a bounded step budget
//! ([`STEP_BUDGET`] events), then yield the task back: either to IDLE
//! (drained) or straight back onto the queue (more work pending). This
//! is what lets one box host thousands of live peers — the thread count
//! is the worker pool size, not the peer count.
//!
//! A mailbox holds *frames*, not messages: the poll thread appends each
//! bundle record's still-encoded frame to the destination task's
//! [`Mailbox`]. The worker that steps the task moves up to the rest of
//! the step budget of them out under **one** lock, then decodes each
//! right before the handler runs — through the worker's
//! [`FanoutDecoder`], so a fan-out's shared control body is parsed once
//! per worker, not once per recipient. Work that arrives during the
//! step raises the task's `RUNNING_DIRTY` edge, so no second look at
//! the mailbox is needed to know whether to requeue. Every per-message
//! allocation (the decoded view, the control body, the packet payload)
//! is made and freed by the same worker thread — allocator fast path,
//! no cross-thread frees — and the poll thread allocates nothing per
//! datagram. Each task also owns the [`ViewReassembler`] for the deltas
//! addressed to it.
//!
//! Outbound messages are not sent inline: each `Runtime::send` appends
//! to a per-run outbox which the worker posts once per task step to an
//! [`OutboxSink`]. The sink may hold them back — on the live plane it
//! packs them into datagram bundles (see [`crate::live`]) that outlive
//! the step — under one rule, kept by [`Scheduler::run_worker`]: a
//! worker takes its next task with a non-blocking pop, and when that
//! comes back empty it flushes the sink *before* it blocks. Nothing
//! waits in a buffer while its worker sleeps; what a held-back message
//! waits for is the tasks that were ready alongside its sender.
//!
//! Timers live in one shared min-heap ([`TimerService`]) drained by the
//! poll thread; per-task generation-stamped [`TimerSlots`] give
//! `cancel_timer` exact take-semantics (no tombstone growth), the same
//! scheme as the simulator's `TimerTable`.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mss_core::msg::Msg;
use mss_sim::event::{ActorId, TimerId};
use mss_sim::metrics::{self, Metrics};
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::{Actor, Runtime, SimMessage};

use crate::codec::FanoutDecoder;
use crate::names;
use crate::runtime::SessionControl;
use crate::sys::EventFd;
use crate::views::ViewReassembler;

/// Events (messages + timers) one task may process per scheduling turn
/// before it must yield the worker to other ready tasks.
pub(crate) const STEP_BUDGET: usize = 64;

// Task scheduling states (one AtomicU8 per task).
const IDLE: u8 = 0; // no pending work, not queued
const QUEUED: u8 = 1; // on the ready queue
const RUNNING: u8 = 2; // a worker is stepping it
const RUNNING_DIRTY: u8 = 3; // running, and new work arrived meanwhile

/// The mutable half of a task a worker needs exclusive access to while
/// stepping it. Kept in one mutex so the poll thread never contends on
/// it (the poll thread only touches `mailbox`/`due`).
struct TaskBody {
    actor: Box<dyn Actor<Msg>>,
    rng: SimRng,
    timers: TimerSlots,
    started: bool,
    /// Snapshots for the delta piggybacks addressed to this task.
    views: ViewReassembler,
}

/// A task's inbound queue: encoded frames back to back, each behind a
/// `u32` length prefix, in one byte buffer that keeps its capacity.
/// Draining the last frame resets the buffer to its start, so a task
/// that keeps up never grows it past one burst.
#[derive(Default)]
struct Mailbox {
    buf: Vec<u8>,
    /// Offset of the oldest unread frame's length prefix.
    head: usize,
    /// Unread frames.
    depth: usize,
}

impl Mailbox {
    /// Consumed prefix beyond which a never-empty mailbox is compacted
    /// (once the prefix also outweighs the unread remainder, so the
    /// copy is amortized).
    const COMPACT_MIN: usize = 64 * 1024;

    /// Append one frame; returns the depth in messages after the push.
    fn push(&mut self, frame: &[u8]) -> usize {
        if self.head >= Mailbox::COMPACT_MIN && self.head >= self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(frame);
        self.depth += 1;
        self.depth
    }

    /// Move up to `max` of the oldest frames, still length-prefixed, to
    /// the end of `out`; returns whether frames remain.
    fn pop_batch(&mut self, max: usize, out: &mut Vec<u8>) -> bool {
        let take = max.min(self.depth);
        let mut end = self.head;
        for _ in 0..take {
            let len = u32::from_le_bytes(self.buf[end..end + 4].try_into().expect("4 bytes"));
            end += 4 + len as usize;
        }
        out.extend_from_slice(&self.buf[self.head..end]);
        self.depth -= take;
        if self.depth == 0 {
            self.buf.clear();
            self.head = 0;
        } else {
            self.head = end;
        }
        self.depth > 0
    }
}

/// The frames of a [`Mailbox::pop_batch`], in order.
fn popped_frames(mut rest: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (len, tail) = rest.split_first_chunk::<4>()?;
        let (frame, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
        rest = tail;
        Some(frame)
    })
}

/// Per-worker scratch a task step runs through; reused across steps so
/// the steady state allocates nothing here.
pub(crate) struct StepScratch {
    /// Outbound messages of the current step, posted to the sink as one.
    outbox: Vec<(ActorId, Msg)>,
    /// The frames popped for the current step.
    frames: Vec<u8>,
    /// The worker's decoder, with its table of held fan-out bodies.
    decoder: FanoutDecoder,
}

impl StepScratch {
    /// Scratch for a worker stepping the tasks `0..tasks`.
    pub(crate) fn new(tasks: usize) -> StepScratch {
        StepScratch {
            outbox: Vec::new(),
            frames: Vec::new(),
            decoder: FanoutDecoder::new(tasks),
        }
    }
}

/// One peer task.
struct TaskCell {
    state: AtomicU8,
    /// Inbound frames, appended by the poll thread.
    mailbox: Mutex<Mailbox>,
    /// Timers that reached their deadline, pushed by the poll thread;
    /// generation-checked against [`TimerSlots`] when the task runs.
    due: Mutex<Vec<(TimerId, u64)>>,
    body: Mutex<Option<TaskBody>>,
}

impl TaskCell {
    /// Record that new work exists; returns true when the caller must
    /// push the task onto the ready queue (IDLE → QUEUED edge).
    fn notify(&self) -> bool {
        loop {
            match self.state.compare_exchange_weak(
                IDLE,
                QUEUED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(QUEUED) | Err(RUNNING_DIRTY) => return false,
                Err(RUNNING) => {
                    if self
                        .state
                        .compare_exchange_weak(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return false;
                    }
                }
                Err(_) => std::hint::spin_loop(),
            }
        }
    }
}

/// Generation-stamped per-task timer slots: a [`TimerId`] packs
/// `slot << 32 | generation`, so cancel/fire of a stale id is a cheap
/// mismatch instead of a tombstone that must be remembered forever.
#[derive(Default)]
pub(crate) struct TimerSlots {
    gens: Vec<u32>,
    live: Vec<bool>,
    free: Vec<u32>,
}

impl TimerSlots {
    /// Claim a slot for a newly armed timer.
    pub(crate) fn arm(&mut self) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.gens.push(0);
            self.live.push(false);
            (self.gens.len() - 1) as u32
        }) as usize;
        self.live[slot] = true;
        TimerId(((slot as u64) << 32) | u64::from(self.gens[slot]))
    }

    /// Consume a timer id (cancel or fire). True exactly once per armed
    /// id: stale/double takes return false.
    pub(crate) fn take(&mut self, t: TimerId) -> bool {
        let slot = (t.0 >> 32) as usize;
        let gen = t.0 as u32;
        if self.live.get(slot).copied() == Some(true) && self.gens[slot] == gen {
            self.live[slot] = false;
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot as u32);
            true
        } else {
            false
        }
    }
}

/// One pending timer in the [`TimerService`] min-heap:
/// `(deadline_nanos, task, timer, tag)` under `Reverse` ordering.
type TimerEntry = std::cmp::Reverse<(u64, u32, u64, u64)>;

/// A watched task: `(task index, completion predicate)`; the predicate
/// raising true signals session done.
pub(crate) type Watch = (u32, Box<crate::runtime::WatchFn>);

/// The session-wide timer plane: one min-heap of
/// `(deadline_nanos, task, timer, tag)` drained by the poll thread,
/// with an eventfd wake so arming an *earlier* deadline interrupts the
/// poller's sleep.
pub(crate) struct TimerService {
    heap: Mutex<BinaryHeap<TimerEntry>>,
    /// The deadline the poller is currently sleeping toward
    /// (`u64::MAX` = no timers, 0 = poller awake and recomputing).
    next_wake: AtomicU64,
    wake: EventFd,
}

impl TimerService {
    fn new() -> std::io::Result<TimerService> {
        Ok(TimerService {
            heap: Mutex::new(BinaryHeap::new()),
            next_wake: AtomicU64::new(0),
            wake: EventFd::new()?,
        })
    }

    /// Register a timer; wakes the poller when this deadline precedes
    /// the one it is sleeping toward.
    fn arm(&self, deadline: u64, task: u32, timer: TimerId, tag: u64) {
        self.heap
            .lock()
            .expect("timer heap poisoned")
            .push(std::cmp::Reverse((deadline, task, timer.0, tag)));
        if deadline < self.next_wake.load(Ordering::Acquire) {
            self.wake.signal();
        }
    }

    /// Pop every deadline `<= now` into `out`; returns the next pending
    /// deadline, if any. Poll-thread only.
    fn pop_due(&self, now: u64, out: &mut Vec<(u32, TimerId, u64)>) -> Option<u64> {
        let mut heap = self.heap.lock().expect("timer heap poisoned");
        while let Some(std::cmp::Reverse((d, task, timer, tag))) = heap.peek().copied() {
            if d > now {
                return Some(d);
            }
            heap.pop();
            out.push((task, TimerId(timer), tag));
        }
        None
    }

    /// Publish the deadline the poller is about to sleep toward, then
    /// re-check the heap: an `arm` racing between the heap read and
    /// this store saw the stale `next_wake` and may not have signaled,
    /// so a now-earlier head means "don't sleep, recompute".
    fn publish_sleep(&self, target: u64) -> bool {
        self.next_wake.store(target, Ordering::Release);
        let heap = self.heap.lock().expect("timer heap poisoned");
        match heap.peek() {
            Some(std::cmp::Reverse((d, ..))) => *d >= target,
            None => true,
        }
    }

    /// Mark the poller awake (arms stop signaling). `woken` says the
    /// last `epoll_wait` reported the wake fd readable: only then is
    /// there a count to drain — an unconditional `read` is a syscall per
    /// loop iteration that almost always returns `EAGAIN`. A signal that
    /// lands after that `epoll_wait` returned is not lost: the fd is
    /// level-triggered, so the next wait reports it at once.
    fn mark_awake(&self, woken: bool) {
        self.next_wake.store(0, Ordering::Release);
        if woken {
            self.wake.drain();
        }
    }

    pub(crate) fn wake_fd(&self) -> &EventFd {
        &self.wake
    }
}

/// Where a task step's outbound messages go. The live plane encodes
/// them into datagram bundles and `sendmmsg`-bursts those; tests
/// substitute their own.
pub(crate) trait OutboxSink {
    /// Accept every `(to, msg)` pair of one task step, draining `out`.
    /// The sink may hold them back until [`OutboxSink::flush`].
    fn post(&mut self, from: ActorId, out: &mut Vec<(ActorId, Msg)>, metrics: &mut Metrics);

    /// Put everything held back on the wire. [`Scheduler::run_worker`]
    /// calls this whenever the worker is about to block.
    fn flush(&mut self, metrics: &mut Metrics);
}

/// The blocking ready queue shared by all workers.
struct ReadyQueue {
    q: Mutex<VecDeque<u32>>,
    cv: Condvar,
}

/// The scheduler: task table + ready queue + timer plane for one live
/// session. Shared by the poll thread and every worker via `Arc`.
pub(crate) struct Scheduler {
    cells: Vec<TaskCell>,
    queue: ReadyQueue,
    pub(crate) timers: TimerService,
    epoch: Instant,
    /// Completion predicate for one watched task (the leaf).
    watch: Option<Watch>,
    ctl: Arc<SessionControl>,
}

/// The [`Runtime`] a task sees while being stepped: sends buffer into
/// the worker's outbox, timers go to the shared [`TimerService`].
struct RqRuntime<'a> {
    me: ActorId,
    task: u32,
    epoch: Instant,
    n_actors: usize,
    outbox: &'a mut Vec<(ActorId, Msg)>,
    timers: &'a mut TimerSlots,
    svc: &'a TimerService,
    rng: &'a mut SimRng,
    metrics: &'a mut Metrics,
}

impl Runtime<Msg> for RqRuntime<'_> {
    fn id(&self) -> ActorId {
        self.me
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    fn actor_count(&self) -> usize {
        self.n_actors
    }

    fn is_alive(&self, _actor: ActorId) -> bool {
        true // live runtimes have no failure oracle
    }

    fn send(&mut self, to: ActorId, msg: Msg) {
        self.metrics.incr_id(metrics::NET_SENT_ID);
        self.metrics
            .add_id(metrics::NET_BYTES_SENT_ID, msg.wire_size() as u64);
        self.outbox.push((to, msg));
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let deadline = self.now().as_nanos().saturating_add(delay.as_nanos());
        let id = self.timers.arm();
        self.svc.arm(deadline, self.task, id, tag);
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.take(timer);
    }

    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    fn send_batch(&mut self, batch: &mut Vec<(ActorId, Msg)>) {
        // One counter pass for the whole fan-out; the actual wire burst
        // happens when the worker flushes the outbox after this step.
        let mut bytes = 0u64;
        for (_, msg) in batch.iter() {
            bytes += msg.wire_size() as u64;
        }
        self.metrics
            .add_id(metrics::NET_SENT_ID, batch.len() as u64);
        self.metrics.add_id(metrics::NET_BYTES_SENT_ID, bytes);
        self.outbox.append(batch);
    }
}

impl Scheduler {
    /// Build the task table. `actors[i]` becomes task `i` with actor id
    /// `ActorId(i)` and its own RNG stream forked from `seed`.
    pub(crate) fn new(
        actors: Vec<Box<dyn Actor<Msg>>>,
        seed: u64,
        epoch: Instant,
        ctl: Arc<SessionControl>,
        watch: Option<Watch>,
    ) -> std::io::Result<Scheduler> {
        let cells = actors
            .into_iter()
            .enumerate()
            .map(|(i, actor)| TaskCell {
                state: AtomicU8::new(IDLE),
                mailbox: Mutex::new(Mailbox::default()),
                due: Mutex::new(Vec::new()),
                body: Mutex::new(Some(TaskBody {
                    actor,
                    rng: SimRng::new(seed).fork(0x4E45_5452_544D ^ (i as u64)),
                    timers: TimerSlots::default(),
                    started: false,
                    views: ViewReassembler::new(),
                })),
            })
            .collect();
        Ok(Scheduler {
            cells,
            queue: ReadyQueue {
                q: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            timers: TimerService::new()?,
            epoch,
            watch,
            ctl,
        })
    }

    pub(crate) fn task_count(&self) -> usize {
        self.cells.len()
    }

    /// Nanoseconds since the session epoch.
    pub(crate) fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Put `task` on the ready queue if it is not already scheduled.
    pub(crate) fn schedule(&self, task: u32) {
        if self.cells[task as usize].notify() {
            self.queue
                .q
                .lock()
                .expect("ready queue poisoned")
                .push_back(task);
            self.queue.cv.notify_one();
        }
    }

    /// Enqueue every task once so `on_start` runs.
    pub(crate) fn seed_all(&self) {
        for t in 0..self.cells.len() as u32 {
            self.schedule(t);
        }
    }

    /// Append one encoded frame (`[from][kind][body]`, routing prefix
    /// already stripped) to `task`'s mailbox and schedule it. Returns
    /// the mailbox depth in messages after the push (for high-water
    /// stats); 0 for an unknown task.
    pub(crate) fn deliver_frame(&self, task: u32, frame: &[u8]) -> usize {
        let Some(cell) = self.cells.get(task as usize) else {
            return 0;
        };
        let depth = cell.mailbox.lock().expect("mailbox poisoned").push(frame);
        self.schedule(task);
        depth
    }

    /// [`Scheduler::deliver_frame`] for a message in hand: encode, then
    /// deliver the frame.
    #[cfg(test)]
    pub(crate) fn deliver(&self, task: u32, from: ActorId, msg: Msg) -> usize {
        self.deliver_frame(task, &crate::codec::encode(from, &msg))
    }

    /// Poll-thread timer pump: move every due timer into its task's due
    /// list and schedule the task. Returns the next pending deadline.
    pub(crate) fn fire_due(&self, now: u64, scratch: &mut Vec<(u32, TimerId, u64)>) -> Option<u64> {
        scratch.clear();
        let next = self.timers.pop_due(now, scratch);
        for &(task, timer, tag) in scratch.iter() {
            if let Some(cell) = self.cells.get(task as usize) {
                cell.due
                    .lock()
                    .expect("due list poisoned")
                    .push((timer, tag));
                self.schedule(task);
            }
        }
        next
    }

    /// See [`TimerService::publish_sleep`]: false means "recompute, do
    /// not sleep".
    pub(crate) fn publish_sleep(&self, target: u64) -> bool {
        self.timers.publish_sleep(target)
    }

    /// See [`TimerService::mark_awake`].
    pub(crate) fn mark_awake(&self, woken: bool) {
        self.timers.mark_awake(woken);
    }

    /// One worker's whole life: step ready tasks through `sink` until
    /// the session stops. The flush rule lives here — the sink is
    /// flushed whenever the ready queue comes up empty, before the
    /// worker blocks on it (and so also on the way out at shutdown).
    /// On exit it records its busy time and its decoder's counts.
    pub(crate) fn run_worker(&self, sink: &mut dyn OutboxSink, metrics: &mut Metrics) {
        let mut scratch = StepScratch::new(self.cells.len());
        let mut busy = Duration::ZERO;
        while let Some(task) = self.try_next_task().or_else(|| {
            sink.flush(metrics);
            self.next_task()
        }) {
            let started = Instant::now();
            self.run_step(task, sink, metrics, &mut scratch);
            busy += started.elapsed();
        }
        metrics.add_id(names::worker_busy_ns_id(), busy.as_nanos() as u64);
        metrics.add_id(names::rx_bodies_shared_id(), scratch.decoder.shared());
        metrics.add_id(names::rx_bodies_held_id(), scratch.decoder.held() as u64);
    }

    /// Worker-side non-blocking pop: `None` when nothing is ready right
    /// now or the session stopped.
    pub(crate) fn try_next_task(&self) -> Option<u32> {
        if self.ctl.should_stop() {
            return None;
        }
        self.queue
            .q
            .lock()
            .expect("ready queue poisoned")
            .pop_front()
    }

    /// Worker-side blocking pop. Returns `None` once the session stops.
    pub(crate) fn next_task(&self) -> Option<u32> {
        let mut q = self.queue.q.lock().expect("ready queue poisoned");
        loop {
            if self.ctl.should_stop() {
                return None;
            }
            if let Some(t) = q.pop_front() {
                return Some(t);
            }
            // Short wait + recheck keeps shutdown responsive without a
            // second wake channel.
            let (guard, _) = self
                .queue
                .cv
                .wait_timeout(q, Duration::from_millis(10))
                .expect("ready queue poisoned");
            q = guard;
        }
    }

    /// Wake every worker blocked in [`Scheduler::next_task`] (shutdown).
    pub(crate) fn wake_workers(&self) {
        self.queue.cv.notify_all();
    }

    /// Run one scheduling turn of `task`: fire its due timers, pop up to
    /// the rest of [`STEP_BUDGET`] mailbox frames under one lock, decode
    /// and handle them, post the outbox to `sink`, then yield (back to
    /// IDLE, or re-queued when work remains). Returns the number of
    /// events processed.
    pub(crate) fn run_step(
        &self,
        task: u32,
        sink: &mut dyn OutboxSink,
        metrics: &mut Metrics,
        scratch: &mut StepScratch,
    ) -> usize {
        let cell = &self.cells[task as usize];
        cell.state.store(RUNNING, Ordering::Release);

        let StepScratch {
            outbox,
            frames,
            decoder,
        } = scratch;
        let me = ActorId(task);
        let n_actors = self.cells.len();
        let mut events = 0usize;
        let more = {
            let mut body_slot = cell.body.lock().expect("task body poisoned");
            let body = body_slot.as_mut().expect("task body taken mid-session");
            let TaskBody {
                actor,
                rng,
                timers,
                started,
                views,
            } = body;

            macro_rules! rt {
                () => {
                    RqRuntime {
                        me,
                        task,
                        epoch: self.epoch,
                        n_actors,
                        outbox: &mut *outbox,
                        timers: &mut *timers,
                        svc: &self.timers,
                        rng: &mut *rng,
                        metrics: &mut *metrics,
                    }
                };
            }

            if !*started {
                *started = true;
                actor.on_start(&mut rt!());
                events += 1;
            }

            // Due timers first (they are few; all of them count against
            // the budget but are never deferred — a deferred deadline
            // would just re-fire immediately anyway).
            let due: Vec<(TimerId, u64)> =
                std::mem::take(&mut *cell.due.lock().expect("due list poisoned"));
            for (tid, tag) in due {
                if timers.take(tid) {
                    actor.on_timer(&mut rt!(), tid, tag);
                    events += 1;
                }
            }

            // Mailbox, up to the step budget, popped under one lock. Each
            // message is decoded here, handled, and dropped — all on this
            // thread.
            frames.clear();
            let more = cell
                .mailbox
                .lock()
                .expect("mailbox poisoned")
                .pop_batch(STEP_BUDGET.saturating_sub(events), frames);
            for frame in popped_frames(frames) {
                events += 1;
                let Ok((from, mut msg)) = decoder.decode(frame) else {
                    metrics.incr_id(names::rx_decode_err_id());
                    continue;
                };
                if let Msg::Control(c) = &mut msg {
                    views.resolve(from, c);
                }
                let sent_before = outbox.len();
                actor.on_message(&mut rt!(), from, msg);
                for (to, sent) in &outbox[sent_before..] {
                    views.observe_sent(*to, sent);
                }
            }

            if let Some((watched, pred)) = &self.watch {
                if *watched == task && events > 0 && pred(actor.as_ref()) {
                    self.ctl.signal_done();
                }
            }
            more
        };

        if !outbox.is_empty() {
            sink.post(me, outbox, metrics);
        }

        // Yield: straight back on the queue when the pop left frames
        // behind; otherwise IDLE, unless frames or timers arrived since
        // the step began (RUNNING_DIRTY).
        if more {
            cell.state.store(QUEUED, Ordering::Release);
            self.queue
                .q
                .lock()
                .expect("ready queue poisoned")
                .push_back(task);
            self.queue.cv.notify_one();
        } else if cell
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // New work arrived while running (RUNNING_DIRTY): requeue.
            cell.state.store(QUEUED, Ordering::Release);
            self.queue
                .q
                .lock()
                .expect("ready queue poisoned")
                .push_back(task);
            self.queue.cv.notify_one();
        }
        events
    }

    /// `(fallbacks, tracked edges)` of every task's [`ViewReassembler`],
    /// summed — read after shutdown, before the actors are taken.
    pub(crate) fn view_totals(&self) -> (u64, usize) {
        self.cells.iter().fold((0, 0), |(f, t), cell| {
            match cell.body.lock().expect("task body poisoned").as_ref() {
                Some(b) => (f + b.views.fallbacks(), t + b.views.tracked_edges()),
                None => (f, t),
            }
        })
    }

    /// Remove a task's actor after shutdown (for report extraction).
    pub(crate) fn take_actor(&self, task: u32) -> Option<Box<dyn Actor<Msg>>> {
        self.cells
            .get(task as usize)?
            .body
            .lock()
            .expect("task body poisoned")
            .take()
            .map(|b| b.actor)
    }
}

/// Test doubles shared with the live plane's tests.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Sink that drops everything.
    pub(crate) struct NullSink;
    impl OutboxSink for NullSink {
        fn post(&mut self, _f: ActorId, out: &mut Vec<(ActorId, Msg)>, _m: &mut Metrics) {
            out.clear();
        }
        fn flush(&mut self, _m: &mut Metrics) {}
    }

    /// An accepting probe reply of the given wave.
    pub(crate) fn reply(wave: u32) -> Msg {
        Msg::Reply(mss_core::msg::ProbeReply {
            from: mss_overlay::PeerId(0),
            accept: true,
            wave,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{reply, NullSink};
    use super::*;
    use mss_sim::impl_as_any;

    #[test]
    fn timer_slots_take_exactly_once() {
        let mut s = TimerSlots::default();
        let a = s.arm();
        let b = s.arm();
        assert!(s.take(a));
        assert!(!s.take(a), "double take must miss");
        let c = s.arm(); // reuses a's slot with a bumped generation
        assert!(s.take(b));
        assert!(s.take(c));
        assert!(!s.take(a), "stale generation must miss");
    }

    /// Frames come out in push order, whole and at most `max` per pop,
    /// across both buffer resets: the clear when the last frame is
    /// drained and the compaction of a mailbox that never runs empty.
    #[test]
    fn mailbox_is_fifo_across_resets() {
        let mut mb = Mailbox::default();
        let mut out = Vec::new();
        let frame = |i: u32| -> Vec<u8> {
            let len = 1 + (i as usize * 7) % 40;
            i.to_le_bytes().iter().copied().cycle().take(len).collect()
        };
        let (mut pushed, mut popped) = (0u32, 0u32);
        // Pop up to `max` frames; check them and whether any remain.
        let mut pop = |mb: &mut Mailbox, max: usize, popped: &mut u32| {
            out.clear();
            let more = mb.pop_batch(max, &mut out);
            let got: Vec<&[u8]> = popped_frames(&out).collect();
            assert_eq!(got.len(), max.min(got.len() + mb.depth));
            for f in got {
                assert_eq!(f, frame(*popped));
                *popped += 1;
            }
            assert_eq!(more, mb.depth > 0);
            more
        };
        // Drain-to-empty rounds: the buffer restarts at offset 0.
        for round in 1..=5u32 {
            for _ in 0..round * 3 {
                assert_eq!(mb.push(&frame(pushed)), (pushed - popped + 1) as usize);
                pushed += 1;
            }
            while pop(&mut mb, round as usize, &mut popped) {}
            assert_eq!((mb.head, mb.buf.len(), mb.depth), (0, 0, 0));
        }
        assert_eq!(popped, pushed);
        // Never-empty regime: three in, two out, until the consumed
        // prefix has been compacted away at least once.
        let mut compacted = false;
        while !compacted || pushed < 50_000 {
            let head_before = mb.head;
            for _ in 0..3 {
                mb.push(&frame(pushed));
                pushed += 1;
            }
            compacted |= mb.head < head_before;
            assert!(pop(&mut mb, 2, &mut popped));
        }
        assert_eq!(mb.depth, (pushed - popped) as usize);
        while pop(&mut mb, STEP_BUDGET, &mut popped) {}
        assert_eq!(popped, pushed);
        assert!(!pop(&mut mb, STEP_BUDGET, &mut popped));
        assert!(out.is_empty(), "empty mailbox pops nothing");
    }

    /// An actor that counts everything and records message order.
    #[derive(Default)]
    struct Echo {
        waves: Vec<u32>,
        timers: usize,
    }
    impl Actor<Msg> for Echo {
        fn on_start(&mut self, rt: &mut dyn Runtime<Msg>) {
            rt.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, _rt: &mut dyn Runtime<Msg>, _from: ActorId, msg: Msg) {
            if let Msg::Reply(r) = msg {
                self.waves.push(r.wave);
            }
        }
        fn on_timer(&mut self, _rt: &mut dyn Runtime<Msg>, _t: TimerId, tag: u64) {
            assert_eq!(tag, 7);
            self.timers += 1;
        }
        impl_as_any!();
    }

    /// One started Echo task, its `on_start` turn already run.
    fn echo_scheduler() -> Scheduler {
        let sched = Scheduler::new(
            vec![Box::new(Echo::default())],
            1,
            Instant::now(),
            Arc::new(SessionControl::new()),
            None,
        )
        .unwrap();
        sched.seed_all();
        let t = sched.next_task().unwrap();
        sched.run_step(
            t,
            &mut NullSink,
            &mut Metrics::new(),
            &mut StepScratch::new(1),
        );
        sched
    }

    fn echo_of(sched: &Scheduler) -> Echo {
        let actor = sched.take_actor(0).unwrap();
        let echo: &Echo = actor.as_any().downcast_ref().unwrap();
        Echo {
            waves: echo.waves.clone(),
            timers: echo.timers,
        }
    }

    #[test]
    fn mailbox_and_timers_drive_a_task() {
        let sched = echo_scheduler();
        let mut m = Metrics::new();
        let mut scratch = StepScratch::new(1);

        // Deliver two messages; the task must be scheduled exactly once,
        // and the depth is reported in messages.
        assert_eq!(sched.deliver(0, ActorId(0), reply(1)), 1);
        assert_eq!(sched.deliver(0, ActorId(0), reply(2)), 2);
        let t = sched.next_task().unwrap();
        assert_eq!(sched.run_step(t, &mut NullSink, &mut m, &mut scratch), 2);

        // Pump the timer plane past the deadline.
        std::thread::sleep(Duration::from_millis(3));
        let mut due = Vec::new();
        sched.fire_due(sched.now(), &mut due);
        let t = sched.next_task().unwrap();
        sched.run_step(t, &mut NullSink, &mut m, &mut scratch);

        let echo = echo_of(&sched);
        assert_eq!(echo.waves, [1, 2]);
        assert_eq!(echo.timers, 1);
    }

    #[test]
    fn step_budget_leaves_the_remainder_queued_and_the_task_requeued() {
        let sched = echo_scheduler();
        let mut m = Metrics::new();
        let mut scratch = StepScratch::new(1);
        let total = STEP_BUDGET as u32 + 10;
        for w in 0..total {
            assert_eq!(sched.deliver(0, ActorId(0), reply(w)), w as usize + 1);
        }
        let t = sched.next_task().unwrap();
        assert_eq!(
            sched.run_step(t, &mut NullSink, &mut m, &mut scratch),
            STEP_BUDGET
        );
        // The remainder is still in the mailbox and the task went
        // straight back on the ready queue without a new delivery.
        assert_eq!(sched.cells[0].mailbox.lock().unwrap().depth, 10);
        let t = sched.next_task().unwrap();
        assert_eq!(sched.run_step(t, &mut NullSink, &mut m, &mut scratch), 10);
        assert_eq!(sched.cells[0].state.load(Ordering::Acquire), IDLE);
        assert_eq!(echo_of(&sched).waves, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_frames_are_counted_and_skipped() {
        let sched = echo_scheduler();
        let mut m = Metrics::new();
        let mut scratch = StepScratch::new(1);
        let good = crate::codec::encode(ActorId(0), &reply(5));
        sched.deliver_frame(0, &good[..good.len() - 3]); // truncated body
        sched.deliver_frame(0, &[1, 0, 0, 0, 0xEE]); // unknown kind tag
        sched.deliver_frame(0, &[]); // not even a header
        sched.deliver_frame(0, &good);
        let t = sched.next_task().unwrap();
        assert_eq!(sched.run_step(t, &mut NullSink, &mut m, &mut scratch), 4);
        assert_eq!(m.counter(names::RX_DECODE_ERR), 3);
        assert_eq!(echo_of(&sched).waves, [5], "the good frame still lands");
    }

    /// Sink standing in for the wire: `post` holds every message back,
    /// `flush` releases what is held onto a channel.
    struct HoldingSink {
        held: usize,
        wire: std::sync::mpsc::Sender<usize>,
    }
    impl OutboxSink for HoldingSink {
        fn post(&mut self, _f: ActorId, out: &mut Vec<(ActorId, Msg)>, _m: &mut Metrics) {
            self.held += out.drain(..).count();
        }
        fn flush(&mut self, _m: &mut Metrics) {
            if self.held > 0 {
                self.wire.send(self.held).expect("test still listening");
                self.held = 0;
            }
        }
    }

    /// Sends one message when started, then nothing.
    struct Shouter;
    impl Actor<Msg> for Shouter {
        fn on_start(&mut self, rt: &mut dyn Runtime<Msg>) {
            rt.send(ActorId(0), reply(9));
        }
        fn on_message(&mut self, _rt: &mut dyn Runtime<Msg>, _from: ActorId, _msg: Msg) {}
        impl_as_any!();
    }

    /// The flush rule: the only ready task sends one frame; its worker
    /// then finds the queue empty and must flush before it blocks, so
    /// the frame is on the wire while the session is still running — not
    /// at the next send, not at shutdown.
    #[test]
    fn a_lone_frame_is_on_the_wire_before_the_worker_blocks() {
        let ctl = Arc::new(SessionControl::new());
        let sched = Scheduler::new(
            vec![Box::new(Shouter)],
            1,
            Instant::now(),
            Arc::clone(&ctl),
            None,
        )
        .unwrap();
        let (wire, on_wire) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let sched = &sched;
            let worker = scope.spawn(move || {
                sched.run_worker(&mut HoldingSink { held: 0, wire }, &mut Metrics::new())
            });
            sched.seed_all();
            assert_eq!(on_wire.recv_timeout(Duration::from_secs(10)), Ok(1));
            ctl.request_stop();
            sched.wake_workers();
            worker.join().expect("worker panicked");
        });
        assert!(on_wire.try_recv().is_err(), "nothing was left for shutdown");
    }

    /// A task that refuses every prober, as a claimed TCoP peer does.
    struct Refuser;
    impl Actor<Msg> for Refuser {
        fn on_message(&mut self, rt: &mut dyn Runtime<Msg>, from: ActorId, msg: Msg) {
            if let Msg::Control(c) = msg {
                let refusal = mss_core::msg::ProbeReply {
                    from: mss_overlay::PeerId(0),
                    accept: false,
                    wave: c.body.wave,
                };
                rt.send(from, Msg::Reply(refusal));
            }
        }
        fn on_timer(&mut self, _rt: &mut dyn Runtime<Msg>, _t: TimerId, _tag: u64) {}
        impl_as_any!();
    }

    #[test]
    fn refusing_a_prober_drops_its_snapshot() {
        let sched = Scheduler::new(
            vec![Box::new(Refuser)],
            1,
            Instant::now(),
            Arc::new(SessionControl::new()),
            None,
        )
        .unwrap();
        let probe = |from: u32| {
            let body = mss_core::msg::ControlBody {
                kind: mss_core::msg::ControlKind::Probe,
                from: mss_overlay::PeerId(from),
                wave: 2,
                view: Arc::new(mss_overlay::View::empty(64)),
                view_wire: mss_core::msg::ViewWire::Full { epoch: 1 },
                sched: mss_media::SeqView::empty(),
                pos: 0,
                interval_nanos: 1,
                mark_delta_nanos: 0,
                parts: 0,
                h: 1,
                fanout: 2,
                basis: None,
            };
            Msg::control(&Arc::new(body), 0)
        };
        sched.deliver(0, ActorId(3), probe(3));
        sched.deliver(0, ActorId(4), probe(4));
        let t = sched.next_task().unwrap();
        let mut scratch = StepScratch::new(1);
        sched.run_step(t, &mut NullSink, &mut Metrics::new(), &mut scratch);
        assert_eq!(sched.view_totals(), (0, 0), "both refused edges dropped");
    }
}
