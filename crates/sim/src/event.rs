//! The deterministic event queue at the heart of the simulator.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant dispatch in the order they were scheduled. This
//! makes every run bit-reproducible for a given seed, regardless of host
//! platform or allocator behaviour.
//!
//! # Calendar-queue scheduler
//!
//! The queue is a two-level calendar queue (Brown 1988) rather than a
//! binary heap, so the simulator's hold operation — pop the earliest
//! event, handle it, push a few more a link-latency ahead — is amortized
//! O(1) instead of O(log n):
//!
//! * **Near horizon** — `nb` circularly-indexed time buckets, each
//!   covering one fixed `2^SHIFT`-nanosecond (≈ 131 µs) slice of the
//!   sliding window `[base, base + nb·2^SHIFT)`; an in-window time `t`
//!   lives in bucket `(t >> SHIFT) & (nb - 1)`. The window's start
//!   tracks the dispatch cursor, so its far end advances continuously
//!   and pushes a link-latency ahead of *now* stay in-window — the
//!   steady-state hold pattern never touches the heap.
//! * **Overflow** — events beyond the window (far timers) sit in a
//!   binary heap and migrate into buckets — once, a few at a time — as
//!   the window slides over them.
//!
//! The width never changes and the bucket count only grows: `reserve`,
//! and a push that leaves more than two keys per bucket, set it to the
//! pending population rounded up to a power of two, within
//! [64, 65 536]. A burst of same-time pushes therefore rebuilds
//! O(log n) times, and a session pre-sized by `reserve` never does.
//!
//! Storage is a pair of parallel slabs indexed by `u32` slots — a hot
//! slab of 24-byte scheduling keys (`time`, `seq`, intrusive `next`
//! link) and a cold slab of payloads; a bucket is an intrusive
//! singly-linked list (head/tail slot) threaded through the key slab.
//! Slots never move once allocated — inserts relink a few `u32`s — and
//! every bucket walk, sort, cursor scan, and rebuild reads key cells
//! only, so their cost is independent of the payload size and an
//! insert touches the payload slab exactly once. An empty bucket costs
//! 8 bytes, not an allocation. The overflow heap holds 24-byte keys
//! only.
//!
//! ## Sort on arrival
//!
//! Only the cursor bucket — the one being popped from — has to be in
//! `(time, seq)` order. A push into any other bucket links at the tail
//! in O(1); one that lands out of order marks the bucket *unsorted*
//! (one bit per bucket), and the list is sorted once, when the cursor
//! arrives on it: the keys are streamed into a contiguous scratch
//! buffer, sorted there, and relinked. That is O(log k) amortised per
//! event for a k-key bucket — a burst of 10⁴ random-order arrivals
//! into one bucket would otherwise cost a pointer-chasing O(k) walk
//! each. Pushes into the cursor bucket itself (the slice being
//! dispatched, and stale pushes clamped into it) keep a sorted insert,
//! so it stays sorted while it drains.
//!
//! ## Determinism argument
//!
//! Pop always returns the globally least `(time, seq)` entry. The
//! window spans at most `nb` consecutive `2^SHIFT`-ns slices, so each
//! bucket holds at most one slice's worth of in-window events and the
//! circular scan from the cursor visits slices in increasing time
//! order, whatever the order inside a bucket; the cursor bucket is
//! sorted before its first key is popped and kept sorted while it
//! drains, and since `seq` is unique the sort has a single outcome —
//! which for equal times is exactly FIFO insertion order; entries that
//! land behind the window's start are clamped into the cursor bucket,
//! where the sorted insert ranks them first; the overflow heap holds
//! only times at or beyond the window end; and a rebuild re-files the
//! same keys. The total order is therefore identical to the reference
//! heap's, bit for bit (property-tested in `tests/properties.rs`). Slot
//! numbers index storage only and never participate in ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifies an actor registered in a [`crate::world::World`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Index into the world's actor table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Handle to a pending timer, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub u64);

/// A scheduled occurrence.
#[derive(Debug)]
pub enum Event<M> {
    /// A message from `from` arriving at `to`.
    Deliver {
        /// Sending actor.
        from: ActorId,
        /// Receiving actor.
        to: ActorId,
        /// The payload.
        msg: M,
    },
    /// A timer set by `actor` firing with its user `tag`.
    Timer {
        /// Actor whose timer fires.
        actor: ActorId,
        /// Handle originally returned by `set_timer`.
        timer: TimerId,
        /// User-chosen discriminator.
        tag: u64,
    },
}

/// Sentinel slot: end of a bucket list / empty bucket.
const NIL: u32 = u32::MAX;

/// The hot half of a slab slot: the scheduling key and the intrusive
/// bucket-list link — everything an insert walk, a bucket sort, a
/// cursor scan, or an overflow migration needs. Kept in its own slab
/// (parallel to the payload slab) so those walks stream through
/// 24-byte cells regardless of how fat the payload type is; the
/// payload is only touched on the final push/pop of a slot. Never
/// moves once allocated.
#[derive(Clone, Copy)]
struct NodeKey {
    time: SimTime,
    seq: u64,
    next: u32,
}

// Size regression gate (ISSUE 10): bucket-list walks and overflow
// migration are engineered around 24-byte key cells (3 per cache line
// with the padding word).
const _: () = assert!(std::mem::size_of::<NodeKey>() <= 24);

/// Scheduling key for the overflow heap: everything needed to order an
/// event, plus the slab slot where its node lives.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    #[inline]
    fn order(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest key first.
        other.order().cmp(&self.order())
    }
}

/// Fewest buckets the calendar keeps (also the initial size).
const MIN_BUCKETS: usize = 64;
/// Most buckets the calendar will grow to.
const MAX_BUCKETS: usize = 1 << 16;
/// Bucket width is `1 << SHIFT` nanoseconds: 2^17 ns ≈ 131 µs.
const SHIFT: u32 = 17;

/// Priority queue of future events ordered by `(time, insertion sequence)`.
///
/// See the module docs for the calendar-queue layout and the
/// determinism argument.
pub struct EventQueue<M> {
    /// Hot slab: scheduling keys + intrusive links, indexed by slot.
    /// Length is bounded by the high-water mark of simultaneously
    /// pending events. Split from `vals` (SoA) so bucket walks touch
    /// only 24-byte cells.
    keys: Vec<NodeKey>,
    /// Cold slab: event payloads, parallel to `keys` (`None` = free
    /// slot). Touched only when a slot is filled or drained.
    vals: Vec<Option<Event<M>>>,
    /// Free slab slots, reused LIFO (deterministic, cache-warm).
    free: Vec<u32>,
    /// Bucket list heads (`NIL` = empty), circularly indexed.
    heads: Vec<u32>,
    /// Bucket list tails; meaningful only where `heads` is not `NIL`.
    tails: Vec<u32>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occ: Vec<u64>,
    /// One bit per bucket: set iff the bucket's list is not known to be
    /// in `(time, seq)` order (an out-of-order push was appended at the
    /// tail). Never set for the cursor bucket; cleared when the cursor
    /// arrives and sorts the list. Set implies non-empty.
    unsorted: Vec<u64>,
    /// Reused key buffer for the sort-on-arrival pass.
    sort_scratch: Vec<Key>,
    /// Keys beyond the window `[base, base + nb·2^SHIFT)`.
    overflow: BinaryHeap<Key>,
    nb: usize,
    /// Inclusive start of the bucketed window — the aligned start of
    /// the cursor bucket's time slice. Advances with the cursor, which
    /// slides the window end forward and lets overflow keys migrate in
    /// a few at a time (never a bulk re-file).
    base: u64,
    /// Bucket holding the earliest pending key (when any are bucketed).
    cursor: usize,
    /// The key an out-of-order push last walked into the cursor bucket
    /// (`NIL` = none): a later one that ranks after it walks on from
    /// there, so a burst of same-time arrivals behind pending keys (a
    /// live worker's receive pass) links in O(1) each, not O(burst).
    /// Cleared when the key is popped or the cursor moves.
    cursor_hint: u32,
    /// Events currently in buckets (the rest are in `overflow`).
    bucketed: usize,
    len: usize,
    next_seq: u64,
    /// Most events ever pending at once (sizing diagnostics).
    high_water: usize,
    /// Key cells read by sorted-insert walks and bucket sorts — the
    /// complexity pin's wall-clock-free cost measure.
    #[cfg(test)]
    cells_visited: u64,
    /// Calendar rebuilds so far — the sizing rule's pin.
    #[cfg(test)]
    rebuilds: u32,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            keys: Vec::new(),
            vals: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; MIN_BUCKETS],
            tails: vec![NIL; MIN_BUCKETS],
            occ: vec![0; MIN_BUCKETS.div_ceil(64)],
            unsorted: vec![0; MIN_BUCKETS.div_ceil(64)],
            sort_scratch: Vec::new(),
            overflow: BinaryHeap::new(),
            nb: MIN_BUCKETS,
            base: 0,
            cursor: 0,
            cursor_hint: NIL,
            bucketed: 0,
            len: 0,
            next_seq: 0,
            high_water: 0,
            #[cfg(test)]
            cells_visited: 0,
            #[cfg(test)]
            rebuilds: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue pre-sized for `cap` simultaneously pending events.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::default();
        q.reserve(cap);
        q
    }

    /// Size the calendar and node slab for at least `additional` more
    /// pending events, so bursty fan-outs don't trigger mid-dispatch
    /// rebuilds or slab growth. Purely a capacity hint: pop order is
    /// unaffected.
    pub fn reserve(&mut self, additional: usize) {
        let target = self.len.saturating_add(additional);
        self.grow(target);
        let grow = target.saturating_sub(self.keys.len());
        self.keys.reserve(grow);
        self.vals.reserve(grow);
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.keys[s as usize] = NodeKey {
                    time: at,
                    seq,
                    next: NIL,
                };
                self.vals[s as usize] = Some(event);
                s
            }
            None => {
                self.keys.push(NodeKey {
                    time: at,
                    seq,
                    next: NIL,
                });
                self.vals.push(Some(event));
                (self.keys.len() - 1) as u32
            }
        };
        if self.len == 0 {
            self.aim_at(at.0);
        }
        self.place(Key {
            time: at,
            seq,
            slot,
        });
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
        self.grow(self.len);
    }

    /// Timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because peeking may advance the cursor or pull
    /// overflow events into the window — both order-neutral.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        Some(self.keys[self.heads[self.cursor] as usize].time)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Remove and return the earliest pending event if its time is at or
    /// before `limit` — the dispatch loop's single hold operation,
    /// replacing the `peek_time` + `pop` pair.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, Event<M>)> {
        if !self.settle() {
            return None;
        }
        let slot = self.heads[self.cursor];
        let k = self.keys[slot as usize];
        let t = k.time;
        if t > limit {
            return None;
        }
        let event = self.vals[slot as usize].take().expect("slot occupied");
        if slot == self.cursor_hint {
            self.cursor_hint = NIL;
        }
        let next = k.next;
        self.heads[self.cursor] = next;
        if next == NIL {
            self.occ_clear(self.cursor);
        }
        self.free.push(slot);
        self.bucketed -= 1;
        self.len -= 1;
        Some((t, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most events that were ever pending at once (sizing diagnostics).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    // ---- internals -----------------------------------------------------

    #[inline]
    fn occ_set(&mut self, i: usize) {
        self.occ[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    fn occ_clear(&mut self, i: usize) {
        self.occ[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Index of the first non-empty bucket at or after `from`,
    /// wrapping circularly. `None` iff no bucket is occupied.
    fn occ_next(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut word = self.occ[w] & (!0u64 << (from & 63));
        // One extra iteration so `from`'s own word is rechecked
        // unmasked after the wrap-around.
        for _ in 0..=self.occ.len() {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.occ.len() {
                w = 0;
            }
            word = self.occ[w];
        }
        None
    }

    /// True when `t` falls inside the bucketed window
    /// `[base, base + nb·2^SHIFT)`. Times behind `base` are handled
    /// by the stale clamp in [`Self::place`].
    #[inline]
    fn in_window(&self, t: u64) -> bool {
        t >= self.base && (t - self.base) >> SHIFT < self.nb as u64
    }

    /// File a key into its bucket or the overflow heap. Window must be
    /// initialized; does not touch `len`.
    fn place(&mut self, k: Key) {
        let t = k.time.0;
        let i = if t < self.base {
            // Stale push, behind the cursor's slice: clamp into the
            // cursor bucket, where the sorted order ranks it first.
            self.cursor
        } else if (t - self.base) >> SHIFT < self.nb as u64 {
            self.bucket_of(t)
        } else {
            self.overflow.push(k);
            return;
        };
        self.link(i, k);
    }

    /// Bucket of in-window time `t`.
    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        ((t >> SHIFT) & (self.nb as u64 - 1)) as usize
    }

    /// File `k` into bucket `i`'s intrusive list. Any bucket other than
    /// the cursor's takes the key in O(1) on its tail; one that lands
    /// out of order marks the bucket unsorted, to be sorted once, when
    /// the cursor arrives ([`Self::settle`]). The cursor bucket is being
    /// drained from its head, so it stays sorted: an out-of-order
    /// arrival there (a push into the slice being dispatched, or a
    /// stale-clamped one) walks to its place.
    fn link(&mut self, i: usize, k: Key) {
        // Re-filed keys (rebuild, overflow migration) carry a stale
        // link from their previous list.
        self.keys[k.slot as usize].next = NIL;
        self.bucketed += 1;
        if self.heads[i] == NIL {
            self.occ_set(i);
            self.heads[i] = k.slot;
            self.tails[i] = k.slot;
            return;
        }
        let tail = self.tails[i];
        if !self.is_unsorted(i) {
            let tn = self.keys[tail as usize];
            if (tn.time, tn.seq) > k.order() {
                if i == self.cursor {
                    self.insert_sorted(k);
                    return;
                }
                self.unsorted[i >> 6] |= 1u64 << (i & 63);
            }
        }
        self.keys[tail as usize].next = k.slot;
        self.tails[i] = k.slot;
    }

    /// Walk the cursor bucket to the first key ranking after `k` and
    /// link `k` before it — from `cursor_hint` when `k` ranks after
    /// that key. The caller has checked that the tail is such a key, so
    /// the walk ends inside the list and the tail is unmoved.
    fn insert_sorted(&mut self, k: Key) {
        let ord = k.order();
        let (mut prev, mut cur) = (NIL, self.heads[self.cursor]);
        let hint = self.cursor_hint;
        if hint != NIL {
            let h = self.keys[hint as usize];
            if (h.time, h.seq) < ord {
                (prev, cur) = (hint, h.next);
            }
        }
        loop {
            let c = self.keys[cur as usize];
            #[cfg(test)]
            {
                self.cells_visited += 1;
            }
            if (c.time, c.seq) > ord {
                break;
            }
            prev = cur;
            cur = c.next;
        }
        self.keys[k.slot as usize].next = cur;
        if prev == NIL {
            self.heads[self.cursor] = k.slot;
        } else {
            self.keys[prev as usize].next = k.slot;
        }
        self.cursor_hint = k.slot;
    }

    #[inline]
    fn is_unsorted(&self, i: usize) -> bool {
        self.unsorted[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Append bucket `i`'s keys, in list order, to `out`.
    fn bucket_keys_into(&self, i: usize, out: &mut Vec<Key>) {
        let mut cur = self.heads[i];
        while cur != NIL {
            let n = self.keys[cur as usize];
            out.push(Key {
                time: n.time,
                seq: n.seq,
                slot: cur,
            });
            cur = n.next;
        }
    }

    /// Put bucket `i`'s list into `(time, seq)` order and clear its
    /// unsorted mark: stream the keys into the contiguous scratch, sort
    /// there, relink. `seq` is unique, so the unstable sort has exactly
    /// one outcome.
    fn sort_bucket(&mut self, i: usize) {
        let mut scratch = std::mem::take(&mut self.sort_scratch);
        scratch.clear();
        self.bucket_keys_into(i, &mut scratch);
        #[cfg(test)]
        {
            self.cells_visited += scratch.len() as u64;
        }
        scratch.sort_unstable_by_key(Key::order);
        let mut next = NIL;
        for k in scratch.iter().rev() {
            self.keys[k.slot as usize].next = next;
            next = k.slot;
        }
        self.heads[i] = next;
        self.tails[i] = scratch.last().expect("unsorted implies non-empty").slot;
        self.unsorted[i >> 6] &= !(1u64 << (i & 63));
        self.sort_scratch = scratch;
    }

    /// Pull every overflow key that the (just-advanced) window now
    /// covers into its bucket.
    fn drain_overflow(&mut self) {
        while let Some(head) = self.overflow.peek() {
            if !self.in_window(head.time.0) {
                break;
            }
            let k = self.overflow.pop().expect("peeked");
            self.link(self.bucket_of(k.time.0), k);
        }
    }

    /// Move `base`/`cursor` to the slice containing `t`. Only valid
    /// when `t` is at or past every bucketed key (the window never
    /// moves backwards over content).
    #[inline]
    fn aim_at(&mut self, t: u64) {
        self.cursor_hint = NIL;
        self.base = (t >> SHIFT) << SHIFT;
        self.cursor = self.bucket_of(t);
    }

    /// Ensure the cursor sits on the non-empty bucket holding the
    /// earliest pending key; false iff the queue is empty. Advances the
    /// window (sliding overflow keys in) as the cursor moves.
    fn settle(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        // Fast path: the bucket being drained still has keys.
        if self.heads[self.cursor] != NIL {
            return true;
        }
        if self.bucketed > 0 {
            // The circular scan visits slices in increasing time order
            // (one lap of the window), so the first occupied bucket
            // holds the earliest key; re-aim the window at its slice.
            let i = self.occ_next(self.cursor).expect("bucketed > 0");
            let head_t = self.keys[self.heads[i] as usize].time.0;
            self.aim_at(head_t);
            debug_assert_eq!(self.cursor, i, "head key outside its slice");
            // Sort on arrival, before overflow keys are merged in: from
            // here on the bucket is the cursor's and stays sorted.
            if self.is_unsorted(i) {
                self.sort_bucket(i);
            }
        } else {
            // Buckets drained: jump the window to the earliest overflow
            // key.
            let t0 = self.overflow.peek().expect("len > 0").time.0;
            self.aim_at(t0);
        }
        // Either jump advanced the window end: let overflow catch up.
        self.drain_overflow();
        debug_assert!(self.heads[self.cursor] != NIL);
        true
    }

    /// The one sizing rule: once `target` pending events exceed two per
    /// bucket, grow the calendar to `max(target, len)` buckets (a power
    /// of two, at most [`MAX_BUCKETS`]) and re-file every key in
    /// `(time, seq)` order, so each link is a tail append. Never
    /// shrinks. Membership is preserved exactly, so pop order cannot
    /// change.
    fn grow(&mut self, target: usize) {
        if target <= self.nb * 2 || self.nb == MAX_BUCKETS {
            return;
        }
        let nb = target.max(self.len).min(MAX_BUCKETS).next_power_of_two();
        let mut keys: Vec<Key> = Vec::with_capacity(self.len);
        for i in 0..self.nb {
            self.bucket_keys_into(i, &mut keys);
        }
        keys.extend(std::mem::take(&mut self.overflow));
        keys.sort_unstable_by_key(Key::order);
        self.nb = nb;
        self.heads = vec![NIL; nb];
        self.tails = vec![NIL; nb];
        self.occ = vec![0; nb.div_ceil(64)];
        self.unsorted = vec![0; nb.div_ceil(64)];
        self.bucketed = 0;
        self.cursor_hint = NIL;
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
        let Some(first) = keys.first() else {
            return;
        };
        self.aim_at(first.time.0);
        for k in keys {
            self.place(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer_ev(tag: u64) -> Event<()> {
        Event::Timer {
            actor: ActorId(0),
            timer: TimerId(tag),
            tag,
        }
    }

    fn tag_of(ev: Event<()>) -> u64 {
        match ev {
            Event::Timer { tag, .. } => tag,
            _ => panic!("expected timer"),
        }
    }

    /// Runtime mirror of the compile-time `NodeKey` width assert:
    /// bucket walks touch only the hot key slab, so its per-slot cost
    /// is pinned here where a regression reports the measured width.
    #[test]
    fn size_regression() {
        assert_eq!(
            std::mem::size_of::<NodeKey>(),
            24,
            "hot scheduling key grew; bucket walks drag more cache"
        );
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer_ev(3));
        q.push(SimTime(10), timer_ev(1));
        q.push(SimTime(20), timer_ev(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for tag in 0..100 {
            q.push(SimTime(5), timer_ev(tag));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), timer_ev(1));
        q.push(SimTime(5), timer_ev(0));
        assert_eq!(q.pop().map(|(t, e)| (t.0, tag_of(e))), Some((5, 0)));
        q.push(SimTime(7), timer_ev(2));
        assert_eq!(q.pop().map(|(t, e)| (t.0, tag_of(e))), Some((7, 2)));
        assert_eq!(q.pop().map(|(t, e)| (t.0, tag_of(e))), Some((10, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(42), timer_ev(0));
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), timer_ev(0));
        q.push(SimTime(200), timer_ev(1));
        assert!(q.pop_at_or_before(SimTime(99)).is_none());
        assert_eq!(
            q.pop_at_or_before(SimTime(100))
                .map(|(t, e)| (t.0, tag_of(e))),
            Some((100, 0))
        );
        assert!(q.pop_at_or_before(SimTime(150)).is_none());
        assert_eq!(q.len(), 1, "limit-refused pops leave the queue intact");
        assert_eq!(
            q.pop_at_or_before(SimTime::MAX)
                .map(|(t, e)| (t.0, tag_of(e))),
            Some((200, 1))
        );
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        // Way past any initial window: forces overflow filing + window
        // jumps.
        q.push(SimTime(1), timer_ev(0));
        q.push(SimTime(10_000_000_000), timer_ev(1)); // +10 s
        q.push(SimTime(u64::MAX), timer_ev(2));
        q.push(SimTime(u64::MAX), timer_ev(3)); // tie at the far edge
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(e))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pushes_behind_the_cursor_still_pop_first() {
        let mut q = EventQueue::new();
        for i in 0..32 {
            q.push(SimTime(i * 1_000_000), timer_ev(i));
        }
        for i in 0..16 {
            assert_eq!(q.pop().map(|(_, e)| tag_of(e)), Some(i));
        }
        // Stale push: earlier than everything still pending.
        q.push(SimTime(0), timer_ev(999));
        assert_eq!(q.pop().map(|(t, e)| (t.0, tag_of(e))), Some((0, 999)));
        assert_eq!(q.pop().map(|(_, e)| tag_of(e)), Some(16));
    }

    #[test]
    fn grows_without_losing_order() {
        let mut q = EventQueue::new();
        let n = 10_000u64;
        for i in 0..n {
            // Reversed times: worst case for append-fast-path buckets.
            q.push(SimTime((n - i) * 1_000), timer_ev(i));
        }
        assert_eq!(q.len(), n as usize);
        assert_eq!(q.high_water(), n as usize);
        let mut last = (0u64, None::<u64>);
        let mut popped = 0;
        while let Some((t, e)) = q.pop() {
            let tag = tag_of(e);
            assert!(t.0 > last.0 || last.1.is_none(), "order violated at {t:?}");
            last = (t.0, Some(tag));
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    /// Complexity pin without a wall clock: one coordination wave of a
    /// population-scale session — the calendar pre-sized by `reserve`
    /// (maximum bucket count of the fixed width), the event being handled
    /// at the cursor, 10⁵ deliveries pushed in random time order into
    /// the eight buckets a link latency ahead — then the full drain.
    /// Appending and sorting on arrival reads each key cell about
    /// once; a sorted insert per push walks half a 12 500-key bucket
    /// each time, some 10⁸ cells.
    #[test]
    fn random_order_wave_reads_n_log_n_key_cells() {
        const N: u64 = 100_000;
        let mut q = EventQueue::with_capacity(800_000);
        q.push(SimTime(0), timer_ev(0));
        let mut want = vec![(0u64, 0u64)];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for tag in 1..=N {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = 1_000_000 + x % 1_000_000;
            q.push(SimTime(t), timer_ev(tag));
            want.push((t, tag));
        }
        want.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.0, tag_of(e)))
            .collect();
        assert_eq!(got, want);
        let bound = 2 * N * u64::from(N.ilog2() + 1);
        assert!(
            q.cells_visited <= bound,
            "{} key cells read for {N} events, bound {bound}",
            q.cells_visited
        );
    }

    /// Complexity pin for a live worker's receive pass: 10⁴ pushes at
    /// one time, behind a later key already in the cursor bucket (the
    /// calendar pre-sized, so no rebuild files them apart). Each walks
    /// on from the one before (`cursor_hint`) instead of from the head:
    /// the burst reads O(n) key cells, not the 5·10⁷ of O(n²).
    #[test]
    fn same_time_burst_behind_a_pending_key_reads_linear_cells() {
        const N: u64 = 10_000;
        let mut q = EventQueue::with_capacity(N as usize);
        q.push(SimTime(5_000), timer_ev(0));
        assert_eq!(q.peek_time(), Some(SimTime(5_000)));
        for tag in 1..=N {
            q.push(SimTime(1_000), timer_ev(tag));
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(e))
            .collect();
        let want: Vec<u64> = (1..=N).chain([0]).collect();
        assert_eq!(got, want);
        assert!(
            q.cells_visited <= 2 * N,
            "{} key cells read",
            q.cells_visited
        );
    }

    /// The sizing rule: a burst of 10⁵ same-time pushes into a fresh
    /// queue grows the calendar O(log n) times — each growth at least
    /// doubles the bucket count, so from 64 buckets it is at most
    /// ⌈log₂(10⁵/64)⌉ + 1 — and still pops FIFO; pre-sized for the
    /// burst, it never rebuilds.
    #[test]
    fn same_time_burst_rebuilds_logarithmically_or_not_at_all() {
        const N: u64 = 100_000;
        let bound = (N as f64 / MIN_BUCKETS as f64).log2().ceil() as u32 + 1;
        for (mut q, most) in [
            (EventQueue::new(), bound),
            (EventQueue::with_capacity(N as usize), 0),
        ] {
            let before = q.rebuilds;
            for tag in 0..N {
                q.push(SimTime(7), timer_ev(tag));
            }
            let rebuilds = q.rebuilds - before;
            assert!(rebuilds <= most, "{rebuilds} rebuilds, bound {most}");
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| tag_of(e))
                .collect();
            assert_eq!(order, (0..N).collect::<Vec<_>>());
        }
    }

    #[test]
    fn slab_slots_recycle_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..8 {
                q.push(SimTime(round * 1_000 + i), timer_ev(round * 8 + i));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.high_water() <= 8,
            "slab should stay at the churn high-water, got {}",
            q.high_water()
        );
    }

    #[test]
    fn with_capacity_presizes_without_changing_order() {
        let mut a = EventQueue::with_capacity(50_000);
        let mut b = EventQueue::new();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut times = Vec::new();
        for _ in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            times.push(x % 3_000_000);
        }
        for (i, &t) in times.iter().enumerate() {
            a.push(SimTime(t), timer_ev(i as u64));
            b.push(SimTime(t), timer_ev(i as u64));
        }
        loop {
            let (pa, pb) = (a.pop(), b.pop());
            let ka = pa.map(|(t, e)| (t.0, tag_of(e)));
            let kb = pb.map(|(t, e)| (t.0, tag_of(e)));
            assert_eq!(ka, kb);
            if ka.is_none() {
                break;
            }
        }
    }
}
