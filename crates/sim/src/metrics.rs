//! Run-wide metric collection: named counters.
//!
//! Actors and the scheduler record into a single [`Metrics`] sink; the
//! experiment harness reads it after a run.
//!
//! Internally every metric name is interned once, process-wide, into a
//! [`MetricId`] — a dense index into per-sink slot arrays — so the hot
//! dispatch path never hashes or compares strings and never allocates.
//! The kernel's own counters occupy fixed, compile-time-known slots
//! (`NET_SENT_ID` …); protocol and harness counters obtain ids through
//! [`register`] (usually through [`metric_ids!`](crate::metric_ids)).
//! Counters are written by id only; reading by name
//! ([`Metrics::counter`], [`Metrics::counters`]) stays a thin layer over
//! the intern table, so harness extraction and table/CSV emitters are
//! unchanged.
//!
//! Because the intern table is global, the same name maps to the same
//! slot in every sink, so [`Metrics::merge`] is slot-wise — including
//! across threads — and merges each slot the way it was written: a
//! count ([`Metrics::add_id`], [`Metrics::incr_id`]) adds, a running
//! maximum ([`Metrics::set_max_id`]) takes the larger. A run split over
//! several worlds (shards, live workers) thus reads its counts as totals
//! and its maxima — the deepest activation wave, the last activation's
//! time — as the largest any world saw, not their sum.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Messages handed to the link model (including ones later dropped).
pub const NET_SENT: &str = "net.sent";
/// Messages dropped by the link model.
pub const NET_DROPPED: &str = "net.dropped";
/// Messages delivered to a live actor.
pub const NET_DELIVERED: &str = "net.delivered";
/// Messages addressed to a crashed/removed actor.
pub const NET_TO_DEAD: &str = "net.to_dead";
/// Total bytes handed to the link model.
pub const NET_BYTES_SENT: &str = "net.bytes_sent";
/// Deliveries timed behind the receiver's clock — a link verdict in the
/// past, or a cross-shard arrival below the closed window — and clamped
/// forward. Always zero for an honest link model; a nonzero count fails
/// the run under `debug_assertions`.
pub const NET_CLAMPED: &str = "net.clamped";

/// A process-wide handle for one metric name (see [`register`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MetricId(u32);

/// Fixed slot of [`NET_SENT`].
pub const NET_SENT_ID: MetricId = MetricId(0);
/// Fixed slot of [`NET_DROPPED`].
pub const NET_DROPPED_ID: MetricId = MetricId(1);
/// Fixed slot of [`NET_DELIVERED`].
pub const NET_DELIVERED_ID: MetricId = MetricId(2);
/// Fixed slot of [`NET_TO_DEAD`].
pub const NET_TO_DEAD_ID: MetricId = MetricId(3);
/// Fixed slot of [`NET_BYTES_SENT`].
pub const NET_BYTES_SENT_ID: MetricId = MetricId(4);
/// Fixed slot of [`NET_CLAMPED`].
pub const NET_CLAMPED_ID: MetricId = MetricId(5);

/// Names of the fixed kernel slots, in id order.
const FIXED: [&str; 6] = [
    NET_SENT,
    NET_DROPPED,
    NET_DELIVERED,
    NET_TO_DEAD,
    NET_BYTES_SENT,
    NET_CLAMPED,
];

impl MetricId {
    /// Slot index (dense, process-wide).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The interned name this id stands for.
    pub fn name(self) -> &'static str {
        let t = table().read().expect("metric intern table poisoned");
        t.names[self.index()]
    }
}

/// The process-wide name ↔ id table. Ids are assigned in registration
/// order after the fixed kernel slots; registered names live for the
/// whole process (they are leaked once).
struct Interner {
    by_name: HashMap<&'static str, MetricId>,
    names: Vec<&'static str>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut by_name = HashMap::with_capacity(FIXED.len() * 4);
        let mut names = Vec::with_capacity(FIXED.len() * 4);
        for name in FIXED {
            by_name.insert(name, MetricId(names.len() as u32));
            names.push(name);
        }
        RwLock::new(Interner { by_name, names })
    })
}

/// Intern `name`, returning its process-wide [`MetricId`]. Idempotent;
/// the id can be cached and reused across sinks and threads. A name is
/// leaked the first time it is registered (metric name sets are small
/// and fixed in practice).
pub fn register(name: &str) -> MetricId {
    if let Some(id) = lookup(name) {
        return id;
    }
    let mut t = table().write().expect("metric intern table poisoned");
    if let Some(&id) = t.by_name.get(name) {
        return id;
    }
    let name: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let id = MetricId(t.names.len() as u32);
    t.names.push(name);
    t.by_name.insert(name, id);
    id
}

/// Defines `pub fn $f() -> MetricId`: the interned slot of the metric
/// named by the `&str` constant `$name`, registered on first use.
/// Every counter write goes through one of these.
#[macro_export]
macro_rules! metric_ids {
    ($($f:ident => $name:ident;)*) => {$(
        #[doc = concat!("Interned slot id for [`", stringify!($name), "`].")]
        pub fn $f() -> $crate::metrics::MetricId {
            static ID: ::std::sync::OnceLock<$crate::metrics::MetricId> =
                ::std::sync::OnceLock::new();
            *ID.get_or_init(|| $crate::metrics::register($name))
        }
    )*};
}

/// Id of an already-registered name, without registering it.
fn lookup(name: &str) -> Option<MetricId> {
    let t = table().read().expect("metric intern table poisoned");
    t.by_name.get(name).copied()
}

/// Named counters for one simulation run.
///
/// Slots are indexed by [`MetricId`]; `None` means "never written", so
/// only metrics a run actually touched appear in iteration — same
/// observable behaviour as the original map-backed sink.
#[derive(Default)]
pub struct Metrics {
    counters: Vec<Option<u64>>,
    /// Per slot, whether [`Metrics::set_max_id`] wrote it: such a slot
    /// merges by maximum, every other by sum.
    maxima: Vec<bool>,
}

#[inline]
fn slot<T: Copy + Default>(v: &mut Vec<T>, id: MetricId) -> &mut T {
    let i = id.index();
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

impl Metrics {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- id-indexed fast path (no hashing, no locks) ----

    /// Add `v` to the counter in slot `id` (creating it at zero).
    #[inline]
    pub fn add_id(&mut self, id: MetricId, v: u64) {
        let s = slot(&mut self.counters, id);
        *s = Some(s.unwrap_or(0) + v);
    }

    /// Increment the counter in slot `id` by one.
    #[inline]
    pub fn incr_id(&mut self, id: MetricId) {
        self.add_id(id, 1);
    }

    /// Raise the counter in slot `id` to `v` if larger (running
    /// maximum). The slot then merges by maximum (see [`Metrics::merge`]).
    #[inline]
    pub fn set_max_id(&mut self, id: MetricId, v: u64) {
        let s = slot(&mut self.counters, id);
        *s = Some(s.map_or(v, |c| c.max(v)));
        *slot(&mut self.maxima, id) = true;
    }

    /// Current value of the counter in slot `id` (0 if never written).
    #[inline]
    pub fn counter_id(&self, id: MetricId) -> u64 {
        self.counters
            .get(id.index())
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    // ---- by-name layer over the intern table ----

    /// Current value of counter `name` (0 if never written). Read-only:
    /// does not register the name.
    pub fn counter(&self, name: &str) -> u64 {
        lookup(name).map_or(0, |id| self.counter_id(id))
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let t = table().read().expect("metric intern table poisoned");
        let mut out: Vec<(&'static str, u64)> = self
            .counters
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|v| (t.names[i], v)))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out.into_iter()
    }

    /// Fold another sink into this one, slot by slot: a slot that
    /// [`Metrics::set_max_id`] wrote in either sink takes the larger
    /// value, every other slot adds. Ids are process-global, so no name
    /// lookups happen here.
    pub fn merge(&mut self, other: &Metrics) {
        if self.counters.len() < other.counters.len() {
            self.counters.resize(other.counters.len(), None);
        }
        if self.maxima.len() < other.maxima.len() {
            self.maxima.resize(other.maxima.len(), false);
        }
        for (mine, theirs) in self.maxima.iter_mut().zip(&other.maxima) {
            *mine |= theirs;
        }
        for (i, (mine, theirs)) in self.counters.iter_mut().zip(&other.counters).enumerate() {
            if let Some(v) = *theirs {
                let max = self.maxima.get(i).copied().unwrap_or(false);
                *mine = Some(mine.map_or(v, |c| if max { c.max(v) } else { c + v }));
            }
        }
    }

    /// Drop all recorded data.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.maxima.clear();
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Metrics");
        for (k, v) in self.counters() {
            d.field(k, &v);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ActorId, TimerId};

    #[test]
    fn counters_accumulate() {
        let (a, b) = (register("a"), register("b"));
        let mut m = Metrics::new();
        m.incr_id(a);
        m.add_id(a, 4);
        m.incr_id(b);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn set_max_keeps_the_largest() {
        let b = register("b");
        let mut m = Metrics::new();
        m.set_max_id(b, 5);
        m.set_max_id(b, 2);
        m.set_max_id(b, 9);
        assert_eq!(m.counter("b"), 9);
    }

    #[test]
    fn merge_combines_both_kinds() {
        // `x` is written in both sinks, `y` only in the one merged in.
        let (x, y) = (register("x"), register("y"));
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add_id(x, 1);
        b.add_id(x, 2);
        b.add_id(y, 3);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 3);
    }

    /// Two worlds that each saw a deepest wave of 7 saw a deepest wave
    /// of 7, and their counts still add.
    #[test]
    fn merge_sums_counts_and_keeps_maxima_maxima() {
        let (count, max) = (register("test.merge.count"), register("test.merge.max"));
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add_id(count, 4);
        b.incr_id(count);
        a.set_max_id(max, 7);
        b.set_max_id(max, 7);
        b.set_max_id(max, 3);
        a.merge(&b);
        assert_eq!(a.counter_id(count), 5);
        assert_eq!(a.counter_id(max), 7);
        let mut c = Metrics::new();
        c.set_max_id(max, 9);
        a.merge(&c);
        assert_eq!(a.counter_id(max), 9);
    }

    /// A maximum only the merged-in sink holds keeps its kind: merging
    /// it into an empty sink twice reads the maximum, not twice it.
    #[test]
    fn a_maximum_only_the_merged_sink_holds_stays_a_maximum() {
        let max = register("test.merge.only_theirs");
        let mut shard = Metrics::new();
        shard.set_max_id(max, 14);
        let mut merged = Metrics::new();
        merged.merge(&shard);
        assert_eq!(merged.counter_id(max), 14);
        merged.merge(&shard);
        assert_eq!(merged.counter_id(max), 14);
        // Cleared, the sink forgets the kind with the value.
        merged.clear();
        merged.add_id(max, 1);
        merged.add_id(max, 1);
        assert_eq!(merged.counter_id(max), 2);
    }

    /// Every timer `k` counts one tick and raises the deepest tick to `k`.
    struct Ticker(u64);
    impl crate::world::Actor<u32> for Ticker {
        fn on_start(&mut self, ctx: &mut dyn crate::world::Runtime<u32>) {
            for k in 1..=self.0 {
                ctx.set_timer(crate::time::SimDuration::from_millis(k), k);
            }
        }
        fn on_message(&mut self, _: &mut dyn crate::world::Runtime<u32>, _: ActorId, _: u32) {}
        fn on_timer(&mut self, ctx: &mut dyn crate::world::Runtime<u32>, _: TimerId, k: u64) {
            let m = ctx.metrics();
            m.incr_id(register("test.shard.ticks"));
            m.set_max_id(register("test.shard.deepest"), k);
        }
        crate::impl_as_any!();
    }

    /// A sharded world re-merges its shards after every run: after the
    /// second `run_until` its maximum is still the deepest any shard
    /// reached, and its count the total.
    #[test]
    fn sharded_world_remerges_maxima_as_maxima_after_each_run() {
        use crate::link::FixedLatency;
        use crate::shard::ShardedWorld;
        use crate::time::{SimDuration, SimTime};
        let lat = SimDuration::from_millis(1);
        let mut world: ShardedWorld<u32> =
            ShardedWorld::new(2, lat, 3, |_| Box::new(FixedLatency::new(lat)));
        world.add_actor(0, Box::new(Ticker(4)));
        world.add_actor(1, Box::new(Ticker(6)));
        world.run_until(SimTime::ZERO + SimDuration::from_micros(3_500));
        assert_eq!(world.metrics().counter("test.shard.ticks"), 6);
        assert_eq!(world.metrics().counter("test.shard.deepest"), 3);
        world.run_until(SimTime::MAX);
        assert_eq!(world.metrics().counter("test.shard.ticks"), 10);
        assert_eq!(world.metrics().counter("test.shard.deepest"), 6);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.incr_id(register("zeta"));
        m.incr_id(register("alpha"));
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn clear_empties() {
        let mut m = Metrics::new();
        m.incr_id(register("a"));
        m.clear();
        assert_eq!(m.counter("a"), 0);
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn register_is_idempotent_and_fixed_slots_match_names() {
        assert_eq!(register(NET_SENT), NET_SENT_ID);
        assert_eq!(register(NET_DROPPED), NET_DROPPED_ID);
        assert_eq!(register(NET_DELIVERED), NET_DELIVERED_ID);
        assert_eq!(register(NET_TO_DEAD), NET_TO_DEAD_ID);
        assert_eq!(register(NET_BYTES_SENT), NET_BYTES_SENT_ID);
        assert_eq!(register(NET_CLAMPED), NET_CLAMPED_ID);
        let a = register("test.register.idempotent");
        let b = register("test.register.idempotent");
        assert_eq!(a, b);
        assert_eq!(a.name(), "test.register.idempotent");
        assert_eq!(NET_SENT_ID.name(), NET_SENT);
    }

    #[test]
    fn two_ids_of_one_name_are_one_slot_and_names_read_what_ids_wrote() {
        let (first, again) = (register("test.oneslot"), register("test.oneslot"));
        let mut m = Metrics::new();
        for v in [3u64, 0, 41] {
            m.add_id(first, v);
        }
        m.incr_id(again);
        m.set_max_id(again, 40);
        assert_eq!(m.counter_id(first), 45);
        assert_eq!(m.counter("test.oneslot"), 45);
        m.set_max_id(first, 123);
        assert_eq!(m.counter("test.oneslot"), 123);
        let listed: Vec<_> = m
            .counters()
            .filter(|(k, _)| k.starts_with("test.oneslot"))
            .collect();
        assert_eq!(listed, vec![("test.oneslot", 123)]);
    }

    #[test]
    fn unwritten_slots_do_not_appear_in_iteration() {
        // Registering a name alone must not make it show up in sinks.
        register("test.unwritten.ghost");
        let mut m = Metrics::new();
        m.incr_id(register("test.unwritten.real"));
        assert!(m.counters().all(|(k, _)| k != "test.unwritten.ghost"));
        assert_eq!(m.counter("test.unwritten.ghost"), 0);
    }
}
