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
//! slot in every sink, which makes [`Metrics::merge`] a plain slot-wise
//! addition — including across threads.

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
}

#[inline]
fn slot(v: &mut Vec<Option<u64>>, id: MetricId) -> &mut Option<u64> {
    let i = id.index();
    if i >= v.len() {
        v.resize(i + 1, None);
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

    /// Overwrite the counter in slot `id` with `v`.
    #[inline]
    pub fn set_id(&mut self, id: MetricId, v: u64) {
        *slot(&mut self.counters, id) = Some(v);
    }

    /// Raise the counter in slot `id` to `v` if larger (running maximum).
    #[inline]
    pub fn set_max_id(&mut self, id: MetricId, v: u64) {
        let s = slot(&mut self.counters, id);
        *s = Some(s.map_or(v, |c| c.max(v)));
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

    /// Fold another sink into this one (counters add).
    /// Pure slot-wise addition — ids are process-global, so no name
    /// lookups or allocations happen here.
    pub fn merge(&mut self, other: &Metrics) {
        if self.counters.len() < other.counters.len() {
            self.counters.resize_with(other.counters.len(), || None);
        }
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            if let Some(v) = theirs {
                *mine = Some(mine.unwrap_or(0) + v);
            }
        }
    }

    /// Drop all recorded data.
    pub fn clear(&mut self) {
        self.counters.clear();
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
    fn set_and_set_max() {
        let (a, b) = (register("a"), register("b"));
        let mut m = Metrics::new();
        m.set_id(a, 10);
        m.set_id(a, 3);
        assert_eq!(m.counter("a"), 3);
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
        m.set_id(first, 123);
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
