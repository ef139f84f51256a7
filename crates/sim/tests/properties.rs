//! Property-based tests for the simulation kernel: event ordering,
//! RNG statistical sanity, link-model invariants, metrics merging.

use proptest::prelude::*;

use mss_sim::event::{ActorId, Event, EventQueue, TimerId};
use mss_sim::link::{Bandwidth, FixedLatency, GilbertElliott, IidLoss, LinkModel, LinkVerdict};
use mss_sim::metrics::live::{MAILBOX_HWM_ID, RX_FRAMES_ID};
use mss_sim::metrics::session::{
    COORD_LAST_ACTIVATION_NANOS_ID, COORD_MAX_WAVE_ID, COORD_MSGS_ID, LEAF_COMPLETE_NANOS_ID,
};
use mss_sim::metrics::{Kind, MetricId, Metrics, NET_SENT_ID};
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};

fn timer(tag: u64) -> Event<()> {
    Event::Timer {
        actor: ActorId(0),
        timer: TimerId(tag),
        tag,
    }
}

/// `(time, tag)` of a popped [`timer`] event.
fn time_and_tag((t, ev): (SimTime, Event<()>)) -> (u64, u64) {
    match ev {
        Event::Timer { tag, .. } => (t.0, tag),
        _ => unreachable!(),
    }
}

/// Reference scheduler the calendar queue is pinned against: an
/// unordered vec popped by linear min-scan on `(time, seq)` — trivially
/// correct, O(n) per pop, used only at test scale.
#[derive(Default)]
struct RefQueue {
    pending: Vec<(u64, u64)>, // (time, tag == insertion seq)
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, t: u64) -> u64 {
        let tag = self.next_seq;
        self.next_seq += 1;
        self.pending.push((t, tag));
        tag
    }

    fn pop_at_or_before(&mut self, limit: u64) -> Option<(u64, u64)> {
        let (i, &(t, _)) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(t, s))| (t, s))?;
        if t > limit {
            return None;
        }
        Some(self.pending.remove(i))
    }
}

/// Drive the calendar queue and the reference model through the same
/// op sequence — `(kind, x)` decodes to push(time), pop, or
/// pop_at_or_before(limit) — asserting every pop result matches
/// bit-for-bit, then drain both to the end.
///
/// `time_of` shapes the push-time distribution so each caller stresses
/// a different queue regime (dense ties, full-range overflow/rebase
/// churn, sim-like near-horizon clustering).
fn check_against_reference(ops: &[(u8, u64)], mut time_of: impl FnMut(u64, u64) -> u64) {
    let mut q: EventQueue<()> = EventQueue::new();
    let mut r = RefQueue::default();
    let mut clock = 0u64; // last popped time, for clustered pushes
    for &(kind, x) in ops {
        match kind % 3 {
            0 => {
                let t = time_of(x, clock);
                let tag = r.push(t);
                q.push(SimTime(t), timer(tag));
            }
            _ => {
                let limit = if kind % 3 == 1 { u64::MAX } else { x };
                let got = q.pop_at_or_before(SimTime(limit)).map(time_and_tag);
                let want = r.pop_at_or_before(limit);
                prop_assert_eq!(got, want, "pop_at_or_before({}) diverged", limit);
                if let Some((t, _)) = got {
                    clock = t;
                }
            }
        }
        prop_assert_eq!(q.len(), r.pending.len());
    }
    loop {
        let got = q.pop().map(time_and_tag);
        let want = r.pop_at_or_before(u64::MAX);
        prop_assert_eq!(got, want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
}

/// The population-scale session's queue shape, against a binary heap
/// on `(time, seq)`: the calendar is pre-sized the way `Session` sizes
/// it (`reserve` on the empty queue pins it at the maximum bucket count
/// of the fixed ~131 µs width, so no push rebuilds it), a far-future
/// ballast keeps the overflow heap occupied throughout, and every
/// coordination wave is a burst of pushes in random time order
/// confined to three or four buckets a link latency ahead — the case
/// that appends and sorts on arrival. Mixed in: timers scattered around
/// the window's far edge (some file into far buckets out of order,
/// some overflow and migrate in when the window slides, where later
/// direct pushes join them), pushes into the slice being drained, and
/// stale pushes behind it.
fn check_session_shape(ops: &[(u8, u64)]) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const WINDOW: u64 = (1 << 16) << 17; // MAX_BUCKETS × bucket width
    const BALLAST: u64 = 1 << 50;

    let mut q: EventQueue<()> = EventQueue::new();
    q.reserve(800_000);
    let mut r: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |q: &mut EventQueue<()>, r: &mut BinaryHeap<_>, t: u64| {
        r.push(Reverse((t, seq)));
        q.push(SimTime(t), timer(seq));
        seq += 1;
    };
    // The first push anchors the window at time zero; the ballast then
    // lies beyond it, in the overflow heap.
    push(&mut q, &mut r, 0);
    for i in 0..2_100 {
        push(&mut q, &mut r, BALLAST + i % 7);
    }
    let mut clock = 0u64;
    for &(kind, x) in ops {
        let mut z = x | 1;
        let mut next = || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z
        };
        match kind % 8 {
            0..=2 => {
                for _ in 0..1 + x % 48 {
                    push(&mut q, &mut r, clock + 1_000_000 + next() % 400_000);
                }
            }
            3 => {
                for _ in 0..1 + x % 6 {
                    let t = clock + WINDOW - 10_000_000 + next() % 20_000_000;
                    push(&mut q, &mut r, t);
                }
            }
            4 => push(&mut q, &mut r, clock + x % (1 << 17)),
            5 => push(&mut q, &mut r, clock.saturating_sub(x % 50_000)),
            _ => {
                for _ in 0..1 + x % 8 {
                    // The ballast stays put until the final drain:
                    // popping it would park the window past every
                    // later push.
                    let Some(want) = r.peek().map(|r| r.0).filter(|k| k.0 < BALLAST) else {
                        break;
                    };
                    r.pop();
                    let got = q.pop().map(time_and_tag);
                    prop_assert_eq!(got, Some(want), "pop diverged at clock {}", clock);
                    clock = want.0;
                }
            }
        }
        prop_assert_eq!(q.len(), r.len());
    }
    while let Some(Reverse(want)) = r.pop() {
        let got = q.pop().map(time_and_tag);
        prop_assert_eq!(got, Some(want), "drain diverged");
    }
    prop_assert!(q.pop().is_none());
}

/// Declared slots the merge property writes: counts of the kernel, the
/// session and the live plane, and maxima of the last two.
const MERGE_SLOTS: [MetricId; 7] = [
    NET_SENT_ID,
    COORD_MSGS_ID,
    RX_FRAMES_ID,
    COORD_MAX_WAVE_ID,
    COORD_LAST_ACTIVATION_NANOS_ID,
    LEAF_COMPLETE_NANOS_ID,
    MAILBOX_HWM_ID,
];

/// Apply one generated write `(slot, value)` the way its declared kind
/// is written.
fn write(m: &mut Metrics, (slot, v): (u8, u64)) {
    let id = MERGE_SLOTS[slot as usize % MERGE_SLOTS.len()];
    match id.kind() {
        Kind::Count => m.add_id(id, v),
        Kind::Max => m.set_max_id(id, v),
    }
}

/// Observable state of a sink: every counter, in name order.
fn snapshot(m: &Metrics) -> Vec<(String, u64)> {
    m.counters().map(|(k, v)| (k.to_owned(), v)).collect()
}

proptest! {
    /// Pops come out in nondecreasing time order, with insertion order
    /// breaking ties, for any push sequence.
    #[test]
    fn event_queue_is_stable_priority(times in proptest::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), timer(i as u64));
        }
        let mut last: Option<(u64, u64)> = None; // (time, seq)
        while let Some((t, ev)) = q.pop() {
            let Event::Timer { tag, .. } = ev else { unreachable!() };
            if let Some((lt, lseq)) = last {
                prop_assert!(t.0 > lt || (t.0 == lt && tag > lseq),
                    "order violated: ({lt},{lseq}) then ({},{tag})", t.0);
            }
            last = Some((t.0, tag));
        }
    }

    /// Calendar queue matches the reference scheduler bit-for-bit under
    /// randomized push/pop interleavings with dense time ties.
    #[test]
    fn calendar_matches_reference_dense_ties(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400),
    ) {
        check_against_reference(&ops, |x, _| x % 5_000);
    }

    /// Same pin with times drawn from the full u64 range, stressing the
    /// overflow heap, window rebasing, and saturated-window clamping.
    #[test]
    fn calendar_matches_reference_full_range(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300),
    ) {
        check_against_reference(&ops, |x, _| x);
    }

    /// Same pin with sim-like clustering: every push lands a link
    /// latency (~1–2 ms) after the last popped time, as in a
    /// simulated session.
    #[test]
    fn calendar_matches_reference_clustered(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400),
    ) {
        check_against_reference(&ops, |x, clock| {
            clock + 1_000_000 + x % 1_000_000
        });
    }

    /// Same pin in the population-scale session shape (see
    /// `check_session_shape`).
    #[test]
    fn calendar_matches_reference_session_shape(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300),
    ) {
        check_session_shape(&ops);
    }

    /// `sample` is exactly a subset of the pool, distinct, of the
    /// requested size.
    #[test]
    fn rng_sample_contract(pool_size in 0usize..100, k in 0usize..150, seed in any::<u64>()) {
        let pool: Vec<u32> = (0..pool_size as u32).collect();
        let mut rng = SimRng::new(seed);
        let s = rng.sample(&pool, k);
        prop_assert_eq!(s.len(), k.min(pool_size));
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), s.len());
        prop_assert!(s.iter().all(|x| (*x as usize) < pool_size));
    }

    /// `gen_below` is always within bounds; two generators with the same
    /// seed agree, different streams disagree somewhere.
    #[test]
    fn rng_determinism(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.gen_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.gen_below(bound));
        }
        let mut f1 = SimRng::new(seed).fork(1);
        let mut f2 = SimRng::new(seed).fork(2);
        let same = (0..32).filter(|_| f1.next_u64() == f2.next_u64()).count();
        prop_assert!(same < 4);
    }

    /// Link models never deliver into the past, and bandwidth queueing
    /// is monotone per pair.
    #[test]
    fn links_respect_causality(
        sends in proptest::collection::vec((0u64..1_000_000, 1usize..2000), 1..100),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let mut link = Bandwidth::new(
            1_000_000,
            IidLoss {
                p: 0.1,
                inner: FixedLatency::new(SimDuration::from_micros(500)),
            },
        );
        let mut sorted = sends.clone();
        sorted.sort();
        let mut last_arrival = 0u64;
        for (at, bytes) in sorted {
            let now = SimTime(at);
            match link.process(now, ActorId(0), ActorId(1), bytes, &mut rng) {
                LinkVerdict::Deliver(t) => {
                    prop_assert!(t >= now, "delivered into the past");
                    prop_assert!(t.0 >= last_arrival, "per-pair reordering under FIFO bandwidth");
                    last_arrival = t.0;
                }
                LinkVerdict::Drop => {}
            }
        }
    }

    /// Writes to declared counts and maxima, split across 1–4 sinks and
    /// merged in any order, read what one sink that saw every write reads.
    #[test]
    fn merged_sinks_read_like_one_sink_that_saw_every_write(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..40),
        sinks in 1usize..5,
        keys in proptest::collection::vec(any::<u32>(), 4),
    ) {
        let mut whole = Metrics::new();
        let mut parts: Vec<Metrics> = (0..sinks).map(|_| Metrics::new()).collect();
        for &(slot, sink, v) in &writes {
            write(&mut whole, (slot, v));
            write(&mut parts[sink as usize % sinks], (slot, v));
        }
        let mut order: Vec<usize> = (0..sinks).collect();
        order.sort_by_key(|&k| keys[k]);

        // Into an empty sink, in the drawn order.
        let mut merged = Metrics::new();
        for &k in &order {
            merged.merge(&parts[k]);
        }
        prop_assert_eq!(snapshot(&merged), snapshot(&whole));

        // Into the first sink of that order, the rest in reverse.
        let (first, rest) = order.split_first().expect("at least one sink");
        let mut into_first = std::mem::take(&mut parts[*first]);
        for &k in rest.iter().rev() {
            into_first.merge(&parts[k]);
        }
        prop_assert_eq!(snapshot(&into_first), snapshot(&whole));
    }

    /// Gilbert–Elliott marginal loss stays within [loss_good, loss_bad].
    #[test]
    fn gilbert_elliott_marginal_bounds(
        p_gb in 0.001f64..0.2,
        p_bg in 0.01f64..0.5,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let mut ge = GilbertElliott::new(p_gb, p_bg, 0.0, 1.0, FixedLatency::new(SimDuration::ZERO));
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| {
                ge.process(SimTime::ZERO, ActorId(0), ActorId(1), 1, &mut rng)
                    == LinkVerdict::Drop
            })
            .count();
        let rate = drops as f64 / n as f64;
        // Stationary bad-state probability is p_gb/(p_gb+p_bg); allow
        // generous sampling slack.
        let expect = p_gb / (p_gb + p_bg);
        prop_assert!((rate - expect).abs() < 0.1 + expect * 0.5,
            "rate={rate} expect={expect}");
    }
}
