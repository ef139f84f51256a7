//! Run-wide metric collection: named counters.
//!
//! Actors and the scheduler record into a single [`Metrics`] sink; the
//! experiment harness reads it after a run.
//!
//! Every metric the workspace records is declared once, in one `const`
//! table, [`DECLARED`]: a name and a [`Kind`] per row. A [`MetricId`]
//! is a `const` index into that table, so a write is an array index,
//! with no hashing, locking or allocation. The rows fall into three
//! groups: the event kernel's own counters ([`kernel`], also at this
//! module's root), the session's ([`session`], re-exported by
//! `mss_core::metrics`) and the live plane's ([`live`], re-exported by
//! `mss_net::names`). They are all declared here because every crate's
//! counters are read back by name through [`Metrics::counter`], and
//! this crate depends on neither of the others.
//!
//! The kind is the merge rule. [`Metrics::merge`] adds a
//! [`Kind::Count`] and keeps the larger [`Kind::Max`], so a run split
//! over several worlds (shards, live workers) reads its counts as
//! totals and its maxima (the deepest activation wave, the last
//! activation's time) as the largest any world saw. Under
//! `debug_assertions`, a write of the wrong kind fails, and so does a
//! read by a name that is not declared (in release it reads 0).

/// How a metric is written, and how [`Metrics::merge`] combines it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Written by [`Metrics::add_id`] and [`Metrics::incr_id`]; merged
    /// by adding.
    Count,
    /// A running maximum, written by [`Metrics::set_max_id`]; merged by
    /// keeping the larger value.
    Max,
}

/// A declared metric: the index of its row in [`DECLARED`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MetricId(u32);

impl MetricId {
    /// Row of this metric in [`DECLARED`], and its slot in every sink.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The declared name.
    pub const fn name(self) -> &'static str {
        DECLARED[self.index()].0
    }

    /// The declared kind.
    #[inline]
    pub const fn kind(self) -> Kind {
        DECLARED[self.index()].1
    }
}

/// Declares the metric table: per group a module of name constants and
/// their ids, and [`DECLARED`] over every row, in one order.
macro_rules! declare {
    ($(
        $(#[$group_doc:meta])*
        $group:ident {$(
            $(#[$doc:meta])*
            $name:ident / $id:ident = $s:literal, $kind:ident;
        )*}
    )*) => {
        /// One variant per row, in declaration order: its discriminant
        /// is the row's index.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Row { $($($name,)*)* }

        /// Every declared metric, `(name, kind)`, in id order.
        pub const DECLARED: [(&str, Kind); [$($($s,)*)*].len()] = [$($(($s, Kind::$kind),)*)*];

        $(
            $(#[$group_doc])*
            pub mod $group {
                use super::{MetricId, Row};
                $(
                    $(#[$doc])*
                    pub const $name: &str = $s;
                    #[doc = concat!("Slot of [`", stringify!($name), "`], a `", stringify!($kind), "`.")]
                    pub const $id: MetricId = MetricId(Row::$name as u32);
                )*
            }
        )*

        /// Every row's name constant and id, in declaration order.
        #[cfg(test)]
        const ROWS: [(&str, MetricId); DECLARED.len()] = [$($(($group::$name, $group::$id),)*)*];
    };
}

declare! {
    /// The event kernel's counters, written by `World` and `ShardedWorld`.
    kernel {
        /// Messages handed to the link model (including ones later dropped).
        NET_SENT / NET_SENT_ID = "net.sent", Count;
        /// Messages dropped by the link model.
        NET_DROPPED / NET_DROPPED_ID = "net.dropped", Count;
        /// Messages delivered to a live actor.
        NET_DELIVERED / NET_DELIVERED_ID = "net.delivered", Count;
        /// Messages addressed to a crashed/removed actor.
        NET_TO_DEAD / NET_TO_DEAD_ID = "net.to_dead", Count;
        /// Total bytes handed to the link model.
        NET_BYTES_SENT / NET_BYTES_SENT_ID = "net.bytes_sent", Count;
        /// Deliveries timed behind the receiver's clock — a link verdict in
        /// the past, or a cross-shard arrival below the closed window — and
        /// clamped forward. Always zero for an honest link model; a nonzero
        /// count fails the run under `debug_assertions`.
        NET_CLAMPED / NET_CLAMPED_ID = "net.clamped", Count;
    }

    /// A streaming session's counters, written by the `mss-core` peers
    /// and leaf; `mss_core::metrics` re-exports them.
    session {
        /// Every coordination message sent (requests, controls, probes,
        /// replies, commits) — the quantity on Figures 10/11's dotted lines.
        COORD_MSGS / COORD_MSGS_ID = "coord.msgs", Count;
        /// Bytes of coordination messages under the *paper model* (fixed
        /// `n/8`-byte view bitmaps, field-count estimates —
        /// `Msg::model_size`). Kept as the historical accounting so the
        /// Figure 10/11 series stay comparable across revisions;
        /// [`COORD_BYTES_TX`] carries the bytes a codec actually puts on
        /// the wire.
        COORD_BYTES / COORD_BYTES_ID = "coord.bytes", Count;
        /// Bytes of coordination traffic as actually transmitted: exact
        /// codec frame lengths with adaptive view encodings
        /// (`Msg::wire_size`).
        COORD_BYTES_TX / COORD_BYTES_TX_ID = "coord.bytes_tx", Count;
        /// Written with the [`COORD_BYTES_TX`] value: every view travels as
        /// a full frame, so "priced as full" is what was transmitted. Kept
        /// for readers that compare both series.
        COORD_BYTES_FULL / COORD_BYTES_FULL_ID = "coord.bytes_full", Count;
        /// Snapshot of [`COORD_MSGS`] taken at each first-activation; its
        /// final value is the message count *until all peers started
        /// transmitting*. A world advances it by what it sent since its
        /// previous snapshot, so merged over a run's worlds it reads the sum
        /// of their snapshots.
        COORD_MSGS_AT_ACTIVATION / COORD_MSGS_AT_ACTIVATION_ID = "coord.msgs_at_activation", Count;
        /// Number of contents peers that activated.
        COORD_ACTIVATIONS / COORD_ACTIVATIONS_ID = "coord.activations", Count;
        /// Maximum activation wave (DCoP/broadcast/unicast rounds).
        COORD_MAX_WAVE / COORD_MAX_WAVE_ID = "coord.max_wave", Max;
        /// Maximum probe wave executed (TCoP; one wave = 3 protocol rounds).
        COORD_PROBE_WAVES / COORD_PROBE_WAVES_ID = "coord.probe_waves", Max;
        /// Snapshot of [`COORD_PROBE_WAVES`] at each first-activation: probe
        /// waves needed *to synchronize*, excluding post-activation retries.
        COORD_PROBE_WAVES_AT_ACTIVATION / COORD_PROBE_WAVES_AT_ACTIVATION_ID =
            "coord.probe_waves_at_activation", Max;
        /// Virtual time (nanos) of the last first-activation.
        COORD_LAST_ACTIVATION_NANOS / COORD_LAST_ACTIVATION_NANOS_ID =
            "coord.last_activation_nanos", Max;
        /// Fixed round count for protocols with a constant-round structure
        /// (centralized 2PC = 3).
        COORD_FIXED_ROUNDS / COORD_FIXED_ROUNDS_ID = "coord.fixed_rounds", Max;
        /// Control packets whose kind the receiving protocol does not handle
        /// (e.g. an `Announce` reaching a DCoP peer). Such packets are
        /// dropped — this counter makes the drop observable instead of
        /// silently treating the packet as whatever kind the handler
        /// expected.
        COORD_UNEXPECTED_KIND / COORD_UNEXPECTED_KIND_ID = "coord.unexpected_kind", Count;
        /// [`COORD_BYTES_TX`] of content requests.
        COORD_BYTES_TX_REQUEST / COORD_BYTES_TX_REQUEST_ID = "coord.bytes_tx.request", Count;
        /// [`COORD_BYTES_TX`] of DCoP activations.
        COORD_BYTES_TX_ACTIVATE / COORD_BYTES_TX_ACTIVATE_ID = "coord.bytes_tx.activate", Count;
        /// [`COORD_BYTES_TX`] of TCoP probes.
        COORD_BYTES_TX_PROBE / COORD_BYTES_TX_PROBE_ID = "coord.bytes_tx.probe", Count;
        /// [`COORD_BYTES_TX`] of TCoP commits.
        COORD_BYTES_TX_COMMIT / COORD_BYTES_TX_COMMIT_ID = "coord.bytes_tx.commit", Count;
        /// [`COORD_BYTES_TX`] of broadcast announcements.
        COORD_BYTES_TX_ANNOUNCE / COORD_BYTES_TX_ANNOUNCE_ID = "coord.bytes_tx.announce", Count;
        /// [`COORD_BYTES_TX`] of TCoP probe replies.
        COORD_BYTES_TX_REPLY / COORD_BYTES_TX_REPLY_ID = "coord.bytes_tx.reply", Count;
        /// [`COORD_BYTES_TX`] of the centralized baseline's 2PC messages.
        COORD_BYTES_TX_TWOPHASE / COORD_BYTES_TX_TWOPHASE_ID = "coord.bytes_tx.twophase", Count;
        /// [`COORD_BYTES_TX`] of the leaf-schedule baseline's assignments.
        COORD_BYTES_TX_ASSIGN / COORD_BYTES_TX_ASSIGN_ID = "coord.bytes_tx.assign", Count;
        /// [`COORD_BYTES_TX`] of the leaf's NACKs.
        COORD_BYTES_TX_NACK / COORD_BYTES_TX_NACK_ID = "coord.bytes_tx.nack", Count;
        /// Data packets sent by contents peers.
        DATA_MSGS / DATA_MSGS_ID = "data.msgs", Count;
        /// NACK rounds the leaf sent.
        REPAIR_ROUNDS / REPAIR_ROUNDS_ID = "repair.rounds", Count;
        /// NACKs served by contents peers.
        REPAIR_REQUESTS / REPAIR_REQUESTS_ID = "repair.requests", Count;
        /// Data packets retransmitted in answer to NACKs.
        REPAIR_PACKETS / REPAIR_PACKETS_ID = "repair.packets", Count;
        /// Virtual time (nanos) at which the leaf held every data packet.
        LEAF_COMPLETE_NANOS / LEAF_COMPLETE_NANOS_ID = "leaf.complete_nanos", Max;
    }

    /// The live plane's counters, written by the `mss-net` workers;
    /// `mss_net::names` re-exports them.
    live {
        /// `recvmmsg` (or fallback) batches that returned at least one
        /// datagram.
        RX_BATCHES / RX_BATCHES_ID = "net.rx_batches", Count;
        /// Datagrams (bundles) received.
        RX_DATAGRAMS / RX_DATAGRAMS_ID = "net.rx_datagrams", Count;
        /// Frames (bundle records) addressed to a receiver the receiving
        /// worker hosts, decodable or not.
        RX_FRAMES / RX_FRAMES_ID = "net.rx_frames", Count;
        /// Largest receive batch, in datagrams: the maximum over workers.
        RX_BATCH_MAX / RX_BATCH_MAX_ID = "net.rx_batch_max", Max;
        /// Datagrams (bundles — each may carry many frames) the kernel
        /// dropped at a full receive queue (`SO_RXQ_OVFL`).
        RX_DROPPED / RX_DROPPED_ID = "net.rx_dropped", Count;
        /// Malformed input, skipped: a bundle record that was truncated,
        /// overlong or shorter than its routing prefix (one count, and the
        /// rest of that datagram is discarded), a frame that does not
        /// decode, or a message that does not fit the session
        /// (`Msg::fits`).
        RX_DECODE_ERR / RX_DECODE_ERR_ID = "net.rx_decode_err", Count;
        /// Frames addressed to a receiver the receiving worker does not
        /// host.
        RX_UNROUTABLE / RX_UNROUTABLE_ID = "net.rx_unroutable", Count;
        /// Most frames one worker queued into its world before one
        /// `run_until`: its receive pass plus the passes it makes between
        /// bursts of its own sends. A per-layer metric of how much work one
        /// loop turn takes on, not an end-to-end one (the name outlived the
        /// per-peer mailboxes it once measured). The maximum over workers.
        MAILBOX_HWM / MAILBOX_HWM_ID = "net.mailbox_hwm", Max;
        /// `sendmmsg` (or fallback) calls made.
        TX_BATCHES / TX_BATCHES_ID = "net.tx_batches", Count;
        /// Datagrams (bundles) handed to the kernel.
        TX_DATAGRAMS / TX_DATAGRAMS_ID = "net.tx_datagrams", Count;
        /// Frames (bundle records) written into datagrams.
        TX_FRAMES / TX_FRAMES_ID = "net.tx_frames", Count;
        /// Largest send burst, in datagrams: the maximum over workers.
        TX_BATCH_MAX / TX_BATCH_MAX_ID = "net.tx_batch_max", Max;
        /// Sends that never reached the kernel: datagrams (bundles) it
        /// refused, plus — one count per frame — messages
        /// `LiveSession::loss` dropped before bundling and frames too large
        /// for any datagram.
        TX_DROPPED / TX_DROPPED_ID = "net.tx_dropped", Count;
        /// Receive buffer the kernel granted per worker socket (the largest).
        RCVBUF_BYTES / RCVBUF_BYTES_ID = "net.rcvbuf_bytes", Max;
        /// 1 when the batched syscalls are in use, 0 on the fallback path.
        MMSG_ACTIVE / MMSG_ACTIVE_ID = "net.mmsg_active", Max;
        /// 1 when every worker socket reports receive-queue overflow counts.
        RXQ_OVFL_COUNTED / RXQ_OVFL_COUNTED_ID = "net.rxq_ovfl_counted", Max;
        /// Control frames written by copying the record of an earlier
        /// handle on the same fan-out body instead of encoding it (encodes
        /// skipped).
        TX_BODIES_SHARED / TX_BODIES_SHARED_ID = "net.tx_bodies_shared", Count;
        /// Control frames answered from a body the worker already decoded
        /// for another recipient of the same fan-out (decodes skipped).
        RX_BODIES_SHARED / RX_BODIES_SHARED_ID = "net.rx_bodies_shared", Count;
        /// Decoded fan-out bodies workers still held when they exited
        /// (summed over workers; the decode tables hold at most one per
        /// sender).
        RX_BODIES_HELD / RX_BODIES_HELD_ID = "net.rx_bodies_held", Count;
        /// Nanoseconds workers spent outside `epoll_wait` (summed over
        /// workers; `LiveOutcome::worker_busy` has them per worker); read
        /// against `LiveOutcome::time_to_done` it says how busy the workers
        /// were.
        WORKER_BUSY_NS / WORKER_BUSY_NS_ID = "net.worker_busy_ns", Count;
    }
}

pub use kernel::*;

/// Named counters for one simulation run.
///
/// One slot per row of [`DECLARED`]; `None` means "never written", so
/// only metrics a run actually touched appear in iteration.
pub struct Metrics {
    counters: [Option<u64>; DECLARED.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Empty sink.
    pub const fn new() -> Self {
        Metrics {
            counters: [None; DECLARED.len()],
        }
    }

    /// Add `v` to the count in slot `id` (creating it at zero).
    #[inline]
    pub fn add_id(&mut self, id: MetricId, v: u64) {
        debug_assert!(id.kind() == Kind::Count, "{} is not a count", id.name());
        let s = &mut self.counters[id.index()];
        *s = Some(s.unwrap_or(0) + v);
    }

    /// Increment the count in slot `id` by one.
    #[inline]
    pub fn incr_id(&mut self, id: MetricId) {
        self.add_id(id, 1);
    }

    /// Raise the maximum in slot `id` to `v` if larger.
    #[inline]
    pub fn set_max_id(&mut self, id: MetricId, v: u64) {
        debug_assert!(id.kind() == Kind::Max, "{} is not a maximum", id.name());
        let s = &mut self.counters[id.index()];
        *s = Some(s.map_or(v, |c| c.max(v)));
    }

    /// Current value of slot `id` (0 if never written).
    #[inline]
    pub fn counter_id(&self, id: MetricId) -> u64 {
        self.counters[id.index()].unwrap_or(0)
    }

    /// Current value of the metric declared as `name` (0 if never
    /// written). An undeclared name fails under `debug_assertions` and
    /// reads 0 otherwise.
    pub fn counter(&self, name: &str) -> u64 {
        let row = DECLARED.iter().position(|&(declared, _)| declared == name);
        debug_assert!(row.is_some(), "metric {name:?} is not declared");
        row.map_or(0, |i| self.counters[i].unwrap_or(0))
    }

    /// Iterate the written counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = DECLARED
            .iter()
            .zip(&self.counters)
            .filter_map(|(&(name, _), c)| c.map(|v| (name, v)))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out.into_iter()
    }

    /// Fold another sink into this one, slot by slot, by each slot's
    /// declared [`Kind`]: a count adds, a maximum keeps the larger.
    pub fn merge(&mut self, other: &Metrics) {
        for ((mine, theirs), &(_, kind)) in
            self.counters.iter_mut().zip(&other.counters).zip(&DECLARED)
        {
            if let Some(v) = *theirs {
                *mine = Some(match (*mine, kind) {
                    (None, _) => v,
                    (Some(c), Kind::Count) => c + v,
                    (Some(c), Kind::Max) => c.max(v),
                });
            }
        }
    }

    /// Drop all recorded data.
    pub fn clear(&mut self) {
        *self = Metrics::new();
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
    use super::session::*;
    use super::*;
    use crate::event::{ActorId, TimerId};

    /// Names are unique, every id is its own row and names its own
    /// constant, and a sink with every slot written lists them all in
    /// name order.
    #[test]
    fn the_declaration_table_is_one_row_per_name_in_id_order() {
        let mut names: Vec<&str> = DECLARED.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DECLARED.len(), "a name is declared twice");
        let mut m = Metrics::new();
        for (row, &(name, id)) in ROWS.iter().enumerate() {
            assert_eq!(id.index(), row, "{name}");
            assert_eq!(id.name(), name);
            match id.kind() {
                Kind::Count => m.add_id(id, row as u64 + 1),
                Kind::Max => m.set_max_id(id, row as u64 + 1),
            }
        }
        let listed: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(listed, names);
        for &(name, id) in &ROWS {
            assert_eq!(m.counter(name), id.index() as u64 + 1);
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr_id(NET_SENT_ID);
        m.add_id(NET_SENT_ID, 4);
        m.incr_id(NET_DROPPED_ID);
        assert_eq!(m.counter(NET_SENT), 5);
        assert_eq!(m.counter(NET_DROPPED), 1);
        assert_eq!(m.counter(NET_DELIVERED), 0);
    }

    #[test]
    fn set_max_keeps_the_largest() {
        let mut m = Metrics::new();
        m.set_max_id(COORD_MAX_WAVE_ID, 5);
        m.set_max_id(COORD_MAX_WAVE_ID, 2);
        m.set_max_id(COORD_MAX_WAVE_ID, 9);
        assert_eq!(m.counter(COORD_MAX_WAVE), 9);
    }

    #[test]
    fn merge_combines_both_kinds() {
        // `NET_SENT` is written in both sinks, `NET_DROPPED` only in
        // the one merged in.
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add_id(NET_SENT_ID, 1);
        b.add_id(NET_SENT_ID, 2);
        b.add_id(NET_DROPPED_ID, 3);
        a.merge(&b);
        assert_eq!(a.counter(NET_SENT), 3);
        assert_eq!(a.counter(NET_DROPPED), 3);
    }

    /// Two worlds that each saw a deepest wave of 7 saw a deepest wave
    /// of 7, and their counts still add.
    #[test]
    fn merge_sums_counts_and_keeps_maxima_maxima() {
        let (count, max) = (COORD_ACTIVATIONS_ID, COORD_MAX_WAVE_ID);
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

    /// A maximum only the merged-in sink holds stays a maximum: merging
    /// it into an empty sink twice reads the maximum, not twice it.
    #[test]
    fn a_maximum_only_the_merged_sink_holds_stays_a_maximum() {
        let max = COORD_LAST_ACTIVATION_NANOS_ID;
        let mut shard = Metrics::new();
        shard.set_max_id(max, 14);
        let mut merged = Metrics::new();
        merged.merge(&shard);
        assert_eq!(merged.counter_id(max), 14);
        merged.merge(&shard);
        assert_eq!(merged.counter_id(max), 14);
    }

    /// Every timer `k` counts one activation and raises the deepest
    /// wave to `k`.
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
            m.incr_id(COORD_ACTIVATIONS_ID);
            m.set_max_id(COORD_MAX_WAVE_ID, k);
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
        assert_eq!(world.metrics().counter(COORD_ACTIVATIONS), 6);
        assert_eq!(world.metrics().counter(COORD_MAX_WAVE), 3);
        world.run_until(SimTime::MAX);
        assert_eq!(world.metrics().counter(COORD_ACTIVATIONS), 10);
        assert_eq!(world.metrics().counter(COORD_MAX_WAVE), 6);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.incr_id(REPAIR_ROUNDS_ID);
        m.incr_id(COORD_MSGS_ID);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec![COORD_MSGS, REPAIR_ROUNDS]);
    }

    #[test]
    fn clear_empties() {
        let mut m = Metrics::new();
        m.incr_id(NET_SENT_ID);
        m.set_max_id(COORD_MAX_WAVE_ID, 3);
        m.clear();
        assert_eq!(m.counter(NET_SENT), 0);
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn unwritten_slots_do_not_appear_in_iteration() {
        let mut m = Metrics::new();
        m.incr_id(DATA_MSGS_ID);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![(DATA_MSGS, 1)]);
        assert_eq!(m.counter(REPAIR_PACKETS), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "coord.max_wave is not a count")]
    fn adding_to_a_maximum_fails_in_debug_builds() {
        Metrics::new().add_id(COORD_MAX_WAVE_ID, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "coord.msgs is not a maximum")]
    fn raising_a_count_fails_in_debug_builds() {
        Metrics::new().set_max_id(COORD_MSGS_ID, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "metric \"net.view_resync_fallbacks\" is not declared")]
    fn reading_an_undeclared_name_fails_in_debug_builds() {
        Metrics::new().counter("net.view_resync_fallbacks");
    }
}
