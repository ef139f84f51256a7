//! Transmission-schedule machinery: `Mark`, postfix derivation,
//! re-division, rates, and multi-parent merging (§3.3–§3.4).
//!
//! Rates are carried as per-packet intervals in nanoseconds. A division
//! into `parts` with parity interval `h` turns a schedule of rate `r`
//! into `parts` schedules of rate `r·(h+1)/(h·parts)` each — the paper's
//! `τ_i := c.τ(h+1)/(h·H)` — so the subtree's aggregate rate carries the
//! parity overhead `(h+1)/h`. Whether that overhead compounds with tree
//! depth is governed by [`Reenhance`].

use std::sync::Arc;

use mss_media::parity::{enhance, Coding};
use mss_media::{PacketId, PacketSeq, SeqView};

use crate::config::Reenhance;

/// A peer's live transmission schedule.
///
/// Interval sentinel: an `interval_nanos` of `0` or `u64::MAX` both mean
/// *no steady rate* — the schedule is idle (nothing is paced by it).
/// `u64::MAX` is what [`TxSchedule::idle`] produces; `0` can reach a peer
/// in a malformed or degenerate control packet and must read the same
/// way, never as "infinitely fast". Every consumer of the field
/// ([`TxSchedule::rate_pps`], [`harmonic_interval`], [`mark_position`])
/// goes through [`idle_interval`] so the two encodings stay
/// interchangeable.
#[derive(Clone, Debug, PartialEq)]
pub struct TxSchedule {
    /// Packets to send, in order — a strided view into the refcounted
    /// division basis, so cloning a schedule or dealing out a round-robin
    /// part is O(1): an `Arc` bump plus stride arithmetic, never an
    /// element copy (see [`mss_media::SeqView`]). A shared base is never
    /// written: [`TxSchedule::merge`] writes only a base it holds alone.
    pub seq: SeqView,
    /// Index of the next packet to send.
    pub pos: usize,
    /// Nanoseconds between consecutive packet transmissions; `0` and
    /// `u64::MAX` both denote "idle, no steady rate" (see type docs).
    pub interval_nanos: u64,
    /// Delay before the *first* transmission: part `i` of a division is
    /// phase-shifted by `i` enhanced-stream slots so the `parts` senders
    /// interleave instead of bursting together — without this, a sender
    /// holding a single packet would sit idle for one whole `interval`
    /// (the entire window) before sending it.
    pub first_delay_nanos: u64,
}

impl TxSchedule {
    /// An empty, idle schedule.
    pub fn idle() -> TxSchedule {
        TxSchedule {
            seq: SeqView::empty(),
            pos: 0,
            interval_nanos: u64::MAX,
            first_delay_nanos: u64::MAX,
        }
    }

    /// Delay before the next transmission: the phase offset for the first
    /// packet, the steady interval afterwards.
    pub fn delay_for_next(&self) -> u64 {
        if self.pos == 0 {
            self.first_delay_nanos
        } else {
            self.interval_nanos
        }
    }

    /// True when every packet has been sent.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.seq.len()
    }

    /// Packets not yet sent, materialized.
    pub fn remaining(&self) -> PacketSeq {
        PacketSeq::from_ids(self.seq.iter_from(self.pos).cloned().collect())
    }

    /// Merge a new assignment into this running schedule — the DCoP
    /// multi-parent rule `pkt_i := pkt_i ∪ pkt_ji` (§3.3): the unsent
    /// remainder is unioned with it ([`SeqView::union_from`], in place
    /// when this schedule holds its base alone) and the rates add
    /// (harmonic interval), since the child must deliver both parents'
    /// shares on time. Single-sided unions are just a reference to the
    /// surviving side: an O(1) suffix view when the incoming part is
    /// empty (deep divisions hand out many), the incoming view when
    /// nothing is left unsent.
    pub fn merge(&mut self, incoming: &TxSchedule) {
        let interval = harmonic_interval(self.interval_nanos, incoming.interval_nanos);
        let first_delay = self
            .delay_for_next()
            .min(incoming.first_delay_nanos)
            .min(interval);
        if incoming.seq.is_empty() {
            self.seq = self.seq.suffix(self.pos);
        } else if self.exhausted() {
            self.seq = incoming.seq.clone();
        } else {
            self.seq.union_from(self.pos, &incoming.seq);
        }
        self.pos = 0;
        self.interval_nanos = interval;
        self.first_delay_nanos = first_delay;
    }

    /// Sending rate in packets/second (0 when idle).
    pub fn rate_pps(&self) -> f64 {
        if idle_interval(self.interval_nanos) || self.exhausted() {
            0.0
        } else {
            1e9 / self.interval_nanos as f64
        }
    }
}

/// True when `nanos` is one of the two "no steady rate" sentinel values
/// (see [`TxSchedule`] docs).
pub fn idle_interval(nanos: u64) -> bool {
    nanos == 0 || nanos == u64::MAX
}

/// Interval after dividing a rate-`interval` stream into `parts` with
/// parity interval `h`: `interval · h · parts / (h + 1)`.
///
/// (Dividing slows each sender down by `parts`, re-enhancement speeds the
/// aggregate up by `(h+1)/h`.)
pub fn divided_interval(interval_nanos: u64, h: usize, parts: usize) -> u64 {
    // `h` and `parts` come off the wire in control packets; a malformed
    // zero must not crash the peer, so clamp instead of panicking.
    debug_assert!(h >= 1 && parts >= 1, "divided_interval({h}, {parts})");
    let num = interval_nanos as u128 * h.max(1) as u128 * parts.max(1) as u128;
    let den = (h.max(1) + 1) as u128;
    (num / den).max(1) as u64
}

/// The initial assignment a contents peer derives from the leaf's content
/// request (§3.4 step 2): its part of `Div(Esq(pkt, h), parts)`.
pub fn initial_assignment(
    content_packets: u64,
    h: usize,
    parts: usize,
    part: usize,
    content_interval_nanos: u64,
) -> TxSchedule {
    initial_assignment_opts(
        content_packets,
        h,
        parts,
        part,
        content_interval_nanos,
        true,
        Coding::Xor,
    )
}

/// [`initial_assignment`] with explicit trailing-segment parity handling
/// (see [`mss_media::parity::esq_opts`]).
#[allow(clippy::too_many_arguments)]
pub fn initial_assignment_opts(
    content_packets: u64,
    h: usize,
    parts: usize,
    part: usize,
    content_interval_nanos: u64,
    tail_parity: bool,
    coding: Coding,
) -> TxSchedule {
    let enhanced = Arc::new(enhance(
        &PacketSeq::data_range(content_packets),
        h,
        tail_parity,
        coding,
    ));
    initial_assignment_from_enhanced(
        &enhanced,
        content_packets,
        parts,
        part,
        content_interval_nanos,
    )
}

/// The division step of [`initial_assignment_opts`] given an
/// already-enhanced content stream. The enhanced sequence depends only on
/// `(content_packets, h, tail_parity, coding)` — constants of a session —
/// so a plane hosting many peers computes it once
/// ([`crate::plane::RoundShared::enhanced_content`]) and each activation
/// takes its part as an O(1) strided view of the shared sequence.
pub fn initial_assignment_from_enhanced(
    enhanced: &Arc<PacketSeq>,
    content_packets: u64,
    parts: usize,
    part: usize,
    content_interval_nanos: u64,
) -> TxSchedule {
    let slot = (content_interval_nanos as u128 * content_packets as u128
        / enhanced.len().max(1) as u128)
        .max(1) as u64;
    DivisionBasis::new(enhanced.clone(), slot).assign(parts, part)
}

/// Heterogeneous initial assignment (the paper's §2 allocation applied
/// to the §3 division, and its §5 future work): the enhanced sequence is
/// dealt to the initially selected peers *in proportion to their
/// bandwidths* using the time-slot algorithm, instead of round-robin.
/// Each peer is paced so that it finishes its share exactly when the
/// whole content finishes at the content rate — a peer with twice the
/// bandwidth carries twice the packets at twice the rate.
#[allow(clippy::too_many_arguments)]
pub fn weighted_initial_assignment(
    content_packets: u64,
    h: usize,
    weights: &[u64],
    my_index: usize,
    content_interval_nanos: u64,
    tail_parity: bool,
    coding: Coding,
) -> TxSchedule {
    let enhanced = enhance(
        &PacketSeq::data_range(content_packets),
        h,
        tail_parity,
        coding,
    );
    weighted_initial_from_enhanced(
        &enhanced,
        content_packets,
        weights,
        my_index,
        content_interval_nanos,
    )
}

/// The allocation step of [`weighted_initial_assignment`] given an
/// already-enhanced content stream (see
/// [`initial_assignment_from_enhanced`] for why the enhancement is
/// computed separately).
pub fn weighted_initial_from_enhanced(
    enhanced: &PacketSeq,
    content_packets: u64,
    weights: &[u64],
    my_index: usize,
    content_interval_nanos: u64,
) -> TxSchedule {
    // `my_index` is derived from a control packet; an out-of-range value
    // means the sender allocated us nothing — idle, not a crash.
    debug_assert!(my_index < weights.len(), "{my_index} ≥ {}", weights.len());
    if my_index >= weights.len() {
        return TxSchedule::idle();
    }
    let e = enhanced.len();
    if e == 0 {
        return TxSchedule::idle();
    }
    let alloc = mss_media::slots::allocate(weights, e as u64);
    let mine = &alloc.per_channel[my_index]; // 1-based positions into `enhanced`
    if mine.is_empty() {
        return TxSchedule::idle();
    }
    let seq = PacketSeq::from_ids(
        mine.iter()
            .map(|&pos| enhanced.ids()[(pos - 1) as usize].clone())
            .collect(),
    );
    // The whole enhanced stream spans the content window.
    let window = content_interval_nanos as u128 * content_packets as u128;
    let count = mine.len() as u128;
    let interval = (window / count).max(1) as u64;
    let first_delay = ((window * mine[0] as u128) / e as u128).max(1) as u64;
    TxSchedule {
        seq: seq.into(),
        pos: 0,
        interval_nanos: interval,
        first_delay_nanos: first_delay,
    }
}

/// `Mark`: the position in the parent's schedule the division applies
/// from. The parent sent the control packet when about to transmit
/// position `pos_at_send`; by the switch instant `δ` later it has sent
/// `δ / τ_j` more packets.
pub fn mark_position(pos_at_send: usize, interval_nanos: u64, delta_nanos: u64) -> usize {
    if idle_interval(interval_nanos) {
        return pos_at_send;
    }
    pos_at_send + (delta_nanos / interval_nanos) as usize
}

/// Derive one part of a divided schedule from the parent's schedule:
/// postfix from the mark, re-protected with parity interval `h`, dealt
/// into `parts` round-robin subsequences (§3.4 step 3; parent keeps part
/// 0, children get parts 1…).
///
/// Under [`Reenhance::DataOnly`] the postfix's old parity packets are
/// replaced by fresh parity over its data, keeping parity density at
/// `1/h` regardless of tree depth; [`Reenhance::Nested`] re-enhances the
/// enhanced postfix as-is (the paper's §3.6 nested-parity examples).
///
/// The per-part interval paces the division so that its `parts` senders
/// jointly finish when the undivided postfix would have:
/// `interval · |postfix| · parts / |division|` — which reduces to the
/// paper's `τ_i = τ_j(h+1)/(h(H+1))` when the lengths divide evenly.
#[allow(clippy::too_many_arguments)]
pub fn derived_assignment(
    parent_sched: &SeqView,
    pos_at_send: usize,
    parent_interval_nanos: u64,
    delta_nanos: u64,
    h: usize,
    parts: usize,
    part: usize,
    mode: Reenhance,
) -> TxSchedule {
    derived_assignment_opts(
        parent_sched,
        pos_at_send,
        parent_interval_nanos,
        delta_nanos,
        h,
        parts,
        part,
        mode,
        true,
        Coding::Xor,
    )
}

/// [`derived_assignment`] with explicit trailing-segment parity handling
/// (see [`mss_media::parity::esq_opts`]).
#[allow(clippy::too_many_arguments)]
pub fn derived_assignment_opts(
    parent_sched: &SeqView,
    pos_at_send: usize,
    parent_interval_nanos: u64,
    delta_nanos: u64,
    h: usize,
    parts: usize,
    part: usize,
    mode: Reenhance,
    tail_parity: bool,
    coding: Coding,
) -> TxSchedule {
    DivisionBasis::derive(
        parent_sched,
        pos_at_send,
        parent_interval_nanos,
        delta_nanos,
        h,
        mode,
        tail_parity,
        coding,
    )
    .assign(parts, part)
}

/// The part-independent half of a division: the re-protected postfix
/// every part is dealt from, plus the pacing of one enhanced-stream
/// slot.
///
/// All `parts` schedules of one fan-out — the parent's own part 0 and
/// each child's part — derive from identical inputs except the part
/// index, so the mark/postfix/re-enhance work is the same computation
/// repeated `parts` times. A parent computes the basis once
/// ([`DivisionBasis::derive`]) and ships it inside the control packet as
/// a derivation cache; every receiver then deals out its own part with
/// [`DivisionBasis::assign`] in O(1) — a strided [`SeqView`] over the
/// shared basis, no element ever copied. The wire format is unchanged:
/// like the in-memory `sched`, the basis is re-derivable from the
/// packet's recipe fields, so it contributes nothing to `Msg`'s
/// [`wire_size`](mss_sim::world::SimMessage::wire_size) and codecs
/// simply drop it (a decoding receiver falls back to deriving from the
/// recipe — bit-identical, per this type's contract).
#[derive(Clone, Debug, PartialEq)]
pub struct DivisionBasis {
    /// The re-protected postfix the division deals out round-robin,
    /// never empty; `None` ⇔ every part of this division is
    /// [`TxSchedule::idle`], and an idle division allocates nothing.
    pub enhanced: Option<Arc<PacketSeq>>,
    /// Pacing of one enhanced-stream slot in nanoseconds: part `i` of
    /// `parts` sends every `slot · parts` ns starting at `slot · (i+1)`.
    pub slot_nanos: u64,
}

impl DivisionBasis {
    /// Basis over an already-enhanced sequence with an explicit slot —
    /// the initial-division form, where `enhanced` is the protected full
    /// content and the slot is one content-rate packet interval.
    pub fn new(enhanced: Arc<PacketSeq>, slot_nanos: u64) -> DivisionBasis {
        DivisionBasis {
            enhanced: (!enhanced.is_empty()).then_some(enhanced),
            slot_nanos,
        }
    }

    /// A basis whose every assignment is idle. It holds no sequence:
    /// nearly every division at population scale is idle (99.4 % of
    /// them at n = 10⁵, where the parent's postfix is empty).
    fn idle() -> DivisionBasis {
        DivisionBasis {
            enhanced: None,
            slot_nanos: u64::MAX,
        }
    }

    /// Compute the shared basis of a division of `parent_sched` (see
    /// [`derived_assignment_opts`] for the semantics of each argument).
    #[allow(clippy::too_many_arguments)]
    pub fn derive(
        parent_sched: &SeqView,
        pos_at_send: usize,
        parent_interval_nanos: u64,
        delta_nanos: u64,
        h: usize,
        mode: Reenhance,
        tail_parity: bool,
        coding: Coding,
    ) -> DivisionBasis {
        let mark = mark_position(pos_at_send, parent_interval_nanos, delta_nanos);
        // The postfix is iterated straight off the parent's view — never
        // materialized: every mode below builds its (re-protected) basis
        // in one pass over `iter_from(mark)`.
        let postfix_len = parent_sched.len().saturating_sub(mark);
        if postfix_len == 0 {
            return DivisionBasis::idle();
        }
        let postfix = parent_sched.iter_from(mark);
        if mode == Reenhance::None {
            return DivisionBasis::new(
                Arc::new(PacketSeq::from_ids(postfix.cloned().collect())),
                parent_interval_nanos,
            );
        }
        let basis = match mode {
            Reenhance::None => unreachable!("handled above"),
            Reenhance::Nested => PacketSeq::from_ids(postfix.cloned().collect()),
            // Distinct data packets only: parity is regenerated fresh, and
            // `h = 1` duplicates (parity of a single packet IS that packet)
            // must not multiply across division levels.
            Reenhance::DataOnly => {
                // Enhanced/divided schedules keep data seqs strictly
                // ascending, so one ordered pass usually proves
                // distinctness; only out-of-order postfixes (multi-parent
                // merges) pay for a dedup set.
                let mut data: Vec<PacketId> = Vec::with_capacity(postfix_len);
                let mut last = 0u64; // data seqs start at 1
                let mut ascending = true;
                for p in postfix.clone() {
                    if let PacketId::Data(s) = p {
                        if s.0 <= last {
                            ascending = false;
                            break;
                        }
                        last = s.0;
                        data.push(p.clone());
                    }
                }
                if !ascending {
                    data.clear();
                    let mut seen = mss_media::fxhash::FxHashSet::default();
                    data.extend(
                        postfix
                            .filter(|p| matches!(p, PacketId::Data(s) if seen.insert(s.0)))
                            .cloned(),
                    );
                }
                PacketSeq::from_ids(data)
            }
        };
        let enhanced = enhance(&basis, h, tail_parity, coding);
        if enhanced.is_empty() {
            return DivisionBasis::idle();
        }
        let slot = (parent_interval_nanos as u128 * postfix_len as u128 / enhanced.len() as u128)
            .max(1) as u64;
        DivisionBasis::new(Arc::new(enhanced), slot)
    }

    /// Deal out part `part` of `parts`. With the same inputs this returns
    /// exactly what [`derived_assignment_opts`] returns — that function
    /// *is* `derive(..).assign(parts, part)`.
    ///
    /// O(1): the part is a strided [`SeqView`] over the shared basis
    /// (an `Arc` bump plus stride arithmetic) — every receiver of one
    /// fan-out reads its share out of the same underlying sequence.
    pub fn assign(&self, parts: usize, part: usize) -> TxSchedule {
        let Some(enhanced) = &self.enhanced else {
            return TxSchedule::idle();
        };
        TxSchedule {
            seq: SeqView::part(enhanced.clone(), parts, part),
            pos: 0,
            interval_nanos: self.slot_nanos.saturating_mul(parts as u64),
            first_delay_nanos: self.slot_nanos.saturating_mul(part as u64 + 1),
        }
    }
}

/// [`TxSchedule::merge`] into a copy of `current`, which shares its base,
/// so `current` is left as it was.
pub fn merge_assignment(current: &TxSchedule, incoming: &TxSchedule) -> TxSchedule {
    let mut merged = current.clone();
    merged.merge(incoming);
    merged
}

/// Interval of the combined stream of two senders merged into one: rates
/// add, so intervals combine harmonically (`a·b/(a+b)`). An idle operand
/// (`0` or `u64::MAX`, see [`TxSchedule`] docs) contributes no rate, so
/// the other interval passes through unchanged.
pub fn harmonic_interval(a: u64, b: u64) -> u64 {
    if idle_interval(a) {
        return b;
    }
    if idle_interval(b) {
        return a;
    }
    ((a as u128 * b as u128) / (a as u128 + b as u128)).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::packet::{PacketId, Seq};

    #[test]
    fn divided_interval_matches_rate_formula() {
        // τ_i = τ(h+1)/(hH): interval_i = interval·h·H/(h+1).
        let iv = divided_interval(1_000, 2, 3);
        assert_eq!(iv, 2_000);
        // h = H-1 = 59, H = 60: interval · 59·60/60 = interval · 59.
        assert_eq!(divided_interval(1_000, 59, 60), 59_000);
    }

    #[test]
    fn initial_assignments_partition_the_enhanced_sequence() {
        // l = 39 divides into 13 full segments of h = 3: |[pkt]^3| = 52.
        let parts: Vec<TxSchedule> = (0..4)
            .map(|i| initial_assignment(39, 3, 4, i, 1_000))
            .collect();
        let total: usize = parts.iter().map(|p| p.seq.len()).sum();
        let enhanced = enhance(&PacketSeq::data_range(39), 3, true, Coding::Xor);
        assert_eq!(total, enhanced.len());
        // slot = 1000·39/52 = 750 ns; interval = slot·parts = 3000 ns —
        // the paper's τ_i = τ(h+1)/(hH).
        assert_eq!(parts[0].interval_nanos, 3_000);
        // Phase offsets interleave the senders one slot apart.
        assert_eq!(parts[0].first_delay_nanos, 750);
        assert_eq!(parts[3].first_delay_nanos, 3_000);
    }

    #[test]
    fn aggregate_rate_has_parity_overhead() {
        // H senders at τ(h+1)/(hH) each: aggregate = τ(h+1)/h
        // (exact when h divides the content length).
        let h = 3;
        let parts = 4;
        let content_interval = 1_000u64;
        let s = initial_assignment(999, h, parts, 0, content_interval);
        let aggregate = parts as f64 * s.rate_pps();
        let content_rate = 1e9 / content_interval as f64;
        let overhead = aggregate / content_rate;
        assert!((overhead - (h as f64 + 1.0) / h as f64).abs() < 1e-6);
    }

    #[test]
    fn mark_advances_by_delta_over_interval() {
        assert_eq!(mark_position(10, 1_000, 5_000), 15);
        assert_eq!(mark_position(10, 1_000, 5_999), 15);
        assert_eq!(mark_position(0, u64::MAX, 1_000), 0, "idle parent");
    }

    #[test]
    fn derived_assignments_partition_the_postfix() {
        let parent = SeqView::from(PacketSeq::data_range(30));
        let shares: Vec<TxSchedule> = (0..3)
            .map(|i| derived_assignment(&parent, 4, 1_000, 6_000, 2, 3, i, Reenhance::Nested))
            .collect();
        // Mark = 4 + 6 = 10; postfix = t11..t30 (20 pkts) enhanced → 30.
        let total: usize = shares.iter().map(|s| s.seq.len()).sum();
        assert_eq!(total, 30);
        // The union of shares contains every postfix data packet.
        let mut all = PacketSeq::new();
        for s in &shares {
            all = all.union(&s.seq.to_seq());
        }
        for t in 11..=30u64 {
            assert!(
                all.contains(&PacketId::Data(Seq(t))),
                "t{t} missing from division"
            );
        }
        for t in 1..=10u64 {
            assert!(
                !all.contains(&PacketId::Data(Seq(t))),
                "t{t} before the mark leaked into the division"
            );
        }
    }

    #[test]
    fn merge_keeps_unsent_work_and_faster_rate() {
        let mut cur = initial_assignment(20, 1, 2, 0, 1_000);
        cur.pos = 3;
        let unsent_first = cur.seq.get(3).cloned().unwrap();
        let incoming = TxSchedule {
            seq: PacketSeq::from_ids(vec![PacketId::Data(Seq(99))]).into(),
            pos: 0,
            interval_nanos: 500,
            first_delay_nanos: 500,
        };
        let merged = merge_assignment(&cur, &incoming);
        assert_eq!(
            merged.interval_nanos,
            harmonic_interval(cur.interval_nanos, 500)
        );
        assert_eq!(merged.pos, 0);
        assert!(merged.seq.contains(&unsent_first));
        assert!(merged.seq.contains(&PacketId::Data(Seq(99))));
        // Already-sent packets do not reappear.
        let sent0 = cur.seq.get(0).cloned().unwrap();
        if !cur.seq.to_seq().postfix_at(3).contains(&sent0) {
            assert!(!merged.seq.contains(&sent0));
        }
    }

    #[test]
    fn exhausted_and_remaining() {
        let mut s = initial_assignment(10, 1, 1, 0, 1_000);
        assert!(!s.exhausted());
        let len = s.seq.len();
        s.pos = len;
        assert!(s.exhausted());
        assert!(s.remaining().is_empty());
        assert_eq!(s.rate_pps(), 0.0);
        assert_eq!(TxSchedule::idle().rate_pps(), 0.0);
    }

    #[test]
    fn zero_and_max_intervals_both_read_as_idle() {
        // Regression: `0` used to mean "idle" to rate_pps but "use the
        // other rate" to harmonic_interval, while `u64::MAX` meant idle
        // to both. Both sentinels now read identically everywhere.
        for sentinel in [0u64, u64::MAX] {
            assert!(idle_interval(sentinel));
            let s = TxSchedule {
                seq: PacketSeq::data_range(4).into(),
                pos: 0,
                interval_nanos: sentinel,
                first_delay_nanos: 100,
            };
            assert_eq!(s.rate_pps(), 0.0, "sentinel {sentinel} must be idle");
            assert_eq!(harmonic_interval(sentinel, 700), 700);
            assert_eq!(harmonic_interval(700, sentinel), 700);
            assert_eq!(mark_position(10, sentinel, 5_000), 10);
            // Merging an idle assignment leaves the live rate unchanged.
            let live = initial_assignment(10, 1, 1, 0, 1_000);
            let merged = merge_assignment(&live, &s);
            assert_eq!(merged.interval_nanos, live.interval_nanos);
        }
        assert!(!idle_interval(1));
        assert_eq!(harmonic_interval(0, u64::MAX), u64::MAX);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn malformed_control_values_degrade_instead_of_panicking() {
        // Release builds clamp wire-supplied zeros rather than crash.
        assert_eq!(divided_interval(1_000, 0, 0), divided_interval(1_000, 1, 1));
        let s = weighted_initial_assignment(10, 1, &[1, 1], 7, 1_000, true, Coding::Xor);
        assert!(s.seq.is_empty(), "out-of-range index must idle the peer");
    }

    #[test]
    fn derivation_past_the_end_is_empty() {
        let parent = SeqView::from(PacketSeq::data_range(5));
        let s = derived_assignment(&parent, 5, 1_000, 10_000, 2, 2, 0, Reenhance::Nested);
        assert!(s.seq.is_empty());
    }

    #[test]
    fn basis_assign_matches_derived_assignment_everywhere() {
        // A shipped basis must hand every part exactly what that part
        // would have derived locally, or parent and children would
        // disagree on the division.
        let merged = {
            // An out-of-order parent schedule (multi-parent merge shape)
            // to exercise the DataOnly dedup-set path too.
            let a = initial_assignment(12, 2, 2, 0, 1_000);
            let b = initial_assignment(12, 2, 2, 1, 1_000);
            merge_assignment(&a, &b)
        };
        let parents = [
            SeqView::from(PacketSeq::data_range(30)),
            SeqView::from(enhance(&PacketSeq::data_range(17), 3, true, Coding::Xor)),
            // A strided parent too: divisions must compose.
            SeqView::part(std::sync::Arc::new(PacketSeq::data_range(29)), 3, 1),
            merged.seq.clone(),
            SeqView::empty(),
        ];
        for parent in &parents {
            for mode in [Reenhance::None, Reenhance::Nested, Reenhance::DataOnly] {
                for (pos, interval, delta) in [
                    (0, 1_000, 0),
                    (4, 1_000, 6_000),
                    (40, 1_000, 0),
                    (0, u64::MAX, 5_000),
                ] {
                    let parts = 3;
                    let basis = DivisionBasis::derive(
                        parent,
                        pos,
                        interval,
                        delta,
                        2,
                        mode,
                        true,
                        Coding::Xor,
                    );
                    for part in 0..parts {
                        let direct = derived_assignment_opts(
                            parent,
                            pos,
                            interval,
                            delta,
                            2,
                            parts,
                            part,
                            mode,
                            true,
                            Coding::Xor,
                        );
                        let via_basis = basis.assign(parts, part);
                        assert_eq!(via_basis.seq, direct.seq, "{mode:?} part {part}");
                        assert_eq!(via_basis.interval_nanos, direct.interval_nanos);
                        assert_eq!(via_basis.first_delay_nanos, direct.first_delay_nanos);
                        assert_eq!(via_basis.pos, direct.pos);
                    }
                }
            }
        }
    }

    #[test]
    fn merge_is_union_of_unsent_and_incoming() {
        // The slice-based merge must produce exactly
        // remaining() ∪ incoming, duplicates collapsed, order stable.
        let mut cur = initial_assignment(20, 2, 2, 0, 1_000);
        cur.pos = 5;
        let incoming = initial_assignment(20, 2, 2, 1, 1_000);
        let merged = merge_assignment(&cur, &incoming);
        let reference = cur.remaining().union(&incoming.seq.to_seq());
        assert_eq!(merged.seq.to_seq(), reference);
        // Membership queries must work on the merged seq.
        for id in reference.ids() {
            assert!(merged.seq.contains(id));
        }
    }

    #[test]
    fn merge_into_a_unique_base_equals_merge_into_a_shared_one() {
        let basis = DivisionBasis::new(
            Arc::new(enhance(&PacketSeq::data_range(40), 3, true, Coding::Xor)),
            700,
        );
        let other = DivisionBasis::new(
            Arc::new(enhance(&PacketSeq::data_range(40), 2, true, Coding::Xor)),
            900,
        );
        // A merge's output holds its base alone.
        let running = || merge_assignment(&basis.assign(3, 0), &basis.assign(3, 1));
        for (pos, part) in [(0, 0), (3, 1), (9, 2), (60, 1)] {
            let incoming = other.assign(3, part);
            let mut unique = running();
            unique.pos = pos;
            let mut shared = running();
            shared.pos = pos;
            let sibling = shared.seq.clone();
            let before = sibling.to_seq();
            let expect = unique.remaining().union(&incoming.seq.to_seq());
            unique.merge(&incoming);
            shared.merge(&incoming);
            assert_eq!(unique.seq.to_seq(), expect, "pos {pos} part {part}");
            assert_eq!(unique, shared, "pos {pos} part {part}");
            assert_eq!(sibling.to_seq(), before, "the shared base was written");
        }
    }

    #[test]
    fn merge_of_strided_views_matches_materialized_union() {
        // Both operands strided (the protocol's common case: two parts of
        // different fan-outs), partially sent — the iterator union must
        // equal the union of the materialized sequences.
        let basis_a = DivisionBasis::new(
            Arc::new(enhance(&PacketSeq::data_range(23), 2, true, Coding::Xor)),
            700,
        );
        let basis_b = DivisionBasis::new(
            Arc::new(enhance(&PacketSeq::data_range(31), 3, true, Coding::Xor)),
            900,
        );
        for (pa, pb) in [(0, 0), (1, 2), (2, 1)] {
            let mut cur = basis_a.assign(3, pa);
            cur.pos = 2;
            let inc = basis_b.assign(3, pb);
            let merged = merge_assignment(&cur, &inc);
            let expect = cur.seq.to_seq().postfix_at(2).union(&inc.seq.to_seq());
            assert_eq!(merged.seq.to_seq(), expect, "parts {pa}/{pb}");
        }
    }
}
