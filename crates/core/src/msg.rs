//! The messages exchanged in a streaming session.
//!
//! [`Msg::wire_size`] (the [`SimMessage`] accounting the simulator's
//! links and the byte metrics consume) mirrors the `mss-net` codec's
//! actual encoded frame length field for field — including the adaptive
//! view frames of [`mss_overlay::wire`] — with two
//! documented exceptions: the schedule travels as a fixed-size *recipe*
//! ([`SCHED_RECIPE_BYTES`]; the demo codec materializes it, a production
//! codec would not), and data packets defer to the media layer's own
//! packet cost model. The codec-mirror tests in `mss-net` pin the mirror
//! against real `encode()` lengths.
//!
//! A companion accounting, [`Msg::model_size`], reproduces the seed's
//! fixed `n/8`-bit-bitmap paper model — the historical `coord.bytes`
//! accounting Figures 10/11 keep for continuity.
//!
//! # One fan-out, one control body
//!
//! A parent that selects `H` children tells each of them the same
//! thing — its view, `SEQ`, rate, `h`, `H` — and a different part
//! index. The control packet is split along that line: a
//! [`ControlBody`] is built once per `Select` and is immutable once
//! sent (it sits behind an `Arc`; mutating it after a send does not
//! compile), and the [`ControlPacket`] a message carries is the 16-byte
//! handle `{ body, part }`, inline in [`Msg::Control`]. A fan-out is one
//! allocation, one refcount bump per child, and one free when the last
//! child has handled it — on whichever thread that is.

use std::sync::Arc;

use mss_media::{Packet, PacketId, PacketSeq, SeqView};
use mss_overlay::{wire, PeerId, View};
use mss_sim::world::SimMessage;

/// The leaf's content request (`c` in §3.4 step 1).
#[derive(Clone, Debug)]
pub struct ContentRequest {
    /// Activation wave (always 1 for leaf requests).
    pub wave: u32,
    /// Content rate `τ` expressed as per-packet interval, nanoseconds.
    pub interval_nanos: u64,
    /// Parity interval `h`.
    pub h: u32,
    /// Gossip fan-out `H`.
    pub fanout: u32,
    /// This recipient's part index within the initial `Div`.
    pub part: u32,
    /// Number of initial parts (= number of peers the leaf contacted).
    pub parts: u32,
    /// Under [`crate::config::Piggyback::FullView`], the set of initially
    /// selected peers. `Arc`-shared: the leaf builds the view once and
    /// every per-peer request clone is O(1).
    pub view: Option<Arc<View>>,
    /// Heterogeneous mode: relative bandwidths of the initially selected
    /// peers (indexed like `part`); the recipient derives its
    /// bandwidth-proportional share with the §2 allocator instead of the
    /// uniform round-robin division. `Arc`-shared like `view`.
    pub weights: Option<Arc<[u64]>>,
}

/// What role a control packet plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlKind {
    /// DCoP control packet: activates (or re-assigns) the child
    /// immediately.
    Activate,
    /// TCoP `c1`: asks the child to join this parent's subtree.
    Probe,
    /// TCoP `c2`: commits a confirmed child with its final part
    /// assignment.
    Commit,
    /// Broadcast baseline: "I am active" state exchange (the simple group
    /// communication of §3.1's first way).
    Announce,
}

/// Everything the children of one fan-out share: the part-independent
/// content of a parent→child coordination packet (`c`/`c1`/`c2` in the
/// paper). Built once per `Select`, handed out behind an `Arc` by
/// [`Msg::control`], and never changed after that.
#[derive(Clone, Debug)]
pub struct ControlBody {
    /// Role of this packet.
    pub kind: ControlKind,
    /// Sending contents peer.
    pub from: PeerId,
    /// Activation wave this packet belongs to (leaf = wave 1).
    pub wave: u32,
    /// Sender's view `VW_j` (contents depend on the piggyback variant;
    /// a TCoP probe carries an empty view over the population).
    pub view: View,
    /// The parent's current schedule — the basis for the child's postfix
    /// computation. Carried as a recipe on the wire (see module docs); a
    /// strided [`mss_media::SeqView`] into the parent's division basis.
    pub sched: SeqView,
    /// `SEQ`: the parent's position in `sched` when this packet was sent
    /// (index of the next packet to transmit).
    pub pos: u32,
    /// Parent's per-packet interval (its transmission rate `τ_j`).
    pub interval_nanos: u64,
    /// The `δ` the child must use when computing the mark (zero when the
    /// division basis is a not-yet-live pending schedule).
    pub mark_delta_nanos: u64,
    /// Division arity (`H_j + 1`: children plus the parent itself).
    pub parts: u32,
    /// Parity interval `h` for re-enhancement.
    pub h: u32,
    /// Fan-out `H` the child should use for its own selection.
    pub fanout: u32,
    /// Pre-derived division basis: the sender's postfix, re-enhanced,
    /// plus slot pacing — everything part-independent about this
    /// division (see [`crate::schedule::DivisionBasis`]). Like `sched`,
    /// this is a derivation cache, not wire content: it is fully
    /// determined by the recipe fields above, so codecs drop it and a
    /// receiver without one re-derives (`None`) with identical results.
    /// Shipping it spares each of the `parts` receivers the
    /// mark/re-enhance recomputation.
    pub basis: Option<crate::schedule::DivisionBasis>,
}

/// One child's handle on a fan-out's shared [`ControlBody`], plus the
/// only thing that differs between the children: the part index.
#[derive(Clone, Debug)]
pub struct ControlPacket {
    /// The fan-out's shared, immutable content.
    pub body: Arc<ControlBody>,
    /// The child's assigned part index within the coming division.
    pub part: u32,
}

/// TCoP `cc1`: the child's reply to a probe.
#[derive(Clone, Debug)]
pub struct ProbeReply {
    /// Replying peer.
    pub from: PeerId,
    /// True if the child takes the prober as its parent.
    pub accept: bool,
    /// Echo of the probe's wave, for bookkeeping.
    pub wave: u32,
}

/// A streamed media packet.
///
/// The packet body lives behind an `Arc` so the enum variant is two
/// words: data messages are the majority of all events in a streaming
/// session, and keeping them pointer-sized is what lets
/// `size_of::<Msg>()` — and with it every queue slot, cross-shard batch
/// entry, and mailbox cell — stay at a couple of words. The `Arc` also
/// makes retransmission (NACK repair) clones refcount bumps instead of
/// payload-handle copies.
#[derive(Clone, Debug)]
pub struct DataMsg {
    /// Sending contents peer.
    pub from: PeerId,
    /// The packet (data or parity) itself.
    pub packet: Arc<Packet>,
}

/// Centralized (2PC-style) baseline messages.
#[derive(Clone, Debug)]
pub enum TwoPhase {
    /// Coordinator → peer: proposed assignment.
    Prepare {
        /// Proposed part index for the recipient.
        part: u32,
        /// Total parts.
        parts: u32,
        /// Parity interval.
        h: u32,
        /// Per-packet interval the recipient would stream at.
        interval_nanos: u64,
    },
    /// Peer → coordinator: vote.
    Vote {
        /// Voting peer.
        from: PeerId,
        /// Readiness.
        ok: bool,
    },
    /// Coordinator → peer: go / abort decision.
    Decision {
        /// True to start streaming.
        commit: bool,
    },
}

/// Leaf-schedule baseline (\[8\]): the leaf ships each peer its complete
/// transmission schedule.
#[derive(Clone, Debug)]
pub struct ScheduleAssignment {
    /// Part index of the recipient.
    pub part: u32,
    /// Total parts (= n).
    pub parts: u32,
    /// Parity interval.
    pub h: u32,
    /// Per-packet interval for the recipient.
    pub interval_nanos: u64,
    /// Explicit schedule (this baseline really does ship the schedule,
    /// so its wire size *does* scale with content length).
    pub sched: PacketSeq,
}

/// Leaf → contents peer: retransmission request for missing data
/// packets (repair extension; see `config::RepairConfig`).
#[derive(Clone, Debug)]
pub struct Nack {
    /// Missing data sequence numbers (bounded per round). `Arc`-shared so
    /// the leaf's repair fan-out clones the batch O(1) per target.
    pub seqs: Arc<[mss_media::Seq]>,
}

/// Everything that can travel in a session.
///
/// The fat bodies live on the heap so the enum itself is a couple of
/// words: [`ContentRequest`] and [`ScheduleAssignment`] are boxed, and a
/// control packet is a handle on its fan-out's shared [`ControlBody`].
/// `size_of::<Msg>()` sets the width of every calendar-queue slot,
/// cross-shard batch entry, and live-plane mailbox cell, for the
/// [`Msg::Data`] majority as much as for the control minority; inline,
/// the ~15 control fields alone pushed every event to 120 bytes.
/// [`ControlPacket`], [`TwoPhase`], [`ProbeReply`], and [`Nack`] stay
/// inline: they are small and fixed-size, and `TwoPhase` (the widest
/// inline variant at 24 bytes) is what the compile-time bound below
/// pins.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Leaf → contents peer.
    Request(Box<ContentRequest>),
    /// Parent → child coordination.
    Control(ControlPacket),
    /// TCoP probe reply.
    Reply(ProbeReply),
    /// Contents peer → leaf media packet.
    Data(DataMsg),
    /// Centralized baseline traffic.
    TwoPhase(TwoPhase),
    /// Leaf-schedule baseline traffic.
    Assign(Box<ScheduleAssignment>),
    /// Repair request (leaf → peer).
    Nack(Nack),
}

// Size regression gates (ISSUE 10): the memory plane is engineered
// around these bounds — a variant silently regrowing past them would
// re-widen every event in the simulator. `Msg` must stay ≤ 32 bytes
// (currently 24: the 24-byte `TwoPhase` inline variant with the tag
// folded into its discriminant niche).
const _: () = assert!(std::mem::size_of::<Msg>() <= 32);
// A full event (payload + actor routing) must fit in half a cache
// line, and `Option<Event<Msg>>` — the payload-slab cell type — must
// cost no more than `Event<Msg>` itself (the `Arc` niches absorb the
// discriminant).
const _: () = assert!(std::mem::size_of::<mss_sim::event::Event<Msg>>() <= 32);
const _: () = assert!(
    std::mem::size_of::<Option<mss_sim::event::Event<Msg>>>()
        == std::mem::size_of::<mss_sim::event::Event<Msg>>()
);
const _: () = assert!(std::mem::size_of::<DataMsg>() <= 16);
const _: () = assert!(std::mem::size_of::<ControlPacket>() <= 16);
const _: () = assert!(std::mem::size_of::<ProbeReply>() <= 12);
const _: () = assert!(std::mem::size_of::<TwoPhase>() <= 24);
const _: () = assert!(std::mem::size_of::<Nack>() <= 16);

impl Msg {
    /// One child's control message: a handle on the fan-out's shared
    /// `body` (a refcount bump, no allocation) plus its `part`.
    pub fn control(body: &Arc<ControlBody>, part: u32) -> Msg {
        Msg::Control(ControlPacket {
            body: Arc::clone(body),
            part,
        })
    }

    /// A content request, boxing the fat body.
    pub fn request(r: ContentRequest) -> Msg {
        Msg::Request(Box::new(r))
    }

    /// A schedule assignment, boxing the fat body.
    pub fn assign(a: ScheduleAssignment) -> Msg {
        Msg::Assign(Box::new(a))
    }

    /// A data message from `from` carrying `packet`, reusing a
    /// recycled `Arc` shell (see [`recycle_data`]) when one is free so
    /// the data fast path does not pay one allocator round-trip per
    /// packet.
    pub fn data(from: PeerId, packet: Packet) -> Msg {
        let packet = match PKT_SHELLS.with(|s| s.borrow_mut().pop()) {
            Some(mut shell) => match Arc::get_mut(&mut shell) {
                Some(slot) => {
                    *slot = packet;
                    shell
                }
                None => Arc::new(packet),
            },
            None => Arc::new(packet),
        };
        Msg::Data(DataMsg { from, packet })
    }

    /// True for coordination (non-data) messages — what Figures 10/11
    /// count.
    pub fn is_coordination(&self) -> bool {
        !matches!(self, Msg::Data(_))
    }

    /// Whether a session of `n` contents peers can take this message:
    /// every view it carries ranges over `n` peers, every peer it names
    /// is below `n`, a request or control packet carries a parity
    /// interval `h ≥ 1`, a request's `weights` has no zero and an entry
    /// for its `part`, and a request, an `Activate` or a `Commit` hands
    /// out a `part` below its `parts ≥ 1` (a probe divides nothing and
    /// carries `parts = 0`). A frame that breaks one of these decodes
    /// fine, and a handler would panic on it or take an empty part.
    pub fn fits(&self, n: usize) -> bool {
        let peer = |p: PeerId| p.index() < n;
        let view = |v: &View| v.population() == n;
        match self {
            Msg::Request(r) => {
                let weights = |w: &[u64]| w.len() > r.part as usize && !w.contains(&0);
                r.h > 0
                    && r.part < r.parts
                    && r.view.as_deref().is_none_or(view)
                    && r.weights.as_deref().is_none_or(weights)
            }
            Msg::Control(c) => {
                let b = &c.body;
                let divides = match b.kind {
                    ControlKind::Activate | ControlKind::Commit => c.part < b.parts,
                    ControlKind::Probe | ControlKind::Announce => true,
                };
                b.h > 0 && divides && peer(b.from) && view(&b.view)
            }
            Msg::Reply(r) => peer(r.from),
            Msg::Data(d) => peer(d.from),
            Msg::TwoPhase(TwoPhase::Vote { from, .. }) => peer(*from),
            Msg::TwoPhase(_) | Msg::Assign(_) | Msg::Nack(_) => true,
        }
    }
}

thread_local! {
    /// Free-list of uniquely-owned `Arc<Packet>` shells, recycled
    /// between the leaf consumer ([`recycle_data`]) and the data send
    /// path ([`Msg::data`]). Thread-local so single-world runs recycle
    /// every shell while sharded workers keep independent (bounded)
    /// pools — pure allocation reuse, invisible to handlers and to
    /// event order.
    static PKT_SHELLS: std::cell::RefCell<Vec<Arc<Packet>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Shells kept per thread at most; a burst beyond this frees normally.
/// A pooled shell keeps its stale payload until the next use overwrites
/// it, so this is also the most stale payloads a thread can pin.
const SHELL_CAP: usize = 64;

/// Hand a consumed data message's `Arc` shell back for reuse by the
/// next [`Msg::data`] on this thread. Shells still shared (a repair
/// path cloned the `Arc`) are dropped normally.
pub fn recycle_data(d: DataMsg) {
    let mut shell = d.packet;
    if Arc::get_mut(&mut shell).is_some() {
        PKT_SHELLS.with(|s| {
            let mut pool = s.borrow_mut();
            if pool.len() < SHELL_CAP {
                pool.push(shell);
            }
        });
    }
}

/// Wire bytes a control packet's schedule is accounted as: the
/// division *recipe* (stride/offset/length over the parent's announced
/// basis), not the materialized packet list the demo codec ships.
/// Every handler recomputes the schedule from the recipe fields anyway
/// (`basis: None` decodes identically), so a production codec would
/// send exactly this fixed-size descriptor.
pub const SCHED_RECIPE_BYTES: usize = 32;

/// Codec bytes for one [`PacketId`] — mirrors the net codec's
/// `put_packet_id` (tag byte + seq/cover layout).
fn packet_id_wire_len(id: &PacketId) -> usize {
    match id {
        PacketId::Data(_) => 1 + 8,
        PacketId::Parity(cover) => 1 + 4 + 8 * cover.len(),
        PacketId::RsParity { seqs, .. } => 1 + 1 + 4 + 8 * seqs.len(),
    }
}

/// Bytes for the seed's fixed view bit-vector over `n` peers — the
/// historical paper-model accounting [`Msg::model_size`] preserves.
fn view_bytes(v: &View) -> usize {
    v.population().div_ceil(8)
}

impl Msg {
    /// The seed's hand-maintained paper-model accounting: fixed
    /// `n/8`-byte view bitmaps and field-count estimates. Feeds the
    /// legacy `coord.bytes` metric so the Figure 10/11 series stay
    /// comparable across revisions; new analyses should prefer
    /// [`Msg::wire_size`] (`coord.bytes_tx`).
    pub fn model_size(&self) -> usize {
        match self {
            // wave + interval + h/H/part/parts + optional view.
            Msg::Request(r) => {
                24 + r.view.as_deref().map_or(0, view_bytes)
                    + r.weights.as_ref().map_or(0, |w| 8 * w.len())
            }
            // kind + ids + wave + recipe (pos, interval, part, parts, h,
            // fanout ≈ 32B) + view bits.
            Msg::Control(c) => 16 + 32 + view_bytes(&c.body.view),
            Msg::Reply(_) => 12,
            Msg::Data(d) => d.packet.wire_size(),
            Msg::TwoPhase(t) => match t {
                TwoPhase::Prepare { .. } => 24,
                TwoPhase::Vote { .. } => 9,
                TwoPhase::Decision { .. } => 5,
            },
            // The explicit schedule: ~5 bytes per entry (id + kind).
            Msg::Assign(a) => 24 + 5 * a.sched.len(),
            Msg::Nack(n) => 8 + 8 * n.seqs.len(),
        }
    }
}

impl SimMessage for Msg {
    /// Exact codec frame length (`[from: u32][tag: u8][body]`), field
    /// for field — see the module docs for the two deliberate
    /// divergences (schedule recipe, media packet cost model). Pinned
    /// against real `encode()` output by `mss-net`'s codec-mirror
    /// tests.
    fn wire_size(&self) -> usize {
        match self {
            Msg::Request(r) => {
                5 + 4
                    + 8
                    + 16
                    + 1
                    + r.view.as_deref().map_or(0, wire::encoded_len)
                    + 1
                    + r.weights.as_ref().map_or(0, |w| 4 + 8 * w.len())
            }
            // kind + from + wave + view frame + recipe + the six fixed
            // recipe-adjacent fields (pos, interval, mark δ, part/parts,
            // h/fanout).
            Msg::Control(c) => {
                5 + 1 + 4 + 4 + wire::encoded_len(&c.body.view) + SCHED_RECIPE_BYTES + 36
            }
            Msg::Reply(_) => 5 + 4 + 1 + 4,
            Msg::Data(d) => d.packet.wire_size(),
            Msg::TwoPhase(t) => match t {
                TwoPhase::Prepare { .. } => 5 + 1 + 12 + 8,
                TwoPhase::Vote { .. } => 5 + 1 + 4 + 1,
                TwoPhase::Decision { .. } => 5 + 1 + 1,
            },
            Msg::Assign(a) => {
                5 + 20 + 4 + a.sched.ids().iter().map(packet_id_wire_len).sum::<usize>()
            }
            Msg::Nack(n) => 5 + 4 + 8 * n.seqs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::{ContentDesc, PacketId, Seq};

    fn control(kind: ControlKind, n: usize) -> ControlBody {
        ControlBody {
            kind,
            from: PeerId(0),
            wave: 1,
            view: View::empty(n),
            sched: PacketSeq::data_range(10).into(),
            pos: 0,
            interval_nanos: 1000,
            mark_delta_nanos: 0,
            parts: 4,
            h: 3,
            fanout: 4,
            basis: None,
        }
    }

    fn msg(body: ControlBody) -> Msg {
        Msg::control(&Arc::new(body), 1)
    }

    /// Runtime mirror of the compile-time size asserts above, so
    /// `verify.sh` has a named gate to run (`--lib size_regression`)
    /// and a regression shows up as a test failure with the measured
    /// width, not just a build error.
    #[test]
    fn size_regression() {
        use mss_sim::event::Event;
        use std::mem::size_of;
        assert_eq!(size_of::<Msg>(), 24, "Msg grew past two words + tag");
        assert_eq!(size_of::<Event<Msg>>(), 32, "queue payload cell grew");
        assert_eq!(
            size_of::<Option<Event<Msg>>>(),
            size_of::<Event<Msg>>(),
            "Option<Event<Msg>> lost its niche"
        );
        assert_eq!(size_of::<DataMsg>(), 16, "data fast path grew");
        assert_eq!(size_of::<ControlPacket>(), 16, "control handle grew");
        assert_eq!(size_of::<PacketId>(), 24, "packet id grew");
    }

    #[test]
    fn coordination_classification() {
        assert!(msg(control(ControlKind::Activate, 10)).is_coordination());
        assert!(Msg::Reply(ProbeReply {
            from: PeerId(0),
            accept: true,
            wave: 1
        })
        .is_coordination());
        let c = ContentDesc::small(1, 4);
        let d = Msg::data(PeerId(0), c.materialize(&PacketId::Data(Seq(1))));
        assert!(!d.is_coordination());
    }

    #[test]
    fn control_wire_size_scales_with_view_not_schedule() {
        let small = msg(control(ControlKind::Probe, 100));
        let mut big = control(ControlKind::Probe, 100);
        big.sched = PacketSeq::data_range(100_000).into();
        let big = msg(big);
        assert_eq!(small.wire_size(), big.wire_size(), "schedule is a recipe");
        // Adaptive encoding: the cost scales with membership, not the
        // population — a fuller view costs more, a wider empty one
        // costs only the larger `n` varint.
        let mut fuller = control(ControlKind::Probe, 100);
        let mut v = View::empty(100);
        for i in (0..100).step_by(3) {
            v.insert(PeerId(i));
        }
        fuller.view = v;
        assert!(msg(fuller).wire_size() > small.wire_size());
    }

    #[test]
    fn model_size_charges_the_fixed_bitmap() {
        let mut c = control(ControlKind::Commit, 1000);
        let empty = msg(c.clone()).model_size();
        for i in 0..200 {
            c.view.insert(PeerId(i * 5));
        }
        // The paper model charges `n/8` bytes whatever the view holds.
        assert_eq!(msg(c).model_size(), empty);
        assert_eq!(empty, 16 + 32 + 125);
    }

    #[test]
    fn assign_wire_size_scales_with_schedule() {
        let a = |l: u64| {
            Msg::assign(ScheduleAssignment {
                part: 0,
                parts: 1,
                h: 1,
                interval_nanos: 1,
                sched: PacketSeq::data_range(l),
            })
            .wire_size()
        };
        assert!(a(1000) > a(10));
    }

    #[test]
    fn nack_wire_size_scales_with_seqs() {
        let small = Msg::Nack(crate::msg::Nack {
            seqs: vec![mss_media::Seq(1)].into(),
        });
        let big = Msg::Nack(crate::msg::Nack {
            seqs: (1..=100).map(mss_media::Seq).collect(),
        });
        assert!(big.wire_size() > small.wire_size() + 700);
        assert!(small.is_coordination());
    }

    #[test]
    fn request_wire_size_includes_weights() {
        let base = ContentRequest {
            wave: 1,
            interval_nanos: 1,
            h: 1,
            fanout: 2,
            part: 0,
            parts: 2,
            view: None,
            weights: None,
        };
        let mut weighted = base.clone();
        weighted.weights = Some(vec![1, 2, 3, 4].into());
        assert_eq!(
            Msg::request(weighted).wire_size(),
            Msg::request(base).wire_size() + 4 + 32
        );
    }

    #[test]
    fn data_wire_size_is_packet_size() {
        let c = ContentDesc::small(1, 4);
        let p = c.materialize(&PacketId::Data(Seq(2)));
        let expect = p.wire_size();
        let m = Msg::data(PeerId(1), p);
        assert_eq!(m.wire_size(), expect);
    }
}
