//! Binary wire codec for session messages, and the datagram format of
//! the live plane.
//!
//! A hand-rolled, length-checked little-endian format on top of `bytes`
//! (no external serializer). Every frame is `[from: u32][kind: u8][body]`.
//! Schedules are carried explicitly in this demo codec (a production
//! format would ship the derivation recipe; see `mss_core::msg` docs).
//!
//! Views travel as the adaptive `mss_overlay::wire` frames (dense /
//! sparse / runs, whichever is smallest) rather than the seed's fixed
//! `n`-bit bitmap. Every frame is self-contained, so decoding a message
//! needs no state from earlier ones.
//!
//! # Datagrams are bundles
//!
//! On the wire a datagram is one or more *records*, back to back:
//!
//! ```text
//! [len: u16 LE][to: u32 LE][from: u32 LE][kind: u8][body]   ← record 1
//! [len: u16 LE][to: u32 LE] …                               ← record 2 …
//! ```
//!
//! `len` counts the routed frame that follows it (`[to]` + the plain
//! frame), so a receiver can tell each record's destination without
//! decoding it. [`BundleWriter`] fills a datagram until the next record
//! would push it past [`BUNDLE_MTU`] — one un-fragmented Ethernet UDP
//! payload — and seals it there; a frame that alone exceeds the MTU
//! travels as a single-record datagram (the kernel fragments it, as it
//! did before bundling). [`split_bundle`] walks the records of a
//! received datagram and stops at the first malformed one, so whatever
//! precedes a truncation or a corrupt length prefix is still delivered.
//! There is one format and one size: no switch selects frame-per-datagram
//! or a larger bundle.
//!
//! # A fan-out is written once and parsed once per worker
//!
//! The children of one fan-out hold handles on one `ControlBody` that
//! differ only in `part`, so their frames differ only in the four bytes
//! [`PART_FROM_END`] before the end (and their records in `to`).
//! [`BundleWriter::push`] encodes such a body once per fan-out and
//! copies the record for the other children; a worker's
//! [`FanoutDecoder`] parses it once and hands the other recipients
//! handles on the same decoded body. Neither changes a byte on the wire
//! or what a recipient decodes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mss_core::msg::{
    ContentRequest, ControlBody, ControlKind, ControlPacket, Msg, Nack, ProbeReply,
    ScheduleAssignment, TwoPhase,
};
use mss_media::{Cover, Packet, PacketId, PacketSeq, Seq, SeqView};
use mss_overlay::wire::{self, WireError};
use mss_overlay::{PeerId, View};
use mss_sim::event::ActorId;
use mss_sim::pool::BufPool;
use std::sync::Arc;

/// Decoding failure.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Frame ended before the structure was complete.
    Truncated,
    /// Unknown discriminant byte.
    BadTag(u8),
    /// A length field exceeded sanity bounds.
    BadLength(u64),
    /// A view frame failed to decode (bad version/tag/body — see
    /// [`mss_overlay::wire::WireError`]).
    BadView(WireError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadLength(l) => write!(f, "implausible length {l}"),
            CodecError::BadView(e) => write!(f, "bad view frame: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

const MAX_LEN: u64 = 16 * 1024 * 1024;

/// Largest population a decoded view frame may claim — allocation guard
/// against corrupt input; matches the sharded kernel's million-peer
/// ceiling.
const MAX_POPULATION: usize = 1_000_000;

fn need(buf: &impl Buf, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

fn get_len(buf: &mut impl Buf) -> Result<usize, CodecError> {
    need(buf, 4)?;
    let l = u64::from(buf.get_u32_le());
    if l > MAX_LEN {
        return Err(CodecError::BadLength(l));
    }
    Ok(l as usize)
}

/// A coverage's length: like [`get_len`], but a coverage is nonempty.
/// An empty one would be the XOR of nothing, and every id's last seq is
/// read as soon as a schedule is built.
fn get_cover_len(buf: &mut impl Buf) -> Result<usize, CodecError> {
    match get_len(buf)? {
        0 => Err(CodecError::BadLength(0)),
        len => Ok(len),
    }
}

/// Write a view in its smallest set encoding.
fn put_view(out: &mut impl BufMut, v: &View) {
    wire::encode_view(v, out);
}

/// Read one view frame from a slice-backed buffer.
fn get_view(buf: &mut &[u8]) -> Result<View, CodecError> {
    let (view, used) = wire::decode_view(buf, MAX_POPULATION).map_err(|e| match e {
        WireError::Truncated => CodecError::Truncated,
        other => CodecError::BadView(other),
    })?;
    buf.advance(used);
    Ok(view)
}

fn put_packet_id(out: &mut impl BufMut, id: &PacketId) {
    match id {
        PacketId::Data(s) => {
            out.put_u8(0);
            out.put_u64_le(s.0);
        }
        PacketId::Parity(c) => {
            out.put_u8(1);
            out.put_u32_le(c.len() as u32);
            for s in c.iter() {
                out.put_u64_le(s.0);
            }
        }
        PacketId::RsParity { seqs, row } => {
            out.put_u8(2);
            out.put_u8(*row);
            out.put_u32_le(seqs.len() as u32);
            for s in seqs.iter() {
                out.put_u64_le(s.0);
            }
        }
    }
}

fn get_packet_id(buf: &mut impl Buf) -> Result<PacketId, CodecError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => {
            need(buf, 8)?;
            Ok(PacketId::Data(Seq(buf.get_u64_le())))
        }
        1 => {
            let len = get_cover_len(buf)?;
            need(buf, len * 8)?;
            let cover = match len {
                1 => Cover::from(Seq(buf.get_u64_le())),
                _ => Cover::from(
                    (0..len)
                        .map(|_| Seq(buf.get_u64_le()))
                        .collect::<Arc<[Seq]>>(),
                ),
            };
            Ok(PacketId::Parity(cover))
        }
        2 => {
            need(buf, 1)?;
            let row = buf.get_u8();
            let len = get_cover_len(buf)?;
            need(buf, len * 8)?;
            let seqs: Vec<Seq> = (0..len).map(|_| Seq(buf.get_u64_le())).collect();
            Ok(PacketId::RsParity {
                seqs: seqs.into(),
                row,
            })
        }
        t => Err(CodecError::BadTag(t)),
    }
}

fn put_seq(out: &mut impl BufMut, seq: &PacketSeq) {
    out.put_u32_le(seq.len() as u32);
    for id in seq.ids() {
        put_packet_id(out, id);
    }
}

/// Encode a strided view element-for-element — same bytes as
/// materializing with [`SeqView::to_seq`] and calling [`put_seq`],
/// without the intermediate copy.
fn put_seq_view(out: &mut impl BufMut, view: &SeqView) {
    out.put_u32_le(view.len() as u32);
    for id in view.iter() {
        put_packet_id(out, id);
    }
}

fn get_seq(buf: &mut impl Buf) -> Result<PacketSeq, CodecError> {
    let len = get_len(buf)?;
    let mut ids = Vec::with_capacity(len.min(65536));
    for _ in 0..len {
        ids.push(get_packet_id(buf)?);
    }
    Ok(PacketSeq::from_ids(ids))
}

/// One handle of a fan-out: the shared body's fields with the handle's
/// `part` at its fixed place among them.
fn put_control(out: &mut impl BufMut, ControlPacket { body: c, part }: &ControlPacket) {
    out.put_u8(match c.kind {
        ControlKind::Activate => 0,
        ControlKind::Probe => 1,
        ControlKind::Commit => 2,
        ControlKind::Announce => 3,
    });
    out.put_u32_le(c.from.0);
    out.put_u32_le(c.wave);
    put_view(out, &c.view);
    put_seq_view(out, &c.sched);
    out.put_u32_le(c.pos);
    out.put_u64_le(c.interval_nanos);
    out.put_u64_le(c.mark_delta_nanos);
    out.put_u32_le(*part);
    out.put_u32_le(c.parts);
    out.put_u32_le(c.h);
    out.put_u32_le(c.fanout);
}

/// Decodes onto a fresh body. A worker's [`FanoutDecoder`] then shares
/// it with the fan-out's other recipients.
fn get_control(buf: &mut &[u8]) -> Result<ControlPacket, CodecError> {
    need(buf, 9)?;
    let kind = match buf.get_u8() {
        0 => ControlKind::Activate,
        1 => ControlKind::Probe,
        2 => ControlKind::Commit,
        3 => ControlKind::Announce,
        t => return Err(CodecError::BadTag(t)),
    };
    let from = PeerId(buf.get_u32_le());
    let wave = buf.get_u32_le();
    let view = get_view(buf)?;
    let sched = SeqView::from(get_seq(buf)?);
    need(buf, 4 + 8 + 8 + 16)?;
    let pos = buf.get_u32_le();
    let interval_nanos = buf.get_u64_le();
    let mark_delta_nanos = buf.get_u64_le();
    let part = buf.get_u32_le();
    let body = ControlBody {
        kind,
        from,
        wave,
        view,
        sched,
        pos,
        interval_nanos,
        mark_delta_nanos,
        parts: buf.get_u32_le(),
        h: buf.get_u32_le(),
        fanout: buf.get_u32_le(),
        basis: None,
    };
    Ok(ControlPacket {
        body: Arc::new(body),
        part,
    })
}

/// Encode a frame: sender actor id plus message.
pub fn encode(from: ActorId, msg: &Msg) -> Bytes {
    let mut out = BytesMut::with_capacity(64);
    encode_into(from, msg, &mut out);
    out.freeze()
}

/// [`encode`] into caller-owned scratch: the buffer is cleared and then
/// holds exactly one frame. Send loops reuse one pooled buffer per
/// transport instead of allocating per delivery.
pub fn encode_into(from: ActorId, msg: &Msg, out: &mut BytesMut) {
    out.clear();
    put_frame(from, msg, out);
}

/// [`encode_into`] with a routing prefix: `[to: u32 LE]` then the
/// ordinary frame — the payload of one bundle record. A live worker's
/// receive socket carries frames for every peer it hosts, and the
/// 4-byte destination prefix names the receiver before (and without)
/// decoding the frame. ([`BundleWriter::push`] writes the
/// same bytes straight into the open bundle, once per fan-out.)
pub fn encode_routed_into(to: ActorId, from: ActorId, msg: &Msg, out: &mut BytesMut) {
    out.clear();
    out.put_u32_le(to.0);
    put_frame(from, msg, out);
}

/// Append one `[from][kind][body]` frame (no clear — callers manage the
/// buffer and any routing prefix).
fn put_frame(from: ActorId, msg: &Msg, out: &mut impl BufMut) {
    out.put_u32_le(from.0);
    match msg {
        Msg::Request(r) => {
            out.put_u8(0);
            out.put_u32_le(r.wave);
            out.put_u64_le(r.interval_nanos);
            out.put_u32_le(r.h);
            out.put_u32_le(r.fanout);
            out.put_u32_le(r.part);
            out.put_u32_le(r.parts);
            match &r.view {
                Some(v) => {
                    out.put_u8(1);
                    put_view(out, v);
                }
                None => out.put_u8(0),
            }
            match &r.weights {
                Some(w) => {
                    out.put_u8(1);
                    out.put_u32_le(w.len() as u32);
                    for x in w.iter() {
                        out.put_u64_le(*x);
                    }
                }
                None => out.put_u8(0),
            }
        }
        Msg::Control(c) => {
            out.put_u8(1);
            put_control(out, c);
        }
        Msg::Reply(r) => {
            out.put_u8(2);
            out.put_u32_le(r.from.0);
            out.put_u8(u8::from(r.accept));
            out.put_u32_le(r.wave);
        }
        Msg::Data(d) => {
            out.put_u8(3);
            out.put_u32_le(d.from.0);
            put_packet_id(out, &d.packet.id);
            out.put_u32_le(d.packet.payload.len() as u32);
            out.put_slice(&d.packet.payload);
        }
        Msg::TwoPhase(tp) => {
            out.put_u8(4);
            match tp {
                TwoPhase::Prepare {
                    part,
                    parts,
                    h,
                    interval_nanos,
                } => {
                    out.put_u8(0);
                    out.put_u32_le(*part);
                    out.put_u32_le(*parts);
                    out.put_u32_le(*h);
                    out.put_u64_le(*interval_nanos);
                }
                TwoPhase::Vote { from, ok } => {
                    out.put_u8(1);
                    out.put_u32_le(from.0);
                    out.put_u8(u8::from(*ok));
                }
                TwoPhase::Decision { commit } => {
                    out.put_u8(2);
                    out.put_u8(u8::from(*commit));
                }
            }
        }
        Msg::Assign(a) => {
            out.put_u8(5);
            out.put_u32_le(a.part);
            out.put_u32_le(a.parts);
            out.put_u32_le(a.h);
            out.put_u64_le(a.interval_nanos);
            put_seq(out, &a.sched);
        }
        Msg::Nack(n) => {
            out.put_u8(6);
            out.put_u32_le(n.seqs.len() as u32);
            for s in n.seqs.iter() {
                out.put_u64_le(s.0);
            }
        }
    }
}

/// Decode a frame produced by [`encode`].
pub fn decode(frame: &[u8]) -> Result<(ActorId, Msg), CodecError> {
    decode_with_rest(frame).map(|(from, msg, _)| (from, msg))
}

/// [`decode`], plus the number of bytes the message left unread at the
/// end of the frame (`decode` ignores them).
fn decode_with_rest(frame: &[u8]) -> Result<(ActorId, Msg, usize), CodecError> {
    let mut buf = frame;
    need(&buf, 5)?;
    let from = ActorId(buf.get_u32_le());
    let msg = match buf.get_u8() {
        0 => {
            need(&buf, 4 + 8 + 16 + 1)?;
            let wave = buf.get_u32_le();
            let interval_nanos = buf.get_u64_le();
            let h = buf.get_u32_le();
            let fanout = buf.get_u32_le();
            let part = buf.get_u32_le();
            let parts = buf.get_u32_le();
            need(&buf, 1)?;
            let view = if buf.get_u8() == 1 {
                Some(Arc::new(get_view(&mut buf)?))
            } else {
                None
            };
            need(&buf, 1)?;
            let weights = if buf.get_u8() == 1 {
                let len = get_len(&mut buf)?;
                need(&buf, len * 8)?;
                Some((0..len).map(|_| buf.get_u64_le()).collect())
            } else {
                None
            };
            Msg::request(ContentRequest {
                wave,
                interval_nanos,
                h,
                fanout,
                part,
                parts,
                view,
                weights,
            })
        }
        1 => Msg::Control(get_control(&mut buf)?),
        2 => {
            need(&buf, 9)?;
            Msg::Reply(ProbeReply {
                from: PeerId(buf.get_u32_le()),
                accept: buf.get_u8() == 1,
                wave: buf.get_u32_le(),
            })
        }
        3 => {
            need(&buf, 4)?;
            let from_peer = PeerId(buf.get_u32_le());
            let id = get_packet_id(&mut buf)?;
            let len = get_len(&mut buf)?;
            need(&buf, len)?;
            let payload = Arc::from(&buf.chunk()[..len]);
            buf.advance(len);
            Msg::data(from_peer, Packet { id, payload })
        }
        4 => {
            need(&buf, 1)?;
            match buf.get_u8() {
                0 => {
                    need(&buf, 12 + 8)?;
                    Msg::TwoPhase(TwoPhase::Prepare {
                        part: buf.get_u32_le(),
                        parts: buf.get_u32_le(),
                        h: buf.get_u32_le(),
                        interval_nanos: buf.get_u64_le(),
                    })
                }
                1 => {
                    need(&buf, 5)?;
                    Msg::TwoPhase(TwoPhase::Vote {
                        from: PeerId(buf.get_u32_le()),
                        ok: buf.get_u8() == 1,
                    })
                }
                2 => {
                    need(&buf, 1)?;
                    Msg::TwoPhase(TwoPhase::Decision {
                        commit: buf.get_u8() == 1,
                    })
                }
                t => return Err(CodecError::BadTag(t)),
            }
        }
        5 => {
            need(&buf, 12 + 8)?;
            let part = buf.get_u32_le();
            let parts = buf.get_u32_le();
            let h = buf.get_u32_le();
            let interval_nanos = buf.get_u64_le();
            let sched = get_seq(&mut buf)?;
            Msg::assign(ScheduleAssignment {
                part,
                parts,
                h,
                interval_nanos,
                sched,
            })
        }
        6 => {
            let len = get_len(&mut buf)?;
            need(&buf, len * 8)?;
            Msg::Nack(Nack {
                seqs: (0..len).map(|_| Seq(buf.get_u64_le())).collect(),
            })
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok((from, msg, buf.len()))
}

/// Bytes from a control frame's `part` field to the end of the frame:
/// `[part][parts][h][fanout]`, four `u32`s, close every control frame.
/// `part` is the only field in which the handles of one fan-out differ,
/// so [`BundleWriter::push`] and [`FanoutDecoder`] find it here without
/// parsing the body.
pub const PART_FROM_END: usize = 16;

/// The last control frame one sender sent, and its decoded body.
#[derive(Debug)]
struct HeldBody {
    frame: Vec<u8>,
    body: Arc<ControlBody>,
    /// Recipients that have yet to decode it here.
    left: u32,
}

/// A worker's decoder: [`decode`], except that the control body of a
/// fan-out is parsed once per worker, not once per recipient.
///
/// It holds, per sender, the last control frame that sender sent and
/// its decoded body. A frame that equals the held one in every byte
/// except `part` (at [`PART_FROM_END`]) is answered with a handle on the
/// held body and the frame's own `part` — exactly what [`decode`] would
/// return. Anything else goes through [`decode`], errors included.
///
/// A fan-out of one, or a frame with bytes after its last field, is
/// never held (and leaves its sender's entry alone). An entry is
/// replaced by its sender's next held control frame, dropped once the
/// recipients still expected have decoded it (`parts − 1` for Activate
/// and Commit, `fanout` for Probe; an Announce waits to be replaced),
/// and freed with the decoder. So the table holds at most one entry per
/// sender; senders at or above the bound given to
/// [`FanoutDecoder::new`] hold none.
#[derive(Debug)]
pub struct FanoutDecoder {
    /// Indexed by sender.
    held: Vec<Option<HeldBody>>,
    senders: usize,
    shared: u64,
}

impl FanoutDecoder {
    /// A decoder that holds bodies for senders `0..senders`.
    pub fn new(senders: usize) -> FanoutDecoder {
        FanoutDecoder {
            held: Vec::new(),
            senders,
            shared: 0,
        }
    }

    /// Decode one plain `[from][kind][body]` frame.
    pub fn decode(&mut self, frame: &[u8]) -> Result<(ActorId, Msg), CodecError> {
        if let Some(hit) = self.repeat(frame) {
            return Ok(hit);
        }
        let (from, msg, rest) = decode_with_rest(frame)?;
        if let Msg::Control(c) = &msg {
            self.hold(from, frame, c, rest);
        }
        Ok((from, msg))
    }

    /// A handle on the held body when `frame` repeats its sender's held
    /// frame in every byte except `part`.
    fn repeat(&mut self, frame: &[u8]) -> Option<(ActorId, Msg)> {
        let from = u32::from_le_bytes(*frame.first_chunk::<4>()?);
        let slot = self.held.get_mut(from as usize)?;
        let held = slot.as_mut()?;
        // A held frame is a whole control frame, longer than PART_FROM_END.
        let part_at = frame.len().checked_sub(PART_FROM_END)?;
        let same = frame.len() == held.frame.len()
            && frame[..part_at] == held.frame[..part_at]
            && frame[part_at + 4..] == held.frame[part_at + 4..];
        if !same {
            return None;
        }
        let part = u32::from_le_bytes(frame[part_at..part_at + 4].try_into().expect("4 bytes"));
        let body = Arc::clone(&held.body);
        held.left -= 1;
        if held.left == 0 {
            *slot = None;
        }
        self.shared += 1;
        Some((ActorId(from), Msg::Control(ControlPacket { body, part })))
    }

    /// Make a just-decoded control frame its sender's held one.
    fn hold(&mut self, from: ActorId, frame: &[u8], c: &ControlPacket, rest: usize) {
        let i = from.0 as usize;
        let recipients = match c.body.kind {
            ControlKind::Activate | ControlKind::Commit => c.body.parts.saturating_sub(1),
            ControlKind::Probe => c.body.fanout,
            ControlKind::Announce => u32::MAX,
        };
        // Bytes after the last field would put `part` elsewhere.
        if i >= self.senders || rest != 0 || recipients < 2 {
            return;
        }
        if self.held.len() <= i {
            self.held.resize_with(i + 1, || None);
        }
        let slot = &mut self.held[i];
        let mut buf = slot.take().map(|h| h.frame).unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        *slot = Some(HeldBody {
            frame: buf,
            body: Arc::clone(&c.body),
            left: recipients - 1,
        });
    }

    /// Control frames answered from a held body instead of parsed.
    pub fn shared(&self) -> u64 {
        self.shared
    }

    /// Senders whose last control body is still held.
    pub fn held(&self) -> usize {
        self.held.iter().filter(|h| h.is_some()).count()
    }
}

/// Seal threshold of a bundle: one un-fragmented Ethernet UDP payload
/// (1500 B MTU − 20 B IPv4 header − 8 B UDP header). A datagram exceeds
/// it only when it holds a single frame that is larger by itself.
pub const BUNDLE_MTU: usize = 1472;

/// Largest routed frame a record can carry: the UDP/IPv4 payload limit
/// (65 507 B) minus the record's own length prefix.
pub const MAX_RECORD: usize = 65_507 - RECORD_PREFIX;

/// Bytes of a record's `[len: u16]` prefix.
const RECORD_PREFIX: usize = 2;
/// Bytes of a routed frame's `[to: u32]` prefix.
const ROUTE_PREFIX: usize = 4;

/// Builds the outbound datagrams of one sender: an *open* bundle that
/// records are appended to, and the list of *sealed* bundles waiting
/// for the next batched send. Buffers are recycled, so the steady state
/// allocates nothing.
///
/// A fan-out is encoded once: the writer keeps the routed frame of the
/// last control message pushed, and a control from the same sender on
/// the same body (`Arc::ptr_eq`) is that frame with `to` and `part`
/// patched in — the same bytes encoding would produce. The writer holds
/// the body itself, so the pointer it compares cannot be freed and
/// reused, until [`BundleWriter::forget_body`].
#[derive(Debug)]
pub struct BundleWriter {
    /// The open bundle (empty = none open).
    open: Vec<u8>,
    /// Sealed datagrams, oldest first.
    sealed: Vec<Vec<u8>>,
    spare: BufPool,
    /// Sender and body of the last control message pushed.
    held: Option<(ActorId, Arc<ControlBody>)>,
    /// Its routed frame.
    held_frame: Vec<u8>,
    /// Records copied from `held_frame` since the last `forget_body`.
    copied: u64,
}

impl BundleWriter {
    /// A writer that keeps up to `spare` emptied buffers for reuse.
    pub fn new(spare: usize) -> BundleWriter {
        BundleWriter {
            open: Vec::new(),
            sealed: Vec::new(),
            spare: BufPool::new(spare),
            held: None,
            held_frame: Vec::new(),
            copied: 0,
        }
    }

    /// Append `msg` as one record to the open bundle, encoded in place
    /// (or copied, for the next handle of a held fan-out body).
    /// False (and nothing appended) when the frame exceeds
    /// [`MAX_RECORD`] and so cannot travel in any datagram.
    pub fn push(&mut self, to: ActorId, from: ActorId, msg: &Msg) -> bool {
        let Msg::Control(c) = msg else {
            return self.push_with(|out| {
                out.put_u32_le(to.0);
                put_frame(from, msg, out);
            });
        };
        let repeat =
            matches!(&self.held, Some((f, body)) if *f == from && Arc::ptr_eq(body, &c.body));
        if !repeat {
            self.held_frame.clear();
            self.held_frame.put_u32_le(to.0);
            put_frame(from, msg, &mut self.held_frame);
            self.held = Some((from, Arc::clone(&c.body)));
        }
        let frame = std::mem::take(&mut self.held_frame);
        let pushed = self.push_with(|out| {
            let start = out.len();
            out.extend_from_slice(&frame);
            out[start..start + ROUTE_PREFIX].copy_from_slice(&to.0.to_le_bytes());
            let part_at = out.len() - PART_FROM_END;
            out[part_at..part_at + 4].copy_from_slice(&c.part.to_le_bytes());
        });
        self.held_frame = frame;
        self.copied += u64::from(repeat && pushed);
        pushed
    }

    /// Forget the held control body (its fan-outs are written). Returns
    /// how many records were copied from a held body, instead of
    /// encoded, since the last call.
    pub fn forget_body(&mut self) -> u64 {
        self.held = None;
        std::mem::take(&mut self.copied)
    }

    /// [`BundleWriter::push`] for a routed frame already encoded
    /// (`[to][from][kind][body]`); also refuses one too short to hold
    /// its routing prefix, which no receiver would accept.
    pub fn push_frame(&mut self, routed: &[u8]) -> bool {
        self.push_with(|out| out.put_slice(routed))
    }

    fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> bool {
        let open = &mut self.open;
        let start = open.len();
        open.put_slice(&[0; RECORD_PREFIX]);
        write(open);
        let len = open.len() - start - RECORD_PREFIX;
        if !(ROUTE_PREFIX..=MAX_RECORD).contains(&len) {
            open.truncate(start);
            return false;
        }
        open[start..start + RECORD_PREFIX].copy_from_slice(&(len as u16).to_le_bytes());
        if start > 0 && open.len() > BUNDLE_MTU {
            // The record does not fit behind the earlier ones: they are
            // sealed, and it opens the next bundle.
            let mut next = self.spare.take();
            next.extend_from_slice(&open[start..]);
            open.truncate(start);
            self.sealed.push(std::mem::replace(open, next));
        }
        true
    }

    /// Seal the open bundle (the caller is about to send).
    pub fn seal(&mut self) {
        if !self.open.is_empty() {
            let next = self.spare.take();
            self.sealed.push(std::mem::replace(&mut self.open, next));
        }
    }

    /// The sealed datagrams, oldest first.
    pub fn sealed(&self) -> &[Vec<u8>] {
        &self.sealed
    }

    /// Forget the sealed datagrams (they were sent); their buffers go
    /// back to the spare list.
    pub fn recycle_sealed(&mut self) {
        for buf in self.sealed.drain(..) {
            self.spare.put(buf);
        }
    }
}

/// Iterator over the records of one received datagram; see
/// [`split_bundle`].
#[derive(Debug)]
pub struct Records<'a> {
    rest: &'a [u8],
    done: bool,
}

/// Walk the records of a datagram: each item is `(to, frame)` — the
/// destination actor and the plain `[from][kind][body]` frame, still
/// encoded — or the error that ends the walk. A record that is cut
/// short, claims more bytes than the datagram holds, or is shorter than
/// its routing prefix yields one `Err` and nothing after it; the records
/// before it have already been yielded intact. An empty datagram is
/// malformed (a bundle holds at least one record).
pub fn split_bundle(datagram: &[u8]) -> Records<'_> {
    Records {
        rest: datagram,
        done: false,
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<(u32, &'a [u8]), CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        self.done = true; // until this record proves well-formed
        let Some((len, body)) = self.rest.split_first_chunk::<RECORD_PREFIX>() else {
            return Some(Err(CodecError::Truncated));
        };
        let len = usize::from(u16::from_le_bytes(*len));
        if len < ROUTE_PREFIX {
            return Some(Err(CodecError::BadLength(len as u64)));
        }
        if body.len() < len {
            return Some(Err(CodecError::Truncated));
        }
        let (routed, rest) = body.split_at(len);
        let (to, frame) = routed
            .split_first_chunk::<ROUTE_PREFIX>()
            .expect("len >= ROUTE_PREFIX checked above");
        self.rest = rest;
        self.done = rest.is_empty();
        Some(Ok((u32::from_le_bytes(*to), frame)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::ContentDesc;
    use mss_sim::world::SimMessage;

    fn view_of(n: usize, members: &[u32]) -> View {
        let mut v = View::empty(n);
        for &m in members {
            v.insert(PeerId(m));
        }
        v
    }

    fn roundtrip(msg: Msg) -> Msg {
        let frame = encode(ActorId(7), &msg);
        let (from, back) = decode(&frame).expect("decode");
        assert_eq!(from, ActorId(7));
        back
    }

    #[test]
    fn request_roundtrip() {
        let msg = Msg::request(ContentRequest {
            wave: 1,
            interval_nanos: 512_000,
            h: 3,
            fanout: 4,
            part: 2,
            parts: 4,
            view: Some(Arc::new(view_of(10, &[0, 3, 9]))),
            weights: Some(vec![4, 2, 1, 9].into()),
        });
        match roundtrip(msg) {
            Msg::Request(r) => {
                assert_eq!(r.interval_nanos, 512_000);
                assert_eq!(r.part, 2);
                let v = r.view.unwrap();
                assert!(v.contains(PeerId(9)) && !v.contains(PeerId(1)));
                assert_eq!(v.count(), 3);
                assert_eq!(r.weights.unwrap().as_ref(), &[4, 2, 1, 9][..]);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn request_without_view_roundtrip() {
        let msg = Msg::request(ContentRequest {
            wave: 1,
            interval_nanos: 1,
            h: 1,
            fanout: 1,
            part: 0,
            parts: 1,
            view: None,
            weights: None,
        });
        match roundtrip(msg) {
            Msg::Request(r) => {
                assert!(r.view.is_none());
                assert!(r.weights.is_none());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn control_roundtrip_with_parity_schedule() {
        let sched = mss_media::parity::esq(&PacketSeq::data_range(10), 2);
        let body = Arc::new(ControlBody {
            kind: ControlKind::Commit,
            from: PeerId(5),
            wave: 3,
            view: view_of(70, &[64, 69]),
            sched: sched.clone().into(),
            pos: 4,
            interval_nanos: 99,
            mark_delta_nanos: 123,
            parts: 3,
            h: 2,
            fanout: 3,
            basis: None,
        });
        match roundtrip(Msg::control(&body, 1)) {
            Msg::Control(ControlPacket { body: c, part }) => {
                assert_eq!(part, 1);
                assert_eq!(c.kind, ControlKind::Commit);
                assert_eq!(c.sched.to_seq(), sched);
                assert_eq!(c.mark_delta_nanos, 123);
                assert_eq!(c.view, view_of(70, &[64, 69]));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn wire_size_mirrors_encoded_frame_length() {
        // `Msg::wire_size` must equal the real frame length for every
        // coordination message, modulo the documented schedule
        // divergence: the accounting charges SCHED_RECIPE_BYTES where
        // the demo codec writes `[len: u32]` + the materialized ids.
        let exact = [
            Msg::request(ContentRequest {
                wave: 1,
                interval_nanos: 9,
                h: 3,
                fanout: 4,
                part: 1,
                parts: 4,
                view: Some(Arc::new(view_of(3_000, &[5, 2_999]))),
                weights: Some(vec![3, 1].into()),
            }),
            Msg::Reply(ProbeReply {
                from: PeerId(3),
                accept: true,
                wave: 2,
            }),
            Msg::TwoPhase(TwoPhase::Prepare {
                part: 0,
                parts: 2,
                h: 1,
                interval_nanos: 5,
            }),
            Msg::TwoPhase(TwoPhase::Vote {
                from: PeerId(1),
                ok: false,
            }),
            Msg::TwoPhase(TwoPhase::Decision { commit: true }),
            Msg::assign(ScheduleAssignment {
                part: 0,
                parts: 2,
                h: 2,
                interval_nanos: 7,
                sched: mss_media::parity::esq(&PacketSeq::data_range(9), 3),
            }),
            Msg::Nack(Nack {
                seqs: vec![Seq(4), Seq(5)].into(),
            }),
        ];
        for msg in &exact {
            assert_eq!(
                encode(ActorId(1), msg).len(),
                msg.wire_size(),
                "mirror drift for {msg:?}"
            );
        }
        for view in [view_of(900, &[]), view_of(900, &[1, 7, 64])] {
            let body = Arc::new(ControlBody {
                kind: ControlKind::Probe,
                from: PeerId(2),
                wave: 1,
                view,
                sched: SeqView::empty(),
                pos: 0,
                interval_nanos: 11,
                mark_delta_nanos: 0,
                parts: 0,
                h: 3,
                fanout: 4,
                basis: None,
            });
            let c = Msg::control(&body, 0);
            let frame = encode(ActorId(1), &c);
            let empty_sched_bytes = 4; // `[len: u32]` for zero entries
            assert_eq!(
                frame.len(),
                c.wire_size() - mss_core::msg::SCHED_RECIPE_BYTES + empty_sched_bytes,
                "control mirror drift"
            );
        }
    }

    #[test]
    fn data_roundtrip_bit_exact() {
        let content = ContentDesc::small(9, 20);
        let id = PacketId::parity_of(&[PacketId::Data(Seq(3)), PacketId::Data(Seq(4))]).unwrap();
        let pkt = content.materialize(&id);
        let msg = Msg::data(PeerId(2), pkt.clone());
        match roundtrip(msg) {
            Msg::Data(d) => {
                assert_eq!(*d.packet, pkt);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    /// A coverage of no seqs, XOR or RS, in a data packet or in a control
    /// packet's schedule, is a bad length, not a panic (the schedule's
    /// order check reads every id's last seq).
    #[test]
    fn an_empty_coverage_is_rejected() {
        let content = ContentDesc::small(9, 20);
        let xor = PacketId::parity_of(&[PacketId::Data(Seq(3)), PacketId::Data(Seq(4))]).unwrap();
        let rs = PacketId::RsParity {
            seqs: vec![Seq(3), Seq(4)].into(),
            row: 1,
        };
        for id in [xor, rs] {
            let body = ControlBody {
                kind: ControlKind::Activate,
                from: PeerId(0),
                wave: 1,
                view: view_of(8, &[]),
                sched: PacketSeq::from_ids(vec![PacketId::Data(Seq(1)), id.clone()]).into(),
                pos: 0,
                interval_nanos: 1_000,
                mark_delta_nanos: 0,
                parts: 2,
                h: 1,
                fanout: 2,
                basis: None,
            };
            let control = Msg::control(&Arc::new(body), 1);
            let data = Msg::data(PeerId(2), content.materialize(&id));
            for msg in [control, data] {
                let frame = encode(ActorId(1), &msg).to_vec();
                let mut cover = vec![];
                put_packet_id(&mut cover, &id);
                let at = frame
                    .windows(cover.len())
                    .position(|w| w == cover)
                    .expect("the frame holds the id");
                // The same id with its length field zeroed and no seqs.
                let head = cover.len() - 4 - 16;
                let mut empty = frame[..at + head].to_vec();
                empty.extend_from_slice(&0u32.to_le_bytes());
                empty.extend_from_slice(&frame[at + cover.len()..]);
                assert_eq!(decode(&empty).err(), Some(CodecError::BadLength(0)));
            }
        }
    }

    #[test]
    fn two_phase_roundtrips() {
        for tp in [
            TwoPhase::Prepare {
                part: 1,
                parts: 9,
                h: 8,
                interval_nanos: 77,
            },
            TwoPhase::Vote {
                from: PeerId(4),
                ok: true,
            },
            TwoPhase::Decision { commit: false },
        ] {
            let msg = Msg::TwoPhase(tp.clone());
            match (roundtrip(msg), tp) {
                (
                    Msg::TwoPhase(TwoPhase::Prepare { part, .. }),
                    TwoPhase::Prepare { part: p2, .. },
                ) => {
                    assert_eq!(part, p2)
                }
                (
                    Msg::TwoPhase(TwoPhase::Vote { from, ok }),
                    TwoPhase::Vote { from: f2, ok: o2 },
                ) => {
                    assert_eq!((from, ok), (f2, o2))
                }
                (
                    Msg::TwoPhase(TwoPhase::Decision { commit }),
                    TwoPhase::Decision { commit: c2 },
                ) => assert_eq!(commit, c2),
                (a, b) => panic!("variant mismatch {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn assign_roundtrip() {
        let msg = Msg::assign(ScheduleAssignment {
            part: 3,
            parts: 10,
            h: 9,
            interval_nanos: 1000,
            sched: PacketSeq::data_range(5),
        });
        match roundtrip(msg) {
            Msg::Assign(a) => {
                assert_eq!(a.sched, PacketSeq::data_range(5));
                assert_eq!(a.parts, 10);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn reply_roundtrip() {
        let msg = Msg::Reply(ProbeReply {
            from: PeerId(11),
            accept: false,
            wave: 2,
        });
        match roundtrip(msg) {
            Msg::Reply(r) => {
                assert_eq!(r.from, PeerId(11));
                assert!(!r.accept);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn rs_parity_packet_roundtrip() {
        let content = ContentDesc::small(11, 20);
        let id = PacketId::RsParity {
            seqs: vec![Seq(5), Seq(6), Seq(7)].into(),
            row: 2,
        };
        let pkt = content.materialize(&id);
        let msg = Msg::data(PeerId(1), pkt.clone());
        match roundtrip(msg) {
            Msg::Data(d) => assert_eq!(*d.packet, pkt),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn nack_roundtrip() {
        let msg = Msg::Nack(Nack {
            seqs: vec![Seq(3), Seq(99), Seq(100_000)].into(),
        });
        match roundtrip(msg) {
            Msg::Nack(n) => assert_eq!(n.seqs.as_ref(), &[Seq(3), Seq(99), Seq(100_000)][..]),
            other => panic!("wrong variant {other:?}"),
        }
    }

    /// `part` sits [`PART_FROM_END`] bytes before the end of every
    /// control frame, whatever kind, view and schedule precede it, and
    /// it is the only place two handles of one body differ.
    #[test]
    fn part_sits_at_a_fixed_distance_from_the_frame_end() {
        let sched = mss_media::parity::esq(&PacketSeq::data_range(7), 3);
        for (kind, view) in [
            (ControlKind::Activate, view_of(90, &[2, 40])),
            (ControlKind::Probe, view_of(90, &[])),
            (ControlKind::Commit, View::full(90)),
        ] {
            let body = Arc::new(ControlBody {
                kind,
                from: PeerId(3),
                wave: 2,
                view,
                sched: sched.clone().into(),
                pos: 1,
                interval_nanos: 5,
                mark_delta_nanos: 6,
                parts: 0x0A0B_0C0D,
                h: 2,
                fanout: 3,
                basis: None,
            });
            let a = encode(ActorId(2), &Msg::control(&body, 0x0102_0304));
            let b = encode(ActorId(2), &Msg::control(&body, 7));
            let at = a.len() - PART_FROM_END;
            assert_eq!(a[at..at + 4], 0x0102_0304u32.to_le_bytes());
            assert_eq!(a[at + 4..at + 8], 0x0A0B_0C0Du32.to_le_bytes());
            assert_eq!(a.len(), b.len());
            let differ: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
            assert!(
                differ.iter().all(|i| (at..at + 4).contains(i)),
                "{kind:?}: handles differ at {differ:?}, part is at {at}"
            );
        }
    }

    #[test]
    fn truncated_and_garbage_frames_error() {
        let frame = encode(
            ActorId(0),
            &Msg::Reply(ProbeReply {
                from: PeerId(1),
                accept: true,
                wave: 1,
            }),
        );
        assert_eq!(decode(&frame[..3]).unwrap_err(), CodecError::Truncated);
        assert_eq!(
            decode(&frame[..frame.len() - 1]).unwrap_err(),
            CodecError::Truncated
        );
        let mut garbage = frame.to_vec();
        garbage[4] = 99;
        assert_eq!(decode(&garbage).unwrap_err(), CodecError::BadTag(99));
        assert_eq!(decode(&[]).unwrap_err(), CodecError::Truncated);
    }
}
