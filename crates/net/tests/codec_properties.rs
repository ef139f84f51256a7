//! Property tests for the wire codec: arbitrary messages survive
//! `encode_into` → `decode` byte-exactly (checked by re-encoding —
//! encoding is deterministic, so `encode(decode(encode(m)))` must equal
//! `encode(m)` bit for bit), the routed variant is exactly a 4-byte
//! destination prefix over the plain frame, truncated or corrupted
//! frames are rejected with an error — never a panic — and a worker's
//! `FanoutDecoder`, which parses a fan-out's body once, answers every
//! frame exactly as `decode` does.

use proptest::prelude::*;

use bytes::BytesMut;
use mss_core::msg::{
    ContentRequest, ControlBody, ControlKind, Msg, Nack, ProbeReply, ScheduleAssignment, TwoPhase,
};
use mss_net::codec::{
    decode, encode_into, encode_routed_into, CodecError, FanoutDecoder, PART_FROM_END,
};
use mss_overlay::{wire, PeerId, View};
use mss_sim::event::ActorId;
use mss_sim::rng::SimRng;
use mss_sim::world::SimMessage;
use std::sync::Arc;

use mss_media::packet::{Cover, PacketId, Seq};
use mss_media::{ContentDesc, PacketSeq};

/// Deterministic arbitrary-message generator: the proptest shim drives
/// it with random seeds, this function maps each seed to one message
/// covering every variant and the optional-field combinations.
fn gen_msg(seed: u64) -> Msg {
    let mut rng = SimRng::new(seed).fork(0xC0DEC);
    let mut view = |n: usize| {
        let mut v = View::empty(n);
        let members = rng.gen_below(n as u64 + 1);
        for _ in 0..members {
            v.insert(PeerId(rng.gen_below(n as u64) as u32));
        }
        v
    };
    let mut rng = SimRng::new(seed).fork(0xC0DEC + 1);
    let mut seq = |max: u64| {
        let l = 1 + rng.gen_below(max);
        let h = 1 + rng.gen_below(4) as usize;
        mss_media::parity::esq(&PacketSeq::data_range(l), h)
    };
    let mut rng = SimRng::new(seed).fork(0xC0DEC + 2);
    match rng.gen_below(7) {
        0 => Msg::request(ContentRequest {
            wave: rng.gen_below(10) as u32,
            interval_nanos: rng.next_u64() >> 20,
            h: rng.gen_below(16) as u32,
            fanout: 1 + rng.gen_below(8) as u32,
            part: rng.gen_below(8) as u32,
            parts: 1 + rng.gen_below(8) as u32,
            view: if rng.gen_bool(0.5) {
                Some(Arc::new(view(1 + rng.gen_below(64) as usize)))
            } else {
                None
            },
            weights: if rng.gen_bool(0.5) {
                let k = rng.gen_below(16) as usize;
                Some((0..k).map(|_| rng.gen_below(1000)).collect())
            } else {
                None
            },
        }),
        1 => {
            let v = view(1 + rng.gen_below(128) as usize);
            let body = ControlBody {
                kind: match rng.gen_below(4) {
                    0 => ControlKind::Activate,
                    1 => ControlKind::Probe,
                    2 => ControlKind::Commit,
                    _ => ControlKind::Announce,
                },
                from: PeerId(rng.gen_below(1000) as u32),
                wave: rng.gen_below(20) as u32,
                view: v,
                sched: seq(30).into(),
                pos: rng.gen_below(30) as u32,
                interval_nanos: rng.next_u64() >> 30,
                mark_delta_nanos: rng.next_u64() >> 30,
                parts: 1 + rng.gen_below(8) as u32,
                h: 1 + rng.gen_below(8) as u32,
                fanout: 1 + rng.gen_below(8) as u32,
                basis: None,
            };
            Msg::control(&Arc::new(body), rng.gen_below(8) as u32)
        }
        2 => Msg::Reply(ProbeReply {
            from: PeerId(rng.gen_below(1000) as u32),
            accept: rng.gen_bool(0.5),
            wave: rng.gen_below(20) as u32,
        }),
        3 => {
            let content = ContentDesc::small(seed, 40);
            // Data seqs are 1-based (1..=packets).
            let id = if rng.gen_bool(0.5) {
                PacketId::Data(Seq(1 + rng.gen_below(40)))
            } else {
                PacketId::parity_of(&[
                    PacketId::Data(Seq(1 + rng.gen_below(20))),
                    PacketId::Data(Seq(21 + rng.gen_below(20))),
                ])
                .expect("distinct data parts")
            };
            Msg::data(PeerId(rng.gen_below(100) as u32), content.materialize(&id))
        }
        4 => Msg::TwoPhase(match rng.gen_below(3) {
            0 => TwoPhase::Prepare {
                part: rng.gen_below(8) as u32,
                parts: 1 + rng.gen_below(8) as u32,
                h: 1 + rng.gen_below(8) as u32,
                interval_nanos: rng.next_u64() >> 30,
            },
            1 => TwoPhase::Vote {
                from: PeerId(rng.gen_below(100) as u32),
                ok: rng.gen_bool(0.5),
            },
            _ => TwoPhase::Decision {
                commit: rng.gen_bool(0.5),
            },
        }),
        5 => Msg::assign(ScheduleAssignment {
            part: rng.gen_below(8) as u32,
            parts: 1 + rng.gen_below(8) as u32,
            h: 1 + rng.gen_below(8) as u32,
            interval_nanos: rng.next_u64() >> 30,
            sched: seq(50),
        }),
        _ => Msg::Nack(Nack {
            seqs: {
                let k = rng.gen_below(64) as usize;
                (0..k).map(|_| Seq(rng.next_u64() >> 20)).collect()
            },
        }),
    }
}

fn encode_frame(from: ActorId, msg: &Msg) -> Vec<u8> {
    let mut out = BytesMut::new();
    encode_into(from, msg, &mut out);
    out.to_vec()
}

/// Views engineered to frame in each wire encoding: a handful of
/// scattered ids (sparse varint list), long contiguous bands (runs),
/// and near-full membership (dense bitmap). `shape` selects one.
fn shaped_view(shape: u64, seed: u64) -> View {
    let mut rng = SimRng::new(seed).fork(0x5AE);
    let n = 256 + rng.gen_below(2048) as usize;
    let mut v = View::empty(n);
    match shape % 3 {
        0 => {
            // Sparse: few isolated members.
            for _ in 0..1 + rng.gen_below(8) {
                v.insert(PeerId(rng.gen_below(n as u64) as u32));
            }
        }
        1 => {
            // Runs: a few long contiguous bands.
            for _ in 0..1 + rng.gen_below(4) {
                let start = rng.gen_below(n as u64 - 64) as u32;
                let len = 16 + rng.gen_below(48) as u32;
                for id in start..start + len {
                    v.insert(PeerId(id));
                }
            }
        }
        _ => {
            // Dense: everyone except a few holes.
            for id in 0..n as u32 {
                v.insert(PeerId(id));
            }
        }
    }
    v
}

/// A control packet whose only varying part is the view — isolates the
/// view frame inside a real codec frame.
fn control_with(view: View) -> Msg {
    let body = ControlBody {
        kind: ControlKind::Commit,
        from: PeerId(4),
        wave: 3,
        view,
        sched: mss_media::SeqView::empty(),
        pos: 0,
        interval_nanos: 1_000,
        mark_delta_nanos: 0,
        parts: 1,
        h: 2,
        fanout: 2,
        basis: None,
    };
    Msg::control(&Arc::new(body), 0)
}

/// View frames over n = 100 whose gap or length varints overflow `u64`
/// when summed, spliced into a control frame in place of its view: the
/// codec reports a bad view instead of panicking.
#[test]
fn overflowing_view_gaps_are_bad_views() {
    let view = |tag: u8, fields: &[u64]| {
        let mut out = vec![(wire::WIRE_VERSION << 4) | tag, 100];
        for &f in fields {
            let mut x = f;
            while x >= 0x80 {
                out.push(x as u8 | 0x80);
                x >>= 7;
            }
            out.push(x as u8);
        }
        out
    };
    let empty = View::empty(100);
    let frame = encode_frame(ActorId(3), &control_with(empty.clone()));
    // `[from: u32][kind: u8][control kind: u8][from: u32][wave: u32]`,
    // then the view.
    let at = 4 + 1 + 1 + 4 + 4;
    let mut empty_view = Vec::new();
    wire::encode_view(&empty, &mut empty_view);
    assert_eq!(frame[at..at + empty_view.len()], empty_view[..]);
    let (head, tail) = (&frame[..at], &frame[at + empty_view.len()..]);
    for bad in [
        // Sparse, ids 5 then 5 + 1 + (2⁶⁴ − 4).
        view(wire::TAG_SPARSE, &[2, 5, u64::MAX - 3]),
        // Runs, [5, 6) then a start of 6 + (2⁶⁴ − 4).
        view(wire::TAG_RUNS, &[2, 5, 0, u64::MAX - 3, 0]),
        // Runs, start 5 and an end of 5 + (2⁶⁴ − 3) + 1.
        view(wire::TAG_RUNS, &[1, 5, u64::MAX - 2]),
    ] {
        let hostile = [head, &bad, tail].concat();
        assert_eq!(
            decode(&hostile).unwrap_err(),
            CodecError::BadView(wire::WireError::BadEncoding),
            "{bad:x?}"
        );
    }
}

fn view_of(n: usize, ids: impl IntoIterator<Item = u32>) -> View {
    let mut v = View::empty(n);
    for i in ids {
        v.insert(PeerId(i));
    }
    v
}

/// Four bodies and, for one part of each, the frame their fields encode
/// to from `ActorId(21)` — one per kind, covering the sparse, runs and
/// dense view encodings. The bytes pin the control frame layout.
fn golden_fanouts() -> [(ControlBody, u32, &'static str); 4] {
    let dense = || view_of(64, (0..64).filter(|i| i % 9 != 4));
    let blank = ControlBody {
        kind: ControlKind::Activate,
        from: PeerId(12),
        wave: 5,
        view: dense(),
        sched: mss_media::SeqView::empty(),
        pos: 0,
        interval_nanos: 1_500,
        mark_delta_nanos: 0,
        parts: 0,
        h: 3,
        fanout: 8,
        basis: None,
    };
    [
        (
            ControlBody {
                from: PeerId(7),
                wave: 2,
                view: view_of(300, [1, 9, 250]),
                sched: mss_media::parity::esq(&PacketSeq::data_range(4), 2).into(),
                pos: 1,
                interval_nanos: 1_000_000,
                mark_delta_nanos: 2_000_000,
                parts: 5,
                h: 2,
                fanout: 4,
                ..blank.clone()
            },
            3,
            "150000000100070000000200000011ac02030107f001060000000102000000010000000000000002\
             00000000000000000100000000000000000200000000000000000300000000000000010200000003\
             0000000000000004000000000000000004000000000000000100000040420f000000000080841e00\
             0000000003000000050000000200000004000000",
        ),
        (
            ControlBody {
                kind: ControlKind::Probe,
                view: view_of(300, 40..120),
                ..blank.clone()
            },
            0,
            "1500000001010c0000000500000012ac0201284f0000000000000000dc0500000000000000000000\
             0000000000000000000000000300000008000000",
        ),
        (
            ControlBody {
                kind: ControlKind::Commit,
                sched: PacketSeq::data_range(3).into(),
                pos: 2,
                mark_delta_nanos: 30_000,
                parts: 4,
                h: 4,
                ..blank.clone()
            },
            2,
            "1500000001020c000000050000001040efdfbf7ffffefdfb03000000000100000000000000000200\
             00000000000000030000000000000002000000dc0500000000000030750000000000000200000004\
             0000000400000008000000",
        ),
        (
            ControlBody {
                kind: ControlKind::Announce,
                from: PeerId(3),
                wave: 1,
                interval_nanos: 777,
                h: 2,
                fanout: 6,
                ..blank
            },
            0,
            "15000000010303000000010000001040efdfbf7ffffefdfb00000000000000000903000000000000\
             000000000000000000000000000000000200000006000000",
        ),
    ]
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Every handle of a shared fan-out encodes to the golden frame, with
/// the handle's `part` at its fixed offset, decodes to the right
/// `part` on a body of its own, and keeps the byte-accounting mirrors.
#[test]
fn shared_fanout_handles_encode_to_the_boxed_packets_bytes() {
    for (body, golden_part, hex) in golden_fanouts() {
        let golden = unhex(hex);
        let body = Arc::new(body);
        let part_at = golden.len() - PART_FROM_END;
        let priced = Msg::control(&body, golden_part);
        for part in [golden_part, 0, 1, 7, u32::MAX] {
            let msg = Msg::control(&body, part);
            let frame = encode_frame(ActorId(21), &msg);
            let mut expect = golden.clone();
            expect[part_at..part_at + 4].copy_from_slice(&part.to_le_bytes());
            assert_eq!(frame, expect, "{:?} part {part}", body.kind);

            let (from, back) = decode(&frame).expect("golden frames decode");
            assert_eq!(from, ActorId(21));
            let Msg::Control(c) = &back else {
                panic!("wrong variant")
            };
            assert_eq!(c.part, part);
            assert_eq!(Arc::strong_count(&c.body), 1, "a decoded body is unshared");
            assert_eq!(encode_frame(from, &back), frame);
            for m in [&msg, &back] {
                assert_eq!(m.wire_size(), priced.wire_size());
                assert_eq!(m.model_size(), priced.model_size());
                assert!(m.is_coordination());
            }
        }
        assert_eq!(
            Arc::strong_count(&body),
            2,
            "handles are refcounts, not copies"
        );
    }
}

/// The first control message `gen_msg` makes at or after `seed`.
fn gen_control(seed: u64) -> Msg {
    (0..)
        .map(|k| gen_msg(seed.wrapping_add(k)))
        .find(|m| matches!(m, Msg::Control(_)))
        .expect("one in seven messages is a control")
}

/// A random one of `frames`, if any.
fn pick<'a>(rng: &mut SimRng, frames: &'a [Vec<u8>]) -> Option<&'a Vec<u8>> {
    (!frames.is_empty()).then(|| &frames[rng.gen_below(frames.len() as u64) as usize])
}

/// `got` is what `want` is: the same sender and an equal message (for
/// a control, the same `part` on an equal body), or the same error.
fn assert_same_decode(
    got: &Result<(ActorId, Msg), CodecError>,
    want: &Result<(ActorId, Msg), CodecError>,
) {
    match (got, want) {
        (Ok((gf, gm)), Ok((wf, wm))) => {
            assert_eq!(gf, wf);
            if let (Msg::Control(g), Msg::Control(w)) = (gm, wm) {
                assert_eq!(g.part, w.part);
            }
            assert_eq!(format!("{gm:?}"), format!("{wm:?}"));
        }
        (Err(g), Err(w)) => assert_eq!(g, w),
        _ => panic!("decoder {got:?}, decode {want:?}"),
    }
}

proptest! {
    /// A worker's `FanoutDecoder` returns exactly what `decode` returns,
    /// over random frame sequences from a few senders: fresh messages of
    /// every kind, fan-outs (one body, many parts), repeats, a changed
    /// body from the same sender, a repeat that differs in one byte
    /// outside `part`, a repeat with bytes appended, and truncations —
    /// and it never holds more than one body per sender it holds for.
    #[test]
    fn fanout_decoder_returns_what_decode_returns(seed in any::<u64>(), steps in 1usize..120) {
        let mut rng = SimRng::new(seed).fork(0xDEC0DE);
        // Senders 0..4 are held for; 4 and 5 are beyond the bound.
        let mut decoder = FanoutDecoder::new(4);
        let mut controls: Vec<Vec<u8>> = Vec::new();
        for _ in 0..steps {
            let from = ActorId(rng.gen_below(6) as u32);
            let mut frames = Vec::new();
            match rng.gen_below(9) {
                0 => frames.push(encode_frame(from, &gen_msg(rng.next_u64()))),
                1 | 2 => {
                    // A fan-out: one body, handles with their own parts.
                    let Msg::Control(c) = gen_control(rng.next_u64()) else { unreachable!() };
                    for _ in 0..1 + rng.gen_below(6) {
                        let part = rng.gen_below(9) as u32;
                        frames.push(encode_frame(from, &Msg::control(&c.body, part)));
                    }
                }
                3 => {
                    // Another handle of an earlier fan-out, or a copy.
                    if let Some(f) = pick(&mut rng, &controls) {
                        let mut f = f.clone();
                        if rng.gen_bool(0.7) {
                            let at = f.len() - PART_FROM_END;
                            f[at..at + 4].copy_from_slice(&(rng.next_u64() as u32).to_le_bytes());
                        }
                        frames.push(f);
                    }
                }
                4 => {
                    // One byte off, anywhere but `part`.
                    if let Some(f) = pick(&mut rng, &controls) {
                        let mut f = f.clone();
                        let part_at = f.len() - PART_FROM_END;
                        let mut at = rng.gen_below(f.len() as u64 - 4) as usize;
                        if at >= part_at {
                            at += 4;
                        }
                        f[at] ^= 1 + rng.gen_below(255) as u8;
                        frames.push(f);
                    }
                }
                5 => {
                    // Bytes after the last field (`decode` ignores them).
                    if let Some(f) = pick(&mut rng, &controls) {
                        let mut f = f.clone();
                        f.extend((0..1 + rng.gen_below(8)).map(|_| rng.next_u64() as u8));
                        frames.push(f);
                    }
                }
                6 => {
                    if let Some(f) = pick(&mut rng, &controls) {
                        let cut = rng.gen_below(f.len() as u64) as usize;
                        frames.push(f[..cut].to_vec());
                    }
                }
                _ => {
                    // The last control's sender moves on to a new body.
                    let sender = controls
                        .last()
                        .map_or(from, |f| ActorId(u32::from_le_bytes(*f.first_chunk().unwrap())));
                    frames.push(encode_frame(sender, &gen_control(rng.next_u64())));
                }
            }
            for frame in frames {
                let got = decoder.decode(&frame);
                let want = decode(&frame);
                assert_same_decode(&got, &want);
                if matches!(&want, Ok((_, Msg::Control(_)))) {
                    controls.push(frame);
                }
                prop_assert!(decoder.held() <= 4, "{} bodies held for 4 senders", decoder.held());
            }
        }
    }

    /// encode → decode → encode is byte-stable for every message shape.
    #[test]
    fn roundtrip_is_byte_stable(seed in any::<u64>(), from in 0u32..5000) {
        let msg = gen_msg(seed);
        let frame = encode_frame(ActorId(from), &msg);
        let (got_from, back) = decode(&frame).expect("well-formed frame must decode");
        prop_assert_eq!(got_from, ActorId(from));
        let frame2 = encode_frame(got_from, &back);
        prop_assert_eq!(&frame, &frame2, "re-encoding changed bytes for {:?}", back);
    }

    /// The boxed/Arc'd re-layout of `Msg` (ISSUE 10) must not move any
    /// byte accounting: a message surviving a codec round-trip reports
    /// the same `wire_size` (`coord.bytes_tx`), `model_size` (legacy
    /// `coord.bytes`) and `is_coordination` class as the original — for
    /// every variant `gen_msg` can produce.
    #[test]
    fn byte_accounting_survives_roundtrip(seed in any::<u64>(), from in 0u32..5000) {
        let msg = gen_msg(seed);
        let frame = encode_frame(ActorId(from), &msg);
        let (_, back) = decode(&frame).expect("well-formed frame must decode");
        prop_assert_eq!(back.wire_size(), msg.wire_size(), "coord.bytes_tx moved");
        prop_assert_eq!(back.model_size(), msg.model_size(), "coord.bytes moved");
        prop_assert_eq!(back.is_coordination(), msg.is_coordination());
    }

    /// The routed frame is exactly `[to LE]` + the plain frame.
    #[test]
    fn routed_frame_is_prefix_plus_plain(seed in any::<u64>(), to in 0u32..5000) {
        let msg = gen_msg(seed);
        let plain = encode_frame(ActorId(9), &msg);
        let mut routed = BytesMut::new();
        encode_routed_into(ActorId(to), ActorId(9), &msg, &mut routed);
        prop_assert_eq!(routed.len(), plain.len() + 4);
        prop_assert_eq!(&routed[..4], &to.to_le_bytes()[..]);
        prop_assert_eq!(&routed[4..], &plain[..]);
    }

    /// Every truncation of a valid frame decodes without panicking.
    #[test]
    fn truncated_frames_never_panic(seed in any::<u64>()) {
        let msg = gen_msg(seed);
        let frame = encode_frame(ActorId(3), &msg);
        for cut in 0..frame.len() {
            // Err is expected; a short Ok (self-delimiting prefix) is
            // tolerated — the property is "no panic, no UB".
            let _ = decode(&frame[..cut]);
        }
    }

    /// Randomly corrupted frames decode without panicking.
    #[test]
    fn corrupted_frames_never_panic(seed in any::<u64>(), flips in 1usize..8) {
        let msg = gen_msg(seed);
        let mut frame = encode_frame(ActorId(3), &msg);
        let mut rng = SimRng::new(seed).fork(0xBAD);
        for _ in 0..flips {
            let at = rng.gen_below(frame.len() as u64) as usize;
            frame[at] ^= (1 + rng.gen_below(255)) as u8;
        }
        let _ = decode(&frame);
    }

    /// Pure garbage decodes without panicking.
    #[test]
    fn garbage_never_panics(seed in any::<u64>(), len in 0usize..512) {
        let mut rng = SimRng::new(seed).fork(0xFEED);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode(&junk);
    }

    /// Every view encoding — sparse list, run-length, dense bitmap —
    /// survives a full codec frame: the roundtrip is
    /// byte-stable and the decoded view is set-equal to the original
    /// regardless of which encoding the codec selected.
    #[test]
    fn every_view_shape_roundtrips_through_control_frames(seed in any::<u64>(), shape in 0u64..3) {
        let v = shaped_view(shape, seed);
        let msg = control_with(v.clone());
        let frame = encode_frame(ActorId(11), &msg);
        let (_, back) = decode(&frame).expect("shaped view frame must decode");
        let Msg::Control(c) = &back else { panic!("wrong variant") };
        prop_assert_eq!(&c.body.view, &v, "decoded view differs for shape {}", shape);
        prop_assert_eq!(&frame, &encode_frame(ActorId(11), &back));
    }

    /// Truncating or corrupting a frame built around any view shape
    /// errors cleanly — never a panic.
    #[test]
    fn damaged_view_frames_never_panic(seed in any::<u64>(), shape in 0u64..3, flips in 1usize..8) {
        let msg = control_with(shaped_view(shape, seed));
        let frame = encode_frame(ActorId(3), &msg);
        for cut in 0..frame.len() {
            let _ = decode(&frame[..cut]);
        }
        let mut damaged = frame;
        let mut rng = SimRng::new(seed).fork(0xBADB17);
        for _ in 0..flips {
            let at = rng.gen_below(damaged.len() as u64) as usize;
            damaged[at] ^= (1 + rng.gen_below(255)) as u8;
        }
        let _ = decode(&damaged);
    }
}

/// The seed's packet id, with every coverage a plain `Vec<Seq>`: the
/// reference model a [`Cover`] is checked against. Its variants are in
/// `PacketId`'s order, so the derived `Hash` feeds a hasher the same
/// words `PacketId`'s does when the two agree.
#[derive(Hash)]
enum RefId {
    #[allow(dead_code)]
    Data(Seq),
    Parity(Vec<Seq>),
}

/// A sorted, duplicate-free set of 1 to 5 seqs from `1..=max`.
fn arb_set(rng: &mut SimRng, max: u64) -> Vec<Seq> {
    let mut set: Vec<Seq> = (0..1 + rng.gen_below(5))
        .map(|_| Seq(1 + rng.gen_below(max)))
        .collect();
    set.sort();
    set.dedup();
    set
}

/// XOR of coverage sets: the seqs in an odd number of them, sorted.
fn symmetric_difference(sets: &[Vec<Seq>]) -> Vec<Seq> {
    let mut all: Vec<Seq> = sets.iter().flatten().copied().collect();
    all.sort();
    let mut odd = Vec::new();
    for run in all.chunk_by(|a, b| a == b) {
        if run.len() % 2 == 1 {
            odd.push(run[0]);
        }
    }
    odd
}

fn std_hash(x: &impl std::hash::Hash) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    BuildHasherDefault::<DefaultHasher>::default().hash_one(x)
}

/// `cover` is canonical and reads exactly as `reference`: inline iff it
/// is one seq, equal and hashed as the slice (also inside a packet id),
/// displayed alike, framed to the reference's bytes, and decoded back
/// to the same canonical form.
fn assert_cover_is(cover: &Cover, reference: &[Seq], how: &str) {
    assert_eq!(&**cover, reference, "{how}");
    assert_eq!(
        cover.is_inline(),
        reference.len() == 1,
        "{how}: {reference:?}"
    );
    assert_eq!(std_hash(cover), std_hash(&reference), "{how}");
    let id = PacketId::Parity(cover.clone());
    let ref_id = RefId::Parity(reference.to_vec());
    assert_eq!(std_hash(&id), std_hash(&ref_id), "{how}");
    assert_eq!(
        id,
        PacketId::Parity(Cover::from(reference.to_vec())),
        "{how}"
    );
    let shown: Vec<String> = reference.iter().map(|s| s.0.to_string()).collect();
    assert_eq!(id.to_string(), format!("t<{}>", shown.join(",")), "{how}");

    // A data frame ends with the id, the payload length and the payload.
    let payload: Arc<[u8]> = Arc::from(&[0xAB, 0xCD][..]);
    let msg = Msg::data(PeerId(7), mss_media::Packet { id, payload });
    let frame = encode_frame(ActorId(2), &msg);
    let mut tail = vec![1u8];
    tail.extend_from_slice(&(reference.len() as u32).to_le_bytes());
    for s in reference {
        tail.extend_from_slice(&s.0.to_le_bytes());
    }
    tail.extend_from_slice(&2u32.to_le_bytes());
    tail.extend_from_slice(&[0xAB, 0xCD]);
    assert!(frame.ends_with(&tail), "{how}: frame bytes");
    let (_, back) = decode(&frame).expect("a data frame decodes");
    let Msg::Data(d) = back else {
        panic!("wrong variant")
    };
    let PacketId::Parity(decoded) = &d.packet.id else {
        panic!("{how}: decoded {:?}", d.packet.id)
    };
    assert_eq!(&**decoded, reference, "{how}: decoded");
    assert_eq!(decoded.is_inline(), reference.len() == 1, "{how}: decoded");
}

proptest! {
    /// Every way to build an XOR coverage yields its one canonical form
    /// and reads as the `Vec<Seq>` reference: each `From`, `parity_of`'s
    /// ascending fast path, its nested path over data and parity parts,
    /// a nested XOR that cancels down to one seq, and codec decode
    /// (through [`assert_cover_is`]).
    #[test]
    fn a_cover_is_canonical_and_reads_as_its_seqs(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed).fork(0xC0BE);
        let set = arb_set(&mut rng, 40);
        assert_cover_is(&Cover::from(set[0]), &set[..1], "From<Seq>");
        assert_cover_is(&Cover::from(set.clone()), &set, "From<Vec<Seq>>");
        assert_cover_is(&Cover::from(Arc::<[Seq]>::from(&set[..])), &set, "From<Arc<[Seq]>>");

        let cover_of = |id: Option<PacketId>| match id {
            Some(PacketId::Parity(c)) => c,
            other => panic!("not an XOR parity id: {other:?}"),
        };
        let ascending: Vec<PacketId> = set.iter().map(|&s| PacketId::Data(s)).collect();
        assert_cover_is(&cover_of(PacketId::parity_of(&ascending)), &set, "ascending data");

        // Nested: data and parity parts, in any order, with repeats.
        let sets: Vec<Vec<Seq>> = (0..1 + rng.gen_below(4)).map(|_| arb_set(&mut rng, 12)).collect();
        let parts: Vec<PacketId> = sets
            .iter()
            .map(|s| match s[..] {
                [one] if rng.gen_bool(0.5) => PacketId::Data(one),
                _ => PacketId::Parity(Cover::from(s.clone())),
            })
            .collect();
        let xor = symmetric_difference(&sets);
        match PacketId::parity_of(&parts) {
            None => prop_assert!(xor.is_empty(), "{parts:?} cancelled, expected {xor:?}"),
            id => assert_cover_is(&cover_of(id), &xor, "nested"),
        }

        // A parity over the whole set XORed with all data but one seq.
        if set.len() >= 2 {
            let keep = set[rng.gen_below(set.len() as u64) as usize];
            let mut parts = vec![PacketId::Parity(Cover::from(set.clone()))];
            parts.extend(set.iter().filter(|&&s| s != keep).map(|&s| PacketId::Data(s)));
            assert_cover_is(&cover_of(PacketId::parity_of(&parts)), &[keep], "cancelled to one");
        }
    }
}
