//! The live plane's datagram format under hostile input: what
//! [`BundleWriter`] seals, [`split_bundle`] must hand back record for
//! record; what a damaged datagram still holds intact must be delivered,
//! and the damage must surface as exactly one error — a live worker
//! counts that error as one `net.rx_decode_err` and drops the rest of
//! the datagram (pinned against the real receive path in `live.rs`'s
//! tests).
//! And a fan-out written once must put on the wire exactly the bytes
//! that writing each of its messages on its own would.

use std::sync::Arc;

use bytes::BytesMut;
use mss_core::msg::{ControlBody, ControlKind, Msg, ProbeReply};
use mss_media::{ContentDesc, PacketId, PacketSeq, Seq};
use mss_net::codec::{
    encode_routed_into, split_bundle, BundleWriter, CodecError, BUNDLE_MTU, MAX_RECORD,
};
use mss_overlay::{PeerId, View};
use mss_sim::event::ActorId;
use mss_sim::rng::SimRng;
use proptest::prelude::*;

/// UDP payload limit over IPv4.
const MAX_DATAGRAM: usize = 65_507;

/// A routed frame (`[to][rest]`) of `len >= 4` bytes with derived content.
fn routed(to: u32, len: usize, salt: u64) -> Vec<u8> {
    let mut f = to.to_le_bytes().to_vec();
    f.extend((4..len).map(|i| (i as u64).wrapping_mul(salt | 1) as u8));
    f
}

/// What a live worker's receive path does with one datagram: the frames
/// it would deliver, and how many decode errors it would count.
fn route(datagram: &[u8]) -> (Vec<(u32, Vec<u8>)>, usize) {
    let mut delivered = Vec::new();
    let mut errors = 0;
    for record in split_bundle(datagram) {
        match record {
            Ok((to, frame)) => delivered.push((to, frame.to_vec())),
            Err(_) => errors += 1,
        }
    }
    (delivered, errors)
}

/// `frames` bundled and sealed into datagrams.
fn bundle(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut w = BundleWriter::new(4);
    for f in frames {
        assert!(w.push_frame(f));
    }
    w.seal();
    w.sealed().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (i) Any sequence of frames of 4 B … 60 KiB comes back in order and
    /// byte-equal; no datagram exceeds one MTU unless it holds a single
    /// frame, none exceeds the UDP limit; and recycling buffers between
    /// sends changes nothing.
    #[test]
    fn any_frame_sequence_round_trips(seed in any::<u64>(), count in 1usize..120) {
        let mut rng = SimRng::new(seed).fork(0xB0DE);
        let mut w = BundleWriter::new(8);
        let mut sent: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut got: Vec<(u32, Vec<u8>)> = Vec::new();
        // "Send" what is sealed: check each datagram, collect its frames.
        let drain = |w: &mut BundleWriter, got: &mut Vec<(u32, Vec<u8>)>| {
            for datagram in w.sealed() {
                prop_assert!(datagram.len() <= MAX_DATAGRAM);
                let (frames, errors) = route(datagram);
                prop_assert_eq!(errors, 0);
                prop_assert!(!frames.is_empty());
                prop_assert!(datagram.len() <= BUNDLE_MTU || frames.len() == 1);
                got.extend(frames);
            }
            w.recycle_sealed();
        };
        for i in 0..count {
            // Mostly reply-sized, some view-sized, a few jumbo.
            let len = match rng.gen_below(10) {
                0 => 4 + rng.gen_below(60 * 1024 - 4) as usize,
                1..=3 => 4 + rng.gen_below(1_600) as usize,
                _ => 4 + rng.gen_below(40) as usize,
            };
            let to = rng.gen_below(10_000) as u32;
            let frame = routed(to, len, seed ^ i as u64);
            prop_assert!(w.push_frame(&frame));
            sent.push((to, frame[4..].to_vec()));
            if rng.gen_below(16) == 0 {
                drain(&mut w, &mut got); // mid-stream
            }
        }
        w.seal();
        drain(&mut w, &mut got);
        prop_assert!(w.sealed().is_empty());
        prop_assert_eq!(got, sent);
    }

    /// (ii) Cut a bundle anywhere: no panic, the records that are whole
    /// come out untouched, and the cut counts exactly one error — none
    /// when it falls on a record boundary (that is just a shorter bundle).
    #[test]
    fn every_truncation_delivers_the_intact_prefix(seed in any::<u64>(), count in 1usize..12) {
        let mut rng = SimRng::new(seed).fork(0xC07);
        let frames: Vec<Vec<u8>> = (0..count)
            .map(|i| routed(i as u32, 4 + rng.gen_below(90) as usize, seed))
            .collect();
        let datagrams = bundle(&frames);
        prop_assert_eq!(datagrams.len(), 1, "test frames fit one MTU");
        let datagram = &datagrams[0];
        let mut boundaries = vec![0usize];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + 2 + f.len());
        }
        for cut in 0..datagram.len() {
            let (delivered, errors) = route(&datagram[..cut]);
            let whole = boundaries.iter().rposition(|&b| b <= cut).unwrap();
            prop_assert_eq!(delivered.len(), whole, "cut at {}", cut);
            for (d, f) in delivered.iter().zip(&frames) {
                prop_assert_eq!(&d.1[..], &f[4..]);
            }
            let on_boundary = cut > 0 && boundaries.contains(&cut);
            prop_assert_eq!(errors, usize::from(!on_boundary), "cut at {}", cut);
        }
    }

    /// (ii) Flip bits anywhere: no panic, at most one error, and every
    /// record is either delivered or lies behind the error.
    #[test]
    fn corruption_never_panics(seed in any::<u64>(), flips in 1usize..6) {
        let mut rng = SimRng::new(seed).fork(0xBAD);
        let frames: Vec<Vec<u8>> = (0..8).map(|i| routed(i, 4 + rng.gen_below(60) as usize, seed)).collect();
        let mut datagram = bundle(&frames).remove(0);
        for _ in 0..flips {
            let at = rng.gen_below(datagram.len() as u64) as usize;
            datagram[at] ^= 1 + rng.gen_below(255) as u8;
        }
        let (_, errors) = route(&datagram);
        prop_assert!(errors <= 1);
    }
}

/// A fan-out body whose view is sparse, runs or dense (`shape` 0, 1, 2;
/// a dense one over 12 000 peers is a record larger than one MTU), or a
/// commit with a runs view (`shape` 3).
fn fanout_body(rng: &mut SimRng, shape: u64) -> Arc<ControlBody> {
    let n = if shape == 2 && rng.gen_bool(0.2) {
        12_000
    } else {
        64 + rng.gen_below(2_000) as usize
    };
    let mut view = View::empty(n);
    match shape {
        0 => {
            for _ in 0..1 + rng.gen_below(8) {
                view.insert(PeerId(rng.gen_below(n as u64) as u32));
            }
        }
        2 => {
            for i in (0..n as u32).filter(|i| i % 17 != 3) {
                view.insert(PeerId(i));
            }
        }
        _ => {
            let start = rng.gen_below(n as u64 - 60) as u32;
            for i in start..start + 16 + rng.gen_below(40) as u32 {
                view.insert(PeerId(i));
            }
        }
    }
    Arc::new(ControlBody {
        kind: match shape {
            0 => ControlKind::Activate,
            1 => ControlKind::Probe,
            2 => ControlKind::Announce,
            _ => ControlKind::Commit,
        },
        from: PeerId(rng.gen_below(n as u64) as u32),
        wave: rng.gen_below(9) as u32,
        view,
        sched: mss_media::parity::esq(&PacketSeq::data_range(1 + rng.gen_below(12)), 2).into(),
        pos: rng.gen_below(12) as u32,
        interval_nanos: rng.next_u64() >> 30,
        mark_delta_nanos: rng.next_u64() >> 40,
        parts: 1 + rng.gen_below(9) as u32,
        h: 2,
        fanout: 8,
        basis: None,
    })
}

/// One sender's fan-out in progress: its body and the handles still to
/// write.
struct Fanout {
    from: ActorId,
    body: Arc<ControlBody>,
    left: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (iv) Fan-outs of 1 … 8 handles on one body, with random parts,
    /// interleaved with other senders' fan-outs, one body pushed from two
    /// senders, replies, data, post boundaries and mid-stream sends:
    /// the datagrams are byte-identical to those of the same messages
    /// encoded one at a time (`encode_routed_into` + `push_frame`), and
    /// exactly the handles that follow a handle on the same body from
    /// the same sender are copied.
    #[test]
    fn shared_fanouts_write_the_bytes_of_one_message_at_a_time(seed in any::<u64>(), steps in 1usize..160) {
        let mut rng = SimRng::new(seed).fork(0xFA_0017);
        let content = ContentDesc::small(seed, 20);
        let mut shared = BundleWriter::new(4);
        let mut plain = BundleWriter::new(4);
        let mut routed = BytesMut::new();
        let mut open: Vec<Fanout> = Vec::new();
        // The copy rule, stated independently: the last control pushed
        // since the last post boundary.
        let mut last: Option<(ActorId, Arc<ControlBody>)> = None;
        let (mut copied, mut expect_copied) = (0u64, 0u64);
        let compare = |shared: &mut BundleWriter, plain: &mut BundleWriter| {
            prop_assert_eq!(shared.sealed(), plain.sealed());
            shared.recycle_sealed();
            plain.recycle_sealed();
        };
        for _ in 0..steps {
            let to = ActorId(rng.gen_below(5_000) as u32);
            let from = ActorId(rng.gen_below(4) as u32);
            let msg = match rng.gen_below(12) {
                0 | 1 => {
                    let shape = rng.gen_below(4);
                    let body = fanout_body(&mut rng, shape);
                    open.push(Fanout { from, body, left: 1 + rng.gen_below(8) as usize });
                    continue;
                }
                2 => {
                    // Another sender takes up a body already in flight.
                    if let Some(f) = open.first() {
                        let (from, body) = (ActorId(f.from.0 + 4), Arc::clone(&f.body));
                        open.push(Fanout { from, body, left: 2 });
                    }
                    continue;
                }
                3 => Msg::Reply(ProbeReply {
                    from: PeerId(from.0),
                    accept: rng.gen_bool(0.5),
                    wave: rng.gen_below(9) as u32,
                }),
                4 => Msg::data(PeerId(from.0), content.materialize(&PacketId::Data(Seq(1 + rng.gen_below(20))))),
                5 => {
                    copied += shared.forget_body();
                    last = None;
                    continue;
                }
                6 => {
                    shared.seal();
                    plain.seal();
                    compare(&mut shared, &mut plain);
                    continue;
                }
                _ => {
                    // The next handle of an open fan-out: mostly the
                    // newest, sometimes an older one (interleaving).
                    if open.is_empty() {
                        continue;
                    }
                    let k = if rng.gen_bool(0.7) { open.len() - 1 } else { rng.gen_below(open.len() as u64) as usize };
                    let f = &mut open[k];
                    let msg = Msg::control(&f.body, rng.next_u64() as u32);
                    let from = f.from;
                    f.left -= 1;
                    if f.left == 0 {
                        open.remove(k);
                    }
                    let repeat = matches!(&last, Some((lf, lb)) if *lf == from
                        && matches!(&msg, Msg::Control(c) if Arc::ptr_eq(lb, &c.body)));
                    expect_copied += u64::from(repeat);
                    if let Msg::Control(c) = &msg {
                        last = Some((from, Arc::clone(&c.body)));
                    }
                    encode_routed_into(to, from, &msg, &mut routed);
                    prop_assert_eq!(shared.push(to, from, &msg), plain.push_frame(&routed));
                    continue;
                }
            };
            encode_routed_into(to, from, &msg, &mut routed);
            prop_assert_eq!(shared.push(to, from, &msg), plain.push_frame(&routed));
        }
        shared.seal();
        plain.seal();
        compare(&mut shared, &mut plain);
        copied += shared.forget_body();
        prop_assert_eq!(copied, expect_copied);
    }
}

/// Two good records, then `tail`: the two are delivered, the tail counts
/// one error and delivers nothing.
fn assert_tail_is_one_error(tail: &[u8], expect: CodecError) {
    let frames = [routed(3, 13, 1), routed(9, 40, 2)];
    let mut datagram = bundle(&frames).remove(0);
    datagram.extend_from_slice(tail);
    let records: Vec<_> = split_bundle(&datagram).collect();
    assert_eq!(records.len(), 3, "two records, one error, then nothing");
    assert_eq!(records[0], Ok((3, &frames[0][4..])));
    assert_eq!(records[1], Ok((9, &frames[1][4..])));
    assert_eq!(records[2], Err(expect));
    assert_eq!(route(&datagram).1, 1);
}

/// (ii) The malformed-record shapes, each behind two good records.
#[test]
fn malformed_records_end_the_datagram_with_one_error() {
    // A length prefix corrupted to claim more than the datagram holds.
    assert_tail_is_one_error(&[0xFF, 0xFF, 1, 0, 0, 0, 7], CodecError::Truncated);
    // A zero-length record.
    assert_tail_is_one_error(&[0, 0], CodecError::BadLength(0));
    // A record shorter than its 4-byte routing prefix — with a valid
    // record after it, which must *not* be delivered.
    let mut short = vec![3, 0, 1, 2, 3];
    short.extend_from_slice(&bundle(&[routed(1, 9, 3)])[0]);
    assert_tail_is_one_error(&short, CodecError::BadLength(3));
    // Trailing garbage too short to be a length prefix.
    assert_tail_is_one_error(&[0xAB], CodecError::Truncated);
    // An empty datagram is malformed too: a bundle holds ≥ 1 record.
    assert_eq!(route(&[]), (vec![], 1));
}

/// (i) The size rules at their edges.
#[test]
fn seal_rule_at_the_mtu_and_the_udp_limit() {
    // Records that fill one MTU exactly share a datagram; one more byte
    // and the last record opens the next bundle.
    let half = (BUNDLE_MTU - 4) / 2; // two records of 2 + half bytes
    assert_eq!(bundle(&[routed(1, half, 1), routed(2, half, 2)]).len(), 1);
    let split = bundle(&[routed(1, half, 1), routed(2, half + 1, 2)]);
    assert_eq!(split.len(), 2);
    assert_eq!(route(&split[1]).0[0].0, 2);
    // A frame over one MTU travels alone, whatever surrounds it.
    let around = bundle(&[routed(1, 13, 1), routed(2, 2_000, 2), routed(3, 13, 3)]);
    assert_eq!(
        around.iter().map(Vec::len).collect::<Vec<_>>(),
        [2 + 13, 2 + 2_000, 2 + 13]
    );
    // The largest frame a datagram can carry is accepted; one byte more,
    // or less than a routing prefix, is refused and leaves the open
    // bundle as it was.
    let mut w = BundleWriter::new(2);
    assert!(w.push_frame(&routed(1, 13, 1)));
    assert!(!w.push_frame(&routed(2, MAX_RECORD + 1, 2)));
    assert!(!w.push_frame(&[1, 2, 3]), "no room for a routing prefix");
    assert!(w.push_frame(&routed(3, MAX_RECORD, 3)));
    w.seal();
    assert_eq!(
        w.sealed().iter().map(Vec::len).collect::<Vec<_>>(),
        [2 + 13, MAX_DATAGRAM]
    );
}

/// (iii) The format, byte for byte: a TCoP reply to task 3 and a NACK
/// to task 0x0102, both from actor 7, in one datagram. A change to the
/// record prefix, the routing prefix or either frame shows up here.
#[test]
fn golden_two_record_bundle() {
    use mss_core::msg::{Msg, Nack, ProbeReply};
    use mss_media::Seq;
    use mss_overlay::PeerId;
    use mss_sim::event::ActorId;

    let mut w = BundleWriter::new(1);
    let reply = Msg::Reply(ProbeReply {
        from: PeerId(7),
        accept: true,
        wave: 2,
    });
    let nack = Msg::Nack(Nack {
        seqs: vec![Seq(5)].into(),
    });
    assert!(w.push(ActorId(3), ActorId(7), &reply));
    assert!(w.push(ActorId(0x0102), ActorId(7), &nack));
    w.seal();
    #[rustfmt::skip]
    let golden: &[u8] = &[
        // record 1: len = 18
        18, 0,
        3, 0, 0, 0,             // to
        7, 0, 0, 0,             // from
        2,                      // kind: Reply
        7, 0, 0, 0,  1,  2, 0, 0, 0, // peer, accept, wave
        // record 2: len = 21
        21, 0,
        2, 1, 0, 0,             // to
        7, 0, 0, 0,             // from
        6,                      // kind: Nack
        1, 0, 0, 0,             // one seq
        5, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert_eq!(w.sealed(), [golden.to_vec()]);
}
