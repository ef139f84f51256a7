//! Cross-module RS integration: enhanced streams with RS parity rows are
//! divisible, materializable, and decodable by the hybrid decoder under
//! multi-loss — the capability single XOR parity cannot offer.

use mss_media::parity::{div_all, enhance, Coding, Decoder};
use mss_media::{rs, ContentDesc, PacketId, PacketSeq, Seq};

fn feed(dec: &mut Decoder, content: &ContentDesc, id: &PacketId) {
    let pkt = content.materialize(id);
    dec.insert(id, &pkt.payload);
}

#[test]
fn rs_stream_survives_r_peer_crashes() {
    // h = 6 data per segment, r = 3 parity rows; divide across H = 9
    // peers (h + r = H aligns one packet per peer per segment): ANY 3
    // peers may vanish entirely.
    let content = ContentDesc::small(21, 120);
    let enhanced = enhance(
        &PacketSeq::data_range(content.packets),
        6,
        true,
        Coding::Rs { r: 3 },
    );
    let shares = div_all(&enhanced, 9);
    for dead in [[0usize, 1, 2], [3, 5, 8], [2, 4, 6]] {
        let mut dec = Decoder::new();
        for (i, share) in shares.iter().enumerate() {
            if dead.contains(&i) {
                continue;
            }
            for id in share.ids() {
                feed(&mut dec, &content, id);
            }
        }
        assert!(
            dec.missing(content.packets).is_empty(),
            "dead={dead:?}: missing {:?}",
            dec.missing(content.packets)
        );
        for s in 1..=content.packets {
            assert_eq!(
                dec.payload(Seq(s)).unwrap(),
                &content.payload(Seq(s)),
                "payload mismatch at t{s}"
            );
        }
        assert_eq!(dec.inconsistencies(), 0);
    }
}

#[test]
fn xor_cannot_survive_what_rs_survives() {
    // Same geometry with single XOR parity (h = 8, one parity per
    // segment, H = 9): two dead peers defeat it.
    let content = ContentDesc::small(22, 120);
    let xor = enhance(
        &PacketSeq::data_range(content.packets),
        8,
        true,
        Coding::Xor,
    );
    let shares = div_all(&xor, 9);
    let mut dec = Decoder::new();
    for (i, share) in shares.iter().enumerate() {
        if [0usize, 1].contains(&i) {
            continue;
        }
        for id in share.ids() {
            feed(&mut dec, &content, id);
        }
    }
    assert!(
        !dec.missing(content.packets).is_empty(),
        "two dead peers should defeat single XOR parity"
    );
    // RS with r = 2 at the same overhead geometry succeeds.
    let rs = enhance(
        &PacketSeq::data_range(content.packets),
        7,
        true,
        Coding::Rs { r: 2 },
    );
    let shares = div_all(&rs, 9);
    let mut dec = Decoder::new();
    for (i, share) in shares.iter().enumerate() {
        if [0usize, 1].contains(&i) {
            continue;
        }
        for id in share.ids() {
            feed(&mut dec, &content, id);
        }
    }
    assert!(
        dec.missing(content.packets).is_empty(),
        "RS r=2 should mask two dead peers: missing {:?}",
        dec.missing(content.packets)
    );
}

#[test]
fn rs_rows_arriving_before_data_still_decode() {
    let content = ContentDesc::small(23, 12);
    let enhanced = enhance(&PacketSeq::data_range(12), 4, true, Coding::Rs { r: 2 });
    let mut dec = Decoder::new();
    // All parity first…
    for id in enhanced.iter().filter(|p| p.is_parity()) {
        feed(&mut dec, &content, id);
    }
    assert_eq!(dec.known_count(), 0);
    // …then data with 2 losses per segment.
    for (i, id) in enhanced.iter().filter(|p| p.is_data()).enumerate() {
        if i % 4 < 2 {
            continue; // drop 2 of every 4 data packets
        }
        feed(&mut dec, &content, id);
    }
    assert!(dec.missing(12).is_empty(), "missing {:?}", dec.missing(12));
}

#[test]
fn rs_decode_recovers_r_data_losses_at_packet_size() {
    // Losing the first r data shards forces a full elimination through
    // the word-wide kernels, at segment sizes beyond the unit proptest's
    // (k up to 16) and payloads of 1 KiB and the paper's 1350 B.
    for (k, r) in [(4usize, 2usize), (8, 3), (16, 4)] {
        for len in [1024usize, 1350] {
            let data: Vec<Vec<u8>> = (0..k)
                .map(|j| (0..len).map(|b| (j * 131 + b * 7 + 1) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = rs::encode(&refs, r);
            let mut shards: Vec<rs::Shard> = data
                .iter()
                .enumerate()
                .skip(r)
                .map(|(j, d)| rs::Shard::Data(j, d.clone()))
                .collect();
            for (i, p) in parity.into_iter().enumerate() {
                shards.push(rs::Shard::Parity(i, p));
            }
            assert_eq!(rs::decode(k, &shards), Some(data), "k={k} r={r} len={len}");
        }
    }
}

#[test]
fn rs_r1_equals_xor_overhead_and_recovers_one_loss() {
    let content = ContentDesc::small(24, 40);
    let rs1 = enhance(&PacketSeq::data_range(40), 4, true, Coding::Rs { r: 1 });
    let xor = enhance(&PacketSeq::data_range(40), 4, true, Coding::Xor);
    assert_eq!(rs1.len(), xor.len(), "same overhead at r = 1");
    let mut dec = Decoder::new();
    for (i, id) in rs1.iter().enumerate() {
        if i % 5 == 2 {
            continue; // one loss per 5-packet group
        }
        feed(&mut dec, &content, id);
    }
    assert!(dec.missing(40).is_empty());
}

#[test]
fn mixed_xor_and_rs_streams_coexist_in_one_decoder() {
    // A merged multi-parent schedule could carry both styles; the hybrid
    // decoder handles them simultaneously.
    let content = ContentDesc::small(25, 24);
    let xor = enhance(&PacketSeq::data_range(12), 3, true, Coding::Xor);
    let rs_ids: Vec<PacketId> = (13..=24).map(|s| PacketId::Data(Seq(s))).collect();
    let rs = enhance(&PacketSeq::from_ids(rs_ids), 4, true, Coding::Rs { r: 2 });
    let mut dec = Decoder::new();
    for (i, id) in xor.iter().enumerate() {
        if i % 4 == 1 {
            continue;
        }
        feed(&mut dec, &content, id);
    }
    for (i, id) in rs.iter().enumerate() {
        if i % 6 < 2 {
            continue;
        }
        feed(&mut dec, &content, id);
    }
    assert!(dec.missing(24).is_empty(), "missing {:?}", dec.missing(24));
}
