//! Equivalence suite for the vectorized coding plane: every word-wide
//! kernel must be bit-for-bit equal to the scalar byte loop it replaced,
//! payload synthesis must match a test-side splitmix64 reference and
//! three golden digests, and the bitmap-backed decoder bookkeeping must
//! agree with a naive Vec-scan reference over the same packet stream.

use mss_media::buffer::PlayoutClock;
use mss_media::kernels::{self, Bitmap};
use mss_media::packet::{synth_fill, synth_payload, synth_xor_into};
use mss_media::parity::{enhance, Coding, Decoder};
use mss_media::{gf256, ContentDesc, PacketSeq, Seq};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `xor_into` over any lengths 0..64 (aligned and unaligned, dst and
    /// src independently sized) matches the per-byte zip loop.
    #[test]
    fn xor_into_matches_byte_loop(
        dst in proptest::collection::vec(any::<u8>(), 0..64),
        src in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut kernel = dst.clone();
        kernels::xor_into(&mut kernel, &src);
        let mut scalar = dst.clone();
        for (d, s) in scalar.iter_mut().zip(src.iter()) {
            *d ^= *s;
        }
        prop_assert_eq!(kernel, scalar);
    }

    /// The nibble-table `mul_acc` agrees with `EXP[LOG[..]]` multiplies
    /// for random payloads and multipliers (all 256 constants are also
    /// covered exhaustively below).
    #[test]
    fn mul_acc_matches_table_mul(
        dst in proptest::collection::vec(any::<u8>(), 0..64),
        src in proptest::collection::vec(any::<u8>(), 0..64),
        c in any::<u8>(),
    ) {
        let mut kernel = dst.clone();
        kernels::mul_acc(&mut kernel, &src, c);
        let mut scalar = dst.clone();
        for (d, s) in scalar.iter_mut().zip(src.iter()) {
            *d ^= gf256::mul(c, *s);
        }
        prop_assert_eq!(kernel, scalar);
    }

    /// The synthesis entry points agree with each other and with the
    /// test-side splitmix64 reference for any key/seq/length.
    #[test]
    fn synth_fill_matches_synth_payload(
        key in any::<u64>(),
        seq in 1u64..1_000_000,
        len in 0usize..200,
    ) {
        let reference = synth_payload(key, Seq(seq), len);
        prop_assert_eq!(reference.as_ref(), splitmix_reference(key, seq, len).as_slice());
        let mut filled = vec![0xAAu8; len];
        synth_fill(key, Seq(seq), &mut filled);
        prop_assert_eq!(&filled[..], reference.as_ref());

        let mut acc = reference.to_vec();
        synth_xor_into(key, Seq(seq), &mut acc);
        prop_assert!(acc.iter().all(|&b| b == 0), "x ^ x must cancel");
    }

    /// Bitmap range counts and zero/one iterators agree with a bit-by-bit
    /// scan for arbitrary set patterns and query ranges.
    #[test]
    fn bitmap_counts_match_scan(
        bits in proptest::collection::vec(0usize..192, 0..32),
        start in 0usize..200,
        span in 0usize..200,
    ) {
        let mut bm = Bitmap::new();
        for &b in &bits {
            bm.set(b);
        }
        let end = start + span;
        let ones_scan = (start..end).filter(|&i| bm.get(i)).count();
        prop_assert_eq!(bm.count_ones(start, end), ones_scan);
        prop_assert_eq!(bm.count_zeros(start, end), span - ones_scan);
        let zeros: Vec<usize> = bm.zeros(start, end).collect();
        let zeros_scan: Vec<usize> = (start..end).filter(|&i| !bm.get(i)).collect();
        prop_assert_eq!(zeros, zeros_scan);
        let ones: Vec<usize> = bm.ones(start, end).collect();
        let ones_scan_v: Vec<usize> = (start..end).filter(|&i| bm.get(i)).collect();
        prop_assert_eq!(ones, ones_scan_v);
    }
}

/// The synthetic payload of `(key, seq)`, written out from the splitmix64
/// definition one byte at a time: seed `key·γ + seq·0xD1B54A32D192ED03`,
/// word `i` mixes `seed + (i + 1)·γ`, bytes little-endian, the last word
/// truncated. Shares no code with `mss_media::packet`.
fn splitmix_reference(key: u64, seq: u64, len: usize) -> Vec<u8> {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let seed = key
        .wrapping_mul(GAMMA)
        .wrapping_add(seq.wrapping_mul(0xD1B5_4A32_D192_ED03));
    (0..len)
        .map(|i| {
            let mut z = seed.wrapping_add(((i / 8) as u64 + 1).wrapping_mul(GAMMA));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> (8 * (i % 8))) as u8
        })
        .collect()
}

/// `synth_fill` into a 0xAA-prefilled buffer and `synth_xor_into` over a
/// patterned one match the reference at every length around the vector
/// block and tail boundaries, the video packet size and a page.
#[test]
fn synthesis_matches_splitmix_reference() {
    let lens = (0..=200).chain([1349, 1350, 1351, 4096]);
    for len in lens {
        for (key, seq) in [
            (1u64, 1u64),
            (0x0123_4567_89ab_cdef, 22216),
            (u64::MAX, 999_999),
        ] {
            let want = splitmix_reference(key, seq, len);
            let mut filled = vec![0xAAu8; len];
            synth_fill(key, Seq(seq), &mut filled);
            assert_eq!(filled, want, "fill, key {key:#x} seq {seq} len {len}");

            let pattern: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
            let mut xored = pattern.clone();
            synth_xor_into(key, Seq(seq), &mut xored);
            let want_xor: Vec<u8> = pattern.iter().zip(&want).map(|(p, w)| p ^ w).collect();
            assert_eq!(xored, want_xor, "xor, key {key:#x} seq {seq} len {len}");
        }
    }
}

/// Golden FNV-1a-64 digests of `synth_payload`, computed from the scalar
/// generator and from an independent Python splitmix64: a change to the
/// synthetic content shows here even if every entry point changed alike.
#[test]
fn synth_payload_golden_pins() {
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    for (key, seq, len, want) in [
        (1u64, 1u64, 1350usize, 0xe13c_c894_b67d_91f1u64),
        (0x0123_4567_89ab_cdef, 22216, 1350, 0xa250_ef78_bbcb_00f9),
        (7, 3, 1351, 0x6fde_e44b_5ad0_42a1),
    ] {
        let payload = synth_payload(key, Seq(seq), len);
        assert_eq!(fnv1a(&payload), want, "key {key:#x} seq {seq} len {len}");
        assert_eq!(fnv1a(&splitmix_reference(key, seq, len)), want);
    }
}

/// Exhaustive multiplier coverage: for every `c in 0..=255` the nibble
/// kernel's `mul_acc` and `scale` equal the table multiply, on a buffer
/// long enough to exercise both the word loop and the scalar tail.
#[test]
fn mul_acc_and_scale_exhaustive_over_constants() {
    let src: Vec<u8> = (0..77u32).map(|i| (i * 37 + 5) as u8).collect();
    for c in 0..=255u8 {
        let mut kernel = vec![0x5Au8; src.len()];
        kernels::mul_acc(&mut kernel, &src, c);
        let scalar: Vec<u8> = src.iter().map(|&s| 0x5A ^ gf256::mul(c, s)).collect();
        assert_eq!(kernel, scalar, "mul_acc disagrees for c={c}");

        let mut scaled = src.clone();
        kernels::scale(&mut scaled, c);
        let scaled_ref: Vec<u8> = src.iter().map(|&s| gf256::mul(c, s)).collect();
        assert_eq!(scaled, scaled_ref, "scale disagrees for c={c}");
    }
}

/// Run one lossy packet stream through the decoder and check the
/// bitmap-backed views (`missing`, `missing_count`, `missing_iter`,
/// `known_bitmap`) against a Vec-scan reference, and `insert_bytes`
/// against plain `insert` on a twin decoder.
#[test]
fn decoder_bitmap_views_match_vec_scan() {
    let l = 500u64;
    let content = ContentDesc::small(9, l);
    let enhanced = enhance(&PacketSeq::data_range(l), 8, true, Coding::Rs { r: 2 });
    let mut dec = Decoder::new();
    let mut twin = Decoder::new();
    for (i, id) in enhanced.iter().enumerate() {
        if i % 10 < 2 {
            continue; // two losses per 10-position recovery group
        }
        let payload = content.materialize(id).payload;
        let a = dec.insert(id, &payload);
        let b = twin.insert_bytes(id, &payload);
        assert_eq!(a, b, "insert and insert_bytes disagree at {id:?}");
    }
    assert_eq!(dec.known_count(), twin.known_count());

    // Reference: scan every in-range seq through `has`.
    let missing_scan: Vec<Seq> = (1..=l).map(Seq).filter(|s| !dec.has(*s)).collect();
    assert_eq!(dec.missing(l), missing_scan);
    assert_eq!(dec.missing_count(l), missing_scan.len());
    assert_eq!(dec.missing_iter(l).collect::<Vec<_>>(), missing_scan);
    assert_eq!(twin.missing(l), missing_scan);
    for s in 1..=l {
        assert_eq!(dec.known_bitmap().get(s as usize), dec.has(Seq(s)));
    }
}

/// `continuity_bits` (bitmap-driven scan) agrees with the seed's
/// `continuity` Vec scan for arbitrary availability patterns.
#[test]
fn continuity_bits_matches_seed_scan() {
    let mut rng = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for trial in 0..50 {
        let n = 1 + (next() % 80) as usize;
        let mut clock = PlayoutClock::new(30_000_000, 2_000_000_000);
        if trial % 7 != 0 {
            clock.arm(next() % 1_000_000_000);
        }
        let mut avail = vec![u64::MAX; n];
        let mut bits = Bitmap::new();
        for (k, a) in avail.iter_mut().enumerate() {
            if next() % 4 != 0 {
                *a = next() % 5_000_000_000;
                bits.set(k + 1);
            }
        }
        assert_eq!(
            clock.continuity_bits(&avail, &bits),
            clock.continuity(&avail),
            "trial {trial}: continuity_bits diverged (n={n})"
        );
    }
}
