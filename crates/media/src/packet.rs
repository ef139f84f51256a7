//! Packets of a multimedia content.
//!
//! A content is a sequence of *data packets* `t_1, …, t_l` (paper §2).
//! The reliability scheme of §3.2 adds *parity packets*: the XOR of a
//! *recovery segment* of packets. Because enhanced sequences are re-enhanced
//! down the coordination tree, a parity packet may cover other parity
//! packets (the paper writes e.g. `t⟨⟨1,2⟩,3,5⟩`). XOR is associative and
//! self-inverse, so any packet — data or arbitrarily nested parity — is
//! fully described by the *set of data sequence numbers whose payloads are
//! XORed together*, with nesting flattened via symmetric difference.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Sequence number of a data packet within one content (1-based, as in the
/// paper's `t_1, …, t_l`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Seq(pub u64);

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identity of a packet: either one data packet or the XOR of a set of
/// data packets (a possibly-nested parity packet, flattened).
///
/// The coverage set is kept sorted and duplicate-free; the empty coverage
/// (which would be the XOR of nothing) is not representable by
/// construction — combining identical packets is rejected.
///
/// A parity packet whose coverage is a single seq (the `h = 1`
/// full-duplication mode, or a nested XOR that cancels down to one
/// packet) carries the same payload as that data packet but keeps a
/// distinct `Parity` identity: re-division must be able to tell
/// redundancy apart from original data to avoid multiplying it.
///
/// An XOR coverage is a [`Cover`]: the one seq of an `h = 1` parity
/// packet inline, a longer coverage as a shared `Arc<[Seq]>`. Packet ids
/// are cloned pervasively (schedule unions, division, re-enhancement
/// down the coordination tree), so either way a clone is O(1), and the
/// one-seq parity of the paper's `h = 1` figures costs no allocation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PacketId {
    /// An original content packet `t_seq`.
    Data(Seq),
    /// XOR of the data packets with the given (sorted, nonempty)
    /// coverage.
    Parity(Cover),
    /// Reed–Solomon parity row `row` over the given (sorted, nonempty)
    /// data coverage: payload = `Σ_j α^(row·j) · payload(seqs[j])` in
    /// GF(256). Row 0 coincides with XOR parity; higher rows make
    /// multi-loss recovery possible (see [`crate::rs`]).
    RsParity {
        /// Covered data packets, sorted ascending.
        seqs: Arc<[Seq]>,
        /// Vandermonde row index (`0..r`).
        row: u8,
    },
}

/// `PacketId` stays two words plus a tag: a [`Cover`] fits in the two
/// words of its `Arc<[Seq]>` form.
const _: () = assert!(std::mem::size_of::<PacketId>() == 24);

/// The coverage of an XOR parity packet: its sorted, nonempty data
/// seqs. One seq — every parity packet of an `h = 1` enhancement, or a
/// nested XOR that cancels down to one packet — is held inline; a longer
/// coverage is a shared `Arc<[Seq]>`. Every constructor picks the form by
/// length, so a coverage has exactly one form; equality, hashing and
/// `Debug` are those of the seq slice.
#[derive(Clone)]
pub struct Cover(CoverRepr);

#[derive(Clone)]
enum CoverRepr {
    One(Seq),
    Many(Arc<[Seq]>),
}

impl Cover {
    /// True when the coverage is held inline, i.e. it is one seq.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, CoverRepr::One(_))
    }
}

impl Deref for Cover {
    type Target = [Seq];

    fn deref(&self) -> &[Seq] {
        match &self.0 {
            CoverRepr::One(s) => std::slice::from_ref(s),
            CoverRepr::Many(c) => c,
        }
    }
}

impl PartialEq for Cover {
    fn eq(&self, other: &Cover) -> bool {
        **self == **other
    }
}

impl Eq for Cover {}

impl Hash for Cover {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl From<Seq> for Cover {
    fn from(s: Seq) -> Cover {
        Cover(CoverRepr::One(s))
    }
}

impl From<Arc<[Seq]>> for Cover {
    fn from(seqs: Arc<[Seq]>) -> Cover {
        match *seqs {
            [s] => Cover::from(s),
            _ => Cover(CoverRepr::Many(seqs)),
        }
    }
}

impl From<Vec<Seq>> for Cover {
    fn from(seqs: Vec<Seq>) -> Cover {
        match *seqs {
            [s] => Cover::from(s),
            _ => Cover(CoverRepr::Many(seqs.into())),
        }
    }
}

impl PacketId {
    /// Construct a parity id from the XOR (symmetric difference of
    /// coverages) of `parts`. Returns `None` if everything cancels.
    pub fn parity_of(parts: &[PacketId]) -> Option<PacketId> {
        // RS parity rows are GF(256) combinations; XORing them does not
        // correspond to any coverage set, so such segments get no nested
        // XOR parity.
        if parts.iter().any(|p| matches!(p, PacketId::RsParity { .. })) {
            return None;
        }
        // Fast path: a segment of strictly ascending data packets (the
        // shape every `Esq` segment has) IS its own sorted coverage — no
        // symmetric-difference bookkeeping; one seq is held inline, and a
        // longer shared slice is allocated once, at its exact length.
        let mut last = None;
        let ascending_data = parts.iter().all(|p| match p {
            PacketId::Data(s) => last.replace(*s).is_none_or(|prev| prev < *s),
            _ => false,
        });
        if ascending_data {
            let cover = match parts {
                [] => return None,
                [one] => Cover::from(one.max_seq()),
                _ => Cover::from(parts.iter().map(PacketId::max_seq).collect::<Arc<[Seq]>>()),
            };
            return Some(PacketId::Parity(cover));
        }
        let mut cover: Vec<Seq> = Vec::with_capacity(parts.len());
        for p in parts {
            for &s in p.coverage_slice() {
                match cover.binary_search(&s) {
                    Ok(i) => {
                        cover.remove(i);
                    }
                    Err(i) => cover.insert(i, s),
                }
            }
        }
        (!cover.is_empty()).then(|| PacketId::Parity(cover.into()))
    }

    /// The data sequence numbers this packet's payload is derived from
    /// (for XOR parity: the XOR coverage; for RS parity: the encoded
    /// segment).
    pub fn coverage_slice(&self) -> &[Seq] {
        match self {
            PacketId::Data(s) => std::slice::from_ref(s),
            PacketId::Parity(c) => c,
            PacketId::RsParity { seqs, .. } => seqs,
        }
    }

    /// True for an original content packet.
    pub fn is_data(&self) -> bool {
        matches!(self, PacketId::Data(_))
    }

    /// True for any parity packet (XOR or RS).
    pub fn is_parity(&self) -> bool {
        !self.is_data()
    }

    /// Largest covered data sequence number. Used as the packet's
    /// *readiness index*: a parity packet becomes useful only once the
    /// stream has progressed past everything it covers, so merged
    /// schedules order packets by this key (see `seq` module).
    pub fn max_seq(&self) -> Seq {
        *self.coverage_slice().last().expect("nonempty coverage")
    }

    /// Number of data packets covered (1 for data packets).
    pub fn coverage_len(&self) -> usize {
        self.coverage_slice().len()
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketId::Data(s) => write!(f, "{s}"),
            PacketId::RsParity { seqs, row } => {
                write!(
                    f,
                    "rs<{}..{};r{}>",
                    seqs.first().map_or(0, |s| s.0),
                    seqs.last().map_or(0, |s| s.0),
                    row
                )
            }
            PacketId::Parity(c) => {
                write!(f, "t<")?;
                for (i, s) in c.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", s.0)?;
                }
                write!(f, ">")
            }
        }
    }
}

/// A concrete packet: identity plus payload bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// What this packet is (data or flattened parity coverage).
    pub id: PacketId,
    /// Payload bytes; for parity packets, the XOR of the covered data
    /// payloads.
    pub payload: Arc<[u8]>,
}

impl Packet {
    /// Approximate wire size: payload plus a small header.
    pub fn wire_size(&self) -> usize {
        self.payload.len() + 16 + 8 * self.id.coverage_len().saturating_sub(1)
    }
}

/// splitmix64's increment: word `i` (0-based) of a payload mixes
/// `state + (i + 1)·GAMMA`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 state seed for `(content_key, seq)`.
#[inline]
fn synth_state(content_key: u64, seq: Seq) -> u64 {
    content_key
        .wrapping_mul(GAMMA)
        .wrapping_add(seq.0.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// splitmix64's output mix of one state word.
#[inline]
fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write (`XOR = false`) or XOR in (`XOR = true`) the synthetic stream
/// seeded by `state` over `len` bytes at `dst`: word `i` is
/// `mix(state + (i + 1)·GAMMA)` in little-endian order, the last word
/// truncated. Whole 64-byte blocks go through the AVX-512 body where the
/// CPU has it; the scalar loop takes the rest.
///
/// # Safety
/// `dst` must be valid for `len` byte writes, and for `len` byte reads
/// when `XOR`. Fill mode never reads `dst`, so it may be uninitialized.
#[inline]
unsafe fn synth_words<const XOR: bool>(state: u64, dst: *mut u8, len: usize) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        done = x86::synth_avx512::<XOR>(state, dst, len);
    }
    synth_scalar::<XOR>(state, done / 8, dst.add(done), len - done);
}

/// The scalar splitmix64 loop from word `first_word` of the stream on:
/// the whole payload where AVX-512 is absent, and the tail after the
/// last full vector block where it is present.
///
/// # Safety
/// As [`synth_words`].
unsafe fn synth_scalar<const XOR: bool>(state: u64, first_word: usize, dst: *mut u8, len: usize) {
    let mut state = state.wrapping_add((first_word as u64).wrapping_mul(GAMMA));
    let words = len / 8;
    for i in 0..words {
        state = state.wrapping_add(GAMMA);
        // `[u8; 8]` has alignment 1, so any byte address is a valid one.
        let p = dst.add(i * 8).cast::<[u8; 8]>();
        let mut z = mix(state);
        if XOR {
            z ^= u64::from_le_bytes(p.read());
        }
        p.write(z.to_le_bytes());
    }
    let rem = len % 8;
    if rem > 0 {
        state = state.wrapping_add(GAMMA);
        let z = mix(state).to_le_bytes();
        let p = dst.add(words * 8);
        for (k, &b) in z[..rem].iter().enumerate() {
            p.add(k).write(if XOR { *p.add(k) ^ b } else { b });
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX-512 synthesis body: eight splitmix64 lanes, one 64-byte
    //! block (eight output words) per iteration.

    use std::arch::x86_64::*;

    use super::GAMMA;

    /// Synthesize the whole 64-byte blocks of `len` bytes at `dst`;
    /// returns the bytes written (the caller finishes the tail). Lane `j`
    /// of block `b` holds `state + (8b + j + 1)·GAMMA`, i.e. word
    /// `8b + j` of the scalar stream, so the output is byte-identical.
    ///
    /// # Safety
    /// The CPU must support AVX-512F and AVX-512DQ; `dst` as for
    /// [`super::synth_words`].
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn synth_avx512<const XOR: bool>(state: u64, dst: *mut u8, len: usize) -> usize {
        let blocks = len / 64;
        let lane = |j: u64| state.wrapping_add(j.wrapping_mul(GAMMA)) as i64;
        let mut s = _mm512_setr_epi64(
            lane(1),
            lane(2),
            lane(3),
            lane(4),
            lane(5),
            lane(6),
            lane(7),
            lane(8),
        );
        let step = _mm512_set1_epi64(GAMMA.wrapping_mul(8) as i64);
        let m1 = _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9_u64 as i64);
        let m2 = _mm512_set1_epi64(0x94D0_49BB_1331_11EB_u64 as i64);
        for b in 0..blocks {
            let mut z = _mm512_mullo_epi64(_mm512_xor_si512(s, _mm512_srli_epi64::<30>(s)), m1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
            z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
            let p = dst.add(b * 64);
            if XOR {
                z = _mm512_xor_si512(z, _mm512_loadu_si512(p.cast()));
            }
            _mm512_storeu_si512(p.cast(), z);
            s = _mm512_add_epi64(s, step);
        }
        blocks * 64
    }
}

/// Write the synthetic payload of `(content_key, seq)` into `out`
/// (overwriting it) — the allocation-free form of [`synth_payload`].
pub fn synth_fill(content_key: u64, seq: Seq, out: &mut [u8]) {
    // SAFETY: `out` is valid for `out.len()` reads and writes.
    unsafe { synth_words::<false>(synth_state(content_key, seq), out.as_mut_ptr(), out.len()) }
}

/// XOR the synthetic payload of `(content_key, seq)` into `out` — lets
/// parity accumulation run word-wide with no per-seq allocation.
pub fn synth_xor_into(content_key: u64, seq: Seq, out: &mut [u8]) {
    // SAFETY: `out` is valid for `out.len()` reads and writes.
    unsafe { synth_words::<true>(synth_state(content_key, seq), out.as_mut_ptr(), out.len()) }
}

/// The XOR of the synthetic payloads of every seq in `seqs` (nonempty),
/// `len` bytes, built in place in one fresh `Arc<[u8]>`: the first seq
/// fills the uninitialized buffer, the rest XOR into it. One allocation,
/// no zeroing, no copy.
pub(crate) fn synth_xor_arc(content_key: u64, seqs: &[Seq], len: usize) -> Arc<[u8]> {
    let (first, rest) = seqs.split_first().expect("nonempty coverage");
    let mut buf = Arc::<[u8]>::new_uninit_slice(len);
    let dst = Arc::get_mut(&mut buf)
        .expect("a fresh Arc is unique")
        .as_mut_ptr()
        .cast::<u8>();
    // SAFETY: `dst` addresses the `len` bytes `buf` owns. Fill mode
    // writes every one of them without reading, so the XOR passes read
    // initialized bytes, and `assume_init` holds once the fill is done.
    unsafe {
        synth_words::<false>(synth_state(content_key, *first), dst, len);
        for s in rest {
            synth_words::<true>(synth_state(content_key, *s), dst, len);
        }
        buf.assume_init()
    }
}

/// Deterministic synthetic payload for data packet `seq`: a keyed
/// byte stream so tests can verify end-to-end reconstruction bit-exactly.
pub fn synth_payload(content_key: u64, seq: Seq, len: usize) -> Arc<[u8]> {
    synth_xor_arc(content_key, &[seq], len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_payload_is_deterministic_and_distinct() {
        let a = synth_payload(1, Seq(5), 100);
        let b = synth_payload(1, Seq(5), 100);
        let c = synth_payload(1, Seq(6), 100);
        let d = synth_payload(2, Seq(5), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 100);
    }

    /// FNV-1a-64 of `bytes`, the digest the golden pins use.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `(key, seq, len, FNV-1a-64 of synth_payload)`, computed from the
    /// word-at-a-time scalar generator and from an independent Python
    /// splitmix64.
    const PINS: [(u64, u64, usize, u64); 3] = [
        (1, 1, 1350, 0xe13c_c894_b67d_91f1),
        (0x0123_4567_89ab_cdef, 22216, 1350, 0xa250_ef78_bbcb_00f9),
        (7, 3, 1351, 0x6fde_e44b_5ad0_42a1),
    ];

    #[test]
    fn scalar_body_holds_the_golden_pins() {
        for (key, seq, len, want) in PINS {
            let mut out = vec![0u8; len];
            // SAFETY: `out` holds `len` bytes.
            unsafe { synth_scalar::<false>(synth_state(key, Seq(seq)), 0, out.as_mut_ptr(), len) };
            assert_eq!(fnv1a(&out), want, "scalar body, pin {key:#x}/{seq}/{len}");
            assert_eq!(fnv1a(&synth_payload(key, Seq(seq), len)), want);
        }
    }

    /// `len` bytes of `state`'s stream written over (or XORed into) a
    /// fixed pattern twice: by the AVX-512 body plus the scalar tail, and
    /// by the scalar body alone.
    #[cfg(target_arch = "x86_64")]
    fn both_bodies<const XOR: bool>(state: u64, len: usize) -> (Vec<u8>, Vec<u8>) {
        let pattern: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let (mut simd, mut scalar) = (pattern.clone(), pattern);
        // SAFETY: the caller checked for AVX-512F/DQ; both buffers hold
        // `len` bytes.
        unsafe {
            let done = x86::synth_avx512::<XOR>(state, simd.as_mut_ptr(), len);
            assert_eq!(done, len - len % 64);
            synth_scalar::<XOR>(state, done / 8, simd.as_mut_ptr().add(done), len - done);
            synth_scalar::<XOR>(state, 0, scalar.as_mut_ptr(), len);
        }
        (simd, scalar)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_body_matches_scalar_body() {
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq"))
        {
            return;
        }
        for (key, seq, len, want) in PINS {
            let (simd, _) = both_bodies::<false>(synth_state(key, Seq(seq)), len);
            assert_eq!(fnv1a(&simd), want, "AVX-512 body, pin {key:#x}/{seq}/{len}");
        }
        for len in (0..=200).chain([1349, 1350, 1351, 4096]) {
            for (key, seq) in [(1, 1), (0x0123_4567_89ab_cdef, 22216), (u64::MAX, u64::MAX)] {
                let state = synth_state(key, Seq(seq));
                let (simd, scalar) = both_bodies::<false>(state, len);
                assert_eq!(simd, scalar, "fill, len {len}");
                let (simd, scalar) = both_bodies::<true>(state, len);
                assert_eq!(simd, scalar, "xor, len {len}");
            }
        }
    }

    #[test]
    fn synth_payload_odd_lengths() {
        for len in [0, 1, 7, 8, 9, 63] {
            assert_eq!(synth_payload(3, Seq(1), len).len(), len);
        }
    }

    #[test]
    fn parity_of_flat_segment() {
        let ids = [PacketId::Data(Seq(1)), PacketId::Data(Seq(2))];
        let p = PacketId::parity_of(&ids).unwrap();
        assert_eq!(p.coverage_slice(), &[Seq(1), Seq(2)]);
        assert!(p.is_parity());
        assert_eq!(p.to_string(), "t<1,2>");
    }

    #[test]
    fn nested_parity_flattens_like_the_paper() {
        // t<<1,2>,3,5> from §3.6: parity over {parity(1,2), data 3, data 5}.
        let p12 = PacketId::parity_of(&[PacketId::Data(Seq(1)), PacketId::Data(Seq(2))]).unwrap();
        let nested =
            PacketId::parity_of(&[p12, PacketId::Data(Seq(3)), PacketId::Data(Seq(5))]).unwrap();
        assert_eq!(nested.coverage_slice(), &[Seq(1), Seq(2), Seq(3), Seq(5)]);
        assert_eq!(nested.max_seq(), Seq(5));
    }

    #[test]
    fn parity_cancellation() {
        // XOR of a packet with itself vanishes.
        let ids = [PacketId::Data(Seq(4)), PacketId::Data(Seq(4))];
        assert_eq!(PacketId::parity_of(&ids), None);
        // XOR of parity(1,2) with data 1 leaves the payload of data 2,
        // identified as single-coverage parity (redundant copy).
        let p12 = PacketId::parity_of(&[PacketId::Data(Seq(1)), PacketId::Data(Seq(2))]).unwrap();
        let left = PacketId::parity_of(&[p12, PacketId::Data(Seq(1))]).unwrap();
        assert_eq!(left.coverage_slice(), &[Seq(2)]);
        assert!(left.is_parity());
    }

    #[test]
    fn wire_size_scales_with_coverage() {
        let c = crate::ContentDesc::small(0, 10);
        let a = c.materialize(&PacketId::Data(Seq(1)));
        let ids = [PacketId::Data(Seq(1)), PacketId::Data(Seq(2))];
        let p = c.materialize(&PacketId::parity_of(&ids).unwrap());
        assert!(p.wire_size() > a.wire_size());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PacketId::Data(Seq(7)).to_string(), "t7");
        let p = PacketId::parity_of(&[
            PacketId::Data(Seq(9)),
            PacketId::Data(Seq(10)),
            PacketId::Data(Seq(11)),
        ])
        .unwrap();
        assert_eq!(p.to_string(), "t<9,10,11>");
    }
}
