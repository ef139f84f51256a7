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

use bytes::Bytes;
use std::fmt;
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
/// Coverage sets are shared `Arc<[Seq]>` slices: packet ids are cloned
/// pervasively (schedule unions, division, re-enhancement down the
/// coordination tree), and sharing makes every such clone O(1) instead
/// of copying the coverage.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PacketId {
    /// An original content packet `t_seq`.
    Data(Seq),
    /// XOR of the data packets with the given (sorted, nonempty)
    /// coverage.
    Parity(Arc<[Seq]>),
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
        // shape every `Esq` segment has) IS its own sorted coverage —
        // no symmetric-difference bookkeeping needed.
        let mut cover: Vec<Seq> = Vec::with_capacity(parts.len());
        let ascending_data = parts.iter().all(|p| match p {
            PacketId::Data(s) => {
                let ok = cover.last().is_none_or(|last| last < s);
                cover.push(*s);
                ok
            }
            _ => false,
        });
        if !ascending_data {
            cover.clear();
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
        }
        if cover.is_empty() {
            None
        } else {
            Some(PacketId::Parity(cover.into()))
        }
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
    pub payload: Bytes,
}

impl Packet {
    /// Approximate wire size: payload plus a small header.
    pub fn wire_size(&self) -> usize {
        self.payload.len() + 16 + 8 * self.id.coverage_len().saturating_sub(1)
    }
}

/// splitmix64 state seed for `(content_key, seq)`.
#[inline]
fn synth_state(content_key: u64, seq: Seq) -> u64 {
    content_key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq.0.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Fold the next synthesized word into `out` via `combine` — one
/// splitmix64 step per 8 output bytes, word-at-a-time with a byte tail,
/// byte-identical to [`synth_payload`].
#[inline]
fn synth_words(content_key: u64, seq: Seq, out: &mut [u8], combine: impl Fn(u64, u64) -> u64) {
    let mut state = synth_state(content_key, seq);
    let mut step = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut chunks = out.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let cur = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte chunk"));
        chunk.copy_from_slice(&combine(cur, step()).to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let z = step().to_le_bytes();
        let mut cur = [0u8; 8];
        cur[..rem.len()].copy_from_slice(rem);
        let folded = combine(u64::from_le_bytes(cur), u64::from_le_bytes(z)).to_le_bytes();
        rem.copy_from_slice(&folded[..rem.len()]);
    }
}

/// Write the synthetic payload of `(content_key, seq)` into `out`
/// (overwriting it) — the allocation-free form of [`synth_payload`].
pub fn synth_fill(content_key: u64, seq: Seq, out: &mut [u8]) {
    synth_words(content_key, seq, out, |_, z| z);
}

/// XOR the synthetic payload of `(content_key, seq)` into `out` — lets
/// parity accumulation run word-wide with no per-seq allocation.
pub fn synth_xor_into(content_key: u64, seq: Seq, out: &mut [u8]) {
    synth_words(content_key, seq, out, |cur, z| cur ^ z);
}

/// Deterministic synthetic payload for data packet `seq`: a keyed
/// byte stream so tests can verify end-to-end reconstruction bit-exactly.
pub fn synth_payload(content_key: u64, seq: Seq, len: usize) -> Bytes {
    let mut out = vec![0u8; len];
    synth_fill(content_key, seq, &mut out);
    Bytes::from(out)
}

/// Build a parity packet from concrete `parts` (panics if coverage cancels
/// to nothing, which never happens for well-formed recovery segments).
pub fn make_parity(parts: &[&Packet]) -> Packet {
    assert!(!parts.is_empty(), "parity over empty segment");
    let ids: Vec<PacketId> = parts.iter().map(|p| p.id.clone()).collect();
    let id = PacketId::parity_of(&ids).expect("parity coverage cancelled to empty");
    let len = parts[0].payload.len();
    for p in &parts[1..] {
        assert_eq!(p.payload.len(), len, "parity over unequal sizes");
    }
    let srcs: Vec<&[u8]> = parts.iter().map(|p| p.payload.as_ref()).collect();
    let mut payload = vec![0u8; len];
    crate::kernels::xor_fold(&mut payload, &srcs);
    Packet {
        id,
        payload: Bytes::from(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, key: u64) -> Packet {
        Packet {
            id: PacketId::Data(Seq(seq)),
            payload: synth_payload(key, Seq(seq), 32),
        }
    }

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
    fn nested_parity_payload_matches_flat_xor() {
        let a = data(1, 9);
        let b = data(2, 9);
        let c = data(3, 9);
        let e = data(5, 9);
        let p12 = make_parity(&[&a, &b]);
        let nested = make_parity(&[&p12, &c, &e]);
        // Should equal a ^ b ^ c ^ e.
        let mut manual = a.payload.to_vec();
        for p in [&b, &c, &e] {
            for (d, s) in manual.iter_mut().zip(p.payload.iter()) {
                *d ^= s;
            }
        }
        assert_eq!(nested.payload.as_ref(), manual.as_slice());
        assert_eq!(
            nested.id.coverage_slice(),
            &[Seq(1), Seq(2), Seq(3), Seq(5)]
        );
    }

    #[test]
    fn wire_size_scales_with_coverage() {
        let a = data(1, 0);
        let b = data(2, 0);
        let p = make_parity(&[&a, &b]);
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
