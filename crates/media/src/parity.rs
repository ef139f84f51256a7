//! Parity enhancement (`Esq`), division (`Div`), and the leaf-side
//! recovery decoder — paper §3.2.
//!
//! `esq(pkt, h)` splits a packet sequence into *recovery segments* of `h`
//! packets, creates one XOR parity packet per segment, and interleaves the
//! parity into the stream. `div(pkt, H, i)` deals an enhanced sequence
//! round-robin to `H` peers. A leaf running the [`Decoder`] can then
//! reconstruct every data packet as long as at most one packet per
//! recovery segment is lost — which is what lets `(H - h)` whole peers
//! fail without interrupting playout.
//!
//! ## Parity placement
//!
//! The paper's prose says the parity packet of segment `d` is inserted "for
//! `j = d mod h`", but its own worked examples (Figure 6 and §3.6) place
//! the parity of segment `d` after `d mod (h + 1)` packets of the segment —
//! cycling through *all* `h + 1` possible positions (before, each internal
//! gap, after). We follow the examples: they are self-consistent and they
//! spread parity packets evenly across the `H` divided subsequences, which
//! is the stated purpose of the rotation. This reproduces Figure 6(b) and
//! every sequence in §3.6 symbol-for-symbol (see tests).

use std::sync::Arc;

use crate::fxhash::FxHashMap;

use crate::packet::{PacketId, Seq};
use crate::seq::PacketSeq;

/// `Esq(pkt, h)`: the enhanced sequence `[pkt]^h` with one parity packet
/// interleaved per recovery segment of `h` packets.
///
/// A trailing partial segment also receives a parity packet, so every
/// packet is protected. `h = 0` is rejected. `|[pkt]^h| = |pkt|·(h+1)/h`
/// for sequences whose length is a multiple of `h`.
pub fn esq(pkt: &PacketSeq, h: usize) -> PacketSeq {
    esq_opts(pkt, h, true)
}

/// [`esq`] with explicit trailing-segment handling.
///
/// The paper's `Esq` only defines parity for *full* segments
/// (`|[pkt]^h| = |pkt|(h+1)/h` exactly); `tail_parity = false` matches
/// that, leaving a final partial segment unprotected. `tail_parity =
/// true` additionally protects the trailing partial segment — stronger,
/// but with visible overhead when short postfixes are re-divided under a
/// large `h` (it shifts Figure 12's DCoP curve upward).
pub fn esq_opts(pkt: &PacketSeq, h: usize, tail_parity: bool) -> PacketSeq {
    assert!(h >= 1, "parity interval must be >= 1");
    let items = pkt.ids();
    let mut out: Vec<PacketId> = Vec::with_capacity(items.len() + items.len() / h + 1);
    for (d, segment) in items.chunks(h).enumerate() {
        if segment.len() < h && !tail_parity {
            out.extend_from_slice(segment);
            continue;
        }
        let parity = PacketId::parity_of(segment);
        let offset = (d % (h + 1)).min(segment.len());
        match parity {
            Some(p) => {
                out.extend_from_slice(&segment[..offset]);
                out.push(p);
                out.extend_from_slice(&segment[offset..]);
            }
            // Coverage cancelled to nothing (only possible when the
            // segment's packets XOR to zero); nothing useful to add.
            None => out.extend_from_slice(segment),
        }
    }
    PacketSeq::from_ids(out)
}

/// Which erasure code protects recovery segments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Coding {
    /// The paper's single XOR parity packet per segment: one loss per
    /// segment recoverable.
    Xor,
    /// Systematic Reed–Solomon with `r` parity rows per segment: any `r`
    /// losses per segment recoverable (the generalization that makes the
    /// paper's "(H − h) faulty peers" claim exact). `r = 1` behaves like
    /// XOR.
    Rs {
        /// Parity rows per segment.
        r: u8,
    },
}

/// Scheme-aware enhancement: [`esq_opts`] for XOR, or `r` RS parity rows
/// appended per segment of `h` data packets for [`Coding::Rs`].
///
/// RS parity is only generated over all-data segments (re-divisions
/// strip parity first under `Reenhance::DataOnly`, so that is the normal
/// case); a segment containing parity packets passes through unprotected.
pub fn enhance(pkt: &PacketSeq, h: usize, tail_parity: bool, coding: Coding) -> PacketSeq {
    match coding {
        Coding::Xor => esq_opts(pkt, h, tail_parity),
        Coding::Rs { r } => rs_enhance(pkt, h, r, tail_parity),
    }
}

fn rs_enhance(pkt: &PacketSeq, h: usize, r: u8, tail_parity: bool) -> PacketSeq {
    assert!(h >= 1, "segment size must be >= 1");
    assert!(
        h + r as usize <= crate::rs::MAX_SHARDS,
        "segment too large for GF(256)"
    );
    let items = pkt.ids();
    let mut out: Vec<PacketId> = Vec::with_capacity(items.len() * (h + r as usize) / h + 1);
    for (d, segment) in items.chunks(h).enumerate() {
        if segment.len() < h && !tail_parity {
            out.extend_from_slice(segment);
            continue;
        }
        let mut seqs: Vec<Seq> = Vec::with_capacity(segment.len());
        let all_data = segment.iter().all(|p| {
            if let PacketId::Data(s) = p {
                seqs.push(*s);
                true
            } else {
                false
            }
        });
        if !all_data {
            out.extend_from_slice(segment);
            continue;
        }
        seqs.sort_unstable();
        let seqs: std::sync::Arc<[Seq]> = seqs.into();
        // Rotate parity placement across segments (and spread rows within
        // a segment), like the paper's XOR rotation: without it, parity
        // always lands at the same group offset and a division whose
        // arity differs from h + r concentrates a segment's shards on
        // few peers.
        let mut group: Vec<PacketId> = segment.to_vec();
        let spread = (segment.len() / (r as usize + 1)).max(1);
        for row in 0..r {
            let pos = (d + row as usize * (spread + 1)) % (group.len() + 1);
            group.insert(
                pos,
                PacketId::RsParity {
                    seqs: seqs.clone(),
                    row,
                },
            );
        }
        out.extend(group);
    }
    PacketSeq::from_ids(out)
}

/// `Div(pkt, H, i)`: the `i`-th (0-based, `i < parts`) of `parts`
/// round-robin subsequences of `pkt`: positions `j` with
/// `j mod parts == i`, order preserved.
///
/// The paper indexes subsequences from 1 (`i = j mod H + 1`); we use the
/// 0-based equivalent.
pub fn div(pkt: &PacketSeq, parts: usize, i: usize) -> PacketSeq {
    div_ids(pkt.ids(), parts, i)
}

/// [`div`] over a raw id slice — lets callers divide a postfix of a
/// larger schedule without materializing the postfix first.
pub fn div_ids(ids: &[PacketId], parts: usize, i: usize) -> PacketSeq {
    assert!(parts >= 1, "division into zero parts");
    assert!(i < parts, "part index {i} out of range for {parts} parts");
    PacketSeq::from_ids(
        ids.iter()
            .enumerate()
            .filter(|(j, _)| j % parts == i)
            .map(|(_, p)| p.clone())
            .collect(),
    )
}

/// All `parts` round-robin subsequences at once — one pass over the
/// input (the same total cost as a *single* [`div`] call, which also
/// scans every element), so callers needing several parts should prefer
/// this. Part `i` equals `div(pkt, parts, i)` exactly.
pub fn div_all(pkt: &PacketSeq, parts: usize) -> Vec<PacketSeq> {
    div_all_ids(pkt.ids(), parts)
}

/// [`div_all`] over a raw id slice.
pub fn div_all_ids(ids: &[PacketId], parts: usize) -> Vec<PacketSeq> {
    assert!(parts >= 1, "division into zero parts");
    let cap = ids.len() / parts + 1;
    let mut outs: Vec<Vec<PacketId>> = (0..parts).map(|_| Vec::with_capacity(cap)).collect();
    for (j, p) in ids.iter().enumerate() {
        outs[j % parts].push(p.clone());
    }
    outs.into_iter().map(PacketSeq::from_ids).collect()
}

/// Outcome of feeding one packet to the [`Decoder`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// The packet let the decoder learn these data sequence numbers
    /// (directly, or by unlocking buffered parity packets).
    Learned(Vec<Seq>),
    /// The packet's content was already fully known.
    Redundant,
    /// A parity packet buffered until more of its coverage is known.
    Buffered,
}

/// A buffered RS parity row: segment coverage, Vandermonde row index,
/// payload.
type RsRow = (Box<[Seq]>, u8, Vec<u8>);

/// Incremental XOR ("peeling") decoder run by a leaf peer.
///
/// Every received packet — data, parity, arbitrarily nested parity — is a
/// GF(2) equation over data payloads. Known payloads are substituted out;
/// an equation reduced to a single unknown yields that payload, possibly
/// cascading. For the per-segment parity code of §3.2, peeling is a
/// complete decoder (each equation's unknowns are confined to one
/// segment).
#[derive(Default)]
pub struct Decoder {
    known: FxHashMap<Seq, Arc<[u8]>>,
    /// Word bitmap mirroring `known`'s keys (bit `s` ⇔ `Seq(s)` known):
    /// `missing_count` is a popcount and `missing_iter` walks zero bits,
    /// so repair ticks allocate nothing unless they actually NACK.
    known_bits: crate::kernels::Bitmap,
    /// Pending equations: unknown coverage (sorted) + reduced payload.
    pending: Vec<Option<(Vec<Seq>, Vec<u8>)>>,
    /// seq -> indices into `pending` that mention it.
    index: FxHashMap<Seq, Vec<usize>>,
    /// Buffered RS parity rows.
    rs_rows: Vec<Option<RsRow>>,
    /// Segment coverage -> slots into `rs_rows`.
    rs_segments: FxHashMap<Box<[Seq]>, Vec<usize>>,
    /// Data seq -> segments covering it (registered once per segment).
    rs_seq_index: FxHashMap<Seq, Vec<Box<[Seq]>>>,
    inconsistencies: u64,
    /// Recycled payload buffers from consumed equations — per-packet
    /// reduction copies draw from here instead of allocating.
    spare: Vec<Vec<u8>>,
}

/// Recycled equation buffers kept per decoder.
const SPARE_CAP: usize = 16;

impl Decoder {
    /// Fresh decoder with no knowledge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of data packets recovered so far.
    pub fn known_count(&self) -> usize {
        self.known.len()
    }

    /// True once `seq`'s payload is known.
    pub fn has(&self, seq: Seq) -> bool {
        self.known.contains_key(&seq)
    }

    /// The recovered payload of `seq`, if known.
    pub fn payload(&self, seq: Seq) -> Option<&Arc<[u8]>> {
        self.known.get(&seq)
    }

    /// Data sequence numbers in `1..=l` not yet recovered.
    pub fn missing(&self, l: u64) -> Vec<Seq> {
        self.missing_iter(l).collect()
    }

    /// Iterate the data sequence numbers in `1..=l` not yet recovered,
    /// ascending, without materializing them — a zero-bit walk over the
    /// availability bitmap.
    pub fn missing_iter(&self, l: u64) -> impl Iterator<Item = Seq> + '_ {
        self.known_bits
            .zeros(1, (l as usize).saturating_add(1))
            .map(|i| Seq(i as u64))
    }

    /// Number of data packets in `1..=l` not yet recovered — a word-wide
    /// popcount, no allocation.
    pub fn missing_count(&self, l: u64) -> usize {
        self.known_bits
            .count_zeros(1, (l as usize).saturating_add(1))
    }

    /// The availability bitmap: bit `s` is set once `Seq(s)`'s payload is
    /// known. Lets playout accounting scan words (see
    /// [`crate::buffer::PlayoutClock::continuity_bits`]).
    pub fn known_bitmap(&self) -> &crate::kernels::Bitmap {
        &self.known_bits
    }

    /// Count of packets whose content contradicted earlier knowledge
    /// (nonzero residual after full reduction) — always 0 for an honest
    /// sender.
    pub fn inconsistencies(&self) -> u64 {
        self.inconsistencies
    }

    /// Feed one received packet.
    pub fn insert(&mut self, id: &PacketId, payload: &[u8]) -> InsertOutcome {
        self.insert_impl(id, payload, None)
    }

    /// [`Decoder::insert`] for an `Arc`-backed payload: a fresh data
    /// packet is adopted by reference-count bump instead of copying its
    /// bytes — the zero-copy leaf receive path. Outcomes are identical
    /// to `insert` byte-for-byte.
    pub fn insert_bytes(&mut self, id: &PacketId, payload: &Arc<[u8]>) -> InsertOutcome {
        self.insert_impl(id, payload, Some(payload))
    }

    fn insert_impl(
        &mut self,
        id: &PacketId,
        payload: &[u8],
        shared: Option<&Arc<[u8]>>,
    ) -> InsertOutcome {
        if let PacketId::RsParity { seqs, row } = id {
            return self.insert_rs(seqs, *row, payload);
        }
        // Fast path: a plain data packet either duplicates known bytes
        // (checked without copying) or is adopted as-is.
        if let PacketId::Data(s) = id {
            if let Some(k) = self.known.get(s) {
                // Equivalent to reducing the one-unknown equation and
                // testing the residual: consistent iff the payloads agree
                // on the common prefix and any excess bytes are zero.
                let m = payload.len().min(k.len());
                if payload[..m] != k.as_ref()[..m] || payload[m..].iter().any(|&b| b != 0) {
                    self.inconsistencies += 1;
                }
                return InsertOutcome::Redundant;
            }
            let bytes = match shared {
                Some(b) => Arc::clone(b),
                None => Arc::from(payload),
            };
            let mut learned = Vec::new();
            self.learn(*s, bytes, &mut learned);
            return InsertOutcome::Learned(learned);
        }
        let mut cover: Vec<Seq> = id.coverage_slice().to_vec();
        let mut buf = self.take_spare(payload);
        self.reduce(&mut cover, &mut buf);
        match cover.len() {
            0 => {
                if buf.iter().any(|&b| b != 0) {
                    self.inconsistencies += 1;
                }
                self.recycle(buf);
                InsertOutcome::Redundant
            }
            1 => {
                let seq = cover[0];
                let bytes = Arc::from(&buf[..]);
                self.recycle(buf);
                let mut learned = Vec::new();
                self.learn(seq, bytes, &mut learned);
                InsertOutcome::Learned(learned)
            }
            _ => {
                let slot = self.pending.len();
                for s in &cover {
                    self.index.entry(*s).or_default().push(slot);
                }
                self.pending.push(Some((cover, buf)));
                InsertOutcome::Buffered
            }
        }
    }

    /// A buffer holding a copy of `payload`, recycled from a consumed
    /// equation when one is available.
    fn take_spare(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        buf
    }

    /// Return a consumed equation buffer to the pool.
    fn recycle(&mut self, buf: Vec<u8>) {
        if self.spare.len() < SPARE_CAP {
            self.spare.push(buf);
        }
    }

    /// XOR out already-known payloads from an equation (word-wide).
    fn reduce(&self, cover: &mut Vec<Seq>, buf: &mut [u8]) {
        cover.retain(|s| {
            if let Some(p) = self.known.get(s) {
                crate::kernels::xor_into(buf, p);
                false
            } else {
                true
            }
        });
    }

    /// Record a recovered payload in `known` and its bitmap mirror.
    fn record_known(&mut self, seq: Seq, payload: Arc<[u8]>) {
        self.known_bits.set(seq.0 as usize);
        self.known.insert(seq, payload);
    }

    /// Buffer an RS parity row and attempt to solve its segment.
    fn insert_rs(&mut self, seqs: &[Seq], row: u8, payload: &[u8]) -> InsertOutcome {
        if seqs.iter().all(|s| self.known.contains_key(s)) {
            return InsertOutcome::Redundant;
        }
        let key: Box<[Seq]> = seqs.into();
        let slot = self.rs_rows.len();
        let row_buf = self.take_spare(payload);
        self.rs_rows.push(Some((key.clone(), row, row_buf)));
        if !self.rs_segments.contains_key(&key) {
            for s in key.iter() {
                self.rs_seq_index.entry(*s).or_default().push(key.clone());
            }
        }
        self.rs_segments.entry(key.clone()).or_default().push(slot);
        let mut learned = Vec::new();
        let mut frontier = Vec::new();
        self.try_rs_solve(&key, &mut learned, &mut frontier);
        // Newly recovered data may unlock XOR equations and other RS
        // segments.
        self.drain_frontier(frontier, &mut learned);
        if learned.is_empty() {
            InsertOutcome::Buffered
        } else {
            InsertOutcome::Learned(learned)
        }
    }

    /// Solve an RS segment if enough shards (known data + buffered parity
    /// rows) are available; recovered seqs go to `learned`/`frontier`.
    fn try_rs_solve(&mut self, key: &[Seq], learned: &mut Vec<Seq>, frontier: &mut Vec<Seq>) {
        let k = key.len();
        let known: Vec<(usize, Seq)> = key
            .iter()
            .enumerate()
            .filter(|(_, s)| self.known.contains_key(s))
            .map(|(j, s)| (j, *s))
            .collect();
        if known.len() == k {
            self.clear_rs_segment(key);
            return;
        }
        let Some(slots) = self.rs_segments.get(key) else {
            return;
        };
        let live: Vec<usize> = slots
            .iter()
            .copied()
            .filter(|&sl| self.rs_rows[sl].is_some())
            .collect();
        if known.len() + live.len() < k {
            return;
        }
        let mut shards: Vec<crate::rs::Shard> = known
            .iter()
            .map(|(j, s)| crate::rs::Shard::Data(*j, self.known[s].to_vec()))
            .collect();
        for &sl in &live {
            let (_, row, payload) = self.rs_rows[sl].as_ref().expect("live");
            shards.push(crate::rs::Shard::Parity(*row as usize, payload.clone()));
        }
        let Some(datas) = crate::rs::decode(k, &shards) else {
            // Singular (e.g. duplicate rows): wait for more shards.
            return;
        };
        for (j, s) in key.iter().enumerate() {
            if !self.known.contains_key(s) {
                self.record_known(*s, Arc::from(&datas[j][..]));
                learned.push(*s);
                frontier.push(*s);
            }
        }
        self.clear_rs_segment(key);
    }

    fn clear_rs_segment(&mut self, key: &[Seq]) {
        if let Some(slots) = self.rs_segments.remove(key) {
            for sl in slots {
                if let Some((_, _, buf)) = self.rs_rows[sl].take() {
                    self.recycle(buf);
                }
            }
        }
    }

    /// Process a frontier of newly known seqs: peel XOR equations and
    /// re-check RS segments, until nothing new is learned.
    fn drain_frontier(&mut self, mut frontier: Vec<Seq>, learned: &mut Vec<Seq>) {
        while let Some(s) = frontier.pop() {
            // XOR peeling.
            if let Some(slots) = self.index.remove(&s) {
                for slot in slots {
                    let Some((mut cover, mut buf)) = self.pending[slot].take() else {
                        continue;
                    };
                    self.reduce(&mut cover, &mut buf);
                    match cover.len() {
                        0 => {
                            if buf.iter().any(|&b| b != 0) {
                                self.inconsistencies += 1;
                            }
                            self.recycle(buf);
                        }
                        1 => {
                            let ns = cover[0];
                            if !self.known.contains_key(&ns) {
                                let bytes = Arc::from(&buf[..]);
                                self.record_known(ns, bytes);
                                learned.push(ns);
                                frontier.push(ns);
                            }
                            self.recycle(buf);
                        }
                        _ => {
                            self.pending[slot] = Some((cover, buf));
                        }
                    }
                }
            }
            // RS segments that cover this seq.
            if let Some(keys) = self.rs_seq_index.get(&s).cloned() {
                for key in keys {
                    self.try_rs_solve(&key, learned, &mut frontier);
                }
            }
        }
    }

    /// Record a newly known payload and peel any equations it unlocks.
    ///
    /// Equations are indexed exactly once per covered seq at insertion;
    /// peeling reduces them in place and never re-files, so index memory
    /// stays linear in the total coverage of buffered equations.
    fn learn(&mut self, seq: Seq, payload: Arc<[u8]>, learned: &mut Vec<Seq>) {
        if self.known.contains_key(&seq) {
            return;
        }
        self.record_known(seq, payload);
        learned.push(seq);
        self.drain_frontier(vec![seq], learned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::synth_payload;

    fn d(s: u64) -> PacketId {
        PacketId::Data(Seq(s))
    }

    fn par(seqs: &[u64]) -> PacketId {
        PacketId::parity_of(&seqs.iter().map(|&s| d(s)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn esq_reproduces_figure_6b() {
        // [⟨t1..t6⟩]^2 = ⟨t⟨1,2⟩, t1, t2, t3, t⟨3,4⟩, t4, t5, t6, t⟨5,6⟩⟩.
        let e = esq(&PacketSeq::data_range(6), 2);
        assert_eq!(
            e.ids(),
            &[
                par(&[1, 2]),
                d(1),
                d(2),
                d(3),
                par(&[3, 4]),
                d(4),
                d(5),
                d(6),
                par(&[5, 6]),
            ],
            "got {e}"
        );
    }

    #[test]
    fn esq_length_formula() {
        // |[pkt]^h| = |pkt| (h+1)/h when h divides |pkt|.
        for h in 1..=6usize {
            let l = (h * 7) as u64;
            let e = esq(&PacketSeq::data_range(l), h);
            assert_eq!(e.len(), (l as usize) * (h + 1) / h);
        }
    }

    #[test]
    fn esq_h1_duplicates_every_packet() {
        let e = esq(&PacketSeq::data_range(3), 1);
        // Parity of a single packet carries that packet's payload under a
        // distinct parity id: full duplication.
        // Offsets cycle d mod 2: before, after, before, …
        assert_eq!(
            e.ids(),
            &[par(&[1]), d(1), d(2), par(&[2]), par(&[3]), d(3)]
        );
    }

    #[test]
    fn esq_partial_trailing_segment_is_protected() {
        let e = esq(&PacketSeq::data_range(5), 3);
        // Segments: (1,2,3) offset 0, (4,5) offset 1.
        assert_eq!(
            e.ids(),
            &[par(&[1, 2, 3]), d(1), d(2), d(3), d(4), par(&[4, 5]), d(5),]
        );
    }

    #[test]
    fn div_reproduces_paper_section_3_6_split() {
        // [pkt]^2 over t1..t10 divided into three subsequences:
        // [pkt]^2_1 = ⟨t⟨1,2⟩, t3, t5, t⟨7,8⟩, t9⟩
        // [pkt]^2_2 = ⟨t1, t⟨3,4⟩, t6, t7, t⟨9,10⟩⟩
        // [pkt]^2_3 = ⟨t2, t4, t⟨5,6⟩, t8, t10⟩
        let e = esq(&PacketSeq::data_range(10), 2);
        let parts = div_all(&e, 3);
        assert_eq!(
            parts[0].ids(),
            &[par(&[1, 2]), d(3), d(5), par(&[7, 8]), d(9)],
            "part 1 = {}",
            parts[0]
        );
        assert_eq!(
            parts[1].ids(),
            &[d(1), par(&[3, 4]), d(6), d(7), par(&[9, 10])],
            "part 2 = {}",
            parts[1]
        );
        assert_eq!(
            parts[2].ids(),
            &[d(2), d(4), par(&[5, 6]), d(8), d(10)],
            "part 3 = {}",
            parts[2]
        );
    }

    #[test]
    fn div_partitions_positions() {
        let e = esq(&PacketSeq::data_range(50), 3);
        let parts = div_all(&e, 4);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, e.len());
        // Interleaving the parts back by round-robin reconstructs e.
        let mut rebuilt = Vec::new();
        let mut idx = [0usize; 4];
        for j in 0..e.len() {
            let p = j % 4;
            rebuilt.push(parts[p].ids()[idx[p]].clone());
            idx[p] += 1;
        }
        assert_eq!(rebuilt.as_slice(), e.ids());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn div_rejects_bad_index() {
        let _ = div(&PacketSeq::data_range(4), 2, 2);
    }

    fn payload_of(id: &PacketId, key: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        for s in id.coverage_slice() {
            let p = synth_payload(key, *s, len);
            for (dst, src) in buf.iter_mut().zip(p.iter()) {
                *dst ^= src;
            }
        }
        buf
    }

    #[test]
    fn decoder_recovers_single_loss_per_segment() {
        let key = 5;
        let len = 64;
        let e = esq(&PacketSeq::data_range(12), 3);
        let mut dec = Decoder::new();
        // Drop one data packet per segment: t2, t5, t9, t10.
        let dropped = [2u64, 5, 9, 10];
        for id in e.ids() {
            if let PacketId::Data(Seq(s)) = id {
                if dropped.contains(s) {
                    continue;
                }
            }
            dec.insert(id, &payload_of(id, key, len));
        }
        assert_eq!(dec.missing(12), Vec::<Seq>::new());
        for s in dropped {
            assert_eq!(
                dec.payload(Seq(s)).unwrap(),
                &synth_payload(key, Seq(s), len)
            );
        }
        assert_eq!(dec.inconsistencies(), 0);
    }

    #[test]
    fn decoder_cannot_recover_two_losses_in_one_segment() {
        let e = esq(&PacketSeq::data_range(4), 2);
        let mut dec = Decoder::new();
        // Segment (t1, t2): drop both data packets; parity alone is not
        // enough.
        for id in e.ids() {
            match id {
                PacketId::Data(Seq(1)) | PacketId::Data(Seq(2)) => continue,
                _ => {
                    dec.insert(id, &payload_of(id, 7, 16));
                }
            }
        }
        assert_eq!(dec.missing(4), vec![Seq(1), Seq(2)]);
    }

    #[test]
    fn decoder_peels_out_of_order() {
        // Parity arrives before any of its coverage; data trickles in.
        let key = 9;
        let len = 32;
        let p = par(&[1, 2, 3]);
        let mut dec = Decoder::new();
        assert_eq!(
            dec.insert(&p, &payload_of(&p, key, len)),
            InsertOutcome::Buffered
        );
        assert_eq!(
            dec.insert(&d(1), &payload_of(&d(1), key, len)),
            InsertOutcome::Learned(vec![Seq(1)])
        );
        // Learning t3 should unlock t2 through the parity equation.
        let out = dec.insert(&d(3), &payload_of(&d(3), key, len));
        assert_eq!(out, InsertOutcome::Learned(vec![Seq(3), Seq(2)]));
        assert_eq!(
            dec.payload(Seq(2)).unwrap(),
            &synth_payload(key, Seq(2), len)
        );
    }

    #[test]
    fn decoder_handles_nested_parity() {
        // Receive p(1,2), p((1,2),3) and t1: should recover t2 and t3.
        let key = 11;
        let len = 16;
        let p12 = par(&[1, 2]);
        let nested = PacketId::parity_of(&[p12.clone(), d(3)]).unwrap();
        let mut dec = Decoder::new();
        dec.insert(&p12, &payload_of(&p12, key, len));
        dec.insert(&nested, &payload_of(&nested, key, len));
        let out = dec.insert(&d(1), &payload_of(&d(1), key, len));
        match out {
            InsertOutcome::Learned(mut seqs) => {
                seqs.sort();
                assert_eq!(seqs, vec![Seq(1), Seq(2), Seq(3)]);
            }
            other => panic!("expected learned, got {other:?}"),
        }
    }

    #[test]
    fn duplicates_are_redundant() {
        let key = 1;
        let mut dec = Decoder::new();
        dec.insert(&d(1), &payload_of(&d(1), key, 8));
        assert_eq!(
            dec.insert(&d(1), &payload_of(&d(1), key, 8)),
            InsertOutcome::Redundant
        );
        assert_eq!(dec.inconsistencies(), 0);
    }

    #[test]
    fn corrupted_duplicate_is_flagged() {
        let key = 1;
        let mut dec = Decoder::new();
        dec.insert(&d(1), &payload_of(&d(1), key, 8));
        let bad = vec![0xFFu8; 8];
        assert_eq!(dec.insert(&d(1), &bad), InsertOutcome::Redundant);
        assert_eq!(dec.inconsistencies(), 1);
    }

    #[test]
    fn full_stream_with_heavy_structured_loss_recovers() {
        // h = H-1 = 3, H = 4 peers: drop ALL packets of one peer
        // (simulating a crashed contents peer) and verify complete
        // recovery — the paper's core reliability claim.
        let key = 13;
        let len = 24;
        let l = 60;
        let e = esq(&PacketSeq::data_range(l), 3);
        let parts = div_all(&e, 4);
        let mut dec = Decoder::new();
        for (i, part) in parts.iter().enumerate() {
            if i == 2 {
                continue; // peer 2 crashed; nothing from it arrives
            }
            for id in part.ids() {
                dec.insert(id, &payload_of(id, key, len));
            }
        }
        assert_eq!(dec.missing(l), Vec::<Seq>::new(), "stream not recovered");
        for s in 1..=l {
            assert_eq!(
                dec.payload(Seq(s)).unwrap(),
                &synth_payload(key, Seq(s), len)
            );
        }
    }
}
