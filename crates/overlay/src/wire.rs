//! Compact wire encodings for [`View`] piggybacks.
//!
//! The seed shipped every view as a fixed `[n: u32][n-bit bitmap]`
//! frame — O(n/8) bytes per control message, which caps a live
//! `Control` datagram near n ≈ 4·10³ (64 KiB UDP limit) and dominates
//! simulated control-byte accounting. This module defines a
//! self-describing frame with three set encodings — the two in-memory
//! forms plus run-length ranges: the encoder emits the smallest, so a
//! frame costs O(min(n/8, 5·|set|)) bytes, and it walks a form's
//! members only when a lower bound on that form's length leaves it a
//! chance to win.
//!
//! # Frame format
//!
//! ```text
//! frame   := [hdr: u8] [n: varint] [body]
//! hdr     := VERSION << 4 | tag
//! tag 0   := dense  — ceil(n/8) bitmap bytes, LSB-first (seed layout)
//! tag 1   := sparse — [count: varint] [gap: varint]×count
//!            id_0 = gap_0, id_i = id_{i-1} + 1 + gap_i
//! tag 2   := runs   — [runs: varint] ([gap: varint][len1: varint])×runs
//!            start = prev_end + gap, end = start + len1 + 1
//! ```
//!
//! Varints are LEB128 (7 bits per byte, little-endian groups). The
//! version nibble rejects frames from incompatible peers outright.
//!
//! The three tags are interchangeable *set* encodings: decoding any of
//! them yields the same [`View`], and re-encoding is deterministic
//! (smallest form, lowest tag on ties), so encode → decode → encode is
//! byte-stable. Every frame is self-contained: a receiver needs no
//! state of its own to decode one.

use bytes::BufMut;

use crate::peer::PeerId;
use crate::view::View;

/// Version of the view frame format, carried in the header's high
/// nibble. Bump on any incompatible layout change.
pub const WIRE_VERSION: u8 = 1;

/// Set-encoding tags (header low nibble).
pub const TAG_DENSE: u8 = 0;
/// Sorted-id varint list tag.
pub const TAG_SPARSE: u8 = 1;
/// Run-length ranges tag.
pub const TAG_RUNS: u8 = 2;

/// Decoding failure. Mirrors the codec's discipline: corrupt input is
/// an error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Frame ends before the encoding says it should.
    Truncated,
    /// Header version nibble differs from [`WIRE_VERSION`].
    BadVersion(u8),
    /// Unknown tag nibble.
    BadTag(u8),
    /// Structurally invalid body: ids out of range, counts exceeding
    /// the population, varint overflow, or a population above the
    /// caller's cap.
    BadEncoding,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "view frame truncated"),
            WireError::BadVersion(v) => write!(f, "view frame version {v} unsupported"),
            WireError::BadTag(t) => write!(f, "unknown view frame tag {t}"),
            WireError::BadEncoding => write!(f, "malformed view frame body"),
        }
    }
}

impl std::error::Error for WireError {}

/// LEB128 length of `x`.
pub fn varint_len(x: u64) -> usize {
    ((64 - (x | 1).leading_zeros()) as usize).div_ceil(7)
}

fn put_varint(out: &mut impl BufMut, mut x: u64) {
    while x >= 0x80 {
        out.put_u8((x as u8 & 0x7f) | 0x80);
        x >>= 7;
    }
    out.put_u8(x as u8);
}

fn get_varint(buf: &[u8], at: &mut usize) -> Result<u64, WireError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*at).ok_or(WireError::Truncated)?;
        *at += 1;
        if shift == 63 && b > 1 {
            return Err(WireError::BadEncoding);
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::BadEncoding);
        }
    }
}

/// Sum of the gap varints for a sorted id sequence (sparse body minus
/// its count field).
fn gaps_len(ids: impl Iterator<Item = u32>) -> usize {
    let mut prev: Option<u32> = None;
    let mut total = 0;
    for id in ids {
        let gap = match prev {
            None => id,
            Some(p) => id - p - 1,
        };
        total += varint_len(u64::from(gap));
        prev = Some(id);
    }
    total
}

fn put_gaps(out: &mut impl BufMut, ids: impl Iterator<Item = u32>) {
    let mut prev: Option<u32> = None;
    for id in ids {
        let gap = match prev {
            None => id,
            Some(p) => id - p - 1,
        };
        put_varint(out, u64::from(gap));
        prev = Some(id);
    }
}

/// Body length of the dense encoding.
fn dense_body_len(v: &View) -> usize {
    v.population().div_ceil(8)
}

/// Body length of the sparse encoding.
fn sparse_body_len(v: &View) -> usize {
    varint_len(v.count() as u64) + gaps_len(v.iter().map(|p| p.0))
}

/// Body length of the runs encoding.
fn runs_body_len(v: &View) -> usize {
    let mut total = 0;
    let mut count = 0u64;
    let mut prev_end = 0u32;
    for (s, e) in v.runs() {
        total += varint_len(u64::from(s - prev_end)) + varint_len(u64::from(e - s - 1));
        prev_end = e;
        count += 1;
    }
    varint_len(count) + total
}

fn header_len(n: usize) -> usize {
    1 + varint_len(n as u64)
}

/// Smallest body tag for `v` and its body length: the encoder's choice
/// (ties go to the lowest tag). Every sparse gap and every run field
/// takes at least one byte, so a form whose floor (`count` or
/// `2·runs`, plus its count varint) already reaches the best length so
/// far cannot win and is not walked. The floors cost O(1) and one
/// [`View::run_count`], O(n/64) on a bitmap.
fn best_tag(v: &View) -> (u8, usize) {
    let mut best = (TAG_DENSE, dense_body_len(v));
    let count = v.count();
    if varint_len(count as u64) + count < best.1 {
        let sparse = sparse_body_len(v);
        if sparse < best.1 {
            best = (TAG_SPARSE, sparse);
        }
    }
    let runs = v.run_count();
    if varint_len(runs as u64) + 2 * runs < best.1 {
        let len = runs_body_len(v);
        if len < best.1 {
            best = (TAG_RUNS, len);
        }
    }
    best
}

/// [`best_tag`] plus the header, through the view's one-slot cache: a
/// view is sized once per snapshot, not once per message that carries
/// (or accounts for) it, and a sizing is the O(n/64) run count plus
/// the walks of only those forms whose floor could still win.
fn cached_best_tag(v: &View) -> (u8, usize) {
    if let Some(hit) = v.cached_wire() {
        return hit;
    }
    let (tag, body) = best_tag(v);
    let frame = header_len(v.population()) + body;
    v.store_cached_wire(tag, frame);
    (tag, frame)
}

/// Exact encoded size of `v` as [`encode_view`] would write it.
pub fn encoded_len(v: &View) -> usize {
    cached_best_tag(v).1
}

/// Encode `v` in its smallest form. Exactly [`encoded_len`] bytes.
pub fn encode_view(v: &View, out: &mut impl BufMut) {
    match cached_best_tag(v).0 {
        TAG_DENSE => encode_dense(v, out),
        TAG_SPARSE => encode_sparse(v, out),
        _ => encode_runs(v, out),
    }
}

fn put_header(out: &mut impl BufMut, tag: u8, n: usize) {
    out.put_u8((WIRE_VERSION << 4) | tag);
    put_varint(out, n as u64);
}

/// Force the dense (seed-layout bitmap) encoding.
pub fn encode_dense(v: &View, out: &mut impl BufMut) {
    let n = v.population();
    put_header(out, TAG_DENSE, n);
    let mut bytes = vec![0u8; n.div_ceil(8)];
    for p in v.iter() {
        bytes[p.0 as usize / 8] |= 1 << (p.0 % 8);
    }
    out.put_slice(&bytes);
}

/// Force the sorted-id varint list encoding.
pub fn encode_sparse(v: &View, out: &mut impl BufMut) {
    put_header(out, TAG_SPARSE, v.population());
    put_varint(out, v.count() as u64);
    put_gaps(out, v.iter().map(|p| p.0));
}

/// Force the run-length ranges encoding.
pub fn encode_runs(v: &View, out: &mut impl BufMut) {
    put_header(out, TAG_RUNS, v.population());
    let runs: Vec<(u32, u32)> = v.runs().collect();
    put_varint(out, runs.len() as u64);
    let mut prev_end = 0u32;
    for (s, e) in runs {
        put_varint(out, u64::from(s - prev_end));
        put_varint(out, u64::from(e - s - 1));
        prev_end = e;
    }
}

/// Decode one view frame from the front of `buf`. Returns the view and
/// the number of bytes consumed. `max_n` bounds the population a frame
/// may claim (allocation guard against corrupt input).
pub fn decode_view(buf: &[u8], max_n: usize) -> Result<(View, usize), WireError> {
    let mut at = 0usize;
    let hdr = *buf.first().ok_or(WireError::Truncated)?;
    at += 1;
    let (version, tag) = (hdr >> 4, hdr & 0x0f);
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let n = get_varint(buf, &mut at)? as usize;
    if n > max_n {
        return Err(WireError::BadEncoding);
    }
    let view = match tag {
        TAG_DENSE => {
            let nbytes = n.div_ceil(8);
            let body = buf.get(at..at + nbytes).ok_or(WireError::Truncated)?;
            at += nbytes;
            let mut ids = Vec::new();
            for (byte_idx, &b) in body.iter().enumerate() {
                let mut bits = b;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    let id = (byte_idx * 8) as u32 + bit;
                    if id as usize >= n {
                        return Err(WireError::BadEncoding);
                    }
                    ids.push(id);
                }
            }
            View::from_sorted_ids(n, ids)
        }
        TAG_SPARSE => {
            let count = get_varint(buf, &mut at)? as usize;
            let ids = get_ids(buf, &mut at, count, n)?;
            View::from_sorted_ids(n, ids)
        }
        TAG_RUNS => {
            let runs = get_varint(buf, &mut at)? as usize;
            if runs > n {
                return Err(WireError::BadEncoding);
            }
            // Inserted id by id, so a short frame claiming a long run
            // costs the view it builds, never an id list beside it.
            let mut v = View::empty(n);
            let mut prev_end = 0u64;
            for _ in 0..runs {
                let start = prev_end.checked_add(get_varint(buf, &mut at)?);
                let len = get_varint(buf, &mut at)?;
                let end = start
                    .and_then(|s| s.checked_add(len)?.checked_add(1))
                    .filter(|&e| e <= n as u64);
                let (Some(start), Some(end)) = (start, end) else {
                    return Err(WireError::BadEncoding);
                };
                for id in start as u32..end as u32 {
                    v.insert(PeerId(id));
                }
                prev_end = end;
            }
            v
        }
        t => return Err(WireError::BadTag(t)),
    };
    Ok((view, at))
}

/// Read `count` gap-coded ascending ids bounded by population `n`.
fn get_ids(buf: &[u8], at: &mut usize, count: usize, n: usize) -> Result<Vec<u32>, WireError> {
    if count > n {
        return Err(WireError::BadEncoding);
    }
    // Every id takes at least one byte: a count beyond the bytes left
    // reserves no more than they can hold.
    let mut ids = Vec::with_capacity(count.min(buf.len().saturating_sub(*at)));
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let gap = get_varint(buf, at)?;
        let id = match prev {
            None => Some(gap),
            Some(p) => p.checked_add(gap).and_then(|x| x.checked_add(1)),
        };
        let Some(id) = id.filter(|&id| id < n as u64) else {
            return Err(WireError::BadEncoding);
        };
        ids.push(id as u32);
        prev = Some(id);
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(n: usize, ids: &[u32]) -> View {
        let mut v = View::empty(n);
        for &i in ids {
            v.insert(PeerId(i));
        }
        v
    }

    fn decode_ok(buf: &[u8]) -> (View, usize) {
        decode_view(buf, 2_000_000).expect("decodes")
    }

    #[test]
    fn varint_len_matches_encoding() {
        for x in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, x);
            assert_eq!(out.len(), varint_len(x), "x={x}");
            let mut at = 0;
            assert_eq!(get_varint(&out, &mut at).unwrap(), x);
            assert_eq!(at, out.len());
        }
    }

    #[test]
    fn every_encoding_round_trips_the_same_set() {
        let cases = [
            view_of(1, &[0]),
            view_of(64, &[]),
            view_of(100, &[0, 7, 8, 9, 63, 64, 99]),
            View::full(1000),
            view_of(10_000, &[3, 500, 9_999]),
        ];
        for v in &cases {
            for enc in [
                encode_dense as fn(&View, &mut Vec<u8>),
                encode_sparse,
                encode_runs,
                encode_view,
            ] {
                let mut out = Vec::new();
                enc(v, &mut out);
                let (got, used) = decode_ok(&out);
                assert_eq!(used, out.len());
                assert_eq!(&got, v);
            }
        }
    }

    #[test]
    fn encoder_picks_the_smallest_form() {
        // Tiny membership in a big population: sparse wins by orders of
        // magnitude over the bitmap.
        let v = view_of(100_000, &[5, 17, 80_000]);
        assert!(encoded_len(&v) < 20, "got {}", encoded_len(&v));
        // Full view: a single run, constant-size.
        assert!(encoded_len(&View::full(1_000_000)) < 12);
        // Fragmented half-full small view: the bitmap wins.
        let frag: Vec<u32> = (0..128).step_by(2).collect();
        let v = view_of(128, &frag);
        let mut out = Vec::new();
        encode_view(&v, &mut out);
        assert_eq!(out[0] & 0x0f, TAG_DENSE);
        assert_eq!(out.len(), encoded_len(&v));
    }

    #[test]
    fn encoded_len_is_exact_for_all_forms() {
        let views = [
            view_of(50, &[]),
            view_of(50, &[0]),
            view_of(4_000, &[1, 2, 3, 900, 3_999]),
            View::full(4_000),
            view_of(200, &(0..200).step_by(3).collect::<Vec<_>>()),
        ];
        for v in &views {
            let mut out = Vec::new();
            encode_view(v, &mut out);
            assert_eq!(out.len(), encoded_len(v), "{v:?}");
        }
    }

    #[test]
    fn version_and_tag_are_enforced() {
        let mut out = Vec::new();
        encode_sparse(&view_of(10, &[2]), &mut out);
        let mut wrong_ver = out.clone();
        wrong_ver[0] = (2 << 4) | TAG_SPARSE;
        assert_eq!(
            decode_view(&wrong_ver, 100).unwrap_err(),
            WireError::BadVersion(2)
        );
        for tag in [3, 9] {
            let mut wrong_tag = out.clone();
            wrong_tag[0] = (WIRE_VERSION << 4) | tag;
            assert_eq!(
                decode_view(&wrong_tag, 100).unwrap_err(),
                WireError::BadTag(tag)
            );
        }
    }

    #[test]
    fn truncations_and_garbage_error_not_panic() {
        let mut frames = Vec::new();
        for enc in [
            encode_dense as fn(&View, &mut Vec<u8>),
            encode_sparse,
            encode_runs,
        ] {
            let mut out = Vec::new();
            enc(&view_of(300, &[0, 5, 6, 7, 250]), &mut out);
            frames.push(out);
        }
        for frame in &frames {
            for cut in 0..frame.len() {
                let _ = decode_view(&frame[..cut], 1_000);
            }
        }
        assert_eq!(decode_view(&[], 100).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn population_cap_rejects_oversized_claims() {
        let mut out = Vec::new();
        encode_sparse(&view_of(5_000, &[4_999]), &mut out);
        assert_eq!(
            decode_view(&out, 1_000).unwrap_err(),
            WireError::BadEncoding
        );
        assert!(decode_view(&out, 5_000).is_ok());
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let frame = |tag: u8, n: usize, fields: &[u64]| {
            let mut out = Vec::new();
            put_header(&mut out, tag, n);
            for &f in fields {
                put_varint(&mut out, f);
            }
            out
        };
        for bad in [
            // Sparse, n = 4, id 7.
            frame(TAG_SPARSE, 4, &[1, 7]),
            // Runs, n = 4, the run [2, 8).
            frame(TAG_RUNS, 4, &[1, 2, 5]),
            // Dense, n = 4, bit 4 set.
            frame(TAG_DENSE, 4, &[0b0001_0000]),
            // Sums that overflow `u64`, not just n. Sparse: ids 5, then
            // 5 + 1 + (2⁶⁴ − 4).
            frame(TAG_SPARSE, 100, &[2, 5, u64::MAX - 3]),
            // Runs: [5, 6), then a start of 6 + (2⁶⁴ − 4).
            frame(TAG_RUNS, 100, &[2, 5, 0, u64::MAX - 3, 0]),
            // Runs: start 5 and an end of 5 + (2⁶⁴ − 3) + 1.
            frame(TAG_RUNS, 100, &[1, 5, u64::MAX - 2]),
        ] {
            assert_eq!(
                decode_view(&bad, 1_000).unwrap_err(),
                WireError::BadEncoding,
                "{bad:x?}"
            );
        }
    }
}
