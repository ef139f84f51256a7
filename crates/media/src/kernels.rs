//! Vectorized coding-plane kernels: word-wide XOR, nibble-table GF(256)
//! multiply-accumulate, availability bitmaps, and pooled scratch buffers.
//!
//! The XOR plane is plain safe Rust SIMD-within-a-register: `u64` chunks
//! via `chunks_exact(8)` with scalar tails. GF(256) uses the classic
//! two-16-entry-nibble-table split; on x86-64 with AVX2 the tables feed
//! `vpshufb` directly (32 products per shuffle pair, runtime-detected),
//! with the byte-wise table walk as fallback and tail everywhere else.
//! All kernels are bit-for-bit equal to the scalar field operations in
//! [`crate::gf256`]; the equivalence is pinned by
//! `tests/kernel_equivalence.rs`.
//!
//! ## Nibble-table construction
//!
//! For a fixed multiplier `c`, the product `c·s` in GF(2⁸) is linear over
//! GF(2), so it splits over the nibbles of `s`:
//! `c·s = c·(s & 0x0f) ⊕ c·(s >> 4 << 4)`. `NIB` stores, per multiplier,
//! 32 bytes: `NIB[c][n] = c·n` for the low nibble and
//! `NIB[c][16+n] = c·(n<<4)` for the high nibble — one 8 KiB compile-time
//! table whose two active rows fit in a single cache line during a
//! `mul_acc` call. The hot loop is then two L1 loads and two XORs per
//! byte, branch-free, unrolled 8 bytes per step, versus the scalar path's
//! per-byte `s != 0` branch plus the dependent `EXP[lc + LOG[s]]` chain.

use std::cell::RefCell;

/// The reduction polynomial x⁸+x⁴+x³+x²+1 reduced mod x⁸ (0x11d & 0xff).
const POLY_LOW: u8 = 0x1d;

/// Carry-less "Russian peasant" GF(2⁸) multiply, usable in const context.
/// The log/exp tables in [`crate::gf256`] compute the same field product;
/// `tests` pin the two against each other for all 65 536 pairs.
const fn gf_mul_const(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while a != 0 && b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let carry = a & 0x80;
        a <<= 1;
        if carry != 0 {
            a ^= POLY_LOW;
        }
        b >>= 1;
    }
    p
}

/// Per-multiplier nibble tables: `NIB[c][n] = c·n`, `NIB[c][16+n] = c·(n<<4)`.
static NIB: [[u8; 32]; 256] = build_nib();

const fn build_nib() -> [[u8; 32]; 256] {
    let mut t = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let mut n = 0;
        while n < 16 {
            t[c][n] = gf_mul_const(c as u8, n as u8);
            t[c][16 + n] = gf_mul_const(c as u8, (n as u8) << 4);
            n += 1;
        }
        c += 1;
    }
    t
}

/// `dst[i] ^= src[i]` over the common length, eight bytes per step.
///
/// Like the scalar `zip` loops it replaces, the operation runs over
/// `min(dst.len(), src.len())` — excess bytes on either side are left
/// untouched.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    let n = dst.len().min(src.len());
    let split = n - n % 8;
    let (d8, d_tail) = dst[..n].split_at_mut(split);
    let (s8, s_tail) = src[..n].split_at(split);
    for (dc, sc) in d8.chunks_exact_mut(8).zip(s8.chunks_exact(8)) {
        let d = u64::from_ne_bytes(dc[..8].try_into().expect("8-byte chunk"));
        let s = u64::from_ne_bytes(sc[..8].try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&(d ^ s).to_ne_bytes());
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d ^= s;
    }
}

/// `dst[i] ^= c · src[i]` in GF(2⁸) over the common length — the
/// nibble-table kernel behind [`crate::gf256::mul_acc`].
///
/// On x86-64 with AVX2, the two 16-entry tables drive `vpshufb` directly
/// (32 products per instruction pair); elsewhere, and for the tail, the
/// same tables are walked byte-wise.
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_into(dst, src);
        return;
    }
    let t = &NIB[c as usize];
    let n = dst.len().min(src.len());
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was just verified at runtime.
        done = unsafe { x86::mul_acc_avx2(&mut dst[..n], &src[..n], t) };
    }
    mul_acc_nibble(&mut dst[done..n], &src[done..n], t);
}

/// Byte-wise nibble-table multiply-accumulate: fallback for targets
/// without a SIMD path and the sub-vector tail on targets with one.
fn mul_acc_nibble(dst: &mut [u8], src: &[u8], t: &[u8; 32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= t[(s & 0x0f) as usize] ^ t[16 + (s >> 4) as usize];
    }
}

/// `buf[i] = c · buf[i]` in GF(2⁸) — the nibble-table kernel behind
/// [`crate::gf256::scale`].
pub fn scale(buf: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        buf.fill(0);
        return;
    }
    let t = &NIB[c as usize];
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was just verified at runtime.
        done = unsafe { x86::scale_avx2(buf, t) };
    }
    scale_nibble(&mut buf[done..], t);
}

/// Byte-wise nibble-table scale: fallback and tail, like [`mul_acc_nibble`].
fn scale_nibble(buf: &mut [u8], t: &[u8; 32]) {
    for b in buf.iter_mut() {
        *b = t[(*b & 0x0f) as usize] ^ t[16 + (*b >> 4) as usize];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 nibble-table GF(256) lanes: the `NIB[c]` tables are exactly
    //! the two 16-byte shuffle masks `vpshufb` wants, so one load pair +
    //! shuffle pair + XOR computes 32 field products per step.

    use std::arch::x86_64::*;

    /// Multiply-accumulate whole 32-byte blocks of `src` into `dst`
    /// through the nibble tables `t`; returns the bytes consumed (the
    /// caller finishes the tail byte-wise). `dst` and `src` must have
    /// equal length.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], t: &[u8; 32]) -> usize {
        debug_assert_eq!(dst.len(), src.len());
        let steps = dst.len() / 32;
        let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().cast()));
        let hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().add(16).cast()));
        let mask = _mm256_set1_epi8(0x0f);
        for i in 0..steps {
            let dp: *mut __m256i = dst.as_mut_ptr().add(i * 32).cast();
            let s = _mm256_loadu_si256(src.as_ptr().add(i * 32).cast());
            let lo = _mm256_and_si256(s, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
            let prod = _mm256_xor_si256(
                _mm256_shuffle_epi8(lo_tbl, lo),
                _mm256_shuffle_epi8(hi_tbl, hi),
            );
            _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), prod));
        }
        steps * 32
    }

    /// In-place nibble-table scale of whole 32-byte blocks; returns the
    /// bytes consumed.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_avx2(buf: &mut [u8], t: &[u8; 32]) -> usize {
        let steps = buf.len() / 32;
        let lo_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().cast()));
        let hi_tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().add(16).cast()));
        let mask = _mm256_set1_epi8(0x0f);
        for i in 0..steps {
            let bp: *mut __m256i = buf.as_mut_ptr().add(i * 32).cast();
            let b = _mm256_loadu_si256(bp);
            let lo = _mm256_and_si256(b, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16(b, 4), mask);
            _mm256_storeu_si256(
                bp,
                _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_tbl, lo),
                    _mm256_shuffle_epi8(hi_tbl, hi),
                ),
            );
        }
        steps * 32
    }
}

thread_local! {
    /// Recycled scratch buffers for transient per-packet work (RS source
    /// synthesis, parity accumulation). Bounded so a one-off giant
    /// payload cannot pin memory forever.
    static SCRATCH: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Maximum recycled scratch buffers per thread.
const SCRATCH_POOL_CAP: usize = 8;

/// Run `f` with a zeroed scratch buffer of `len` bytes drawn from (and
/// returned to) a thread-local pool — the coding plane's alternative to a
/// fresh `vec![0u8; len]` per packet.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let mut buf = SCRATCH.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, 0);
    let out = f(&mut buf);
    SCRATCH.with(|s| {
        let mut pool = s.borrow_mut();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(buf);
        }
    });
    out
}

/// A growable word bitmap over `usize` indices, used as the decoder's
/// availability map: word-wide popcounts for `missing_count` and a
/// zero-bit iterator so repair ticks never materialize a `Vec<Seq>`
/// unless they actually NACK.
#[derive(Clone, Debug, Default)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An empty bitmap (all bits clear).
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Set bit `idx`, growing the backing words as needed.
    pub fn set(&mut self, idx: usize) {
        let w = idx / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (idx % 64);
    }

    /// True when bit `idx` is set. Bits beyond the backing words are
    /// clear.
    pub fn get(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Number of set bits in `start..end` — one popcount per word.
    pub fn count_ones(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.words.len() * 64);
        if start >= end {
            return 0;
        }
        let mut total = 0usize;
        let (w0, w1) = (start / 64, end.div_ceil(64));
        for (wi, &word) in self.words[w0..w1].iter().enumerate() {
            let base = (w0 + wi) * 64;
            let mut m = word;
            if base < start {
                m &= !0u64 << (start - base);
            }
            if base + 64 > end {
                m &= (!0u64) >> (base + 64 - end);
            }
            total += m.count_ones() as usize;
        }
        total
    }

    /// Number of clear bits in `start..end` (bits beyond the backing
    /// words count as clear).
    pub fn count_zeros(&self, start: usize, end: usize) -> usize {
        end.saturating_sub(start) - self.count_ones(start, end)
    }

    /// Iterate the clear bits in `start..end`, ascending. Words are
    /// scanned via `trailing_zeros`, so fully-set regions cost one
    /// comparison per 64 bits.
    pub fn zeros(&self, start: usize, end: usize) -> Zeros<'_> {
        let mut it = Zeros {
            words: &self.words,
            end,
            word_idx: start / 64,
            cur: 0,
        };
        if start < end {
            it.cur = !it.word_at(start / 64);
            // Mask off bits below `start`.
            if !start.is_multiple_of(64) {
                it.cur &= !0u64 << (start % 64);
            }
        } else {
            it.word_idx = end.div_ceil(64);
        }
        it
    }

    /// Iterate the set bits in `start..end`, ascending.
    pub fn ones(&self, start: usize, end: usize) -> Ones<'_> {
        let mut it = Ones {
            words: &self.words,
            end,
            word_idx: start / 64,
            cur: 0,
        };
        if start < end && it.word_idx < self.words.len() {
            it.cur = self.words[it.word_idx];
            if !start.is_multiple_of(64) {
                it.cur &= !0u64 << (start % 64);
            }
        }
        it
    }

    /// The backing words (trailing zero words trimmed only by growth).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Ascending iterator over clear bits; see [`Bitmap::zeros`].
pub struct Zeros<'a> {
    words: &'a [u64],
    end: usize,
    word_idx: usize,
    cur: u64,
}

impl Zeros<'_> {
    fn word_at(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }
}

impl Iterator for Zeros<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                let idx = self.word_idx * 64 + bit;
                if idx >= self.end {
                    return None;
                }
                self.cur &= self.cur - 1;
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx * 64 >= self.end {
                return None;
            }
            self.cur = !self.word_at(self.word_idx);
        }
    }
}

/// Ascending iterator over set bits; see [`Bitmap::ones`].
pub struct Ones<'a> {
    words: &'a [u64],
    end: usize,
    word_idx: usize,
    cur: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                let idx = self.word_idx * 64 + bit;
                if idx >= self.end {
                    return None;
                }
                self.cur &= self.cur - 1;
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() || self.word_idx * 64 >= self.end {
                return None;
            }
            self.cur = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_mul_matches_table_mul() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul_const(a, b), crate::gf256::mul(a, b), "{a}·{b}");
            }
        }
    }

    #[test]
    fn xor_into_all_small_lengths() {
        for len in 0..64usize {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
            let mut got = a.clone();
            xor_into(&mut got, &b);
            let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn xor_into_uses_common_length() {
        let mut d = vec![1u8; 20];
        xor_into(&mut d, &[1u8; 9]);
        assert_eq!(&d[..9], &[0u8; 9]);
        assert_eq!(&d[9..], &[1u8; 11]);
    }

    #[test]
    fn mul_acc_and_scale_match_field_mul() {
        let src: Vec<u8> = (0..100).map(|i| (i * 53 + 7) as u8).collect();
        for c in [0u8, 1, 2, 3, 0x1d, 0x80, 0xff] {
            let mut dst = vec![0u8; src.len()];
            mul_acc(&mut dst, &src, c);
            for (d, s) in dst.iter().zip(&src) {
                assert_eq!(*d, crate::gf256::mul(c, *s));
            }
            let mut buf = src.clone();
            scale(&mut buf, c);
            for (b, s) in buf.iter().zip(&src) {
                assert_eq!(*b, crate::gf256::mul(c, *s));
            }
        }
    }

    /// The public dispatch (AVX2 where detected) must agree with the
    /// byte-wise nibble walk on every length crossing the vector-block
    /// boundary, for all 256 multipliers.
    #[test]
    fn simd_dispatch_matches_nibble_walk() {
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 96, 100] {
            let src: Vec<u8> = (0..len).map(|i| (i * 89 + 3) as u8).collect();
            for c in 0..=255u8 {
                let t = &NIB[c as usize];
                let mut fast = vec![0x6Bu8; len];
                mul_acc(&mut fast, &src, c);
                let mut slow = vec![0x6Bu8; len];
                if c == 1 {
                    for (d, s) in slow.iter_mut().zip(&src) {
                        *d ^= s;
                    }
                } else if c != 0 {
                    mul_acc_nibble(&mut slow, &src, t);
                }
                assert_eq!(fast, slow, "mul_acc len={len} c={c}");

                let mut fast = src.clone();
                scale(&mut fast, c);
                let mut slow = src.clone();
                if c == 0 {
                    slow.fill(0);
                } else if c != 1 {
                    scale_nibble(&mut slow, t);
                }
                assert_eq!(fast, slow, "scale len={len} c={c}");
            }
        }
    }

    #[test]
    fn scratch_is_zeroed_and_recycled() {
        with_scratch(16, |b| {
            assert_eq!(b, &[0u8; 16]);
            b.fill(0xFF);
        });
        with_scratch(32, |b| assert_eq!(b, &[0u8; 32]));
        with_scratch(8, |b| assert_eq!(b, &[0u8; 8]));
    }

    #[test]
    fn bitmap_set_get_counts() {
        let mut m = Bitmap::new();
        for i in [0usize, 1, 63, 64, 65, 200] {
            m.set(i);
        }
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(200));
        assert!(!m.get(2) && !m.get(199) && !m.get(100_000));
        assert_eq!(m.count_ones(0, 201), 6);
        assert_eq!(m.count_ones(1, 64), 2);
        assert_eq!(m.count_ones(64, 66), 2);
        assert_eq!(m.count_zeros(0, 201), 201 - 6);
        // Ranges past the backing words are all zeros.
        assert_eq!(m.count_zeros(1000, 1010), 10);
        assert_eq!(m.count_ones(1000, 1010), 0);
    }

    #[test]
    fn bitmap_zeros_and_ones_iterate_ascending() {
        let mut m = Bitmap::new();
        for i in [1usize, 2, 3, 5, 64, 66] {
            m.set(i);
        }
        let zeros: Vec<usize> = m.zeros(1, 68).collect();
        let mut want = vec![4usize];
        want.extend(6..=63);
        want.push(65);
        want.push(67);
        assert_eq!(zeros, want);
        let ones: Vec<usize> = m.ones(0, 100).collect();
        assert_eq!(ones, vec![1, 2, 3, 5, 64, 66]);
        // Empty and out-of-range windows.
        assert_eq!(m.zeros(10, 10).count(), 0);
        assert_eq!(m.ones(70, 60).count(), 0);
        // Zeros extend past the backing words.
        let far: Vec<usize> = m.zeros(126, 132).collect();
        assert_eq!(far, vec![126, 127, 128, 129, 130, 131]);
    }
}
