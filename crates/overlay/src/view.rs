//! Peer views (`VW_i` in the paper).
//!
//! Each contents peer tracks which peers it perceives to be active as a
//! set over the contents-peer ids `0..n`. Views travel inside control
//! packets and merge by union; a peer whose view is full (`|VW_i| = n`)
//! stops selecting children — this is the termination condition of both
//! DCoP and TCoP.
//!
//! # Adaptive representation
//!
//! The seed stored every view as a fixed `n`-bit bitmap, which makes a
//! single peer's state O(n) bytes and a population of `n` peers O(n²) —
//! the reason n = 10⁶ worlds did not fit in memory. A [`View`] now
//! self-selects between two representations as it grows:
//!
//! - **Sparse** — sorted member ids; O(4·|set|) bytes. Coordination
//!   views above 4096 peers are almost always here: a DCoP/TCoP view
//!   contains the activation path plus one fan-out, ~`depth · H`
//!   members regardless of `n`.
//! - **Dense** — the seed's `n`-bit bitmap, O(n/8) bytes. Where
//!   populations of at most 4096 peers start, and where a sparse view
//!   goes once its id list would outweigh the bitmap.
//!
//! Every operation is observably identical across representations —
//! same membership, same ascending iteration and complement order, same
//! `insert`/`union_with` return values — so seeded runs are bit-for-bit
//! independent of which representation a view happens to be in (pinned
//! by the equivalence property tests in `tests/properties.rs`).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::peer::PeerId;

/// A maximal run of members, half-open: `start..end`.
pub type Run = (u32, u32);

/// Sparse views promote once they exceed this many members *and* the
/// sorted-id form outweighs the bitmap (`4·len > n/8`). The floor keeps
/// tiny populations in the cheap sorted form.
fn sparse_cap(n: usize) -> usize {
    (n / 32).max(16)
}

/// Populations this small start dense and never leave: the bitmap is at
/// most 512 bytes, and small-world sessions push every view toward full
/// within a few rounds, so the sorted-insert churn and promotion copies
/// of the sparse form would all be paid for nothing on the hottest
/// simulation path. Representation choice is unobservable (see the
/// module docs), so this is purely a time/space knob.
const DENSE_START_MAX_N: usize = 4096;

#[derive(Clone)]
enum Repr {
    /// Sorted, distinct member ids.
    Sparse(Vec<u32>),
    /// Bit per id, LSB-first within each word.
    Dense(Vec<u64>),
}

/// A set of contents peers over the population `0..n`, adaptively
/// represented (see the module docs).
pub struct View {
    repr: Repr,
    len: usize,
    n: usize,
    /// One-slot cache of the adaptive wire encoding this view would
    /// frame as: packed `(count+1) << 32 | tag << 30 | frame_len`, zero
    /// when unset. Validity is keyed on the member count alone, which
    /// is sound because views only grow — any mutation that changes the
    /// set changes `count`, and representation conversions never change
    /// the chosen encoding (it is computed from the representation-
    /// independent iterators). Relaxed ordering suffices: the cache is
    /// a hint, and a racing recompute stores the same value. Views are
    /// `Arc`-shared across a fan-out and re-measured on every hop the
    /// simulator accounts, so this turns O(|view|) per message into
    /// O(|view|) per snapshot.
    wire_cache: AtomicU64,
}

impl Clone for View {
    fn clone(&self) -> View {
        View {
            repr: self.repr.clone(),
            len: self.len,
            n: self.n,
            // Same set, same encoding — the cache stays valid.
            wire_cache: AtomicU64::new(self.wire_cache.load(Ordering::Relaxed)),
        }
    }
}

impl View {
    /// The empty view over a population of `n` peers.
    pub fn empty(n: usize) -> View {
        View {
            repr: if n <= DENSE_START_MAX_N {
                Repr::Dense(vec![0u64; n.div_ceil(64)])
            } else {
                Repr::Sparse(Vec::new())
            },
            len: 0,
            n,
            wire_cache: AtomicU64::new(0),
        }
    }

    /// The full view (every peer perceived active), as a bitmap.
    pub fn full(n: usize) -> View {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - n % 64) % 64;
        }
        View {
            repr: Repr::Dense(words),
            len: n,
            n,
            wire_cache: AtomicU64::new(0),
        }
    }

    /// A view from ids that are already sorted and distinct.
    ///
    /// # Panics
    /// If `ids` is unsorted, has duplicates, or exceeds the population.
    pub fn from_sorted_ids(n: usize, ids: Vec<u32>) -> View {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted and distinct"
        );
        if let Some(&last) = ids.last() {
            assert!((last as usize) < n, "peer CP{last} out of view range {n}");
        }
        let mut v = View {
            len: ids.len(),
            repr: Repr::Sparse(ids),
            n,
            wire_cache: AtomicU64::new(0),
        };
        v.after_growth();
        v
    }

    /// Cached `(tag, frame_len)` of the adaptive wire encoding, if one
    /// was stored for the current member count. For `crate::wire` only.
    pub(crate) fn cached_wire(&self) -> Option<(u8, usize)> {
        let v = self.wire_cache.load(Ordering::Relaxed);
        ((v >> 32) == self.len as u64 + 1)
            .then_some((((v >> 30) & 0b11) as u8, (v & ((1 << 30) - 1)) as usize))
    }

    /// Store the adaptive encoding decision for the current member
    /// count. Out-of-range values (absurd populations) stay uncached.
    pub(crate) fn store_cached_wire(&self, tag: u8, frame_len: usize) {
        if frame_len < (1 << 30) && self.len < u32::MAX as usize {
            let v = ((self.len as u64 + 1) << 32) | ((tag as u64) << 30) | frame_len as u64;
            self.wire_cache.store(v, Ordering::Relaxed);
        }
    }

    /// Population size `n` this view ranges over.
    pub fn population(&self) -> usize {
        self.n
    }

    /// Mark `peer` as perceived active. Returns true if newly inserted.
    pub fn insert(&mut self, peer: PeerId) -> bool {
        let i = peer.index();
        assert!(i < self.n, "peer {peer} out of view range {}", self.n);
        self.insert_id(i as u32)
    }

    fn insert_id(&mut self, i: u32) -> bool {
        let newly = match &mut self.repr {
            Repr::Sparse(ids) => match ids.binary_search(&i) {
                Ok(_) => false,
                Err(at) => {
                    ids.insert(at, i);
                    true
                }
            },
            Repr::Dense(words) => {
                let (w, b) = (i as usize / 64, i % 64);
                let newly = words[w] & (1 << b) == 0;
                words[w] |= 1 << b;
                newly
            }
        };
        if newly {
            self.len += 1;
            self.after_growth();
        }
        newly
    }

    /// Repr policy after an insertion made the view bigger: a sparse
    /// view over the cap becomes the bitmap.
    fn after_growth(&mut self) {
        if matches!(&self.repr, Repr::Sparse(ids) if ids.len() > sparse_cap(self.n)) {
            self.make_dense();
        }
    }

    fn make_dense(&mut self) {
        if let Repr::Sparse(ids) = &self.repr {
            let mut words = vec![0u64; self.n.div_ceil(64)];
            for &i in ids {
                words[i as usize / 64] |= 1 << (i % 64);
            }
            self.repr = Repr::Dense(words);
        }
    }

    /// True if `peer` is in the view.
    pub fn contains(&self, peer: PeerId) -> bool {
        let i = peer.index();
        if i >= self.n {
            return false;
        }
        let i = i as u32;
        match &self.repr {
            Repr::Sparse(ids) => ids.binary_search(&i).is_ok(),
            Repr::Dense(words) => words[i as usize / 64] & (1 << (i % 64)) != 0,
        }
    }

    /// `|VW|`: number of peers in the view.
    pub fn count(&self) -> usize {
        self.len
    }

    /// Number of peers *not* in the view (the complement's size).
    pub fn absent_count(&self) -> usize {
        self.n - self.len
    }

    /// True when every peer is in the view (`|VW_i| = n`).
    pub fn is_full(&self) -> bool {
        self.len == self.n
    }

    /// `VW_i := VW_i ∪ other`. Returns the number of newly added peers.
    pub fn union_with(&mut self, other: &View) -> usize {
        assert_eq!(self.n, other.n, "views over different populations");
        if let (Repr::Sparse(ids), Repr::Sparse(incoming)) = (&mut self.repr, &other.repr) {
            let merged = merge_sorted_ids(ids, incoming);
            let added = merged.len() - ids.len();
            if added > 0 {
                *ids = merged;
                self.len += added;
                self.after_growth();
            }
            return added;
        }
        let before = self.len;
        match &other.repr {
            Repr::Sparse(ids) => {
                for &i in ids {
                    self.insert_id(i);
                }
            }
            Repr::Dense(ow) => {
                // A dense peer holds a constant fraction of the
                // population; the union will too.
                self.make_dense();
                let Repr::Dense(words) = &mut self.repr else {
                    unreachable!()
                };
                let mut count = 0usize;
                for (a, b) in words.iter_mut().zip(ow.iter()) {
                    *a |= b;
                    count += a.count_ones() as usize;
                }
                self.len = count;
            }
        }
        self.len - before
    }

    /// Iterate over members in ascending id order.
    pub fn iter(&self) -> ViewIter<'_> {
        ViewIter {
            inner: match &self.repr {
                Repr::Sparse(ids) => IterInner::Sparse(ids.iter()),
                Repr::Dense(words) => IterInner::Dense {
                    words,
                    word_idx: 0,
                    word: words.first().copied().unwrap_or(0),
                },
            },
        }
    }

    /// Iterate over maximal member runs (`[start, end)`), ascending,
    /// independent of representation — the wire encoders size the
    /// run-length form with this. A bitmap is walked a word at a time:
    /// O(n/64 + runs), not O(|view|).
    pub fn runs(&self) -> RunsIter<'_> {
        RunsIter {
            inner: match &self.repr {
                Repr::Sparse(ids) => RunsInner::Sparse(ids),
                Repr::Dense(words) => RunsInner::Dense { words, at: 0 },
            },
        }
    }

    /// Number of maximal member runs, `runs().count()`. A bitmap counts
    /// the members whose lower neighbour is absent, by popcount: O(n/64).
    pub fn run_count(&self) -> usize {
        match &self.repr {
            Repr::Sparse(ids) => {
                let breaks = ids.windows(2).filter(|w| w[1] != w[0] + 1).count();
                breaks + usize::from(!ids.is_empty())
            }
            Repr::Dense(words) => {
                let mut carry = 0u64;
                let mut runs = 0;
                for &w in words {
                    runs += (w & !(w << 1 | carry)).count_ones() as usize;
                    carry = w >> 63;
                }
                runs
            }
        }
    }

    /// Peers *not* in the view, ascending — the candidate pool for
    /// `Select`.
    pub fn complement(&self) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.complement_into(&mut out);
        out
    }

    /// [`View::complement`] into caller-owned scratch: `out` is cleared
    /// and then holds the complement. Selection runs on every
    /// coordination round; reusing one pool buffer per protocol plane
    /// avoids an allocation per `Select`.
    pub fn complement_into(&self, out: &mut Vec<PeerId>) {
        out.clear();
        out.reserve(self.absent_count());
        match &self.repr {
            Repr::Sparse(ids) => {
                let mut next = 0u32;
                for &i in ids {
                    out.extend((next..i).map(PeerId));
                    next = i + 1;
                }
                out.extend((next..self.n as u32).map(PeerId));
            }
            Repr::Dense(words) => {
                for (w, &word) in words.iter().enumerate() {
                    let base = (w * 64) as u32;
                    let top = (self.n as u32 - base).min(64);
                    let mut absent = !word;
                    if top < 64 {
                        absent &= (1u64 << top) - 1;
                    }
                    while absent != 0 {
                        let b = absent.trailing_zeros();
                        out.push(PeerId(base + b));
                        absent &= absent - 1;
                    }
                }
            }
        }
    }

    /// The `k`-th (0-based) peer **not** in the view, in ascending id
    /// order — `complement()[k]` without materializing the complement.
    /// O(log |set|) for sparse views, O(n/64) for dense ones; lets
    /// `Select` draw from a 10⁶-peer population without an O(n) pool
    /// walk per selection (see [`crate::select`]).
    ///
    /// # Panics
    /// If `k >= absent_count()`.
    pub fn nth_absent(&self, k: usize) -> PeerId {
        assert!(k < self.absent_count(), "complement index out of range");
        match &self.repr {
            Repr::Sparse(ids) => {
                // f(idx) = ids[idx] - idx = absent ids below ids[idx],
                // non-decreasing; the answer sits after the members
                // whose f is ≤ k.
                let mut lo = 0usize;
                let mut hi = ids.len();
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if ids[mid] as usize - mid <= k {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                PeerId((k + lo) as u32)
            }
            Repr::Dense(words) => {
                let mut remaining = k;
                for (w, &word) in words.iter().enumerate() {
                    let base = w * 64;
                    let top = (self.n - base).min(64) as u32;
                    let mut absent = !word;
                    if top < 64 {
                        absent &= (1u64 << top) - 1;
                    }
                    let zeros = absent.count_ones() as usize;
                    if remaining < zeros {
                        let mut a = absent;
                        for _ in 0..remaining {
                            a &= a - 1;
                        }
                        return PeerId(base as u32 + a.trailing_zeros());
                    }
                    remaining -= zeros;
                }
                unreachable!("k checked against absent_count")
            }
        }
    }
}

/// `a ∪ b` for sorted distinct id lists in one forward pass into a fresh
/// buffer sized for the disjoint case. The loop advances by comparison results instead of
/// branching on them: which list supplies the next id is a coin flip the
/// predictor loses, and a misprediction costs more than the few
/// arithmetic ops that replace it.
fn merge_sorted_ids(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; a.len() + b.len()];
    let (mut i, mut j, mut w) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[w] = x.min(y);
        w += 1;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    let rest = if i < a.len() { &a[i..] } else { &b[j..] };
    out[w..w + rest.len()].copy_from_slice(rest);
    out.truncate(w + rest.len());
    out
}

/// Ascending member iterator over any representation.
pub struct ViewIter<'a> {
    inner: IterInner<'a>,
}

enum IterInner<'a> {
    Sparse(std::slice::Iter<'a, u32>),
    Dense {
        words: &'a [u64],
        word_idx: usize,
        word: u64,
    },
}

impl Iterator for ViewIter<'_> {
    type Item = PeerId;

    fn next(&mut self) -> Option<PeerId> {
        match &mut self.inner {
            IterInner::Sparse(it) => it.next().map(|&i| PeerId(i)),
            IterInner::Dense {
                words,
                word_idx,
                word,
            } => loop {
                if *word != 0 {
                    let b = word.trailing_zeros();
                    *word &= *word - 1;
                    return Some(PeerId((*word_idx * 64) as u32 + b));
                }
                *word_idx += 1;
                *word = *words.get(*word_idx)?;
            },
        }
    }
}

/// Ascending maximal-run iterator over any representation.
pub struct RunsIter<'a> {
    inner: RunsInner<'a>,
}

enum RunsInner<'a> {
    Sparse(&'a [u32]),
    /// Bitmap words; `at` is the first bit not yet looked at.
    Dense {
        words: &'a [u64],
        at: usize,
    },
}

impl Iterator for RunsIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        match &mut self.inner {
            RunsInner::Sparse(ids) => {
                let (&first, rest) = ids.split_first()?;
                let mut end = first + 1;
                let mut used = 0;
                for &i in rest {
                    if i != end {
                        break;
                    }
                    end = i + 1;
                    used += 1;
                }
                *ids = &rest[used..];
                Some((first, end))
            }
            RunsInner::Dense { words, at } => {
                // The run starts at the first member at or after `at`…
                let mut w = *at / 64;
                let mut bits = words.get(w)? & (u64::MAX << (*at % 64));
                while bits == 0 {
                    w += 1;
                    bits = *words.get(w)?;
                }
                let start = w * 64 + bits.trailing_zeros() as usize;
                // …and ends at the first absent id after that (bits past
                // `n` are clear, so a run never ends beyond it).
                let mut gaps = !words[w] & (u64::MAX << (start % 64));
                while gaps == 0 {
                    w += 1;
                    match words.get(w) {
                        Some(&word) => gaps = !word,
                        None => break,
                    }
                }
                *at = if gaps == 0 {
                    words.len() * 64
                } else {
                    w * 64 + gaps.trailing_zeros() as usize
                };
                Some((start as u32, *at as u32))
            }
        }
    }
}

impl PartialEq for View {
    /// Set equality: same population, same members — representation-
    /// independent (a sparse and a dense view of the same set are equal).
    fn eq(&self, other: &View) -> bool {
        self.n == other.n && self.len == other.len && self.runs().eq(other.runs())
    }
}

impl Eq for View {}

impl Hash for View {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.len.hash(state);
        for run in self.runs() {
            run.hash(state);
        }
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "View[{}/{}]{{", self.count(), self.n)?;
        for (k, p) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", p.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = View::empty(100);
        assert_eq!(e.count(), 0);
        assert!(!e.is_full());
        let f = View::full(100);
        assert_eq!(f.count(), 100);
        assert!(f.is_full());
        assert!(f.contains(PeerId(99)));
    }

    #[test]
    fn insert_reports_novelty() {
        let mut v = View::empty(10);
        assert!(v.insert(PeerId(3)));
        assert!(!v.insert(PeerId(3)));
        assert_eq!(v.count(), 1);
        assert!(v.contains(PeerId(3)));
        assert!(!v.contains(PeerId(4)));
    }

    #[test]
    fn union_counts_new_members() {
        let mut a = View::empty(70);
        let mut b = View::empty(70);
        a.insert(PeerId(1));
        a.insert(PeerId(65));
        b.insert(PeerId(65));
        b.insert(PeerId(2));
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.count(), 3);
        // Union is idempotent.
        assert_eq!(a.union_with(&b), 0);
    }

    #[test]
    fn complement_is_exact() {
        let mut v = View::empty(5);
        v.insert(PeerId(0));
        v.insert(PeerId(3));
        assert_eq!(v.complement(), vec![PeerId(1), PeerId(2), PeerId(4)]);
        assert_eq!(View::full(5).complement(), Vec::<PeerId>::new());
    }

    #[test]
    fn iter_ascending() {
        let mut v = View::empty(130);
        for i in [128, 0, 64, 63] {
            v.insert(PeerId(i));
        }
        let got: Vec<u32> = v.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![0, 63, 64, 128]);
    }

    #[test]
    #[should_panic(expected = "out of view range")]
    fn out_of_range_insert_panics() {
        let mut v = View::empty(4);
        v.insert(PeerId(4));
    }

    #[test]
    fn word_boundary_sizes() {
        for n in [1usize, 63, 64, 65, 127, 128, 129] {
            let f = View::full(n);
            assert_eq!(f.count(), n, "n={n}");
            assert!(f.is_full());
        }
    }

    #[test]
    fn equality_and_hash_are_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        let n = 256;
        // Same set, three ways: inserted ascending, via full(), and
        // inserted evens first, then odds.
        let mut a = View::empty(n);
        for i in 0..n as u32 {
            a.insert(PeerId(i));
        }
        let b = View::full(n);
        let mut c = View::empty(n);
        for i in (0..n as u32).step_by(2) {
            c.insert(PeerId(i));
        }
        for i in (1..n as u32).step_by(2) {
            c.insert(PeerId(i));
        }
        assert_eq!(a, b);
        assert_eq!(b, c);
        let h = |v: &View| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
        assert_eq!(h(&b), h(&c));
        // And unequal sets stay unequal.
        let mut d = View::full(n);
        assert_eq!(d.count(), n);
        let e = View::empty(n);
        assert_ne!(d, e);
        d = View::empty(n);
        d.insert(PeerId(7));
        let mut f = View::empty(n);
        f.insert(PeerId(8));
        assert_ne!(d, f);
    }

    #[test]
    fn from_sorted_ids_matches_inserts() {
        let v = View::from_sorted_ids(100, vec![2, 3, 4, 50]);
        let mut w = View::empty(100);
        for i in [2, 3, 4, 50] {
            w.insert(PeerId(i));
        }
        assert_eq!(v, w);
        assert_eq!(v.count(), 4);
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn from_unsorted_ids_panics() {
        View::from_sorted_ids(10, vec![3, 1]);
    }

    #[test]
    fn nth_absent_full_and_empty_edges() {
        let v = View::empty(5);
        for k in 0..5 {
            assert_eq!(v.nth_absent(k), PeerId(k as u32));
        }
        let mut w = View::full(5);
        assert_eq!(w.absent_count(), 0);
        w = View::empty(5);
        w.insert(PeerId(0));
        w.insert(PeerId(4));
        assert_eq!(w.nth_absent(0), PeerId(1));
        assert_eq!(w.nth_absent(2), PeerId(3));
    }

    #[test]
    #[should_panic(expected = "complement index out of range")]
    fn nth_absent_out_of_range_panics() {
        View::full(4).nth_absent(0);
    }
}
