//! Strided views over a shared [`PacketSeq`] — O(1) round-robin
//! division.
//!
//! The paper's `Div(pkt, H)` deals a sequence round-robin: part `i` of
//! `parts` is exactly the elements at positions `i, i+parts, i+2·parts, …`
//! — a pure arithmetic selection. A [`SeqView`] represents such a part as
//! `(base, start, stride, len)` over the refcounted base sequence, so
//! *constructing* a part is four integer stores and an `Arc` bump instead
//! of cloning every element ([`crate::parity::div`] materializes the same
//! selection; [`SeqView::part`] is pinned element-for-element against it).
//! An empty view holds no base at all.
//!
//! Views are logically a packet sequence: equality, iteration and
//! indexing all see the selected elements only. Materialize with
//! [`SeqView::to_seq`] where an owned [`PacketSeq`] is genuinely needed
//! (set algebra, codecs).

use std::fmt;
use std::sync::Arc;

use crate::packet::PacketId;
use crate::seq::PacketSeq;

/// A strided view into a shared [`PacketSeq`]: the elements at
/// `start, start+stride, …` (exactly `len` of them). An empty view has
/// no base (`None`).
#[derive(Clone)]
pub struct SeqView {
    base: Option<Arc<PacketSeq>>,
    start: u32,
    stride: u32,
    len: u32,
}

impl SeqView {
    /// The empty view. It holds no base, so making, cloning and dropping
    /// one — every idle schedule on every shard is one — touches no heap
    /// and no shared refcount.
    pub fn empty() -> SeqView {
        SeqView {
            base: None,
            start: 0,
            stride: 1,
            len: 0,
        }
    }

    /// View of the whole base sequence.
    pub fn full(base: Arc<PacketSeq>) -> SeqView {
        debug_assert!(base.len() <= u32::MAX as usize);
        let len = base.len() as u32;
        SeqView {
            base: Some(base),
            start: 0,
            stride: 1,
            len,
        }
    }

    /// Round-robin part `part` of `parts` over `base` — the elements at
    /// positions `≡ part (mod parts)`, in order. Identical to
    /// [`crate::parity::div`] for every `part < parts`; a `part ≥ parts`
    /// selects nothing, and a malformed `parts = 0` (possible in
    /// wire-decoded control fields) degrades to the empty view instead of
    /// panicking.
    pub fn part(base: Arc<PacketSeq>, parts: usize, part: usize) -> SeqView {
        debug_assert!(base.len() <= u32::MAX as usize);
        let n = base.len();
        if parts == 0 || part >= parts || part >= n {
            return SeqView::empty();
        }
        let len = (n - part).div_ceil(parts);
        SeqView {
            base: Some(base),
            start: part as u32,
            stride: parts as u32,
            len: len as u32,
        }
    }

    /// The view starting at view position `pos` — the same selection
    /// with the first `pos` elements dropped. O(1): a suffix of a
    /// strided selection is itself a strided selection over the same
    /// base, and an empty suffix is the empty view.
    pub fn suffix(&self, pos: usize) -> SeqView {
        let skip = pos.min(self.len as usize) as u32;
        if skip == self.len {
            return SeqView::empty();
        }
        SeqView {
            base: self.base.clone(),
            start: self.start + skip * self.stride,
            stride: self.stride,
            len: self.len - skip,
        }
    }

    /// Number of selected packets.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th selected packet (0-based).
    pub fn get(&self, i: usize) -> Option<&PacketId> {
        if i >= self.len as usize {
            return None;
        }
        self.base
            .as_ref()?
            .get(self.start as usize + i * self.stride as usize)
    }

    /// Iterate the selected packets in order.
    pub fn iter(&self) -> impl Iterator<Item = &PacketId> + Clone + '_ {
        self.iter_from(0)
    }

    /// Iterate the selected packets starting at view position `pos`.
    pub fn iter_from(&self, pos: usize) -> impl Iterator<Item = &PacketId> + Clone + '_ {
        let skip = pos.min(self.len as usize);
        let first = self.start as usize + skip * self.stride as usize;
        self.base
            .as_deref()
            .map_or(&[][..], PacketSeq::ids)
            .get(first..)
            .unwrap_or(&[])
            .iter()
            .step_by(self.stride.max(1) as usize)
            .take((self.len as usize) - skip)
    }

    /// Membership test over the *selected* elements.
    pub fn contains(&self, id: &PacketId) -> bool {
        self.iter().any(|p| p == id)
    }

    /// Replace this view by its selection from view position `pos` on,
    /// unioned with `incoming` ([`PacketSeq::union_in_place`]). A base
    /// this view holds alone and selects from `start` to the end is
    /// merged in place, no selected packet cloned; otherwise (shared with
    /// a control body or a sibling part) a new base is built from the
    /// selection, which keeps the old base's order flag. An empty view
    /// becomes `incoming`.
    pub fn union_from(&mut self, pos: usize, incoming: &SeqView) {
        let pos = pos.min(self.len as usize);
        let to_end = self.stride == 1
            && self
                .base
                .as_ref()
                .is_some_and(|b| b.len() == (self.start + self.len) as usize);
        if let Some(seq) = self.base.as_mut().filter(|_| to_end).and_then(Arc::get_mut) {
            seq.union_in_place(self.start as usize + pos, incoming.iter());
            debug_assert!(seq.len() <= u32::MAX as usize);
            self.len = seq.len() as u32;
            self.start = 0;
            return;
        }
        *self = match &self.base {
            Some(base) => base
                .union_subsequence(self.iter_from(pos), incoming.iter())
                .into(),
            None => incoming.clone(),
        };
    }

    /// Materialize the selected elements as an owned [`PacketSeq`]; a
    /// selection from an ordered base is ordered.
    pub fn to_seq(&self) -> PacketSeq {
        match &self.base {
            Some(base) => base.subsequence(self.iter().cloned().collect()),
            None => PacketSeq::new(),
        }
    }
}

/// Logical equality: same selected elements in the same order,
/// regardless of how each view addresses its base. Identically-addressed
/// views over one shared base short-circuit without comparing elements.
impl PartialEq for SeqView {
    fn eq(&self, other: &SeqView) -> bool {
        if self.len != other.len {
            return false;
        }
        let same_base =
            matches!((&self.base, &other.base), (Some(a), Some(b)) if Arc::ptr_eq(a, b));
        if same_base && self.start == other.start && self.stride == other.stride {
            return true;
        }
        self.iter().eq(other.iter())
    }
}

impl Eq for SeqView {}

impl From<PacketSeq> for SeqView {
    fn from(seq: PacketSeq) -> SeqView {
        SeqView::full(Arc::new(seq))
    }
}

impl From<Arc<PacketSeq>> for SeqView {
    fn from(seq: Arc<PacketSeq>) -> SeqView {
        SeqView::full(seq)
    }
}

impl fmt::Debug for SeqView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for SeqView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Seq;
    use crate::parity::div;

    fn d(s: u64) -> PacketId {
        PacketId::Data(Seq(s))
    }

    #[test]
    fn part_matches_div_for_every_arity_and_index() {
        for n in [0u64, 1, 2, 7, 12, 13] {
            let base = Arc::new(PacketSeq::data_range(n));
            for parts in 1..=6usize {
                for part in 0..parts {
                    let view = SeqView::part(base.clone(), parts, part);
                    let direct = div(&base, parts, part);
                    assert_eq!(view.to_seq(), direct, "n={n} parts={parts} part={part}");
                    assert_eq!(view.len(), direct.len());
                    for i in 0..view.len() {
                        assert_eq!(view.get(i), direct.get(i));
                    }
                    assert_eq!(view.get(view.len()), None);
                }
                // An out-of-range part selects nothing (`div` would
                // panic on these; wire-decoded fields must not).
                assert!(SeqView::part(base.clone(), parts, parts).is_empty());
                assert!(SeqView::part(base.clone(), parts, parts + 1).is_empty());
            }
        }
    }

    #[test]
    fn zero_parts_degrades_to_empty() {
        let base = Arc::new(PacketSeq::data_range(5));
        assert!(SeqView::part(base, 0, 0).is_empty());
    }

    #[test]
    fn full_view_sees_everything() {
        let base = Arc::new(PacketSeq::data_range(4));
        let v = SeqView::full(base.clone());
        assert_eq!(v.len(), 4);
        assert_eq!(v.to_seq(), *base);
        assert!(v.contains(&d(3)));
        assert!(!v.contains(&d(9)));
    }

    #[test]
    fn iter_from_skips_view_positions() {
        let base = Arc::new(PacketSeq::data_range(10));
        let v = SeqView::part(base, 3, 1); // t2, t5, t8
        let tail: Vec<_> = v.iter_from(1).cloned().collect();
        assert_eq!(tail, vec![d(5), d(8)]);
        assert_eq!(v.iter_from(3).count(), 0);
        assert_eq!(v.iter_from(99).count(), 0);
    }

    #[test]
    fn suffix_equals_iter_from_for_every_position() {
        let base = Arc::new(PacketSeq::data_range(11));
        for (parts, part) in [(1, 0), (3, 1), (4, 3)] {
            let v = SeqView::part(base.clone(), parts, part);
            for pos in 0..=v.len() + 2 {
                let s = v.suffix(pos);
                assert_eq!(s.len(), v.len().saturating_sub(pos));
                assert!(s.iter().eq(v.iter_from(pos)), "parts={parts} pos={pos}");
            }
        }
        assert!(SeqView::empty().suffix(5).is_empty());
    }

    #[test]
    fn contains_respects_the_stride() {
        let base = Arc::new(PacketSeq::data_range(10));
        let v = SeqView::part(base, 2, 0); // odd seqs t1,t3,…
        assert!(v.contains(&d(1)));
        assert!(!v.contains(&d(2)), "t2 is in the base but not the part");
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let base = Arc::new(PacketSeq::data_range(6));
        let half = SeqView::part(base.clone(), 2, 0); // t1 t3 t5
        let same = SeqView::from(PacketSeq::from_ids(vec![d(1), d(3), d(5)]));
        assert_eq!(half, same);
        assert_ne!(half, SeqView::part(base.clone(), 2, 1));
        assert_eq!(SeqView::full(base.clone()), SeqView::full(base));
        assert_eq!(SeqView::empty(), SeqView::empty());
    }
}
