//! The packet-sequence algebra of paper §2.
//!
//! A [`PacketSeq`] is an ordered sequence of distinct packets — a
//! transmission schedule. The paper defines union (`pkt_1 ∪ pkt_2`),
//! intersection (`pkt_1 ∩ pkt_2`), prefix (`pkt⟨t]`) and postfix
//! (`pkt[t⟩`); all four are implemented here.
//!
//! Ordering convention: every packet has a *readiness index* — the largest
//! data sequence number it covers ([`PacketId::max_seq`]) — which is the
//! point in the stream where the packet becomes useful. `union` keeps the
//! left operand's order and inserts each new packet of the right operand
//! before the first later left packet that becomes ready after it
//! (duplicates removed), which reproduces the paper's §3.6 merge example
//! `pkt_6 = ⟨t_1, t_5, t_11, t⟨7,⟨9,11⟩,12⟩⟩`.
//!
//! Schedules are *not* ascending by readiness in general: an enhanced
//! stream puts segment `d`'s parity at offset `d mod (h+1)`, ahead of the
//! segment's later data, so a round-robin part with stride `≤ h+1`
//! regresses. The union rule needs no order of either operand, but a
//! sequence remembers whether it is in merge-key order
//! ([`PacketSeq::is_ordered`]), and an ordered one merges by binary
//! search instead of scans.
//!
//! A [`PacketSeq`] is a plain ordered `Vec` plus that flag: membership,
//! position, intersection and the affixes are scans. The protocols' hot
//! path is [`PacketSeq::union_in_place`], the union rule run on an owned
//! sequence; [`PacketSeq::union`] runs it on a copy of a borrowed
//! operand.

use std::fmt;

use crate::fxhash::FxHashSet;
use crate::packet::{PacketId, Seq};

/// An ordered sequence of distinct packets (a transmission schedule).
///
/// Equality compares the packets only, never the order flag.
#[derive(Clone, Debug)]
pub struct PacketSeq {
    items: Vec<PacketId>,
    /// True only if `items` is non-decreasing by [`merge_key`]. False is
    /// always sound; it only costs [`PacketSeq::union_in_place`] its
    /// binary search.
    ordered: bool,
}

/// Sort key used when merging schedules: readiness index first, data
/// before parity at equal readiness, then coverage for determinism.
fn merge_key(p: &PacketId) -> (u64, usize, &[Seq]) {
    (p.max_seq().0, p.coverage_len(), p.coverage_slice())
}

/// True when `ids` is non-decreasing by [`merge_key`].
fn in_merge_order(ids: &[PacketId]) -> bool {
    ids.is_sorted_by_key(merge_key)
}

impl Default for PacketSeq {
    fn default() -> Self {
        PacketSeq {
            items: Vec::new(),
            ordered: true,
        }
    }
}

impl PartialEq for PacketSeq {
    fn eq(&self, other: &PacketSeq) -> bool {
        self.items == other.items
    }
}

impl Eq for PacketSeq {}

impl PacketSeq {
    /// Empty sequence.
    pub fn new() -> Self {
        PacketSeq::default()
    }

    /// The pure data sequence `⟨t_1, …, t_l⟩`.
    pub fn data_range(l: u64) -> Self {
        PacketSeq {
            items: (1..=l).map(|s| PacketId::Data(Seq(s))).collect(),
            ordered: true,
        }
    }

    /// Build from explicit packets. Repeats are allowed — a schedule may
    /// legitimately send the same packet twice (e.g. the paper's `h = 1`
    /// full-duplication mode); the set operations treat repeats as one
    /// element. One pass of merge-key comparisons sets the order flag.
    pub fn from_ids(ids: Vec<PacketId>) -> Self {
        let ordered = in_merge_order(&ids);
        PacketSeq {
            items: ids,
            ordered,
        }
    }

    /// `items`, picked from `self` in order: any subsequence of an
    /// ordered sequence is ordered, so the flag carries over unchecked.
    pub(crate) fn subsequence(&self, items: Vec<PacketId>) -> PacketSeq {
        PacketSeq {
            items,
            ordered: self.ordered,
        }
    }

    /// True if the packets are known to be non-decreasing by merge key
    /// (readiness index, then coverage). Conservative: a sequence whose
    /// out-of-order packets were all dropped as a sent prefix, or a
    /// stride of such a sequence, may still read false.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// True when no packet occurs twice.
    pub fn is_distinct(&self) -> bool {
        let mut seen = FxHashSet::default();
        self.items.iter().all(|p| seen.insert(p))
    }

    /// Number of packets, `|pkt|`.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The packets, in schedule order.
    pub fn ids(&self) -> &[PacketId] {
        &self.items
    }

    /// Iterate in schedule order.
    pub fn iter(&self) -> impl Iterator<Item = &PacketId> {
        self.items.iter()
    }

    /// Packet at position `i` (0-based).
    pub fn get(&self, i: usize) -> Option<&PacketId> {
        self.items.get(i)
    }

    /// Position of the first occurrence of `id`, if present.
    pub fn index_of(&self, id: &PacketId) -> Option<usize> {
        self.items.iter().position(|p| p == id)
    }

    /// Membership test.
    pub fn contains(&self, id: &PacketId) -> bool {
        self.items.contains(id)
    }

    /// `pkt_1 ∪ pkt_2`: every packet of either sequence, merged by
    /// readiness index (see module docs), duplicates removed.
    pub fn union(&self, other: &PacketSeq) -> PacketSeq {
        self.union_subsequence(self.iter(), other.iter())
    }

    /// `picked ∪ incoming` for a `picked` taken from `self` in order (a
    /// suffix or a stride of it), so strided views
    /// ([`crate::view::SeqView`]) merge without materializing either
    /// operand first: `picked` is cloned into a sequence sized for both,
    /// which keeps `self`'s order flag, and
    /// [`PacketSeq::union_in_place`] merges `incoming` into it.
    pub(crate) fn union_subsequence<'a>(
        &self,
        picked: impl Iterator<Item = &'a PacketId>,
        incoming: impl Iterator<Item = &'a PacketId>,
    ) -> PacketSeq {
        let mut items = Vec::with_capacity(picked.size_hint().0 + incoming.size_hint().0);
        items.extend(picked.cloned());
        let mut seq = self.subsequence(items);
        seq.union_in_place(0, incoming);
        seq
    }

    /// Drop the first `sent` packets, then merge `incoming` into the rest
    /// (the *tail*) by the union rule, in place:
    ///
    /// 1. every tail packet stays, in order (repeats included);
    /// 2. an incoming packet already in the tail is dropped (repeats
    ///    within `incoming` are kept);
    /// 3. each remaining incoming packet goes before the first later tail
    ///    packet with a larger merge key — later than where the previous
    ///    one went — or at the end if there is none.
    ///
    /// On an ordered tail ([`PacketSeq::is_ordered`]) each incoming
    /// packet costs one binary search: the equal-key run just below the
    /// search point answers rule 2, and the point itself, or the previous
    /// packet's if that is later, is where rule 3 puts it. An unordered
    /// tail is scanned for rule 2 and walked from the previous insertion
    /// point for rule 3. No tail packet is cloned or dropped: the new
    /// packets are appended and then carried forward as one block past
    /// the tail packets that precede each of them, so a tail packet moves
    /// at most twice. Capacity grows by exactly the number of new packets
    /// when it runs short, and a sequence left holding less than half its
    /// capacity is shrunk. The result is ordered when the tail was and
    /// the new packets came in merge-key order.
    pub fn union_in_place<'a>(
        &mut self,
        sent: usize,
        incoming: impl Iterator<Item = &'a PacketId>,
    ) {
        self.items.drain(..sent.min(self.items.len()));
        let tail = &self.items[..];
        debug_assert!(
            !self.ordered || in_merge_order(tail),
            "a tail flagged ordered is out of merge-key order"
        );
        let mut in_order = self.ordered;
        // Each new packet with its insertion point, a tail index.
        let mut fresh: Vec<(usize, &PacketId)> = Vec::with_capacity(incoming.size_hint().0);
        for y in incoming {
            let key = merge_key(y);
            let after = fresh.last().map_or(0, |&(at, _)| at);
            let at = if self.ordered {
                let at = tail.partition_point(|x| merge_key(x) <= key);
                let equal = tail[..at].iter().rev();
                if equal.take_while(|x| merge_key(x) == key).any(|x| x == y) {
                    continue;
                }
                at.max(after)
            } else {
                if tail.contains(y) {
                    continue;
                }
                let passed = tail[after..].iter().take_while(|x| merge_key(x) <= key);
                after + passed.count()
            };
            if let Some(&(_, last)) = fresh.last() {
                in_order &= merge_key(last) <= key;
            }
            fresh.push((at, y));
        }
        self.ordered = in_order;
        let items = &mut self.items;
        if let Some(&(first, _)) = fresh.first() {
            let count = fresh.len();
            items.reserve_exact(count);
            items.extend(fresh.iter().map(|&(_, y)| y.clone()));
            // Tail packets before the first insertion point stay put; the
            // block of new packets moves there: `[final | block | rest]`.
            items[first..].rotate_right(count);
            let mut done = first;
            for (i, w) in fresh.windows(2).enumerate() {
                // The block's first packet is in place; the rest of the
                // block passes the tail packets up to the next one's
                // insertion point.
                done += 1;
                let block = count - 1 - i;
                let passed = w[1].0 - w[0].0;
                items[done..done + block + passed].rotate_left(block);
                done += passed;
            }
        }
        if items.capacity() > 2 * items.len() {
            items.shrink_to_fit();
        }
    }

    /// `pkt_1 ∩ pkt_2`: packets present in both, in `self`'s order.
    pub fn intersection(&self, other: &PacketSeq) -> PacketSeq {
        let common = self.items.iter().filter(|p| other.contains(p));
        self.subsequence(common.cloned().collect())
    }

    /// Prefix `pkt⟨t]`: everything up to and including `t`.
    /// Returns the whole sequence if `t` is absent.
    pub fn prefix_through(&self, t: &PacketId) -> PacketSeq {
        match self.index_of(t) {
            Some(i) => self.subsequence(self.items[..=i].to_vec()),
            None => self.clone(),
        }
    }

    /// Postfix `pkt[t⟩`: everything from `t` (inclusive) to the end.
    /// Returns an empty sequence if `t` is absent.
    pub fn postfix_from(&self, t: &PacketId) -> PacketSeq {
        match self.index_of(t) {
            Some(i) => self.subsequence(self.items[i..].to_vec()),
            None => PacketSeq::new(),
        }
    }

    /// Postfix starting at position `i` (0-based); empty if out of range.
    pub fn postfix_at(&self, i: usize) -> PacketSeq {
        self.subsequence(self.items.get(i..).unwrap_or(&[]).to_vec())
    }

    /// Append a packet; the sequence stays ordered if `id` sorts at or
    /// after the last packet.
    pub fn push(&mut self, id: PacketId) {
        self.ordered &= self
            .items
            .last()
            .is_none_or(|last| merge_key(last) <= merge_key(&id));
        self.items.push(id);
    }
}

impl fmt::Display for PacketSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, p) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<PacketId> for PacketSeq {
    fn from_iter<I: IntoIterator<Item = PacketId>>(iter: I) -> Self {
        PacketSeq::from_ids(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a PacketSeq {
    type Item = &'a PacketId;
    type IntoIter = std::slice::Iter<'a, PacketId>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: u64) -> PacketId {
        PacketId::Data(Seq(s))
    }

    fn par(seqs: &[u64]) -> PacketId {
        PacketId::parity_of(&seqs.iter().map(|&s| d(s)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn data_range_is_t1_to_tl() {
        let s = PacketSeq::data_range(8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.get(0), Some(&d(1)));
        assert_eq!(s.get(7), Some(&d(8)));
        assert_eq!(s.to_string(), "⟨t1,t2,t3,t4,t5,t6,t7,t8⟩");
    }

    #[test]
    fn union_example_from_paper_section_3_6() {
        // CP_6 merges ⟨t5, t11⟩ (from CP_1) with ⟨t1, t⟨7,⟨9,11⟩,12⟩⟩
        // (from CP_2) into pkt_6 = ⟨t1, t5, t11, t⟨7,9,11,12⟩⟩.
        let from_cp1 = PacketSeq::from_ids(vec![d(5), d(11)]);
        let nested = PacketId::parity_of(&[par(&[9, 11]), d(7), d(12)]).unwrap();
        let from_cp2 = PacketSeq::from_ids(vec![d(1), nested.clone()]);
        let merged = from_cp1.union(&from_cp2);
        assert_eq!(
            merged.ids(),
            &[d(1), d(5), d(11), nested],
            "merged = {merged}"
        );
    }

    #[test]
    fn union_removes_duplicates_and_covers_both() {
        let a = PacketSeq::from_ids(vec![d(1), d(3), d(5)]);
        let b = PacketSeq::from_ids(vec![d(2), d(3), d(6)]);
        let u = a.union(&b);
        assert_eq!(u.ids(), &[d(1), d(2), d(3), d(5), d(6)]);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = PacketSeq::from_ids(vec![d(2), d(4)]);
        assert_eq!(a.union(&PacketSeq::new()), a);
        assert_eq!(PacketSeq::new().union(&a), a);
    }

    #[test]
    fn union_is_commutative_on_sets() {
        let a = PacketSeq::from_ids(vec![d(1), d(4), par(&[2, 3])]);
        let b = PacketSeq::from_ids(vec![d(2), d(4)]);
        let ab = a.union(&b);
        let ba = b.union(&a);
        let mut sa: Vec<_> = ab.ids().to_vec();
        let mut sb: Vec<_> = ba.ids().to_vec();
        sa.sort_by(|x, y| merge_key(x).cmp(&merge_key(y)));
        sb.sort_by(|x, y| merge_key(x).cmp(&merge_key(y)));
        assert_eq!(sa, sb);
    }

    /// The original hash-set union, kept verbatim as the oracle for the
    /// in-place union rule.
    fn union_reference(a: &[PacketId], b: &[PacketId]) -> PacketSeq {
        let mine: crate::fxhash::FxHashSet<&PacketId> = a.iter().collect();
        let mut merged: Vec<PacketId> = Vec::with_capacity(a.len() + b.len());
        let mut fresh = b.iter().filter(|p| !mine.contains(*p)).peekable();
        for x in a {
            while let Some(y) = fresh.peek() {
                if merge_key(x) <= merge_key(y) {
                    break;
                }
                merged.push((*y).clone());
                fresh.next();
            }
            merged.push(x.clone());
        }
        merged.extend(fresh.cloned());
        PacketSeq::from_ids(merged)
    }

    #[test]
    fn union_matches_reference_on_randomized_operands() {
        // Deterministic xorshift so the test needs no RNG dependency.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Pool mixing data, XOR parity, and equal-key RS-style overlaps.
        let pool: Vec<PacketId> = (1..=12)
            .map(d)
            .chain([par(&[1, 2]), par(&[3, 4, 5]), par(&[6, 7]), par(&[9, 11])])
            .chain([
                PacketId::RsParity {
                    seqs: vec![Seq(2), Seq(3)].into(),
                    row: 0,
                },
                PacketId::RsParity {
                    seqs: vec![Seq(2), Seq(3)].into(),
                    row: 1,
                },
            ])
            .collect();
        for trial in 0..400 {
            let mut draw = |sorted: bool| {
                let n = (next() % 9) as usize;
                let mut v: Vec<PacketId> = (0..n)
                    .map(|_| pool[(next() as usize) % pool.len()].clone())
                    .collect();
                if sorted {
                    v.sort_by(|x, y| merge_key(x).cmp(&merge_key(y)));
                }
                v
            };
            // Odd trials draw unsorted operands, even trials operands
            // ascending by merge key.
            let sorted = trial % 2 == 0;
            let a = draw(sorted);
            let b = draw(sorted);
            let (sa, sb) = (
                PacketSeq::from_ids(a.clone()),
                PacketSeq::from_ids(b.clone()),
            );
            assert_eq!(
                sa.union(&sb),
                union_reference(&a, &b),
                "trial {trial}: {a:?} ∪ {b:?}"
            );
        }
    }

    #[test]
    fn intersection_keeps_common_in_self_order() {
        let a = PacketSeq::from_ids(vec![d(5), d(1), d(3)]);
        let b = PacketSeq::from_ids(vec![d(1), d(5), d(9)]);
        assert_eq!(a.intersection(&b).ids(), &[d(5), d(1)]);
        assert!(a.intersection(&PacketSeq::new()).is_empty());
    }

    #[test]
    fn prefix_and_postfix() {
        let s = PacketSeq::data_range(6);
        assert_eq!(s.prefix_through(&d(3)).ids(), &[d(1), d(2), d(3)]);
        assert_eq!(s.postfix_from(&d(4)).ids(), &[d(4), d(5), d(6)]);
        // pkt⟨t] ∪ pkt[t⟩ covers pkt with t shared.
        let pre = s.prefix_through(&d(3));
        let post = s.postfix_from(&d(3));
        assert_eq!(pre.union(&post), s);
    }

    #[test]
    fn prefix_of_absent_packet_is_whole_sequence() {
        let s = PacketSeq::data_range(3);
        assert_eq!(s.prefix_through(&d(9)), s);
        assert!(s.postfix_from(&d(9)).is_empty());
    }

    #[test]
    fn postfix_at_positions() {
        let s = PacketSeq::data_range(4);
        assert_eq!(s.postfix_at(0), s);
        assert_eq!(s.postfix_at(2).ids(), &[d(3), d(4)]);
        assert!(s.postfix_at(4).is_empty());
        assert!(s.postfix_at(99).is_empty());
    }

    #[test]
    fn distinctness_is_detectable() {
        assert!(PacketSeq::from_ids(vec![d(1), d(2)]).is_distinct());
        assert!(!PacketSeq::from_ids(vec![d(1), d(1)]).is_distinct());
    }

    #[test]
    fn union_of_self_dedups_repeats() {
        let s = PacketSeq::from_ids(vec![d(1), d(1), d(2)]);
        let u = s.union(&PacketSeq::new());
        // Repeats within `self` survive union (self's order is preserved),
        // but duplicates *across* operands are removed.
        let v = PacketSeq::from_ids(vec![d(1), d(2)]).union(&s);
        assert_eq!(v.ids(), &[d(1), d(2)]);
        assert_eq!(u.ids(), s.ids());
    }

    #[test]
    fn index_tracks_push_and_first_occurrence() {
        let mut s = PacketSeq::from_ids(vec![d(2), d(4), d(2)]);
        assert_eq!(s.index_of(&d(2)), Some(0), "first occurrence wins");
        assert!(!s.contains(&d(9)));
        s.push(d(9));
        s.push(d(2));
        assert_eq!(s.index_of(&d(9)), Some(3));
        assert_eq!(s.index_of(&d(2)), Some(0), "push keeps first occurrence");
        let mut t = PacketSeq::new();
        t.push(d(1));
        assert!(t.contains(&d(1)));
    }
}
