//! Property tests for `PacketSeq`: every operation behaves exactly like
//! the original implementation. `reference_union` below is a
//! line-for-line copy of the seed algorithm (per-call hash set,
//! two-pointer merge by readiness key) and every randomized case checks
//! the production `union` — borrowed and in place — against it
//! bit-for-bit, on operands in readiness order and on enhanced-stream
//! parts, which are not. An ordered tail takes the binary-search merge,
//! so it is also pinned on incoming lists in any order, on incoming
//! lists that repeat tail members, and on ids whose merge keys tie; and
//! the order flag is checked sound after any sequence of operations.

use proptest::prelude::*;

use mss_media::packet::{PacketId, Seq};
use mss_media::parity::{div, esq_opts};
use mss_media::PacketSeq;

/// The seed implementation's merge key: readiness index, data before
/// parity at equal readiness, then coverage.
fn merge_key(p: &PacketId) -> (u64, usize, &[Seq]) {
    (p.max_seq().0, p.coverage_len(), p.coverage_slice())
}

/// The seed `union`: build a hash set of `self`, filter `other` through
/// it, two-pointer merge preferring `self` on key ties.
fn reference_union(a: &PacketSeq, b: &PacketSeq) -> PacketSeq {
    let mine: std::collections::HashSet<&PacketId> = a.ids().iter().collect();
    let mut merged: Vec<PacketId> = Vec::with_capacity(a.len() + b.len());
    let mut xs = a.ids().iter().peekable();
    let mut ys = b.ids().iter().filter(|p| !mine.contains(*p)).peekable();
    loop {
        match (xs.peek(), ys.peek()) {
            (Some(x), Some(y)) => {
                if merge_key(x) <= merge_key(y) {
                    merged.push((*x).clone());
                    xs.next();
                } else {
                    merged.push((*y).clone());
                    ys.next();
                }
            }
            (Some(_), None) => {
                merged.extend(xs.by_ref().cloned());
                break;
            }
            (None, Some(_)) => {
                merged.extend(ys.by_ref().cloned());
                break;
            }
            (None, None) => break,
        }
    }
    PacketSeq::from_ids(merged)
}

/// A random mix of data and (possibly multi-coverage) parity packets,
/// in readiness order like real schedules, with occasional repeats.
fn arb_schedule() -> impl Strategy<Value = PacketSeq> {
    proptest::collection::vec((1u64..40, 0usize..4, any::<bool>()), 0..30).prop_map(|specs| {
        let mut ids: Vec<PacketId> = Vec::with_capacity(specs.len());
        for (base, extra, repeat) in specs {
            let id = if extra == 0 {
                PacketId::Data(Seq(base))
            } else {
                let parts: Vec<PacketId> = (0..=extra as u64)
                    .map(|k| PacketId::Data(Seq(base + k)))
                    .collect();
                match PacketId::parity_of(&parts) {
                    Some(p) => p,
                    None => PacketId::Data(Seq(base)),
                }
            };
            if repeat {
                if let Some(last) = ids.last().cloned() {
                    ids.push(last);
                }
            }
            ids.push(id);
        }
        ids.sort_by(|x, y| merge_key(x).cmp(&merge_key(y)));
        PacketSeq::from_ids(ids)
    })
}

/// A round-robin part of an enhanced stream, as a division deals it:
/// `Esq` puts segment `d`'s parity at offset `d mod (h+1)`, ahead of the
/// segment's later data, so a part with stride `≤ h+1` is *not* in
/// readiness order.
fn arb_esq_part() -> impl Strategy<Value = PacketSeq> {
    (
        1u64..30,
        0u64..24,
        1usize..8,
        1usize..10,
        0usize..10,
        any::<bool>(),
    )
        .prop_map(|(first, len, h, parts, part, tail_parity)| {
            let data: PacketSeq = (first..first + len)
                .map(|s| PacketId::Data(Seq(s)))
                .collect();
            div(&esq_opts(&data, h, tail_parity), parts, part % parts)
        })
}

/// `ids` in an order drawn from `seed` (Fisher–Yates on a splitmix64
/// stream).
fn shuffled(mut ids: Vec<PacketId>, mut seed: u64) -> Vec<PacketId> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..ids.len()).rev() {
        ids.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    ids
}

/// Ids over data packets 1–8 whose merge keys tie in groups: `Data(s)`
/// with the single-coverage `Parity([s])`, and a segment's XOR parity
/// with its three RS rows.
fn tie_pool() -> Vec<PacketId> {
    let mut pool = Vec::new();
    for s in 1..=6u64 {
        pool.push(PacketId::Data(Seq(s)));
        pool.push(PacketId::Parity(vec![Seq(s)].into()));
        let segment: Vec<Seq> = (s..s + 3).map(Seq).collect();
        pool.push(PacketId::Parity(segment.clone().into()));
        for row in 0..3 {
            pool.push(PacketId::RsParity {
                seqs: segment.clone().into(),
                row,
            });
        }
    }
    pool
}

/// Up to 24 draws from [`tie_pool`], repeats possible, in merge-key
/// order when `sorted` (a stable sort, so tied ids keep draw order).
fn arb_ties(sorted: bool) -> impl Strategy<Value = Vec<PacketId>> {
    proptest::collection::vec(0usize..36, 0..24).prop_map(move |picks| {
        let pool = tie_pool();
        let mut ids: Vec<PacketId> = picks.into_iter().map(|i| pool[i].clone()).collect();
        if sorted {
            ids.sort_by(|x, y| merge_key(x).cmp(&merge_key(y)));
        }
        ids
    })
}

/// True when `s` really is in merge-key order.
fn really_ordered(s: &PacketSeq) -> bool {
    s.ids()
        .windows(2)
        .all(|w| merge_key(&w[0]) <= merge_key(&w[1]))
}

/// One step of a schedule's life, for the order-flag property.
#[derive(Clone, Debug)]
enum Op {
    Push(PacketId),
    Union { sent: usize, incoming: PacketSeq },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<bool>(), arb_any_schedule(), 0usize..12).prop_map(|(push, s, sent)| {
        match s.get(sent % s.len().max(1)).cloned() {
            Some(id) if push => Op::Push(id),
            _ => Op::Union { sent, incoming: s },
        }
    })
}

/// Either shape of schedule: readiness-ordered or an enhanced part.
fn arb_any_schedule() -> impl Strategy<Value = PacketSeq> {
    (any::<bool>(), arb_schedule(), arb_esq_part())
        .prop_map(|(ordered, a, b)| if ordered { a } else { b })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `union` equals the seed implementation exactly, element for
    /// element, on arbitrary schedule pairs, ordered or not.
    #[test]
    fn union_matches_seed_implementation(a in arb_any_schedule(), b in arb_any_schedule()) {
        prop_assert_eq!(a.union(&b), reference_union(&a, &b), "a={} b={}", a, b);
    }

    /// The in-place union of an owned schedule with a sent prefix equals
    /// the seed union of its unsent tail: what a multi-parent merge
    /// computes when the schedule holds its base alone.
    #[test]
    fn in_place_union_matches_seed_implementation(
        a in arb_any_schedule(),
        b in arb_any_schedule(),
        sent in 0usize..40,
    ) {
        let mut merged = a.clone();
        merged.union_in_place(sent, b.iter());
        prop_assert_eq!(&merged, &reference_union(&a.postfix_at(sent), &b), "a={} b={} sent={}", a, b, sent);
    }

    /// An ordered tail merges by binary search; whatever order the
    /// incoming ids come in — an enhanced part, or a readiness-ordered
    /// schedule shuffled — the result is the seed union's.
    #[test]
    fn ordered_tail_merges_incoming_in_any_order_like_the_seed(
        a in arb_schedule(),
        b in arb_any_schedule(),
        seed in any::<u64>(),
        sent in 0usize..40,
    ) {
        prop_assert!(a.is_ordered());
        let b = PacketSeq::from_ids(shuffled(b.ids().to_vec(), seed));
        let mut merged = a.clone();
        merged.union_in_place(sent, b.iter());
        prop_assert_eq!(&merged, &reference_union(&a.postfix_at(sent), &b), "a={} b={} sent={}", a, b, sent);
    }

    /// Incoming ids that are already in an ordered tail are dropped, and
    /// only those: the incoming list mixes a shuffled pick of the tail's
    /// own members (sent ones too) with other ids.
    #[test]
    fn ordered_tail_drops_incoming_tail_members_like_the_seed(
        a in arb_schedule(),
        other in arb_any_schedule(),
        keep in any::<u64>(),
        seed in any::<u64>(),
        sent in 0usize..40,
    ) {
        let picked = a.iter().enumerate().filter(|(i, _)| keep >> (i % 64) & 1 == 1);
        let mut ids: Vec<PacketId> = picked.map(|(_, p)| p.clone()).collect();
        ids.extend(other.iter().cloned());
        let b = PacketSeq::from_ids(shuffled(ids, seed));
        let mut merged = a.clone();
        merged.union_in_place(sent, b.iter());
        prop_assert_eq!(&merged, &reference_union(&a.postfix_at(sent), &b), "a={} b={} sent={}", a, b, sent);
    }

    /// Ids with equal merge keys but different identities (`Data(s)`
    /// and `Parity([s])`; a segment's RS rows and XOR parity): the
    /// equal-key run answers membership, ties keep the tail's packets
    /// first, on ordered and unordered tails and incoming lists.
    #[test]
    fn equal_key_ties_merge_like_the_seed(
        a_sorted in any::<bool>(),
        a in arb_ties(true),
        a_mixed in arb_ties(false),
        b_sorted in any::<bool>(),
        b in arb_ties(true),
        b_mixed in arb_ties(false),
        sent in 0usize..24,
    ) {
        let a = PacketSeq::from_ids(if a_sorted { a } else { a_mixed });
        let b = PacketSeq::from_ids(if b_sorted { b } else { b_mixed });
        prop_assert_eq!(a.is_ordered(), really_ordered(&a));
        prop_assert_eq!(a.union(&b), reference_union(&a, &b), "a={} b={}", a, b);
        let mut merged = a.clone();
        merged.union_in_place(sent, b.iter());
        prop_assert_eq!(&merged, &reference_union(&a.postfix_at(sent), &b), "a={} b={} sent={}", a, b, sent);
    }

    /// The order flag is sound whatever a schedule went through: built
    /// by `from_ids` (where it is exact), then pushed to, merged into
    /// and stripped of sent prefixes in any mix, it never says ordered
    /// of a sequence that is not.
    #[test]
    fn order_flag_stays_sound(start in arb_any_schedule(), ops in proptest::collection::vec(arb_op(), 0..8)) {
        let mut s = PacketSeq::from_ids(start.ids().to_vec());
        prop_assert_eq!(s.is_ordered(), really_ordered(&s));
        for op in ops {
            match op {
                Op::Push(id) => s.push(id),
                Op::Union { sent, incoming } => s.union_in_place(sent, incoming.iter()),
            }
            prop_assert!(!s.is_ordered() || really_ordered(&s), "flagged ordered: {}", s);
        }
        for part in [s.postfix_at(3), s.intersection(&start)] {
            prop_assert!(!part.is_ordered() || really_ordered(&part), "flagged ordered: {}", part);
        }
    }

    /// The union of distinct operands is readiness-ordered and distinct.
    #[test]
    fn union_is_readiness_ordered_and_distinct(a in arb_schedule(), b in arb_schedule()) {
        // Drop repeats first: repeats within `self` are preserved by
        // design, so distinctness is only promised for distinct inputs.
        let dedup = |s: &PacketSeq| {
            let mut seen = std::collections::HashSet::new();
            s.iter().filter(|p| seen.insert((*p).clone())).cloned().collect::<PacketSeq>()
        };
        let (a, b) = (dedup(&a), dedup(&b));
        let u = a.union(&b);
        prop_assert!(u.is_distinct(), "union not distinct: {}", u);
        for w in u.ids().windows(2) {
            prop_assert!(
                merge_key(&w[0]) <= merge_key(&w[1]),
                "out of readiness order: {} before {}",
                w[0], w[1]
            );
        }
    }

    /// As a set, union is commutative and covers exactly both operands.
    #[test]
    fn union_is_commutative_as_a_set(a in arb_schedule(), b in arb_schedule()) {
        let sort = |s: &PacketSeq| {
            let mut v = s.ids().to_vec();
            v.sort_by(|x, y| merge_key(x).cmp(&merge_key(y)));
            v.dedup();
            v
        };
        prop_assert_eq!(sort(&a.union(&b)), sort(&b.union(&a)));
        let u = a.union(&b);
        for id in a.iter().chain(b.iter()) {
            prop_assert!(u.contains(id), "{} lost from union", id);
        }
        for id in u.iter() {
            prop_assert!(a.contains(id) || b.contains(id), "{} invented by union", id);
        }
    }

    /// `index_of` and `contains` agree with a linear scan for both hits
    /// and misses, before and after pushes.
    #[test]
    fn index_agrees_with_linear_scan(s in arb_schedule(), probe in 1u64..50, push in 1u64..50) {
        let mut s = s;
        let probe_id = PacketId::Data(Seq(probe));
        let scan = s.ids().iter().position(|p| p == &probe_id);
        prop_assert_eq!(s.index_of(&probe_id), scan);
        prop_assert_eq!(s.contains(&probe_id), scan.is_some());
        let push_id = PacketId::Data(Seq(push));
        s.push(push_id.clone());
        let scan = s.ids().iter().position(|p| p == &push_id);
        prop_assert_eq!(s.index_of(&push_id), scan, "position wrong after push");
    }

    /// Intersection, prefix and postfix behave like the scan-based
    /// originals (cross-checked against direct definitions).
    #[test]
    fn intersection_and_affixes_match_definitions(a in arb_schedule(), b in arb_schedule(), at in 0usize..35) {
        let inter = a.intersection(&b);
        let expect: Vec<PacketId> =
            a.iter().filter(|p| b.ids().contains(p)).cloned().collect();
        prop_assert_eq!(inter.ids(), expect.as_slice());
        if let Some(t) = a.get(at.min(a.len().saturating_sub(1))).cloned() {
            let i = a.ids().iter().position(|p| p == &t).unwrap();
            prop_assert_eq!(a.prefix_through(&t).ids(), &a.ids()[..=i]);
            prop_assert_eq!(a.postfix_from(&t).ids(), &a.ids()[i..]);
        }
        prop_assert_eq!(a.postfix_at(at).ids(), a.ids().get(at..).unwrap_or(&[]));
    }
}
