//! Property-based tests for views, view wire encodings, and selection.

use proptest::prelude::*;

use mss_overlay::select::{select_from_complement, select_from_complement_indexed};
use mss_overlay::wire;
use mss_overlay::{PeerId, View};
use mss_sim::rng::SimRng;

/// The seed's fixed n-bit bitmap, kept as the reference model the
/// adaptive representation is pinned against.
#[derive(Clone)]
struct SeedBitmap {
    words: Vec<u64>,
    n: usize,
}

impl SeedBitmap {
    fn new(n: usize) -> SeedBitmap {
        SeedBitmap {
            words: vec![0; n.div_ceil(64)],
            n,
        }
    }
    fn insert(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }
    fn union_with(&mut self, other: &SeedBitmap) -> usize {
        let before = self.count();
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self.count() - before
    }
    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
    fn members(&self) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|&i| self.words[i as usize / 64] & (1 << (i % 64)) != 0)
            .collect()
    }
    fn complement(&self) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|&i| self.words[i as usize / 64] & (1 << (i % 64)) == 0)
            .collect()
    }
}

fn view_and_model(n: usize, ids: &[u32]) -> (View, SeedBitmap) {
    let mut v = View::empty(n);
    let mut m = SeedBitmap::new(n);
    for &i in ids {
        let i = i % n as u32;
        v.insert(PeerId(i));
        m.insert(i);
    }
    (v, m)
}

/// `a ∪ b` through one `union_with` call against inserting `b`'s
/// members one at a time, on everything a caller can observe. Both
/// views are built by per-id insertion, so above the dense-start
/// population they are sparse until they outgrow the sparse cap.
fn assert_union_matches_inserts(n: usize, a_ids: &[u32], b_ids: &[u32]) {
    let build = |ids: &[u32]| {
        let mut v = View::empty(n);
        for &i in ids {
            v.insert(PeerId(i));
        }
        v
    };
    let (a, b) = (build(a_ids), build(b_ids));
    let mut merged = a.clone();
    let added = merged.union_with(&b);
    let mut reference = a.clone();
    let inserted = b.iter().filter(|&p| reference.insert(p)).count();

    assert_eq!(added, inserted, "return value");
    assert_eq!(merged.count(), reference.count(), "count");
    assert_eq!(merged, reference, "set equality");
    assert!(merged.iter().eq(reference.iter()), "members");
    assert!(merged.runs().eq(reference.runs()), "runs");
    assert_eq!(
        wire::encoded_len(&merged),
        wire::encoded_len(&reference),
        "wire size"
    );
    let absent = merged.absent_count();
    assert_eq!(absent, reference.absent_count());
    for k in (0..absent).step_by(997).chain(absent.checked_sub(1)) {
        assert_eq!(
            merged.nth_absent(k),
            reference.nth_absent(k),
            "nth_absent({k})"
        );
    }
    assert_eq!(merged.union_with(&b), 0, "idempotent");
    assert_eq!(merged, reference);
}

/// Sparse ∪ sparse at n = 10⁵ (sparse cap 3125 ids), including single
/// unions that carry the view over the cap into each promoted form.
#[test]
fn sparse_union_equals_per_id_inserts() {
    let n = 100_000;
    let step =
        |from: u32, by: u32, len: u32| -> Vec<u32> { (0..len).map(|i| from + i * by).collect() };
    let cases: [(&str, Vec<u32>, Vec<u32>); 9] = [
        ("full overlap", step(0, 7, 2000), step(0, 21, 600)),
        ("disjoint, interleaved", step(0, 7, 2000), step(3, 7, 1000)),
        ("partial overlap", step(0, 5, 2000), step(0, 3, 1000)),
        ("incoming all above", step(0, 2, 500), step(50_000, 9, 500)),
        ("incoming all below", step(50_000, 9, 500), step(0, 2, 500)),
        ("into the empty view", vec![], step(10, 11, 300)),
        ("of the empty view", step(10, 11, 300), vec![]),
        // 3000 + 200 ids in one run: over the cap, contiguous → runs.
        (
            "over the cap, one run",
            step(0, 1, 3000),
            step(3000, 1, 200),
        ),
        // 3000 + 400 isolated ids: over the cap, fragmented → bitmap.
        (
            "over the cap, fragmented",
            step(0, 4, 3000),
            step(2, 4, 400),
        ),
    ];
    for (name, a, b) in &cases {
        println!("case: {name}");
        assert_union_matches_inserts(n, a, b);
    }
}

proptest! {
    /// The adaptive view is observably identical to the seed bitmap:
    /// same insert novelty, count, membership, ascending iteration and
    /// complement, union growth — across representation promotions
    /// (large id ranges force sparse → runs/dense transitions).
    #[test]
    fn adaptive_view_equals_seed_bitmap(
        n in 1usize..3000,
        xs in proptest::collection::vec(0u32..3000, 0..300),
        ys in proptest::collection::vec(0u32..3000, 0..300),
    ) {
        let mut v = View::empty(n);
        let mut m = SeedBitmap::new(n);
        for &x in &xs {
            let x = x % n as u32;
            prop_assert_eq!(v.insert(PeerId(x)), m.insert(x), "insert novelty");
        }
        prop_assert_eq!(v.count(), m.count());
        prop_assert_eq!(v.iter().map(|p| p.0).collect::<Vec<_>>(), m.members());
        prop_assert_eq!(
            v.complement().iter().map(|p| p.0).collect::<Vec<_>>(),
            m.complement()
        );
        let (w, mw) = view_and_model(n, &ys);
        let mut vu = v.clone();
        let mut mu = m.clone();
        prop_assert_eq!(vu.union_with(&w), mu.union_with(&mw), "union growth");
        prop_assert_eq!(vu.iter().map(|p| p.0).collect::<Vec<_>>(), mu.members());
        // nth_absent agrees with the materialized complement.
        for (k, &c) in mu.complement().iter().enumerate() {
            prop_assert_eq!(vu.nth_absent(k).0, c);
        }
    }

    /// The merged sparse union is the per-id insert result for random
    /// id sets at populations above the dense-start bound, where views
    /// begin sparse (the bitmap-model property above never leaves the
    /// dense form).
    #[test]
    fn sparse_union_matches_inserts(
        n in 4097usize..60_000,
        xs in proptest::collection::vec(any::<u32>(), 0..400),
        ys in proptest::collection::vec(any::<u32>(), 0..400),
    ) {
        let fold = |zs: &[u32]| zs.iter().map(|&z| z % n as u32).collect::<Vec<_>>();
        assert_union_matches_inserts(n, &fold(&xs), &fold(&ys));
    }

    /// Every wire encoding of a view round-trips to the same set, the
    /// smallest form is what `encode_view` emits, and `encoded_len` is
    /// exact.
    #[test]
    fn view_wire_encodings_are_equivalent(
        n in 1usize..2000,
        xs in proptest::collection::vec(0u32..2000, 0..200),
    ) {
        let (v, _) = view_and_model(n, &xs);
        let mut frames = Vec::new();
        for enc in [
            wire::encode_dense as fn(&View, &mut Vec<u8>),
            wire::encode_sparse,
            wire::encode_runs,
            wire::encode_view,
        ] {
            let mut out = Vec::new();
            enc(&v, &mut out);
            frames.push(out);
        }
        let mut decoded = Vec::new();
        for f in &frames {
            let (got, used) = wire::decode_view(f, n).expect("well-formed");
            prop_assert_eq!(used, f.len(), "self-delimiting");
            decoded.push(got);
        }
        for d in &decoded {
            prop_assert_eq!(d, &v, "cross-encoding equivalence");
        }
        let chosen = &frames[3];
        prop_assert_eq!(chosen.len(), wire::encoded_len(&v), "encoded_len exact");
        prop_assert!(frames[..3].iter().all(|f| chosen.len() <= f.len()), "minimality");
    }

    /// Truncating or corrupting any view frame errors, never panics.
    #[test]
    fn view_frames_reject_damage_gracefully(
        n in 1usize..500,
        xs in proptest::collection::vec(0u32..500, 0..80),
        seed in any::<u64>(),
    ) {
        let (v, _) = view_and_model(n, &xs);
        let mut out = Vec::new();
        wire::encode_view(&v, &mut out);
        for cut in 0..out.len() {
            let _ = wire::decode_view(&out[..cut], n);
        }
        let mut rng = SimRng::new(seed);
        for _ in 0..8 {
            let mut bad = out.clone();
            let at = rng.gen_index(bad.len());
            bad[at] ^= (1 + rng.gen_below(255)) as u8;
            let _ = wire::decode_view(&bad, n);
        }
    }

    /// The indexed draw matches the materializing draw pick-for-pick on
    /// arbitrary views, and leaves the RNG stream in the same state.
    #[test]
    fn indexed_selection_matches_materialized(
        n in 1usize..400,
        xs in proptest::collection::vec(0u32..400, 0..200),
        m in 0usize..32,
        seed in any::<u64>(),
    ) {
        let (v, _) = view_and_model(n, &xs);
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let reference = a.sample(&v.complement(), m);
        let indexed = select_from_complement_indexed(&v, m, &mut b);
        prop_assert_eq!(indexed, reference);
        prop_assert_eq!(a.gen_index(10_000), b.gen_index(10_000), "stream alignment");
    }

    /// View union is monotone, idempotent, and commutative in cardinality.
    #[test]
    fn view_union_laws(
        n in 1usize..200,
        xs in proptest::collection::vec(0u32..200, 0..64),
        ys in proptest::collection::vec(0u32..200, 0..64),
    ) {
        let mk = |zs: &[u32]| {
            let mut v = View::empty(n);
            for &z in zs {
                v.insert(PeerId(z % n as u32));
            }
            v
        };
        let a = mk(&xs);
        let b = mk(&ys);
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!(ab.count() >= a.count().max(b.count()));
        prop_assert!(ab.count() <= a.count() + b.count());
        let before = ab.count();
        prop_assert_eq!(ab.union_with(&b), 0, "idempotent");
        prop_assert_eq!(ab.count(), before);
        for p in a.iter() {
            prop_assert!(ab.contains(p));
        }
    }

    /// Complement and membership are exact inverses.
    #[test]
    fn complement_partitions(n in 1usize..150, xs in proptest::collection::vec(0u32..150, 0..80)) {
        let mut v = View::empty(n);
        for &x in &xs {
            v.insert(PeerId(x % n as u32));
        }
        let c = v.complement();
        prop_assert_eq!(c.len() + v.count(), n);
        for p in &c {
            prop_assert!(!v.contains(*p));
        }
    }

    /// Selection never returns in-view peers, never duplicates, and is
    /// exhaustive when asked for more than the pool.
    #[test]
    fn selection_respects_the_pool(
        n in 1usize..120,
        member_bits in proptest::collection::vec(any::<bool>(), 120),
        m in 0usize..150,
        seed in any::<u64>(),
    ) {
        let mut v = View::empty(n);
        for (i, &bit) in member_bits.iter().enumerate().take(n) {
            if bit {
                v.insert(PeerId(i as u32));
            }
        }
        let pool = v.complement().len();
        let mut rng = SimRng::new(seed);
        let picked = select_from_complement(&v, m, &mut rng);
        prop_assert_eq!(picked.len(), m.min(pool));
        let mut sorted: Vec<_> = picked.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picked.len(), "duplicates");
        for p in &picked {
            prop_assert!(!v.contains(*p), "selected an in-view peer");
        }
    }

    /// Claiming selected peers into the view drains the pool in at most
    /// ceil(pool/m) rounds — the termination argument for persistent
    /// probing.
    #[test]
    fn repeated_selection_terminates(n in 2usize..100, m in 1usize..10, seed in any::<u64>()) {
        let mut v = View::empty(n);
        v.insert(PeerId(0));
        let mut rng = SimRng::new(seed);
        let pool = v.complement().len();
        let mut rounds = 0;
        loop {
            let picked = select_from_complement(&v, m, &mut rng);
            if picked.is_empty() {
                break;
            }
            for p in picked {
                v.insert(p);
            }
            rounds += 1;
            prop_assert!(rounds <= pool, "selection failed to make progress");
        }
        prop_assert!(v.is_full());
        prop_assert!(rounds <= pool.div_ceil(m));
    }
}
