//! Property-based tests for views, view wire encodings, and selection.

use proptest::prelude::*;

use mss_overlay::select::{select_from_complement, select_from_complement_indexed};
use mss_overlay::wire;
use mss_overlay::{PeerId, View};
use mss_sim::rng::SimRng;

/// The seed's fixed n-bit bitmap, kept as the reference model the
/// adaptive representation is pinned against. Populations above 4096
/// start sparse and go dense past `n/32` members, so a model check
/// reaches both forms only with `n` above that bound.
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

/// Everything a caller can observe of `v` equals the model: count,
/// ascending members and runs, the complement, `nth_absent` at every
/// index, and membership of every id.
fn assert_matches_model(v: &View, m: &SeedBitmap) {
    let members = m.members();
    assert_eq!(v.count(), members.len(), "count");
    assert!(v.iter().map(|p| p.0).eq(members.iter().copied()), "members");
    assert!(
        v.runs().flat_map(|(s, e)| s..e).eq(members.iter().copied()),
        "runs"
    );
    let complement = m.complement();
    assert!(
        v.complement()
            .iter()
            .map(|p| p.0)
            .eq(complement.iter().copied()),
        "complement"
    );
    for (k, &c) in complement.iter().enumerate() {
        assert_eq!(v.nth_absent(k), PeerId(c), "nth_absent({k})");
    }
    for i in 0..m.n as u32 {
        let bit = m.words[i as usize / 64] & (1 << (i % 64)) != 0;
        assert_eq!(v.contains(PeerId(i)), bit, "contains({i})");
    }
}

/// LEB128, as view frames write their varints.
fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
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
/// unions that carry the view over the cap into the bitmap.
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
        // 3000 + 200 ids in one run: over the cap → bitmap.
        (
            "over the cap, one run",
            step(0, 1, 3000),
            step(3000, 1, 200),
        ),
        // 3000 + 400 isolated ids: over the cap → bitmap.
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

/// Per-id inserts drive a sparse view over its cap into the bitmap; the
/// model agrees after every phase (n = 10⁴: sparse cap 312 ids).
#[test]
fn growth_through_both_representations_matches_bitmap_model() {
    let n = 10_000;
    let (mut v, mut m) = view_and_model(n, &[]);
    let phases: [Vec<u32>; 3] = [
        (0..n as u32).step_by(97).collect(), // 104 scattered ids: sparse
        (500..900).collect(),                // a band over the cap: dense
        (0..n as u32).step_by(3).collect(),  // fragmentation
    ];
    for ids in phases {
        for i in ids {
            assert_eq!(v.insert(PeerId(i)), m.insert(i), "insert({i}) novelty");
        }
        assert_matches_model(&v, &m);
    }
}

/// Every pairing of the two forms under `union_with`, including sparse
/// unions that cross the cap (n = 10⁴: sparse cap 312 ids).
#[test]
fn union_across_representations_matches_bitmap_model() {
    let n = 10_000;
    let scattered = |from: u32, len: u32| (0..len).map(|i| from + 31 * i).collect::<Vec<_>>();
    let cases: [(&str, Vec<u32>, Vec<u32>); 5] = [
        ("sparse ∪ sparse", vec![1, 5, 9], vec![5, 6, 9_999]),
        (
            "sparse ∪ sparse, over the cap",
            scattered(0, 200),
            scattered(7, 200),
        ),
        ("sparse ∪ dense", vec![3, 4_000], (0..5_000).collect()),
        ("dense ∪ sparse", (100..4_000).collect(), scattered(2, 300)),
        (
            "dense ∪ dense",
            (0..n as u32).step_by(2).collect(),
            (0..n as u32).step_by(3).collect(),
        ),
    ];
    for (name, a_ids, b_ids) in cases {
        let (mut a, mut m) = view_and_model(n, &a_ids);
        let (b, mb) = view_and_model(n, &b_ids);
        assert_eq!(a.union_with(&b), m.union_with(&mb), "{name}: union growth");
        assert_matches_model(&a, &m);
    }
}

/// The populations view sizing is pinned at: word edges, the
/// dense-start bound on either side, and a sparse-start population.
const SIZING_POPULATIONS: [usize; 8] = [1, 63, 64, 65, 100, 4096, 4097, 10_000];

/// Maximal runs of ascending `ids`, the reference `View::runs` and
/// `View::run_count` are checked against.
fn reference_runs(ids: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &i in ids {
        match runs.last_mut() {
            Some((_, end)) if *end == i => *end = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
    runs
}

/// `v`'s size as the encoder picks it, against its three forced
/// encodings: `encoded_len` is the shortest of them, the frame
/// `encode_view` writes is that long and carries the lowest tag among
/// the shortest, and the run count is the reference's.
fn assert_sized_by_the_smallest_encoding(v: &View, what: &str) {
    let mut lens = Vec::new();
    for enc in [
        wire::encode_dense as fn(&View, &mut Vec<u8>),
        wire::encode_sparse,
        wire::encode_runs,
    ] {
        let mut out = Vec::new();
        enc(v, &mut out);
        lens.push(out.len());
    }
    let best = *lens.iter().min().unwrap();
    let tag = lens.iter().position(|&l| l == best).unwrap() as u8;
    let mut chosen = Vec::new();
    wire::encode_view(v, &mut chosen);
    assert_eq!(
        wire::encoded_len(v),
        best,
        "{what}: encoded_len of {lens:?}"
    );
    assert_eq!(chosen.len(), best, "{what}: encode_view length");
    assert_eq!(chosen[0] & 0x0f, tag, "{what}: lowest tag among {lens:?}");
    let ids: Vec<u32> = v.iter().map(|p| p.0).collect();
    let runs = reference_runs(&ids);
    assert!(v.runs().eq(runs.iter().copied()), "{what}: runs");
    assert_eq!(v.run_count(), runs.len(), "{what}: run_count");
    assert_eq!(v.run_count(), v.runs().count(), "{what}: run_count");
}

/// Every sizing population, each member set built both as a sorted-id
/// view (sparse up to the cap) and by per-id inserts (a bitmap up to
/// 4096 peers, sparse above until the cap): empty, one member at either
/// edge, runs across word edges, scattered ids, alternation, and full.
#[test]
fn views_are_sized_by_their_smallest_encoding_in_both_forms() {
    for n in SIZING_POPULATIONS {
        let top = n as u32;
        let shapes: [(&str, Vec<u32>); 9] = [
            ("empty", vec![]),
            ("first", vec![0]),
            ("last", vec![top - 1]),
            ("word edge run", (62..67).filter(|&i| i < top).collect()),
            ("scattered", (0..top).step_by(37).collect()),
            ("alternating", (0..top).step_by(2).collect()),
            ("two bands", (0..top).filter(|i| i % 200 < 70).collect()),
            ("all but one", (0..top).filter(|&i| i != top / 2).collect()),
            ("full", (0..top).collect()),
        ];
        for (shape, ids) in shapes {
            let sorted = View::from_sorted_ids(n, ids.clone());
            let mut inserted = View::empty(n);
            for &i in &ids {
                inserted.insert(PeerId(i));
            }
            assert_sized_by_the_smallest_encoding(&sorted, &format!("n={n} {shape} sorted"));
            assert_sized_by_the_smallest_encoding(&inserted, &format!("n={n} {shape} inserted"));
        }
        assert_sized_by_the_smallest_encoding(&View::full(n), &format!("n={n} View::full"));
    }
}

proptest! {
    /// The adaptive view is observably identical to the seed bitmap:
    /// same insert novelty, count, membership, ascending iteration and
    /// complement, union growth — in both representations and across
    /// the sparse → dense promotion (populations above 4096 start
    /// sparse; more than `n/32` ids promote them).
    #[test]
    fn adaptive_view_equals_seed_bitmap(
        n in 1usize..12_000,
        xs in proptest::collection::vec(0u32..12_000, 0..600),
        ys in proptest::collection::vec(0u32..12_000, 0..600),
    ) {
        let mut v = View::empty(n);
        let mut m = SeedBitmap::new(n);
        for &x in &xs {
            let x = x % n as u32;
            prop_assert_eq!(v.insert(PeerId(x)), m.insert(x), "insert novelty");
        }
        assert_matches_model(&v, &m);
        let (w, mw) = view_and_model(n, &ys);
        prop_assert_eq!(v.union_with(&w), m.union_with(&mw), "union growth");
        assert_matches_model(&v, &m);
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

    /// Random bands and scattered ids at every sizing population, as a
    /// sorted-id view and by per-id inserts: the size is the smallest
    /// forced encoding's, lowest tag on ties, and the run count is the
    /// runs walked.
    #[test]
    fn random_views_are_sized_by_their_smallest_encoding(
        at in 0usize..8,
        bands in proptest::collection::vec((any::<u32>(), 0u32..300), 0..12),
        scattered in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let n = SIZING_POPULATIONS[at];
        let mut ids: Vec<u32> = scattered.iter().map(|&i| i % n as u32).collect();
        for (start, len) in bands {
            let start = start % n as u32;
            ids.extend(start..(start + len).min(n as u32));
        }
        ids.sort_unstable();
        ids.dedup();
        let mut inserted = View::empty(n);
        for &i in &ids {
            inserted.insert(PeerId(i));
        }
        assert_sized_by_the_smallest_encoding(&inserted, &format!("n={n} inserted"));
        assert_sized_by_the_smallest_encoding(&View::from_sorted_ids(n, ids), &format!("n={n} sorted"));
    }

    /// Truncating or corrupting any view frame errors, never panics —
    /// nor does a valid header over an arbitrary body, whose varint
    /// fields take small, huge and near-`u64::MAX` values.
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
        let mut header = Vec::new();
        wire::encode_sparse(&View::empty(n), &mut header);
        header.pop(); // the zero count: the body starts here
        let near = 2 * n as u64;
        for _ in 0..64 {
            let mut frame = header.clone();
            frame[0] = (wire::WIRE_VERSION << 4) | rng.gen_below(3) as u8;
            for _ in 0..1 + rng.gen_below(8) {
                let field = match rng.gen_below(3) {
                    0 => rng.gen_below(near),
                    1 => u64::MAX - rng.gen_below(near),
                    _ => rng.next_u64() >> rng.gen_below(64),
                };
                put_varint(&mut frame, field);
            }
            let _ = wire::decode_view(&frame, n);
        }
    }

    /// The indexed draw matches the materializing draw pick-for-pick on
    /// arbitrary views, sparse and dense, and leaves the RNG stream in
    /// the same state.
    #[test]
    fn indexed_selection_matches_materialized(
        n in 1usize..12_000,
        xs in proptest::collection::vec(0u32..12_000, 0..600),
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
