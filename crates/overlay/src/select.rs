//! Child-selection functions — the paper's `Select` and `Aselect`.
//!
//! `Select(CP, CP_i, m)` draws up to `m` distinct contents peers uniformly
//! from `CP − {CP_k | CP_k ∈ VW_i}` — peers the selector cannot rule out
//! as dormant. DCoP uses it directly (redundant selection: two parents
//! may pick the same child). TCoP's `Aselect` additionally excludes peers
//! the selector already knows to be claimed — same pool computation,
//! different view maintenance — so both reduce to
//! [`select_from_complement`].

use mss_sim::rng::SimRng;

use crate::peer::PeerId;
use crate::view::View;

/// Complement size above which [`select_from_complement_with`] switches
/// from materializing the pool (O(n) time and scratch) to the indexed
/// draw (O(m) displaced positions + O(m log |view|) lookups). Both paths consume
/// the identical RNG sequence and return identical picks, so the
/// threshold is purely a performance knob — it cannot perturb seeded
/// runs. Kept well above every paper-eval population so the small-n
/// figures keep exercising the original code path.
const INDEXED_SELECT_THRESHOLD: usize = 4096;

/// Uniformly draw up to `m` distinct peers not present in `view`.
///
/// Returns fewer than `m` (possibly zero) when the complement is small —
/// the paper's `|Select(...)| ≤ m`.
pub fn select_from_complement(view: &View, m: usize, rng: &mut SimRng) -> Vec<PeerId> {
    let mut pool = Vec::new();
    select_from_complement_with(view, m, rng, &mut pool)
}

/// [`select_from_complement`] with caller-owned pool scratch: the
/// complement is materialized into `pool` (cleared first) and the draw
/// runs in place, so a coordination plane reusing one buffer performs no
/// per-selection allocation beyond the (small) result. Draws the exact
/// same RNG sequence as [`select_from_complement`] — the partial
/// Fisher–Yates consumes one index per picked element either way — so
/// the two entry points are interchangeable without perturbing seeded
/// runs.
pub fn select_from_complement_with(
    view: &View,
    m: usize,
    rng: &mut SimRng,
    pool: &mut Vec<PeerId>,
) -> Vec<PeerId> {
    if view.absent_count() > INDEXED_SELECT_THRESHOLD {
        // Population-scale worlds: materializing a ~n-element pool per
        // selection is O(n) work for an O(fanout) draw — at n = 10⁶
        // that cost (not memory) is what made large worlds infeasible.
        pool.clear();
        return select_from_complement_indexed(view, m, rng);
    }
    view.complement_into(pool);
    let k = m.min(pool.len());
    let len = pool.len();
    for i in 0..k {
        let j = i + rng.gen_index(len - i);
        pool.swap(i, j);
    }
    pool[..k].to_vec()
}

/// [`select_from_complement`] without materializing the complement:
/// runs the exact same partial Fisher–Yates over the *virtual* array
/// `complement()[0..len]`, tracking only the O(m) displaced positions
/// in a small list and resolving untouched positions with
/// [`View::nth_absent`]. Consumes the identical RNG sequence (one
/// `gen_index(len - i)` per pick) and returns the identical picks as
/// the materializing variants, for any view.
pub fn select_from_complement_indexed(view: &View, m: usize, rng: &mut SimRng) -> Vec<PeerId> {
    let len = view.absent_count();
    let k = m.min(len);
    // (position, occupant) for the positions a swap has displaced; all
    // other positions still hold their original complement element. At
    // most `k` entries (one per pick), so a linear scan beats hashing.
    let mut moved: Vec<(usize, PeerId)> = Vec::with_capacity(k);
    let at = |moved: &[(usize, PeerId)], x: usize| {
        moved
            .iter()
            .find(|(pos, _)| *pos == x)
            .map_or_else(|| view.nth_absent(x), |(_, p)| *p)
    };
    let mut picked = Vec::with_capacity(k);
    for i in 0..k {
        let j = i + rng.gen_index(len - i);
        let val_j = at(&moved, j);
        // swap(i, j): position i is never read again (future reads are
        // at indices > i), so only j's new occupant needs recording.
        let val_i = at(&moved, i);
        match moved.iter_mut().find(|(pos, _)| *pos == j) {
            Some(slot) => slot.1 = val_i,
            None => moved.push((j, val_i)),
        }
        picked.push(val_j);
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_with(n: usize, members: &[u32]) -> View {
        let mut v = View::empty(n);
        for &m in members {
            v.insert(PeerId(m));
        }
        v
    }

    #[test]
    fn select_excludes_view_members() {
        let v = view_with(10, &[0, 1, 2, 3, 4]);
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            let picked = select_from_complement(&v, 3, &mut rng);
            assert_eq!(picked.len(), 3);
            for p in &picked {
                assert!(!v.contains(*p), "selected in-view peer {p}");
            }
        }
    }

    #[test]
    fn select_returns_at_most_pool_size() {
        let v = view_with(10, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut rng = SimRng::new(2);
        let picked = select_from_complement(&v, 5, &mut rng);
        assert_eq!(picked.len(), 2, "only CP9, CP10 remain");
    }

    #[test]
    fn select_from_full_view_is_empty() {
        let v = View::full(6);
        let mut rng = SimRng::new(3);
        assert!(select_from_complement(&v, 4, &mut rng).is_empty());
    }

    #[test]
    fn scratch_pool_variant_draws_identically() {
        // The pooled entry point must consume the same RNG stream and
        // return the same picks as `rng.sample(&view.complement(), m)`,
        // or seeded sessions would diverge when a plane adopts it.
        let v = view_with(20, &[0, 3, 7, 11]);
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let mut pool = Vec::new();
        for m in [0, 1, 3, 16, 30] {
            let reference = a.sample(&v.complement(), m);
            let pooled = select_from_complement_with(&v, m, &mut b, &mut pool);
            assert_eq!(pooled, reference, "m={m}");
        }
        // Streams stay aligned after interleaved use.
        assert_eq!(a.gen_index(1000), b.gen_index(1000));
    }

    #[test]
    fn indexed_variant_draws_identically() {
        // The indexed draw must be indistinguishable from the
        // materializing one: same RNG consumption, same picks — for
        // sparse, runs-shaped, and fragmented views alike.
        let shapes = [
            view_with(20, &[0, 3, 7, 11]),
            view_with(20, &[]),
            view_with(300, &(0..150).collect::<Vec<_>>()),
            view_with(300, &(0..300).step_by(2).collect::<Vec<_>>()),
            view_with(257, &(0..257).step_by(97).collect::<Vec<_>>()),
        ];
        for (s, v) in shapes.iter().enumerate() {
            let mut a = SimRng::new(9000 + s as u64);
            let mut b = SimRng::new(9000 + s as u64);
            let mut pool = Vec::new();
            for m in [0, 1, 3, 8, 1000] {
                let reference = select_from_complement_with(v, m, &mut a, &mut pool);
                let indexed = select_from_complement_indexed(v, m, &mut b);
                assert_eq!(indexed, reference, "shape {s}, m={m}");
            }
            assert_eq!(a.gen_index(1000), b.gen_index(1000), "stream alignment");
        }
    }

    #[test]
    fn large_complement_dispatches_without_materializing() {
        // Above the threshold the pooled entry point must leave the
        // scratch empty (nothing materialized) and still match the
        // indexed draw.
        let v = view_with(10_000, &[5, 9_000]);
        let mut a = SimRng::new(77);
        let mut b = SimRng::new(77);
        let mut pool = vec![PeerId(1); 3];
        let picked = select_from_complement_with(&v, 8, &mut a, &mut pool);
        assert!(pool.is_empty(), "pool must not be materialized at scale");
        assert_eq!(picked, select_from_complement_indexed(&v, 8, &mut b));
        assert_eq!(picked.len(), 8);
        assert!(picked.iter().all(|p| !v.contains(*p)));
    }

    #[test]
    fn select_is_distinct() {
        let v = view_with(50, &[]);
        let mut rng = SimRng::new(4);
        let picked = select_from_complement(&v, 20, &mut rng);
        let mut s = picked.clone();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), picked.len());
    }
}
