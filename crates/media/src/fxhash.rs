//! Fast deterministic hashing for packet-id keyed maps.
//!
//! The schedule re-division dedup and the decoder's maps are on the
//! coordination and data hot paths: every control packet triggers
//! O(|sched|) hash operations. `SipHash` (the std default) costs more than the
//! rest of those loops combined, and its DoS resistance buys nothing
//! here — keys are simulator-internal packet ids, not attacker input.
//! This is the well-known multiply-rotate "Fx" construction; it is
//! deterministic across runs and platforms of equal pointer width.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (the rustc "FxHasher" construction).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` plug-in for `HashMap`/`HashSet` type parameters.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        // Unaligned tail bytes still contribute.
        assert_ne!(
            hash_of(&[0u8; 9][..]),
            hash_of(&[0, 0, 0, 0, 0, 0, 0, 0, 1u8][..])
        );
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<crate::PacketId, u32> = FxHashMap::default();
        m.insert(crate::PacketId::Data(crate::Seq(7)), 1);
        assert_eq!(m.get(&crate::PacketId::Data(crate::Seq(7))), Some(&1));
        assert_eq!(m.get(&crate::PacketId::Data(crate::Seq(8))), None);
    }
}
