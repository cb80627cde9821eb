//! A fast, non-cryptographic hasher in the style of rustc's `FxHasher`.
//!
//! The workloads in this workspace hash short keys (interned ids, small
//! integers, attribute values) on hot paths — semi-join reductions, attribute
//! vertex deduplication, hash joins. SipHash's DoS resistance buys nothing in
//! an analytical engine operating on trusted data, so we use a multiply-xor
//! hash that is several times faster on short keys (see the Rust Performance
//! Book, "Hashing").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (same family as FNV/Fx: a large odd number with a
/// good bit-avalanche when combined with rotation).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast multiply-rotate hasher for short keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Convenience constructor mirroring `HashMap::with_capacity`.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // A good hash over sequential integers should be collision free here.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_streams_chunk_correctly() {
        let mut h1 = FxHasher::default();
        h1.write(b"hello world, this is a long-ish key");
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this is a long-ish kez");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<&str, i32> = map_with_capacity(4);
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get("a"), Some(&1));
    }
}
