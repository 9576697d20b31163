//! Fast, deterministic hashing.
//!
//! The engines hash node ids millions of times per superstep (partition
//! routing, fused-shard key indexes, broadcast lookup tables). The standard SipHash
//! is needlessly slow for trusted integer keys, and — worse for us — `HashMap`
//! with `RandomState` is seeded per-process, which would make "identical
//! bytes at every run" impossible to assert. This module provides the
//! FxHash algorithm (as used in rustc) with a *fixed* zero seed.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash: multiply-xor hashing, identical to `rustc-hash`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        for c in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; deterministic across processes.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with deterministic fast hashing.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with deterministic fast hashing.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Stand-alone hash of a `u64` key — used for partition routing so that the
/// "mod N" partitioner of the paper does not collide with adversarially
/// regular id spaces (e.g. ids that are all multiples of the worker count).
#[inline]
pub fn hash_u64(key: u64) -> u64 {
    // Fibonacci–xorshift mix; cheap and well distributed for sequential ids.
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 32;
    x
}

/// Default node-id → worker routing shared by every engine: hashed so that
/// sequential synthetic ids spread evenly (see `hash_u64`), deterministic so
/// that every run places every vertex identically.
#[inline]
pub fn partition_of(id: u64, n_workers: usize) -> usize {
    debug_assert!(n_workers > 0);
    (hash_u64(id) % n_workers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn partition_of_is_stable_and_bounded() {
        for id in 0..1000u64 {
            let w = partition_of(id, 7);
            assert!(w < 7);
            assert_eq!(w, partition_of(id, 7));
        }
    }

    #[test]
    fn hashes_are_deterministic() {
        let b = FxBuildHasher::default();
        let h1 = b.hash_one(12345u64);
        let h2 = b.hash_one(12345u64);
        assert_eq!(h1, h2);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(u64::MAX, "max");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&u64::MAX), Some(&"max"));
        assert_eq!(m.get(&2), None);
    }

    #[test]
    fn hash_u64_spreads_sequential_keys() {
        // Sequential ids must not all land in the same partition mod small N.
        let n = 16u64;
        let mut buckets = vec![0usize; n as usize];
        for id in 0..16_000u64 {
            buckets[(hash_u64(id) % n) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn hash_u64_spreads_strided_keys() {
        // ids that are multiples of the bucket count are the classic failure
        // mode of `id % n`; the mixed hash must still balance them.
        let n = 16u64;
        let mut buckets = vec![0usize; n as usize];
        for i in 0..16_000u64 {
            buckets[(hash_u64(i * n) % n) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn write_handles_unaligned_tails() {
        let b = FxBuildHasher::default();
        // Different lengths must produce different hashes with overwhelming
        // probability; identical input identical output.
        let h1 = b.hash_one([1u8, 2, 3]);
        let h2 = b.hash_one([1u8, 2, 3]);
        let h3 = b.hash_one([1u8, 2, 3, 0]);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }
}
