//! A fixed-key hasher for the tables probed once per packet or per page.
//!
//! `std`'s default `RandomState` is SipHash-1-3 behind a per-map random key:
//! protection against keys an attacker crafts to collide, which costs ~20 ns
//! a probe and which a simulator hashing its own node ids, sequence numbers
//! and page numbers does not need. [`FastMap`] is a `HashMap` over one
//! multiply-xor round per machine word (the FxHash recipe). Never key it
//! with bytes from outside the program.
//!
//! The key is fixed, so iteration order is a function of the keys and the
//! insertion history alone: an order dependence that `RandomState` would
//! expose as a flaky run is silently pinned here. Iterate a `FastMap` only
//! into something order-insensitive (a count, a sum) or sort first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// One multiply-xor round per word written.
#[derive(Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::hash::{BuildHasher, BuildHasherDefault};

    use super::*;

    /// The table splits a hash into a bucket index (low bits) and a 7-bit
    /// tag (top bits); the keys this hasher sees are small and sequential.
    #[test]
    fn sequential_keys_spread_over_buckets_and_tags() {
        let build = BuildHasherDefault::<FastHasher>::default();
        let hashes: Vec<u64> = (0..4096u64)
            .map(|seq| build.hash_one((7u32, 7000u16, seq)))
            .collect();
        let buckets: HashSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(buckets.len(), 4096, "one bucket each");
        assert_eq!(tags.len(), 128, "every tag in use");
    }

    #[test]
    fn byte_strings_hash_by_content() {
        let build = BuildHasherDefault::<FastHasher>::default();
        assert_eq!(build.hash_one("0123456789"), build.hash_one("0123456789"));
        assert_ne!(build.hash_one("0123456789"), build.hash_one("0123456780"));
        let mut map: FastMap<(u32, u64), u32> = FastMap::default();
        map.insert((1, 2), 3);
        assert_eq!(map.get(&(1, 2)), Some(&3));
    }
}
