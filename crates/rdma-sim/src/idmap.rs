//! Hash maps keyed by the dense integer ids this workspace mints:
//! work-request and timer ids, ring sequence numbers, call ids.
//!
//! Such keys come from counters inside the program, so they need no
//! protection against crafted collisions, and a map lookup per event is
//! on the simulator's hot path: SipHash was a tenth of a run. One
//! multiplication spreads consecutive ids over distinct buckets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed by a dense integer id.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fibonacci) hasher for integer keys minted by the
/// program itself. Do not use it for keys that arrive from outside.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        // 2^64 / φ, odd: the low bits (the bucket) of the product are a
        // bijection of the id's low bits, the high bits (the control
        // byte) depend on all of it.
        self.0 = (self.0.rotate_left(5) ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, id: usize) {
        self.write_u64(id as u64);
    }

    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    /// Any other key shape: fold it in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::WrId;

    #[test]
    fn dense_ids_round_trip_and_spread() {
        let mut map: IdMap<WrId, u64> = IdMap::default();
        for id in 0..10_000u64 {
            assert_eq!(map.insert(WrId(id), id * 3), None);
        }
        for id in 0..10_000u64 {
            assert_eq!(map.get(&WrId(id)), Some(&(id * 3)));
        }
        assert_eq!(map.remove(&WrId(77)), Some(231));
        assert_eq!(map.len(), 9_999);
        // Consecutive ids never share their low 10 bits (the bucket of a
        // 1024-slot table).
        let buckets: std::collections::BTreeSet<u64> = (0..1_024u64)
            .map(|id| {
                let mut h = IdHasher::default();
                h.write_u64(id);
                h.finish() & 1_023
            })
            .collect();
        assert_eq!(buckets.len(), 1_024);
    }

    #[test]
    fn byte_keys_hash_by_content() {
        let hash = |bytes: &[u8]| {
            let mut h = IdHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"twelve bytes"), hash(b"twelve bytes"));
        assert_ne!(hash(b"twelve bytes"), hash(b"twelve bytez"));
    }
}
