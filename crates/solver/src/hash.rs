//! A fixed, fast hasher for the solver's internal maps.
//!
//! The term interner, the variable-fingerprint index, [`Model`] values, the
//! search state's domains, the [`Solver`] result cache and the
//! [`SharedCache`] shards and core index hash keys the solver builds itself:
//! term nodes, term and variable ids, and structural fingerprints of terms
//! that symbolic execution of in-repo programs produced. No key comes from
//! outside the program, so SipHash's resistance to chosen-key flooding buys
//! nothing there, and it cost about a fifth of a discovery pass. This is a
//! one-word multiplicative hash instead. Maps whose keys arrive from the
//! network or from disk (fleetd, replay, sweep) keep the default hasher.
//!
//! [`Model`]: crate::model::Model
//! [`Solver`]: crate::solver::Solver
//! [`SharedCache`]: crate::cache::SharedCache

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Rotate-xor-multiply over 64-bit words.
#[derive(Default)]
pub(crate) struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the table indexes
    /// buckets by the low bits, so rotate the top ones down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}
