//! A deterministic word hasher for maps probed on every simulated event.
//!
//! `std`'s default SipHash guards against adversarial keys, which the
//! simulator's small integer keys (flow ids, ranks, message keys, twin
//! keys) never are. [`WordHasher`] folds each word in with one rotate, xor
//! and multiply (the FxHash recipe), and takes byte slices eight bytes at
//! a time, so an array key costs a few multiplies. It is unseeded, so a
//! map's layout is the same on every run; maps keyed this way are still
//! only probed, never iterated for output.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

/// [`std::collections::HashMap`]'s third parameter for [`WordHasher`].
pub type WordHash = BuildHasherDefault<WordHasher>;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap_or_default()));
        }
        let mut tail = [0u8; 8];
        let rest = words.remainder();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}
