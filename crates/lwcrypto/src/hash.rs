//! A lightweight 256-bit hash built as a Davies–Meyer compression function
//! over SPECK128/128 in Merkle–Damgård chaining — the construction the NIST
//! lightweight-cryptography report (cited by the paper) describes for
//! building hashes from lightweight block ciphers.
//!
//! This is an original composition for the reproduction (documented as
//! such), not a published standard hash. It is collision-resistant to the
//! extent SPECK is ideal; XLF uses it for firmware fingerprints and token
//! binding inside the simulation only.

use crate::ciphers::Speck128;
use crate::BlockCipher;

/// Output size of [`LightHash`] in bytes.
pub const DIGEST_SIZE: usize = 32;

/// Streaming lightweight hash (Davies–Meyer over SPECK128/128).
///
/// # Example
///
/// ```
/// use xlf_lwcrypto::hash::LightHash;
///
/// let d1 = LightHash::digest(b"firmware image v1");
/// let d2 = LightHash::digest(b"firmware image v2");
/// assert_ne!(d1, d2);
/// assert_eq!(d1, LightHash::digest(b"firmware image v1"));
/// ```
#[derive(Debug, Clone)]
pub struct LightHash {
    /// Two chaining halves of 16 bytes each.
    state: [[u8; 16]; 2],
    /// The partial block awaiting more input: its first `buffered`
    /// bytes (always fewer than 16).
    buffer: [u8; 16],
    buffered: usize,
    total_len: u64,
}

impl Default for LightHash {
    fn default() -> Self {
        Self::new()
    }
}

impl LightHash {
    /// Creates a fresh hasher with the fixed IV.
    pub fn new() -> Self {
        LightHash {
            state: [*b"XLF light hash A", *b"XLF light hash B"],
            buffer: [0; 16],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state. Whole blocks are compressed
    /// straight from `data`; only a tail of fewer than 16 bytes is
    /// buffered, so the cost is linear in the input length.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (16 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 16 {
                return;
            }
            let block = self.buffer;
            self.compress(&block);
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            self.compress(block.try_into().expect("16-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        // Pad: 0x80, zeros up to 8 bytes short of a block boundary, then
        // the 8-byte big-endian length — one block when the 0x80 fits in
        // the first 8 bytes, two otherwise.
        let n = self.buffered;
        let mut tail = [0u8; 32];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let end = if n < 8 { 16 } else { 32 };
        tail[end - 8..end].copy_from_slice(&self.total_len.to_be_bytes());
        for chunk in tail[..end].chunks_exact(16) {
            self.compress(chunk.try_into().expect("16-byte chunk"));
        }
        let mut out = [0u8; DIGEST_SIZE];
        out[..16].copy_from_slice(&self.state[0]);
        out[16..].copy_from_slice(&self.state[1]);
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut h = LightHash::new();
        h.update(data);
        h.finalize()
    }

    /// Davies–Meyer: H_i = E_{m}(H_{i-1}) ⊕ H_{i-1}, applied to both
    /// halves with domain-separating tweaks.
    fn compress(&mut self, block: &[u8; 16]) {
        let cipher = Speck128::new(block).expect("16-byte key");
        for (i, half) in self.state.iter_mut().enumerate() {
            let mut v = *half;
            // Domain-separate the two halves so they do not stay equal.
            v[0] ^= i as u8 + 1;
            cipher.encrypt_block(&mut v).expect("16-byte block");
            for (h, e) in half.iter_mut().zip(v.iter()) {
                *h ^= e;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(LightHash::digest(b"abc"), LightHash::digest(b"abc"));
    }

    #[test]
    fn input_sensitive() {
        assert_ne!(LightHash::digest(b"abc"), LightHash::digest(b"abd"));
        assert_ne!(LightHash::digest(b""), LightHash::digest(b"\0"));
    }

    #[test]
    fn length_extension_padding_separates_prefixes() {
        // "a" and "a\0..0" (a full padded block) must hash differently.
        assert_ne!(
            LightHash::digest(b"a"),
            LightHash::digest(&[b'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"a longer message spanning multiple compression blocks!!";
        let mut h = LightHash::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), LightHash::digest(data));
    }

    #[test]
    fn no_trivial_collisions_over_small_corpus() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..2000u32 {
            let digest = LightHash::digest(&i.to_be_bytes());
            assert!(seen.insert(digest), "collision at {i}");
        }
    }

    #[test]
    fn digest_bits_look_balanced() {
        // Population count over many digests should be near half the bits.
        let mut ones = 0u64;
        let trials = 256u32;
        for i in 0..trials {
            let d = LightHash::digest(&i.to_le_bytes());
            ones += d.iter().map(|b| b.count_ones() as u64).sum::<u64>();
        }
        let total_bits = trials as u64 * DIGEST_SIZE as u64 * 8;
        let fraction = ones as f64 / total_bits as f64;
        assert!((0.45..0.55).contains(&fraction), "bias: {fraction}");
    }
}
