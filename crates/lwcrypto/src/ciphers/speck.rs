//! SPECK128/128: 128-bit block ARX cipher from the NSA lightweight family,
//! recommended by the NIST lightweight-cryptography report the paper cites.
//!
//! Fidelity: [`SpecFidelity::Exact`](crate::SpecFidelity::Exact) — verified
//! against the SPECK128/128 vector from the designers' paper.

use crate::traits::{check_block, check_key};
use crate::{BlockCipher, CipherInfo, CryptoError, SpecFidelity, Structure};

const ROUNDS: usize = 32;

fn round(x: &mut u64, y: &mut u64, k: u64) {
    *x = x.rotate_right(8).wrapping_add(*y) ^ k;
    *y = y.rotate_left(3) ^ *x;
}

fn inv_round(x: &mut u64, y: &mut u64, k: u64) {
    *y = (*y ^ *x).rotate_right(3);
    *x = (*x ^ k).wrapping_sub(*y).rotate_left(8);
}

/// The SPECK128/128 block cipher.
///
/// Block layout: `x = block[0..8]` and `y = block[8..16]`, both big-endian,
/// matching the hex word order printed in the designers' test vectors.
///
/// # Example
///
/// ```
/// use xlf_lwcrypto::{BlockCipher, ciphers::Speck128};
///
/// # fn main() -> Result<(), xlf_lwcrypto::CryptoError> {
/// let speck = Speck128::new(&[0u8; 16])?;
/// let mut block = [0u8; 16];
/// speck.encrypt_block(&mut block)?;
/// speck.decrypt_block(&mut block)?;
/// assert_eq!(block, [0u8; 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Speck128 {
    round_keys: [u64; ROUNDS],
}

impl Speck128 {
    /// Number of independent blocks [`Speck128::encrypt_lanes`] encrypts
    /// at once.
    pub const LANES: usize = 4;

    /// Creates a SPECK128/128 instance from a 16-byte key.
    ///
    /// Key layout: `l0 = key[0..8]`, `k0 = key[8..16]`, both big-endian.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] unless the key is 16 bytes.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        check_key("SPECK128/128", &[16], key)?;
        let mut l = u64::from_be_bytes(key[0..8].try_into().expect("8 bytes"));
        let mut k = u64::from_be_bytes(key[8..16].try_into().expect("8 bytes"));
        let mut round_keys = [0u64; ROUNDS];
        for (i, rk) in round_keys.iter_mut().enumerate() {
            *rk = k;
            // The key schedule reuses the round function with the round
            // index as "key".
            round(&mut l, &mut k, i as u64);
        }
        Ok(Speck128 { round_keys })
    }

    /// Encrypts [`Self::LANES`] independent blocks in place, given as their
    /// `x` and `y` words (the big-endian halves of the block layout).
    ///
    /// The lanes share each round key and run interleaved, so their
    /// dependency chains overlap; each lane's result equals
    /// [`BlockCipher::encrypt_block`] on that block.
    pub fn encrypt_lanes(&self, x: &mut [u64; Self::LANES], y: &mut [u64; Self::LANES]) {
        for &rk in &self.round_keys {
            for (x, y) in x.iter_mut().zip(y.iter_mut()) {
                round(x, y, rk);
            }
        }
    }
}

impl BlockCipher for Speck128 {
    fn block_size(&self) -> usize {
        16
    }

    fn encrypt_block(&self, block: &mut [u8]) -> Result<(), CryptoError> {
        check_block(block, 16)?;
        let mut x = u64::from_be_bytes(block[0..8].try_into().expect("8 bytes"));
        let mut y = u64::from_be_bytes(block[8..16].try_into().expect("8 bytes"));
        for &rk in &self.round_keys {
            round(&mut x, &mut y, rk);
        }
        block[0..8].copy_from_slice(&x.to_be_bytes());
        block[8..16].copy_from_slice(&y.to_be_bytes());
        Ok(())
    }

    fn decrypt_block(&self, block: &mut [u8]) -> Result<(), CryptoError> {
        check_block(block, 16)?;
        let mut x = u64::from_be_bytes(block[0..8].try_into().expect("8 bytes"));
        let mut y = u64::from_be_bytes(block[8..16].try_into().expect("8 bytes"));
        for &rk in self.round_keys.iter().rev() {
            inv_round(&mut x, &mut y, rk);
        }
        block[0..8].copy_from_slice(&x.to_be_bytes());
        block[8..16].copy_from_slice(&y.to_be_bytes());
        Ok(())
    }

    fn info(&self) -> CipherInfo {
        CipherInfo {
            name: "SPECK",
            key_bits: &[128],
            block_bits: 128,
            structure: Structure::Arx,
            rounds: ROUNDS,
            fidelity: SpecFidelity::Exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphers::proptests;

    #[test]
    fn designers_test_vector() {
        // SPECK128/128 from the SIMON & SPECK paper:
        //   key  = 0f0e0d0c0b0a0908 0706050403020100   (l0, k0)
        //   pt   = 6c61766975716520 7469206564616d20   (x, y)
        //   ct   = a65d985179783265 7860fedf5c570d18
        let mut key = [0u8; 16];
        key[0..8].copy_from_slice(&0x0f0e_0d0c_0b0a_0908u64.to_be_bytes());
        key[8..16].copy_from_slice(&0x0706_0504_0302_0100u64.to_be_bytes());
        let speck = Speck128::new(&key).unwrap();

        let mut block = [0u8; 16];
        block[0..8].copy_from_slice(&0x6c61_7669_7571_6520u64.to_be_bytes());
        block[8..16].copy_from_slice(&0x7469_2065_6461_6d20u64.to_be_bytes());

        speck.encrypt_block(&mut block).unwrap();
        assert_eq!(
            u64::from_be_bytes(block[0..8].try_into().unwrap()),
            0xa65d_9851_7978_3265
        );
        assert_eq!(
            u64::from_be_bytes(block[8..16].try_into().unwrap()),
            0x7860_fedf_5c57_0d18
        );

        speck.decrypt_block(&mut block).unwrap();
        assert_eq!(
            u64::from_be_bytes(block[0..8].try_into().unwrap()),
            0x6c61_7669_7571_6520
        );
    }

    #[test]
    fn round_and_inverse_compose_to_identity() {
        let (mut x, mut y) = (0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210u64);
        round(&mut x, &mut y, 0x5555_5555_5555_5555);
        inv_round(&mut x, &mut y, 0x5555_5555_5555_5555);
        assert_eq!((x, y), (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210));
    }

    #[test]
    fn lanes_agree_with_single_block_encryption() {
        let speck = Speck128::new(&[0x5Au8; 16]).unwrap();
        let blocks: [[u8; 16]; Speck128::LANES] =
            std::array::from_fn(|lane| [lane as u8 * 37 + 1; 16]);
        let word = |b: &[u8; 16], half: usize| {
            u64::from_be_bytes(b[half * 8..half * 8 + 8].try_into().unwrap())
        };
        let mut x = blocks.map(|b| word(&b, 0));
        let mut y = blocks.map(|b| word(&b, 1));
        speck.encrypt_lanes(&mut x, &mut y);
        for (lane, mut block) in blocks.into_iter().enumerate() {
            speck.encrypt_block(&mut block).unwrap();
            assert_eq!((x[lane], y[lane]), (word(&block, 0), word(&block, 1)));
        }
    }

    #[test]
    fn properties() {
        let speck = Speck128::new(&[0x99u8; 16]).unwrap();
        proptests::roundtrip(&speck);
        proptests::avalanche(&speck);
        proptests::key_sensitivity(|k| Box::new(Speck128::new(&k[..16]).unwrap()));
    }
}
