//! On-device local storage.
//!
//! The paper (§III-A): "information leakage is very likely to happen if the
//! devices store unencrypted data or data encrypted with discovered keys
//! within its local storage". [`LocalStore`] models both configurations so
//! the Table II information-leakage attacks and XLF's encryption mechanism
//! operate on the same substrate.

use std::collections::BTreeMap;
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::modes::Ctr;

/// Whether values are encrypted at rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageEncryption {
    /// Plaintext at rest — the vulnerable default the paper criticizes.
    None,
    /// Encrypted under a key derived from the given device secret.
    Encrypted {
        /// Device master secret the storage key is derived from.
        device_secret: Vec<u8>,
    },
}

/// A small key-value store with optional encryption at rest.
#[derive(Debug, Clone)]
pub struct LocalStore {
    entries: BTreeMap<String, Vec<u8>>,
    /// The at-rest cipher, derived once from the device secret (`None`
    /// stores plaintext).
    cipher: Option<Speck128>,
    counter: u64,
}

impl LocalStore {
    /// Creates a store with the given at-rest policy.
    ///
    /// # Panics
    ///
    /// If `encryption` carries an empty device secret.
    pub fn new(encryption: StorageEncryption) -> Self {
        let cipher = match encryption {
            StorageEncryption::None => None,
            StorageEncryption::Encrypted { device_secret } => {
                let key = derive_key(&device_secret, "storage-at-rest", 16).unwrap_or_else(|_| {
                    panic!("storage encryption needs a non-empty device secret")
                });
                Some(
                    Speck128::new(&key)
                        .unwrap_or_else(|_| unreachable!("derive_key returned 16 bytes")),
                )
            }
        };
        LocalStore {
            entries: BTreeMap::new(),
            cipher,
            counter: 0,
        }
    }

    /// Stores a value under `key`.
    pub fn put(&mut self, key: &str, value: &[u8]) {
        let stored = match &self.cipher {
            None => value.to_vec(),
            Some(cipher) => {
                self.counter += 1;
                let mut nonce = [0u8; 16];
                nonce[..8].copy_from_slice(&self.counter.to_be_bytes());
                let mut data = value.to_vec();
                Ctr::new(cipher, &nonce).apply(&mut data);
                let mut framed = nonce.to_vec();
                framed.extend_from_slice(&data);
                framed
            }
        };
        self.entries.insert(key.to_string(), stored);
    }

    /// Retrieves and (if applicable) decrypts the value under `key`.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let raw = self.entries.get(key)?;
        match &self.cipher {
            None => Some(raw.clone()),
            Some(cipher) => {
                if raw.len() < 16 {
                    return None;
                }
                let (nonce, data) = raw.split_at(16);
                let mut out = data.to_vec();
                Ctr::new(cipher, nonce).apply(&mut out);
                Some(out)
            }
        }
    }

    /// What a physical/filesystem attacker sees: the raw bytes at rest.
    pub fn raw_at_rest(&self, key: &str) -> Option<&[u8]> {
        self.entries.get(key).map(Vec::as_slice)
    }

    /// Scans the at-rest bytes for a plaintext marker — the information-
    /// leakage probe used by the Table II analysis.
    pub fn leaks_plaintext(&self, marker: &[u8]) -> bool {
        self.entries
            .values()
            .any(|v| v.windows(marker.len().max(1)).any(|w| w == marker))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plaintext_store_leaks_secrets() {
        let mut store = LocalStore::new(StorageEncryption::None);
        store.put("wifi-psk", b"hunter2-home-network");
        assert!(store.leaks_plaintext(b"hunter2"));
        assert_eq!(store.get("wifi-psk").unwrap(), b"hunter2-home-network");
    }

    #[test]
    fn encrypted_store_hides_secrets_but_roundtrips() {
        let mut store = LocalStore::new(StorageEncryption::Encrypted {
            device_secret: b"device master".to_vec(),
        });
        store.put("wifi-psk", b"hunter2-home-network");
        assert!(!store.leaks_plaintext(b"hunter2"));
        assert_eq!(store.get("wifi-psk").unwrap(), b"hunter2-home-network");
    }

    #[test]
    fn rewriting_a_key_uses_a_fresh_nonce() {
        let mut store = LocalStore::new(StorageEncryption::Encrypted {
            device_secret: b"device master".to_vec(),
        });
        store.put("k", b"same value");
        let first = store.raw_at_rest("k").unwrap().to_vec();
        store.put("k", b"same value");
        let second = store.raw_at_rest("k").unwrap().to_vec();
        assert_ne!(first, second, "nonce reuse across writes");
        assert_eq!(store.get("k").unwrap(), b"same value");
    }

    #[test]
    fn missing_keys_and_len() {
        let mut store = LocalStore::new(StorageEncryption::None);
        assert!(store.is_empty());
        assert_eq!(store.get("nope"), None);
        store.put("a", b"1");
        assert_eq!(store.len(), 1);
    }
}
