//! Property-based tests over the device-layer substrates: firmware codec
//! and policy invariants, storage confidentiality, credential hygiene.

use proptest::prelude::*;
use xlf_device::firmware::{FirmwareImage, FirmwareStore, UpdatePolicy, Version};
use xlf_device::{CredentialStore, LocalStore, LoginOutcome, StorageEncryption};

fn version() -> impl Strategy<Value = Version> {
    (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(a, b, c)| Version(a, b, c))
}

fn vendor() -> impl Strategy<Value = String> {
    "[a-z]{1,12}"
}

proptest! {
    /// Firmware serialization roundtrips any image (signed or not).
    #[test]
    fn firmware_codec_roundtrips(v in version(),
                                 vendor in vendor(),
                                 payload in prop::collection::vec(any::<u8>(), 0..512),
                                 signed in any::<bool>(),
                                 secret in prop::collection::vec(any::<u8>(), 1..32)) {
        let image = if signed {
            FirmwareImage::signed(v, &vendor, payload, &secret)
        } else {
            FirmwareImage::unsigned(v, &vendor, payload)
        };
        let parsed = FirmwareImage::from_bytes(&image.to_bytes()).unwrap();
        prop_assert_eq!(parsed, image);
    }

    /// `from_bytes` over *arbitrary* bytes — the wire-facing parser —
    /// never panics: every input either parses or returns a structured
    /// error. (Regression: the length-prefix reader computed
    /// `pos + n` unchecked, so a crafted prefix near `usize::MAX`
    /// overflowed and panicked in debug builds.)
    #[test]
    fn from_bytes_never_panics_on_arbitrary_input(
        data in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = FirmwareImage::from_bytes(&data);
    }

    /// Any bytes that *do* parse re-serialize to the exact same bytes —
    /// the codec has one canonical encoding per image, so a parsed
    /// update can be re-shipped (or hashed) without drift.
    #[test]
    fn parsed_bytes_reserialize_canonically(
        data in prop::collection::vec(any::<u8>(), 0..600)) {
        if let Ok(image) = FirmwareImage::from_bytes(&data) {
            let bytes = image.to_bytes();
            let reparsed = FirmwareImage::from_bytes(&bytes).unwrap();
            prop_assert_eq!(reparsed.to_bytes(), bytes);
        }
    }

    /// Any payload tampering breaks verification; valid images verify.
    #[test]
    fn firmware_verification_binds_payload(v in version(),
                                           payload in prop::collection::vec(any::<u8>(), 1..256),
                                           bit in any::<u16>(),
                                           secret in prop::collection::vec(any::<u8>(), 1..32)) {
        let image = FirmwareImage::signed(v, "acme", payload.clone(), &secret);
        prop_assert!(image.verify(&secret).is_ok());
        let mut tampered = image.clone();
        let b = bit as usize % (payload.len() * 8);
        tampered.payload[b / 8] ^= 1 << (b % 8);
        prop_assert!(tampered.verify(&secret).is_err());
    }

    /// A strict store's version only ever moves forward, whatever the
    /// sequence of offered updates.
    #[test]
    fn strict_store_is_monotone(updates in prop::collection::vec(
        (version(), any::<bool>()), 1..16)) {
        let secret = b"vendor secret";
        let factory = FirmwareImage::signed(Version(1, 0, 0), "acme", b"v1".to_vec(), secret);
        let mut store = FirmwareStore::new(factory, UpdatePolicy::strict(), &secret[..]);
        let mut last = Version(1, 0, 0);
        for (v, sign) in updates {
            let image = if sign {
                FirmwareImage::signed(v, "acme", b"u".to_vec(), secret)
            } else {
                FirmwareImage::unsigned(v, "acme", b"u".to_vec())
            };
            let _ = store.apply(image);
            let current = store.installed().version;
            prop_assert!(current >= last, "version moved backwards");
            last = current;
        }
    }

    /// Encrypted storage roundtrips any value and never exposes plaintext
    /// markers of length ≥ 4 at rest.
    #[test]
    fn encrypted_storage_confidentiality(key in "[a-z]{1,8}",
                                         value in prop::collection::vec(any::<u8>(), 4..128),
                                         secret in prop::collection::vec(any::<u8>(), 1..32)) {
        let mut store = LocalStore::new(StorageEncryption::Encrypted {
            device_secret: secret,
        });
        store.put(&key, &value);
        prop_assert_eq!(store.get(&key).unwrap(), value.clone());
        // The raw bytes at rest must not contain the full value.
        let raw = store.raw_at_rest(&key).unwrap();
        prop_assert!(
            !raw.windows(value.len()).any(|w| w == &value[..])
                || value.iter().all(|&b| b == value[0]),
        );
    }

    /// Credential lockout engages after exactly the threshold, for any
    /// threshold and any wrong-password stream.
    #[test]
    fn lockout_engages_exactly_at_threshold(threshold in 1u32..8,
                                            attempts in 1u32..16) {
        let mut store = CredentialStore::hardened();
        store.lockout_threshold = Some(threshold);
        store.add_user("u", "correct-password-123");
        for i in 0..attempts {
            let outcome = store.login("u", "wrong");
            if i < threshold {
                prop_assert_eq!(outcome, LoginOutcome::WrongPassword, "attempt {}", i);
            } else {
                prop_assert_eq!(outcome, LoginOutcome::LockedOut, "attempt {}", i);
            }
        }
    }

    /// Password strength is monotone in added character classes.
    #[test]
    fn strength_rewards_complexity(base in "[a-z]{8,16}") {
        let simple = CredentialStore::password_strength(&base);
        let richer = CredentialStore::password_strength(&format!("{base}A1!"));
        prop_assert!(richer >= simple);
    }
}
