//! Firmware images and the on-device update store.
//!
//! Encodes the paper's §III-C OTA threat analysis: "if the update is sent
//! unencrypted or unsigned, or the implementations of the verification are
//! not robust, then the device could be easily compromised". The
//! [`UpdatePolicy`] captures the robust path; the Table II
//! firmware-integrity vulnerability is reproduced by disabling checks.

use std::fmt;
use std::sync::Arc;
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::hash::LightHash;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::mac::CbcMac;

/// A firmware version (major, minor, patch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u16, pub u16, pub u16);

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.0, self.1, self.2)
    }
}

/// Errors from firmware verification/installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirmwareError {
    /// Signature missing but the policy requires one.
    Unsigned,
    /// Signature present but invalid for the vendor key.
    BadSignature,
    /// Image hash does not match its manifest.
    CorruptImage,
    /// Update is older than (or equal to) the installed version and the
    /// policy forbids downgrades.
    Downgrade {
        /// Version currently installed.
        installed: Version,
        /// Version offered by the update.
        offered: Version,
    },
    /// Serialized image could not be parsed.
    Malformed,
}

impl fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirmwareError::Unsigned => write!(f, "update rejected: unsigned image"),
            FirmwareError::BadSignature => write!(f, "update rejected: invalid vendor signature"),
            FirmwareError::CorruptImage => write!(f, "update rejected: image hash mismatch"),
            FirmwareError::Downgrade { installed, offered } => write!(
                f,
                "update rejected: downgrade from {installed} to {offered}"
            ),
            FirmwareError::Malformed => write!(f, "update rejected: malformed image"),
        }
    }
}

impl std::error::Error for FirmwareError {}

/// A firmware image with manifest hash and optional vendor signature.
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareImage {
    /// Version carried in the manifest.
    pub version: Version,
    /// Vendor identifier (selects the verification key).
    pub vendor: String,
    /// Raw image payload.
    pub payload: Vec<u8>,
    /// Manifest hash of the payload.
    pub digest: [u8; 32],
    /// Vendor MAC over (version ‖ vendor ‖ digest); `None` = unsigned.
    pub signature: Option<Vec<u8>>,
}

/// The firmware signing key of `vendor`: SPECK under
/// `derive_key(vendor_secret, "fw-sign/{vendor}")`.
pub fn vendor_key(vendor: &str, vendor_secret: &[u8]) -> Speck128 {
    let key = derive_key(vendor_secret, &format!("fw-sign/{vendor}"), 16)
        .unwrap_or_else(|_| unreachable!("non-empty label and length"));
    Speck128::new(&key).unwrap_or_else(|_| unreachable!("derive_key returned 16 bytes"))
}

fn signing_input(version: Version, vendor: &str, digest: &[u8; 32]) -> Vec<u8> {
    let mut input = Vec::new();
    input.extend_from_slice(&version.0.to_be_bytes());
    input.extend_from_slice(&version.1.to_be_bytes());
    input.extend_from_slice(&version.2.to_be_bytes());
    input.extend_from_slice(vendor.as_bytes());
    input.push(0);
    input.extend_from_slice(digest);
    input
}

impl FirmwareImage {
    /// Builds an unsigned image (hash computed over the payload).
    pub fn unsigned(version: Version, vendor: &str, payload: Vec<u8>) -> Self {
        let digest = LightHash::digest(&payload);
        FirmwareImage {
            version,
            vendor: vendor.to_string(),
            payload,
            digest,
            signature: None,
        }
    }

    /// Builds a vendor-signed image.
    pub fn signed(version: Version, vendor: &str, payload: Vec<u8>, vendor_secret: &[u8]) -> Self {
        Self::signed_with(version, vendor, payload, &vendor_key(vendor, vendor_secret))
    }

    /// Builds an image signed under `key`, the already-derived
    /// [`vendor_key`] of `vendor`.
    pub fn signed_with(version: Version, vendor: &str, payload: Vec<u8>, key: &Speck128) -> Self {
        let mut image = Self::unsigned(version, vendor, payload);
        let mac = CbcMac::new(key);
        let sig = mac
            .tag(&signing_input(image.version, &image.vendor, &image.digest))
            .unwrap_or_else(|_| unreachable!("CBC-MAC tagging is total"));
        image.signature = Some(sig);
        image
    }

    /// Verifies the payload hash and (if present) the vendor signature.
    ///
    /// # Errors
    ///
    /// [`FirmwareError::CorruptImage`] on hash mismatch,
    /// [`FirmwareError::BadSignature`] on MAC mismatch.
    pub fn verify(&self, vendor_secret: &[u8]) -> Result<(), FirmwareError> {
        if LightHash::digest(&self.payload) != self.digest {
            return Err(FirmwareError::CorruptImage);
        }
        if let Some(sig) = &self.signature {
            let cipher = vendor_key(&self.vendor, vendor_secret);
            let mac = CbcMac::new(&cipher);
            let ok = mac
                .verify(
                    &signing_input(self.version, &self.vendor, &self.digest),
                    sig,
                )
                .unwrap_or_else(|_| unreachable!("CBC-MAC verification is total"));
            if !ok {
                return Err(FirmwareError::BadSignature);
            }
        }
        Ok(())
    }

    /// Serializes the image for OTA transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.version.0.to_be_bytes());
        out.extend_from_slice(&self.version.1.to_be_bytes());
        out.extend_from_slice(&self.version.2.to_be_bytes());
        out.extend_from_slice(&(self.vendor.len() as u16).to_be_bytes());
        out.extend_from_slice(self.vendor.as_bytes());
        out.extend_from_slice(&self.digest);
        match &self.signature {
            Some(sig) => {
                out.push(1);
                out.extend_from_slice(&(sig.len() as u16).to_be_bytes());
                out.extend_from_slice(sig);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses an image serialized with [`FirmwareImage::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`FirmwareError::Malformed`] on any framing violation.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FirmwareError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], FirmwareError> {
            // `pos + n` on untrusted lengths can overflow (and wrap past
            // the bounds check); checked arithmetic makes any overflow a
            // Malformed error instead.
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= data.len())
                .ok_or(FirmwareError::Malformed)?;
            let slice = &data[*pos..end];
            *pos = end;
            Ok(slice)
        };
        let v0 = u16::from_be_bytes(
            take(&mut pos, 2)?
                .try_into()
                .map_err(|_| FirmwareError::Malformed)?,
        );
        let v1 = u16::from_be_bytes(
            take(&mut pos, 2)?
                .try_into()
                .map_err(|_| FirmwareError::Malformed)?,
        );
        let v2 = u16::from_be_bytes(
            take(&mut pos, 2)?
                .try_into()
                .map_err(|_| FirmwareError::Malformed)?,
        );
        let vlen = u16::from_be_bytes(
            take(&mut pos, 2)?
                .try_into()
                .map_err(|_| FirmwareError::Malformed)?,
        ) as usize;
        let vendor = String::from_utf8(take(&mut pos, vlen)?.to_vec())
            .map_err(|_| FirmwareError::Malformed)?;
        let digest: [u8; 32] = take(&mut pos, 32)?
            .try_into()
            .map_err(|_| FirmwareError::Malformed)?;
        let signed = take(&mut pos, 1)?[0];
        let signature = if signed == 1 {
            let slen = u16::from_be_bytes(
                take(&mut pos, 2)?
                    .try_into()
                    .map_err(|_| FirmwareError::Malformed)?,
            ) as usize;
            Some(take(&mut pos, slen)?.to_vec())
        } else if signed == 0 {
            None
        } else {
            return Err(FirmwareError::Malformed);
        };
        let plen = u32::from_be_bytes(
            take(&mut pos, 4)?
                .try_into()
                .map_err(|_| FirmwareError::Malformed)?,
        ) as usize;
        let payload = take(&mut pos, plen)?.to_vec();
        if pos != data.len() {
            return Err(FirmwareError::Malformed);
        }
        Ok(FirmwareImage {
            version: Version(v0, v1, v2),
            vendor,
            digest,
            signature,
            payload,
        })
    }
}

/// How strictly a device vets updates — the robust path vs the Table II
/// vulnerable paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatePolicy {
    /// Require a valid vendor signature.
    pub require_signature: bool,
    /// Refuse version downgrades.
    pub forbid_downgrade: bool,
}

impl UpdatePolicy {
    /// The secure default: signed images only, no downgrades.
    pub fn strict() -> Self {
        UpdatePolicy {
            require_signature: true,
            forbid_downgrade: true,
        }
    }

    /// The vulnerable configuration from Table II's network-camera row:
    /// accepts anything.
    pub fn promiscuous() -> Self {
        UpdatePolicy {
            require_signature: false,
            forbid_downgrade: false,
        }
    }
}

/// The on-device firmware slot.
#[derive(Debug, Clone)]
pub struct FirmwareStore {
    /// Shared until replaced: devices built from one kit all start from
    /// one factory image.
    installed: Arc<FirmwareImage>,
    policy: UpdatePolicy,
    vendor_secret: Vec<u8>,
    /// History of applied versions (newest last).
    pub history: Vec<Version>,
}

impl FirmwareStore {
    /// Initializes the store with a factory image.
    pub fn new(
        factory: impl Into<Arc<FirmwareImage>>,
        policy: UpdatePolicy,
        vendor_secret: &[u8],
    ) -> Self {
        let factory = factory.into();
        let v = factory.version;
        FirmwareStore {
            installed: factory,
            policy,
            vendor_secret: vendor_secret.to_vec(),
            history: vec![v],
        }
    }

    /// Currently installed image.
    pub fn installed(&self) -> &FirmwareImage {
        &self.installed
    }

    /// Attempts to apply an OTA update under the store's policy.
    ///
    /// # Errors
    ///
    /// Any [`FirmwareError`] per the policy checks; on error the installed
    /// image is unchanged.
    pub fn apply(&mut self, image: FirmwareImage) -> Result<(), FirmwareError> {
        if self.policy.require_signature && image.signature.is_none() {
            return Err(FirmwareError::Unsigned);
        }
        image.verify(&self.vendor_secret)?;
        if self.policy.forbid_downgrade && image.version <= self.installed.version {
            return Err(FirmwareError::Downgrade {
                installed: self.installed.version,
                offered: image.version,
            });
        }
        self.history.push(image.version);
        self.installed = Arc::new(image);
        Ok(())
    }

    /// Applies an operator-initiated rollback to a known-good image.
    ///
    /// The signature policy and image verification still apply — a
    /// rollback must never be the path that smuggles a bad image in —
    /// but the downgrade check is deliberately bypassed: returning to an
    /// older version is the whole point of containment. The rollback is
    /// recorded in the history like any other apply.
    ///
    /// # Errors
    ///
    /// [`FirmwareError::Unsigned`], [`FirmwareError::BadSignature`] or
    /// [`FirmwareError::CorruptImage`] per the policy checks; on error
    /// the installed image is unchanged.
    pub fn apply_rollback(&mut self, image: FirmwareImage) -> Result<(), FirmwareError> {
        if self.policy.require_signature && image.signature.is_none() {
            return Err(FirmwareError::Unsigned);
        }
        image.verify(&self.vendor_secret)?;
        self.history.push(image.version);
        self.installed = Arc::new(image);
        Ok(())
    }

    /// Restores snapshot-captured mutable state (installed image +
    /// version history), keeping the store's policy and vendor secret.
    ///
    /// Used by the fleet run-level snapshot: policy and secret are pure
    /// functions of the spec and are rebuilt by the caller; only the
    /// mutable slot state travels through the snapshot.
    pub fn restore_state(&mut self, installed: FirmwareImage, history: Vec<Version>) {
        self.installed = Arc::new(installed);
        self.history = history;
    }

    /// Whether the installed payload contains a marker (used by tests and
    /// the attacks crate to detect implanted payloads).
    pub fn payload_contains(&self, marker: &[u8]) -> bool {
        self.installed
            .payload
            .windows(marker.len().max(1))
            .any(|w| w == marker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECRET: &[u8] = b"vendor signing secret";

    fn factory() -> FirmwareImage {
        FirmwareImage::signed(Version(1, 0, 0), "acme", b"factory fw".to_vec(), SECRET)
    }

    #[test]
    fn factory_image_signature_is_pinned() {
        let hex = |b: &[u8]| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let image = FirmwareImage::signed(
            Version(1, 0, 0),
            "acme",
            b"factory firmware for cam".to_vec(),
            b"acme vendor secret",
        );
        assert_eq!(
            hex(&image.digest),
            "222dc5ab3dd1114ff4f88d841af2a4f205688d97aa8558abe5f54b764828f97b"
        );
        assert_eq!(
            hex(image.signature.as_deref().unwrap()),
            "ba101e2cf9c026ebf2eed81e4a9cc1d3"
        );
    }

    #[test]
    fn signed_roundtrip_and_verify() {
        let img = factory();
        assert!(img.verify(SECRET).is_ok());
        let parsed = FirmwareImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(parsed, img);
        assert!(parsed.verify(SECRET).is_ok());
    }

    #[test]
    fn tampered_payload_detected() {
        let mut img = factory();
        img.payload[0] ^= 0xFF;
        assert_eq!(img.verify(SECRET), Err(FirmwareError::CorruptImage));
    }

    #[test]
    fn forged_signature_detected() {
        let mut img = FirmwareImage::signed(Version(2, 0, 0), "acme", b"evil".to_vec(), b"wrong");
        // Recompute digest correctly but signature is under the wrong key.
        img.digest = xlf_lwcrypto::hash::LightHash::digest(&img.payload);
        assert_eq!(img.verify(SECRET), Err(FirmwareError::BadSignature));
    }

    #[test]
    fn strict_store_rejects_unsigned_and_downgrade() {
        let mut store = FirmwareStore::new(factory(), UpdatePolicy::strict(), SECRET);
        let unsigned = FirmwareImage::unsigned(Version(2, 0, 0), "acme", b"v2".to_vec());
        assert_eq!(store.apply(unsigned), Err(FirmwareError::Unsigned));

        let old = FirmwareImage::signed(Version(0, 9, 0), "acme", b"old".to_vec(), SECRET);
        assert!(matches!(
            store.apply(old),
            Err(FirmwareError::Downgrade { .. })
        ));

        let v2 = FirmwareImage::signed(Version(2, 0, 0), "acme", b"v2".to_vec(), SECRET);
        assert!(store.apply(v2).is_ok());
        assert_eq!(store.installed().version, Version(2, 0, 0));
        assert_eq!(store.history, vec![Version(1, 0, 0), Version(2, 0, 0)]);
    }

    #[test]
    fn promiscuous_store_accepts_malicious_image() {
        // Reproduces the Table II "firmware modulation" row.
        let mut store = FirmwareStore::new(factory(), UpdatePolicy::promiscuous(), SECRET);
        let evil = FirmwareImage::unsigned(Version(0, 0, 1), "mallory", b"BACKDOOR".to_vec());
        assert!(store.apply(evil).is_ok());
        assert!(store.payload_contains(b"BACKDOOR"));
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert_eq!(
            FirmwareImage::from_bytes(&[1, 2, 3]),
            Err(FirmwareError::Malformed)
        );
        let mut bytes = factory().to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(
            FirmwareImage::from_bytes(&bytes),
            Err(FirmwareError::Malformed)
        );
        bytes = factory().to_bytes();
        bytes.push(0);
        assert_eq!(
            FirmwareImage::from_bytes(&bytes),
            Err(FirmwareError::Malformed)
        );
    }

    #[test]
    fn replayed_old_signed_image_is_rejected_as_downgrade() {
        // Downgrade-replay regression: an attacker replays a *validly
        // signed* old release (captured before a security fix shipped).
        // The signature verifies — vendor keys don't expire per-version —
        // so the only defense is the downgrade check, and it must fire
        // even though every other check passes.
        let old =
            FirmwareImage::signed(Version(1, 0, 0), "acme", b"vulnerable v1".to_vec(), SECRET);
        assert!(old.verify(SECRET).is_ok(), "the replayed image is genuine");

        let mut store = FirmwareStore::new(factory(), UpdatePolicy::strict(), SECRET);
        let v2 = FirmwareImage::signed(Version(2, 0, 0), "acme", b"patched v2".to_vec(), SECRET);
        store.apply(v2).unwrap();

        // The wire replay: serialized old image, parsed and offered.
        let replayed = FirmwareImage::from_bytes(&old.to_bytes()).unwrap();
        assert_eq!(
            store.apply(replayed),
            Err(FirmwareError::Downgrade {
                installed: Version(2, 0, 0),
                offered: Version(1, 0, 0),
            })
        );
        assert!(store.payload_contains(b"patched v2"), "install unchanged");

        // A promiscuous store reproduces the vulnerable path: replay
        // succeeds — this asymmetry is exactly Table II's row.
        let mut weak = FirmwareStore::new(factory(), UpdatePolicy::promiscuous(), SECRET);
        let v2 = FirmwareImage::signed(Version(2, 0, 0), "acme", b"patched v2".to_vec(), SECRET);
        weak.apply(v2).unwrap();
        assert!(weak.apply(old).is_ok());
        assert!(weak.payload_contains(b"vulnerable v1"));
    }

    #[test]
    fn rollback_bypasses_downgrade_but_not_signature_policy() {
        let mut store = FirmwareStore::new(factory(), UpdatePolicy::strict(), SECRET);
        let v2 = FirmwareImage::signed(Version(2, 0, 0), "acme", b"v2".to_vec(), SECRET);
        store.apply(v2).unwrap();

        // A regular apply of the factory image is a downgrade...
        assert!(matches!(
            store.apply(factory()),
            Err(FirmwareError::Downgrade { .. })
        ));
        // ...but an unsigned "rollback" is still refused...
        let unsigned = FirmwareImage::unsigned(Version(1, 0, 0), "acme", b"evil".to_vec());
        assert_eq!(store.apply_rollback(unsigned), Err(FirmwareError::Unsigned));
        // ...while the signed known-good image rolls back fine.
        store.apply_rollback(factory()).unwrap();
        assert_eq!(store.installed().version, Version(1, 0, 0));
        assert_eq!(
            store.history,
            vec![Version(1, 0, 0), Version(2, 0, 0), Version(1, 0, 0)]
        );
    }

    #[test]
    fn version_ordering_and_display() {
        assert!(Version(1, 2, 3) < Version(1, 3, 0));
        assert!(Version(2, 0, 0) > Version(1, 99, 99));
        assert_eq!(Version(1, 2, 3).to_string(), "1.2.3");
    }
}
