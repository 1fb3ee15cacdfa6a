//! Proactive update vetting (§IV-A4): "all the firmware and software
//! updates should be examined by performing either deep packet inspection
//! or fingerprint identifications" — executed at the gateway so even a
//! device that would accept a bad image never receives it.

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use std::sync::Arc;
use xlf_device::firmware::FirmwareImage;
use xlf_simnet::SimTime;

/// Why an update was blocked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VetRejection {
    /// Could not parse the image at all.
    Malformed,
    /// Unsigned while the policy requires signatures.
    Unsigned,
    /// Signature present but invalid for the claimed vendor.
    BadSignature,
    /// Payload matched a malware signature.
    SignatureHit {
        /// The matched signature (lossy string form).
        signature: String,
    },
    /// Vendor not in the trust list.
    UnknownVendor {
        /// Claimed vendor name.
        vendor: String,
    },
}

/// What a vetter checks images against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VetPolicy {
    /// (vendor, secret) trust anchors.
    trusted_vendors: Vec<(String, Vec<u8>)>,
    /// Malware byte signatures scanned in payloads.
    signatures: Vec<Vec<u8>>,
}

/// The gateway's update vetter.
#[derive(Debug)]
pub struct UpdateVetter {
    /// Shared with every vetter built over the same policy
    /// ([`UpdateVetter::with_policy`]) until this one trusts a vendor of
    /// its own.
    policy: Arc<VetPolicy>,
    bus: Option<EvidenceBus>,
    /// (passed, blocked) counters.
    pub decisions: (u64, u64),
}

impl UpdateVetter {
    /// Creates a vetter with the given malware signature set.
    pub fn new(signatures: &[&[u8]]) -> Self {
        Self::with_policy(Arc::new(VetPolicy {
            trusted_vendors: Vec::new(),
            signatures: signatures.iter().map(|s| s.to_vec()).collect(),
        }))
    }

    /// Creates a vetter checking against `policy`, shared with whoever
    /// else holds it until this vetter trusts a vendor of its own.
    pub fn with_policy(policy: Arc<VetPolicy>) -> Self {
        UpdateVetter {
            policy,
            bus: None,
            decisions: (0, 0),
        }
    }

    /// The policy this vetter checks against.
    pub fn policy(&self) -> &Arc<VetPolicy> {
        &self.policy
    }

    /// Trusts a vendor's signing secret.
    pub fn trust_vendor(&mut self, vendor: &str, secret: &[u8]) {
        Arc::make_mut(&mut self.policy)
            .trusted_vendors
            .push((vendor.to_string(), secret.to_vec()));
    }

    /// Attaches the evidence bus.
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Vets raw OTA bytes destined for `device`.
    ///
    /// # Errors
    ///
    /// [`VetRejection`] describing why the image may not pass; every
    /// rejection is reported to the Core as
    /// [`EvidenceKind::FirmwareRejected`].
    pub fn vet(
        &mut self,
        device: &str,
        bytes: &[u8],
        now: SimTime,
    ) -> Result<FirmwareImage, VetRejection> {
        let result = self.vet_inner(bytes);
        match &result {
            Ok(_) => self.decisions.0 += 1,
            Err(rejection) => {
                self.decisions.1 += 1;
                if let Some(bus) = &self.bus {
                    bus.report(Evidence::new(
                        now,
                        Layer::Device,
                        device,
                        EvidenceKind::FirmwareRejected,
                        0.8,
                        &format!("{rejection:?}"),
                    ));
                }
            }
        }
        result
    }

    fn vet_inner(&self, bytes: &[u8]) -> Result<FirmwareImage, VetRejection> {
        let image = FirmwareImage::from_bytes(bytes).map_err(|_| VetRejection::Malformed)?;
        if image.signature.is_none() {
            return Err(VetRejection::Unsigned);
        }
        let Some((_, secret)) = self
            .policy
            .trusted_vendors
            .iter()
            .find(|(v, _)| *v == image.vendor)
        else {
            return Err(VetRejection::UnknownVendor {
                vendor: image.vendor.clone(),
            });
        };
        if image.verify(secret).is_err() {
            return Err(VetRejection::BadSignature);
        }
        for sig in &self.policy.signatures {
            if image
                .payload
                .windows(sig.len().max(1))
                .any(|w| w == &sig[..])
            {
                return Err(VetRejection::SignatureHit {
                    signature: String::from_utf8_lossy(sig).to_string(),
                });
            }
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;
    use xlf_device::firmware::Version;

    const VENDOR_SECRET: &[u8] = b"acme vendor secret";

    fn vetter() -> UpdateVetter {
        let mut v = UpdateVetter::new(&[b"BOTNET", b"wget${IFS}"]);
        v.trust_vendor("acme", VENDOR_SECRET);
        v
    }

    #[test]
    fn clean_signed_updates_pass() {
        let mut v = vetter();
        let image = FirmwareImage::signed(
            Version(2, 0, 0),
            "acme",
            b"clean v2".to_vec(),
            VENDOR_SECRET,
        );
        assert!(v.vet("cam", &image.to_bytes(), SimTime::ZERO).is_ok());
        assert_eq!(v.decisions, (1, 0));
    }

    #[test]
    fn unsigned_updates_are_blocked_at_the_gateway() {
        let mut v = vetter();
        let image = FirmwareImage::unsigned(Version(2, 0, 0), "acme", b"clean".to_vec());
        assert_eq!(
            v.vet("cam", &image.to_bytes(), SimTime::ZERO),
            Err(VetRejection::Unsigned)
        );
    }

    #[test]
    fn unknown_vendors_are_blocked() {
        let mut v = vetter();
        let image =
            FirmwareImage::signed(Version(2, 0, 0), "mallory", b"x".to_vec(), b"mallory key");
        assert!(matches!(
            v.vet("cam", &image.to_bytes(), SimTime::ZERO),
            Err(VetRejection::UnknownVendor { .. })
        ));
    }

    #[test]
    fn forged_signatures_are_blocked() {
        let mut v = vetter();
        let image = FirmwareImage::signed(Version(2, 0, 0), "acme", b"x".to_vec(), b"wrong key");
        assert_eq!(
            v.vet("cam", &image.to_bytes(), SimTime::ZERO),
            Err(VetRejection::BadSignature)
        );
    }

    #[test]
    fn malware_payloads_are_caught_even_when_validly_signed() {
        // Supply-chain case: valid vendor signature over an infected
        // payload — the DPI scan still catches the implant string.
        let mut v = vetter();
        let image = FirmwareImage::signed(
            Version(2, 0, 0),
            "acme",
            b"firmware with BOTNET implant".to_vec(),
            VENDOR_SECRET,
        );
        assert!(matches!(
            v.vet("cam", &image.to_bytes(), SimTime::ZERO),
            Err(VetRejection::SignatureHit { .. })
        ));
    }

    #[test]
    fn garbage_bytes_are_malformed() {
        let mut v = vetter();
        assert_eq!(
            v.vet("cam", &[1, 2, 3], SimTime::ZERO),
            Err(VetRejection::Malformed)
        );
    }

    #[test]
    fn rejections_emit_evidence() {
        let (bus, drain) = EvidenceBus::new();
        let mut v = vetter().with_bus(bus);
        let image = FirmwareImage::unsigned(Version(1, 0, 0), "acme", b"x".to_vec());
        let _ = v.vet("cam", &image.to_bytes(), SimTime::ZERO);
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        assert_eq!(store.all()[0].kind, EvidenceKind::FirmwareRejected);
    }
}
