//! The OTA distribution endpoint (§III-C): "a robust OTA update mechanism
//! is a core part of a system's architecture". The server holds vendor
//! images per device and can be configured to sign (robust) or not
//! (vulnerable), independently of whether devices verify.

use std::collections::BTreeMap;
use xlf_device::firmware::{FirmwareImage, Version};

/// The update server.
#[derive(Debug, Clone, Default)]
pub struct OtaServer {
    /// device → (payload, version) of the newest release.
    releases: BTreeMap<String, (Vec<u8>, Version)>,
    /// vendor signing secret (shared with devices' verification).
    vendor_secret: &'static [u8],
    /// Vendor name embedded in images.
    vendor: &'static str,
    /// Whether releases are signed — turning this off reproduces the
    /// §III-C "update is sent … unsigned" misconfiguration.
    pub sign_releases: bool,
    /// Supply-chain compromise: when set, every served image is the
    /// release payload with this implant appended — and *unsigned*,
    /// because the attacker controls the distribution point but not the
    /// vendor signing key. `None` = healthy server.
    implant: Option<Vec<u8>>,
}

impl OtaServer {
    /// Creates a signing server for `vendor`. Vendor identities are
    /// constants, so every server borrows them instead of copying.
    pub fn new(vendor: &'static str, vendor_secret: &'static [u8]) -> Self {
        OtaServer {
            releases: BTreeMap::new(),
            vendor_secret,
            vendor,
            sign_releases: true,
            implant: None,
        }
    }

    /// Compromises the distribution point: every subsequent
    /// [`OtaServer::image_for`] serves the release with `implant`
    /// appended, unsigned (the attacker has the server, not the signing
    /// key). This is the firmware-modulation supply-chain path a
    /// verified device-layer update policy must stop.
    pub fn compromise(&mut self, implant: Vec<u8>) {
        self.implant = Some(implant);
    }

    /// Whether the distribution point is compromised.
    pub fn is_compromised(&self) -> bool {
        self.implant.is_some()
    }

    /// Publishes a release for a device.
    pub fn publish(&mut self, device: &str, version: Version, payload: Vec<u8>) {
        self.releases.insert(device.to_string(), (payload, version));
    }

    /// Builds the wire image for a device's newest release. On a
    /// compromised server the image carries the implant and no
    /// signature, whatever `sign_releases` says.
    pub fn image_for(&self, device: &str) -> Option<FirmwareImage> {
        let (payload, version) = self.releases.get(device)?;
        if let Some(implant) = &self.implant {
            let mut tampered = payload.clone();
            tampered.extend_from_slice(implant);
            return Some(FirmwareImage::unsigned(*version, self.vendor, tampered));
        }
        Some(if self.sign_releases {
            FirmwareImage::signed(*version, self.vendor, payload.clone(), self.vendor_secret)
        } else {
            FirmwareImage::unsigned(*version, self.vendor, payload.clone())
        })
    }

    /// Devices with pending releases.
    pub fn devices(&self) -> impl Iterator<Item = &str> {
        self.releases.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECRET: &[u8] = b"acme vendor secret";

    #[test]
    fn signed_releases_verify_on_device() {
        let mut server = OtaServer::new("acme", SECRET);
        server.publish("cam", Version(2, 0, 0), b"v2 code".to_vec());
        let image = server.image_for("cam").unwrap();
        assert!(image.signature.is_some());
        assert!(image.verify(SECRET).is_ok());
    }

    #[test]
    fn unsigned_mode_reproduces_the_vulnerable_path() {
        let mut server = OtaServer::new("acme", SECRET);
        server.sign_releases = false;
        server.publish("cam", Version(2, 0, 0), b"v2 code".to_vec());
        let image = server.image_for("cam").unwrap();
        assert!(image.signature.is_none());
    }

    #[test]
    fn missing_devices_have_no_image() {
        let server = OtaServer::new("acme", SECRET);
        assert!(server.image_for("ghost").is_none());
    }

    #[test]
    fn compromised_server_serves_unsigned_implanted_images() {
        let mut server = OtaServer::new("acme", SECRET);
        server.publish("cam", Version(2, 0, 0), b"v2 code".to_vec());
        assert!(!server.is_compromised());
        server.compromise(b" BOTNET implant".to_vec());
        assert!(server.is_compromised());
        let image = server.image_for("cam").unwrap();
        // The implant rides the real release; the attacker cannot sign.
        assert!(image.signature.is_none());
        assert!(image.payload.windows(6).any(|w| w == b"BOTNET"));
        assert!(image.payload.starts_with(b"v2 code"));
        // A strict device-layer policy stops the whole path.
        assert!(image.verify(SECRET).is_ok(), "hash still self-consistent");
    }

    #[test]
    fn republishing_replaces_the_release() {
        let mut server = OtaServer::new("acme", SECRET);
        server.publish("cam", Version(2, 0, 0), b"v2".to_vec());
        server.publish("cam", Version(3, 0, 0), b"v3".to_vec());
        assert_eq!(server.image_for("cam").unwrap().version, Version(3, 0, 0));
        assert_eq!(server.devices().count(), 1);
    }
}
