//! Device-layer models for the XLF reproduction: the Table I device
//! catalog with its resource envelopes, plus the on-device substrates the
//! paper's device-layer security functions operate on — firmware with
//! signed OTA updates, local storage, credentials, sensors, and a
//! simulated device runtime that plugs into `xlf-simnet`.
//!
//! The vulnerability model ([`vulns`]) encodes the paper's Table II rows so
//! the attacks crate can exploit exactly the weaknesses the paper
//! enumerates, and XLF's device-layer mechanisms can close them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod credentials;
pub mod firmware;
pub mod resources;
pub mod runtime;
pub mod sensor;
pub mod storage;
pub mod vulns;

pub use catalog::{catalog, DeviceClass, DeviceSpec, PowerSource};
pub use credentials::{CredentialStore, LoginOutcome};
pub use firmware::{FirmwareError, FirmwareImage, FirmwareStore, UpdatePolicy};
pub use resources::{CryptoFeasibility, ResourceModel};
pub use runtime::{DeviceConfig, DeviceKit, DeviceState, SimDevice};
pub use sensor::{Sensor, SensorKind};
pub use storage::{LocalStore, StorageEncryption};
pub use vulns::{VulnSet, Vulnerability};
