//! Media models for the protocol families in the paper's Figure 2.

use crate::link::LinkConfig;
use crate::time::Duration;
use std::fmt;

/// Physical/link medium connecting two nodes.
///
/// Parameters are representative of the technology class (good enough for
/// relative timing/size observables; no claim of RF fidelity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Medium {
    /// Wired Ethernet (gateway ↔ router, router ↔ modem).
    Ethernet,
    /// IEEE 802.11 WiFi (cameras, TVs, high-rate devices).
    Wifi,
    /// ZigBee over IEEE 802.15.4 (bulbs, sensors).
    Zigbee,
    /// Z-Wave sub-GHz mesh (locks, wall switches).
    Zwave,
    /// Bluetooth Low Energy (wearables, beacons).
    Ble,
    /// 6LoWPAN (IPv6 over 802.15.4 sensor networks).
    SixLowpan,
    /// The access link from the home to the Internet/cloud.
    Wan,
}

impl Medium {
    /// Nominal bandwidth in bits per second.
    pub fn bandwidth_bps(self) -> u64 {
        match self {
            Medium::Ethernet => 1_000_000_000,
            Medium::Wifi => 100_000_000,
            Medium::Zigbee => 250_000,
            Medium::Zwave => 100_000,
            Medium::Ble => 1_000_000,
            Medium::SixLowpan => 250_000,
            Medium::Wan => 50_000_000,
        }
    }

    /// One-way propagation/processing latency.
    pub fn latency(self) -> Duration {
        match self {
            Medium::Ethernet => Duration::from_micros(100),
            Medium::Wifi => Duration::from_micros(1_500),
            Medium::Zigbee => Duration::from_micros(5_000),
            Medium::Zwave => Duration::from_micros(8_000),
            Medium::Ble => Duration::from_micros(3_000),
            Medium::SixLowpan => Duration::from_micros(6_000),
            Medium::Wan => Duration::from_millis(20),
        }
    }

    /// Baseline packet loss probability (before interference modeling).
    pub fn loss(self) -> f64 {
        match self {
            Medium::Ethernet => 0.0,
            Medium::Wifi => 0.005,
            Medium::Zigbee => 0.01,
            Medium::Zwave => 0.01,
            Medium::Ble => 0.008,
            Medium::SixLowpan => 0.012,
            Medium::Wan => 0.001,
        }
    }

    /// Maximum transmission unit in bytes.
    pub fn mtu(self) -> usize {
        match self {
            Medium::Ethernet | Medium::Wan => 1500,
            Medium::Wifi => 1500,
            Medium::Zigbee | Medium::SixLowpan => 127,
            Medium::Zwave => 64,
            Medium::Ble => 251,
        }
    }

    /// Builds the default [`LinkConfig`] for this medium.
    pub fn link(self) -> LinkConfig {
        LinkConfig {
            medium: self,
            bandwidth_bps: self.bandwidth_bps(),
            latency: self.latency(),
            loss: self.loss(),
        }
    }
}

impl fmt::Display for Medium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Medium::Ethernet => "Ethernet",
            Medium::Wifi => "WiFi",
            Medium::Zigbee => "ZigBee",
            Medium::Zwave => "Z-Wave",
            Medium::Ble => "BLE",
            Medium::SixLowpan => "6LoWPAN",
            Medium::Wan => "WAN",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constrained_media_are_slower_than_wired() {
        assert!(Medium::Zigbee.bandwidth_bps() < Medium::Wifi.bandwidth_bps());
        assert!(Medium::Zwave.bandwidth_bps() < Medium::Zigbee.bandwidth_bps() * 3);
        assert!(Medium::Ethernet.latency() < Medium::Zigbee.latency());
    }

    #[test]
    fn mtus_match_technology_class() {
        assert_eq!(Medium::Zigbee.mtu(), 127);
        assert_eq!(Medium::Zwave.mtu(), 64);
        assert_eq!(Medium::Ethernet.mtu(), 1500);
    }

    #[test]
    fn default_link_config_copies_medium_parameters() {
        let cfg = Medium::Wifi.link();
        assert_eq!(cfg.bandwidth_bps, Medium::Wifi.bandwidth_bps());
        assert_eq!(cfg.latency, Medium::Wifi.latency());
    }

    #[test]
    fn loss_probabilities_are_valid() {
        for m in [
            Medium::Ethernet,
            Medium::Wifi,
            Medium::Zigbee,
            Medium::Zwave,
            Medium::Ble,
            Medium::SixLowpan,
            Medium::Wan,
        ] {
            assert!((0.0..1.0).contains(&m.loss()));
        }
    }
}
