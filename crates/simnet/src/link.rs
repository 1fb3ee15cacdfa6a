//! Point-to-point links with bandwidth, latency, and loss.

use crate::medium::Medium;
use crate::time::Duration;

/// Configuration of a (bidirectional) link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Technology family (drives MTU and reporting).
    pub medium: Medium,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way latency.
    pub latency: Duration,
    /// Per-packet loss probability in `[0, 1)`.
    pub loss: f64,
}

impl LinkConfig {
    /// Overrides the loss probability (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1)`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        self.loss = loss;
        self
    }

    /// Transfer delay for `wire_size` bytes: latency + serialization.
    pub fn delay_for(&self, wire_size: usize) -> Duration {
        let bits = wire_size as u64 * 8;
        let serialize_us = bits.saturating_mul(1_000_000) / self.bandwidth_bps.max(1);
        self.latency + Duration::from_micros(serialize_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_scales_with_size_and_bandwidth() {
        let fast = Medium::Ethernet.link();
        let slow = Medium::Zigbee.link();
        assert!(fast.delay_for(1000) < slow.delay_for(1000));
        assert!(slow.delay_for(100) < slow.delay_for(1000));
    }

    #[test]
    fn zigbee_serialization_time_is_realistic() {
        // 127 bytes at 250 kbps ≈ 4.06 ms serialization + 5 ms latency.
        let d = Medium::Zigbee.link().delay_for(127);
        let ms = d.as_secs_f64() * 1e3;
        assert!((8.0..11.0).contains(&ms), "zigbee delay = {ms} ms");
    }

    #[test]
    fn builders_validate() {
        let cfg = Medium::Wifi.link().with_loss(0.25);
        assert_eq!(cfg.loss, 0.25);
        let result = std::panic::catch_unwind(|| Medium::Wifi.link().with_loss(1.5));
        assert!(result.is_err());
    }
}
