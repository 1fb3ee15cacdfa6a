//! Deterministic sensor models: the front-end "perception layer" of the
//! paper's Figure 1. Readings are reproducible functions of (seed, time),
//! so experiments that learn behaviour profiles are exactly repeatable.

use xlf_simnet::SimTime;

/// The sensing modality of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Ambient temperature (°F, the paper's thermostat example in §IV-C3).
    Temperature,
    /// Binary motion detection.
    Motion,
    /// Smoke concentration.
    Smoke,
    /// Energy meter (watts).
    Power,
    /// Camera activity level (bytes of motion-triggered footage).
    Camera,
}

/// A deterministic simulated sensor.
#[derive(Debug, Clone)]
pub struct Sensor {
    kind: SensorKind,
    seed: u64,
    /// Environmental offset injected by attacks (e.g. the §IV-C3 heater
    /// attack raising ambient temperature near the thermostat).
    pub environment_offset: f64,
}

fn noise(seed: u64, t_us: u64) -> f64 {
    // SplitMix64-style hash of (seed, bucket) → [-0.5, 0.5).
    let mut z = seed ^ (t_us / 1_000_000).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) - 0.5
}

impl Sensor {
    /// Creates a sensor with a deterministic seed.
    pub fn new(kind: SensorKind, seed: u64) -> Self {
        Sensor {
            kind,
            seed,
            environment_offset: 0.0,
        }
    }

    /// The modality.
    pub fn kind(&self) -> SensorKind {
        self.kind
    }

    /// Reads the sensor at simulated time `at`.
    pub fn read(&self, at: SimTime) -> f64 {
        let t = at.as_micros();
        let hours = at.as_secs_f64() / 3600.0;
        let base = match self.kind {
            SensorKind::Temperature => {
                // Diurnal cycle around 70°F.
                70.0 + 8.0 * (hours * std::f64::consts::TAU / 24.0).sin() + noise(self.seed, t)
            }
            SensorKind::Motion => {
                // Motion probability peaks in the evening; threshold noise.
                let p = 0.2 + 0.6 * ((hours % 24.0 - 19.0).abs() < 3.0) as u8 as f64;
                if noise(self.seed, t) + 0.5 < p {
                    1.0
                } else {
                    0.0
                }
            }
            SensorKind::Smoke => (noise(self.seed, t) + 0.5) * 0.05,
            SensorKind::Power => {
                120.0
                    + 40.0 * (hours * std::f64::consts::TAU / 24.0).cos().abs()
                    + noise(self.seed, t) * 5.0
            }
            SensorKind::Camera => {
                let active = noise(self.seed, t) + 0.5 < 0.3;
                if active {
                    900.0 + noise(self.seed.wrapping_add(1), t) * 100.0
                } else {
                    60.0
                }
            }
        };
        base + self.environment_offset
    }

    /// Serializes a reading as the telemetry payload devices emit:
    /// `Kind=value`, space-padded (or cut) to exactly `size` bytes, the
    /// telemetry size of the device's state. The reading is formatted
    /// straight into the one buffer the payload keeps.
    pub fn encode_reading(&self, at: SimTime, size: usize) -> Vec<u8> {
        use std::io::Write;
        let mut payload = Vec::with_capacity(size);
        // Writing into a `Vec` cannot fail.
        let _ = write!(payload, "{:?}={:.2}", self.kind, self.read(at));
        payload.resize(size, b' ');
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_deterministic() {
        let a = Sensor::new(SensorKind::Temperature, 7);
        let b = Sensor::new(SensorKind::Temperature, 7);
        let t = SimTime::from_secs(12_345);
        assert_eq!(a.read(t), b.read(t));
    }

    #[test]
    fn seeds_differentiate_sensors() {
        let a = Sensor::new(SensorKind::Temperature, 1);
        let b = Sensor::new(SensorKind::Temperature, 2);
        let t = SimTime::from_secs(100);
        assert_ne!(a.read(t), b.read(t));
    }

    #[test]
    fn temperature_stays_in_plausible_range() {
        let s = Sensor::new(SensorKind::Temperature, 3);
        for hour in 0..48 {
            let v = s.read(SimTime::from_secs(hour * 3600));
            assert!((55.0..85.0).contains(&v), "t={hour}h v={v}");
        }
    }

    #[test]
    fn environment_offset_shifts_readings() {
        // The §IV-C3 heater attack: raise ambient temperature.
        let mut s = Sensor::new(SensorKind::Temperature, 3);
        let t = SimTime::from_secs(1000);
        let before = s.read(t);
        s.environment_offset = 15.0;
        assert!((s.read(t) - before - 15.0).abs() < 1e-9);
    }

    #[test]
    fn motion_is_binary() {
        let s = Sensor::new(SensorKind::Motion, 9);
        for i in 0..100 {
            let v = s.read(SimTime::from_secs(i * 60));
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn encoded_readings_carry_kind_and_value() {
        let s = Sensor::new(SensorKind::Power, 5);
        let payload = s.encode_reading(SimTime::from_secs(10), 48);
        assert_eq!(payload.len(), 48);
        let text = String::from_utf8(payload).unwrap();
        assert!(text.starts_with("Power="));
        let value = text.trim_end().strip_prefix("Power=").unwrap();
        assert_eq!(value, format!("{:.2}", s.read(SimTime::from_secs(10))));
        assert_eq!(s.encode_reading(SimTime::from_secs(10), 4), b"Powe");
    }
}
