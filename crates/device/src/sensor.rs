//! Deterministic sensor models: the front-end "perception layer" of the
//! paper's Figure 1. Readings are reproducible functions of (seed, time),
//! so experiments that learn behaviour profiles are exactly repeatable.

use std::fmt::{self, Write};
use xlf_simnet::{Bytes, SimTime};

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
    /// `Kind=value` (the value as `{:.2}` formats it), space-padded (or
    /// cut) to exactly `size` bytes, the telemetry size of the device's
    /// state. The text is formatted on the stack and then written
    /// straight into the one buffer the payload keeps.
    pub fn encode_reading(&self, at: SimTime, size: usize) -> Bytes {
        let mut text = ReadingText {
            bytes: [0; READING_TEXT_MAX],
            len: 0,
        };
        write!(text, "{:?}=", self.kind)
            .and_then(|()| write_fixed2(&mut text, self.read(at)))
            .unwrap_or_else(|fmt::Error| {
                unreachable!("the buffer holds the longest kind name and `{{:.2}}` of any f64")
            });
        let text = &text.bytes[..text.len];
        // An exact-length iterator: the payload is allocated once.
        text.iter()
            .copied()
            .chain(std::iter::repeat(b' '))
            .take(size)
            .collect()
    }
}

/// Room for `Temperature=` plus `{:.2}` of any f64 (at most 309
/// integer digits, a sign, a point and two decimals).
const READING_TEXT_MAX: usize = 12 + 313;

/// A stack buffer a reading is formatted into.
struct ReadingText {
    bytes: [u8; READING_TEXT_MAX],
    len: usize,
}

impl fmt::Write for ReadingText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let slot = self.bytes.get_mut(self.len..end).ok_or(fmt::Error)?;
        slot.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Writes `value` exactly as `{:.2}` formats it. Finite values in
/// `[0.001, 1e13)` take an integer path: `value = mant · 2^-shift` with
/// `9 ≤ shift ≤ 62`, so `value · 100` is `mant · 100 >> shift` with the
/// exact remainder, rounded half to even as the float formatter rounds
/// exact ties. Everything else goes through the float formatter.
fn write_fixed2(out: &mut impl fmt::Write, value: f64) -> fmt::Result {
    if !(0.001..1e13).contains(&value) {
        return write!(out, "{value:.2}");
    }
    // In this range the value is normal: an implicit leading bit and a
    // biased exponent in 1013..=1066.
    let bits = value.to_bits();
    let mant = u128::from((bits & ((1 << 52) - 1)) | (1 << 52));
    let shift = 1075 - (bits >> 52) as u32;
    let scaled = mant * 100;
    let (quotient, remainder) = (scaled >> shift, scaled & ((1 << shift) - 1));
    let half = 1 << (shift - 1);
    let round_up = remainder > half || (remainder == half && quotient & 1 == 1);
    let cents = quotient + u128::from(round_up);
    write!(out, "{}.{:02}", cents / 100, cents % 100)
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
        let text = String::from_utf8(payload.to_vec()).unwrap();
        assert!(text.starts_with("Power="));
        let value = text.trim_end().strip_prefix("Power=").unwrap();
        assert_eq!(value, format!("{:.2}", s.read(SimTime::from_secs(10))));
        assert_eq!(s.encode_reading(SimTime::from_secs(10), 4), b"Powe"[..]);
    }

    fn fixed2(value: f64) -> String {
        let mut out = String::new();
        write_fixed2(&mut out, value).unwrap();
        out
    }

    #[test]
    fn fixed_point_rounds_ties_like_the_float_formatter() {
        // Exact binary ties round half to even; the decimal "ties"
        // 2.675, 1.005 and 999.995 are not ties in binary.
        let cases = [
            (0.125, "0.12"),
            (0.375, "0.38"),
            (1.125, "1.12"),
            (70.125, "70.12"),
            (2.675, "2.67"),
            (1.005, "1.00"),
            (999.995, "1000.00"),
            (0.005, "0.01"),
            (0.0, "0.00"),
            (-1.5, "-1.50"),
        ];
        for (value, expected) in cases {
            assert_eq!(fixed2(value), expected, "{value:?}");
            assert_eq!(format!("{value:.2}"), expected, "{value:?}");
        }
    }

    proptest::proptest! {
        /// The integer path writes what the float formatter writes: on
        /// every k/200 (each a decimal tie) and k/8 (binary ties), on
        /// random bit patterns, and across the path's range edges.
        #[test]
        fn fixed_point_equals_float_formatting(
            k in 0u64..4_000_000_000,
            bits in proptest::prelude::any::<u64>(),
            scale in proptest::sample::select(vec![1e-4, 1e-3, 1.0, 1e6, 1e12, 1e13, 1e14]),
            unit in 0.0f64..10.0,
        ) {
            for value in [
                k as f64 / 200.0,
                k as f64 / 8.0,
                f64::from_bits(bits),
                scale * unit,
            ] {
                proptest::prop_assert_eq!(fixed2(value), format!("{value:.2}"), "{:?}", value);
            }
        }
    }
}
