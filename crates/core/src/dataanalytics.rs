//! Service-layer security analytics (§IV-C3): "multi-dimensional security
//! analytics that correlate data from multiple domains", including the
//! paper's two worked examples — the thermometer/window policy abuse
//! checked against third-party context (weather), and baseline checks for
//! CPU/keep-alive spikes.

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;
use xlf_analytics::timeseries::SeasonalDetector;
use xlf_simnet::SimTime;

/// Third-party context feed (the "weather report" of §IV-C3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextReading {
    /// Outdoor temperature from the weather service.
    pub outdoor_temp: f64,
}

/// Per-device telemetry analytics.
#[derive(Debug)]
pub struct DataAnalytics {
    /// Seasonal baselines per device, then per attribute, keyed by the
    /// device's shared name and the attribute as reported (static for
    /// the standard sensor kinds), so a first sample copies no text.
    detectors: BTreeMap<Rc<str>, BTreeMap<Cow<'static, str>, SeasonalDetector>>,
    /// Phases per day for seasonal models.
    pub period: usize,
    /// Absolute tolerance for seasonal deviations.
    pub tolerance: f64,
    /// Maximum plausible indoor/outdoor divergence before the context
    /// check fires (§IV-C3's heater-attack detector).
    pub context_divergence: f64,
    bus: Option<EvidenceBus>,
}

impl DataAnalytics {
    /// Creates analytics with 24-phase daily seasonality.
    pub fn new() -> Self {
        DataAnalytics {
            detectors: BTreeMap::new(),
            period: 24,
            tolerance: 6.0,
            context_divergence: 25.0,
            bus: None,
        }
    }

    /// Attaches the evidence bus.
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Feeds one telemetry sample; returns whether it was anomalous
    /// against the seasonal baseline. The phase is the hour of the
    /// simulated day, so arbitrary sampling rates share one baseline.
    pub fn observe(
        &mut self,
        device: &Rc<str>,
        attribute: Cow<'static, str>,
        value: f64,
        now: SimTime,
    ) -> bool {
        let (period, tolerance) = (self.period, self.tolerance);
        let detector = self
            .detectors
            .entry(Rc::clone(device))
            .or_default()
            .entry(attribute.clone())
            .or_insert_with(|| SeasonalDetector::new(period, tolerance));
        let hours_elapsed = now.as_micros() / 3_600_000_000;
        let phase = (hours_elapsed % period as u64) as usize;
        // Arm after two full simulated days.
        while detector.completed_periods() < hours_elapsed / period as u64 {
            detector.complete_period();
        }
        let anomalous = detector.observe_phase(phase, value);
        if anomalous {
            if let Some(bus) = &self.bus {
                bus.report(Evidence::new(
                    now,
                    Layer::Service,
                    device,
                    EvidenceKind::TelemetryAnomaly,
                    0.7,
                    &format!("{attribute}={value:.1} deviates from seasonal baseline"),
                ));
            }
        }
        anomalous
    }

    /// The §IV-C3 context check: an indoor reading wildly diverging from
    /// the outdoor context suggests local environment manipulation (the
    /// attacker's space heater under the thermostat).
    pub fn context_check(
        &mut self,
        device: &str,
        indoor_temp: f64,
        context: ContextReading,
        now: SimTime,
    ) -> bool {
        let diverges = (indoor_temp - context.outdoor_temp).abs() > self.context_divergence;
        if diverges {
            if let Some(bus) = &self.bus {
                bus.report(Evidence::new(
                    now,
                    Layer::Service,
                    device,
                    EvidenceKind::TelemetryAnomaly,
                    0.6,
                    &format!(
                        "indoor {indoor_temp:.1}°F vs outdoor {:.1}°F — possible environment manipulation",
                        context.outdoor_temp
                    ),
                ));
            }
        }
        diverges
    }

    /// Learned baselines, one per (device, attribute).
    pub fn tracked(&self) -> usize {
        self.detectors.values().map(BTreeMap::len).sum()
    }
}

impl Default for DataAnalytics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;

    fn diurnal(h: usize) -> f64 {
        70.0 + 8.0 * ((h as f64) * std::f64::consts::TAU / 24.0).sin()
    }

    #[test]
    fn seasonal_baseline_learns_and_detects() {
        let mut analytics = DataAnalytics::new();
        // Three clean days.
        for day in 0..3 {
            for h in 0..24 {
                let anomalous = analytics.observe(
                    &"thermostat".into(),
                    "temperature".into(),
                    diurnal(h),
                    SimTime::from_secs((day * 24 + h as u64) * 3600),
                );
                assert!(!anomalous, "false alarm day {day} hour {h}");
            }
        }
        // Day 4: heater attack at 3 AM.
        for h in 0..24usize {
            let value = if h == 3 {
                diurnal(h) + 18.0
            } else {
                diurnal(h)
            };
            let at = SimTime::from_secs((3 * 24 + h as u64) * 3600);
            let anomalous =
                analytics.observe(&"thermostat".into(), "temperature".into(), value, at);
            assert_eq!(anomalous, h == 3, "hour {h}");
        }
    }

    #[test]
    fn context_check_fires_on_divergence() {
        let (bus, drain) = EvidenceBus::new();
        let mut analytics = DataAnalytics::new().with_bus(bus);
        // Indoor 95°F while it is 30°F outside and the furnace is off →
        // 65° divergence > 25° tolerance.
        assert!(analytics.context_check(
            "thermostat",
            95.0,
            ContextReading { outdoor_temp: 30.0 },
            SimTime::ZERO
        ));
        // Indoor 72°F on a 60°F day: plausible.
        assert!(!analytics.context_check(
            "thermostat",
            72.0,
            ContextReading { outdoor_temp: 60.0 },
            SimTime::ZERO
        ));
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn detectors_are_per_device_attribute() {
        let mut analytics = DataAnalytics::new();
        analytics.observe(&"a".into(), "temperature".into(), 70.0, SimTime::ZERO);
        analytics.observe(&"a".into(), "power".into(), 120.0, SimTime::ZERO);
        analytics.observe(&"b".into(), "temperature".into(), 70.0, SimTime::ZERO);
        assert_eq!(analytics.tracked(), 3);
    }
}
