//! The capability model: the SmartThings-style "abstraction of devices
//! from their distinct capabilities and attributes in a way that allows
//! developers to build applications" (§II-C).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A device capability (what commands/attributes it exposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Capability {
    /// On/off switching.
    Switch,
    /// Temperature readings.
    TemperatureMeasurement,
    /// Motion detection events.
    MotionSensor,
    /// Physical lock/unlock.
    Lock,
    /// Video streaming.
    VideoStream,
    /// Power metering.
    EnergyMeter,
    /// Smoke alarm events.
    SmokeDetector,
}

impl Capability {
    /// Commands this capability accepts.
    pub fn commands(self) -> &'static [&'static str] {
        match self {
            Capability::Switch => &["on", "off"],
            Capability::TemperatureMeasurement => &[],
            Capability::MotionSensor => &[],
            Capability::Lock => &["lock", "unlock"],
            Capability::VideoStream => &["stream", "idle"],
            Capability::EnergyMeter => &[],
            Capability::SmokeDetector => &[],
        }
    }

    /// Attributes this capability reports.
    pub fn attributes(self) -> &'static [&'static str] {
        match self {
            Capability::Switch => &["switch"],
            Capability::TemperatureMeasurement => &["temperature"],
            Capability::MotionSensor => &["motion"],
            Capability::Lock => &["lock"],
            Capability::VideoStream => &["stream"],
            Capability::EnergyMeter => &["power"],
            Capability::SmokeDetector => &["smoke"],
        }
    }

    /// Whether the attribute carries sensitive data (lock state, video) —
    /// drives the event-protection policy of §IV-C2.
    pub fn is_sensitive(self) -> bool {
        matches!(
            self,
            Capability::Lock | Capability::VideoStream | Capability::MotionSensor
        )
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The cloud-side handler holding a device's capabilities and last-known
/// attribute values (the "Device Handlers" subsystem of §II-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceHandler {
    /// Device identity (matches the simulated device's name).
    pub device: Rc<str>,
    /// Declared capabilities.
    pub capabilities: Arc<[Capability]>,
    /// Last reported attribute values, keyed by the attribute as
    /// reported (static for the standard capabilities).
    pub attributes: BTreeMap<Cow<'static, str>, String>,
}

/// Registered device handlers by device name.
pub type DeviceHandlers = BTreeMap<Rc<str>, DeviceHandler>;

impl DeviceHandler {
    /// Creates a handler for `device` with the given capabilities.
    pub fn new(device: &str, capabilities: &[Capability]) -> Self {
        Self::shared(Rc::from(device), Arc::from(capabilities))
    }

    /// Creates a handler that shares the device's name and its
    /// capability table with whoever else holds them.
    pub fn shared(device: Rc<str>, capabilities: Arc<[Capability]>) -> Self {
        DeviceHandler {
            device,
            capabilities,
            attributes: BTreeMap::new(),
        }
    }

    /// Whether the device accepts `command` through any capability.
    pub fn accepts_command(&self, command: &str) -> bool {
        self.capabilities
            .iter()
            .any(|c| c.commands().contains(&command))
    }

    /// Whether the device reports `attribute`.
    pub fn has_attribute(&self, attribute: &str) -> bool {
        self.capabilities
            .iter()
            .any(|c| c.attributes().contains(&attribute))
    }

    /// The capability owning `attribute`, if any.
    pub fn capability_for_attribute(&self, attribute: &str) -> Option<Capability> {
        self.capabilities
            .iter()
            .copied()
            .find(|c| c.attributes().contains(&attribute))
    }

    /// Records a reported attribute value, overwriting a known
    /// attribute's value in place (only a new attribute allocates, and
    /// then only its entry and value: a static attribute name is kept
    /// borrowed).
    pub fn record(&mut self, attribute: Cow<'static, str>, value: &str) {
        match self.attributes.get_mut(&*attribute) {
            Some(current) => value.clone_into(current),
            None => {
                self.attributes.insert(attribute, value.to_string());
            }
        }
    }

    /// Last known value of an attribute.
    pub fn value(&self, attribute: &str) -> Option<&str> {
        self.attributes.get(attribute).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_routing_follows_capabilities() {
        let lock = DeviceHandler::new("front-door", &[Capability::Lock]);
        assert!(lock.accepts_command("unlock"));
        assert!(!lock.accepts_command("stream"));
    }

    #[test]
    fn attribute_lookup() {
        let thermo = DeviceHandler::new(
            "thermostat",
            &[Capability::TemperatureMeasurement, Capability::Switch],
        );
        assert!(thermo.has_attribute("temperature"));
        assert!(thermo.has_attribute("switch"));
        assert!(!thermo.has_attribute("lock"));
        assert_eq!(
            thermo.capability_for_attribute("temperature"),
            Some(Capability::TemperatureMeasurement)
        );
    }

    #[test]
    fn sensitivity_classification() {
        assert!(Capability::Lock.is_sensitive());
        assert!(Capability::VideoStream.is_sensitive());
        assert!(!Capability::TemperatureMeasurement.is_sensitive());
    }

    #[test]
    fn attribute_recording() {
        let mut h = DeviceHandler::new("lamp", &[Capability::Switch]);
        assert_eq!(h.value("switch"), None);
        h.record("switch".into(), "on");
        assert_eq!(h.value("switch"), Some("on"));
        h.record("switch".into(), "off");
        assert_eq!(h.value("switch"), Some("off"));
    }
}
