//! The event subsystem: devices report attribute changes as events; apps
//! subscribe to them.
//!
//! Reproduces the two flaws of Fernandes et al. the paper cites (§IV-C2):
//! *insufficient sensitive event data protection* (any app subscribed to
//! an event name receives sensitive payloads) and *unprotected event
//! integrity* ("malicious actors could easily launch spoofing event
//! attacks"). [`EventPolicy`] selects the vulnerable or hardened posture.

use crate::capability::Capability;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::mac::CbcMac;
use xlf_simnet::SimTime;

/// One attribute-change event. It keeps what it stores only: the
/// device's shared name, a static attribute name for the standard
/// sensor kinds, and its own copy of the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloudEvent {
    /// When the cloud received it.
    pub at: SimTime,
    /// Originating device.
    pub device: Rc<str>,
    /// Attribute that changed.
    pub attribute: Cow<'static, str>,
    /// New value.
    pub value: String,
    /// Integrity tag under the device's event key (one SPECK block), if
    /// the sender signed.
    pub mac: Option<[u8; 16]>,
}

impl CloudEvent {
    /// Creates an unsigned event from text (the cloud's ingest path
    /// builds its events from the device's shared name instead).
    pub fn new(at: SimTime, device: &str, attribute: &str, value: &str) -> Self {
        CloudEvent {
            at,
            device: Rc::from(device),
            attribute: Cow::Owned(attribute.to_string()),
            value: value.to_string(),
            mac: None,
        }
    }

    /// The MAC input `device ‖ 0 ‖ attribute ‖ 0 ‖ value ‖ 0 ‖ at`
    /// (`at` as big-endian microseconds), as parts the MAC streams over.
    fn mac_input<'e>(&'e self, at: &'e [u8; 8]) -> [&'e [u8]; 7] {
        [
            self.device.as_bytes(),
            &[0],
            self.attribute.as_bytes(),
            &[0],
            self.value.as_bytes(),
            &[0],
            at,
        ]
    }

    /// Signs the event under its device's event cipher.
    fn signed(mut self, cipher: &Speck128) -> Self {
        let at = self.at.as_micros().to_be_bytes();
        let mut tag = [0; 16];
        CbcMac::new(cipher)
            .tag_parts_into(&self.mac_input(&at), &mut tag)
            .expect("a SPECK block is 16 bytes");
        self.mac = Some(tag);
        self
    }

    /// Verifies the integrity tag under its device's event cipher.
    fn verify(&self, cipher: &Speck128) -> bool {
        let Some(tag) = &self.mac else { return false };
        let at = self.at.as_micros().to_be_bytes();
        CbcMac::new(cipher)
            .verify_parts(&self.mac_input(&at), &tag[..])
            .expect("verification cannot fail")
    }
}

/// Event-handling posture of the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventPolicy {
    /// Require a valid integrity MAC on device events (blocks spoofing).
    pub require_integrity: bool,
    /// Restrict sensitive-capability events to apps holding a sensitive
    /// grant for that device.
    pub protect_sensitive: bool,
}

impl EventPolicy {
    /// The vulnerable SmartThings-2016 posture the paper describes.
    pub fn permissive() -> Self {
        EventPolicy {
            require_integrity: false,
            protect_sensitive: false,
        }
    }

    /// The hardened XLF posture.
    pub fn hardened() -> Self {
        EventPolicy {
            require_integrity: true,
            protect_sensitive: true,
        }
    }
}

/// Why an event or delivery was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventRejection {
    /// Missing or invalid MAC under `require_integrity`.
    IntegrityFailure,
}

/// A subscription: app → (device, attribute) pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Subscription {
    /// The app's number: its install position in a cloud (see
    /// [`EventBus::subscribe`] for a bus used on its own).
    app: usize,
    /// The app's name.
    name: Arc<str>,
    device: String,
    attribute: String,
    /// Whether the app holds a sensitive-data grant for this device.
    sensitive_grant: bool,
}

impl Subscription {
    pub(crate) fn new(
        app: usize,
        name: &str,
        device: &str,
        attribute: &str,
        sensitive_grant: bool,
    ) -> Self {
        Subscription {
            app,
            name: Arc::from(name),
            device: device.to_string(),
            attribute: attribute.to_string(),
            sensitive_grant,
        }
    }
}

/// The cloud's event bus.
#[derive(Debug)]
pub struct EventBus {
    pub(crate) policy: EventPolicy,
    hub_secret: Arc<[u8]>,
    /// Each device's event cipher, derived from the hub secret on first
    /// use.
    event_ciphers: BTreeMap<String, Speck128>,
    /// Shared with every bus started from the same subscriptions until
    /// this one subscribes anew.
    subscriptions: Arc<Vec<Subscription>>,
    /// Events published (accepted by policy) so far.
    pub published: u64,
    /// Events rejected by policy, for monitoring.
    pub rejected: Vec<(CloudEvent, EventRejection)>,
}

/// An event the bus accepted, and the subscriptions it reaches.
#[derive(Debug)]
pub struct Delivery<'b> {
    event: CloudEvent,
    subscriptions: &'b [Subscription],
    /// Whether only subscriptions with a sensitive grant receive it.
    grant_only: bool,
}

impl Delivery<'_> {
    /// The accepted event.
    pub fn event(&self) -> &CloudEvent {
        &self.event
    }

    /// The numbers of the apps the event reaches, in subscription order.
    pub fn apps(&self) -> impl Iterator<Item = usize> + '_ {
        let event = &self.event;
        self.subscriptions
            .iter()
            .filter(move |sub| {
                *sub.device == *event.device
                    && sub.attribute == event.attribute
                    && (sub.sensitive_grant || !self.grant_only)
            })
            .map(|sub| sub.app)
    }
}

impl EventBus {
    /// Creates a bus with the given policy and hub secret.
    pub fn new(policy: EventPolicy, hub_secret: &[u8]) -> Self {
        Self::with_subscriptions(policy, Arc::from(hub_secret), Arc::default())
    }

    /// A bus under `hub_secret` starting from `subscriptions`, both
    /// shared until this bus subscribes anew.
    pub(crate) fn with_subscriptions(
        policy: EventPolicy,
        hub_secret: Arc<[u8]>,
        subscriptions: Arc<Vec<Subscription>>,
    ) -> Self {
        EventBus {
            policy,
            hub_secret,
            event_ciphers: BTreeMap::new(),
            subscriptions,
            published: 0,
            rejected: Vec::new(),
        }
    }

    /// Subscribes an app to (device, attribute) events. `sensitive_grant`
    /// marks whether the installation granted sensitive access. The app
    /// keeps the number of the first subscription under its name;
    /// a new name takes the next number after every one in use.
    pub fn subscribe(&mut self, app: &str, device: &str, attribute: &str, sensitive_grant: bool) {
        let number = match self.subscriptions.iter().find(|sub| *sub.name == *app) {
            Some(sub) => sub.app,
            None => self
                .subscriptions
                .iter()
                .map(|sub| sub.app + 1)
                .max()
                .unwrap_or(0),
        };
        let subscription = Subscription::new(number, app, device, attribute, sensitive_grant);
        self.extend_subscriptions([subscription]);
    }

    /// Whether the bus holds `subscriptions` by reference.
    pub(crate) fn has_subscriptions(&self, subscriptions: &Arc<Vec<Subscription>>) -> bool {
        Arc::ptr_eq(&self.subscriptions, subscriptions)
    }

    /// Adds `subscriptions`, copying shared ones first.
    pub(crate) fn extend_subscriptions(
        &mut self,
        subscriptions: impl IntoIterator<Item = Subscription>,
    ) {
        Arc::make_mut(&mut self.subscriptions).extend(subscriptions);
    }

    /// Publishes an event, applying the policy: the delivery of the
    /// accepted event to its subscribers, or the rejection.
    pub fn publish(
        &mut self,
        event: CloudEvent,
        capability: Option<Capability>,
    ) -> Result<Delivery<'_>, EventRejection> {
        if self.policy.require_integrity && !self.verify(&event) {
            self.rejected
                .push((event, EventRejection::IntegrityFailure));
            return Err(EventRejection::IntegrityFailure);
        }
        self.published += 1;
        let sensitive = capability.is_some_and(|c| c.is_sensitive());
        Ok(Delivery {
            event,
            subscriptions: &self.subscriptions,
            grant_only: self.policy.protect_sensitive && sensitive,
        })
    }

    /// The event cipher of `device`: SPECK under
    /// `derive_key(hub_secret, "event-key/{device}")`, derived once per
    /// bus.
    fn event_cipher(&mut self, device: &str) -> &Speck128 {
        if !self.event_ciphers.contains_key(device) {
            let key = derive_key(&self.hub_secret, &format!("event-key/{device}"), 16)
                .expect("non-empty hub secret");
            let cipher = Speck128::new(&key).expect("16-byte key");
            self.event_ciphers.insert(device.to_string(), cipher);
        }
        &self.event_ciphers[device]
    }

    /// Signs `event` under its device's event key, as the hub does for
    /// reports arriving over the trusted channel.
    pub fn sign(&mut self, event: CloudEvent) -> CloudEvent {
        let cipher = self.event_cipher(&event.device);
        event.signed(cipher)
    }

    /// Whether `event` carries a valid tag under its device's event key.
    pub fn verify(&mut self, event: &CloudEvent) -> bool {
        event.verify(self.event_cipher(&event.device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUB: &[u8] = b"hub secret";

    fn signed_event(value: &str) -> CloudEvent {
        EventBus::new(EventPolicy::hardened(), HUB).sign(CloudEvent::new(
            SimTime::from_secs(1),
            "front-door",
            "lock",
            value,
        ))
    }

    /// The numbers of the apps `event` reaches, or the rejection.
    fn deliver(
        bus: &mut EventBus,
        event: CloudEvent,
        capability: Capability,
    ) -> Result<Vec<usize>, EventRejection> {
        bus.publish(event, Some(capability))
            .map(|delivery| delivery.apps().collect())
    }

    #[test]
    fn subscribed_apps_receive_events() {
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        bus.subscribe("notifier", "front-door", "lock", false);
        let delivery = bus
            .publish(signed_event("unlocked"), Some(Capability::Lock))
            .unwrap();
        assert_eq!(delivery.apps().collect::<Vec<_>>(), [0]);
        assert_eq!(delivery.event().value, "unlocked");
    }

    #[test]
    fn apps_are_numbered_by_name_in_first_subscribe_order() {
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        bus.subscribe("first", "front-door", "state", false);
        bus.subscribe("second", "front-door", "lock", false);
        bus.subscribe("first", "front-door", "lock", false);
        let event = signed_event("unlocked");
        assert_eq!(deliver(&mut bus, event, Capability::Lock), Ok(vec![1, 0]));
    }

    #[test]
    fn permissive_bus_accepts_spoofed_events() {
        // The Fernandes et al. event-spoofing flaw.
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        bus.subscribe("auto-open", "front-door", "lock", false);
        let spoofed = CloudEvent::new(SimTime::ZERO, "front-door", "lock", "unlocked");
        assert_eq!(deliver(&mut bus, spoofed, Capability::Lock), Ok(vec![0]));
    }

    #[test]
    fn hardened_bus_rejects_spoofed_events() {
        let mut bus = EventBus::new(EventPolicy::hardened(), HUB);
        bus.subscribe("auto-open", "front-door", "lock", true);
        let spoofed = CloudEvent::new(SimTime::ZERO, "front-door", "lock", "unlocked");
        assert_eq!(
            deliver(&mut bus, spoofed, Capability::Lock),
            Err(EventRejection::IntegrityFailure)
        );
        assert_eq!(bus.rejected.len(), 1);
        // Legitimate signed events still flow.
        let signed = signed_event("locked");
        assert_eq!(deliver(&mut bus, signed, Capability::Lock), Ok(vec![0]));
    }

    #[test]
    fn sensitive_protection_requires_a_grant() {
        let mut bus = EventBus::new(EventPolicy::hardened(), HUB);
        bus.subscribe("nosy-app", "front-door", "lock", false);
        bus.subscribe("trusted-app", "front-door", "lock", true);
        let signed = signed_event("unlocked");
        assert_eq!(deliver(&mut bus, signed, Capability::Lock), Ok(vec![1]));
    }

    #[test]
    fn permissive_bus_leaks_sensitive_events_to_any_subscriber() {
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        bus.subscribe("nosy-app", "front-door", "lock", false);
        let signed = signed_event("unlocked");
        assert_eq!(deliver(&mut bus, signed, Capability::Lock), Ok(vec![0]));
    }

    #[test]
    fn accepted_events_are_counted() {
        let mut bus = EventBus::new(EventPolicy::permissive(), HUB);
        for i in 0..5 {
            bus.publish(
                CloudEvent::new(SimTime::from_secs(i), "t", "temperature", "70"),
                Some(Capability::TemperatureMeasurement),
            )
            .unwrap();
        }
        assert_eq!(bus.published, 5);
    }

    #[test]
    fn a_cloud_signs_trusted_reports_only_when_its_bus_requires_integrity() {
        use crate::cloud::SmartCloud;
        use crate::smartapp::PermissionModel;
        for (policy, ciphers) in [(EventPolicy::permissive(), 0), (EventPolicy::hardened(), 1)] {
            let mut cloud = SmartCloud::new(policy, PermissionModel::Permissive, HUB);
            let thermo = Rc::from("thermo");
            cloud.ingest(
                SimTime::ZERO,
                thermo,
                Cow::Borrowed("temperature"),
                "70.00",
                true,
            );
            assert_eq!(cloud.bus.published, 1, "{policy:?}");
            assert_eq!(cloud.bus.event_ciphers.len(), ciphers, "{policy:?}");
        }
    }

    #[test]
    fn tampered_event_fails_verification() {
        let mut e = signed_event("locked");
        let mut bus = EventBus::new(EventPolicy::hardened(), HUB);
        assert!(bus.verify(&e));
        e.value = "unlocked".to_string();
        assert!(!bus.verify(&e));
    }
}
