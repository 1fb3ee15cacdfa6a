//! Property-based tests over the service layer: token lifecycle, event
//! integrity, recipe thresholds, and API-gateway authorization under
//! arbitrary inputs.

use proptest::prelude::*;
use xlf_cloud::events::{CloudEvent, EventBus, EventPolicy};
use xlf_cloud::ifttt::{Recipe, RecipeAction, RecipeEngine, ServiceTrigger, WebService};
use xlf_cloud::oauth::TokenService;
use xlf_cloud::Capability;
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::mac::CbcMac;
use xlf_simnet::{Duration, SimTime};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,15}"
}

/// The reference event tag: CBC-MAC over the event's canonical bytes
/// under a key derived afresh from the hub secret, composed from the
/// public primitives with no cache.
fn reference_tag(hub: &[u8], device: &str, attribute: &str, value: &str, at: SimTime) -> Vec<u8> {
    let key = derive_key(hub, &format!("event-key/{device}"), 16).unwrap();
    let cipher = Speck128::new(&key).unwrap();
    let mut bytes = Vec::new();
    for field in [device, attribute, value] {
        bytes.extend_from_slice(field.as_bytes());
        bytes.push(0);
    }
    bytes.extend_from_slice(&at.as_micros().to_be_bytes());
    CbcMac::new(&cipher).tag(&bytes).unwrap()
}

#[test]
fn event_tag_known_answer() {
    // Pinned from the per-event key derivation, so the cached signing
    // path and the reference cannot drift together.
    let at = SimTime::from_secs(1);
    let mut bus = EventBus::new(EventPolicy::hardened(), b"hub secret");
    let tag = bus
        .sign(CloudEvent::new(at, "front-door", "lock", "unlocked"))
        .mac
        .unwrap();
    assert_eq!(
        tag.to_vec(),
        reference_tag(b"hub secret", "front-door", "lock", "unlocked", at)
    );
    let hex: String = tag.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "c173636f1eec42fbdfb5b38e355854f6");
}

/// Strings of 1- to 4-byte UTF-8 characters.
fn utf8_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec!['a', 'Z', '-', '=', 'é', 'ß', '→', '€', '🦀']),
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    /// `EventBus::sign` streams the event fields into the CBC-MAC without
    /// building the event bytes; its tag equals the MAC of those bytes for
    /// multi-byte UTF-8 fields at every total length modulo the 16-byte
    /// block, so at each block boundary and one byte either side.
    #[test]
    fn streamed_event_tags_equal_the_mac_of_the_event_bytes(device in utf8_text(),
                                                            attribute in utf8_text(),
                                                            value in utf8_text(),
                                                            at_us in any::<u64>()) {
        let mut bus = EventBus::new(EventPolicy::hardened(), b"hub secret");
        let at = SimTime::from_micros(at_us);
        for extra in 0..=17 {
            let value = format!("{value}{}", "x".repeat(extra));
            let event = bus.sign(CloudEvent::new(at, &device, &attribute, &value));
            let expected = reference_tag(b"hub secret", &device, &attribute, &value, at);
            prop_assert_eq!(event.mac.map(Vec::from), Some(expected));
            prop_assert!(bus.verify(&event));
        }
    }

    /// Tokens validate exactly within their lifetime and scope set.
    #[test]
    fn token_lifecycle(subject in ident(),
                       lifetime_s in 1u64..10_000,
                       check_at in 0u64..20_000,
                       scope_count in 1usize..4) {
        let scopes: Vec<String> = (0..scope_count).map(|i| format!("scope{i}")).collect();
        let scope_refs: Vec<&str> = scopes.iter().map(String::as_str).collect();
        let mut svc = TokenService::new();
        let token = svc.issue(
            &subject,
            &scope_refs,
            SimTime::ZERO,
            Duration::from_secs(lifetime_s),
            false,
        );
        let now = SimTime::from_secs(check_at);
        for scope in &scopes {
            let ok = svc.validate(&token.value, scope, now).is_ok();
            prop_assert_eq!(ok, check_at < lifetime_s);
        }
        // A scope never granted always fails.
        prop_assert!(svc.validate(&token.value, "never-granted", now).is_err());
    }

    /// Revoked tokens never validate again, at any time.
    #[test]
    fn revocation_is_final(check_at in 0u64..10_000) {
        let mut svc = TokenService::new();
        let t = svc.issue("u", &["x"], SimTime::ZERO, Duration::from_secs(9_999), true);
        svc.revoke(&t.value);
        prop_assert!(svc
            .validate(&t.value, "x", SimTime::from_secs(check_at))
            .is_err());
    }

    /// Event signatures bind every field: any mutation invalidates, and
    /// a bus under another hub secret rejects the tag.
    #[test]
    fn event_integrity_binds_fields(device in ident(),
                                    attribute in ident(),
                                    value in ident(),
                                    at_s in 0u64..100_000) {
        let mut bus = EventBus::new(EventPolicy::hardened(), b"hub secret");
        let mut other = EventBus::new(EventPolicy::hardened(), b"other secret");
        let event = bus.sign(CloudEvent::new(SimTime::from_secs(at_s), &device, &attribute, &value));
        prop_assert!(bus.verify(&event));
        prop_assert!(!other.verify(&event));
        let mut m = event.clone();
        m.value.push('!');
        prop_assert!(!bus.verify(&m));
        let mut m = event.clone();
        m.device = format!("{}!", m.device).into();
        prop_assert!(!bus.verify(&m));
    }

    /// Tags from the bus's cached per-device key equal the reference
    /// CBC-MAC under a freshly derived key, across repeated signings of
    /// several devices.
    #[test]
    fn cached_event_tags_equal_reference_mac(devices in prop::collection::vec(ident(), 1..4),
                                             values in prop::collection::vec(ident(), 1..6),
                                             hub in prop::collection::vec(any::<u8>(), 1..24),
                                             at_s in 0u64..100_000) {
        let mut bus = EventBus::new(EventPolicy::hardened(), &hub);
        for value in &values {
            for device in &devices {
                let at = SimTime::from_secs(at_s);
                let event = bus.sign(CloudEvent::new(at, device, "attr", value));
                let expected = reference_tag(&hub, device, "attr", value, at);
                prop_assert_eq!(event.mac.map(Vec::from), Some(expected));
            }
        }
    }

    /// Hardened buses deliver exactly the events signed under their own
    /// hub secret; spoofed (unsigned), tampered and foreign-key events are
    /// always rejected.
    #[test]
    fn hardened_bus_accepts_only_signed(signing in 0u8..4, value in ident()) {
        let mut bus = EventBus::new(EventPolicy::hardened(), b"hub secret");
        let mut foreign = EventBus::new(EventPolicy::hardened(), b"other secret");
        bus.subscribe("app", "dev", "attr", true);
        let event = CloudEvent::new(SimTime::ZERO, "dev", "attr", &value);
        let event = match signing {
            0 => event,
            1 => foreign.sign(event),
            2 => {
                let mut tampered = bus.sign(event);
                tampered.value.push('!');
                tampered
            }
            _ => bus.sign(event),
        };
        let outcome = bus.publish(event, Some(Capability::Switch));
        prop_assert_eq!(outcome.is_ok(), signing == 3);
    }

    /// Recipes fire iff the trigger's service, item, and threshold all
    /// match — for arbitrary thresholds and values.
    #[test]
    fn recipe_threshold_semantics(threshold in -1000.0f64..1000.0,
                                  value in -1000.0f64..1000.0) {
        let mut engine = RecipeEngine::new();
        engine.register_service(WebService {
            name: "svc".to_string(),
            verified: true,
        });
        engine.install(Recipe {
            name: "r".to_string(),
            trigger: ServiceTrigger {
                service: "svc".to_string(),
                item: "item".to_string(),
                above: threshold,
            },
            action: RecipeAction {
                device: "d".to_string(),
                command: "on".to_string(),
            },
        });
        let fired = !engine.feed("svc", "item", value).is_empty();
        prop_assert_eq!(fired, value > threshold);
        // Wrong item never fires.
        prop_assert!(engine.feed("svc", "other", value).is_empty());
    }
}
