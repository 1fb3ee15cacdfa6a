//! Multi-step attack-chain integration tests: the composed scenarios the
//! paper's threat analysis describes, exercised across crates.

use xlf::attacks::device::upnp_sniff;
use xlf::attacks::mitm::{mitm_attempt, MitmOutcome};
use xlf::attacks::replay::{is_replay_rejection, replay_frame};
use xlf::protocols::ieee802154::{FrameReceiver, FrameSender, SecurityLevel};
use xlf::protocols::ssdp::SsdpMessage;
use xlf::protocols::tls::{Role, Session};

/// The Table II pivot chain: coffee machine leaks the WiFi password over
/// plaintext SSDP → the attacker derives the oven's PSK → MitM on the
/// oven channel succeeds. Closing the first link (no secret in SSDP)
/// breaks the whole chain.
#[test]
fn upnp_leak_enables_the_oven_mitm_pivot() {
    // Step 1: the vulnerable setup broadcast.
    let setup = vec![
        SsdpMessage::notify("urn:acme:device:coffeemaker:1", "uuid:cafe")
            .with_field("X-Setup-Wifi-Pass", "home-network-password-123"),
    ];
    let leaked = upnp_sniff(&setup);
    assert_eq!(leaked.len(), 1);
    let leaked_psk = leaked[0].1.as_bytes();

    // Step 2: the oven's session is keyed from the same WiFi password.
    let mut oven = Session::establish(b"home-network-password-123", "oven", Role::Client);
    let record = oven.seal(b"oven: disable safety interlock").unwrap();

    // Step 3: the attacker reads and forges with the leaked key.
    let outcome = mitm_attempt(leaked_psk, "oven", 0, &record, None);
    assert_eq!(
        outcome,
        MitmOutcome::Read(b"oven: disable safety interlock".to_vec())
    );

    // Mitigated chain: the hardened setup discloses nothing, so the
    // attacker has only guesses — and stays blind.
    let hardened_setup = vec![
        SsdpMessage::notify("urn:acme:device:coffeemaker:1", "uuid:cafe")
            .with_field("LOCATION", "https://10.0.0.9/secure-setup"),
    ];
    assert!(upnp_sniff(&hardened_setup).is_empty());
    let blind = mitm_attempt(b"attacker guess", "oven", 0, &record, None);
    assert_eq!(blind, MitmOutcome::Blind);
}

/// Replay end to end: a captured "unlock" frame is worthless against a
/// receiver with replay state, across both the 802.15.4 and TLS layers.
#[test]
fn captured_unlock_frames_cannot_be_replayed() {
    let key = b"zigbee network key";
    let mut lock_remote = FrameSender::new(0x0A, key);
    let mut lock = FrameReceiver::new(key, &[0x0A]);

    // The legitimate unlock, captured by the attacker in passing.
    let unlock = lock_remote.secure(SecurityLevel::EncMic, b"lock: open");
    assert_eq!(lock.receive(&unlock).unwrap(), b"lock: open");

    // Hours later the attacker replays it at the door.
    assert_eq!(replay_frame(&mut lock, &unlock, 25), 0);
    assert!(is_replay_rejection(&lock.receive(&unlock).unwrap_err()));

    // The same property at the TLS layer.
    let mut app = Session::establish(b"psk", "lock-session", Role::Client);
    let mut cloud = Session::establish(b"psk", "lock-session", Role::Server);
    let record = app.seal(b"unlock").unwrap();
    assert!(cloud.open(&record).is_ok());
    assert!(cloud.open(&record).is_err());
}

/// The §IV-C2 over-privileged app is stopped by the scoped permission
/// model but sails through the permissive one — end to end through the
/// cloud's own execution pipeline.
#[test]
fn overprivileged_app_contained_by_scoped_permissions() {
    use xlf::attacks::overprivilege::malicious_unlock_app;
    use xlf::cloud::smartapp::PermissionModel;
    use xlf::cloud::{Capability, DeviceHandler, EventPolicy, SmartCloud};
    use xlf::simnet::SimTime;

    // (unlocks dispatched, unlocks denied) per model; the denial is
    // recorded for the Core.
    for (model, expected) in [
        (PermissionModel::Permissive, (1, 0)),
        (PermissionModel::Scoped, (0, 1)),
    ] {
        let mut cloud = SmartCloud::new(EventPolicy::permissive(), model, b"hub secret");
        cloud.register_device(DeviceHandler::new(
            "hall-motion",
            &[Capability::MotionSensor],
        ));
        cloud.register_device(DeviceHandler::new("lamp", &[Capability::Switch]));
        cloud.register_device(DeviceHandler::new("front-door", &[Capability::Lock]));
        cloud.install_app(malicious_unlock_app("hall-motion", "lamp", "front-door"));

        // Motion stops — the hidden rule tries to unlock the door. The
        // app's two rules watch one attribute, so it must still see the
        // event, and propose the unlock, exactly once.
        let device = std::rc::Rc::from("hall-motion");
        let actions = cloud.ingest(SimTime::from_secs(1), device, "motion".into(), "0", true);
        let is_unlock = |a: &xlf::cloud::Action| a.device == "front-door" && a.command == "unlock";
        let unlocks = actions.iter().filter(|a| is_unlock(a)).count();
        let denials = cloud
            .denied_actions
            .iter()
            .filter(|(_, a)| is_unlock(a))
            .count();
        assert_eq!((unlocks, denials), expected, "model {model:?}");
    }
}

/// The DPI rule set in xlf-core matches the C&C signatures the attacks
/// crate actually embeds in its traffic (the contract the encrypted-DPI
/// experiment depends on).
#[test]
fn dpi_signatures_agree_with_the_attack_library() {
    let core_side = xlf::core::dpi::xlf_attacks_signatures();
    let attack_side = xlf::attacks::mirai::CNC_SIGNATURES;
    assert_eq!(core_side.len(), attack_side.len());
    for (a, b) in core_side.iter().zip(attack_side.iter()) {
        assert_eq!(a, b, "signature lists diverged");
    }
}
