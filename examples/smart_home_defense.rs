//! A tour of the per-layer mechanisms working on their own substrates:
//! the §IV-C3 spoofed-heat scenario (service layer), gateway OTA vetting
//! (device layer), and hardened DNS under a poisoning attempt (network
//! layer) — each shown with its vulnerable counterpart.
//!
//! ```sh
//! cargo run --example smart_home_defense
//! ```

use xlf::attacks::dnspoison::{poison, Position};
use xlf::cloud::smartapp::{PermissionModel, SmartApp};
use xlf::cloud::{Capability, CloudEvent, EventBus, EventPolicy};
use xlf::core::updatevet::UpdateVetter;
use xlf::device::firmware::{FirmwareImage, Version};
use xlf::protocols::dns::{Resolver, ResolverConfig};
use xlf::simnet::SimTime;

fn service_layer_demo() {
    println!("=== Service layer: spoofed-event attack (§IV-C2/C3) ===");
    // The automation: open the window when the thermostat reads > 80 °F.
    let app = SmartApp::auto_window();
    let spoof = CloudEvent::new(SimTime::ZERO, "thermo", "temperature", "95");

    for (label, policy) in [
        (
            "permissive cloud (SmartThings 2016)",
            EventPolicy::permissive(),
        ),
        ("hardened cloud (event integrity)", EventPolicy::hardened()),
    ] {
        let mut bus = EventBus::new(policy, b"hub secret");
        for (device, attribute) in app.subscriptions() {
            bus.subscribe(&app.name, &device, &attribute, false);
        }
        let delivered = bus.publish(spoof.clone(), Some(Capability::TemperatureMeasurement));
        let fired = delivered
            .map(|_| {
                bus.drain(&app.name)
                    .iter()
                    .flat_map(|e| app.execute(e))
                    .count()
            })
            .unwrap_or(0);
        println!("  {label}: window-open actions fired = {fired}");
    }
    let _ = PermissionModel::Scoped;
}

fn device_layer_demo() {
    println!("\n=== Device layer: OTA vetting at the gateway (§IV-A4) ===");
    let mut vetter = UpdateVetter::new(&[b"BOTNET"]);
    vetter.trust_vendor("acme", b"acme vendor secret");

    let clean = FirmwareImage::signed(
        Version(2, 0, 0),
        "acme",
        b"v2 ok".to_vec(),
        b"acme vendor secret",
    );
    let unsigned = FirmwareImage::unsigned(Version(9, 9, 9), "mallory", b"BOTNET implant".to_vec());

    println!(
        "  vendor-signed clean image : {:?}",
        vetter
            .vet("cam", &clean.to_bytes(), SimTime::ZERO)
            .map(|i| i.version)
    );
    println!(
        "  unsigned BOTNET image     : {:?}",
        vetter.vet("cam", &unsigned.to_bytes(), SimTime::ZERO).err()
    );
}

fn network_layer_demo() {
    println!("\n=== Network layer: DNS cache poisoning (§IV-A3) ===");
    let mut naive = Resolver::new(ResolverConfig::naive());
    let naive_result = poison(
        &mut naive,
        "hub.vendor.example",
        Position::OffPath { attempts: 1 },
        1,
        SimTime::ZERO,
    );
    println!(
        "  naive IoT resolver, 1 blind spoof : poisoned = {}",
        naive_result.poisoned
    );

    let mut hardened = Resolver::new(ResolverConfig::hardened());
    hardened.add_trust_anchor("vendor.example", b"zone secret");
    let hardened_result = poison(
        &mut hardened,
        "hub.vendor.example",
        Position::OnPath,
        1,
        SimTime::ZERO,
    );
    println!(
        "  XLF hardened resolver, on-path    : poisoned = {}",
        hardened_result.poisoned
    );
}

fn main() {
    service_layer_demo();
    device_layer_demo();
    network_layer_demo();
    println!(
        "\nEach layer closes its own hole; the cross-layer Core (see the\n\
         botnet_takedown example) is what catches attacks that no single\n\
         layer can confirm alone."
    );
}
