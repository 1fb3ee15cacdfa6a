//! The scripted WAN attacker of the experiment homes: one node that
//! replays a chosen §IV attack against a home from outside, plus the
//! passive sink its botnet arm floods. The fleet (`xlf-fleet`) and the
//! single-home scenarios (`xlf-bench`) both build their attacked homes
//! with [`install`].
//!
//! Every arm fires from one timer at [`ATTACK_AT_S`] and sends through
//! the home gateway ([`AttackPhase::Wire`]), except
//! [`HomeAttack::SpoofedEvents`], which fires at the cloud
//! ([`AttackPhase::Cloud`]).

use crate::catalog::{AttackPhase, HomeAttack};
use crate::mirai::CNC_SIGNATURES;
use std::rc::Rc;
use xlf_device::firmware::{FirmwareImage, Version};
use xlf_simnet::{Body, Context, Duration, Medium, Network, Node, NodeId, Packet, Payload};

/// When every scripted attack fires (s of simulated time): 60 s after
/// the experiment homes' learning window closes (`LEARNING_END_S` in
/// `xlf_fleet::spec`).
pub const ATTACK_AT_S: u64 = 180;

/// The name [`HomeAttack::DnsPoison`] spoofs: the vendor hub every home
/// resolves (`VENDOR_DNS_NAME` in `xlf_core::framework`).
pub const POISONED_NAME: &str = "hub.vendor.example";

const TIMER_GO: u64 = 900;
const TIMER_FLOOD_ORDER: u64 = 901;

/// WAN attacker node replaying one [`HomeAttack`]'s arm:
/// * [`HomeAttack::BotnetRecruit`]: a default-credential login carrying
///   the C&C bootstrap string, then, 20 s later, an order to flood the
///   victim sink.
/// * [`HomeAttack::BufferOverflow`]: three oversized commands, one per
///   second (exploit attempts rarely come alone).
/// * [`HomeAttack::FirmwareTamper`]: three unsigned malicious OTA images,
///   one per second.
/// * [`HomeAttack::Replay`]: twenty window-open commands, one per second.
/// * [`HomeAttack::DnsPoison`]: thirty spoofed DNS responses for
///   [`POISONED_NAME`], one per second, each with a guessed transaction
///   id.
/// * [`HomeAttack::SpoofedEvents`]: ten spoofed high-temperature events
///   fired at the cloud at once.
pub struct ScriptedAttacker {
    attack: HomeAttack,
    gateway: NodeId,
    cloud: NodeId,
    victim: NodeId,
}

impl Node for ScriptedAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(ATTACK_AT_S), TIMER_GO);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let gw = self.gateway;
        // Every wire arm addresses the device its attack targets.
        let target: Rc<str> = self.attack.target().unwrap_or_default().into();
        let device = || Some(Rc::clone(&target));
        match (tag, self.attack) {
            (TIMER_GO, HomeAttack::BotnetRecruit) => {
                let (device, user, pass) = (device(), "admin", "admin");
                send(
                    ctx,
                    gw,
                    Body::Login { device, user, pass },
                    CNC_SIGNATURES[0],
                    0,
                );
                ctx.set_timer(Duration::from_secs(20), TIMER_FLOOD_ORDER);
            }
            (TIMER_FLOOD_ORDER, HomeAttack::BotnetRecruit) => {
                let order = Body::AttackCmd {
                    device: device(),
                    target: self.victim,
                    count: 300,
                };
                send(ctx, gw, order, CNC_SIGNATURES[1], 0);
            }
            (TIMER_GO, HomeAttack::BufferOverflow) => {
                for i in 0..3 {
                    // The exploit is the payload; the command word is empty.
                    let (device, command) = (device(), "".into());
                    send(ctx, gw, Body::Cmd { device, command }, [0x90u8; 300], i);
                }
            }
            (TIMER_GO, HomeAttack::FirmwareTamper) => {
                let image = FirmwareImage::unsigned(
                    Version(9, 9, 9),
                    "mallory",
                    b"BOTNET implant".to_vec(),
                );
                for i in 0..3 {
                    let ota = Body::Ota { device: device() };
                    send(ctx, gw, ota, image.to_bytes(), i);
                }
            }
            (TIMER_GO, HomeAttack::Replay) => {
                for i in 0..20 {
                    let (device, command) = (device(), "on".into());
                    send(ctx, gw, Body::Cmd { device, command }, *b"on", i);
                }
            }
            (TIMER_GO, HomeAttack::DnsPoison) => {
                // Off-path: the attacker cannot see the resolver's txids,
                // so it guesses.
                for i in 0..30 {
                    let spoof = Body::DnsResponse {
                        device: Rc::clone(&target),
                        name: POISONED_NAME,
                        value: "n666",
                        txid: 40_000 + 17 * i,
                    };
                    send(ctx, gw, spoof, *b"A 6.6.6.6", i.into());
                }
            }
            (TIMER_GO, HomeAttack::SpoofedEvents) => {
                // Impersonates the thermostat, whose heat opens the
                // target window through the automation.
                for i in 0..10 {
                    let spoof = Body::SpoofedEvent {
                        device: "thermo".into(),
                        attribute: "temperature".into(),
                        value: format!("{}", 95 + i),
                    };
                    send(ctx, self.cloud, spoof, [], 0);
                }
            }
            _ => {}
        }
    }
}

/// Sends `body` carrying `payload` to `dst`, `after_s` seconds from now.
fn send(ctx: &mut Context<'_>, dst: NodeId, body: Body, payload: impl Into<Payload>, after_s: u64) {
    let packet = Packet::new(ctx.id(), dst, body, payload);
    ctx.send_after(dst, packet, Duration::from_secs(after_s));
}

/// Passive WAN sink standing in for a DDoS victim.
pub struct VictimSink;
impl Node for VictimSink {}

/// For an attack with a scripted arm ([`HomeAttack::is_active`]), adds a
/// [`VictimSink`] and a [`ScriptedAttacker`] replaying it, each on a
/// loss-free WAN link to `gateway`, links the attacker to `cloud` too
/// when the arm fires at the cloud, and returns the attacker's id. Any
/// other attack adds nothing.
pub fn install(
    net: &mut Network,
    gateway: NodeId,
    cloud: NodeId,
    attack: HomeAttack,
) -> Option<NodeId> {
    if !attack.is_active() {
        return None;
    }
    let wan = Medium::Wan.link().with_loss(0.0);
    let victim = net.add_node(Box::new(VictimSink));
    net.connect(victim, gateway, wan);
    let attacker = net.add_node(Box::new(ScriptedAttacker {
        attack,
        gateway,
        cloud,
        victim,
    }));
    net.connect(attacker, gateway, wan);
    if attack.phase() == Some(AttackPhase::Cloud) {
        net.connect(attacker, cloud, wan);
    }
    Some(attacker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_cloud::smartapp::{PermissionModel, SmartApp};
    use xlf_cloud::{Capability, CloudNode, DeviceHandler, EventPolicy, SmartCloud};
    use xlf_simnet::observer::RecordingTap;
    use xlf_simnet::SimTime;

    /// What one arm puts on the wire: `(kind, send time in s, sent to the
    /// cloud)` per packet, in send order.
    type Sent = Vec<(&'static str, u64, bool)>;

    /// Runs `attack`'s arm against a sink gateway and the cloud node
    /// `cloud` builds for that gateway, its hub. Returns what the
    /// attacker sent and the kinds of what the cloud sent.
    fn run(
        attack: HomeAttack,
        cloud: impl FnOnce(NodeId) -> Box<dyn Node>,
    ) -> (Sent, Vec<&'static str>) {
        let mut net = Network::new(1);
        let gateway = net.add_node(Box::new(VictimSink));
        let cloud = net.add_node(cloud(gateway));
        net.connect(cloud, gateway, Medium::Wan.link().with_loss(0.0));
        let attacker = install(&mut net, gateway, cloud, attack).expect("a scripted arm");
        let (tap, records) = RecordingTap::new();
        net.add_tap(Box::new(tap));
        net.run_until(SimTime::from_secs(400));
        let records = records.borrow();
        let sent = records
            .iter()
            .filter(|r| r.src == attacker)
            .map(|r| {
                assert!(r.dst == gateway || r.dst == cloud);
                let at_s = r.at.as_micros() / 1_000_000;
                (r.ground_truth_kind, at_s, r.dst == cloud)
            })
            .collect();
        let from_cloud = records.iter().filter(|r| r.src == cloud);
        (sent, from_cloud.map(|r| r.ground_truth_kind).collect())
    }

    fn schedule(attack: HomeAttack) -> Sent {
        run(attack, |_| Box::new(VictimSink)).0
    }

    fn each_second(kind: &'static str, from: u64, n: u64) -> Sent {
        (from..from + n).map(|t| (kind, t, false)).collect()
    }

    #[test]
    fn botnet_logs_in_then_orders_the_flood_20s_later() {
        assert_eq!(
            schedule(HomeAttack::BotnetRecruit),
            vec![("login", 180, false), ("attack-cmd", 200, false),]
        );
    }

    #[test]
    fn overflow_sends_three_smashes_a_second_apart() {
        assert_eq!(
            schedule(HomeAttack::BufferOverflow),
            each_second("cmd", 180, 3)
        );
    }

    #[test]
    fn firmware_tamper_pushes_three_images_a_second_apart() {
        assert_eq!(
            schedule(HomeAttack::FirmwareTamper),
            each_second("ota", 180, 3)
        );
    }

    #[test]
    fn replay_sends_twenty_commands_a_second_apart() {
        assert_eq!(schedule(HomeAttack::Replay), each_second("cmd", 180, 20));
    }

    #[test]
    fn dns_poison_sends_thirty_spoofs_a_second_apart() {
        assert_eq!(
            schedule(HomeAttack::DnsPoison),
            each_second("dns-response", 180, 30)
        );
    }

    /// A cloud running the §IV-C3 window automation under `policy`.
    fn window_cloud(policy: EventPolicy, hub: NodeId) -> Box<dyn Node> {
        let mut cloud = SmartCloud::new(policy, PermissionModel::Scoped, b"hub secret");
        cloud.register_device(DeviceHandler::new(
            "thermo",
            &[Capability::TemperatureMeasurement],
        ));
        cloud.register_device(DeviceHandler::new("window", &[Capability::Switch]));
        cloud.install_app(SmartApp::auto_window());
        Box::new(CloudNode::new(cloud, hub))
    }

    #[test]
    fn spoofed_events_go_to_the_cloud_at_once_and_open_only_a_permissive_window() {
        for (policy, opens) in [
            (EventPolicy::permissive(), true),
            (EventPolicy::hardened(), false),
        ] {
            let (sent, from_cloud) =
                run(HomeAttack::SpoofedEvents, |hub| window_cloud(policy, hub));
            assert_eq!(sent, vec![("spoofed-event", 180, true); 10]);
            // The window-open command goes to the hub.
            assert_eq!(from_cloud.contains(&"cmd"), opens, "{policy:?}");
        }
    }

    #[test]
    fn attacks_without_a_scripted_arm_install_nothing() {
        for attack in HomeAttack::ALL.into_iter().filter(|a| !a.is_active()) {
            let mut net = Network::new(1);
            let gateway = net.add_node(Box::new(VictimSink));
            assert_eq!(install(&mut net, gateway, gateway, attack), None);
        }
    }
}
