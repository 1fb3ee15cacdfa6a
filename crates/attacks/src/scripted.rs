//! The scripted WAN attacker of the experiment homes: one node that
//! replays a chosen §IV attack against a home from outside, plus the
//! passive sink its botnet arm floods. The fleet (`xlf-fleet`) and the
//! single-home scenarios (`xlf-bench`) both build their attacked homes
//! with [`install`].
//!
//! Every arm fires from one timer at [`ATTACK_AT_S`] and sends through
//! the home gateway, except [`ScriptedAttack::SpoofedEvents`],
//! which fires at the cloud (the caller links the attacker to it).

use crate::mirai::CNC_SIGNATURES;
use xlf_device::firmware::{FirmwareImage, Version};
use xlf_simnet::{Context, Duration, Medium, Network, Node, NodeId, Packet};

/// When every scripted attack fires (s of simulated time): 60 s after
/// the experiment homes' learning window closes (`LEARNING_END_S` in
/// `xlf_fleet::spec`).
pub const ATTACK_AT_S: u64 = 180;

const TIMER_GO: u64 = 900;
const TIMER_FLOOD_ORDER: u64 = 901;

/// The attack a [`ScriptedAttacker`] replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScriptedAttack {
    /// Mirai-style recruitment of the weak camera (§IV-B3): a
    /// default-credential login carrying the C&C bootstrap string, then,
    /// 20 s later, an order to flood the victim sink.
    BotnetRecruit,
    /// Three oversized commands exploiting the wall pad's buffer
    /// overflow, one per second (exploit attempts rarely come alone).
    BufferOverflow,
    /// Three unsigned malicious OTA images pushed at the camera, one per
    /// second (Table II firmware tampering).
    FirmwareTamper,
    /// Twenty window-open commands captured during learning, replayed one
    /// per second with no witnessed trigger.
    Replay,
    /// Thirty off-path spoofed DNS responses for the given name, one per
    /// second, each with a guessed transaction id.
    DnsPoison(&'static str),
    /// Ten spoofed high-temperature events fired at the cloud at once
    /// (§IV-C2/C3), to trigger the window automation.
    SpoofedEvents,
}

/// WAN attacker node replaying one [`ScriptedAttack`].
pub struct ScriptedAttacker {
    attack: ScriptedAttack,
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
        match (tag, self.attack) {
            (TIMER_GO, ScriptedAttack::BotnetRecruit) => {
                let login = Packet::new(ctx.id(), gw, "login", CNC_SIGNATURES[0].to_vec())
                    .with_meta("device", "cam")
                    .with_meta("user", "admin")
                    .with_meta("pass", "admin");
                ctx.send(gw, login);
                ctx.set_timer(Duration::from_secs(20), TIMER_FLOOD_ORDER);
            }
            (TIMER_FLOOD_ORDER, ScriptedAttack::BotnetRecruit) => {
                let order = Packet::new(ctx.id(), gw, "attack-cmd", CNC_SIGNATURES[1].to_vec())
                    .with_meta("device", "cam")
                    .with_meta("target", self.victim.raw().to_string())
                    .with_meta("count", "300");
                ctx.send(gw, order);
            }
            (TIMER_GO, ScriptedAttack::BufferOverflow) => {
                for i in 0..3u64 {
                    let smash = Packet::new(ctx.id(), gw, "cmd", vec![0x90u8; 300])
                        .with_meta("device", "wallpad");
                    ctx.send_after(gw, smash, Duration::from_secs(i));
                }
            }
            (TIMER_GO, ScriptedAttack::FirmwareTamper) => {
                let image = FirmwareImage::unsigned(
                    Version(9, 9, 9),
                    "mallory",
                    b"BOTNET implant".to_vec(),
                );
                for i in 0..3u64 {
                    let ota = Packet::new(ctx.id(), gw, "ota", image.to_bytes())
                        .with_meta("device", "cam");
                    ctx.send_after(gw, ota, Duration::from_secs(i));
                }
            }
            (TIMER_GO, ScriptedAttack::Replay) => {
                for i in 0..20u64 {
                    let cmd = Packet::new(ctx.id(), gw, "cmd", b"on".to_vec())
                        .with_meta("device", "window")
                        .with_meta("command", "on");
                    ctx.send_after(gw, cmd, Duration::from_secs(i));
                }
            }
            (TIMER_GO, ScriptedAttack::DnsPoison(name)) => {
                // Off-path: the attacker cannot see the resolver's txids,
                // so it guesses.
                for i in 0..30u64 {
                    let txid = 40_000 + 17 * i;
                    let spoof = Packet::new(ctx.id(), gw, "dns-response", b"A 6.6.6.6".to_vec())
                        .with_meta("device", "cam")
                        .with_meta("name", name)
                        .with_meta("value", "n666")
                        .with_meta("txid", txid.to_string());
                    ctx.send_after(gw, spoof, Duration::from_secs(i));
                }
            }
            (TIMER_GO, ScriptedAttack::SpoofedEvents) => {
                for i in 0..10 {
                    let spoof = Packet::new(ctx.id(), self.cloud, "spoofed-event", Vec::new())
                        .with_meta("device", "thermo")
                        .with_meta("attribute", "temperature")
                        .with_meta("value", format!("{}", 95 + i));
                    ctx.send(self.cloud, spoof);
                }
            }
            _ => {}
        }
    }
}

/// Passive WAN sink standing in for a DDoS victim.
pub struct VictimSink;
impl Node for VictimSink {}

/// Adds a [`VictimSink`] and a [`ScriptedAttacker`] replaying `attack`,
/// each on a loss-free WAN link to `gateway`, and returns the attacker's
/// id. `cloud` is the target of
/// [`ScriptedAttack::SpoofedEvents`]; the caller links it.
pub fn install(
    net: &mut Network,
    gateway: NodeId,
    cloud: NodeId,
    attack: ScriptedAttack,
) -> NodeId {
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
    attacker
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_simnet::observer::RecordingTap;
    use xlf_simnet::SimTime;

    /// What one arm puts on the wire: `(kind, send time in s, sent to the
    /// cloud)` per packet, in send order.
    fn schedule(attack: ScriptedAttack) -> Vec<(String, u64, bool)> {
        let mut net = Network::new(1);
        let gateway = net.add_node(Box::new(VictimSink));
        let cloud = net.add_node(Box::new(VictimSink));
        let attacker = install(&mut net, gateway, cloud, attack);
        net.connect(attacker, cloud, Medium::Wan.link().with_loss(0.0));
        let (tap, records) = RecordingTap::new();
        net.add_tap(Box::new(tap));
        net.run_until(SimTime::from_secs(400));
        let sent = records
            .borrow()
            .iter()
            .filter(|r| r.src == attacker)
            .map(|r| {
                assert!(r.dst == gateway || r.dst == cloud);
                (
                    r.ground_truth_kind.clone(),
                    r.at.as_micros() / 1_000_000,
                    r.dst == cloud,
                )
            })
            .collect();
        sent
    }

    fn each_second(kind: &str, from: u64, n: u64) -> Vec<(String, u64, bool)> {
        (from..from + n)
            .map(|t| (kind.to_string(), t, false))
            .collect()
    }

    #[test]
    fn botnet_logs_in_then_orders_the_flood_20s_later() {
        assert_eq!(
            schedule(ScriptedAttack::BotnetRecruit),
            vec![
                ("login".to_string(), 180, false),
                ("attack-cmd".to_string(), 200, false),
            ]
        );
    }

    #[test]
    fn overflow_sends_three_smashes_a_second_apart() {
        assert_eq!(
            schedule(ScriptedAttack::BufferOverflow),
            each_second("cmd", 180, 3)
        );
    }

    #[test]
    fn firmware_tamper_pushes_three_images_a_second_apart() {
        assert_eq!(
            schedule(ScriptedAttack::FirmwareTamper),
            each_second("ota", 180, 3)
        );
    }

    #[test]
    fn replay_sends_twenty_commands_a_second_apart() {
        assert_eq!(
            schedule(ScriptedAttack::Replay),
            each_second("cmd", 180, 20)
        );
    }

    #[test]
    fn dns_poison_sends_thirty_spoofs_a_second_apart() {
        assert_eq!(
            schedule(ScriptedAttack::DnsPoison("hub.vendor.example")),
            each_second("dns-response", 180, 30)
        );
    }

    #[test]
    fn spoofed_events_go_to_the_cloud_at_once() {
        assert_eq!(
            schedule(ScriptedAttack::SpoofedEvents),
            vec![("spoofed-event".to_string(), 180, true); 10]
        );
    }
}
