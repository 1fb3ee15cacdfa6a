//! Traffic-shaping privacy demo (§IV-B1): watch a passive observer read a
//! camera's state from encrypted-traffic metadata, then watch shaping
//! blind them — and what the privacy costs in bandwidth and latency.
//!
//! ```sh
//! cargo run --example privacy_shaping
//! ```

use xlf::attacks::TrafficAnalyst;
use xlf::core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf::core::shaping::ShapingMode;
use xlf::device::SensorKind;
use xlf::simnet::observer::{PacketRecord, RecordingTap};
use xlf::simnet::{Context, Duration, Medium, Node, NodeId, Packet, SimTime};

/// Alternates the camera between streaming and idle every 30 s.
struct Routine {
    gateway: NodeId,
    phase: u64,
}
impl Node for Routine {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(30), 1);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        let action = if self.phase.is_multiple_of(2) {
            "stream"
        } else {
            "idle"
        };
        self.phase += 1;
        let cmd = Packet::new(ctx.id(), self.gateway, "cmd", Vec::new())
            .with_meta("device", "cam")
            .with_meta("action", action);
        ctx.send(self.gateway, cmd);
        ctx.set_timer(Duration::from_secs(30), 1);
    }
}

fn trace(seed: u64, mode: ShapingMode) -> (Vec<PacketRecord>, f64, f64) {
    let mut config = XlfConfig::off();
    config.shaping = mode;
    let devices = [
        HomeDevice::new("cam", SensorKind::Camera).with_telemetry_period(Duration::from_secs(5))
    ];
    let mut home = XlfHome::build(seed, config, &devices);
    let driver = home.net.add_node(Box::new(Routine {
        gateway: home.gateway,
        phase: 0,
    }));
    home.net
        .connect(driver, home.gateway, Medium::Wan.link().with_loss(0.0));
    let (gw, cl) = (home.gateway, home.cloud);
    let (tap, records) = RecordingTap::new();
    home.net.add_tap(Box::new(tap));
    home.net.run_until(SimTime::from_secs(600));
    let cost = home.gateway_ref().shaping_cost();
    let filtered = records
        .borrow()
        .iter()
        .filter(|r| r.src == gw && r.dst == cl && r.ground_truth_kind != "event")
        .cloned()
        .collect();
    (
        filtered,
        cost.overhead_ratio(),
        cost.mean_delay().as_secs_f64() * 1000.0,
    )
}

fn main() {
    // The adversary trains on an identical device they own (unshaped).
    let (lab, _, _) = trace(99, ShapingMode::Off);
    let mut analyst = TrafficAnalyst::new();
    analyst.train_bursts(&lab);
    println!("adversary trained on {} lab packets\n", lab.len());

    for (label, mode) in [
        ("no shaping", ShapingMode::Off),
        ("pad to 1 KiB", ShapingMode::PadOnly { bucket: 1024 }),
        (
            "pad + random delay ≤1s",
            ShapingMode::PadAndDelay {
                bucket: 1024,
                max_delay: Duration::from_secs(1),
            },
        ),
    ] {
        let (victim, overhead, delay_ms) = trace(7, mode);
        let inferred = analyst.infer(&victim);
        let accuracy = analyst.accuracy(&victim);
        println!("--- {label} ---");
        println!("  observer classified {} bursts", inferred.len());
        println!("  state-inference accuracy: {:.0}%", accuracy * 100.0);
        println!("  bandwidth overhead: {:.0}%", overhead * 100.0);
        println!("  mean added delay: {delay_ms:.0} ms\n");
    }
    println!(
        "Unshaped, the observer reads the camera like a book; padded and\n\
         paced, idle and streaming become indistinguishable — at a measured\n\
         bandwidth/latency price. That is the §IV-B1 trade."
    );
}
