//! E-M3 — traffic shaping (§IV-B1): sweep shaping intensity and measure
//! the HoMonit-style adversary's state-inference accuracy against the
//! bandwidth/latency overhead — the privacy/cost crossover the paper
//! says the mechanism must balance ("the adversary confidence and the
//! bandwidth overhead").
//!
//! Method: a camera alternates idle/streaming on a fixed schedule. The
//! adversary trains on an *unshaped* lab copy of the device (standard
//! assumption), then infers states from the shaped home's gateway→cloud
//! metadata.

use std::cell::RefCell;
use std::rc::Rc;
use xlf_attacks::TrafficAnalyst;
use xlf_bench::print_table;
use xlf_core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf_core::shaping::ShapingMode;
use xlf_device::SensorKind;
use xlf_simnet::observer::{PacketRecord, RecordingTap};
use xlf_simnet::{Context, Duration, Node, NodeId, Packet, SimTime};

/// Drives the camera through a fixed idle/streaming schedule.
struct StateDriver {
    gateway: NodeId,
    phase: u64,
}

impl Node for StateDriver {
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

/// Runs the camera home under one shaping mode; returns the gateway→cloud
/// records and the shaping cost.
#[allow(clippy::type_complexity)]
fn run_trace(seed: u64, mode: ShapingMode) -> (Vec<PacketRecord>, xlf_core::shaping::ShapingCost) {
    let mut config = XlfConfig::off(); // isolate shaping from other mechanisms
    config.shaping = mode;
    let devices =
        vec![HomeDevice::new("cam", SensorKind::Camera)
            .with_telemetry_period(Duration::from_secs(5))];
    let mut home = XlfHome::build(seed, config, &devices);
    let driver = home.net.add_node(Box::new(StateDriver {
        gateway: home.gateway,
        phase: 0,
    }));
    home.net.connect(
        driver,
        home.gateway,
        xlf_simnet::Medium::Wan.link().with_loss(0.0),
    );
    let gateway_id = home.gateway;
    let cloud_id = home.cloud;
    let (tap, records): (RecordingTap, Rc<RefCell<Vec<PacketRecord>>>) = RecordingTap::new();
    home.net.add_tap(Box::new(tap));
    home.net.run_until(SimTime::from_secs(600));

    let trace: Vec<PacketRecord> = records
        .borrow()
        .iter()
        .filter(|r| {
            // The observer sees everything on the WAN link — including
            // cover packets, which is the point of injecting them.
            r.src == gateway_id && r.dst == cloud_id && r.ground_truth_kind != "event"
        })
        .cloned()
        .collect();
    let cost = home.gateway_ref().shaping_cost();
    let _ = &home;
    (trace, cost)
}

fn main() {
    // Step 1 of the Apthorpe procedure: counting distinct streams behind
    // the NAT. The XLF gateway terminates every device flow and re-emits
    // one aggregate stream to the cloud, so the external observer cannot
    // even enumerate devices — shaping then removes the remaining
    // size/timing signal from that single stream.
    {
        let (trace, _) = run_trace(50, ShapingMode::Off);
        let home_nodes: Vec<xlf_simnet::NodeId> = trace
            .iter()
            .map(|r| r.src)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let streams = xlf_simnet::nat::distinct_streams(&trace, &home_nodes);
        println!(
            "
NAT observer, step 1 (device enumeration): {} distinct external stream(s)
             — the gateway aggregates every device flow into one.",
            streams.max(1)
        );
    }

    // Adversary training: unshaped lab device, different seed.
    let (lab_trace, _) = run_trace(100, ShapingMode::Off);
    let mut analyst = TrafficAnalyst::new();
    analyst.train_bursts(&lab_trace);

    let sweep: Vec<(&str, ShapingMode)> = vec![
        ("off (baseline)", ShapingMode::Off),
        ("pad 256", ShapingMode::PadOnly { bucket: 256 }),
        ("pad 1024", ShapingMode::PadOnly { bucket: 1024 }),
        (
            "pad 1024 + delay ≤1s",
            ShapingMode::PadAndDelay {
                bucket: 1024,
                max_delay: Duration::from_secs(1),
            },
        ),
        (
            "pad 1024 + delay ≤3s",
            ShapingMode::PadAndDelay {
                bucket: 1024,
                max_delay: Duration::from_secs(3),
            },
        ),
        (
            "constant rate (cover 5s)",
            ShapingMode::ConstantRate {
                bucket: 1024,
                max_delay: Duration::from_secs(1),
                cover_interval: Duration::from_secs(5),
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, mode) in sweep {
        let (trace, cost) = run_trace(7, mode);
        let accuracy = analyst.accuracy(&trace);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}%", accuracy * 100.0),
            format!("{:.0}%", cost.overhead_ratio() * 100.0),
            format!("{:.0} ms", cost.mean_delay().as_secs_f64() * 1000.0),
            trace.len().to_string(),
        ]);
    }
    print_table(
        "E-M3 — Traffic shaping: adversary accuracy vs overhead (§IV-B1)",
        &[
            "Shaping",
            "Adversary state-inference accuracy",
            "Bandwidth overhead",
            "Mean added delay",
            "Packets observed",
        ],
        &rows,
    );
    println!(
        "\nShape check: accuracy starts high with no shaping and collapses as\n\
         padding+delay intensity rises, while overhead climbs — the crossover\n\
         the paper's design balances."
    );
}
