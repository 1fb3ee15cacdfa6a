//! Behaviour pinned across commits: an attacked fleet's report bytes and
//! the single-home scenarios' alerts and evidence, each reduced to an
//! FNV-1a 64 fingerprint. A refactor of the home build, the scripted
//! attacker or the Core that changes either fails here; a deliberate
//! behaviour change updates the constant and says why.

use xlf::core::framework::XlfConfig;
use xlf::fleet::spec::{FleetAttack, FleetSpec, HomeTemplate};
use xlf::fleet::{run_fleet, FleetMetrics};
use xlf_bench::scenarios::{run_scenario, AttackScenario};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn attacked_fleet_report_bytes_are_pinned() {
    let wire_attacks = [
        FleetAttack::BotnetRecruit,
        FleetAttack::FirmwareTamper,
        FleetAttack::Replay,
        FleetAttack::DnsPoison,
    ];
    let mut attacks = vec![(FleetAttack::None, 2)];
    attacks.extend(wire_attacks.iter().map(|&a| (a, 1)));
    let spec = FleetSpec::new(14, 32)
        .with_templates(vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ])
        .with_attacks(attacks);
    let stamped = spec.stamp();
    for attack in wire_attacks {
        assert!(
            stamped.iter().any(|h| h.attack == attack),
            "stamp lacks {attack:?}"
        );
    }
    for template in 0..3 {
        assert!(stamped.iter().any(|h| h.template == template));
    }

    let report = run_fleet(&spec, &FleetMetrics::new()).expect("fleet runs");
    assert_eq!(
        format!("{:016x}", fnv64(report.to_json().as_bytes())),
        "c413a15145973eb0"
    );
}

#[test]
fn scenario_alerts_and_evidence_are_pinned() {
    let mut trace = String::new();
    for &scenario in AttackScenario::all() {
        let home = run_scenario(1, XlfConfig::full(), scenario);
        let core = home.core.borrow();
        trace.push_str(&format!("{scenario:?}\n"));
        for a in core.alerts.alerts() {
            trace.push_str(&format!(
                "alert {} {} {:?} {:016x} {}\n",
                a.at.as_micros(),
                a.device,
                a.severity,
                a.score.to_bits(),
                a.explanation
            ));
        }
        for e in core.store.all() {
            trace.push_str(&format!("evidence {} {:?}\n", e.device, e.kind));
        }
    }
    assert_eq!(
        format!("{:016x}", fnv64(trace.as_bytes())),
        "92838e84214021c0"
    );
}
