//! Every attack with a scripted arm stamps into a fleet home, runs to a
//! report and is flagged by the fleet.

use xlf_fleet::{run_fleet, FleetAttack, FleetMetrics, FleetSpec, HomeTemplate};

#[test]
fn every_scripted_arm_runs_in_a_fleet_home_and_is_flagged() {
    // One apartment per arm, and a benign control.
    let attacks: Vec<FleetAttack> = FleetAttack::ALL
        .into_iter()
        .filter(|a| a.is_active() || *a == FleetAttack::None)
        .collect();
    let spec = FleetSpec::new(47, attacks.len())
        .with_templates(vec![HomeTemplate::apartment()])
        .with_attacks(attacks.iter().map(|&a| (a, 1)).collect());
    let stamped = spec.stamp();
    for &attack in &attacks {
        let homes = stamped.iter().filter(|h| h.attack == attack).count();
        assert_eq!(homes, 1, "{attack:?} stamped into {homes} homes");
    }

    let report = run_fleet(&spec, &FleetMetrics::new()).expect("fleet runs");
    assert_eq!(
        report.rows.len(),
        attacks.len(),
        "every home runs to a report"
    );
    for &attack in &attacks {
        let home = stamped
            .iter()
            .find(|h| h.attack == attack)
            .expect("stamped");
        // Every arm is caught, figure4's fused detections (botnet,
        // overflow, firmware tamper, spoofed events) among them; the
        // benign control is not.
        let flagged = report.flagged.contains(&home.id);
        assert_eq!(flagged, attack.is_active(), "{attack:?} home");
    }
}
