//! OTA campaign experiment: does the control plane's staged rollout +
//! stream-alert health gate turn firmware-supply-chain detection into
//! *containment*?
//!
//! Runs the same stamped fleet through three campaign variants — clean
//! gated, tampered gated, tampered ungated — with a config-drift audit
//! riding along. The clean release must reach 100% of the fleet; the
//! tampered gated release must be halted by the health gate with every
//! compromised home rolled back and quarantined (compromise bounded by
//! the first wave's share); the tampered *ungated* release is the
//! counterfactual showing what the gate prevented. Campaign-bearing
//! reports must be byte-identical across worker counts.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_ota -- [--smoke] [--json BENCH_ota.json]
//! ```

use std::process::ExitCode;
use xlf_bench::harness::{best_of, fixed, Args, Json, Row};
use xlf_bench::obj;
use xlf_device::firmware::Version;
use xlf_fleet::{
    run_fleet, CampaignReport, CampaignSpec, ConfigAuditSpec, FleetMetrics, FleetReport, FleetSpec,
};
use xlf_simnet::Duration;

struct Config {
    homes: usize,
    workers: usize,
    horizon_s: u64,
}

const CANONICAL: Config = Config {
    homes: 64,
    workers: 8,
    horizon_s: 420,
};

const SMOKE: Config = Config {
    homes: 64,
    workers: 4,
    horizon_s: 420,
};

const INTERVAL_S: u64 = 15;
const WAVES: [u32; 4] = [10, 30, 60, 100];

impl Config {
    fn json(&self) -> Json {
        obj! {
            "homes" => self.homes,
            "workers" => self.workers,
            "horizon_s" => self.horizon_s,
            "interval_s" => INTERVAL_S,
            "waves" => &WAVES[..],
        }
    }

    fn spec(&self, workers: usize, tampered: bool, gated: bool) -> FleetSpec {
        FleetSpec::new(0x07A_CA4E, self.homes)
            .with_workers(workers)
            .with_horizon(Duration::from_secs(self.horizon_s))
            .with_correlation_interval(INTERVAL_S)
            .with_campaign(campaign(tampered, gated))
            .with_config_audit(ConfigAuditSpec::new(6).with_drift(15, 10))
    }
}

/// The campaign: a cam firmware release staged through 10/30/60/100%
/// waves, first wave after the learning phase (epoch 8 = 120 s), one
/// wave every 3 epochs (45 s of gate observation between waves).
fn campaign(tampered: bool, gated: bool) -> CampaignSpec {
    let mut c = CampaignSpec::new(
        "cam-fw-2.0",
        "cam",
        Version(2, 0, 0),
        b"cam firmware v2".to_vec(),
    )
    .with_waves(WAVES.to_vec())
    .with_schedule(8, 3);
    if tampered {
        c = c.with_tampered();
    }
    if !gated {
        c = c.with_gate(None);
    }
    c
}

struct Variant {
    label: &'static str,
    report: FleetReport,
    wall_s: f64,
}

impl Variant {
    fn campaign(&self) -> &CampaignReport {
        &self
            .report
            .mgmt
            .as_ref()
            .expect("campaign section")
            .campaigns[0]
    }
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let cfg = args.pick(&CANONICAL, &SMOKE);

    let variants: Vec<Variant> = [
        ("clean gated", false, true),
        ("tampered gated", true, true),
        ("tampered ungated", true, false),
    ]
    .into_iter()
    .map(|(label, tampered, gated)| {
        let (report, wall_s) = best_of(1, || {
            run_fleet(
                &cfg.spec(cfg.workers, tampered, gated),
                &FleetMetrics::new(),
            )
            .expect("fleet engine lost work")
        });
        Variant {
            label,
            report,
            wall_s,
        }
    })
    .collect();

    let clean = variants[0].campaign();
    let gated = variants[1].campaign();
    let ungated = variants[2].campaign();
    let audit = variants[0]
        .report
        .mgmt
        .as_ref()
        .and_then(|m| m.config_audit)
        .expect("config audit section");

    // Campaign-bearing reports are byte-identical across worker counts
    // (the control plane is part of the deterministic aggregation, not
    // an execution detail).
    let gated_json = variants[1].report.to_json();
    let byte_identical_workers = [1, 2].into_iter().all(|workers| {
        run_fleet(&cfg.spec(workers, true, true), &FleetMetrics::new())
            .expect("fleet engine lost work")
            .to_json()
            == gated_json
    });

    let rows = [
        // The clean signed release reaches the whole fleet.
        Row::new("clean_rollout_pct", clean.rollout_pct, "==", 100u32),
        Row::holds("clean_never_halted", clean.halted_at_wave.is_none()),
        Row::new("clean_updated", clean.updated, "==", clean.targets),
        Row::new("clean_compromised", clean.compromised, "==", 0u64),
        // The health gate halts the tampered release after its first
        // wave: compromise is bounded by the first wave's cohort, and
        // every compromised home is rolled back + quarantined.
        Row::new("gated_halted_at_wave", gated.halted_at_wave, "==", 1u32),
        Row::new("gated_rollout_pct", gated.rollout_pct, "==", WAVES[0]),
        Row::new("gated_updated", gated.updated, ">", 0u64),
        Row::new(
            "gated_compromised",
            gated.compromised,
            "==",
            gated.waves[0].applied,
        ),
        Row::new("gated_rolled_back", gated.rolled_back, "==", gated.updated),
        Row::new("gated_quarantined", gated.quarantined, "==", gated.updated),
        Row::holds("contained", gated.contained),
        // Without the gate the same release owns every promiscuous
        // target: the counterfactual the gate prevents.
        Row::new("ungated_rollout_pct", ungated.rollout_pct, "==", 100u32),
        Row::new(
            "ungated_compromised",
            ungated.compromised,
            ">",
            gated.compromised,
        ),
        Row::new("ungated_rolled_back", ungated.rolled_back, "==", 0u64),
        Row::holds("ungated_not_contained", !ungated.contained),
        // The config audit detects and remediates its drift cohort.
        Row::new("audit_drifted", audit.drifted, ">", 0u64),
        Row::new("audit_detected", audit.detected, "==", audit.drifted),
        Row::new("audit_remediated", audit.remediated, "==", audit.detected),
        Row::holds("byte_identical_workers", byte_identical_workers),
    ];
    let results = obj! {
        "config_audit" => obj! {
            "every" => audit.every,
            "drifted" => audit.drifted,
            "detected" => audit.detected,
            "remediated" => audit.remediated,
        },
        "runs" => variants.iter().map(|v| {
            let c = v.campaign();
            obj! {
                "variant" => v.label,
                "tampered" => c.tampered,
                "gated" => c.gated,
                "targets" => c.targets,
                "rollout_pct" => c.rollout_pct,
                "updated" => c.updated,
                "rejected" => c.rejected,
                "compromised" => c.compromised,
                "rolled_back" => c.rolled_back,
                "quarantined" => c.quarantined,
                "halted_at_wave" => c.halted_at_wave,
                "halt_epoch" => c.halt_epoch,
                "contained" => c.contained,
                "waves_launched" => c.waves.len(),
                "wall_s" => fixed(v.wall_s, 3),
            }
        }).collect::<Vec<_>>(),
    };
    args.finish("ota", cfg.json(), results, &rows)
}
