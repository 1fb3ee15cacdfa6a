//! The benchmark's workloads: three fleet specs that load different
//! layers. Each is a closed batch — the whole fleet is submitted at once
//! and work is homes completed per second at the stated fleet size.
//!
//! The `--seed` argument picks the fleet: a workload's master seed is
//! its base seed plus `--seed`, so seed 0 is the canonical fleet of the
//! experiment the workload is drawn from. The engine receives only the
//! stamped spec.

use xlf_device::firmware::Version;
use xlf_fleet::{
    CampaignSpec, ConfigAuditSpec, FleetAttack, FleetSpec, HomeTemplate, OnboardingSpec, RowPolicy,
};
use xlf_simnet::Duration;

/// Worker threads for untraced runs. The engine clamps this to the
/// machine's available parallelism and the calling thread only collects,
/// so the load never exceeds one busy thread per core.
const WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `exp_fleet`'s canonical attack mix in batch mode: the home step
    /// dominates and the global pass is negligible.
    Batch,
    /// The batch fleet plus onboarding, streamed correlation, an OTA
    /// campaign and a config audit: the same homes and events, plus
    /// window probes and a serial stream/control-plane pass.
    Streamed,
    /// Many thin benign homes under candidates-only retention: build,
    /// region consume and the global pass carry real weight.
    Wide,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Batch, Workload::Streamed, Workload::Wide];

    /// Stable name used on the command line and in results files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "fleet-batch",
            Workload::Streamed => "fleet-streamed",
            Workload::Wide => "fleet-wide",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fleet size of a measured run: sized so one untraced run takes a
    /// few seconds on two cores, which leaves room for several fresh
    /// processes per timed run.
    pub fn homes(self) -> usize {
        match self {
            Workload::Batch | Workload::Streamed => 2000,
            Workload::Wide => 60_000,
        }
    }

    /// Fleet size under `--smoke`.
    pub fn smoke_homes(self) -> usize {
        match self {
            Workload::Batch | Workload::Streamed => 64,
            Workload::Wide => 2000,
        }
    }

    /// The master seed `--seed seed` selects: the workload's base seed
    /// (its source experiment's canonical fleet) plus `seed`.
    pub fn master_seed(self, seed: u64) -> u64 {
        let base: u64 = match self {
            Workload::Batch | Workload::Streamed => 0xF1EE_2019,
            Workload::Wide => 0xF1EE_5CA1,
        };
        base.wrapping_add(seed)
    }

    /// The fleet spec for `--seed seed` at `homes` homes.
    pub fn spec(self, seed: u64, homes: usize) -> FleetSpec {
        let master_seed = self.master_seed(seed);
        let templates = vec![
            HomeTemplate::apartment(),
            HomeTemplate::house(),
            HomeTemplate::retrofit(),
        ];
        match self {
            Workload::Batch => batch(master_seed, homes, templates),
            Workload::Streamed => batch(master_seed, homes, templates)
                .with_onboarding(OnboardingSpec::new())
                .with_correlation_interval(15)
                .with_campaign(
                    CampaignSpec::new(
                        "cam-fw-2.0",
                        "cam",
                        Version(2, 0, 0),
                        b"cam firmware v2".to_vec(),
                    )
                    .with_waves(vec![10, 30, 60, 100])
                    .with_schedule(8, 3)
                    .with_tampered(),
                )
                .with_config_audit(ConfigAuditSpec::new(6).with_drift(15, 10)),
            Workload::Wide => FleetSpec::new(master_seed, homes)
                .with_workers(WORKERS)
                .with_regions(2)
                .with_horizon(Duration::from_secs(20))
                .with_templates(templates)
                .with_row_policy(RowPolicy::CandidatesOnly),
        }
    }
}

fn batch(master_seed: u64, homes: usize, templates: Vec<HomeTemplate>) -> FleetSpec {
    FleetSpec::new(master_seed, homes)
        .with_workers(WORKERS)
        .with_horizon(Duration::from_secs(420))
        .with_templates(templates)
        .with_attacks(vec![
            (FleetAttack::None, 30),
            (FleetAttack::BotnetRecruit, 1),
            (FleetAttack::FirmwareTamper, 1),
            (FleetAttack::Replay, 1),
            (FleetAttack::DnsPoison, 1),
            (FleetAttack::TrafficObserver, 1),
        ])
        .with_evidence_capacity(Some(64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_seed_zero_is_canonical() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fleet"), None);
        assert_eq!(Workload::Batch.spec(0, 8).master_seed, 0xF1EE_2019);
        assert_eq!(Workload::Wide.spec(3, 8).master_seed, 0xF1EE_5CA1 + 3);
    }

    #[test]
    fn streamed_stamps_the_same_homes_as_batch() {
        let batch = Workload::Batch.spec(7, 200).stamp();
        let streamed = Workload::Streamed.spec(7, 200).stamp();
        assert_eq!(batch, streamed);
        assert_eq!(Workload::Streamed.spec(7, 200).stream_epochs(), 28);
    }
}
