//! Secure-onboarding experiment: can a fleet admit its constrained
//! devices over CoAP + ACE-style scoped tokens at a per-class energy
//! cost the Table I envelopes can afford — while admitting **zero**
//! rogue joins?
//!
//! Three parts:
//!
//! 1. The per-class cipher sweep (Table III catalog vs. Table I
//!    envelopes): which cipher each class negotiates, at what key floor,
//!    handshake latency and energy.
//! 2. Three fleet variants — benign, token-replay mix, rogue-AS mix —
//!    each running the join phase before home stepping. The benign
//!    fleet must admit every home; the attack fleets must admit zero
//!    rogue joins, with every denial flagged and attributed to a
//!    structured cause.
//! 3. Layout invariance: onboarding-bearing reports must be
//!    byte-identical across worker counts *and* region-shard counts.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_onboard -- [--smoke] [--json BENCH_onboard.json]
//! ```

use std::process::ExitCode;
use xlf_bench::harness::{best_of, fixed, Args, Json, Row};
use xlf_bench::obj;
use xlf_fleet::{
    run_fleet, FleetAttack, FleetMetrics, FleetReport, FleetSpec, OnboardSection, OnboardingSpec,
};
use xlf_onboard::sweep;
use xlf_simnet::Duration;

struct Config {
    homes: usize,
    workers: usize,
    horizon_s: u64,
}

const CANONICAL: Config = Config {
    homes: 64,
    workers: 8,
    horizon_s: 120,
};

const SMOKE: Config = Config {
    homes: 64,
    workers: 4,
    horizon_s: 120,
};

impl Config {
    fn json(&self) -> Json {
        obj! {
            "homes" => self.homes,
            "workers" => self.workers,
            "horizon_s" => self.horizon_s,
        }
    }

    fn spec(&self, workers: usize, attacks: &[(FleetAttack, u32)]) -> FleetSpec {
        FleetSpec::new(0x0B0A_4D13, self.homes)
            .with_workers(workers)
            .with_horizon(Duration::from_secs(self.horizon_s))
            .with_attacks(attacks.to_vec())
            .with_onboarding(OnboardingSpec::new())
    }
}

struct Variant {
    label: &'static str,
    report: FleetReport,
    metrics_json: String,
    wall_s: f64,
}

impl Variant {
    fn onboarding(&self) -> &OnboardSection {
        self.report.onboarding.as_ref().expect("onboarding section")
    }

    /// Homes under an onboarding-layer attack.
    fn attacked(&self) -> u64 {
        self.report
            .rows
            .iter()
            .filter(|r| r.attack == "token-replay" || r.attack == "rogue-as")
            .count() as u64
    }
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let cfg = args.pick(&CANONICAL, &SMOKE);

    // Part 1: the per-class negotiation record (pure sweep, no fleet).
    let plans = sweep(&OnboardingSpec::new().classes);

    // Part 2: fleet variants with the join phase ahead of home stepping.
    let benign_mix = [(FleetAttack::None, 1)];
    let replay_mix = [(FleetAttack::None, 3), (FleetAttack::TokenReplay, 1)];
    let rogue_mix = [(FleetAttack::None, 3), (FleetAttack::RogueAs, 1)];
    let variants: Vec<Variant> = [
        ("benign", &benign_mix[..]),
        ("token-replay", &replay_mix[..]),
        ("rogue-as", &rogue_mix[..]),
    ]
    .into_iter()
    .map(|(label, attacks)| {
        let metrics = FleetMetrics::new();
        let (report, wall_s) = best_of(1, || {
            run_fleet(&cfg.spec(cfg.workers, attacks), &metrics).expect("fleet engine lost work")
        });
        Variant {
            label,
            report,
            metrics_json: metrics.to_json(),
            wall_s,
        }
    })
    .collect();
    let benign = variants[0].onboarding();

    // Part 3: layout invariance — worker counts and region shards must
    // not change a single report byte.
    let replay_json = variants[1].report.to_json();
    let rogue_layout = |regions: usize| {
        run_fleet(
            &cfg.spec(cfg.workers, &rogue_mix).with_regions(regions),
            &FleetMetrics::new(),
        )
        .expect("fleet engine lost work")
        .to_json()
    };
    let sharded_base = rogue_layout(1);
    let byte_identical_layouts = [1, 2].into_iter().all(|workers| {
        run_fleet(&cfg.spec(workers, &replay_mix), &FleetMetrics::new())
            .expect("fleet engine lost work")
            .to_json()
            == replay_json
    }) && [2, 8]
        .into_iter()
        .all(|shards| rogue_layout(shards) == sharded_base);

    // Every home joins exactly once and the admission ledger balances;
    // containment means zero rogue admissions with every attacked join
    // denied, attributed to a structured cause and flagged; the engine's
    // live metrics agree with the recomputed section.
    let all = |pred: &dyn Fn(&Variant, &OnboardSection) -> bool| {
        variants.iter().all(|v| pred(v, v.onboarding()))
    };
    let rows = [
        Row::holds(
            "every_class_negotiates_a_cipher",
            plans.iter().all(|p| p.choice.is_some()),
        ),
        Row::holds(
            "joins_equal_homes",
            all(&|_, s| s.joins == cfg.homes as u64),
        ),
        Row::holds(
            "admission_ledger_balances",
            all(&|_, s| s.admitted + s.denied == s.joins),
        ),
        Row::new(
            "rogue_admissions",
            variants
                .iter()
                .map(|v| v.onboarding().rogue_admissions)
                .sum::<u64>(),
            "==",
            0u64,
        ),
        Row::holds(
            "every_rogue_join_denied",
            all(&|v, s| s.denied == v.attacked()),
        ),
        Row::holds(
            "every_denial_attributed",
            all(&|_, s| s.denials.iter().sum::<u64>() == s.denied),
        ),
        Row::holds(
            "denied_homes_flagged",
            all(&|v, s| {
                s.denied_homes
                    .iter()
                    .all(|id| v.report.flagged.contains(id))
            }),
        ),
        Row::holds(
            "metrics_agree_with_report",
            all(&|v, s| {
                v.metrics_json
                    .contains(&format!("\"onboard_joins\":{}", s.joins))
                    && v.metrics_json
                        .contains(&format!("\"onboard_denied\":{}", s.denied))
            }),
        ),
        Row::new("benign_denied", benign.denied, "==", 0u64),
        Row::new("benign_energy_mj", benign.energy_mj, ">", 0.0),
        Row::holds("byte_identical_layouts", byte_identical_layouts),
    ];
    let results = obj! {
        "sweep" => plans.iter().map(|p| obj! {
            "class" => format!("{:?}", p.class),
            "key_floor_bits" => p.key_floor_bits,
            "cipher" => p.choice.as_ref().map(|c| c.info.name),
            "throughput_bps" => p.choice.as_ref().map(|c| fixed(c.throughput_bps, 1)),
            "handshake_energy_mj" => p.choice.as_ref().map(|c| fixed(c.handshake_energy_mj, 6)),
        }).collect::<Vec<_>>(),
        "runs" => variants.iter().map(|v| {
            let s = v.onboarding();
            obj! {
                "variant" => v.label,
                "joins" => s.joins,
                "admitted" => s.admitted,
                "denied" => s.denied,
                "rogue_admissions" => s.rogue_admissions,
                "retransmissions" => s.retransmissions,
                "bytes_sent" => s.bytes_sent,
                "energy_mj" => fixed(s.energy_mj, 6),
                "flagged" => v.report.flagged.len(),
                "wall_s" => fixed(v.wall_s, 3),
                "classes" => s.classes.iter().map(|c| obj! {
                    "class" => c.class.as_str(),
                    "cipher" => c.cipher,
                    "joins" => c.joins,
                    "admitted" => c.admitted,
                    "mean_latency_ms" => fixed(c.mean_latency_ms, 3),
                    "mean_energy_mj" => fixed(c.mean_energy_mj, 6),
                }).collect::<Vec<_>>(),
            }
        }).collect::<Vec<_>>(),
    };
    args.finish("onboard", cfg.json(), results, &rows)
}
