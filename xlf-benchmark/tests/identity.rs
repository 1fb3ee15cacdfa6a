//! The traced run re-derives the engine's private run schedule from
//! public spec fields. These tests pin it to the engine on every
//! workload at a tiny size: the traced report must equal `run_fleet`'s
//! byte for byte, and batch and streamed must step the same events.

use xlf_benchmark::traced::run_traced;
use xlf_benchmark::workload::Workload;
use xlf_fleet::{run_fleet, FleetMetrics};

fn tiny(w: Workload) -> usize {
    match w {
        Workload::Batch | Workload::Streamed => 24,
        Workload::Wide => 300,
    }
}

#[test]
fn traced_reports_are_byte_identical_to_run_fleet() {
    for w in Workload::ALL {
        for seed in [0, 1] {
            let spec = w.spec(seed, tiny(w));
            let engine = run_fleet(&spec, &FleetMetrics::new())
                .expect("engine run")
                .to_json();
            let traced = run_traced(&spec);
            assert!(
                traced.report_json == engine,
                "{} seed {seed}: traced report differs from run_fleet's",
                w.name()
            );
            assert_eq!(traced.counts.homes, tiny(w) as u64);
        }
    }
}

#[test]
fn batch_and_streamed_step_the_same_events() {
    let batch = run_traced(&Workload::Batch.spec(3, 24));
    let streamed = run_traced(&Workload::Streamed.spec(3, 24));
    assert!(batch.counts.events > 0);
    assert_eq!(batch.counts.events, streamed.counts.events);
    assert_eq!(batch.counts.packets, streamed.counts.packets);
    assert_eq!(batch.counts.windows, 0);
    assert_eq!(streamed.counts.windows, 24 * 28);
}
