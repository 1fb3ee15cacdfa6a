//! The traced run: drives a fleet single-threaded through the public
//! call of each layer and times every call with an in-memory span.
//!
//! It rebuilds the engine's run schedule from public [`FleetSpec`]
//! fields — `slices` and `drain_batch` for drains, `correlation_interval`
//! for window probes — so its report must be byte-identical to
//! [`xlf_fleet::run_fleet`]'s. The benchmark checks that on every traced
//! run; a mismatch means this schedule drifted from the engine's.
//!
//! Scope: the workloads run without step-event budgets, fault plans,
//! snapshots or shard chaos, so none of those paths is modelled here. A
//! workload that adds one fails the byte-identity check.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use xlf_attacks::observer::TrafficAnalyst;
use xlf_core::framework::HomeProbe;
use xlf_fleet::spec::LEARNING_END_S;
use xlf_fleet::{
    build_home, FleetAggregator, FleetAttack, FleetSpec, HomeOutcome, HomeSpec, HomeStream,
    OnboardSection, RegionAggregator,
};
use xlf_simnet::observer::{PacketRecord, RecordingTap};
use xlf_simnet::SimTime;
use xlf_stream::{WindowBuffer, WindowSummary, STREAM_FEATURES};

/// One timed call. `parent` indexes the enclosing span in the same
/// trace; `home` names the home the call worked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The spanned call (see the README glossary).
    pub name: &'static str,
    /// Home id, for per-home calls.
    pub home: Option<u64>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON line (the `--spans` file format).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"name\":\"{}\",\"home\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.name,
            opt(self.home),
            opt(self.parent.map(|p| p as u64)),
            self.start_ns,
            self.end_ns
        )
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, home: Option<u64>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            home,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        home: Option<u64>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, home, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Work counts read at the layer boundaries during a traced run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Homes stepped.
    pub homes: u64,
    /// Simulation events processed across every home.
    pub events: u64,
    /// Packets handed to links across every home.
    pub packets: u64,
    /// Wire bytes transmitted across every home.
    pub wire_bytes: u64,
    /// Evidence aggregated per layer: `[device, network, service]`.
    pub evidence: [u64; 3],
    /// Evidence shed by bounded buses.
    pub evidence_shed: u64,
    /// Packets the gateways forwarded.
    pub forwarded: u64,
    /// Packets the gateways dropped.
    pub dropped: u64,
    /// Window summaries emitted (0 in batch mode).
    pub windows: u64,
    /// CoAP retransmissions in the onboarding phase.
    pub retransmissions: u64,
    /// Candidates the region tier forwarded to the global pass.
    pub candidates: u64,
}

/// The outcome of one traced run.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// `FleetReport::to_json` of the traced run.
    pub report_json: String,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Work counts.
    pub counts: Counts,
    /// Wall time of the whole traced run, ns.
    pub wall_ns: u64,
}

/// One stop on a home's run schedule (the engine's `run_schedule`,
/// rebuilt from public spec fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Deadline {
    at_us: u64,
    drain: bool,
    window_end: bool,
}

/// Drains at the `slices` batch slice ends; window probes at every
/// `correlation_interval` boundary, merged into one ascending schedule.
fn run_schedule(spec: &FleetSpec) -> Vec<Deadline> {
    let horizon_us = spec.horizon.as_micros();
    let slices = spec.slices.max(1) as u64;
    let interval_us = spec
        .correlation_interval
        .unwrap_or(0)
        .saturating_mul(1_000_000);
    let mut deadlines: Vec<Deadline> = (1..=slices)
        .map(|i| Deadline {
            at_us: horizon_us * i / slices,
            drain: true,
            window_end: false,
        })
        .collect();
    for w in 1..=spec.stream_epochs() {
        let at_us = (interval_us * w).min(horizon_us);
        match deadlines.iter_mut().find(|d| d.at_us == at_us) {
            Some(d) => d.window_end = true,
            None => deadlines.push(Deadline {
                at_us,
                drain: false,
                window_end: true,
            }),
        }
    }
    deadlines.sort_by_key(|d| d.at_us);
    deadlines
}

/// The window features between two cumulative probes, in
/// [`xlf_stream::STREAM_FEATURES`] order.
fn probe_delta(prev: &HomeProbe, now: &HomeProbe) -> [f64; STREAM_FEATURES] {
    [
        now.evidence_total.saturating_sub(prev.evidence_total) as f64,
        now.evidence_by_layer[0].saturating_sub(prev.evidence_by_layer[0]) as f64,
        now.evidence_by_layer[1].saturating_sub(prev.evidence_by_layer[1]) as f64,
        now.evidence_by_layer[2].saturating_sub(prev.evidence_by_layer[2]) as f64,
        now.warning_alerts.saturating_sub(prev.warning_alerts) as f64,
        now.critical_alerts.saturating_sub(prev.critical_alerts) as f64,
        now.forwarded.saturating_sub(prev.forwarded) as f64,
        now.dropped_packets.saturating_sub(prev.dropped_packets) as f64,
        now.wire_bytes.saturating_sub(prev.wire_bytes) as f64,
        now.packets.saturating_sub(prev.packets) as f64,
    ]
}

/// A passive analyst's score on one home's tap records: trained on the
/// learning window, judged on the rest.
fn observer_accuracy(records: &[PacketRecord]) -> f64 {
    let cut = SimTime::from_secs(LEARNING_END_S);
    let (train, test): (Vec<PacketRecord>, Vec<PacketRecord>) =
        records.iter().cloned().partition(|r| r.at <= cut);
    let mut analyst = TrafficAnalyst::new();
    analyst.train(&train);
    analyst.accuracy(&test)
}

/// Runs the fleet described by `spec` single-threaded, spanning each
/// layer call.
pub fn run_traced(spec: &FleetSpec) -> TracedRun {
    let mut t = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut counts = Counts::default();

    let homes = t.span("spec.stamp", None, None, || spec.stamp());
    if let Some(onboarding) = spec.onboarding.as_ref() {
        let section = t.span("onboard.compute", None, None, || {
            OnboardSection::compute(onboarding, &homes)
        });
        counts.retransmissions = section.retransmissions;
    }

    let instances = spec.regions.max(1);
    let mut shards: Vec<RegionAggregator> = (0..instances)
        .map(|i| RegionAggregator::new(spec, i, instances))
        .collect();
    let region_slots = spec.region_slots.max(1) as u32;
    let schedule = run_schedule(spec);
    for hs in homes {
        let home = Some(hs.id);
        let span = t.open("home", home, None);
        let (outcome, stream) = run_home(spec, &hs, &schedule, &mut t, span, &mut counts);
        t.close(span);
        let shard = RegionAggregator::shard_of(hs.region % region_slots, instances);
        t.span("region.consume", home, None, || {
            shards[shard].consume(hs, outcome, stream)
        });
    }

    let report = t.span("global.aggregate", None, None, || {
        FleetAggregator::new(spec).aggregate_regions(shards)
    });
    counts.candidates = report.regions.iter().map(|r| r.candidates).sum();
    let report_json = t.span("report.encode", None, None, || report.to_json());
    let wall_ns = t.now_ns();
    TracedRun {
        report_json,
        spans: t.spans,
        counts,
        wall_ns,
    }
}

/// Builds and steps one home through `schedule`, as a worker does.
fn run_home(
    spec: &FleetSpec,
    hs: &HomeSpec,
    schedule: &[Deadline],
    t: &mut Tracer,
    parent: usize,
    counts: &mut Counts,
) -> (HomeOutcome, HomeStream) {
    let home = Some(hs.id);
    let parent = Some(parent);
    let mut runner = match t.span("build_home", home, parent, || build_home(spec, hs)) {
        Ok(runner) => runner,
        Err(e) => return (HomeOutcome::BuildFailed(e), HomeStream::default()),
    };
    // The engine scores observer homes on a tap it keeps private; a
    // second tap records the same transmissions, and taps are passive.
    let observer: Option<Rc<RefCell<Vec<PacketRecord>>>> =
        (hs.attack == FleetAttack::TrafficObserver).then(|| {
            let (tap, records) = RecordingTap::new();
            runner.home_mut().net.add_tap(Box::new(tap));
            records
        });

    let streaming = spec.correlation_interval.is_some();
    let mut buffer = WindowBuffer::new(spec.window_capacity);
    let mut last_probe = if streaming {
        t.span("probe", home, parent, || runner.probe())
    } else {
        HomeProbe::default()
    };
    let mut windows_done = 0u64;
    for deadline in schedule {
        let at = SimTime::from_micros(deadline.at_us);
        let (events, _) = t.span("run_until_capped", home, parent, || {
            runner.run_until_capped(at, u64::MAX)
        });
        counts.events += events;
        if deadline.drain {
            t.span("drain_pending", home, parent, || {
                runner
                    .home()
                    .core
                    .borrow_mut()
                    .drain_pending(spec.drain_batch)
            });
        }
        if deadline.window_end {
            let probe = t.span("probe", home, parent, || runner.probe());
            buffer.push(WindowSummary {
                home: hs.id,
                window: windows_done,
                partial: false,
                features: probe_delta(&last_probe, &probe),
            });
            last_probe = probe;
            windows_done += 1;
        }
    }
    let net = runner.home().net.stats();
    let horizon = SimTime::from_micros(spec.horizon.as_micros());
    let report = t.span("finish", home, parent, || runner.finish(horizon));
    let observer_accuracy = observer.map(|records| {
        t.span("observer.score", home, parent, || {
            observer_accuracy(&records.borrow())
        })
    });

    counts.homes += 1;
    counts.packets += net.sent;
    counts.wire_bytes += net.wire_bytes;
    for (sum, n) in counts.evidence.iter_mut().zip(report.evidence_by_layer) {
        *sum += n as u64;
    }
    counts.evidence_shed += report.evidence_shed;
    counts.forwarded += report.forwarded;
    counts.dropped += report.dropped_packets;
    let (windows, shed) = buffer.into_parts();
    counts.windows += windows.len() as u64;
    (
        HomeOutcome::Ok {
            report,
            observer_accuracy,
        },
        HomeStream { windows, shed },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_simnet::Duration;

    #[test]
    fn schedule_merges_window_ends_into_slice_ends() {
        let spec = FleetSpec::new(1, 1).with_correlation_interval(15);
        let schedule = run_schedule(&spec);
        // 8 slice ends (every 52.5 s) and 28 window ends (every 15 s);
        // 105 s, 210 s, 315 s and 420 s are both.
        assert_eq!(schedule.len(), 8 + 28 - 4);
        assert_eq!(schedule.iter().filter(|d| d.drain).count(), 8);
        assert_eq!(schedule.iter().filter(|d| d.window_end).count(), 28);
        assert!(schedule.windows(2).all(|w| w[0].at_us < w[1].at_us));
        let last = schedule.last().unwrap();
        assert!(last.drain && last.window_end && last.at_us == 420_000_000);

        let batch = FleetSpec::new(1, 1).with_horizon(Duration::from_secs(30));
        let schedule = run_schedule(&batch);
        assert_eq!(schedule.len(), 8);
        assert!(schedule.iter().all(|d| d.drain && !d.window_end));
    }

    #[test]
    fn spans_nest_under_their_home() {
        let spec = FleetSpec::new(5, 3).with_horizon(Duration::from_secs(30));
        let run = run_traced(&spec);
        let homes: Vec<usize> = (0..run.spans.len())
            .filter(|&i| run.spans[i].name == "home")
            .collect();
        assert_eq!(homes.len(), 3);
        for s in &run.spans {
            if let Some(p) = s.parent {
                let parent = &run.spans[p];
                assert_eq!(parent.name, "home");
                assert_eq!(parent.home, s.home);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        assert_eq!(run.counts.homes, 3);
        assert!(run.counts.events > 0 && run.counts.packets > 0);
    }
}
