//! Property-based tests over the simulator: time algebra, link delay
//! monotonicity, engine conservation laws, and determinism.

use proptest::prelude::*;
use xlf_simnet::{Duration, Medium, Network, Node, Packet, SimTime};

struct Quiet;
impl Node for Quiet {}

fn media() -> impl Strategy<Value = Medium> {
    prop::sample::select(vec![
        Medium::Ethernet,
        Medium::Wifi,
        Medium::Zigbee,
        Medium::Zwave,
        Medium::Ble,
        Medium::SixLowpan,
        Medium::Wan,
    ])
}

proptest! {
    /// Time arithmetic: associativity with durations, ordering, and
    /// saturating subtraction.
    #[test]
    fn time_algebra(a in 0u64..1_000_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let t = SimTime::from_micros(a);
        let d1 = Duration::from_micros(b);
        let d2 = Duration::from_micros(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        prop_assert!(t + d1 >= t);
        prop_assert_eq!((t + d1) - t, d1);
        prop_assert_eq!(t - (t + d1), Duration::ZERO); // saturating
        prop_assert_eq!(t.since(t + d1), Duration::ZERO);
    }

    /// Link delay is monotone in packet size and never below the latency.
    #[test]
    fn link_delay_monotone(medium in media(), small in 1usize..512, extra in 1usize..2048) {
        let link = medium.link();
        let d_small = link.delay_for(small);
        let d_big = link.delay_for(small + extra);
        prop_assert!(d_big >= d_small);
        prop_assert!(d_small >= link.latency);
    }

    /// Conservation: every injected packet is delivered, lost, or
    /// unroutable — nothing vanishes, nothing duplicates.
    #[test]
    fn packet_conservation(n in 1usize..64, loss in 0.0f64..0.9, seed in any::<u64>()) {
        let mut net = Network::new(seed);
        let a = net.add_node(Box::new(Quiet));
        let b = net.add_node(Box::new(Quiet));
        net.connect(a, b, Medium::Wifi.link().with_loss(loss));
        for i in 0..n {
            net.inject(a, b, Packet::new(a, b, "x", vec![i as u8]));
        }
        let stats = net.run();
        prop_assert_eq!(stats.sent as usize, n);
        prop_assert_eq!((stats.delivered + stats.lost) as usize, n);
        prop_assert_eq!(stats.no_route, 0);
    }

    /// Unconnected destinations are all counted as unroutable.
    #[test]
    fn no_route_accounting(n in 1usize..32) {
        let mut net = Network::new(1);
        let a = net.add_node(Box::new(Quiet));
        let b = net.add_node(Box::new(Quiet));
        for _ in 0..n {
            net.inject(a, b, Packet::new(a, b, "x", vec![0u8]));
        }
        let stats = net.run();
        prop_assert_eq!(stats.no_route as usize, n);
        prop_assert_eq!(stats.delivered, 0);
    }

    /// Determinism: identical seeds and workloads give identical stats.
    #[test]
    fn engine_is_deterministic(seed in any::<u64>(), n in 1usize..48) {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let a = net.add_node(Box::new(Quiet));
            let b = net.add_node(Box::new(Quiet));
            net.connect(a, b, Medium::Wifi.link().with_loss(0.3));
            for i in 0..n {
                net.inject(a, b, Packet::new(a, b, "x", vec![i as u8]));
            }
            net.run()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Padding never shrinks the observable size and is idempotent at the
    /// target.
    #[test]
    fn packet_padding(payload_len in 0usize..512, pad in 0usize..2048) {
        let a = xlf_simnet::NodeId::from_raw(0);
        let b = xlf_simnet::NodeId::from_raw(1);
        let mut p = Packet::new(a, b, "x", vec![0u8; payload_len]);
        let before = p.wire_size;
        p.pad_to(pad);
        prop_assert!(p.wire_size >= before);
        prop_assert!(p.wire_size >= pad.min(before).min(p.wire_size));
        let once = p.wire_size;
        p.pad_to(pad);
        prop_assert_eq!(p.wire_size, once);
    }
}

use std::cell::RefCell;
use std::rc::Rc;
use xlf_simnet::{Context, FaultKind, FaultPlan, NetworkStats, Node as NodeTrait, NodeId};

/// One scripted step, consumed per timer firing: arm `rearm` fresh
/// timers at `delay_ms` (+0, +1, ... so equal deadlines are common).
type ChurnOp = (u64, u8);

/// A node that churns the scheduler according to a proptest-generated
/// script: every firing re-arms timers, recycling arena slots through
/// the free list, while a shared log records the exact `(time,
/// arm-order tag)` firing sequence.
struct Churner {
    script: Vec<ChurnOp>,
    pc: usize,
    next_tag: u64,
    log: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl Churner {
    fn arm(&mut self, ctx: &mut Context<'_>, delay_ms: u64) {
        ctx.set_timer(Duration::from_millis(delay_ms), self.next_tag);
        self.next_tag += 1;
    }
}

impl NodeTrait for Churner {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Seed the churn with deliberate equal-deadline groups.
        for delay in [5, 5, 5, 10, 10, 20] {
            self.arm(ctx, delay);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        self.log.borrow_mut().push((ctx.now().as_micros(), tag));
        if self.pc >= self.script.len() {
            return; // script exhausted: let the run drain and stop
        }
        let (delay_ms, rearm) = self.script[self.pc];
        self.pc += 1;
        for r in 0..rearm {
            self.arm(ctx, delay_ms + (r as u64 % 2)); // frequent ties
        }
    }
}

fn churn_script() -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec((0u64..6, 0u8..4), 1..64)
}

fn run_churn(script: &[ChurnOp]) -> Vec<(u64, u64)> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut net = Network::new(99);
    net.add_node(Box::new(Churner {
        script: script.to_vec(),
        pc: 0,
        next_tag: 0,
        log: log.clone(),
    }));
    net.run();
    let fired = log.borrow().clone();
    fired
}

proptest! {
    /// Arena/free-list reuse never reorders equal-time events: across
    /// arbitrary re-arm sequences the run is (a) reproducible and (b)
    /// seq-tie-break-preserving — timers sharing a deadline fire in the
    /// order they were armed, which is arm-tag order because effect
    /// application assigns seq numbers in arm order.
    #[test]
    fn scheduler_churn_preserves_equal_time_order(script in churn_script()) {
        let log = run_churn(&script);
        prop_assert_eq!(&log, &run_churn(&script), "run not reproducible");
        for pair in log.windows(2) {
            let (t0, tag0) = pair[0];
            let (t1, tag1) = pair[1];
            prop_assert!(t0 <= t1, "time went backwards: {t0} > {t1}");
            if t0 == t1 {
                prop_assert!(
                    tag0 < tag1,
                    "equal-time events reordered: tag {tag0} fired before {tag1} at t={t0}"
                );
            }
        }
    }
}

/// One generated fault: `(gap_ms since the previous fault, kind 0..7,
/// first node, second node, degrade loss, degrade extra latency ms)`.
type FaultOp = (u64, u8, u32, u32, f64, u64);

/// Sends one packet to every other node every 200 ms, so link, crash
/// and jam faults all have traffic to act on.
struct Pinger {
    nodes: u32,
}

impl NodeTrait for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_millis(200), 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        for peer in (0..self.nodes).map(NodeId::from_raw) {
            if peer != ctx.id() {
                ctx.send(peer, Packet::new(ctx.id(), peer, "ping", vec![0u8; 32]));
            }
        }
        ctx.set_timer(Duration::from_millis(200), 0);
    }
}

fn fault_kind(op: FaultOp, nodes: u32) -> FaultKind {
    let (_, kind, a, b, loss, extra_ms) = op;
    let (a, b) = (a % nodes, (a % nodes + 1 + b % (nodes - 1)) % nodes);
    let (a, b) = (NodeId::from_raw(a), NodeId::from_raw(b));
    match kind {
        0 => FaultKind::LinkDown { a, b },
        1 => FaultKind::LinkRestore { a, b },
        2 => FaultKind::LinkDegrade {
            a,
            b,
            loss,
            extra_latency: Duration::from_millis(extra_ms),
        },
        3 => FaultKind::NodeCrash { node: a },
        4 => FaultKind::NodeRestart { node: a },
        5 => FaultKind::RadioJam { node: a },
        _ => FaultKind::RadioClear { node: a },
    }
}

/// Runs `ops`, then a restore of every pair, over a `nodes`-node network
/// whose pairs are connected per `mask`. After each fault time it checks
/// `link_between` both ways against the documented semantics: down is
/// absent, a degrade starts from the connected config, and a restore
/// brings that config back. Returns the final stats.
fn run_fault_plan(nodes: u32, mask: u8, ops: &[FaultOp]) -> Result<NetworkStats, String> {
    let media = [Medium::Ethernet, Medium::Wifi, Medium::Zigbee, Medium::Ble];
    let mut pairs = Vec::new();
    for a in 0..nodes {
        for b in a + 1..nodes {
            pairs.push((NodeId::from_raw(a), NodeId::from_raw(b)));
        }
    }
    let mut net = Network::new(7);
    for _ in 0..nodes {
        net.add_node(Box::new(Pinger { nodes }));
    }
    let mut connected = Vec::new();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let config = (mask >> i & 1 == 1).then(|| media[i % media.len()].link());
        if let Some(config) = config {
            net.connect(a, b, config);
        }
        connected.push(config);
    }

    let mut at = SimTime::ZERO;
    let mut schedule = Vec::new();
    for &op in ops {
        at += Duration::from_millis(op.0);
        schedule.push((at, fault_kind(op, nodes)));
    }
    let end = at + Duration::from_millis(1);
    for &(a, b) in &pairs {
        schedule.push((end, FaultKind::LinkRestore { a, b }));
    }
    let plan = schedule.iter().fold(FaultPlan::new(), |plan, &(at, kind)| {
        plan.schedule(at, kind)
    });
    net.set_fault_plan(plan);

    let pair = |a: NodeId, b: NodeId| {
        let key = (a.min(b), a.max(b));
        pairs.iter().position(|&p| p == key).expect("a pair")
    };
    let mut want = connected.clone();
    for (k, &(at, kind)) in schedule.iter().enumerate() {
        match kind {
            FaultKind::LinkDown { a, b } => want[pair(a, b)] = None,
            FaultKind::LinkRestore { a, b } => want[pair(a, b)] = connected[pair(a, b)],
            FaultKind::LinkDegrade {
                a,
                b,
                loss,
                extra_latency,
            } => {
                let i = pair(a, b);
                if let (Some(link), Some(original)) = (&mut want[i], connected[i]) {
                    link.loss = loss.clamp(0.0, 0.999_999);
                    link.latency = original.latency + extra_latency;
                }
            }
            _ => {}
        }
        if schedule.get(k + 1).is_some_and(|next| next.0 == at) {
            continue; // check once every fault due at `at` has applied
        }
        net.run_until(at);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            for (from, to) in [(a, b), (b, a)] {
                let got = net.link_between(from, to).copied();
                if got != want[i] {
                    return Err(format!(
                        "at {at:?}, {from}->{to}: got {got:?}, want {:?}",
                        want[i]
                    ));
                }
            }
        }
    }
    Ok(net.run_until(end + Duration::from_secs(2)))
}

fn fault_ops() -> impl Strategy<Value = Vec<FaultOp>> {
    prop::collection::vec(
        (0u64..400, 0u8..7, 0u32..4, 0u32..4, 0.0f64..1.5, 0u64..50),
        1..24,
    )
}

proptest! {
    /// Overlapping link and node faults: while a link is down it is
    /// absent, while degraded it reads the clamped loss and the
    /// connected latency plus the extra, the final restore brings back
    /// the connected config (also after degrade-then-down), and the same
    /// plan replays to the same stats.
    #[test]
    fn overlapping_faults_keep_links_consistent(
        nodes in 3u32..5,
        mask in 1u8..64,
        ops in fault_ops(),
    ) {
        let first = run_fault_plan(nodes, mask, &ops)?;
        prop_assert_eq!(first, run_fault_plan(nodes, mask, &ops)?);
    }
}
