//! The discrete-event engine: event queue, dispatch loop, and the
//! [`Context`] through which nodes act on the world.

use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::link::LinkConfig;
use crate::node::{Node, NodeId, TimerId};
use crate::observer::Tap;
use crate::packet::Packet;
use crate::queue::EventQueue;
use crate::time::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Aggregate counters the engine maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets handed to a link (after shaping, before loss).
    pub sent: u64,
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Packets dropped by link loss.
    pub lost: u64,
    /// Packets dropped because no link connects src and dst.
    pub no_route: u64,
    /// Total wire bytes transmitted.
    pub wire_bytes: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Events suppressed by injected faults: packets to crashed nodes or
    /// over severed links, plus timers voided by a crash.
    pub fault_drops: u64,
    /// Fault events applied from the installed [`FaultPlan`].
    pub faults_applied: u64,
}

#[derive(Debug)]
enum EventKind {
    Deliver(Packet),
    Timer {
        node: NodeId,
        timer: TimerId,
        tag: u64,
        /// Crash epoch of the owning node when the timer was armed; a
        /// crash bumps the node's epoch so pre-crash timers never fire.
        epoch: u64,
    },
}

enum Effect {
    Send {
        packet: Packet,
        extra_delay: Duration,
    },
    SetTimer {
        node: NodeId,
        timer: TimerId,
        after: Duration,
        tag: u64,
    },
    CancelTimer(TimerId),
}

/// The world a node callback can act on: send packets, arm timers, read
/// the clock.
pub struct Context<'a> {
    id: NodeId,
    now: SimTime,
    effects: &'a mut Vec<Effect>,
    next_timer: &'a mut u64,
}

impl<'a> Context<'a> {
    /// The node this callback belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `packet` to `to` over the direct link (must exist, else the
    /// packet is dropped and counted in [`NetworkStats::no_route`]).
    pub fn send(&mut self, to: NodeId, mut packet: Packet) {
        packet.src = self.id;
        packet.dst = to;
        self.effects.push(Effect::Send {
            packet,
            extra_delay: Duration::ZERO,
        });
    }

    /// Sends after an additional sender-side delay (the traffic-shaping
    /// primitive).
    pub fn send_after(&mut self, to: NodeId, mut packet: Packet, delay: Duration) {
        packet.src = self.id;
        packet.dst = to;
        self.effects.push(Effect::Send {
            packet,
            extra_delay: delay,
        });
    }

    /// Arms a one-shot timer that fires after `after`, delivering `tag`
    /// back to [`Node::on_timer`].
    pub fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        let timer = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer {
            node: self.id,
            timer,
            after,
            tag,
        });
        timer
    }

    /// Cancels a previously armed timer (no-op if already fired).
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.effects.push(Effect::CancelTimer(timer));
    }
}

/// A deterministic simulated network.
pub struct Network {
    nodes: Vec<Option<Box<dyn Node>>>,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    /// Arena-backed 4-ary scheduler: payloads stay in the slab, only
    /// 24-byte `(time, seq, slot, gen)` entries move during sifts, and
    /// pop order is identical to the old `BinaryHeap<Reverse<Event>>`
    /// because `(at, seq)` is a total order (see [`crate::queue`]).
    queue: EventQueue<EventKind>,
    now: SimTime,
    seq: u64,
    seed: u64,
    rng: StdRng,
    taps: Vec<Box<dyn Tap>>,
    cancelled: HashSet<u64>,
    next_timer: u64,
    /// Reusable buffer for node-callback effects: taken by [`with_node`]
    /// for the duration of one callback and drained in place by
    /// [`apply_effects`], so steady-state dispatch allocates nothing.
    effects_scratch: Vec<Effect>,
    /// Nodes with index below this have had `on_start` dispatched.
    started_upto: usize,
    stats: NetworkStats,
    /// Hard cap on processed events, preventing runaway feedback loops.
    pub max_events: u64,
    /// Installed fault schedule, sorted; `fault_cursor` indexes the next
    /// unapplied fault.
    fault_plan: Vec<FaultEvent>,
    fault_cursor: usize,
    /// Links severed by `LinkDown`, keyed per direction, holding the
    /// original config for restore.
    downed_links: HashMap<(NodeId, NodeId), LinkConfig>,
    /// Original configs of links currently degraded by `LinkDegrade`.
    degraded_links: HashMap<(NodeId, NodeId), LinkConfig>,
    /// Nodes currently crashed (no callbacks, deliveries dropped).
    crashed: HashSet<NodeId>,
    /// Per-node crash epoch; bumped on crash to void pre-crash timers.
    crash_epochs: HashMap<NodeId, u64>,
    /// Per-node forward clock skew added to `Context::now`.
    skew: HashMap<NodeId, Duration>,
    /// Nodes whose radio is currently jammed by `RadioJam` (every packet
    /// to or from them is a fault drop).
    jammed: HashSet<NodeId>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates an empty network with a deterministic RNG seed (drives
    /// packet loss only).
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: HashMap::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            seed,
            rng: StdRng::seed_from_u64(seed),
            taps: Vec::new(),
            cancelled: HashSet::new(),
            next_timer: 0,
            effects_scratch: Vec::new(),
            started_upto: 0,
            stats: NetworkStats::default(),
            max_events: 20_000_000,
            fault_plan: Vec::new(),
            fault_cursor: 0,
            downed_links: HashMap::new(),
            degraded_links: HashMap::new(),
            crashed: HashSet::new(),
            crash_epochs: HashMap::new(),
            skew: HashMap::new(),
            jammed: HashSet::new(),
        }
    }

    /// Installs a fault schedule. Faults at or before the next event's
    /// time are applied before that event dispatches, so a run with a
    /// plan is as deterministic as one without. Replaces any previously
    /// installed (unapplied remainder of a) plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan.into_sorted();
        self.fault_cursor = 0;
    }

    /// The RNG seed this network was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Registers a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId::from_raw(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        id
    }

    /// Connects two nodes with a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown or `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        assert_ne!(a, b, "cannot self-link {a}");
        assert!((a.raw() as usize) < self.nodes.len(), "unknown node {a}");
        assert!((b.raw() as usize) < self.nodes.len(), "unknown node {b}");
        self.links.insert((a, b), config);
        self.links.insert((b, a), config);
    }

    /// Attaches a promiscuous tap observing every transmission.
    pub fn add_tap(&mut self, tap: Box<dyn Tap>) {
        self.taps.push(tap);
    }

    /// Looks up the link between two nodes.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&LinkConfig> {
        self.links.get(&(a, b))
    }

    /// Queues a packet for delivery as if `src` had sent it (bootstraps
    /// traffic from outside any node callback). Honors links, loss, and
    /// observers exactly like [`Context::send`].
    pub fn inject(&mut self, src: NodeId, dst: NodeId, mut packet: Packet) {
        packet.src = src;
        packet.dst = dst;
        self.transmit(packet, Duration::ZERO);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine counters so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Immutable access to a node (for post-run inspection via downcast
    /// helpers in higher layers).
    pub fn node(&self, id: NodeId) -> Option<&dyn Node> {
        self.nodes
            .get(id.raw() as usize)
            .and_then(|slot| slot.as_deref())
    }

    /// Downcasts a node to its concrete type for inspection.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.node(id).and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Downcasts a node mutably (e.g. to reconfigure it between runs).
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        match self.nodes.get_mut(id.raw() as usize) {
            Some(Some(node)) => node.as_any_mut().downcast_mut::<T>(),
            _ => None,
        }
    }

    fn transmit(&mut self, packet: Packet, extra_delay: Duration) {
        let key = (packet.src, packet.dst);
        if self.downed_links.contains_key(&key) {
            // The link exists but is currently severed by a fault: this
            // is an outage drop, not a routing error.
            self.stats.fault_drops += 1;
            return;
        }
        if self.jammed.contains(&packet.src) || self.jammed.contains(&packet.dst) {
            // Jammed radios drop on the wire before the loss draw, so
            // the RNG stream for unjammed traffic is unperturbed.
            self.stats.fault_drops += 1;
            return;
        }
        let Some(link) = self.links.get(&key).copied() else {
            self.stats.no_route += 1;
            return;
        };
        self.stats.sent += 1;
        self.stats.wire_bytes += packet.wire_size as u64;
        let at = self.now + extra_delay + link.delay_for(packet.wire_size);
        for tap in self.taps.iter_mut() {
            tap.on_transmit(self.now + extra_delay, &packet, &link);
        }
        if link.loss > 0.0 && self.rng.gen::<f64>() < link.loss {
            self.stats.lost += 1;
            return;
        }
        self.push_event(at, EventKind::Deliver(packet));
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, kind);
    }

    /// Drains `effects` in place so the caller's buffer (and its
    /// capacity) survives for the next dispatch.
    fn apply_effects(&mut self, effects: &mut Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    packet,
                    extra_delay,
                } => self.transmit(packet, extra_delay),
                Effect::SetTimer {
                    node,
                    timer,
                    after,
                    tag,
                } => {
                    let at = self.now + after;
                    let epoch = self.crash_epochs.get(&node).copied().unwrap_or(0);
                    self.push_event(
                        at,
                        EventKind::Timer {
                            node,
                            timer,
                            tag,
                            epoch,
                        },
                    );
                }
                Effect::CancelTimer(timer) => {
                    self.cancelled.insert(timer.0);
                }
            }
        }
    }

    /// Dispatches `on_start` for any node that has not yet been started
    /// (including nodes added between runs).
    fn dispatch_start(&mut self) {
        while self.started_upto < self.nodes.len() {
            let id = NodeId::from_raw(self.started_upto as u32);
            self.started_upto += 1;
            self.with_node(id, |node, ctx| node.on_start(ctx));
        }
    }

    /// Runs `f` with the node temporarily removed from the registry (so
    /// the callback can borrow the network through `Context` effects).
    fn with_node<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Context<'_>),
    {
        if self.crashed.contains(&id) {
            return;
        }
        let slot = id.raw() as usize;
        let Some(mut node) = self.nodes.get_mut(slot).and_then(Option::take) else {
            return;
        };
        // Reuse the scratch buffer's capacity across dispatches; `take`
        // leaves an empty Vec behind, so a (hypothetical) re-entrant
        // callback would degrade to allocating rather than aliasing.
        let mut effects = std::mem::take(&mut self.effects_scratch);
        let mut next_timer = self.next_timer;
        let local_now = self.now + self.skew.get(&id).copied().unwrap_or(Duration::ZERO);
        {
            let mut ctx = Context {
                id,
                now: local_now,
                effects: &mut effects,
                next_timer: &mut next_timer,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.next_timer = next_timer;
        self.nodes[slot] = Some(node);
        self.apply_effects(&mut effects);
        self.effects_scratch = effects;
    }

    /// Runs the simulation until the event queue is empty (or the event
    /// cap is hit). Returns the final counters.
    pub fn run(&mut self) -> NetworkStats {
        self.run_until(SimTime::from_micros(u64::MAX))
    }

    /// Applies one fault to the world at `self.now`.
    fn apply_fault(&mut self, kind: FaultKind) {
        self.stats.faults_applied += 1;
        match kind {
            FaultKind::LinkDown { a, b } => {
                for key in [(a, b), (b, a)] {
                    // A degraded link goes down with its *original*
                    // config saved, so a later restore is complete.
                    let original = self.degraded_links.remove(&key);
                    if let Some(cfg) = self.links.remove(&key) {
                        let saved = original.unwrap_or(cfg);
                        self.downed_links.entry(key).or_insert(saved);
                    }
                }
            }
            FaultKind::LinkRestore { a, b } => {
                for key in [(a, b), (b, a)] {
                    if let Some(cfg) = self.downed_links.remove(&key) {
                        self.links.insert(key, cfg);
                    } else if let Some(cfg) = self.degraded_links.remove(&key) {
                        self.links.insert(key, cfg);
                    }
                }
            }
            FaultKind::LinkDegrade {
                a,
                b,
                loss,
                extra_latency,
            } => {
                for key in [(a, b), (b, a)] {
                    if let Some(cfg) = self.links.get(&key).copied() {
                        let original = *self.degraded_links.entry(key).or_insert(cfg);
                        let mut degraded = original;
                        degraded.loss = loss.clamp(0.0, 0.999_999);
                        degraded.latency = original.latency + extra_latency;
                        self.links.insert(key, degraded);
                    }
                }
            }
            FaultKind::NodeCrash { node } => {
                if self.crashed.insert(node) {
                    *self.crash_epochs.entry(node).or_insert(0) += 1;
                }
            }
            FaultKind::NodeRestart { node } => {
                if self.crashed.remove(&node) {
                    self.with_node(node, |n, ctx| n.on_restart(ctx));
                }
            }
            FaultKind::ClockSkew { node, ahead } => {
                self.skew.insert(node, ahead);
            }
            FaultKind::RadioJam { node } => {
                self.jammed.insert(node);
            }
            FaultKind::RadioClear { node } => {
                self.jammed.remove(&node);
            }
        }
    }

    /// Runs the simulation until `deadline` (inclusive) or queue
    /// exhaustion. Events scheduled after the deadline remain queued.
    pub fn run_until(&mut self, deadline: SimTime) -> NetworkStats {
        let _ = self.run_until_capped(deadline, u64::MAX);
        self.stats
    }

    /// Like [`Network::run_until`] but stops after processing at most
    /// `budget` events. Returns `(events_processed, truncated)`:
    /// `truncated` is true when the budget ran out with work still
    /// pending at or before the deadline. Faults do not count against
    /// the budget.
    pub fn run_until_capped(&mut self, deadline: SimTime, budget: u64) -> (u64, bool) {
        self.dispatch_start();
        let mut processed = 0u64;
        loop {
            let next_event_at = self.queue.peek_key().map(|(at, _)| at);
            let next_fault_at = self.fault_plan.get(self.fault_cursor).map(|f| f.at);

            // Faults due before (or tied with) the next event apply
            // first: a link that goes down at t kills the packet
            // arriving at t.
            if let Some(fa) = next_fault_at {
                if fa <= deadline && next_event_at.is_none_or(|ea| fa <= ea) {
                    let fault = self.fault_plan[self.fault_cursor];
                    self.fault_cursor += 1;
                    if fault.at > self.now {
                        self.now = fault.at;
                    }
                    self.apply_fault(fault.kind);
                    continue;
                }
            }

            match next_event_at {
                Some(at) if at <= deadline => {}
                _ => break,
            }
            if processed >= budget {
                return (processed, true);
            }
            let Some((at, _seq, kind)) = self.queue.pop() else {
                break;
            };
            self.now = at;
            processed += 1;
            if processed > self.max_events {
                panic!(
                    "event cap exceeded ({}) — runaway feedback loop?",
                    self.max_events
                );
            }
            match kind {
                EventKind::Deliver(packet) => {
                    let dst = packet.dst;
                    if self.crashed.contains(&dst) {
                        self.stats.fault_drops += 1;
                        continue;
                    }
                    self.stats.delivered += 1;
                    self.with_node(dst, |node, ctx| node.on_packet(ctx, packet));
                }
                EventKind::Timer {
                    node,
                    timer,
                    tag,
                    epoch,
                } => {
                    if self.cancelled.remove(&timer.0) {
                        continue;
                    }
                    if self.crashed.contains(&node)
                        || epoch != self.crash_epochs.get(&node).copied().unwrap_or(0)
                    {
                        // Armed before a crash (or owner still down):
                        // the crash voided it.
                        self.stats.fault_drops += 1;
                        continue;
                    }
                    self.stats.timers_fired += 1;
                    self.with_node(node, |n, ctx| n.on_timer(ctx, timer, tag));
                }
            }
        }
        (processed, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::Medium;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            let reply = Packet::new(ctx.id(), packet.src, "echo", packet.payload.clone());
            ctx.send(packet.src, reply);
        }
    }

    #[derive(Default)]
    struct Sink {
        received: Rc<RefCell<Vec<(SimTime, Packet)>>>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            self.received.borrow_mut().push((ctx.now(), packet));
        }
    }

    #[test]
    fn ping_pong_delivers_both_directions() {
        let mut net = Network::new(1);
        let received = Rc::new(RefCell::new(Vec::new()));
        let echo = net.add_node(Box::new(Echo));
        let sink = net.add_node(Box::new(Sink {
            received: received.clone(),
        }));
        net.connect(echo, sink, Medium::Ethernet.link());
        net.inject(sink, echo, Packet::new(sink, echo, "ping", b"hi".to_vec()));
        let stats = net.run();
        assert_eq!(stats.delivered, 2);
        assert_eq!(received.borrow().len(), 1);
        assert_eq!(received.borrow()[0].1.kind, "echo");
    }

    #[test]
    fn delivery_time_respects_link_delay() {
        let mut net = Network::new(1);
        let received = Rc::new(RefCell::new(Vec::new()));
        let a = net.add_node(Box::new(Sink {
            received: received.clone(),
        }));
        let b = net.add_node(Box::new(Sink::default()));
        net.connect(a, b, Medium::Zigbee.link().with_loss(0.0));
        net.inject(b, a, Packet::new(b, a, "reading", vec![0u8; 60]));
        net.run();
        let at = received.borrow()[0].0;
        let expected = Medium::Zigbee.link().delay_for(100); // 60 + 40 overhead
        assert_eq!(at, SimTime::ZERO + expected);
    }

    #[test]
    fn no_route_counts_instead_of_panicking() {
        let mut net = Network::new(1);
        let a = net.add_node(Box::new(Sink::default()));
        let b = net.add_node(Box::new(Sink::default()));
        net.inject(a, b, Packet::new(a, b, "x", vec![1u8]));
        let stats = net.run();
        assert_eq!(stats.no_route, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn lossy_link_drops_a_fraction() {
        let mut net = Network::new(7);
        let a = net.add_node(Box::new(Sink::default()));
        let b = net.add_node(Box::new(Sink::default()));
        net.connect(a, b, Medium::Wifi.link().with_loss(0.5));
        for _ in 0..400 {
            net.inject(a, b, Packet::new(a, b, "x", vec![1u8]));
        }
        let stats = net.run();
        assert!(
            stats.lost > 120 && stats.lost < 280,
            "lost = {}",
            stats.lost
        );
        assert_eq!(stats.lost + stats.delivered, 400);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once() -> NetworkStats {
            let mut net = Network::new(99);
            let a = net.add_node(Box::new(Sink::default()));
            let b = net.add_node(Box::new(Echo));
            net.connect(a, b, Medium::Wifi.link().with_loss(0.3));
            for i in 0..100 {
                net.inject(a, b, Packet::new(a, b, "x", vec![i as u8]));
            }
            net.run()
        }
        assert_eq!(run_once(), run_once());
    }

    struct Beeper {
        fired: Rc<RefCell<Vec<u64>>>,
        cancel_second: bool,
    }
    impl Node for Beeper {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(5), 1);
            let second = ctx.set_timer(Duration::from_millis(10), 2);
            if self.cancel_second {
                ctx.cancel_timer(second);
            }
            ctx.set_timer(Duration::from_millis(15), 3);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
            self.fired.borrow_mut().push(tag);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        net.add_node(Box::new(Beeper {
            fired: fired.clone(),
            cancel_second: false,
        }));
        net.run();
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        net.add_node(Box::new(Beeper {
            fired: fired.clone(),
            cancel_second: true,
        }));
        let stats = net.run();
        assert_eq!(*fired.borrow(), vec![1, 3]);
        assert_eq!(stats.timers_fired, 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        net.add_node(Box::new(Beeper {
            fired: fired.clone(),
            cancel_second: false,
        }));
        net.run_until(SimTime::from_millis(7));
        assert_eq!(*fired.borrow(), vec![1]);
        net.run_until(SimTime::from_millis(20));
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn link_flap_severs_then_restores_delivery() {
        use crate::fault::FaultPlan;
        // Sender fires one packet per second for 10 s; the link is down
        // for seconds [3, 6), so exactly those sends are outage drops.
        struct Ticker {
            peer: NodeId,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_secs(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId, _tag: u64) {
                let p = Packet::new(ctx.id(), self.peer, "tick", vec![0u8]);
                ctx.send(self.peer, p);
                ctx.set_timer(Duration::from_secs(1), 1);
            }
        }
        let received = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        let sink = net.add_node(Box::new(Sink {
            received: received.clone(),
        }));
        let ticker = net.add_node(Box::new(Ticker { peer: sink }));
        net.connect(ticker, sink, Medium::Ethernet.link().with_loss(0.0));
        net.set_fault_plan(FaultPlan::new().link_flap(
            ticker,
            sink,
            SimTime::from_secs(3),
            Duration::from_secs(3),
        ));
        let stats = net.run_until(SimTime::from_secs(11));
        // Sends at t=3,4,5 hit the downed link (flap applies before the
        // same-time event); t=1,2 and t=6..=10 get through before the
        // deadline (t=11's send is still in flight).
        assert_eq!(stats.fault_drops, 3, "stats: {stats:?}");
        assert_eq!(received.borrow().len(), 7);
        assert_eq!(stats.faults_applied, 2);
    }

    #[test]
    fn radio_jam_drops_traffic_only_inside_the_window() {
        use crate::fault::FaultPlan;
        // Same cadence as the link-flap test: one packet per second for
        // 10 s, radio jammed for seconds [3, 6).
        struct Ticker {
            peer: NodeId,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_secs(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId, _tag: u64) {
                let p = Packet::new(ctx.id(), self.peer, "tick", vec![0u8]);
                ctx.send(self.peer, p);
                ctx.set_timer(Duration::from_secs(1), 1);
            }
        }
        let received = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        let sink = net.add_node(Box::new(Sink {
            received: received.clone(),
        }));
        let ticker = net.add_node(Box::new(Ticker { peer: sink }));
        net.connect(ticker, sink, Medium::Zigbee.link().with_loss(0.0));
        net.set_fault_plan(FaultPlan::new().radio_jam(
            ticker,
            SimTime::from_secs(3),
            Duration::from_secs(3),
        ));
        let stats = net.run_until(SimTime::from_secs(11));
        // Sends at t=3,4,5 hit the jam (it applies before the same-time
        // event); t=1,2 and t=6..=10 get through.
        assert_eq!(stats.fault_drops, 3, "stats: {stats:?}");
        assert_eq!(received.borrow().len(), 7);
        assert_eq!(stats.faults_applied, 2);
    }

    #[test]
    fn jam_on_either_endpoint_drops_the_packet() {
        use crate::fault::FaultPlan;
        let mut net = Network::new(1);
        let a = net.add_node(Box::new(Sink::default()));
        let b = net.add_node(Box::new(Sink::default()));
        net.connect(a, b, Medium::Zigbee.link().with_loss(0.0));
        // Jam the *receiver*: the sender's transmission still dies on
        // the wire.
        net.set_fault_plan(FaultPlan::new().radio_jam(b, SimTime::ZERO, Duration::from_secs(1)));
        net.run_until(SimTime::from_millis(1));
        net.inject(a, b, Packet::new(a, b, "x", vec![1u8]));
        let stats = net.run_until(SimTime::from_millis(500));
        assert_eq!(stats.fault_drops, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn crash_voids_timers_and_restart_resumes_via_on_start() {
        use crate::fault::FaultPlan;
        struct Heartbeat {
            beats: Rc<RefCell<Vec<SimTime>>>,
        }
        impl Node for Heartbeat {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_secs(2), 7);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId, _tag: u64) {
                self.beats.borrow_mut().push(ctx.now());
                ctx.set_timer(Duration::from_secs(2), 7);
            }
        }
        let beats = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        let hb = net.add_node(Box::new(Heartbeat {
            beats: beats.clone(),
        }));
        net.set_fault_plan(FaultPlan::new().node_crash(
            hb,
            SimTime::from_secs(5),
            Some(Duration::from_secs(6)),
        ));
        let stats = net.run_until(SimTime::from_secs(20));
        // Beats at 2, 4 — crash at 5 voids the timer armed at 4 — then
        // restart at 11 re-runs on_start: beats resume at 13, 15, ...
        let got: Vec<u64> = beats
            .borrow()
            .iter()
            .map(|t| t.as_micros() / 1_000_000)
            .collect();
        assert_eq!(got, vec![2, 4, 13, 15, 17, 19]);
        assert!(stats.fault_drops >= 1, "pre-crash timer must be voided");
    }

    #[test]
    fn deliveries_to_a_crashed_node_are_outage_drops() {
        use crate::fault::FaultPlan;
        let received = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        let a = net.add_node(Box::new(Sink::default()));
        let b = net.add_node(Box::new(Sink {
            received: received.clone(),
        }));
        net.connect(a, b, Medium::Ethernet.link().with_loss(0.0));
        net.set_fault_plan(FaultPlan::new().node_crash(b, SimTime::ZERO, None));
        net.inject(a, b, Packet::new(a, b, "x", vec![1u8]));
        let stats = net.run();
        assert_eq!(stats.fault_drops, 1);
        assert_eq!(stats.delivered, 0);
        assert!(received.borrow().is_empty());
    }

    #[test]
    fn clock_skew_shifts_context_now_forward() {
        use crate::fault::FaultPlan;
        let received = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        let sink = net.add_node(Box::new(Sink {
            received: received.clone(),
        }));
        let src = net.add_node(Box::new(Sink::default()));
        net.connect(src, sink, Medium::Ethernet.link().with_loss(0.0));
        net.set_fault_plan(FaultPlan::new().clock_skew(
            sink,
            SimTime::from_secs(1),
            Duration::from_secs(30),
        ));
        net.run_until(SimTime::from_secs(2));
        net.inject(src, sink, Packet::new(src, sink, "x", vec![1u8]));
        net.run_until(SimTime::from_secs(3));
        let seen_at = received.borrow()[0].0;
        // The skewed node's local clock reads ~30 s ahead of engine time.
        assert!(seen_at >= SimTime::from_secs(31), "seen at {seen_at:?}");
    }

    #[test]
    fn degraded_link_loses_packets_only_inside_the_window() {
        use crate::fault::FaultPlan;
        // Loss is drawn at transmit time, so the sender must actually be
        // transmitting inside the degrade window: 30 packets per second
        // for 25 s, with seconds [10, 20) degraded to 90% loss.
        struct Burster {
            peer: NodeId,
        }
        impl Node for Burster {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_secs(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId, _tag: u64) {
                for _ in 0..30 {
                    let p = Packet::new(ctx.id(), self.peer, "x", vec![1u8]);
                    ctx.send(self.peer, p);
                }
                ctx.set_timer(Duration::from_secs(1), 1);
            }
        }
        let mut net = Network::new(21);
        let b = net.add_node(Box::new(Sink::default()));
        let a = net.add_node(Box::new(Burster { peer: b }));
        net.connect(a, b, Medium::Ethernet.link().with_loss(0.0));
        net.set_fault_plan(FaultPlan::new().burst_loss(
            a,
            b,
            SimTime::from_secs(10),
            Duration::from_secs(10),
            0.9,
            Duration::ZERO,
        ));
        net.run_until(SimTime::from_millis(9_500));
        assert_eq!(net.stats().lost, 0, "healthy link loses nothing");
        net.run_until(SimTime::from_millis(19_500));
        let inside = net.stats().lost;
        // 10 bursts × 30 packets at 90% loss → ~270 expected.
        assert!(inside > 200, "degraded window should lose most: {inside}");
        net.run_until(SimTime::from_secs(25));
        assert_eq!(net.stats().lost, inside, "restored link loses nothing");
    }

    #[test]
    fn fault_plans_are_deterministic() {
        use crate::fault::FaultPlan;
        fn run_once() -> NetworkStats {
            let mut net = Network::new(99);
            let a = net.add_node(Box::new(Sink::default()));
            let b = net.add_node(Box::new(Echo));
            net.connect(a, b, Medium::Wifi.link().with_loss(0.3));
            net.set_fault_plan(
                FaultPlan::new()
                    .link_flap(a, b, SimTime::from_millis(5), Duration::from_millis(10))
                    .node_crash(b, SimTime::from_millis(30), Some(Duration::from_millis(10))),
            );
            for i in 0..100 {
                net.inject(a, b, Packet::new(a, b, "x", vec![i as u8]));
            }
            net.run()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn run_until_capped_truncates_and_resumes() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        net.add_node(Box::new(Beeper {
            fired: fired.clone(),
            cancel_second: false,
        }));
        let (n, truncated) = net.run_until_capped(SimTime::from_secs(1), 2);
        assert_eq!((n, truncated), (2, true));
        assert_eq!(*fired.borrow(), vec![1, 2]);
        // The remaining event is still queued and runs on the next call.
        let (n, truncated) = net.run_until_capped(SimTime::from_secs(1), u64::MAX);
        assert_eq!((n, truncated), (1, false));
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn send_after_adds_sender_delay() {
        struct Delayer;
        impl Node for Delayer {
            fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
                let fwd = Packet::new(ctx.id(), packet.src, "delayed", packet.payload.clone());
                ctx.send_after(packet.src, fwd, Duration::from_millis(50));
            }
        }
        let received = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(1);
        let sink = net.add_node(Box::new(Sink {
            received: received.clone(),
        }));
        let delayer = net.add_node(Box::new(Delayer));
        net.connect(sink, delayer, Medium::Ethernet.link());
        net.inject(sink, delayer, Packet::new(sink, delayer, "x", vec![0u8]));
        net.run();
        let at = received.borrow()[0].0;
        assert!(at.as_micros() >= 50_000);
    }
}
