//! The evidence bus: the fabric through which layer mechanisms hand their
//! raw observations and detection results to the XLF Core (§IV: "these
//! layers do not work individually, but interact with each other whenever
//! possible through the XLF Core in the center").
//!
//! One shared FIFO queue per home: every mechanism holds a cheap
//! cloneable [`EvidenceBus`] handle; the Core drains the queue through
//! its [`EvidenceDrain`] when it evaluates. A home's mechanisms and its
//! Core live on one thread, so the queue is a plain `Rc<RefCell<…>>`
//! and the bus is neither `Send` nor `Sync`. The bus comes in two
//! flavours:
//!
//! - [`EvidenceBus::new`] — unbounded: every observation queues until the
//!   Core drains it (the single-home deployments, where one Core serves
//!   one home and memory is not contended).
//! - [`EvidenceBus::bounded`] — capacity-limited with a **shed-oldest**
//!   policy: when the queue is full the oldest queued observation is
//!   evicted to make room (newest intelligence wins — the Core would
//!   rather see the freshest picture of an overload than a stale prefix
//!   of it). Fleet workers multiplexing many homes run on bounded buses
//!   so one chatty home cannot OOM its shard.
//!
//! Either way, no loss is silent: observations that had nowhere to go
//! (Core drain end gone) and observations shed under overload are both
//! charged to [`EvidenceBus::dropped`], with the overload subset
//! separately visible through [`EvidenceBus::shed`] so disconnect-losses
//! and overload-sheds stay distinguishable.

use crate::evidence::{Evidence, EvidenceStore};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A cloneable handle mechanisms use to report evidence. Every clone
/// shares one queue and its loss counters, so a clone costs a reference
/// count.
#[derive(Debug, Clone)]
pub struct EvidenceBus {
    queue: Rc<RefCell<Queue>>,
}

/// What every clone of one [`EvidenceBus`] and its [`EvidenceDrain`]
/// share.
#[derive(Debug)]
struct Queue {
    items: VecDeque<Evidence>,
    /// `None` = unbounded.
    cap: Option<usize>,
    /// Observations lost for any reason — drain end gone *or* shed under
    /// overload.
    dropped: u64,
    /// The overload-shed subset of `dropped` (oldest observations
    /// evicted by [`EvidenceBus::report`] on a full bounded bus).
    shed: u64,
    /// False once the [`EvidenceDrain`] is dropped.
    open: bool,
}

impl EvidenceBus {
    /// Creates an unbounded bus, returning the shared handle and the
    /// Core's drain end.
    pub fn new() -> (EvidenceBus, EvidenceDrain) {
        Self::over(None)
    }

    /// Creates a bounded bus holding at most `cap` queued observations.
    /// When a report arrives on a full queue the **oldest** queued
    /// observation is shed to make room (see [`EvidenceBus::shed`]).
    /// A `cap` of 0 is clamped to 1: the bus always holds the newest
    /// observation.
    pub fn bounded(cap: usize) -> (EvidenceBus, EvidenceDrain) {
        Self::over(Some(cap.max(1)))
    }

    fn over(cap: Option<usize>) -> (EvidenceBus, EvidenceDrain) {
        let queue = Rc::new(RefCell::new(Queue {
            items: VecDeque::new(),
            cap,
            dropped: 0,
            shed: 0,
            open: true,
        }));
        (
            EvidenceBus {
                queue: Rc::clone(&queue),
            },
            EvidenceDrain { queue },
        )
    }

    /// Reports one observation (never blocks). On a full bounded bus the
    /// oldest queued observation is evicted in its favour and the
    /// eviction is charged to both [`EvidenceBus::dropped`] and
    /// [`EvidenceBus::shed`]. Once the Core's drain end is gone the
    /// observation itself is lost; that loss is counted in
    /// [`EvidenceBus::dropped`] only.
    pub fn report(&self, evidence: Evidence) {
        let mut q = self.queue.borrow_mut();
        if !q.open {
            q.dropped += 1;
            return;
        }
        if q.cap.is_some_and(|cap| q.items.len() >= cap) {
            q.items.pop_front();
            q.dropped += 1;
            q.shed += 1;
        }
        q.items.push_back(evidence);
    }

    /// How many observations were lost, for any reason (drain end gone
    /// when they were reported, or shed under overload), aggregated
    /// across all clones of this bus. Always `>=` [`EvidenceBus::shed`];
    /// the difference is the disconnect-loss count.
    pub fn dropped(&self) -> u64 {
        self.queue.borrow().dropped
    }

    /// How many queued observations were shed (evicted oldest-first) to
    /// make room for newer ones on a full bounded bus. Always 0 for an
    /// unbounded bus.
    pub fn shed(&self) -> u64 {
        self.queue.borrow().shed
    }

    /// The queue capacity (`None` for an unbounded bus).
    pub fn capacity(&self) -> Option<usize> {
        self.queue.borrow().cap
    }
}

/// The Core's receiving end. Dropping it closes the bus: later reports
/// are counted in [`EvidenceBus::dropped`].
#[derive(Debug)]
pub struct EvidenceDrain {
    queue: Rc<RefCell<Queue>>,
}

impl EvidenceDrain {
    /// Moves every pending observation into the store; returns how many
    /// arrived.
    pub fn drain_into(&self, store: &mut EvidenceStore) -> usize {
        self.drain_up_to(store, usize::MAX)
    }

    /// Moves at most `max` pending observations into the store; returns
    /// how many moved. Anything beyond `max` stays queued for the next
    /// drain — a fleet worker multiplexing many homes uses this so one
    /// chatty home cannot stall its whole shard.
    pub fn drain_up_to(&self, store: &mut EvidenceStore, max: usize) -> usize {
        let mut q = self.queue.borrow_mut();
        let n = max.min(q.items.len());
        for evidence in q.items.drain(..n) {
            store.push(evidence);
        }
        n
    }

    /// Observations queued but not yet drained.
    pub fn pending(&self) -> usize {
        self.queue.borrow().items.len()
    }
}

impl Drop for EvidenceDrain {
    fn drop(&mut self) {
        self.queue.borrow_mut().open = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::{EvidenceKind, Layer};
    use xlf_simnet::SimTime;

    fn ev(device: &str) -> Evidence {
        Evidence::new(
            SimTime::ZERO,
            Layer::Network,
            device,
            EvidenceKind::DpiMatch,
            0.9,
            "test",
        )
    }

    #[test]
    fn reports_from_cloned_handles_all_arrive() {
        let (bus, drain) = EvidenceBus::new();
        let bus2 = bus.clone();
        bus.report(ev("cam"));
        bus2.report(ev("lamp"));
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_into(&mut store), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn drain_is_idempotent_when_empty() {
        let (_bus, drain) = EvidenceBus::new();
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_into(&mut store), 0);
        assert_eq!(drain.drain_into(&mut store), 0);
    }

    #[test]
    fn report_after_drain_still_arrives_next_drain() {
        let (bus, drain) = EvidenceBus::new();
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        bus.report(ev("cam"));
        assert_eq!(drain.drain_into(&mut store), 1);
    }

    #[test]
    fn reports_after_the_core_is_gone_are_counted_not_silent() {
        let (bus, drain) = EvidenceBus::new();
        let bus2 = bus.clone();
        bus.report(ev("cam"));
        drop(drain); // the Core goes away with one observation pending
        bus.report(ev("cam"));
        bus2.report(ev("lamp"));
        // Both clones see the bus-wide count; nothing was shed.
        assert_eq!(bus.dropped(), 2);
        assert_eq!(bus2.dropped(), 2);
        assert_eq!(bus.shed(), 0);
    }

    #[test]
    fn drain_up_to_respects_the_limit_and_keeps_leftovers() {
        let (bus, drain) = EvidenceBus::new();
        for i in 0..5 {
            bus.report(ev(&format!("dev{i}")));
        }
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_up_to(&mut store, 3), 3);
        assert_eq!(store.len(), 3);
        assert_eq!(drain.pending(), 2);
        // FIFO order is preserved across the split drains.
        assert_eq!(store.all()[0].device, "dev0");
        assert_eq!(drain.drain_up_to(&mut store, 10), 2);
        assert_eq!(store.all()[3].device, "dev3");
        assert_eq!(drain.drain_up_to(&mut store, 10), 0);
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn drain_up_to_zero_moves_nothing() {
        let (bus, drain) = EvidenceBus::new();
        bus.report(ev("cam"));
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_up_to(&mut store, 0), 0);
        assert_eq!(drain.pending(), 1);
    }

    #[test]
    fn unbounded_bus_has_no_capacity_and_never_sheds() {
        let (bus, drain) = EvidenceBus::new();
        assert_eq!(bus.capacity(), None);
        for i in 0..1000 {
            bus.report(ev(&format!("dev{i}")));
        }
        assert_eq!(bus.shed(), 0);
        assert_eq!(bus.dropped(), 0);
        assert_eq!(drain.pending(), 1000);
    }

    #[test]
    fn bounded_bus_sheds_oldest_and_survivors_keep_fifo_order() {
        let (bus, drain) = EvidenceBus::bounded(3);
        assert_eq!(bus.capacity(), Some(3));
        for i in 0..5 {
            bus.report(ev(&format!("dev{i}")));
        }
        // dev0 and dev1 (the two oldest) were shed; dev2..dev4 survive
        // in FIFO order.
        assert_eq!(bus.shed(), 2);
        assert_eq!(bus.dropped(), 2);
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_into(&mut store), 3);
        let names: Vec<&str> = store.all().iter().map(|e| e.device.as_str()).collect();
        assert_eq!(names, ["dev2", "dev3", "dev4"]);
    }

    #[test]
    fn draining_frees_capacity_so_later_reports_do_not_shed() {
        let (bus, drain) = EvidenceBus::bounded(2);
        bus.report(ev("a"));
        bus.report(ev("b"));
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_into(&mut store), 2);
        bus.report(ev("c"));
        bus.report(ev("d"));
        assert_eq!(bus.shed(), 0);
        assert_eq!(drain.drain_into(&mut store), 2);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn shed_and_dropped_accounting_is_shared_across_cloned_handles() {
        let (bus, drain) = EvidenceBus::bounded(1);
        let bus2 = bus.clone();
        bus.report(ev("a"));
        bus2.report(ev("b")); // sheds "a"
        bus.report(ev("c")); // sheds "b"
        assert_eq!(bus.shed(), 2);
        assert_eq!(bus2.shed(), 2);
        assert_eq!(bus.dropped(), 2);
        // Disconnect losses pile onto dropped() but not shed().
        drop(drain);
        bus2.report(ev("d"));
        assert_eq!(bus.dropped(), 3);
        assert_eq!(bus.shed(), 2);
        assert_eq!(bus2.shed(), 2);
    }

    #[test]
    fn bounded_bus_at_capacity_one_always_holds_the_newest() {
        let (bus, drain) = EvidenceBus::bounded(1);
        for i in 0..10 {
            bus.report(ev(&format!("dev{i}")));
        }
        assert_eq!(bus.shed(), 9);
        let mut store = EvidenceStore::new();
        assert_eq!(drain.drain_into(&mut store), 1);
        assert_eq!(store.all()[0].device, "dev9");
    }
}
