//! Constrained access (§IV-A3): "network access requests are either
//! accepted or denied based on a pre-determined set of parameters and
//! policies", with DNS as the linchpin — devices resolve only allowlisted
//! names through the gateway's hardened resolver.

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xlf_protocols::dns::{DnsRecord, RecordType, ResolveOutcome, Resolver, ResolverConfig};
use xlf_simnet::{NodeId, SimTime};

/// Decision on a connection attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessDecision {
    /// Allowed by policy.
    Allow,
    /// Destination not in the device's allowlist.
    BlockedDestination,
    /// Device is quarantined.
    BlockedQuarantine,
}

/// What a NAC permits each device: the destination names it may
/// resolve and the node addresses it may reach.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlists {
    /// device → allowed destination names.
    names: BTreeMap<String, BTreeSet<String>>,
    /// device → allowed raw node destinations (resolved addresses).
    nodes: BTreeMap<String, BTreeSet<NodeId>>,
}

impl Allowlists {
    fn allows_destination(&self, device: &str, name: &str) -> bool {
        self.names.get(device).is_some_and(|set| set.contains(name))
    }

    fn allows_node(&self, device: &str, node: NodeId) -> bool {
        self.nodes
            .get(device)
            .is_some_and(|set| set.contains(&node))
    }
}

/// The gateway's network-access-control table.
#[derive(Debug)]
pub struct Nac {
    /// Shared with every NAC built over the same allowlists
    /// ([`Nac::with_allowlists`]) until this one permits something new.
    allowlists: Arc<Allowlists>,
    quarantined: BTreeSet<String>,
    /// The gateway's hardened resolver (txid + DNSSEC).
    pub resolver: Resolver,
    bus: Option<EvidenceBus>,
    /// Decisions made, for reporting: (allowed, blocked).
    pub decisions: (u64, u64),
}

impl Default for Nac {
    fn default() -> Self {
        Self::new()
    }
}

impl Nac {
    /// Creates a NAC with a hardened resolver and empty allowlists.
    pub fn new() -> Self {
        Self::with_allowlists(Arc::default())
    }

    /// Creates a NAC with a hardened resolver, checking against
    /// `allowlists`, shared with whoever else holds them until this NAC
    /// permits something they do not.
    pub fn with_allowlists(allowlists: Arc<Allowlists>) -> Self {
        Nac {
            allowlists,
            quarantined: BTreeSet::new(),
            resolver: Resolver::new(ResolverConfig::hardened()),
            bus: None,
            decisions: (0, 0),
        }
    }

    /// Attaches the evidence bus.
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// The allowlists this NAC checks against.
    pub fn allowlists(&self) -> &Arc<Allowlists> {
        &self.allowlists
    }

    /// Permits `device` to contact `name` (e.g. its vendor cloud). A
    /// permission already held changes nothing (and copies nothing).
    pub fn allow_destination(&mut self, device: &str, name: &str) {
        if !self.allowlists.allows_destination(device, name) {
            Arc::make_mut(&mut self.allowlists)
                .names
                .entry(device.to_string())
                .or_default()
                .insert(name.to_string());
        }
    }

    /// Permits `device` to contact a resolved node address. A permission
    /// already held changes nothing (and copies nothing).
    pub fn allow_node(&mut self, device: &str, node: NodeId) {
        if !self.allowlists.allows_node(device, node) {
            Arc::make_mut(&mut self.allowlists)
                .nodes
                .entry(device.to_string())
                .or_default()
                .insert(node);
        }
    }

    /// Quarantines a device (all traffic blocked).
    pub fn quarantine(&mut self, device: &str) {
        self.quarantined.insert(device.to_string());
    }

    /// Releases a quarantine.
    pub fn release(&mut self, device: &str) {
        self.quarantined.remove(device);
    }

    /// Whether a device is quarantined.
    pub fn is_quarantined(&self, device: &str) -> bool {
        self.quarantined.contains(device)
    }

    /// Checks a connection attempt to a named destination.
    pub fn check_destination(&mut self, device: &str, name: &str, now: SimTime) -> AccessDecision {
        if self.quarantined.contains(device) {
            // Quarantine drops are the Core's own response, not fresh
            // observations — reporting them would self-reinforce verdicts.
            self.decisions.1 += 1;
            let _ = now;
            return AccessDecision::BlockedQuarantine;
        }
        if self.allowlists.allows_destination(device, name) {
            self.decisions.0 += 1;
            AccessDecision::Allow
        } else {
            self.decisions.1 += 1;
            self.report_block(device, &format!("destination {name} not allowlisted"), now);
            AccessDecision::BlockedDestination
        }
    }

    /// Checks a connection attempt to a raw node address.
    pub fn check_node(&mut self, device: &str, node: NodeId, now: SimTime) -> AccessDecision {
        if self.quarantined.contains(device) {
            self.decisions.1 += 1;
            let _ = now;
            return AccessDecision::BlockedQuarantine;
        }
        if self.allowlists.allows_node(device, node) {
            self.decisions.0 += 1;
            AccessDecision::Allow
        } else {
            self.decisions.1 += 1;
            self.report_block(device, &format!("node {node} not allowlisted"), now);
            AccessDecision::BlockedDestination
        }
    }

    /// Resolves a name on behalf of a device through the hardened
    /// resolver; blocked destinations never even resolve.
    pub fn resolve_for(
        &mut self,
        device: &str,
        name: &str,
        response: (DnsRecord, u16),
        now: SimTime,
    ) -> Result<DnsRecord, AccessDecision> {
        match self.check_destination(device, name, now) {
            AccessDecision::Allow => {}
            blocked => return Err(blocked),
        }
        let _txid = self.resolver.start_query(name, RecordType::A);
        // The caller supplies the (possibly attacker-injected) response;
        // the hardened resolver decides.
        let accepted_record = response.0.clone();
        let outcome = self.resolver.handle_response(response.0, response.1, now);
        match outcome {
            // Prefer the cache entry; a zero-TTL record can be accepted
            // yet already expired, in which case the validated response
            // itself is the answer (no panic on a cold cache).
            ResolveOutcome::Accepted => Ok(self
                .resolver
                .cached(name, RecordType::A, now)
                .cloned()
                .unwrap_or(accepted_record)),
            _ => {
                if let Some(bus) = &self.bus {
                    bus.report(Evidence::new(
                        now,
                        Layer::Network,
                        device,
                        EvidenceKind::DnsBlocked,
                        0.7,
                        &format!("DNS response for {name} rejected: {outcome:?}"),
                    ));
                }
                Err(AccessDecision::BlockedDestination)
            }
        }
    }

    fn report_block(&self, device: &str, detail: &str, now: SimTime) {
        if let Some(bus) = &self.bus {
            bus.report(Evidence::new(
                now,
                Layer::Network,
                device,
                EvidenceKind::DestinationBlocked,
                0.5,
                detail,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;

    #[test]
    fn allowlisted_destinations_pass() {
        let mut nac = Nac::new();
        nac.allow_destination("cam", "stream.vendor.example");
        assert_eq!(
            nac.check_destination("cam", "stream.vendor.example", SimTime::ZERO),
            AccessDecision::Allow
        );
        assert_eq!(
            nac.check_destination("cam", "cnc.evil", SimTime::ZERO),
            AccessDecision::BlockedDestination
        );
        assert_eq!(nac.decisions, (1, 1));
    }

    #[test]
    fn quarantine_blocks_everything() {
        let mut nac = Nac::new();
        nac.allow_destination("cam", "stream.vendor.example");
        nac.quarantine("cam");
        assert_eq!(
            nac.check_destination("cam", "stream.vendor.example", SimTime::ZERO),
            AccessDecision::BlockedQuarantine
        );
        nac.release("cam");
        assert_eq!(
            nac.check_destination("cam", "stream.vendor.example", SimTime::ZERO),
            AccessDecision::Allow
        );
    }

    #[test]
    fn node_level_checks() {
        let mut nac = Nac::new();
        let cloud = NodeId::from_raw(9);
        let victim = NodeId::from_raw(5);
        nac.allow_node("cam", cloud);
        assert_eq!(
            nac.check_node("cam", cloud, SimTime::ZERO),
            AccessDecision::Allow
        );
        assert_eq!(
            nac.check_node("cam", victim, SimTime::ZERO),
            AccessDecision::BlockedDestination
        );
    }

    #[test]
    fn blocks_emit_evidence() {
        let (bus, drain) = EvidenceBus::new();
        let mut nac = Nac::new().with_bus(bus);
        nac.check_destination("cam", "cnc.evil", SimTime::ZERO);
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        assert_eq!(store.len(), 1);
        assert_eq!(store.all()[0].kind, EvidenceKind::DestinationBlocked);
    }

    #[test]
    fn hardened_resolution_rejects_spoofed_records_with_evidence() {
        let (bus, drain) = EvidenceBus::new();
        let mut nac = Nac::new().with_bus(bus);
        nac.allow_destination("cam", "hub.vendor.example");
        nac.resolver
            .add_trust_anchor("vendor.example", b"zone secret");

        // A spoofed, unsigned record with a guessed txid.
        let spoof = DnsRecord::new("hub.vendor.example", RecordType::A, "n666", 300);
        let result = nac.resolve_for("cam", "hub.vendor.example", (spoof, 0xBEEF), SimTime::ZERO);
        assert!(result.is_err());
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        assert!(store
            .all()
            .iter()
            .any(|e| e.kind == EvidenceKind::DnsBlocked));
    }

    #[test]
    fn legitimate_signed_resolution_succeeds() {
        let mut nac = Nac::new();
        nac.allow_destination("cam", "hub.vendor.example");
        nac.resolver
            .add_trust_anchor("vendor.example", b"zone secret");
        let record =
            DnsRecord::new("hub.vendor.example", RecordType::A, "n3", 300).sign(b"zone secret");
        // The resolver requires the txid it generated; mirror it by
        // peeking: start_query is called inside resolve_for, and txids
        // count up from 1 in a fresh resolver.
        let result = nac.resolve_for("cam", "hub.vendor.example", (record, 1), SimTime::ZERO);
        assert_eq!(result.unwrap().value, "n3");
    }
}
