//! Caching stub resolver with configurable hardening.
//!
//! The vulnerable configuration accepts any response whose name matches an
//! outstanding query (off-path spoofable); the hardened configuration
//! requires transaction-id matching and DNSSEC validation against
//! configured trust anchors — the §IV-A3 constrained-access posture.

use super::records::{DnsRecord, RecordType};
use std::collections::BTreeMap;
use xlf_simnet::SimTime;

/// The largest TTL a resolver honours: RFC 2181 §8 caps TTLs at 2³¹ − 1
/// seconds. A response carries its TTL as sent, spoofed or not, so
/// clamping it keeps the cache expiry from overflowing.
const MAX_TTL_SECS: u64 = (1 << 31) - 1;

/// Hardening knobs of a resolver.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Require the response transaction id to match the query's.
    pub check_txid: bool,
    /// Require DNSSEC validation for zones with a configured trust anchor.
    pub validate_dnssec: bool,
}

impl ResolverConfig {
    /// The naive IoT-device resolver: trusts anything (Table II /
    /// `NaiveDnsTrust`).
    pub fn naive() -> Self {
        ResolverConfig {
            check_txid: false,
            validate_dnssec: false,
        }
    }

    /// The hardened XLF posture.
    pub fn hardened() -> Self {
        ResolverConfig {
            check_txid: true,
            validate_dnssec: true,
        }
    }
}

/// Result of feeding a response to the resolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveOutcome {
    /// Response accepted and cached.
    Accepted,
    /// No outstanding query matches this response.
    Unsolicited,
    /// Transaction id mismatch (spoof attempt blocked).
    TxidMismatch,
    /// DNSSEC validation failed (spoof attempt blocked).
    ValidationFailed,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    record: DnsRecord,
    expires: SimTime,
}

/// A caching resolver.
#[derive(Debug, Clone)]
pub struct Resolver {
    config: ResolverConfig,
    cache: BTreeMap<(String, RecordType), CacheEntry>,
    /// Outstanding queries: (name, rtype) → txid.
    pending: BTreeMap<(String, RecordType), u16>,
    /// zone → trust anchor secret.
    trust_anchors: BTreeMap<String, Vec<u8>>,
    next_txid: u16,
}

impl Resolver {
    /// Creates a resolver with the given hardening.
    pub fn new(config: ResolverConfig) -> Self {
        Resolver {
            config,
            cache: BTreeMap::new(),
            pending: BTreeMap::new(),
            trust_anchors: BTreeMap::new(),
            next_txid: 1,
        }
    }

    /// Installs a DNSSEC trust anchor for a zone.
    pub fn add_trust_anchor(&mut self, zone: &str, secret: &[u8]) {
        self.trust_anchors.insert(zone.to_string(), secret.to_vec());
    }

    /// Looks up the cache; expired entries are treated as absent.
    pub fn cached(&self, name: &str, rtype: RecordType, now: SimTime) -> Option<&DnsRecord> {
        self.cache
            .get(&(name.to_string(), rtype))
            .filter(|e| e.expires > now)
            .map(|e| &e.record)
    }

    /// Registers an outgoing query and returns its transaction id.
    pub fn start_query(&mut self, name: &str, rtype: RecordType) -> u16 {
        let txid = self.next_txid;
        self.next_txid = self.next_txid.wrapping_add(1).max(1);
        self.pending.insert((name.to_string(), rtype), txid);
        txid
    }

    fn zone_of(name: &str) -> String {
        let labels: Vec<&str> = name.split('.').collect();
        if labels.len() <= 2 {
            name.to_string()
        } else {
            labels[labels.len() - 2..].join(".")
        }
    }

    /// Feeds a response (legitimate or spoofed) to the resolver.
    pub fn handle_response(
        &mut self,
        record: DnsRecord,
        response_txid: u16,
        now: SimTime,
    ) -> ResolveOutcome {
        let key = (record.name.clone(), record.rtype);
        let Some(&expected_txid) = self.pending.get(&key) else {
            return ResolveOutcome::Unsolicited;
        };
        if self.config.check_txid && response_txid != expected_txid {
            return ResolveOutcome::TxidMismatch;
        }
        if self.config.validate_dnssec {
            let zone = Self::zone_of(&record.name);
            if let Some(anchor) = self.trust_anchors.get(&zone) {
                if !record.validate(anchor) {
                    return ResolveOutcome::ValidationFailed;
                }
            }
        }
        self.pending.remove(&key);
        let ttl = record.ttl_secs.min(MAX_TTL_SECS);
        let expires = now + xlf_simnet::Duration::from_secs(ttl);
        self.cache.insert(key, CacheEntry { record, expires });
        ResolveOutcome::Accepted
    }

    /// Number of cached entries (including expired ones not yet evicted).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZONE_SECRET: &[u8] = b"vendor zone";

    fn legit() -> DnsRecord {
        DnsRecord::new("hub.vendor.example", RecordType::A, "n3", 300).sign(ZONE_SECRET)
    }

    fn spoof() -> DnsRecord {
        DnsRecord::new("hub.vendor.example", RecordType::A, "n666", 300)
    }

    #[test]
    fn naive_resolver_is_poisonable() {
        let mut r = Resolver::new(ResolverConfig::naive());
        let _txid = r.start_query("hub.vendor.example", RecordType::A);
        // Off-path spoofer guesses txid wrong and has no zone key.
        let outcome = r.handle_response(spoof(), 0xDEAD, SimTime::ZERO);
        assert_eq!(outcome, ResolveOutcome::Accepted);
        assert_eq!(
            r.cached("hub.vendor.example", RecordType::A, SimTime::ZERO)
                .unwrap()
                .value,
            "n666"
        );
    }

    #[test]
    fn txid_checking_blocks_blind_spoofing() {
        let mut r = Resolver::new(ResolverConfig {
            check_txid: true,
            validate_dnssec: false,
        });
        let txid = r.start_query("hub.vendor.example", RecordType::A);
        assert_eq!(
            r.handle_response(spoof(), txid.wrapping_add(1), SimTime::ZERO),
            ResolveOutcome::TxidMismatch
        );
        // An on-path attacker who sees the txid still wins without DNSSEC.
        assert_eq!(
            r.handle_response(spoof(), txid, SimTime::ZERO),
            ResolveOutcome::Accepted
        );
    }

    #[test]
    fn dnssec_blocks_even_on_path_spoofing() {
        let mut r = Resolver::new(ResolverConfig::hardened());
        r.add_trust_anchor("vendor.example", ZONE_SECRET);
        let txid = r.start_query("hub.vendor.example", RecordType::A);
        assert_eq!(
            r.handle_response(spoof(), txid, SimTime::ZERO),
            ResolveOutcome::ValidationFailed
        );
        assert_eq!(
            r.handle_response(legit(), txid, SimTime::ZERO),
            ResolveOutcome::Accepted
        );
        assert_eq!(
            r.cached("hub.vendor.example", RecordType::A, SimTime::ZERO)
                .unwrap()
                .value,
            "n3"
        );
    }

    #[test]
    fn unsolicited_responses_are_ignored() {
        let mut r = Resolver::new(ResolverConfig::naive());
        assert_eq!(
            r.handle_response(legit(), 1, SimTime::ZERO),
            ResolveOutcome::Unsolicited
        );
        assert_eq!(r.cache_len(), 0);
    }

    #[test]
    fn cache_respects_ttl() {
        let mut r = Resolver::new(ResolverConfig::naive());
        let txid = r.start_query("hub.vendor.example", RecordType::A);
        r.handle_response(legit(), txid, SimTime::ZERO);
        assert!(r
            .cached("hub.vendor.example", RecordType::A, SimTime::from_secs(299))
            .is_some());
        assert!(r
            .cached("hub.vendor.example", RecordType::A, SimTime::from_secs(301))
            .is_none());
    }

    #[test]
    fn a_ttl_past_the_rfc_maximum_is_clamped_not_wrapped() {
        let (name, mut r) = ("hub.vendor.example", Resolver::new(ResolverConfig::naive()));
        let txid = r.start_query(name, RecordType::A);
        let forever = DnsRecord::new(name, RecordType::A, "n666", u64::MAX);
        let outcome = r.handle_response(forever, txid, SimTime::ZERO);
        assert_eq!(outcome, ResolveOutcome::Accepted);
        let cached = |secs| {
            r.cached(name, RecordType::A, SimTime::from_secs(secs))
                .is_some()
        };
        let ends = [1, MAX_TTL_SECS - 1, MAX_TTL_SECS].map(cached);
        assert_eq!(ends, [true, true, false]);
    }

    #[test]
    fn accepted_response_consumes_the_pending_query() {
        let mut r = Resolver::new(ResolverConfig::naive());
        let txid = r.start_query("hub.vendor.example", RecordType::A);
        assert_eq!(
            r.handle_response(legit(), txid, SimTime::ZERO),
            ResolveOutcome::Accepted
        );
        // A second (spoofed) response for the same query no longer lands.
        assert_eq!(
            r.handle_response(spoof(), txid, SimTime::ZERO),
            ResolveOutcome::Unsolicited
        );
    }
}
