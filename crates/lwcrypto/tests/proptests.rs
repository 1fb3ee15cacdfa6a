//! Property-based tests over the cryptographic core: every invariant here
//! must hold for *arbitrary* inputs, not just the unit-test corpus.

use proptest::prelude::*;
use xlf_lwcrypto::ciphers::{Aes, Present80, Speck128};
use xlf_lwcrypto::hash::LightHash;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::mac::{prf, CbcMac};
use xlf_lwcrypto::modes::{Cbc, Ctr};
use xlf_lwcrypto::searchable::{match_rule, Tokenizer};
use xlf_lwcrypto::{registry, BlockCipher};

proptest! {
    /// Every registry cipher decrypts what it encrypts, for any block.
    #[test]
    fn all_ciphers_roundtrip_any_block(seed in any::<[u8; 8]>(), block_fill in any::<u8>()) {
        for cipher in registry(&seed) {
            let mut block = vec![block_fill; cipher.block_size()];
            let original = block.clone();
            cipher.encrypt_block(&mut block).unwrap();
            cipher.decrypt_block(&mut block).unwrap();
            prop_assert_eq!(&block, &original, "{}", cipher.info().name);
        }
    }

    /// AES roundtrips any key-size/block combination.
    #[test]
    fn aes_roundtrips(key in prop::collection::vec(any::<u8>(), 16..=16),
                      block in prop::collection::vec(any::<u8>(), 16..=16)) {
        let aes = Aes::new(&key).unwrap();
        let mut b: [u8; 16] = block.as_slice().try_into().unwrap();
        let original = b;
        aes.encrypt_block(&mut b).unwrap();
        aes.decrypt_block(&mut b).unwrap();
        prop_assert_eq!(b, original);
    }

    /// CTR is an involution for any payload and nonce.
    #[test]
    fn ctr_is_an_involution(key in any::<[u8; 16]>(),
                            nonce in any::<[u8; 16]>(),
                            payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let cipher = Speck128::new(&key).unwrap();
        let mut data = payload.clone();
        Ctr::new(&cipher, &nonce).apply(&mut data);
        Ctr::new(&cipher, &nonce).apply(&mut data);
        prop_assert_eq!(data, payload);
    }

    /// CTR keystream never degenerates: non-empty plaintexts change
    /// (probabilistically certain; a failure means a broken keystream).
    #[test]
    fn ctr_changes_nonempty_payloads(key in any::<[u8; 16]>(),
                                     payload in prop::collection::vec(any::<u8>(), 16..256)) {
        let cipher = Speck128::new(&key).unwrap();
        let mut data = payload.clone();
        Ctr::new(&cipher, &[0u8; 16]).apply(&mut data);
        prop_assert_ne!(data, payload);
    }

    /// CBC decrypt(encrypt(m)) == m for any message and IV.
    #[test]
    fn cbc_roundtrips(key in any::<[u8; 10]>(),
                      iv in any::<[u8; 8]>(),
                      payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let cipher = Present80::new(&key).unwrap();
        let cbc = Cbc::new(&cipher);
        let ct = cbc.encrypt(&iv, &payload).unwrap();
        prop_assert_eq!(cbc.decrypt(&iv, &ct).unwrap(), payload);
    }

    /// CBC ciphertext is always block-aligned and strictly longer than
    /// the plaintext (PKCS#7 always pads).
    #[test]
    fn cbc_padding_invariants(key in any::<[u8; 10]>(),
                              payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let cipher = Present80::new(&key).unwrap();
        let ct = Cbc::new(&cipher).encrypt(&[0u8; 8], &payload).unwrap();
        prop_assert_eq!(ct.len() % 8, 0);
        prop_assert!(ct.len() > payload.len());
        prop_assert!(ct.len() <= payload.len() + 8);
    }

    /// MAC verification accepts the genuine tag and rejects any
    /// single-bit corruption of it.
    #[test]
    fn mac_rejects_any_bit_flip(key in any::<[u8; 16]>(),
                                message in prop::collection::vec(any::<u8>(), 0..128),
                                bit in 0usize..128) {
        let cipher = Speck128::new(&key).unwrap();
        let mac = CbcMac::new(&cipher);
        let tag = mac.tag(&message).unwrap();
        prop_assert!(mac.verify(&message, &tag).unwrap());
        let mut bad = tag.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(!mac.verify(&message, &bad).unwrap());
    }

    /// MAC is message-sensitive: appending a byte changes the tag.
    #[test]
    fn mac_extension_changes_tag(key in any::<[u8; 16]>(),
                                 message in prop::collection::vec(any::<u8>(), 0..128),
                                 extra in any::<u8>()) {
        let cipher = Speck128::new(&key).unwrap();
        let mac = CbcMac::new(&cipher);
        let tag = mac.tag(&message).unwrap();
        let mut extended = message.clone();
        extended.push(extra);
        prop_assert_ne!(mac.tag(&extended).unwrap(), tag);
    }

    /// Hash: deterministic, and streaming in arbitrary chunkings matches
    /// the one-shot digest.
    #[test]
    fn hash_chunking_is_irrelevant(data in prop::collection::vec(any::<u8>(), 0..512),
                                   split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = LightHash::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), LightHash::digest(&data));
    }

    /// Hash input sensitivity: flipping any bit changes the digest.
    #[test]
    fn hash_bit_flip_changes_digest(data in prop::collection::vec(any::<u8>(), 1..256),
                                    bit in 0usize..2048) {
        let bit = bit % (data.len() * 8);
        let mut flipped = data.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(LightHash::digest(&data), LightHash::digest(&flipped));
    }

    /// KDF: exact lengths, prefix consistency, context separation.
    #[test]
    fn kdf_invariants(secret in prop::collection::vec(any::<u8>(), 1..64),
                      len in 1usize..128) {
        let a = derive_key(&secret, "ctx-a", len).unwrap();
        prop_assert_eq!(a.len(), len);
        let longer = derive_key(&secret, "ctx-a", len + 16).unwrap();
        prop_assert_eq!(&longer[..len], &a[..]);
        let b = derive_key(&secret, "ctx-b", len).unwrap();
        prop_assert_ne!(a, b);
    }

    /// Searchable encryption: a keyword embedded at any offset in any
    /// padding is found; the same keyword under a different session key
    /// never matches.
    #[test]
    fn searchable_finds_embedded_keywords(prefix in prop::collection::vec(0x20u8..0x7f, 0..64),
                                          suffix in prop::collection::vec(0x20u8..0x7f, 0..64)) {
        let keyword = b"MALWARE-SIGNATURE";
        let mut payload = prefix.clone();
        payload.extend_from_slice(keyword);
        payload.extend_from_slice(&suffix);

        let t = Tokenizer::new(b"session").unwrap();
        let traffic = t.tokenize(&payload);
        let rule = t.rule_tokens(keyword);
        prop_assert_eq!(match_rule(&traffic, &rule).first().copied(), Some(prefix.len()));

        let other = Tokenizer::new(b"other session").unwrap();
        let foreign_rule = other.rule_tokens(keyword);
        prop_assert!(match_rule(&traffic, &foreign_rule).is_empty());
    }
}

use xlf_lwcrypto::searchable::{Token, TokenIndex};

/// Raw token sequences drawn from a 4-symbol token alphabet, so first-
/// window collisions, overlapping rules, and empty rule sequences all
/// occur often.
fn tiny_token() -> impl Strategy<Value = Token> {
    (0u8..4).prop_map(|v| [v; 8])
}

fn token_rules() -> impl Strategy<Value = Vec<Vec<Token>>> {
    prop::collection::vec(prop::collection::vec(tiny_token(), 0..5), 1..10)
}

fn token_traffic() -> impl Strategy<Value = Vec<Token>> {
    prop::collection::vec(tiny_token(), 0..48)
}

proptest! {
    /// The token index returns exactly the naive `match_rule` answer for
    /// arbitrary rule sets and traffic streams — first offsets and the
    /// full position lists.
    #[test]
    fn token_index_equals_naive_scan(rules in token_rules(),
                                     traffic in token_traffic()) {
        let index = TokenIndex::build(rules.clone());
        let expected_firsts: Vec<Option<usize>> = rules
            .iter()
            .map(|r| match_rule(&traffic, r).first().copied())
            .collect();
        prop_assert_eq!(index.find_first_per_rule(&traffic), expected_firsts);
        let expected_all: Vec<Vec<usize>> =
            rules.iter().map(|r| match_rule(&traffic, r)).collect();
        prop_assert_eq!(index.find_positions(&traffic), expected_all);
    }

    /// Same equivalence through the real tokenizer: random keywords
    /// (including empty and overlapping ones) against random payloads.
    #[test]
    fn token_index_equals_naive_scan_via_tokenizer(
        keywords in prop::collection::vec(prop::collection::vec(97u8..100, 0..12), 1..8),
        payload in prop::collection::vec(97u8..100, 0..64),
        secret in "[a-z]{4,12}") {
        let t = Tokenizer::new(secret.as_bytes()).unwrap();
        let rules: Vec<Vec<Token>> = keywords.iter().map(|k| t.rule_tokens(k)).collect();
        let traffic = t.tokenize(&payload);
        let index = TokenIndex::build(rules.clone());
        let expected: Vec<Option<usize>> = rules
            .iter()
            .map(|r| match_rule(&traffic, r).first().copied())
            .collect();
        prop_assert_eq!(index.find_first_per_rule(&traffic), expected);
    }
}

/// The reference window token: the CBC-MAC PRF of one zero-padded
/// window under the session token key, composed from the public
/// primitives with no shared state.
fn reference_token(secret: &[u8], window: &[u8]) -> Token {
    let key = derive_key(secret, "xlf-searchable-token", 16).unwrap();
    let cipher = Speck128::new(&key).unwrap();
    let mut padded = window.to_vec();
    padded.resize(8, 0);
    prf(&cipher, "blindbox-token", &padded).unwrap()[..8]
        .try_into()
        .unwrap()
}

/// The reference token stream: one PRF call per sliding window, or one
/// zero-padded window for payloads shorter than it.
fn reference_tokens(secret: &[u8], payload: &[u8]) -> Vec<Token> {
    if payload.len() < 8 {
        return vec![reference_token(secret, payload)];
    }
    payload
        .windows(8)
        .map(|w| reference_token(secret, w))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn tokens_match_reference_prf_at_every_length_below_300() {
    // Lengths below the window, exactly one window, and window counts on
    // both sides of every multiple of the SPECK lane count.
    let secret = b"equivalence session";
    let t = Tokenizer::new(secret).unwrap();
    let payload: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
    let mut reused = vec![[0xEE; 8]; 3];
    for len in 0..payload.len() {
        let expected = reference_tokens(secret, &payload[..len]);
        assert_eq!(t.tokenize(&payload[..len]), expected, "length {len}");
        t.tokenize_into(&payload[..len], &mut reused);
        assert_eq!(reused, expected, "tokenize_into, length {len}");
    }
}

/// Space-padded telemetry (the `SimDevice` payload shape), all-equal
/// payloads, and a constant segment at every position of short
/// payloads: runs of equal windows that start and end at every offset of
/// a four-lane batch, at every length from 8 to 20.
#[test]
fn run_heavy_payloads_match_reference_prf() {
    let secret = b"run session";
    let t = Tokenizer::new(secret).unwrap();
    let mut reused = Vec::new();
    let mut check = |payload: &[u8]| {
        t.tokenize_into(payload, &mut reused);
        assert_eq!(reused, reference_tokens(secret, payload), "{payload:?}");
    };
    for size in [48, 120, 900] {
        for reading in ["Temperature=71.23", "Camera=912.07", "Motion=1.00"] {
            let mut payload = reading.as_bytes().to_vec();
            payload.resize(size, b' ');
            check(&payload);
        }
    }
    for fill in [b' ', 0, 0xFF] {
        for len in 0..=40 {
            check(&vec![fill; len]);
        }
    }
    for len in 8..=20 {
        let distinct: Vec<u8> = (0..len as u8).map(|i| b'a' + i).collect();
        for start in 0..len {
            for end in start + 1..=len {
                let mut payload = distinct.clone();
                payload[start..end].fill(b' ');
                check(&payload);
            }
        }
    }
}

/// Payloads made of runs: each segment is one byte repeated 1–23 times.
fn run_heavy_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (prop::sample::select(vec![b' ', b'0', b'=', 0]), 1usize..24),
        1..16,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(byte, n)| std::iter::repeat_n(byte, n))
            .collect()
    })
}

proptest! {
    /// `tokenize_into`, which encrypts only the head of each run of equal
    /// windows, equals the per-window reference PRF on payloads made of
    /// runs, written over a buffer holding an earlier stream.
    #[test]
    fn run_heavy_tokens_equal_reference_prf(secret in prop::collection::vec(any::<u8>(), 1..40),
                                            payload in run_heavy_payload()) {
        let t = Tokenizer::new(&secret).unwrap();
        let mut reused = t.tokenize(b"previous payload in the buffer");
        t.tokenize_into(&payload, &mut reused);
        prop_assert_eq!(reused, reference_tokens(&secret, &payload));
    }
}

#[test]
fn tokenizer_known_answers() {
    // Pinned from the per-window PRF composition, so the midstate kernel
    // and the reference cannot drift together.
    let t = Tokenizer::new(b"xlf known-answer session").unwrap();
    assert_eq!(hex(&t.tokenize(b"GET /bot.sh")[0]), "308fecbfea8e6dba");
    assert_eq!(hex(&t.rule_token(b"hi")), "0b64a55a224ab2ef");
}

proptest! {
    /// `tokenize` and `tokenize_into` equal the per-window reference PRF
    /// for arbitrary secrets and payloads up to 1100 bytes.
    #[test]
    fn tokens_equal_reference_prf(secret in prop::collection::vec(any::<u8>(), 1..40),
                                  payload in prop::collection::vec(any::<u8>(), 0..1100)) {
        let t = Tokenizer::new(&secret).unwrap();
        let expected = reference_tokens(&secret, &payload);
        prop_assert_eq!(t.tokenize(&payload), expected.clone());
        let mut reused = t.tokenize(b"previous payload in the buffer");
        t.tokenize_into(&payload, &mut reused);
        prop_assert_eq!(reused, expected);
    }

    /// Rule tokens equal the reference for short and long keywords: a
    /// short keyword is zero-padded, a long one uses its first window, and
    /// `rule_tokens` is the keyword's sliding-window stream.
    #[test]
    fn rule_tokens_equal_reference_prf(secret in prop::collection::vec(any::<u8>(), 1..40),
                                       keyword in prop::collection::vec(any::<u8>(), 0..24)) {
        let t = Tokenizer::new(&secret).unwrap();
        let first = &keyword[..keyword.len().min(8)];
        prop_assert_eq!(t.rule_token(&keyword), reference_token(&secret, first));
        prop_assert_eq!(t.rule_tokens(&keyword), reference_tokens(&secret, &keyword));
    }
}
