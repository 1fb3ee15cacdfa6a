//! Property-based tests over the protocol substrates: codecs must
//! roundtrip arbitrary well-formed inputs and security layers must hold
//! their invariants under arbitrary payloads.

use proptest::prelude::*;
use xlf_protocols::dns::{
    encode_query, encode_response, DnsRecord, DnsTransport, RecordType, ResolveOutcome, Resolver,
    ResolverConfig,
};
use xlf_protocols::ieee802154::{FrameReceiver, FrameSender, SecuredFrame, SecurityLevel};
use xlf_protocols::rest::{Method, Request, Response};
use xlf_protocols::ssdp::SsdpMessage;
use xlf_protocols::tls::{Role, Session, TlsError};
use xlf_simnet::{Duration, SimTime};

fn qname_strategy() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,12}(\\.[a-z0-9]{1,12}){0,3}"
}

fn token_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_-]{1,24}"
}

const LEVELS: [SecurityLevel; 3] = [
    SecurityLevel::None,
    SecurityLevel::Mic,
    SecurityLevel::EncMic,
];

/// Any 802.15.4 frame fields: sender, counter, level, body, and a MIC
/// that is absent or of any length.
fn frame_strategy() -> impl Strategy<Value = SecuredFrame> {
    (
        any::<u16>(),
        any::<u32>(),
        prop::sample::select(LEVELS.to_vec()),
        prop::collection::vec(any::<u8>(), 0..64),
        proptest::option::of(prop::collection::vec(any::<u8>(), 0..24)),
    )
        .prop_map(|(sender, counter, level, body, mic)| SecuredFrame {
            sender,
            counter,
            level,
            body,
            mic,
        })
}

/// The name the resolver under test has a query pending for.
const QUERIED: &str = "hub.vendor.example";
/// The zone secret of the resolver's trust anchor for `vendor.example`.
const ZONE: &[u8] = b"vendor zone";

/// Any DNS answer: the queried name or another, either record type, any
/// value, a TTL that is small, within 100,000 of `u64::MAX` or any, and
/// a signature that is valid, absent, or arbitrary bytes.
fn answer_strategy() -> impl Strategy<Value = DnsRecord> {
    (
        (any::<bool>(), qname_strategy()),
        prop::sample::select(vec![RecordType::A, RecordType::Txt]),
        "[ -~]{0,16}",
        (0u8..3, any::<u64>()),
        (0u8..3, prop::collection::vec(any::<u8>(), 0..24)),
    )
        .prop_map(
            |((queried, other), rtype, value, (span, ttl), (sig, rrsig))| {
                let name = if queried { QUERIED } else { &other };
                let ttl = match span {
                    0 => ttl % 100_000,
                    1 => u64::MAX - ttl % 100_000,
                    _ => ttl,
                };
                let record = DnsRecord::new(name, rtype, &value, ttl);
                match sig {
                    0 => record.sign(ZONE),
                    1 => record,
                    _ => DnsRecord {
                        rrsig: Some(rrsig),
                        ..record
                    },
                }
            },
        )
}

proptest! {
    /// DNS transports roundtrip any qname/txid; encrypted transports never
    /// leak the name bytes in the wire form.
    #[test]
    fn dns_query_roundtrip(qname in qname_strategy(), txid in any::<u16>()) {
        for transport in [
            DnsTransport::Plain,
            DnsTransport::DoT,
            DnsTransport::DoH,
            DnsTransport::XlfLightweight,
        ] {
            let wire = encode_query(transport, &qname, txid, b"secret");
            let (t, name) = encode_response(transport, &wire, b"secret").unwrap();
            prop_assert_eq!(t, txid);
            prop_assert_eq!(&name, &qname);
            if !transport.qname_visible() && qname.len() >= 4 {
                prop_assert!(
                    !wire.bytes.windows(qname.len()).any(|w| w == qname.as_bytes()),
                    "{transport:?} leaked the qname"
                );
            }
        }
    }

    /// Signed DNS records validate; any change to any field invalidates.
    #[test]
    fn dnssec_signature_binds_all_fields(name in qname_strategy(),
                                         value in token_text(),
                                         ttl in 1u64..100_000) {
        let rec = DnsRecord::new(&name, RecordType::A, &value, ttl).sign(b"zone");
        prop_assert!(rec.validate(b"zone"));
        let mut tampered = rec.clone();
        tampered.ttl_secs += 1;
        prop_assert!(!tampered.validate(b"zone"));
        let mut tampered = rec.clone();
        tampered.value.push('x');
        prop_assert!(!tampered.validate(b"zone"));
    }

    /// TLS-lite: arbitrary payload streams roundtrip in order; any
    /// single-bit corruption of any record is rejected.
    #[test]
    fn tls_stream_roundtrip_and_integrity(
        psk in prop::collection::vec(any::<u8>(), 1..32),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
        corrupt_bit in any::<u16>(),
    ) {
        let mut client = Session::establish(&psk, "prop", Role::Client);
        let mut server = Session::establish(&psk, "prop", Role::Server);
        for payload in &payloads {
            let record = client.seal(payload).unwrap();
            prop_assert_eq!(&server.open(&record).unwrap(), payload);
        }
        // Corrupt a fresh record anywhere: must fail.
        let record = client.seal(b"target").unwrap();
        let mut bad = record.clone();
        let bit = corrupt_bit as usize % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        let outcome = server.open(&bad);
        let rejected = matches!(
            outcome,
            Err(TlsError::BadRecordMac) | Err(TlsError::Replay { .. }) | Err(TlsError::Malformed)
        );
        prop_assert!(rejected, "corrupted record accepted: {outcome:?}");
    }

    /// 802.15.4: ENC-MIC roundtrips arbitrary payloads; replaying any
    /// accepted frame is rejected; frames never expose the plaintext.
    #[test]
    fn frame_security_invariants(key in prop::collection::vec(any::<u8>(), 1..32),
                                 payload in prop::collection::vec(any::<u8>(), 8..96)) {
        let mut tx = FrameSender::new(7, &key);
        let mut rx = FrameReceiver::new(&key, &[7]);
        let frame = tx.secure(SecurityLevel::EncMic, &payload);
        prop_assert!(
            !frame.body.windows(payload.len()).any(|w| w == &payload[..])
                || payload.iter().all(|&b| b == payload[0]),
            "ciphertext leaked plaintext"
        );
        prop_assert_eq!(rx.receive(&frame).unwrap(), payload);
        prop_assert!(rx.receive(&frame).is_err());
    }

    /// REST requests roundtrip arbitrary tokens/paths/bodies.
    #[test]
    fn rest_request_roundtrip(path in "/[a-z0-9/]{0,32}",
                              token in proptest::option::of(token_text()),
                              body in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut req = Request::new(Method::Post, &path).with_body(body);
        if let Some(t) = &token {
            req = req.with_token(t);
        }
        let parsed = Request::from_bytes(&req.to_bytes()).unwrap();
        prop_assert_eq!(parsed, req);
    }

    /// REST responses roundtrip arbitrary statuses/bodies.
    #[test]
    fn rest_response_roundtrip(status in 100u16..600,
                               body in prop::collection::vec(any::<u8>(), 0..128)) {
        let resp = Response { status, body };
        prop_assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
    }

    /// SSDP NOTIFY roundtrips arbitrary field sets.
    #[test]
    fn ssdp_roundtrip(device_type in token_text(),
                      usn in token_text(),
                      fields in prop::collection::btree_map(token_text(), token_text(), 0..5)) {
        let mut msg = SsdpMessage::notify(&device_type, &usn);
        for (k, v) in &fields {
            // Avoid colliding with the reserved NT/USN headers.
            if k != "NT" && k != "USN" {
                msg = msg.with_field(k, v);
            }
        }
        prop_assert_eq!(SsdpMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    /// Parsers and receivers never panic on arbitrary input
    /// (fuzz-shaped property): the byte decoders and TLS `open` on any
    /// bytes, the 802.15.4 receiver on any frame fields at every minimum
    /// level, and both resolver configs on any answer to a pending
    /// query. An accepted answer whose TTL outlasts a second is still
    /// cached a second later.
    #[test]
    fn parsers_are_panic_free(garbage in prop::collection::vec(any::<u8>(), 0..256),
                              frame in frame_strategy(),
                              sender_on_acl in any::<bool>(),
                              answer in answer_strategy(),
                              (echo_txid, txid) in (any::<bool>(), any::<u16>()),
                              now in (0u64..10 * 365 * 86_400).prop_map(SimTime::from_secs)) {
        let _ = Request::from_bytes(&garbage);
        let _ = Response::from_bytes(&garbage);
        let _ = SsdpMessage::from_bytes(&garbage);
        let _ = xlf_device::firmware::FirmwareImage::from_bytes(&garbage);
        let _ = Session::establish(b"psk", "prop", Role::Server).open(&garbage);

        let acl = if sender_on_acl { vec![frame.sender] } else { Vec::new() };
        for minimum_level in LEVELS {
            let mut receiver = FrameReceiver::new(b"network key", &acl);
            receiver.minimum_level = minimum_level;
            let _ = receiver.receive(&frame);
        }

        for config in [ResolverConfig::naive(), ResolverConfig::hardened()] {
            let mut resolver = Resolver::new(config);
            resolver.add_trust_anchor("vendor.example", ZONE);
            let pending = resolver.start_query(QUERIED, answer.rtype);
            let txid = if echo_txid { pending } else { txid };
            let outcome = resolver.handle_response(answer.clone(), txid, now);
            if outcome == ResolveOutcome::Accepted && answer.ttl_secs > 1 {
                let later = now + Duration::from_secs(1);
                prop_assert!(
                    resolver.cached(&answer.name, answer.rtype, later).is_some(),
                    "TTL {} expired within a second",
                    answer.ttl_secs
                );
            }
        }
    }
}
