//! The deterministic join handshake: two confirmable CoAP exchanges
//! (token request to the Authorization Server, token presentation to the
//! gateway's resource server) over a lossy constrained link, with
//! RFC 7252 retransmission (exponential backoff, seeded ACK_RANDOM_FACTOR)
//! and every transmitted byte charged against the Table I energy model.
//!
//! `join_device` is a pure function of its arguments: the fleet engine
//! runs it per home before stepping, and the fleet aggregator recomputes
//! the identical result when building the report's `onboarding` section —
//! which is what makes onboarding-bearing reports byte-identical across
//! worker and region-shard counts.

use crate::ace::{AuthServer, DenyCause, ResourceServer};
use crate::coap::{option, CoapMessage, Code, MsgType};
use crate::sweep::{select_cipher, CipherChoice};
use xlf_device::{DeviceClass, DeviceSpec, ResourceModel};
use xlf_lwcrypto::CipherInfo;
use xlf_simnet::{splitmix64, Duration, Medium};

/// RFC 7252 ACK_TIMEOUT.
const ACK_TIMEOUT_US: u64 = 2_000_000;

/// Fleet-facing onboarding configuration: who issues tokens, what they
/// grant, which classes join, and over which medium.
#[derive(Debug, Clone, PartialEq)]
pub struct OnboardingSpec {
    /// Authorization Server master secret (shared with resource servers).
    pub as_secret: Vec<u8>,
    /// Resource-server identity tokens must name (`aud`).
    pub audience: String,
    /// Scope the join requires.
    pub scope: String,
    /// Token lifetime in seconds.
    pub token_ttl_s: u64,
    /// Device classes joining the fleet (one device per home, class picked
    /// deterministically from the home seed).
    pub classes: Vec<DeviceClass>,
    /// Constrained medium the handshake crosses.
    pub medium: Medium,
    /// RFC 7252 MAX_RETRANSMIT.
    pub max_retransmit: u32,
}

impl OnboardingSpec {
    /// A sensible default: 6LoWPAN joins for the constrained Table I
    /// classes, 5-minute tokens, standard CoAP retransmission.
    pub fn new() -> Self {
        OnboardingSpec {
            as_secret: b"xlf fleet authorization server".to_vec(),
            audience: "xlf-gw".to_string(),
            scope: "telemetry:join".to_string(),
            token_ttl_s: 300,
            classes: vec![
                DeviceClass::SensorDevice,
                DeviceClass::PhilipsHueLightbulb,
                DeviceClass::NestSmokeDetector,
                DeviceClass::Rex2SmartMeter,
                DeviceClass::FitbitFlex,
                DeviceClass::GenericAppliance,
            ],
            medium: Medium::SixLowpan,
            max_retransmit: 4,
        }
    }

    /// Deterministically assigns a joining class to a home seed.
    pub fn class_for(&self, seed: u64) -> DeviceClass {
        let idx = splitmix64(seed ^ 0x00B0_A12D_0C1A_55E5) as usize % self.classes.len();
        self.classes[idx]
    }
}

impl Default for OnboardingSpec {
    fn default() -> Self {
        OnboardingSpec::new()
    }
}

/// What the joining device attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAttack {
    /// Honest join: fresh token, immediate presentation.
    None,
    /// Replay of a captured token: expired or already presented
    /// (seed-split between the two), always denied.
    TokenReplay,
    /// Token minted by an AS that does not hold the fleet secret.
    RogueAs,
}

/// Outcome of one device's join, with the figures the reports carry.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinResult {
    /// Class of the joining device.
    pub class: DeviceClass,
    /// Whether the resource server admitted the device.
    pub admitted: bool,
    /// Denial cause when not admitted.
    pub deny: Option<DenyCause>,
    /// Name of the negotiated cipher (`None` when infeasible).
    pub cipher: Option<&'static str>,
    /// CoAP retransmissions across both exchanges.
    pub retransmissions: u32,
    /// Virtual handshake latency (timeouts included).
    pub latency: Duration,
    /// Energy charged to the device for its transmitted bytes (mJ; 0 for
    /// mains-powered classes).
    pub energy_mj: f64,
    /// Bytes the device transmitted, retransmissions included.
    pub bytes_sent: u64,
}

impl JoinResult {
    fn infeasible(class: DeviceClass) -> JoinResult {
        JoinResult {
            class,
            admitted: false,
            deny: Some(DenyCause::Infeasible),
            cipher: None,
            retransmissions: 0,
            latency: Duration::ZERO,
            energy_mj: 0.0,
            bytes_sent: 0,
        }
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in [0, 1).
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One confirmable exchange: transmit, maybe lose either direction, back
/// off and retransmit. Returns (retransmissions, elapsed, device bytes
/// sent), or `None` when MAX_RETRANSMIT is exhausted.
fn confirmable_exchange(
    rng: &mut Rng,
    medium: Medium,
    request_bytes: u64,
    response_bytes: u64,
    max_retransmit: u32,
) -> Option<(u32, Duration, u64)> {
    let link = medium.link();
    let tx_us = |bytes: u64| bytes * 8 * 1_000_000 / link.bandwidth_bps.max(1);
    let rtt = Duration::from_micros(tx_us(request_bytes))
        + link.latency
        + Duration::from_micros(tx_us(response_bytes))
        + link.latency;

    let mut elapsed = Duration::ZERO;
    let mut sent = 0u64;
    for attempt in 0..=max_retransmit {
        sent += request_bytes;
        let lost = rng.f64() < link.loss || rng.f64() < link.loss;
        if !lost {
            return Some((attempt, elapsed + rtt, sent));
        }
        // RFC 7252: timeout in [ACK_TIMEOUT, ACK_TIMEOUT × 1.5] doubling
        // per retransmission; the random factor comes from the seed.
        let factor = 1.0 + 0.5 * rng.f64();
        let timeout_us = (ACK_TIMEOUT_US << attempt) as f64 * factor;
        elapsed += Duration::from_micros(timeout_us as u64);
    }
    None
}

/// Runs one device's full join: cipher negotiation, token request to the
/// AS, token presentation to the gateway RS. Pure and deterministic in
/// `(spec, class, device_id, seed, attack)`.
pub fn join_device(
    spec: &OnboardingSpec,
    class: DeviceClass,
    device_id: u64,
    seed: u64,
    attack: JoinAttack,
) -> JoinResult {
    let candidates = crate::sweep::candidate_infos();
    let Some(choice) = select_cipher(class, &candidates) else {
        return JoinResult::infeasible(class);
    };
    join_with_choice(spec, class, device_id, seed, attack, &choice)
}

/// As [`join_device`], but with the cipher choice precomputed (the fleet
/// aggregator sweeps once per class, not once per home).
pub fn join_with_choice(
    spec: &OnboardingSpec,
    class: DeviceClass,
    device_id: u64,
    seed: u64,
    attack: JoinAttack,
    choice: &CipherChoice,
) -> JoinResult {
    let mut rng = Rng(splitmix64(seed ^ 0x0B0A_4D00_0000_0003));
    let auth = match attack {
        JoinAttack::RogueAs => {
            let mut rogue = b"rogue ".to_vec();
            rogue.extend_from_slice(&spec.as_secret);
            AuthServer::new(&rogue)
        }
        _ => AuthServer::new(&spec.as_secret),
    };
    let mut rs = ResourceServer::new(&spec.audience, &spec.as_secret);

    // Exchange 1: CON POST /token to the AS.
    let mid1 = rng.next() as u16;
    let token_req = CoapMessage::new(MsgType::Confirmable, Code::POST, mid1)
        .with_token((rng.next() as u32).to_be_bytes().to_vec())
        .with_option(option::URI_PATH, b"token")
        .with_option(
            option::URI_QUERY,
            format!("scope={}", spec.scope).as_bytes(),
        )
        .with_option(
            option::URI_QUERY,
            format!("aud={}", spec.audience).as_bytes(),
        )
        .with_payload(device_id.to_be_bytes().to_vec());

    // The issued token. For a replayed capture the token predates the run:
    // seed-split between an expired capture and a fresh-but-already-spent
    // one (both must be denied).
    let replay_expired = matches!(attack, JoinAttack::TokenReplay) && rng.next() & 1 == 0;
    let issued_at_s = 0u64;
    let token = if replay_expired {
        // Issued and expired before this join started.
        auth.issue(device_id, &spec.audience, &spec.scope, issued_at_s, 0)
    } else {
        auth.issue(
            device_id,
            &spec.audience,
            &spec.scope,
            issued_at_s,
            spec.token_ttl_s,
        )
    };
    if matches!(attack, JoinAttack::TokenReplay) && !replay_expired {
        // The legitimate presentation the attacker captured.
        rs.note_presented(&token);
    }
    let token_bytes = token.to_bytes();

    let token_resp = CoapMessage::new(MsgType::Ack, Code::CREATED, mid1)
        .with_token(token_req.token.clone())
        .with_payload(token_bytes.clone());

    // Exchange 2: CON POST /authz-info to the gateway RS.
    let mid2 = rng.next() as u16;
    let join_req = CoapMessage::new(MsgType::Confirmable, Code::POST, mid2)
        .with_token((rng.next() as u32).to_be_bytes().to_vec())
        .with_option(option::URI_PATH, b"authz-info")
        .with_payload(token_bytes.clone());
    let join_resp_ok = CoapMessage::new(MsgType::Ack, Code::CREATED, mid2);

    let wire = |m: &CoapMessage| m.wire_len() as u64;

    let mut retransmissions = 0u32;
    let mut latency = Duration::ZERO;
    let mut bytes_sent = 0u64;
    for (req, resp) in [(&token_req, &token_resp), (&join_req, &join_resp_ok)] {
        match confirmable_exchange(
            &mut rng,
            spec.medium,
            wire(req),
            wire(resp),
            spec.max_retransmit,
        ) {
            Some((retx, elapsed, sent)) => {
                retransmissions += retx;
                latency += elapsed;
                bytes_sent += sent;
            }
            None => {
                return JoinResult {
                    class,
                    admitted: false,
                    deny: Some(DenyCause::Unreachable),
                    cipher: Some(choice.info.name),
                    retransmissions: retransmissions + spec.max_retransmit,
                    latency,
                    energy_mj: energy(class, &choice.info, bytes_sent),
                    bytes_sent,
                };
            }
        }
    }

    // The RS clock at presentation time: handshake latency has elapsed
    // since issue. Expired captures present at least one second past
    // their expiry regardless of how fast the link was.
    let now_s = if replay_expired {
        token.claims.expires_at_s + 1 + latency.as_micros() / 1_000_000
    } else {
        issued_at_s + latency.as_micros() / 1_000_000
    };
    let verdict = rs.verify(&token_bytes, &spec.scope, now_s);
    let (admitted, deny) = match verdict {
        Ok(_) => (true, None),
        Err(cause) => (false, Some(cause)),
    };
    JoinResult {
        class,
        admitted,
        deny,
        cipher: Some(choice.info.name),
        retransmissions,
        latency,
        energy_mj: energy(class, &choice.info, bytes_sent),
        bytes_sent,
    }
}

fn energy(class: DeviceClass, info: &CipherInfo, bytes: u64) -> f64 {
    ResourceModel::new(DeviceSpec::of(class)).tx_energy_mj(info, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> OnboardingSpec {
        OnboardingSpec::new()
    }

    #[test]
    fn honest_join_is_admitted() {
        let r = join_device(&spec(), DeviceClass::SensorDevice, 7, 42, JoinAttack::None);
        assert!(r.admitted, "{r:?}");
        assert_eq!(r.deny, None);
        assert!(r.cipher.is_some());
        assert!(r.latency > Duration::ZERO);
        assert!(r.energy_mj > 0.0, "battery sensor pays for its join");
        assert!(r.bytes_sent > 0);
    }

    #[test]
    fn join_is_a_pure_function_of_its_arguments() {
        let a = join_device(&spec(), DeviceClass::FitbitFlex, 3, 99, JoinAttack::None);
        let b = join_device(&spec(), DeviceClass::FitbitFlex, 3, 99, JoinAttack::None);
        assert_eq!(a, b);
        let c = join_device(&spec(), DeviceClass::FitbitFlex, 3, 100, JoinAttack::None);
        // A different seed redraws losses/backoff, not the verdict.
        assert!(c.admitted);
    }

    #[test]
    fn token_replay_is_always_denied() {
        for seed in 0..32u64 {
            let r = join_device(
                &spec(),
                DeviceClass::SensorDevice,
                seed,
                seed,
                JoinAttack::TokenReplay,
            );
            assert!(!r.admitted, "replay admitted at seed {seed}: {r:?}");
            assert!(
                matches!(r.deny, Some(DenyCause::Expired) | Some(DenyCause::Replayed)),
                "unexpected cause {:?}",
                r.deny
            );
        }
    }

    #[test]
    fn replay_seed_split_covers_both_causes() {
        let causes: std::collections::BTreeSet<_> = (0..32u64)
            .map(|seed| {
                join_device(
                    &spec(),
                    DeviceClass::SensorDevice,
                    seed,
                    seed,
                    JoinAttack::TokenReplay,
                )
                .deny
                .expect("denied")
            })
            .collect();
        assert!(causes.contains(&DenyCause::Expired));
        assert!(causes.contains(&DenyCause::Replayed));
    }

    #[test]
    fn rogue_as_is_always_rejected() {
        for seed in 0..32u64 {
            let r = join_device(
                &spec(),
                DeviceClass::PhilipsHueLightbulb,
                seed,
                seed,
                JoinAttack::RogueAs,
            );
            assert!(!r.admitted);
            assert_eq!(r.deny, Some(DenyCause::BadSeal), "seed {seed}");
        }
    }

    #[test]
    fn passive_tag_join_is_infeasible() {
        let r = join_device(
            &spec(),
            DeviceClass::HidGlassTagRfid,
            1,
            1,
            JoinAttack::None,
        );
        assert!(!r.admitted);
        assert_eq!(r.deny, Some(DenyCause::Infeasible));
        assert_eq!(r.cipher, None);
        assert_eq!(r.bytes_sent, 0);
    }

    #[test]
    fn some_seed_retransmits_and_pays_for_it() {
        // 6LoWPAN loses ~1.2% of frames; across enough seeds some join
        // must retransmit, and retransmissions must cost bytes and time.
        let runs: Vec<JoinResult> = (0..4096u64)
            .map(|seed| {
                join_device(
                    &spec(),
                    DeviceClass::SensorDevice,
                    1,
                    seed,
                    JoinAttack::None,
                )
            })
            .collect();
        let clean = runs
            .iter()
            .find(|r| r.retransmissions == 0)
            .expect("most seeds join cleanly");
        let retx = runs
            .iter()
            .find(|r| r.retransmissions > 0)
            .expect("some seed in 4096 must lose a frame");
        assert!(retx.bytes_sent > clean.bytes_sent);
        assert!(retx.latency > clean.latency);
    }

    #[test]
    fn class_assignment_is_deterministic_and_covers_classes() {
        let s = spec();
        let classes: std::collections::BTreeSet<_> =
            (0..256u64).map(|seed| s.class_for(seed)).collect();
        assert!(classes.len() > 1, "class mix should vary with the seed");
        assert_eq!(s.class_for(77), s.class_for(77));
    }

    #[test]
    fn mains_class_joins_for_free() {
        let r = join_device(
            &spec(),
            DeviceClass::GenericAppliance,
            2,
            5,
            JoinAttack::None,
        );
        assert!(r.admitted);
        assert_eq!(r.energy_mj, 0.0);
    }
}
