//! Fleet-side secure onboarding: every stamped home runs one
//! [`xlf_onboard::join_device`] handshake before its simulation steps,
//! and the aggregation tier recomputes the identical outcomes when it
//! builds the report's v8 `onboarding` section.
//!
//! The join outcome is a **pure function** of
//! `(OnboardingSpec, HomeSpec)` — the joining class is drawn from the
//! home seed, the handshake RNG from an independent mix of the same seed
//! — so the section is byte-identical for any worker count, any region
//! shard count, and any arrival order, with no new cross-thread state.
//!
//! Denied homes still run their simulation (the home exists; it is the
//! joining device the gateway's resource server refused), but they are
//! flagged in the report and each denial raises a fleet alert with its
//! structured cause.

use crate::spec::{FleetAttack, HomeSpec};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use xlf_attacks::AttackPhase;
use xlf_onboard::{
    candidate_infos, join_with_choice, select_cipher, DenyCause, JoinAttack, JoinResult,
    OnboardingSpec, DENY_CAUSES,
};

/// How a stamped fleet attack manifests at the onboarding layer. The
/// in-simulation attacks leave the join phase alone.
pub fn join_attack_for(attack: FleetAttack) -> JoinAttack {
    match attack {
        FleetAttack::TokenReplay => JoinAttack::TokenReplay,
        FleetAttack::RogueAs => JoinAttack::RogueAs,
        _ => JoinAttack::None,
    }
}

/// Runs (or re-runs) one home's join. Pure in `(spec, hs)`.
pub fn join_for(spec: &OnboardingSpec, hs: &HomeSpec) -> JoinResult {
    let class = spec.class_for(hs.seed);
    xlf_onboard::join_device(spec, class, hs.id, hs.seed, join_attack_for(hs.attack))
}

/// Per-class accounting row of the `onboarding` report section.
#[derive(Debug, Clone, PartialEq)]
pub struct OnboardClassRow {
    /// Stable class name (the Table I catalog variant name).
    pub class: String,
    /// Cipher the per-class sweep negotiated (`None` = class infeasible).
    pub cipher: Option<&'static str>,
    /// Key-length floor the class demanded (bits).
    pub key_floor_bits: usize,
    /// Joins attempted by devices of this class.
    pub joins: u64,
    /// Joins the resource server admitted.
    pub admitted: u64,
    /// Mean handshake latency over admitted joins (ms; 0 when none).
    pub mean_latency_ms: f64,
    /// Mean handshake energy over admitted joins (mJ; 0 when none).
    pub mean_energy_mj: f64,
}

/// The v8 `onboarding` report section: fleet-wide join accounting,
/// denials by structured cause, and the per-class latency/energy record.
#[derive(Debug, Clone, PartialEq)]
pub struct OnboardSection {
    /// Joins attempted (== homes stamped).
    pub joins: u64,
    /// Joins admitted by the gateway resource server.
    pub admitted: u64,
    /// Joins denied (any cause).
    pub denied: u64,
    /// Homes whose stamped attack targeted onboarding (`token-replay` /
    /// `rogue-as`) yet were admitted anyway. The containment invariant:
    /// always 0.
    pub rogue_admissions: u64,
    /// CoAP retransmissions across every handshake.
    pub retransmissions: u64,
    /// Bytes transmitted by joining devices, retransmissions included.
    pub bytes_sent: u64,
    /// Energy charged to battery-powered joiners (mJ).
    pub energy_mj: f64,
    /// Denial counts in [`DENY_CAUSES`] order.
    pub denials: [u64; DENY_CAUSES.len()],
    /// Per-class accounting, in class-name order.
    pub classes: Vec<OnboardClassRow>,
    /// Ids of denied homes, ascending.
    pub denied_homes: Vec<u64>,
    /// `(home id, denial cause)` pairs, ascending by id — the alert and
    /// flagging record.
    pub denied_causes: Vec<(u64, DenyCause)>,
}

impl OnboardSection {
    /// Recomputes every stamped home's join and folds the outcomes into
    /// the section. Pure in its arguments: the same `(spec, homes)` give
    /// identical bytes, however the homes are split across workers.
    /// `homes` may be borrowed or stamped as they are reached.
    pub fn compute(
        spec: &OnboardingSpec,
        homes: impl IntoIterator<Item = impl Borrow<HomeSpec>>,
    ) -> OnboardSection {
        struct ClassAcc {
            cipher: Option<&'static str>,
            key_floor_bits: usize,
            joins: u64,
            admitted: u64,
            latency_us_sum: u64,
            energy_mj_sum: f64,
        }
        let candidates = candidate_infos();
        let mut per_class: BTreeMap<String, ClassAcc> = BTreeMap::new();
        let mut section = OnboardSection {
            joins: 0,
            admitted: 0,
            denied: 0,
            rogue_admissions: 0,
            retransmissions: 0,
            bytes_sent: 0,
            energy_mj: 0.0,
            denials: [0; DENY_CAUSES.len()],
            classes: Vec::new(),
            denied_homes: Vec::new(),
            denied_causes: Vec::new(),
        };
        for hs in homes {
            let hs = hs.borrow();
            let class = spec.class_for(hs.seed);
            let choice = select_cipher(class, &candidates);
            let r = match &choice {
                Some(c) => {
                    join_with_choice(spec, class, hs.id, hs.seed, join_attack_for(hs.attack), c)
                }
                None => join_for(spec, hs),
            };
            section.joins += 1;
            section.retransmissions += r.retransmissions as u64;
            section.bytes_sent += r.bytes_sent;
            section.energy_mj += r.energy_mj;
            let acc = per_class
                .entry(format!("{class:?}"))
                .or_insert_with(|| ClassAcc {
                    cipher: choice.as_ref().map(|c| c.info.name),
                    key_floor_bits: xlf_onboard::key_floor_bits(class),
                    joins: 0,
                    admitted: 0,
                    latency_us_sum: 0,
                    energy_mj_sum: 0.0,
                });
            acc.joins += 1;
            if r.admitted {
                section.admitted += 1;
                acc.admitted += 1;
                acc.latency_us_sum += r.latency.as_micros();
                acc.energy_mj_sum += r.energy_mj;
                if hs.attack.phase() == Some(AttackPhase::Onboarding) {
                    section.rogue_admissions += 1;
                }
            } else {
                section.denied += 1;
                section.denied_homes.push(hs.id);
                let cause = r.deny.unwrap_or(DenyCause::Malformed);
                section.denied_causes.push((hs.id, cause));
                if let Some(i) = DENY_CAUSES.iter().position(|&c| c == cause) {
                    section.denials[i] += 1;
                }
            }
        }
        // Stamped homes arrive in id order, but hold the invariant
        // explicitly — the flagging merge depends on it.
        section.denied_homes.sort_unstable();
        section.denied_causes.sort_unstable_by_key(|&(id, _)| id);
        section.classes = per_class
            .into_iter()
            .map(|(class, acc)| OnboardClassRow {
                class,
                cipher: acc.cipher,
                key_floor_bits: acc.key_floor_bits,
                joins: acc.joins,
                admitted: acc.admitted,
                mean_latency_ms: if acc.admitted == 0 {
                    0.0
                } else {
                    acc.latency_us_sum as f64 / acc.admitted as f64 / 1_000.0
                },
                mean_energy_mj: if acc.admitted == 0 {
                    0.0
                } else {
                    acc.energy_mj_sum / acc.admitted as f64
                },
            })
            .collect();
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FleetSpec;

    fn stamped(attacks: Vec<(FleetAttack, u32)>) -> (OnboardingSpec, Vec<HomeSpec>) {
        let spec = FleetSpec::new(11, 64).with_attacks(attacks);
        (OnboardingSpec::new(), spec.stamp())
    }

    #[test]
    fn benign_fleet_joins_cleanly() {
        let (ob, homes) = stamped(vec![(FleetAttack::None, 1)]);
        let s = OnboardSection::compute(&ob, &homes);
        assert_eq!(s.joins, 64);
        assert_eq!(s.admitted, 64);
        assert_eq!(s.denied, 0);
        assert_eq!(s.rogue_admissions, 0);
        assert!(s.bytes_sent > 0);
        assert!(s.energy_mj > 0.0, "battery classes pay for their joins");
        assert!(!s.classes.is_empty());
        // Class rows partition the fleet.
        assert_eq!(s.classes.iter().map(|c| c.joins).sum::<u64>(), 64);
    }

    #[test]
    fn onboarding_attacks_are_denied_never_admitted() {
        let (ob, homes) = stamped(vec![
            (FleetAttack::None, 2),
            (FleetAttack::TokenReplay, 1),
            (FleetAttack::RogueAs, 1),
        ]);
        let attacked = homes
            .iter()
            .filter(|h| h.attack.phase() == Some(AttackPhase::Onboarding))
            .count() as u64;
        assert!(attacked > 0, "attack mix must stamp some rogue joins");
        let s = OnboardSection::compute(&ob, &homes);
        assert_eq!(s.rogue_admissions, 0);
        assert_eq!(s.denied, attacked);
        assert_eq!(s.admitted, 64 - attacked);
        assert_eq!(s.denied_homes.len() as u64, attacked);
        // Every denial carries a structured cause and lands in a bucket.
        assert_eq!(s.denials.iter().sum::<u64>(), attacked);
        // Rogue-AS joins fail the seal; replays expire or repeat.
        assert!(s.denied_causes.iter().all(|(_, c)| matches!(
            c,
            DenyCause::BadSeal | DenyCause::Expired | DenyCause::Replayed
        )));
    }

    #[test]
    fn section_is_pure_in_spec_and_homes() {
        let (ob, homes) = stamped(vec![(FleetAttack::None, 9), (FleetAttack::TokenReplay, 1)]);
        let a = OnboardSection::compute(&ob, &homes);
        let b = OnboardSection::compute(&ob, &homes);
        assert_eq!(a, b);
    }

    #[test]
    fn in_simulation_attacks_do_not_touch_the_join_phase() {
        for attack in FleetAttack::ALL
            .into_iter()
            .filter(|a| a.phase() != Some(AttackPhase::Onboarding))
        {
            assert_eq!(join_attack_for(attack), JoinAttack::None, "{attack:?}");
        }
        assert_eq!(
            join_attack_for(FleetAttack::TokenReplay),
            JoinAttack::TokenReplay
        );
        assert_eq!(join_attack_for(FleetAttack::RogueAs), JoinAttack::RogueAs);
    }
}
