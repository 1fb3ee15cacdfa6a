//! The attack catalog: Figure 3's OWASP surface-area mapping and Table
//! II's vulnerability/attack/impact rows, tied to the executable attack
//! implementations, and [`HomeAttack`], the attack one experiment home
//! runs, keyed to its catalog row.

use std::fmt;

/// OWASP IoT attack-surface areas (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SurfaceArea {
    /// Device firmware, memory, and local storage.
    DeviceFirmwareAndStorage,
    /// Administrative and web interfaces.
    AdminInterfaces,
    /// Device network services and open ports.
    DeviceNetworkServices,
    /// LAN/WAN traffic and radio channels.
    NetworkTraffic,
    /// Cloud/web APIs.
    CloudApis,
    /// Third-party application ecosystem.
    ApplicationEcosystem,
    /// Update mechanism.
    UpdateMechanism,
}

impl fmt::Display for SurfaceArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Every implemented attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackKind {
    /// Table II row 1: MitM/password stealing via static credentials.
    DefaultCredentialTakeover,
    /// Table II row 2: buffer overflow → shellcode execution.
    BufferOverflow,
    /// Table II row 3: firmware modulation on an unverified OTA path.
    FirmwareTamper,
    /// Table II row 4: Chromecast-style deauth + reconnect hijack.
    Rickroll,
    /// Table II row 5: UPnP channel sniffing leaks the WiFi password.
    UpnpSniffing,
    /// Table II row 6: generic-auth fridge → malicious mail bot.
    MaliciousMailBot,
    /// Table II row 7: unsecured-WiFi oven → MitM pivot to other devices.
    OpenWifiPivot,
    /// §IV-B3: Mirai-style telnet scanning.
    BotnetScan,
    /// §IV-B3: coordinated DDoS from recruited devices.
    Ddos,
    /// §IV-A3: DNS cache poisoning.
    DnsPoisoning,
    /// §IV-B1: passive traffic analysis / state inference.
    TrafficAnalysis,
    /// Replay of captured frames/records.
    Replay,
    /// §IV-C2: spoofed events to the cloud.
    EventSpoofing,
    /// §IV-C2: over-privileged SmartApp abuse.
    OverprivilegedApp,
    /// Onboarding: a joining device presents a captured token, expired
    /// or already spent, to the gateway's resource server. Filed under
    /// [`SurfaceArea::DeviceNetworkServices`]: Figure 3 has no onboarding
    /// area, and the join is a CoAP exchange with a network service the
    /// gateway exposes to every device, OWASP's home for replay and
    /// missing message integrity.
    TokenReplay,
    /// Onboarding: the join token is minted by an authorization server
    /// that does not hold the fleet secret. Filed under
    /// [`SurfaceArea::DeviceNetworkServices`] for the same reason as
    /// [`AttackKind::TokenReplay`]: the forged token is presented to the
    /// gateway's join service.
    RogueAs,
}

/// Catalog entry: where the attack lives and what it does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSpec {
    /// The attack.
    pub kind: AttackKind,
    /// OWASP surface area (Figure 3).
    pub surface: SurfaceArea,
    /// XLF layer that observes/mitigates it.
    pub xlf_layer: &'static str,
    /// Table II columns, when the attack is a Table II row:
    /// (device, vulnerability, attack, impact).
    pub table2_row: Option<(&'static str, &'static str, &'static str, &'static str)>,
    /// Module implementing the executable attack.
    pub implemented_by: &'static str,
}

/// The full catalog.
pub fn attack_catalog() -> Vec<AttackSpec> {
    use AttackKind::*;
    use SurfaceArea::*;
    vec![
        AttackSpec {
            kind: DefaultCredentialTakeover,
            surface: AdminInterfaces,
            xlf_layer: "device (authentication)",
            table2_row: Some((
                "Smart light bulb",
                "Static password",
                "MitM, password stealing",
                "Bulb controlled by remote",
            )),
            implemented_by: "xlf_attacks::device::CredentialAttacker",
        },
        AttackSpec {
            kind: BufferOverflow,
            surface: DeviceFirmwareAndStorage,
            xlf_layer: "device (malware detection)",
            table2_row: Some((
                "Wall pad",
                "Buffer overflow",
                "Value manipulation, shellcode exe.",
                "Housebreaking, monitoring",
            )),
            implemented_by: "xlf_attacks::device::OverflowAttacker",
        },
        AttackSpec {
            kind: FirmwareTamper,
            surface: UpdateMechanism,
            xlf_layer: "device (malware detection) + network (monitoring)",
            table2_row: Some((
                "Network camera",
                "Firmware integrity",
                "Firmware modulation",
                "damage peripherals",
            )),
            implemented_by: "xlf_attacks::device::FirmwareTamperer",
        },
        AttackSpec {
            kind: Rickroll,
            surface: DeviceNetworkServices,
            xlf_layer: "network (constrained access)",
            table2_row: Some((
                "Chromecast",
                "Rickrolling",
                "D/C & reconnects to attacker",
                "Privacy violation.",
            )),
            implemented_by: "xlf_attacks::device::RickrollAttacker",
        },
        AttackSpec {
            kind: UpnpSniffing,
            surface: NetworkTraffic,
            xlf_layer: "network (monitoring) + device (encryption)",
            table2_row: Some((
                "Coffee machine",
                "Unprotected channel",
                "Listens to UPNP.",
                "Hijack password of Wi-Fi",
            )),
            implemented_by: "xlf_attacks::device::upnp_sniff",
        },
        AttackSpec {
            kind: MaliciousMailBot,
            surface: AdminInterfaces,
            xlf_layer: "device (authentication) + service (analytics)",
            table2_row: Some((
                "Fridge",
                "Generic auth.",
                "Malicious code infection",
                "Send malicious mail",
            )),
            implemented_by: "xlf_attacks::device::CredentialAttacker (generic-auth mode)",
        },
        AttackSpec {
            kind: OpenWifiPivot,
            surface: NetworkTraffic,
            xlf_layer: "network (constrained access)",
            table2_row: Some((
                "Oven",
                "unsecured Wi-Fi",
                "MitM attack",
                "Access other devices",
            )),
            implemented_by: "xlf_attacks::mitm",
        },
        AttackSpec {
            kind: BotnetScan,
            surface: DeviceNetworkServices,
            xlf_layer: "network (malicious activity identification)",
            table2_row: None,
            implemented_by: "xlf_attacks::mirai::Scanner",
        },
        AttackSpec {
            kind: Ddos,
            surface: NetworkTraffic,
            xlf_layer: "network (malicious activity identification)",
            table2_row: None,
            implemented_by: "xlf_attacks::mirai::CommandAndControl",
        },
        AttackSpec {
            kind: DnsPoisoning,
            surface: DeviceNetworkServices,
            xlf_layer: "network (constrained access / DNS)",
            table2_row: None,
            implemented_by: "xlf_attacks::dnspoison",
        },
        AttackSpec {
            kind: TrafficAnalysis,
            surface: NetworkTraffic,
            xlf_layer: "network (traffic shaping)",
            table2_row: None,
            implemented_by: "xlf_attacks::observer::TrafficAnalyst",
        },
        AttackSpec {
            kind: Replay,
            surface: NetworkTraffic,
            xlf_layer: "network (802.15.4 security / TLS)",
            table2_row: None,
            implemented_by: "xlf_attacks::replay",
        },
        AttackSpec {
            kind: EventSpoofing,
            surface: CloudApis,
            xlf_layer: "service (application verification)",
            table2_row: None,
            implemented_by: "xlf_attacks::scripted::ScriptedAttacker",
        },
        AttackSpec {
            kind: OverprivilegedApp,
            surface: ApplicationEcosystem,
            xlf_layer: "service (application verification)",
            table2_row: None,
            implemented_by: "xlf_attacks::overprivilege",
        },
        AttackSpec {
            kind: TokenReplay,
            surface: DeviceNetworkServices,
            xlf_layer: "network (secure onboarding)",
            table2_row: None,
            implemented_by: "xlf_onboard::join_device (JoinAttack::TokenReplay)",
        },
        AttackSpec {
            kind: RogueAs,
            surface: DeviceNetworkServices,
            xlf_layer: "network (secure onboarding)",
            table2_row: None,
            implemented_by: "xlf_onboard::join_device (JoinAttack::RogueAs)",
        },
    ]
}

/// Where and when a [`HomeAttack`] acts on its home.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackPhase {
    /// A scripted arm that sends its traffic into the home through the
    /// gateway.
    Wire,
    /// A scripted arm that sends its traffic at the home's cloud.
    Cloud,
    /// A passive observer: a tap records the home's wire metadata, and
    /// the home's traffic is untouched.
    Observer,
    /// Acts on the device's join, before the home's simulation steps.
    Onboarding,
}

/// The attack one experiment home runs: the fleet stamps one per home
/// (as `xlf_fleet::FleetAttack`), the single-home scenarios run one
/// each, and [`crate::scripted::ScriptedAttacker`] plays the
/// [`AttackPhase::Wire`] and [`AttackPhase::Cloud`] arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HomeAttack {
    /// Benign home.
    None,
    /// Mirai-style recruitment of the weak camera: a login with its
    /// static default password carrying the C&C bootstrap string, then a
    /// flood order. Catalogued as Table II's static-password takeover:
    /// the arm scans nothing, and the flood it orders hits a passive sink.
    BotnetRecruit,
    /// Oversized commands exploiting the wall pad's buffer overflow.
    BufferOverflow,
    /// Unsigned malicious OTA images pushed at the camera.
    FirmwareTamper,
    /// Window-open commands captured during learning, replayed with no
    /// witnessed trigger (app verification denies each one).
    Replay,
    /// Off-path DNS poisoning: spoofed `dns-response` packets for the
    /// vendor hub name with guessed txids (the hardened resolver rejects
    /// each one, raising `DnsBlocked` evidence).
    DnsPoison,
    /// Spoofed high-temperature events fired at the cloud (§IV-C2/C3),
    /// to trigger the window automation.
    SpoofedEvents,
    /// Passive traffic analysis: an observer tap records the home's wire
    /// metadata and a [`crate::observer::TrafficAnalyst`] is scored on it
    /// after the run. Produces no in-home evidence: the stealth baseline
    /// for the fleet tier.
    TrafficObserver,
    /// The joining device presents a captured token (expired or spent).
    /// Always denied and flagged; the home's simulation is untouched.
    TokenReplay,
    /// The join token is minted by a rogue authorization server. The seal
    /// check fails; the home's simulation is untouched.
    RogueAs,
}

/// A [`HomeAttack`]'s catalog row, target device and phase.
type Facts = (AttackKind, Option<&'static str>, AttackPhase);

impl HomeAttack {
    /// Every attack, benign first.
    pub const ALL: [HomeAttack; 10] = [
        HomeAttack::None,
        HomeAttack::BotnetRecruit,
        HomeAttack::BufferOverflow,
        HomeAttack::FirmwareTamper,
        HomeAttack::Replay,
        HomeAttack::DnsPoison,
        HomeAttack::SpoofedEvents,
        HomeAttack::TrafficObserver,
        HomeAttack::TokenReplay,
        HomeAttack::RogueAs,
    ];

    /// The one table: report name, then the row, target and phase of
    /// every attack but the benign home.
    fn facts(self) -> (&'static str, Option<Facts>) {
        use AttackKind as K;
        use AttackPhase::*;
        match self {
            HomeAttack::None => ("none", None),
            HomeAttack::BotnetRecruit => (
                "botnet-recruit",
                Some((K::DefaultCredentialTakeover, Some("cam"), Wire)),
            ),
            HomeAttack::BufferOverflow => (
                "buffer-overflow",
                Some((K::BufferOverflow, Some("wallpad"), Wire)),
            ),
            HomeAttack::FirmwareTamper => (
                "firmware-tamper",
                Some((K::FirmwareTamper, Some("cam"), Wire)),
            ),
            HomeAttack::Replay => ("replay", Some((K::Replay, Some("window"), Wire))),
            HomeAttack::DnsPoison => ("dns-poison", Some((K::DnsPoisoning, Some("cam"), Wire))),
            HomeAttack::SpoofedEvents => (
                "spoofed-events",
                Some((K::EventSpoofing, Some("window"), Cloud)),
            ),
            HomeAttack::TrafficObserver => (
                "traffic-observer",
                Some((K::TrafficAnalysis, None, Observer)),
            ),
            HomeAttack::TokenReplay => ("token-replay", Some((K::TokenReplay, None, Onboarding))),
            HomeAttack::RogueAs => ("rogue-as", Some((K::RogueAs, None, Onboarding))),
        }
    }

    /// Stable short name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        self.facts().0
    }

    /// The attack's catalog row (`None` for the benign home).
    pub fn kind(self) -> Option<AttackKind> {
        self.facts().1.map(|(kind, _, _)| kind)
    }

    /// The device the attack targets, the ground truth for scoring
    /// detection (`None` when it targets no device of the home).
    pub fn target(self) -> Option<&'static str> {
        self.facts().1.and_then(|(_, target, _)| target)
    }

    /// Where and when the attack acts (`None` for the benign home).
    pub fn phase(self) -> Option<AttackPhase> {
        self.facts().1.map(|(_, _, phase)| phase)
    }

    /// Whether the attack injects traffic the home's own Core can
    /// detect: a passive observer cannot be flagged from inside, and an
    /// onboarding attack is stopped at the join and never reaches the
    /// home's network.
    pub fn is_active(self) -> bool {
        matches!(self.phase(), Some(AttackPhase::Wire | AttackPhase::Cloud))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_table2_rows_are_present() {
        let rows: Vec<_> = attack_catalog()
            .into_iter()
            .filter_map(|a| a.table2_row)
            .collect();
        assert_eq!(rows.len(), 7);
        let devices: Vec<&str> = rows.iter().map(|r| r.0).collect();
        for d in [
            "Smart light bulb",
            "Wall pad",
            "Network camera",
            "Chromecast",
            "Coffee machine",
            "Fridge",
            "Oven",
        ] {
            assert!(devices.contains(&d), "missing Table II device {d}");
        }
    }

    #[test]
    fn every_surface_area_is_exercised() {
        let catalog = attack_catalog();
        for surface in [
            SurfaceArea::DeviceFirmwareAndStorage,
            SurfaceArea::AdminInterfaces,
            SurfaceArea::DeviceNetworkServices,
            SurfaceArea::NetworkTraffic,
            SurfaceArea::CloudApis,
            SurfaceArea::ApplicationEcosystem,
            SurfaceArea::UpdateMechanism,
        ] {
            assert!(
                catalog.iter().any(|a| a.surface == surface),
                "no attack on {surface}"
            );
        }
    }

    #[test]
    fn kinds_are_unique() {
        let mut kinds: Vec<_> = attack_catalog().into_iter().map(|a| a.kind).collect();
        let before = kinds.len();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), before);
    }

    #[test]
    fn every_attack_names_an_implementation_and_layer() {
        for spec in attack_catalog() {
            // The onboarding attacks are played by the join itself.
            let module = ["xlf_attacks::", "xlf_onboard::"];
            assert!(module.iter().any(|m| spec.implemented_by.starts_with(m)));
            assert!(!spec.xlf_layer.is_empty());
        }
    }

    #[test]
    fn every_home_attack_is_its_own_catalog_row() {
        let catalog = attack_catalog();
        let mut kinds: Vec<_> = HomeAttack::ALL.iter().filter_map(|a| a.kind()).collect();
        assert_eq!(
            kinds.len(),
            HomeAttack::ALL.len() - 1,
            "only None has no row"
        );
        assert!(kinds.iter().all(|k| catalog.iter().any(|s| s.kind == *k)));
        kinds.sort();
        kinds.dedup();
        assert_eq!(
            kinds.len(),
            HomeAttack::ALL.len() - 1,
            "two attacks share a row"
        );
    }

    /// The catalog rows no home can run: this crate's standalone attack
    /// nodes and models, run by `table2` and by tests of their own.
    /// A new row must be given a [`HomeAttack`] or be listed here.
    #[test]
    fn rows_without_a_home_attack_are_listed() {
        use AttackKind::*;
        let unrunnable: Vec<_> = attack_catalog()
            .into_iter()
            .map(|s| s.kind)
            .filter(|&k| !HomeAttack::ALL.iter().any(|a| a.kind() == Some(k)))
            .collect();
        assert_eq!(
            unrunnable,
            [
                Rickroll,
                UpnpSniffing,
                MaliciousMailBot,
                OpenWifiPivot,
                BotnetScan,
                Ddos,
                OverprivilegedApp,
            ]
        );
    }

    #[test]
    fn exactly_the_scripted_arms_name_a_target() {
        for attack in HomeAttack::ALL {
            assert_eq!(attack.target().is_some(), attack.is_active(), "{attack:?}");
        }
    }
}
