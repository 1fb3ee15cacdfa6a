//! Sandboxed trigger-action SmartApps (§II-C) with the permission model
//! whose over-privilege flaw the paper analyzes (§IV-C2).
//!
//! An app declares triggers ("when front-door lock becomes unlocked") and
//! actions ("turn hallway lamp on"). Under the *permissive* permission
//! model an installed app may command **any** capability of the devices it
//! touches — the SmartThings over-privilege flaw; under the *scoped* model
//! it may only use the capabilities it declared at install time.

use crate::capability::{Capability, DeviceHandler};
use crate::events::CloudEvent;
use std::collections::BTreeMap;

/// Comparison applied to an event value.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Value equals the given string.
    Equals(String),
    /// Numeric value strictly greater than the threshold.
    GreaterThan(f64),
    /// Numeric value strictly less than the threshold.
    LessThan(f64),
    /// Any value change fires.
    Any,
}

impl Predicate {
    /// Evaluates the predicate against an event value.
    pub fn matches(&self, value: &str) -> bool {
        match self {
            Predicate::Equals(v) => value == v,
            Predicate::GreaterThan(t) => value.parse::<f64>().map(|v| v > *t).unwrap_or(false),
            Predicate::LessThan(t) => value.parse::<f64>().map(|v| v < *t).unwrap_or(false),
            Predicate::Any => true,
        }
    }
}

/// A trigger: device attribute condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// Watched device.
    pub device: String,
    /// Watched attribute.
    pub attribute: String,
    /// Condition on the new value.
    pub predicate: Predicate,
}

/// An action: command sent to a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Target device.
    pub device: String,
    /// Command string (must belong to one of the device's capabilities).
    pub command: String,
}

/// Declared install-time permissions: device → allowed capabilities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppPermissions {
    grants: BTreeMap<String, Vec<Capability>>,
}

impl AppPermissions {
    /// Empty permission set.
    pub fn new() -> Self {
        AppPermissions::default()
    }

    /// Grants the app a capability on a device (builder-style).
    pub fn grant(mut self, device: &str, capability: Capability) -> Self {
        self.grants
            .entry(device.to_string())
            .or_default()
            .push(capability);
        self
    }

    /// Whether the app may issue `command` to `device` under scoped
    /// permissions.
    pub fn allows_command(&self, device: &str, command: &str) -> bool {
        self.grants
            .get(device)
            .map(|caps| caps.iter().any(|c| c.commands().contains(&command)))
            .unwrap_or(false)
    }

    /// Whether the app holds any sensitive-capability grant on a device.
    pub fn sensitive_grant(&self, device: &str) -> bool {
        self.grants
            .get(device)
            .map(|caps| caps.iter().any(|c| c.is_sensitive()))
            .unwrap_or(false)
    }
}

/// A trigger-action automation program.
#[derive(Debug, Clone, PartialEq)]
pub struct SmartApp {
    /// App identity.
    pub name: String,
    /// Trigger-action rules.
    pub rules: Vec<(Trigger, Action)>,
    /// Declared permissions.
    pub permissions: AppPermissions,
}

impl SmartApp {
    /// Creates an app with no rules.
    pub fn new(name: &str, permissions: AppPermissions) -> Self {
        SmartApp {
            name: name.to_string(),
            rules: Vec::new(),
            permissions,
        }
    }

    /// Adds a rule (builder-style).
    pub fn rule(mut self, trigger: Trigger, action: Action) -> Self {
        self.rules.push((trigger, action));
        self
    }

    /// The §IV-C3 automation of the experiment homes, `auto-window`: open
    /// the window (switch `window` on) when `thermo` reports above 80 °F.
    /// The simulated diurnal temperature peaks near 78 °F, so only
    /// spoofed or manipulated readings fire it.
    pub fn auto_window() -> Self {
        SmartApp::new(
            "auto-window",
            AppPermissions::new().grant("window", Capability::Switch),
        )
        .rule(
            Trigger {
                device: "thermo".into(),
                attribute: "temperature".into(),
                predicate: Predicate::GreaterThan(80.0),
            },
            Action {
                device: "window".into(),
                command: "on".into(),
            },
        )
    }

    /// All (device, attribute) pairs the app needs subscriptions for.
    pub fn subscriptions(&self) -> Vec<(String, String)> {
        self.rules
            .iter()
            .map(|(t, _)| (t.device.clone(), t.attribute.clone()))
            .collect()
    }

    /// Executes the app against one event, producing the actions it wants
    /// to perform (before permission enforcement).
    pub fn execute(&self, event: &CloudEvent) -> Vec<Action> {
        self.rules
            .iter()
            .filter(|(t, _)| {
                t.device == event.device
                    && t.attribute == event.attribute
                    && t.predicate.matches(&event.value)
            })
            .map(|(_, a)| a.clone())
            .collect()
    }
}

/// Permission-model posture of the app executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermissionModel {
    /// The SmartThings-2016 flaw: touching a device grants all its
    /// capabilities.
    Permissive,
    /// Commands restricted to declared capability grants.
    Scoped,
}

/// Result of filtering an action through the permission model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionVerdict {
    /// Action allowed and well-formed for the target device.
    Allowed(Action),
    /// Denied: the app lacks a grant for the command's capability.
    DeniedScope(Action),
    /// Denied: the target device does not accept this command at all.
    DeniedUnknownCommand(Action),
}

/// Applies the permission model to an app's proposed actions.
pub fn authorize_actions(
    model: PermissionModel,
    app: &SmartApp,
    actions: Vec<Action>,
    handlers: &BTreeMap<String, DeviceHandler>,
) -> Vec<ActionVerdict> {
    actions
        .into_iter()
        .map(|action| {
            let Some(handler) = handlers.get(&action.device) else {
                return ActionVerdict::DeniedUnknownCommand(action);
            };
            if !handler.accepts_command(&action.command) {
                return ActionVerdict::DeniedUnknownCommand(action);
            }
            match model {
                PermissionModel::Permissive => ActionVerdict::Allowed(action),
                PermissionModel::Scoped => {
                    if app
                        .permissions
                        .allows_command(&action.device, &action.command)
                    {
                        ActionVerdict::Allowed(action)
                    } else {
                        ActionVerdict::DeniedScope(action)
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_simnet::SimTime;

    fn handlers() -> BTreeMap<String, DeviceHandler> {
        let mut m = BTreeMap::new();
        m.insert(
            "lamp".to_string(),
            DeviceHandler::new("lamp", &[Capability::Switch]),
        );
        m.insert(
            "front-door".to_string(),
            DeviceHandler::new("front-door", &[Capability::Lock]),
        );
        m.insert(
            "thermostat".to_string(),
            DeviceHandler::new("thermostat", &[Capability::TemperatureMeasurement]),
        );
        m
    }

    fn motion_event(value: &str) -> CloudEvent {
        CloudEvent::new(SimTime::ZERO, "thermostat", "temperature", value)
    }

    #[test]
    fn predicates_evaluate() {
        assert!(Predicate::Equals("on".into()).matches("on"));
        assert!(!Predicate::Equals("on".into()).matches("off"));
        assert!(Predicate::GreaterThan(80.0).matches("81.5"));
        assert!(!Predicate::GreaterThan(80.0).matches("79"));
        assert!(!Predicate::GreaterThan(80.0).matches("not-a-number"));
        assert!(Predicate::LessThan(32.0).matches("20"));
        assert!(Predicate::Any.matches("anything"));
    }

    #[test]
    fn rules_fire_on_matching_events() {
        let app = SmartApp::new(
            "comfort",
            AppPermissions::new().grant("lamp", Capability::Switch),
        )
        .rule(
            Trigger {
                device: "thermostat".into(),
                attribute: "temperature".into(),
                predicate: Predicate::GreaterThan(80.0),
            },
            Action {
                device: "lamp".into(),
                command: "on".into(),
            },
        );
        assert_eq!(app.execute(&motion_event("85")).len(), 1);
        assert!(app.execute(&motion_event("75")).is_empty());
    }

    #[test]
    fn scoped_model_blocks_overprivileged_actions() {
        // The malicious app: declares only Switch on the lamp, but tries
        // to unlock the front door (the §IV-C2 over-privilege attack).
        let app = SmartApp::new(
            "evil-helper",
            AppPermissions::new().grant("lamp", Capability::Switch),
        );
        let actions = vec![Action {
            device: "front-door".into(),
            command: "unlock".into(),
        }];
        let verdicts =
            authorize_actions(PermissionModel::Scoped, &app, actions.clone(), &handlers());
        assert!(matches!(verdicts[0], ActionVerdict::DeniedScope(_)));

        // Under the permissive model the same action goes through.
        let verdicts = authorize_actions(PermissionModel::Permissive, &app, actions, &handlers());
        assert!(matches!(verdicts[0], ActionVerdict::Allowed(_)));
    }

    #[test]
    fn unknown_commands_are_rejected_by_the_handler() {
        let app = SmartApp::new(
            "app",
            AppPermissions::new().grant("lamp", Capability::Switch),
        );
        let verdicts = authorize_actions(
            PermissionModel::Permissive,
            &app,
            vec![Action {
                device: "lamp".into(),
                command: "self-destruct".into(),
            }],
            &handlers(),
        );
        assert!(matches!(
            verdicts[0],
            ActionVerdict::DeniedUnknownCommand(_)
        ));
    }

    #[test]
    fn subscriptions_cover_all_triggers() {
        let app = SmartApp::new("a", AppPermissions::new())
            .rule(
                Trigger {
                    device: "thermostat".into(),
                    attribute: "temperature".into(),
                    predicate: Predicate::Any,
                },
                Action {
                    device: "lamp".into(),
                    command: "on".into(),
                },
            )
            .rule(
                Trigger {
                    device: "front-door".into(),
                    attribute: "lock".into(),
                    predicate: Predicate::Equals("unlocked".into()),
                },
                Action {
                    device: "lamp".into(),
                    command: "on".into(),
                },
            );
        let subs = app.subscriptions();
        assert_eq!(subs.len(), 2);
        assert!(subs.contains(&("front-door".to_string(), "lock".to_string())));
    }

    #[test]
    fn sensitive_grant_detection() {
        let perms = AppPermissions::new()
            .grant("front-door", Capability::Lock)
            .grant("lamp", Capability::Switch);
        assert!(perms.sensitive_grant("front-door"));
        assert!(!perms.sensitive_grant("lamp"));
        assert!(!perms.sensitive_grant("ghost"));
    }
}
