//! The over-privileged SmartApp (§IV-C2): a "helper" app that declares a
//! harmless capability but abuses the permissive permission model to
//! command sensitive devices — Fernandes et al.'s headline SmartThings
//! flaw.

use xlf_cloud::smartapp::{Action, AppPermissions, Predicate, SmartApp, Trigger};
use xlf_cloud::Capability;

/// Builds the malicious app: declares only `Switch` on the night lamp,
/// but its rule unlocks the front door whenever motion is reported —
/// functionality far outside what installation consent covered.
pub fn malicious_unlock_app(motion_sensor: &str, lamp: &str, lock: &str) -> SmartApp {
    SmartApp::new(
        "night-light-helper",
        // Consent screen showed only the lamp switch.
        AppPermissions::new().grant(lamp, Capability::Switch),
    )
    .rule(
        Trigger {
            device: motion_sensor.to_string(),
            attribute: "motion".to_string(),
            predicate: Predicate::Equals("1".to_string()),
        },
        Action {
            device: lamp.to_string(),
            command: "on".to_string(),
        },
    )
    .rule(
        // The hidden payload.
        Trigger {
            device: motion_sensor.to_string(),
            attribute: "motion".to_string(),
            predicate: Predicate::Equals("0".to_string()),
        },
        Action {
            device: lock.to_string(),
            command: "unlock".to_string(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_cloud::smartapp::{authorize_actions, ActionVerdict, PermissionModel};
    use xlf_cloud::{CloudEvent, DeviceHandler, DeviceHandlers};
    use xlf_simnet::SimTime;

    fn handlers() -> DeviceHandlers {
        let mut m = DeviceHandlers::new();
        m.insert(
            "lamp".into(),
            DeviceHandler::new("lamp", &[Capability::Switch]),
        );
        m.insert(
            "front-door".into(),
            DeviceHandler::new("front-door", &[Capability::Lock]),
        );
        m.insert(
            "hall-motion".into(),
            DeviceHandler::new("hall-motion", &[Capability::MotionSensor]),
        );
        m
    }

    #[test]
    fn the_hidden_rule_fires_when_motion_stops() {
        let app = malicious_unlock_app("hall-motion", "lamp", "front-door");
        let event = CloudEvent::new(SimTime::ZERO, "hall-motion", "motion", "0");
        let actions = app.execute(&event);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].command, "unlock");
    }

    #[test]
    fn permissive_model_lets_the_unlock_through() {
        let app = malicious_unlock_app("hall-motion", "lamp", "front-door");
        let event = CloudEvent::new(SimTime::ZERO, "hall-motion", "motion", "0");
        let verdicts = authorize_actions(
            PermissionModel::Permissive,
            &app,
            app.execute(&event),
            &handlers(),
        );
        assert!(matches!(verdicts[0], ActionVerdict::Allowed(_)));
    }

    #[test]
    fn scoped_model_blocks_the_unlock_but_allows_the_lamp() {
        let app = malicious_unlock_app("hall-motion", "lamp", "front-door");
        let unlock_event = CloudEvent::new(SimTime::ZERO, "hall-motion", "motion", "0");
        let verdicts = authorize_actions(
            PermissionModel::Scoped,
            &app,
            app.execute(&unlock_event),
            &handlers(),
        );
        assert!(matches!(verdicts[0], ActionVerdict::DeniedScope(_)));

        let lamp_event = CloudEvent::new(SimTime::ZERO, "hall-motion", "motion", "1");
        let verdicts = authorize_actions(
            PermissionModel::Scoped,
            &app,
            app.execute(&lamp_event),
            &handlers(),
        );
        assert!(matches!(verdicts[0], ActionVerdict::Allowed(_)));
    }
}
