//! Service-layer substrate: a SmartThings-style IoT cloud (§II-C) with the
//! design properties — and design flaws — the paper analyzes in §III-C and
//! §IV-C.
//!
//! * [`capability`] — the device-abstraction/capability model.
//! * [`events`] — the event subsystem with subscriptions; reproduces the
//!   "insufficient sensitive event data protection" and event-spoofing
//!   flaws of Fernandes et al. when configured permissively.
//! * [`smartapp`] — sandboxed trigger-action automations with a permission
//!   model that can be over-privileged (the SmartApps flaw) or scoped.
//! * [`ifttt`] — IFTTT-style recipes connecting external web services to
//!   devices, with the third-party-integration trust surface.
//! * [`oauth`] — OAuth2-shaped token service (scopes, expiry, revocation,
//!   SSO tokens).
//! * [`api`] — REST API gateway with token validation, role scoping, and
//!   rate limiting (§IV-C1's secure-API requirements).
//! * [`ota_server`] — the update distribution endpoint (§III-C's OTA
//!   analysis).
//! * [`cloud`] — the assembled cloud plus `simnet` node wrappers (hub and
//!   cloud endpoints).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod capability;
pub mod cloud;
pub mod events;
pub mod ifttt;
pub mod oauth;
pub mod ota_server;
pub mod smartapp;

pub use api::{ApiGateway, Scope};
pub use capability::{Capability, DeviceHandler, DeviceHandlers};
pub use cloud::{parse_reading, AppSet, CloudNode, HubNode, SmartCloud};
pub use events::{CloudEvent, EventBus, EventKeys, EventPolicy, EventSource};
pub use ifttt::{Recipe, RecipeEngine, WebService};
pub use oauth::{Token, TokenService};
pub use ota_server::OtaServer;
pub use smartapp::{Action, AppPermissions, Predicate, SmartApp, Trigger};
