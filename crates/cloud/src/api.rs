//! The REST API gateway: token validation, role scoping, and rate
//! limiting — the §IV-C1 secure-API requirements ("a read-only API client
//! should not be allowed to access an endpoint providing administration
//! functionality", "each API call should be assigned an API token").

use crate::capability::DeviceHandlers;
use crate::oauth::{TokenError, TokenService};
use std::collections::BTreeMap;
use xlf_protocols::rest::{Method, Request, Response};
use xlf_simnet::SimTime;

/// Well-known scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Read device state.
    DevicesRead,
    /// Send device commands.
    DevicesWrite,
    /// Push firmware updates.
    OtaPush,
    /// Administer apps.
    AppsAdmin,
}

impl Scope {
    /// The scope string carried in tokens.
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::DevicesRead => "devices:read",
            Scope::DevicesWrite => "devices:write",
            Scope::OtaPush => "ota:push",
            Scope::AppsAdmin => "apps:admin",
        }
    }
}

/// Per-token sliding-window rate limiter state.
#[derive(Debug, Default)]
struct RateState {
    window_start: SimTime,
    count: u32,
}

/// A routed, authorized API call ready for the cloud to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiCall {
    /// List devices and their last-known attributes.
    ListDevices,
    /// Read one device.
    GetDevice(String),
    /// Command a device: (device, command).
    CommandDevice(String, String),
    /// Push an OTA image to a device: (device, image bytes).
    PushOta(String, Vec<u8>),
}

/// The gateway.
#[derive(Debug)]
pub struct ApiGateway {
    /// Requests allowed per token per second.
    pub rate_limit_per_sec: u32,
    rate: BTreeMap<String, RateState>,
    /// Denied/allowed counters for reporting.
    pub denied_unauthorized: u64,
    /// Requests denied for missing scope.
    pub denied_scope: u64,
    /// Requests denied by rate limiting.
    pub denied_rate: u64,
}

impl Default for ApiGateway {
    fn default() -> Self {
        Self::new()
    }
}

impl ApiGateway {
    /// Creates a gateway with the default rate limit (30 req/s/token).
    pub fn new() -> Self {
        ApiGateway {
            rate_limit_per_sec: 30,
            rate: BTreeMap::new(),
            denied_unauthorized: 0,
            denied_scope: 0,
            denied_rate: 0,
        }
    }

    fn required_scope(request: &Request) -> Option<Scope> {
        let path = request.path.as_str();
        match (request.method, path) {
            (Method::Get, "/devices") => Some(Scope::DevicesRead),
            (Method::Get, p) if p.starts_with("/devices/") => Some(Scope::DevicesRead),
            (Method::Post, p) if p.starts_with("/devices/") && p.ends_with("/commands") => {
                Some(Scope::DevicesWrite)
            }
            (Method::Post, p) if p.starts_with("/ota/") => Some(Scope::OtaPush),
            (Method::Post, "/apps") => Some(Scope::AppsAdmin),
            _ => None,
        }
    }

    fn rate_limited(&mut self, token: &str, now: SimTime) -> bool {
        let state = self.rate.entry(token.to_string()).or_default();
        if now.since(state.window_start).as_micros() >= 1_000_000 {
            state.window_start = now;
            state.count = 0;
        }
        state.count += 1;
        state.count > self.rate_limit_per_sec
    }

    /// Authenticates, authorizes, rate-limits, and routes a request.
    ///
    /// Returns either the call to execute or the error response to send.
    pub fn route(
        &mut self,
        request: &Request,
        tokens: &mut TokenService,
        now: SimTime,
    ) -> Result<ApiCall, Response> {
        let Some(scope) = Self::required_scope(request) else {
            return Err(Response::not_found());
        };
        let Some(token) = &request.token else {
            self.denied_unauthorized += 1;
            return Err(Response::unauthorized());
        };
        match tokens.validate(token, scope.as_str(), now) {
            Ok(_) => {}
            Err(TokenError::MissingScope) => {
                self.denied_scope += 1;
                return Err(Response::forbidden());
            }
            Err(_) => {
                self.denied_unauthorized += 1;
                return Err(Response::unauthorized());
            }
        }
        if self.rate_limited(token, now) {
            self.denied_rate += 1;
            return Err(Response::rate_limited());
        }

        let path = request.path.as_str();
        if request.method == Method::Get && path == "/devices" {
            return Ok(ApiCall::ListDevices);
        }
        if let Some(rest) = path.strip_prefix("/devices/") {
            if request.method == Method::Get {
                return Ok(ApiCall::GetDevice(rest.to_string()));
            }
            if let Some(device) = rest.strip_suffix("/commands") {
                let command = String::from_utf8_lossy(&request.body)
                    .trim_start_matches("action=")
                    .to_string();
                return Ok(ApiCall::CommandDevice(device.to_string(), command));
            }
        }
        if let Some(device) = path.strip_prefix("/ota/") {
            return Ok(ApiCall::PushOta(device.to_string(), request.body.clone()));
        }
        Err(Response::not_found())
    }

    /// Renders the device list for [`ApiCall::ListDevices`].
    pub fn render_devices(handlers: &DeviceHandlers) -> Response {
        let mut body = String::new();
        for (name, handler) in handlers {
            body.push_str(name);
            body.push(':');
            for (attr, value) in &handler.attributes {
                body.push_str(&format!(" {attr}={value}"));
            }
            body.push('\n');
        }
        Response::ok(body.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlf_simnet::Duration;

    fn service_with_token(scopes: &[&str]) -> (TokenService, String) {
        let mut svc = TokenService::new();
        let t = svc.issue(
            "user",
            scopes,
            SimTime::ZERO,
            Duration::from_secs(3600),
            false,
        );
        (svc, t.value)
    }

    #[test]
    fn missing_token_is_unauthorized() {
        let mut gw = ApiGateway::new();
        let (mut svc, _) = service_with_token(&["devices:read"]);
        let req = Request::new(Method::Get, "/devices");
        assert_eq!(
            gw.route(&req, &mut svc, SimTime::ZERO),
            Err(Response::unauthorized())
        );
        assert_eq!(gw.denied_unauthorized, 1);
    }

    #[test]
    fn read_token_cannot_write() {
        // "A read-only API client should not be allowed to access an
        // endpoint providing administration functionality."
        let mut gw = ApiGateway::new();
        let (mut svc, token) = service_with_token(&["devices:read"]);
        let req = Request::new(Method::Post, "/devices/lamp/commands")
            .with_token(&token)
            .with_body(b"action=on".to_vec());
        assert_eq!(
            gw.route(&req, &mut svc, SimTime::ZERO),
            Err(Response::forbidden())
        );
        assert_eq!(gw.denied_scope, 1);
    }

    #[test]
    fn proper_scope_routes_the_call() {
        let mut gw = ApiGateway::new();
        let (mut svc, token) = service_with_token(&["devices:write"]);
        let req = Request::new(Method::Post, "/devices/lamp/commands")
            .with_token(&token)
            .with_body(b"action=on".to_vec());
        assert_eq!(
            gw.route(&req, &mut svc, SimTime::ZERO),
            Ok(ApiCall::CommandDevice("lamp".into(), "on".into()))
        );
    }

    #[test]
    fn ota_routing() {
        let mut gw = ApiGateway::new();
        let (mut svc, token) = service_with_token(&["ota:push"]);
        let req = Request::new(Method::Post, "/ota/cam")
            .with_token(&token)
            .with_body(vec![1, 2, 3]);
        assert_eq!(
            gw.route(&req, &mut svc, SimTime::ZERO),
            Ok(ApiCall::PushOta("cam".into(), vec![1, 2, 3]))
        );
    }

    #[test]
    fn unknown_paths_are_404() {
        let mut gw = ApiGateway::new();
        let (mut svc, token) = service_with_token(&["devices:read"]);
        let req = Request::new(Method::Get, "/secrets").with_token(&token);
        assert_eq!(
            gw.route(&req, &mut svc, SimTime::ZERO),
            Err(Response::not_found())
        );
    }

    #[test]
    fn rate_limiting_kicks_in_and_resets() {
        let mut gw = ApiGateway::new();
        gw.rate_limit_per_sec = 5;
        let (mut svc, token) = service_with_token(&["devices:read"]);
        let req = Request::new(Method::Get, "/devices").with_token(&token);
        for _ in 0..5 {
            assert!(gw.route(&req, &mut svc, SimTime::ZERO).is_ok());
        }
        assert_eq!(
            gw.route(&req, &mut svc, SimTime::ZERO),
            Err(Response::rate_limited())
        );
        // Next window: allowed again.
        assert!(gw.route(&req, &mut svc, SimTime::from_secs(2)).is_ok());
    }

    #[test]
    fn expired_token_is_unauthorized() {
        let mut gw = ApiGateway::new();
        let mut svc = TokenService::new();
        let t = svc.issue(
            "u",
            &["devices:read"],
            SimTime::ZERO,
            Duration::from_secs(1),
            false,
        );
        let req = Request::new(Method::Get, "/devices").with_token(&t.value);
        assert_eq!(
            gw.route(&req, &mut svc, SimTime::from_secs(2)),
            Err(Response::unauthorized())
        );
    }

    #[test]
    fn render_devices_lists_attributes() {
        let mut handlers = DeviceHandlers::new();
        let mut h = crate::DeviceHandler::new("lamp", &[crate::capability::Capability::Switch]);
        h.record("switch".into(), "on");
        handlers.insert("lamp".into(), h);
        let resp = ApiGateway::render_devices(&handlers);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("lamp: switch=on"));
    }
}
