//! E-M1 bench — per-request authentication cost (compute, not modeled
//! network latency): delegation proxy cache hit vs cloud-only validation.

use xlf_bench::harness::micro_bench;
use xlf_core::auth::{
    AccessOrigin, AuthRequest, CloudOnlyAuth, DelegationProxy, LatencyModel, PrivilegeTier,
};
use xlf_simnet::SimTime;

fn request() -> AuthRequest {
    AuthRequest {
        user: "alice".to_string(),
        device: "lamp".to_string(),
        origin: AccessOrigin::Lan,
        tier: PrivilegeTier::Basic,
    }
}

fn main() {
    let mut proxy = DelegationProxy::new(LatencyModel::default());
    proxy.authenticate(&request(), SimTime::ZERO);
    micro_bench("auth_per_request/delegation_proxy_cached", None, || {
        proxy.authenticate(&request(), SimTime::from_secs(1))
    });
    let mut cloud = CloudOnlyAuth::new(LatencyModel::default());
    micro_bench("auth_per_request/cloud_only", None, || {
        cloud.authenticate(&request(), SimTime::from_secs(1))
    });
}
