//! E-F4 bench — end-to-end cost of a full scenario simulation and of one
//! Core correlation sweep over a populated evidence store.

use xlf_attacks::HomeAttack;
use xlf_bench::harness::micro_bench;
use xlf_bench::scenarios::{run_scenario, SCENARIO_END_S};
use xlf_core::correlation::{CorrelationConfig, CorrelationEngine};
use xlf_core::framework::XlfConfig;
use xlf_simnet::SimTime;

fn main() {
    micro_bench("crosslayer/full_botnet_scenario_simulation", None, || {
        run_scenario(1, XlfConfig::full(), HomeAttack::BotnetRecruit)
    });

    let home = run_scenario(1, XlfConfig::full(), HomeAttack::BotnetRecruit);
    let engine = CorrelationEngine::new(CorrelationConfig::default());
    let now = SimTime::from_secs(SCENARIO_END_S);
    let core = home.core.borrow();
    micro_bench("crosslayer/correlation_sweep", None, || {
        engine.evaluate_all(&core.store, now)
    });
}
