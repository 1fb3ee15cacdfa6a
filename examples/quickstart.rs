//! Quickstart: build a small smart home, deploy XLF, run it, and read the
//! framework's state.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xlf::core::framework::{HomeDevice, XlfConfig, XlfHome};
use xlf::device::SensorKind;
use xlf::simnet::SimTime;

fn main() {
    // 1. Describe the home: a thermostat and a camera.
    let devices = [
        HomeDevice::new("thermo", SensorKind::Temperature),
        HomeDevice::new("cam", SensorKind::Camera),
    ];

    // 2. Build it with the full cross-layer deployment (every mechanism
    //    on; see XlfConfig for the per-mechanism switches).
    let mut home = XlfHome::build(42, XlfConfig::full(), &devices);

    // 3. Run ten simulated minutes.
    home.net.run_until(SimTime::from_secs(600));

    // 4. Inspect what the framework saw.
    let core = home.core.borrow();
    println!("simulated time : {}", home.net.now());
    println!("packets        : {:?}", home.net.stats());
    println!(
        "gateway        : {} forwarded / {} dropped",
        home.gateway_ref().forwarded,
        home.gateway_ref().dropped
    );
    println!("evidence       : {} records", core.store.len());
    println!("alerts         : {}", core.alerts.alerts().len());
    for alert in core.alerts.alerts() {
        println!(
            "  [{}] {} — {}",
            alert.severity, alert.device, alert.explanation
        );
    }
    println!("\nA benign home stays quiet: no alerts is the expected output.");
    assert!(
        core.alerts.alerts().is_empty(),
        "a benign home must raise no alerts"
    );
}
