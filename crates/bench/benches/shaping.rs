//! E-M3 bench — shaping decision cost per packet across modes.

use xlf_bench::harness::micro_bench;
use xlf_core::shaping::{ShapingMode, TrafficShaper};
use xlf_simnet::Duration;

fn main() {
    let modes = [
        ("off", ShapingMode::Off),
        ("pad256", ShapingMode::PadOnly { bucket: 256 }),
        (
            "pad1024_delay",
            ShapingMode::PadAndDelay {
                bucket: 1024,
                max_delay: Duration::from_millis(500),
            },
        ),
    ];
    for (name, mode) in modes {
        let mut shaper = TrafficShaper::new(mode, 7);
        micro_bench(&format!("shaping_per_packet/{name}"), None, || {
            shaper.shape(333)
        });
    }
}
