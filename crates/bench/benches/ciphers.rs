//! E-T3 bench — per-cipher CTR throughput over the full Table III
//! registry (the measured column of the table3 harness).

use xlf_bench::harness::micro_bench;
use xlf_lwcrypto::modes::Ctr;
use xlf_lwcrypto::registry;

fn main() {
    let mut seen = Vec::new();
    for cipher in registry(b"bench") {
        let info = cipher.info();
        if seen.contains(&info.name) {
            continue;
        }
        seen.push(info.name);
        let mut data = vec![0xA5u8; 16 * 1024];
        let nonce = vec![7u8; cipher.block_size()];
        micro_bench(
            &format!("table3_ctr_throughput/{}", info.name),
            Some(data.len()),
            || Ctr::new(cipher.as_ref(), &nonce).apply(&mut data),
        );
    }
}
