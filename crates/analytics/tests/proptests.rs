//! Property-based tests over the learning substrates: metric axioms,
//! permutation invariants, and detector sanity under arbitrary inputs.

use proptest::prelude::*;
use xlf_analytics::dfa::Dfa;
use xlf_analytics::features::window_features;
use xlf_analytics::fingerprint::{levenshtein, normalized_distance};
use xlf_analytics::graph::{
    deviation_scores, label_propagation, similarity_graph, similarity_graph_naive,
};
use xlf_analytics::kernel::{center, Kernel};
use xlf_analytics::timeseries::EwmaDetector;

fn seqs() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..2000, 0..24)
}

proptest! {
    /// Levenshtein is a metric (slack 0): identity, symmetry, triangle
    /// inequality.
    #[test]
    fn levenshtein_is_a_metric(a in seqs(), b in seqs(), c in seqs()) {
        prop_assert_eq!(levenshtein(&a, &a, 0), 0);
        prop_assert_eq!(levenshtein(&a, &b, 0), levenshtein(&b, &a, 0));
        let ab = levenshtein(&a, &b, 0);
        let bc = levenshtein(&b, &c, 0);
        let ac = levenshtein(&a, &c, 0);
        prop_assert!(ac <= ab + bc, "triangle violated: {ac} > {ab}+{bc}");
    }

    /// Distance is bounded by the longer sequence; normalized distance is
    /// in [0, 1].
    #[test]
    fn levenshtein_bounds(a in seqs(), b in seqs(), slack in 0i64..16) {
        let d = levenshtein(&a, &b, slack);
        prop_assert!(d <= a.len().max(b.len()));
        let nd = normalized_distance(&a, &b, slack);
        prop_assert!((0.0..=1.0).contains(&nd));
    }

    /// More slack never increases the distance.
    #[test]
    fn slack_is_monotone(a in seqs(), b in seqs(), s1 in 0i64..8, extra in 0i64..8) {
        prop_assert!(levenshtein(&a, &b, s1 + extra) <= levenshtein(&a, &b, s1));
    }

    /// Kernels: symmetry and (for RBF) boundedness in (0, 1].
    #[test]
    fn kernel_axioms(x in prop::collection::vec(-100.0f64..100.0, 1..8),
                     y in prop::collection::vec(-100.0f64..100.0, 1..8),
                     gamma in 0.001f64..2.0) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        for k in [Kernel::Linear, Kernel::Rbf { gamma }] {
            prop_assert!((k.eval(x, y) - k.eval(y, x)).abs() < 1e-9);
        }
        let r = Kernel::Rbf { gamma }.eval(x, y);
        // exp underflows to exactly 0.0 for distant points — that is fine.
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
    }

    /// Centering always zeroes the row sums of any Gram matrix.
    #[test]
    fn centering_zeroes_rows(data in prop::collection::vec(
        prop::collection::vec(-10.0f64..10.0, 3..3+1), 2..10)) {
        let g = Kernel::Linear.gram(&data);
        for row in center(&g) {
            prop_assert!(row.iter().sum::<f64>().abs() < 1e-6);
        }
    }

    /// The DFA never flags a transition it was trained on (min support 1).
    #[test]
    fn dfa_accepts_its_training_set(
        trace in prop::collection::vec(("[a-c]", "[x-z]", "[a-c]"), 1..32)
    ) {
        let trace: Vec<(String, String, String)> = trace;
        let mut dfa = Dfa::new();
        dfa.train(&trace);
        // Re-check only the transitions whose (state, symbol) kept their
        // final successor (determinism resolution keeps the majority).
        for (s, sym, n) in &trace {
            let verdict = dfa.check(s, sym, n);
            if verdict.is_anomalous() {
                // Permitted only when training itself was contradictory.
                let conflicting = trace.iter()
                    .filter(|(s2, sym2, n2)| s2 == s && sym2 == sym && n2 != n)
                    .count();
                prop_assert!(conflicting > 0, "clean transition flagged");
            }
        }
    }

    /// EWMA never alarms during warm-up and never panics on any stream.
    #[test]
    fn ewma_warmup_and_totality(values in prop::collection::vec(-1e6f64..1e6, 1..64),
                                warmup in 1u64..32) {
        let mut d = EwmaDetector::new(0.3, 4.0);
        d.warmup = warmup;
        for (i, &v) in values.iter().enumerate() {
            let alarm = d.observe(v);
            if (i as u64) < warmup {
                prop_assert!(!alarm, "alarm during warm-up at {i}");
            }
        }
    }

    /// Feature windows: counts and byte totals always agree with input.
    #[test]
    fn feature_window_consistency(samples in prop::collection::vec(
        (0.0f64..1e4, 1usize..2000, any::<bool>()), 0..64)) {
        let w = window_features(&samples);
        prop_assert_eq!(w.count, samples.len());
        let bytes: usize = samples.iter().map(|&(_, s, _)| s).sum();
        prop_assert!((w.bytes - bytes as f64).abs() < 1e-6);
        prop_assert!((0.0..=1.0).contains(&w.upstream_fraction));
        prop_assert!(w.std_size >= 0.0);
    }

    /// Label propagation: every label is a valid node index and the
    /// result is deterministic.
    #[test]
    fn label_propagation_wellformed(features in prop::collection::vec(
        prop::collection::vec(-5.0f64..5.0, 2..2+1), 2..12)) {
        let adj = similarity_graph(&features, 2, 1.0);
        let labels = label_propagation(&adj, 50);
        prop_assert_eq!(labels.len(), features.len());
        for &l in &labels {
            prop_assert!(l < features.len());
        }
        prop_assert_eq!(labels.clone(), label_propagation(&adj, 50));
        let scores = deviation_scores(&adj, &labels);
        for s in scores {
            prop_assert!((0.0..=1.0).contains(&s) || s.abs() < 1e-9);
        }
    }

    /// The blocked SoA similarity sweep is *bit-identical* to the
    /// retained naive per-pair path: same shared dot product, same
    /// `‖x‖² + ‖y‖² − 2x·y` decomposition, same neighbour order — so
    /// every edge weight matches with `==`, not a tolerance.
    #[test]
    fn blocked_similarity_bit_equals_naive(
        features in prop::collection::vec(
            prop::collection::vec(-50.0f64..50.0, 1..9), 1..40)
            .prop_map(|rows| {
                // Equalize row lengths (ragged input is rejected by the
                // SoA matrix): truncate to the shortest.
                let dims = rows.iter().map(Vec::len).min().unwrap_or(0);
                rows.into_iter().map(|mut r| { r.truncate(dims); r }).collect::<Vec<_>>()
            }),
        k in 1usize..8,
        gamma in 0.001f64..4.0,
    ) {
        assert_graphs_bit_equal(
            &similarity_graph(&features, k, gamma),
            &similarity_graph_naive(&features, k, gamma),
        )?;
    }

    /// Bit-equality on fleet-shaped input: rows drawn from a pool of a
    /// few distinct vectors, so the blocked sweep's distinct-row groups
    /// (one table row per bit pattern, gathered back per row) carry
    /// most of the graph. The pool values include both zeros (distinct
    /// bit patterns, equal distances) and a huge `gamma` under which
    /// weights underflow and the exact tie protocol decides.
    #[test]
    fn duplicate_heavy_similarity_bit_equals_naive(
        pool in prop::collection::vec(
            prop::collection::vec(
                prop::sample::select(vec![0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 300.0]),
                4,
            ),
            1..7,
        ),
        dims in 1usize..5,
        picks in prop::collection::vec(0usize..6, 1..41),
        k in 1usize..10,
        gamma in prop::sample::select(vec![0.01, 0.5, 8.0, 1e6]),
    ) {
        let features: Vec<Vec<f64>> =
            picks.iter().map(|&p| pool[p % pool.len()][..dims].to_vec()).collect();
        assert_graphs_bit_equal(
            &similarity_graph(&features, k, gamma),
            &similarity_graph_naive(&features, k, gamma),
        )?;
    }
}

/// Edge lists equal index-for-index and weight-for-weight, bitwise.
fn assert_graphs_bit_equal(
    blocked: &[Vec<(usize, f64)>],
    naive: &[Vec<(usize, f64)>],
) -> Result<(), String> {
    prop_assert_eq!(blocked.len(), naive.len());
    for (i, (b, n)) in blocked.iter().zip(naive).enumerate() {
        prop_assert_eq!(b.len(), n.len(), "node {} degree differs", i);
        for (eb, en) in b.iter().zip(n) {
            prop_assert_eq!(eb.0, en.0, "node {} neighbour differs", i);
            prop_assert!(
                eb.1 == en.1 && eb.1.to_bits() == en.1.to_bits(),
                "node {} edge ({}, {}) weight differs bitwise: {:x} vs {:x}",
                i,
                eb.0,
                en.0,
                eb.1.to_bits(),
                en.1.to_bits()
            );
        }
    }
    Ok(())
}

use xlf_analytics::multipattern::{naive_first_per_pattern, AcAutomaton};

/// Pattern sets over a tiny alphabet so overlaps, nestings, duplicates,
/// and empty patterns all occur; haystacks over the same alphabet.
fn ac_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(97u8..100, 0..6), 1..12)
}

fn ac_haystack() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(97u8..100, 0..64)
}

proptest! {
    /// The automaton's first-match-per-pattern answer equals the naive
    /// per-pattern window scan for arbitrary (overlapping, duplicated,
    /// empty) patterns and haystacks.
    #[test]
    fn automaton_first_matches_equal_naive(patterns in ac_patterns(),
                                           haystack in ac_haystack()) {
        let ac = AcAutomaton::build(&patterns);
        prop_assert_eq!(
            ac.find_first_per_pattern(&haystack),
            naive_first_per_pattern(&patterns, &haystack)
        );
    }

    /// `find_all` reports exactly the occurrences a brute-force scan
    /// finds: every occurrence of every non-empty pattern, overlaps
    /// included.
    #[test]
    fn automaton_find_all_is_exhaustive(patterns in ac_patterns(),
                                        haystack in ac_haystack()) {
        let ac = AcAutomaton::build(&patterns);
        let mut got: Vec<(usize, usize)> =
            ac.find_all(&haystack).iter().map(|m| (m.pattern, m.start)).collect();
        got.sort_unstable();
        let mut expected = Vec::new();
        for (id, p) in patterns.iter().enumerate() {
            if p.is_empty() || p.len() > haystack.len() {
                continue;
            }
            for (start, w) in haystack.windows(p.len()).enumerate() {
                if w == p.as_slice() {
                    expected.push((id, start));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
