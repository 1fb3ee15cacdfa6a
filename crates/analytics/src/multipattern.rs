//! Single-pass multi-pattern byte matching: a hand-rolled Aho–Corasick
//! automaton (dense goto table, BFS-computed failure links folded into a
//! full DFA, per-state output lists).
//!
//! This is the DPI fast path. The naive engines scan the payload once per
//! rule — O(rules × payload) — which collapses at realistic IoT
//! signature-set sizes (hundreds of C&C keywords). The automaton walks
//! the payload exactly once regardless of rule count: O(payload +
//! matches) per inspection, with rule-set size paid once at build time.
//! BlindBox itself uses a single-pass multi-pattern structure for the
//! same reason.

use std::collections::VecDeque;

/// Alphabet size: matching is over raw bytes.
const ALPHABET: usize = 256;

/// One occurrence of a pattern in a haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AcMatch {
    /// Index of the pattern (in build order).
    pub pattern: usize,
    /// Byte offset of the occurrence's first byte.
    pub start: usize,
}

/// A compiled Aho–Corasick automaton over a dense byte alphabet.
///
/// States are laid out breadth-first; `goto` is the full DFA transition
/// table (failure links are resolved at build time, so the scan loop is
/// a single table lookup per input byte with no backtracking).
#[derive(Debug, Clone)]
pub struct AcAutomaton {
    /// Dense transition table: `goto[state][byte] → state`.
    goto: Vec<[u32; ALPHABET]>,
    /// Pattern ids recognized at each state (own output plus every
    /// output reachable through failure links).
    outputs: Vec<Vec<u32>>,
    /// Pattern lengths in build order (0 for empty patterns, which never
    /// match — mirroring the naive scans).
    lengths: Vec<usize>,
}

impl AcAutomaton {
    /// Compiles the automaton from patterns in iteration order. Empty
    /// patterns are accepted but never match (the naive per-rule scans
    /// skip them, and equivalence with those scans is load-bearing).
    pub fn build<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        // Phase 1: trie construction.
        let mut goto: Vec<[u32; ALPHABET]> = vec![[u32::MAX; ALPHABET]];
        let mut own_output: Vec<Vec<u32>> = vec![Vec::new()];
        let mut lengths = Vec::new();
        for (id, pattern) in patterns.into_iter().enumerate() {
            let bytes = pattern.as_ref();
            lengths.push(bytes.len());
            if bytes.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in bytes {
                let next = goto[state][b as usize];
                state = if next == u32::MAX {
                    goto.push([u32::MAX; ALPHABET]);
                    own_output.push(Vec::new());
                    let new_state = (goto.len() - 1) as u32;
                    goto[state][b as usize] = new_state;
                    new_state as usize
                } else {
                    next as usize
                };
            }
            own_output[state].push(id as u32);
        }

        // Phase 2: BFS failure links, folded directly into the goto table
        // (converting the trie into a full DFA) while merging outputs.
        let mut fail = vec![0u32; goto.len()];
        let mut outputs = own_output;
        let mut queue = VecDeque::new();
        for slot in &mut goto[0] {
            if *slot == u32::MAX {
                *slot = 0;
            } else {
                fail[*slot as usize] = 0;
                queue.push_back(*slot as usize);
            }
        }
        while let Some(state) = queue.pop_front() {
            let fallback = fail[state] as usize;
            if !outputs[fallback].is_empty() {
                let inherited = outputs[fallback].clone();
                outputs[state].extend(inherited);
            }
            // The fallback is strictly shallower in the BFS order, so its
            // row is final; copy it out to sidestep the aliasing borrow.
            let fallback_row = goto[fallback];
            for (slot, &through_fallback) in goto[state].iter_mut().zip(fallback_row.iter()) {
                if *slot == u32::MAX {
                    *slot = through_fallback;
                } else {
                    fail[*slot as usize] = through_fallback;
                    queue.push_back(*slot as usize);
                }
            }
        }

        AcAutomaton {
            goto,
            outputs,
            lengths,
        }
    }

    /// Number of automaton states (root included).
    pub fn state_count(&self) -> usize {
        self.goto.len()
    }

    /// Finds every occurrence of every pattern (overlaps included), in
    /// one pass. Matches are ordered by end position, then pattern id.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<AcMatch> {
        let mut out = Vec::new();
        let mut state = 0usize;
        for (end, &b) in haystack.iter().enumerate() {
            state = self.goto[state][b as usize] as usize;
            for &id in &self.outputs[state] {
                let len = self.lengths[id as usize];
                out.push(AcMatch {
                    pattern: id as usize,
                    start: end + 1 - len,
                });
            }
        }
        out
    }

    /// Finds the leftmost occurrence of each pattern in one pass,
    /// stopping early once every pattern has been seen. `out` is
    /// resized/reset by the callee, so one buffer serves every call.
    pub fn find_first_per_pattern_into(&self, haystack: &[u8], out: &mut Vec<Option<usize>>) {
        out.clear();
        out.resize(self.lengths.len(), None);
        let mut remaining = self.lengths.iter().filter(|&&l| l > 0).count();
        if remaining == 0 {
            return;
        }
        let mut state = 0usize;
        for (end, &b) in haystack.iter().enumerate() {
            state = self.goto[state][b as usize] as usize;
            for &id in &self.outputs[state] {
                let slot = &mut out[id as usize];
                if slot.is_none() {
                    *slot = Some(end + 1 - self.lengths[id as usize]);
                    remaining -= 1;
                    if remaining == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Allocating convenience wrapper over
    /// [`AcAutomaton::find_first_per_pattern_into`].
    pub fn find_first_per_pattern(&self, haystack: &[u8]) -> Vec<Option<usize>> {
        let mut out = Vec::new();
        self.find_first_per_pattern_into(haystack, &mut out);
        out
    }
}

/// The reference implementation the automaton must agree with: leftmost
/// occurrence of each pattern by per-pattern window scan,
/// O(patterns × haystack). Kept public so benches and property tests can
/// A/B the two engines.
pub fn naive_first_per_pattern<P: AsRef<[u8]>>(
    patterns: &[P],
    haystack: &[u8],
) -> Vec<Option<usize>> {
    patterns
        .iter()
        .map(|p| {
            let p = p.as_ref();
            if p.is_empty() || p.len() > haystack.len() {
                return None;
            }
            haystack.windows(p.len()).position(|w| w == p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns() -> Vec<&'static [u8]> {
        vec![b"he", b"she", b"his", b"hers", b""]
    }

    #[test]
    fn classic_aho_corasick_example() {
        let ac = AcAutomaton::build(patterns());
        let matches = ac.find_all(b"ushers");
        // "ushers": she@1, he@2, hers@2.
        assert_eq!(
            matches,
            vec![
                AcMatch {
                    pattern: 1,
                    start: 1
                },
                AcMatch {
                    pattern: 0,
                    start: 2
                },
                AcMatch {
                    pattern: 3,
                    start: 2
                },
            ]
        );
    }

    #[test]
    fn first_per_pattern_matches_naive() {
        let pats = patterns();
        let ac = AcAutomaton::build(&pats);
        for hay in [
            &b"ushers and his heroes"[..],
            b"",
            b"xxxx",
            b"hehehehe",
            b"sheshehis",
        ] {
            assert_eq!(
                ac.find_first_per_pattern(hay),
                naive_first_per_pattern(&pats, hay),
                "divergence on {hay:?}"
            );
        }
    }

    #[test]
    fn empty_patterns_never_match() {
        let ac = AcAutomaton::build([&b""[..], b""]);
        assert!(ac.find_all(b"anything").is_empty());
        assert_eq!(ac.find_first_per_pattern(b"anything"), vec![None, None]);
    }

    #[test]
    fn overlapping_and_nested_patterns_all_reported() {
        let ac = AcAutomaton::build([&b"aa"[..], b"aaa"]);
        let matches = ac.find_all(b"aaaa");
        // aa@0, aa@1, aaa@0, aa@2, aaa@1.
        assert_eq!(matches.len(), 5);
        assert_eq!(
            matches.iter().filter(|m| m.pattern == 0).count(),
            3,
            "aa occurs 3 times"
        );
        assert_eq!(
            matches.iter().filter(|m| m.pattern == 1).count(),
            2,
            "aaa occurs 2 times"
        );
    }

    #[test]
    fn duplicate_patterns_each_report() {
        let ac = AcAutomaton::build([&b"abc"[..], b"abc"]);
        let firsts = ac.find_first_per_pattern(b"zzabczz");
        assert_eq!(firsts, vec![Some(2), Some(2)]);
    }

    #[test]
    fn single_byte_patterns_and_full_alphabet() {
        let pats: Vec<Vec<u8>> = (0u8..=255).map(|b| vec![b]).collect();
        let ac = AcAutomaton::build(&pats);
        let hay: Vec<u8> = vec![7, 200, 7, 13];
        let firsts = ac.find_first_per_pattern(&hay);
        assert_eq!(firsts[7], Some(0));
        assert_eq!(firsts[200], Some(1));
        assert_eq!(firsts[13], Some(3));
        assert_eq!(firsts[0], None);
    }

    #[test]
    fn reused_scratch_buffer_is_reset() {
        let ac = AcAutomaton::build([&b"xy"[..]]);
        let mut scratch = Vec::new();
        ac.find_first_per_pattern_into(b"xy", &mut scratch);
        assert_eq!(scratch, vec![Some(0)]);
        ac.find_first_per_pattern_into(b"ab", &mut scratch);
        assert_eq!(scratch, vec![None]);
    }
}
