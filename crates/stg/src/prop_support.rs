//! Generators of structurally-valid random STGs, shared by the
//! property-based tests of this crate and of `a4a-synth`.
//!
//! The generator produces *handshake pipelines*: a ring of alternating
//! input/output signals where each signal's rising and falling edges are
//! threaded in sequence. Such STGs are consistent, live, deadlock-free,
//! and output-persistent by construction, which makes them a useful
//! fuzzing corpus for the whole flow (anything the checker flags on them
//! is a checker bug; anything synthesis mangles is a synthesis bug).

use crate::{SignalKind, Stg, StgBuilder};

/// Builds a handshake-pipeline STG over `n` signals (n ≥ 1), where
/// signal `i` is an output iff bit `i` of `output_mask` is set (signal 0
/// is forced to input so an environment exists).
///
/// The event cycle is `s0+ s1+ … s(n-1)+ s0- s1- … s(n-1)-` with each
/// event enabling the next, closed into a ring.
pub fn pipeline_stg(n: usize, output_mask: u64) -> Stg {
    pipeline_stg_with_prefix(n, output_mask, "s")
}

/// [`pipeline_stg`] with a custom signal-name prefix, so two pipelines
/// can be composed without sharing signals.
pub fn pipeline_stg_with_prefix(n: usize, output_mask: u64, prefix: &str) -> Stg {
    assert!((1..=16).contains(&n), "1..=16 signals");
    let mut b = StgBuilder::new(format!("pipeline{n}"));
    let signals: Vec<_> = (0..n)
        .map(|i| {
            let name = format!("{prefix}{i}");
            if i > 0 && output_mask & (1 << i) != 0 {
                b.output(name, false)
            } else {
                b.input(name, false)
            }
        })
        .collect();
    let rises: Vec<_> = signals.iter().map(|&s| b.rise(s)).collect();
    let falls: Vec<_> = signals.iter().map(|&s| b.fall(s)).collect();
    // Thread: rises in order, then falls in order, ring-closed.
    let chain: Vec<_> = rises.iter().chain(falls.iter()).copied().collect();
    for w in chain.windows(2) {
        b.connect(w[0], w[1]);
    }
    b.connect_marked(chain[chain.len() - 1], chain[0]);
    b.build()
}

/// Builds `rings` independent rings of `len` dummy transitions (len ≥ 1),
/// one token each, and no signals: `len^rings` states that all share one
/// code, the worst case for a check that pairs the states of a code.
pub fn dummy_rings_stg(rings: usize, len: usize) -> Stg {
    assert!(len >= 1, "a ring needs a transition");
    let mut b = StgBuilder::new(format!("dummy_rings{rings}x{len}"));
    for _ in 0..rings {
        let ring: Vec<_> = (0..len).map(|_| b.dummy()).collect();
        for w in ring.windows(2) {
            b.connect(w[0], w[1]);
        }
        b.connect_marked(ring[len - 1], ring[0]);
    }
    b.build()
}

/// The number of non-input signals in a pipeline built with
/// [`pipeline_stg`] (handy for test assertions).
pub fn pipeline_output_count(stg: &Stg) -> usize {
    stg.signals()
        .iter()
        .filter(|s| s.kind != SignalKind::Input)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_is_clean_for_any_mask() {
        for n in 1..6 {
            for mask in 0..(1u64 << n) {
                let stg = pipeline_stg(n, mask);
                let sg = stg
                    .state_graph(100_000)
                    .unwrap_or_else(|e| panic!("n={n} mask={mask:#b}: {e}"));
                assert_eq!(sg.state_count(), 2 * n, "ring of 2n events");
                let report = stg.verify(&sg);
                assert!(
                    report.deadlocks.is_empty() && report.persistence.is_empty(),
                    "n={n} mask={mask:#b}: {}",
                    report.summary()
                );
            }
        }
    }

    #[test]
    fn dummy_rings_multiply_states_under_one_code() {
        let stg = dummy_rings_stg(2, 5);
        let sg = stg.state_graph(100).expect("dummy rings explore");
        assert_eq!(sg.state_count(), 25);
        assert!(sg.state_ids().all(|s| sg.code(s) == 0));
    }

    #[test]
    fn output_count_matches_mask() {
        let stg = pipeline_stg(4, 0b1010);
        assert_eq!(pipeline_output_count(&stg), 2);
        let stg = pipeline_stg(3, 0b0001); // bit 0 forced input
        assert_eq!(pipeline_output_count(&stg), 0);
    }
}
