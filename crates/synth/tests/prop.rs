//! Property-based tests: every clean random specification synthesises
//! into a conformant, hazard-free circuit in both styles.

use a4a_rt::prop::{self, Config, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq};
use a4a_stg::prop_support::{pipeline_output_count, pipeline_stg, pipeline_stg_with_prefix};
use a4a_synth::{extract_next_state, synthesize, verify_si, SynthOptions, SynthStyle};

#[test]
fn wide_composition_synthesises_via_espresso() {
    // Two disjoint 10-signal pipelines: 20 signals, beyond the exact
    // QM enumeration bound, forcing the espresso path.
    let a = pipeline_stg(10, u64::MAX);
    let b = pipeline_stg_with_prefix(10, u64::MAX, "t");
    let wide = a.compose(&b).expect("disjoint");
    assert!(wide.signal_count() > 18);
    let synth =
        synthesize(&wide, &SynthOptions::new(SynthStyle::ComplexGate)).expect("espresso path");
    let report = verify_si(&wide, synth.netlist(), 1_000_000).expect("explore");
    assert!(report.is_clean(), "{:?}", report.violations.first());
}

/// Synthesis of any handshake pipeline verifies clean in both
/// styles.
#[test]
fn pipelines_synthesise_clean() {
    prop::check_with(
        &Config::with_cases(64),
        "pipelines_synthesise_clean",
        |g: &mut Gen| -> PropResult {
            let n = g.usize(2..7);
            let mask = g.any_u64();
            let stg = pipeline_stg(n, mask | 0b10); // at least one output
            for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
                let synth = synthesize(&stg, &SynthOptions::new(style)).unwrap();
                prop_assert_eq!(
                    synth.netlist().gate_count(),
                    pipeline_output_count(&stg),
                    "one gate per implemented signal"
                );
                let report = verify_si(&stg, synth.netlist(), 1_000_000).unwrap();
                prop_assert!(
                    report.is_clean(),
                    "{:?}: {:?}",
                    style,
                    report.violations.first()
                );
            }
            Ok(())
        },
    );
}

/// The synthesised complex-gate function agrees with the extracted
/// next-state function on every reachable code.
#[test]
fn covers_match_next_state() {
    prop::check_with(
        &Config::with_cases(64),
        "covers_match_next_state",
        |g: &mut Gen| -> PropResult {
            let n = g.usize(2..7);
            let mask = g.any_u64();
            let stg = pipeline_stg(n, mask | 0b10);
            let sg = stg.state_graph(1_000_000).unwrap();
            let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate)).unwrap();
            for im in synth.impls() {
                let ns = extract_next_state(&stg, &sg, im.signal).unwrap();
                if let a4a_synth::SignalFunction::Complex(cover) = &im.function {
                    for (&code, region) in &ns.regions {
                        prop_assert_eq!(
                            cover.eval(code),
                            region.next_value(),
                            "{} at {:#b}",
                            &im.name,
                            code
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// gC set and reset covers never both fire on a reachable code.
#[test]
fn gc_set_reset_disjoint_on_reachable() {
    prop::check_with(
        &Config::with_cases(64),
        "gc_set_reset_disjoint_on_reachable",
        |g: &mut Gen| -> PropResult {
            let n = g.usize(2..6);
            let mask = g.any_u64();
            let stg = pipeline_stg(n, mask | 0b10);
            let sg = stg.state_graph(1_000_000).unwrap();
            let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::GeneralizedC)).unwrap();
            let codes: std::collections::HashSet<u64> =
                sg.state_ids().map(|s| sg.code(s)).collect();
            for im in synth.impls() {
                if let a4a_synth::SignalFunction::Gc { set, reset } = &im.function {
                    for &code in &codes {
                        prop_assert!(
                            !(set.eval(code) && reset.eval(code)),
                            "{} set and reset both on at {:#b}",
                            &im.name,
                            code
                        );
                    }
                }
            }
            Ok(())
        },
    );
}
