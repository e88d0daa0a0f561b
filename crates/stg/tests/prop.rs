//! Property-based tests: random handshake-pipeline STGs stay clean
//! through every transformation the crate offers.

use a4a_rt::prop::{self, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq, prop_assume};
use a4a_stg::prop_support::{pipeline_stg, pipeline_stg_with_prefix};
use a4a_stg::{SignalKind, Stg};

/// Pipelines are consistent, deadlock-free and persistent for any
/// output assignment.
#[test]
fn pipelines_verify_clean() {
    prop::check("pipelines_verify_clean", |g: &mut Gen| -> PropResult {
        let n = g.usize(1..8);
        let mask = g.any_u64();
        let stg = pipeline_stg(n, mask);
        let sg = stg.state_graph(1_000_000).unwrap();
        prop_assert_eq!(sg.state_count(), 2 * n);
        let report = stg.verify(&sg);
        prop_assert!(report.deadlocks.is_empty());
        prop_assert!(report.persistence.is_empty());
        Ok(())
    });
}

/// `.g` round trips preserve the state graph exactly.
#[test]
fn g_round_trip_preserves_behaviour() {
    prop::check(
        "g_round_trip_preserves_behaviour",
        |g: &mut Gen| -> PropResult {
            let n = g.usize(1..8);
            let mask = g.any_u64();
            let stg = pipeline_stg(n, mask);
            let text = stg.to_g();
            let back = Stg::parse_g(&text).unwrap();
            let sg1 = stg.state_graph(1_000_000).unwrap();
            let sg2 = back.state_graph(1_000_000).unwrap();
            prop_assert_eq!(sg1.state_count(), sg2.state_count());
            prop_assert_eq!(sg1.edge_count(), sg2.edge_count());
            prop_assert_eq!(back.signal_count(), stg.signal_count());
            // Initial values inferred from the text agree with the original.
            for (a, b) in stg.signals().iter().zip(back.signals()) {
                prop_assert_eq!(a.initial, b.initial, "signal {}", &a.name);
            }
            Ok(())
        },
    );
}

/// A second round trip is a fixed point (normal form).
#[test]
fn g_format_reaches_fixed_point() {
    prop::check(
        "g_format_reaches_fixed_point",
        |g: &mut Gen| -> PropResult {
            let n = g.usize(1..6);
            let mask = g.any_u64();
            let stg = pipeline_stg(n, mask);
            let once = Stg::parse_g(&stg.to_g()).unwrap();
            let twice = Stg::parse_g(&once.to_g()).unwrap();
            prop_assert_eq!(once.to_g(), twice.to_g());
            Ok(())
        },
    );
}

/// Composing two disjoint pipelines multiplies their state spaces.
#[test]
fn disjoint_composition_multiplies() {
    prop::check(
        "disjoint_composition_multiplies",
        |g: &mut Gen| -> PropResult {
            let na = g.usize(1..5);
            let nb = g.usize(1..5);
            let a = pipeline_stg(na, u64::MAX);
            let b = pipeline_stg_with_prefix(nb, u64::MAX, "t");
            let c = a.compose(&b).unwrap();
            let sg = c.state_graph(1_000_000).unwrap();
            prop_assert_eq!(sg.state_count(), (2 * na) * (2 * nb));
            Ok(())
        },
    );
}

/// Hiding any output keeps the state graph size and the checks
/// clean.
#[test]
fn hide_preserves_behaviour() {
    prop::check("hide_preserves_behaviour", |g: &mut Gen| -> PropResult {
        let n = g.usize(2..7);
        let stg = pipeline_stg(n, u64::MAX);
        let out = stg
            .signal_ids()
            .find(|&s| stg.signal(s).kind == SignalKind::Output);
        prop_assume!(out.is_some());
        let hidden = stg.hide(out.unwrap());
        let sg = hidden.state_graph(1_000_000).unwrap();
        prop_assert_eq!(sg.state_count(), 2 * n);
        prop_assert!(hidden.verify(&sg).persistence.is_empty());
        Ok(())
    });
}

/// The parser is total: arbitrary input either parses or returns an
/// error — it never panics.
#[test]
fn parser_never_panics() {
    prop::check("parser_never_panics", |g: &mut Gen| -> PropResult {
        let text = g.printable_string(0..301);
        let _ = Stg::parse_g(&text);
        Ok(())
    });
}

/// Structured fuzz: valid-looking directives with junk bodies also
/// never panic.
#[test]
fn parser_never_panics_structured() {
    prop::check(
        "parser_never_panics_structured",
        |g: &mut Gen| -> PropResult {
            let tokens = g.vec(0..40, |g| g.string_of("abc+/<>,{}.-", 1..7));
            let mut text = String::from(".model f\n.inputs a b\n.outputs c\n.graph\n");
            for chunk in tokens.chunks(3) {
                text.push_str(&chunk.join(" "));
                text.push('\n');
            }
            text.push_str(".marking { }\n.end\n");
            let _ = Stg::parse_g(&text);
            Ok(())
        },
    );
}

/// DOT output mentions every transition exactly once as a node
/// label.
#[test]
fn dot_mentions_all_transitions() {
    prop::check(
        "dot_mentions_all_transitions",
        |g: &mut Gen| -> PropResult {
            let n = g.usize(1..6);
            let mask = g.any_u64();
            let stg = pipeline_stg(n, mask);
            let dot = stg.to_dot();
            for t in stg.net().transition_ids() {
                let name = stg.transition_name(t);
                prop_assert!(dot.contains(&name), "missing {}", name);
            }
            Ok(())
        },
    );
}
