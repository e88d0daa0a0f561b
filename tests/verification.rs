//! §IV's verification claims, checked end to end across crates:
//!
//! "We verified that all STGs are consistent, deadlock-free, and
//! output-persistent. We also verified specific buck converter
//! properties, such as the absence of a short circuit in PMOS/NMOS
//! transistors [...]. All the gate-level implementations were also
//! verified to be deadlock-free, hazard-free and conformant to their
//! STG specifications."

use std::collections::VecDeque;

use a4a::A4aFlow;
use a4a_stg::{
    CscConflict, SgStateId, SignalId, SignalKind, StateGraph, Stg, StgBuilder, TransitionId,
    VerifyReport, MAX_CODING_CONFLICTS,
};
use a4a_synth::{synthesize, verify_si, SynthOptions, SynthStyle};

fn all_specs() -> Vec<(&'static str, Stg)> {
    let mut specs = a4a_ctrl::stgs::all_module_stgs();
    specs.extend(a4a_a2a::spec::all_specs());
    specs
}

#[test]
fn every_module_stg_is_consistent_deadlock_free_and_persistent() {
    for (name, stg) in all_specs() {
        // Consistency: state_graph() fails on inconsistent specs.
        let sg = stg
            .state_graph(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = stg.verify(&sg);
        assert!(report.deadlocks.is_empty(), "{name} deadlocks");
        assert!(
            report.persistence.is_empty(),
            "{name} persistence: {:?}",
            report.persistence.first()
        );
        assert!(
            report.csc_conflicts().is_empty(),
            "{name} CSC conflicts block synthesis"
        );
    }
}

#[test]
fn every_module_synthesises_and_conforms_in_both_styles() {
    for (name, stg) in all_specs() {
        for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
            let synth = synthesize(&stg, &SynthOptions::new(style))
                .unwrap_or_else(|e| panic!("{name} {style:?}: {e}"));
            let report = verify_si(&stg, synth.netlist(), 1_000_000)
                .unwrap_or_else(|e| panic!("{name} {style:?}: {e}"));
            assert!(
                report.is_clean(),
                "{name} {style:?} violations: {:?}",
                report.violations.first()
            );
        }
    }
}

#[test]
fn basic_buck_short_circuit_property() {
    let stg = a4a_ctrl::stgs::basic_buck_stg();
    let sg = stg.state_graph(1_000_000).expect("consistent");
    let gp = stg.signal_by_name("gp").expect("gp");
    let gn = stg.signal_by_name("gn").expect("gn");
    let violations = stg.check_mutual_exclusion(&sg, gp, gn);
    assert!(
        violations.is_empty(),
        "PMOS and NMOS on together in {} states",
        violations.len()
    );
}

#[test]
fn flow_produces_verilog_and_g_for_every_module() {
    for (name, stg) in all_specs() {
        let result = A4aFlow::new(stg)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(result.verilog.contains("module"), "{name} verilog");
        assert!(result.g_format.contains(".marking"), "{name} .g");
        // Round trip the emitted .g and re-run the flow on it.
        let back = Stg::parse_g(&result.g_format).unwrap_or_else(|e| panic!("{name} reparse: {e}"));
        let again = A4aFlow::new(back)
            .run()
            .unwrap_or_else(|e| panic!("{name} reflow: {e}"));
        assert!(again.si.is_clean(), "{name} reflow violations");
    }
}

#[test]
fn timer_sharing_possibility() {
    // The paper: "the possibility of sharing some of the timers". The
    // three delay controllers have identical protocols, so one timer
    // implementation serves all: their state graphs are isomorphic in
    // size and their synthesised functions are identical.
    let pmos = a4a_ctrl::stgs::delay_ctrl_stg("pmos_delay_ctrl");
    let nmos = a4a_ctrl::stgs::delay_ctrl_stg("nmos_delay_ctrl");
    let ext = a4a_ctrl::stgs::ext_delay_ctrl_stg();
    let opts = SynthOptions::new(SynthStyle::ComplexGate);
    let eq = |stg: &Stg| {
        let synth = synthesize(stg, &opts).expect("synthesis");
        synth.equations(stg)
    };
    assert_eq!(eq(&pmos), eq(&nmos));
    assert_eq!(eq(&pmos), eq(&ext));
}

/// An output racing an input and another output for one token, after a
/// `go+` prefix, beside a one-shot input `u+`: four persistence
/// violations from each of two states, and three deadlocks.
const FAN_G: &str = "\
.model fan
.inputs go a u
.outputs o x
.graph
s go+
go+ p
p a+ o+ x+
r u+
.marking { s r }
.end
";

/// The `a+ a- b+ b- c+ c-` cycle with a dummy `d` racing output `b+`:
/// the dummy's firing disables `b+`, and code 000 is shared by three
/// states (two CSC conflicts, one USC conflict).
const DUMMY_CSC_G: &str = "\
.model dummy_csc
.inputs a c
.outputs b
.dummy d
.graph
c- a+
a+ a-
a- q
q b+ d
b+ b-
b- q2
d q2
q2 c+
c+ c-
.marking { <c-,a+> }
.end
";

/// Renders every field of a report, in report order, with names instead
/// of ids so the golden text reads on its own.
fn render_report(stg: &Stg, report: &VerifyReport) -> String {
    let mut out = String::new();
    let deadlocks: Vec<String> = report.deadlocks.iter().map(|s| s.to_string()).collect();
    out.push_str(&format!("deadlocks [{}]\n", deadlocks.join(" ")));
    for v in &report.persistence {
        out.push_str(&format!(
            "persistence {} {}{} by {} trace [{}]\n",
            v.state,
            stg.signal(v.disabled.signal).name,
            v.disabled.polarity,
            v.by,
            v.trace.join(" ")
        ));
    }
    for c in &report.coding {
        let signals: Vec<&str> = c
            .signals
            .iter()
            .map(|&s| stg.signal(s).name.as_str())
            .collect();
        out.push_str(&format!(
            "coding {} {} code {:#b} [{}]\n",
            c.first,
            c.second,
            c.code,
            signals.join(" ")
        ));
    }
    out
}

/// The violating specs of the golden report: two `.g` texts, and the
/// dummy/CSC spec composed with a two-signal pipeline so that the
/// violations and the three-state code groups recur across the
/// pipeline's states with longer traces.
fn violating_specs() -> Vec<Stg> {
    let fan = Stg::parse_g(FAN_G).expect("fan parses");
    let dummy_csc = Stg::parse_g(DUMMY_CSC_G).expect("dummy_csc parses");
    let pipe = a4a_stg::prop_support::pipeline_stg_with_prefix(2, 0b10, "q");
    let composed = dummy_csc.compose(&pipe).expect("disjoint signals compose");
    vec![fan, dummy_csc, composed]
}

#[test]
fn violating_reports_are_pinned() {
    let got: String = violating_specs()
        .iter()
        .map(|stg| {
            let sg = stg.state_graph(1_000).expect("consistent");
            let report = render_report(stg, &stg.verify(&sg));
            format!("== {}\n{report}", stg.name())
        })
        .collect();
    assert_eq!(got, VIOLATING_REPORTS_GOLDEN);
}

/// The state-coding part of a report rebuilt by visiting every pair of
/// states with one code: the first [`MAX_CODING_CONFLICTS`] pairs of
/// each kind in report order, then the USC and CSC counts.
fn coding_by_pairs(stg: &Stg, sg: &StateGraph) -> (Vec<CscConflict>, usize, usize) {
    let non_inputs: Vec<SignalId> = stg
        .signal_ids()
        .filter(|&s| stg.signal(s).kind != SignalKind::Input)
        .collect();
    let excited =
        |s: SgStateId, sig: SignalId| sg.enabled_edges(stg, s).iter().any(|e| e.signal == sig);
    let mut states: Vec<SgStateId> = sg.state_ids().collect();
    states.sort_by_key(|&s| (sg.code(s), s));
    let (mut listed, mut usc, mut csc) = (Vec::new(), 0, 0);
    for (i, &x) in states.iter().enumerate() {
        for &y in states[i + 1..]
            .iter()
            .take_while(|&&y| sg.code(y) == sg.code(x))
        {
            let signals: Vec<SignalId> = non_inputs
                .iter()
                .copied()
                .filter(|&sig| excited(x, sig) != excited(y, sig))
                .collect();
            let kind_count = if signals.is_empty() {
                &mut usc
            } else {
                &mut csc
            };
            *kind_count += 1;
            if *kind_count <= MAX_CODING_CONFLICTS {
                listed.push(CscConflict {
                    first: x,
                    second: y,
                    code: sg.code(x),
                    signals,
                });
            }
        }
    }
    (listed, usc, csc)
}

/// One cycle of edges whose codes are all distinct but for one pair and
/// one triple: `a+ a- b+ c+ c- d+ d- b-` visits code 0 twice and code
/// `b` three times. The signals whose bit is set in `outputs` are
/// outputs, so the sixteen variants split the four conflicting pairs
/// into USC and CSC in every way the cycle allows.
fn pair_and_triple_stg(outputs: u32) -> Stg {
    let mut b = StgBuilder::new(format!("pair_and_triple{outputs:04b}"));
    let signals: Vec<SignalId> = ["a", "b", "c", "d"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            if outputs & (1 << i) != 0 {
                b.output(*name, false)
            } else {
                b.input(*name, false)
            }
        })
        .collect();
    let [sa, sb, sc, sd] = [0, 1, 2, 3].map(|i| signals[i]);
    let cycle = [
        b.rise(sa),
        b.fall(sa),
        b.rise(sb),
        b.rise(sc),
        b.fall(sc),
        b.rise(sd),
        b.fall(sd),
        b.fall(sb),
    ];
    for w in cycle.windows(2) {
        b.connect(w[0], w[1]);
    }
    b.connect_marked(cycle[7], cycle[0]);
    b.build()
}

/// The counted coding check lists and counts the same conflicts as a
/// visit of every pair: on the violating specs, on every shipped spec,
/// on the sixteen pair-and-triple cycles, where every other code is held
/// by one state only, and on the dummy/CSC spec run beside a ring of
/// seven dummies, whose code groups of 21 states hold more pairs of each
/// kind than a report lists.
#[test]
fn coding_counts_match_every_pair() {
    let mut specs = violating_specs();
    specs.extend(all_specs().into_iter().map(|(_, stg)| stg));
    specs.extend((0..16).map(pair_and_triple_stg));
    let dummy_csc = Stg::parse_g(DUMMY_CSC_G).expect("dummy_csc parses");
    let ringed = dummy_csc
        .compose(&a4a_stg::prop_support::dummy_rings_stg(1, 7))
        .expect("a signal-free ring composes");
    specs.push(ringed);
    for stg in &specs {
        let sg = stg.state_graph(10_000).expect("consistent");
        let report = stg.verify(&sg);
        let (listed, usc, csc) = coding_by_pairs(stg, &sg);
        assert_eq!(
            (report.usc_count, report.csc_count),
            (usc, csc),
            "{}",
            stg.name()
        );
        assert_eq!(report.coding, listed, "{}", stg.name());
        if stg.name().starts_with("pair_and_triple") {
            let mut codes: Vec<u64> = sg.state_ids().map(|s| sg.code(s)).collect();
            codes.sort_unstable();
            codes.dedup();
            assert_eq!((sg.state_count(), codes.len()), (8, 5), "{}", stg.name());
            assert_eq!(usc + csc, 1 + 3, "{}: one pair, one triple", stg.name());
        }
    }
    let last = specs.last().expect("the ringed spec");
    let report = last.verify(&last.state_graph(10_000).expect("consistent"));
    assert!(
        report.usc_count > MAX_CODING_CONFLICTS && report.csc_count > MAX_CODING_CONFLICTS,
        "{}",
        report.summary()
    );
    assert_eq!(report.coding.len(), 2 * MAX_CODING_CONFLICTS);
}

/// Every state's breadth-first depth, from a search of its own over the
/// successor lists.
fn bfs_depths(sg: &StateGraph) -> Vec<usize> {
    let mut depth = vec![usize::MAX; sg.state_count()];
    depth[SgStateId::INITIAL.index()] = 0;
    let mut queue = VecDeque::from([SgStateId::INITIAL]);
    while let Some(s) = queue.pop_front() {
        for &(_, succ) in sg.successors(s) {
            if depth[succ.index()] == usize::MAX {
                depth[succ.index()] = depth[s.index()] + 1;
                queue.push_back(succ);
            }
        }
    }
    depth
}

/// The state [`StateGraph::replay`] reaches along `trace`.
fn replay_names(stg: &Stg, sg: &StateGraph, trace: &[String]) -> SgStateId {
    let names: Vec<&str> = trace.iter().map(String::as_str).collect();
    sg.replay(stg, &names)
        .unwrap_or_else(|(i, e)| panic!("{}: step {i}: {e}", stg.name()))
}

/// The names of the transitions of `trace`.
fn names(stg: &Stg, trace: &[TransitionId]) -> Vec<String> {
    trace.iter().map(|&t| stg.transition_name(t)).collect()
}

/// Traces derived from the edges lead where they claim, by a shortest
/// path: on every state of the 18 shipped specs, the token ring and a
/// three-pipeline composition, `trace_to(s)` replays to `s` and is as
/// long as `s`'s breadth-first depth, and the breadth-first tree gives
/// the same trace. The net's own reachability graph passes the same
/// check by firing its traces.
#[test]
fn traces_replay_to_their_state_at_bfs_depth() {
    use a4a_stg::prop_support::pipeline_stg_with_prefix;

    let mut specs = all_specs();
    specs.push(("token_ring", a4a_ctrl::stgs::token_ring_stg()));
    let composed = [3, 4, 5]
        .iter()
        .zip(["a", "b", "c"])
        .map(|(&n, prefix)| pipeline_stg_with_prefix(n, 0b10, prefix))
        .reduce(|acc, p| acc.compose(&p).expect("disjoint pipelines compose"))
        .expect("three pipelines");
    specs.push(("compose[3, 4, 5]", composed));
    for (name, stg) in &specs {
        let sg = stg
            .state_graph(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let tree = sg.bfs_tree();
        assert_eq!(tree.state_count(), sg.state_count(), "{name}");
        let depths = bfs_depths(&sg);
        for s in sg.state_ids() {
            let trace = sg.trace_to(s);
            assert_eq!(tree.trace_to(s.index()), trace, "{name}: {s}");
            assert_eq!(trace.len(), depths[s.index()], "{name}: depth of {s}");
            assert_eq!(replay_names(stg, &sg, &names(stg, &trace)), s, "{name}");
        }

        let net = stg.net();
        let reach = net
            .explore(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let tree = reach.bfs_tree();
        for s in reach.state_ids() {
            let trace = reach.trace_to(s);
            assert_eq!(tree.trace_to(s.index()), trace, "{name}: {s}");
            let end = trace
                .iter()
                .fold(net.initial_marking(), |m, &t| net.try_fire(t, &m).unwrap());
            assert_eq!(end, reach.marking(s), "{name}: trace to {s}");
        }
    }
}

/// A report with thousands of persistence violations derives its traces
/// from one breadth-first tree, and every trace replays to its state:
/// `fan` beside three rings of ten dummies repeats fan's eight
/// violations in each of the rings' 1 000 states.
#[test]
fn thousands_of_persistence_traces_replay() {
    let fan = Stg::parse_g(FAN_G).expect("fan parses");
    let stg = fan
        .compose(&a4a_stg::prop_support::dummy_rings_stg(3, 10))
        .expect("signal-free rings compose");
    let sg = stg.state_graph(100_000).expect("consistent");
    let report = stg.verify(&sg);
    assert_eq!(report.persistence.len(), 8 * 1_000, "{}", report.summary());
    for v in &report.persistence {
        assert_eq!(replay_names(&stg, &sg, &v.trace), v.state, "{}", stg.name());
    }
}

/// The pinned reports, captured from the per-edge reference checks: any
/// change to violation order, traces or conflict pairs shows here.
const VIOLATING_REPORTS_GOLDEN: &str = "\
== fan
deadlocks [q7 q8 q9]
persistence q1 o+ by a+ trace [go+]
persistence q1 x+ by a+ trace [go+]
persistence q1 x+ by o+ trace [go+]
persistence q1 o+ by x+ trace [go+]
persistence q6 o+ by a+ trace [go+ u+]
persistence q6 x+ by a+ trace [go+ u+]
persistence q6 x+ by o+ trace [go+ u+]
persistence q6 o+ by x+ trace [go+ u+]
== dummy_csc
deadlocks []
persistence q2 b+ by d trace [a+ a-]
coding q0 q2 code 0b0 [b]
coding q0 q4 code 0b0 []
coding q2 q4 code 0b0 [b]
== dummy_csc||pipeline2
deadlocks []
persistence q3 b+ by d trace [a+ a-]
persistence q8 b+ by d trace [a+ a- q0+]
persistence q14 b+ by d trace [a+ a- q0+ q1+]
persistence q19 b+ by d trace [a+ a- q0+ q1+ q0-]
coding q0 q3 code 0b0 [b]
coding q0 q7 code 0b0 []
coding q3 q7 code 0b0 [b]
coding q2 q8 code 0b1000 [b]
coding q2 q13 code 0b1000 []
coding q8 q13 code 0b1000 [b]
coding q10 q19 code 0b10000 [b]
coding q10 q22 code 0b10000 []
coding q19 q22 code 0b10000 [b]
coding q5 q14 code 0b11000 [b]
coding q5 q18 code 0b11000 []
coding q14 q18 code 0b11000 [b]
";

/// Every shipped spec, its `.g` round trip, and wide pipeline
/// compositions explore on the safe-net kernel. The reference engine is
/// about twice as slow, so a spec silently falling back to it would show
/// only as a slowdown; this test makes it a failure instead.
#[test]
fn shipped_specs_and_compositions_explore_on_the_kernel() {
    use a4a_petri::Engine;
    use a4a_stg::prop_support::pipeline_stg_with_prefix;

    let mut specs: Vec<(String, Stg)> = all_specs()
        .into_iter()
        .map(|(name, stg)| (name.to_string(), stg))
        .collect();
    for shape in [&[5, 5, 5, 5][..], &[11, 11, 11], &[3, 4, 6, 10]] {
        let stg = shape
            .iter()
            .zip(["a", "b", "c", "d"])
            .map(|(&n, prefix)| pipeline_stg_with_prefix(n, 0b10, prefix))
            .reduce(|acc, p| acc.compose(&p).expect("disjoint pipelines compose"))
            .expect("non-empty shape");
        specs.push((format!("compose{shape:?}"), stg));
    }
    let mut graphs = Vec::new();
    for (name, stg) in specs {
        let parsed = Stg::parse_g(&stg.to_g()).unwrap_or_else(|e| panic!("{name}: {e}"));
        graphs.push((format!("{name} (built)"), stg));
        graphs.push((format!("{name} (parsed)"), parsed));
    }
    // The ring joins one transition pair by two places, which `.g`
    // cannot write, so it is checked as built only.
    graphs.push(("token_ring".into(), a4a_ctrl::stgs::token_ring_stg()));
    for (name, stg) in &graphs {
        let sg = stg
            .state_graph(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sg.engine(), Engine::Kernel, "{name}: state graph");
        let reach = stg
            .net()
            .explore(1_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reach.engine(), Engine::Kernel, "{name}: reachability");
    }
}
