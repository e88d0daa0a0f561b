//! Differential suite: the packed (bit-per-place) marking
//! representation must be indistinguishable from the dense `Vec<u32>`
//! reference engine (`Stg::state_graph_ref` / a dense initial marking
//! for `PetriNet::explore_from`) — same state counts, same codes, same
//! state numbering, same edge order, same verification verdicts, and
//! the same typed errors at the same firing.
//!
//! The corpus is every STG this repo ships (the controller modules, the
//! composed token ring, the A2A element zoo) plus randomly generated and
//! composed handshake pipelines from `a4a_rt::prop`. Test names keep
//! their historical `par_vs_seq` suffix: read it as packed fast path vs
//! dense reference.

use a4a_petri::{Marking, NetBuilder, PetriNet};
use a4a_stg::{prop_support, StateGraph, Stg};

/// Asserts two state graphs are identical in every observable: count,
/// numbering (marking per id), codes, successor lists, and traces.
fn assert_sg_identical(label: &str, reference: &StateGraph, packed: &StateGraph) {
    assert_eq!(
        reference.state_count(),
        packed.state_count(),
        "{label}: state count differs"
    );
    assert_eq!(
        reference.edge_count(),
        packed.edge_count(),
        "{label}: edge count"
    );
    for s in reference.state_ids() {
        assert_eq!(
            reference.marking(s),
            packed.marking(s),
            "{label}: marking of {s}"
        );
        assert_eq!(reference.code(s), packed.code(s), "{label}: code of {s}");
        assert_eq!(
            reference.successors(s),
            packed.successors(s),
            "{label}: successors of {s}"
        );
        assert_eq!(
            reference.trace_to(s),
            packed.trace_to(s),
            "{label}: trace to {s}"
        );
    }
}

/// Builds the state graph on both engines and checks graphs plus
/// verification verdicts match.
fn check_stg(label: &str, stg: &Stg, max_states: usize) {
    let packed = stg
        .state_graph(max_states)
        .unwrap_or_else(|e| panic!("{label}: packed build failed: {e}"));
    let reference = stg
        .state_graph_ref(max_states)
        .unwrap_or_else(|e| panic!("{label}: reference build failed: {e}"));
    assert_sg_identical(label, &reference, &packed);
    let packed_report = stg.verify(&packed);
    let reference_report = stg.verify(&reference);
    assert_eq!(
        reference_report.deadlocks, packed_report.deadlocks,
        "{label}: deadlock verdicts"
    );
    assert_eq!(
        reference_report.persistence, packed_report.persistence,
        "{label}: persistence verdicts"
    );
    assert_eq!(
        reference_report.coding, packed_report.coding,
        "{label}: coding verdicts"
    );
    assert_eq!(
        reference_report.is_clean(),
        packed_report.is_clean(),
        "{label}: clean verdict"
    );
}

/// Asserts two reachability graphs are identical in every observable.
fn assert_reach_identical(
    label: &str,
    reference: &a4a_petri::ReachabilityGraph,
    packed: &a4a_petri::ReachabilityGraph,
) {
    assert_eq!(reference.state_count(), packed.state_count(), "{label}");
    assert_eq!(reference.edge_count(), packed.edge_count(), "{label}");
    for s in reference.state_ids() {
        assert_eq!(reference.marking(s), packed.marking(s), "{label}: {s}");
        assert_eq!(
            reference.successors(s),
            packed.successors(s),
            "{label}: {s}"
        );
    }
    assert_eq!(reference.deadlocks(), packed.deadlocks(), "{label}");
    assert_eq!(reference.is_safe(), packed.is_safe(), "{label}");
    assert_eq!(reference.bound(), packed.bound(), "{label}");
}

/// Same comparison for raw Petri-net reachability: the dense initial
/// marking drives the reference engine, `explore` the packed one.
fn check_net(label: &str, net: &PetriNet, max_states: usize) {
    let reference = net
        .explore_from(net.initial_marking(), max_states)
        .unwrap_or_else(|e| panic!("{label}: reference explore failed: {e}"));
    let packed = net
        .explore(max_states)
        .unwrap_or_else(|e| panic!("{label}: packed explore failed: {e}"));
    assert_reach_identical(label, &reference, &packed);
}

#[test]
fn controller_modules_par_vs_seq() {
    for (name, stg) in a4a_ctrl::stgs::all_module_stgs() {
        check_stg(name, &stg, 500_000);
        check_net(name, stg.net(), 500_000);
    }
}

#[test]
fn a2a_zoo_par_vs_seq() {
    for (name, stg) in a4a_a2a::spec::all_specs() {
        check_stg(name, &stg, 500_000);
    }
}

#[test]
fn token_ring_par_vs_seq() {
    // The composed ring is the widest shipped state space.
    let ring = a4a_ctrl::stgs::token_ring_stg();
    check_stg("token_ring", &ring, 500_000);
}

#[test]
fn random_pipelines_par_vs_seq() {
    a4a_rt::prop::check_with(
        &a4a_rt::Config::with_cases(24),
        "random_pipelines_par_vs_seq",
        |g| {
            let n = g.usize(1..9);
            let mask = g.u64(0..1 << n);
            let stg = prop_support::pipeline_stg(n, mask);
            check_stg(&format!("pipeline n={n} mask={mask:#b}"), &stg, 100_000);
            Ok(())
        },
    );
}

#[test]
fn composed_pipelines_par_vs_seq() {
    // Two independent pipelines composed share no signals, so the
    // product state space is wide (2n * 2m states) and interleaves many
    // markings per code.
    a4a_rt::prop::check_with(
        &a4a_rt::Config::with_cases(8),
        "composed_pipelines_par_vs_seq",
        |g| {
            let n = g.usize(2..6);
            let m = g.usize(2..6);
            let a = prop_support::pipeline_stg_with_prefix(n, g.any_u64(), "a");
            let b = prop_support::pipeline_stg_with_prefix(m, g.any_u64(), "b");
            let ab = a
                .compose(&b)
                .map_err(|e| a4a_rt::PropError::Fail(format!("compose failed: {e}")))?;
            check_stg(&format!("composed n={n} m={m}"), &ab, 200_000);
            Ok(())
        },
    );
}

#[test]
fn state_limit_trips_identically() {
    // The limit error must fire on both engines.
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let packed = ring.state_graph(10).unwrap_err();
    assert_eq!(packed, a4a_stg::StgError::StateLimit { limit: 10 });
    assert_eq!(ring.state_graph_ref(10).unwrap_err(), packed);
}

#[test]
fn inconsistency_error_is_identical() {
    // A wide STG with an inconsistent signal buried in it: the reported
    // transition and trace must not depend on the marking representation.
    let mut b = a4a_stg::StgBuilder::new("bad_wide");
    // Eight independent toggles make the second BFS level 8 states wide.
    for i in 0..8 {
        let s = b.input(format!("x{i}"), false);
        let up = b.rise(s);
        let down = b.fall(s);
        b.connect_marked(down, up);
        b.connect(up, down);
    }
    // An inconsistent pair: two rises of the same signal in a cycle.
    let bad = b.input("bad", false);
    let r1 = b.rise(bad);
    let r2 = b.rise(bad);
    b.connect_marked(r2, r1);
    b.connect(r1, r2);
    let stg = b.build();
    let packed = stg.state_graph(100_000).unwrap_err();
    assert!(
        matches!(packed, a4a_stg::StgError::Inconsistent { .. }),
        "{packed}"
    );
    assert_eq!(stg.state_graph_ref(100_000).unwrap_err(), packed);
}

#[test]
fn unbounded_net_limit_identical() {
    let mut b = NetBuilder::new();
    let p = b.place_with_tokens("p", 1);
    let t = b.transition("t");
    b.arc_read(p, t);
    b.arc_tp(t, p);
    let net = b.build();
    let packed = net.explore(16).unwrap_err();
    assert_eq!(packed, a4a_petri::ExploreError::StateLimit { limit: 16 });
    assert_eq!(
        net.explore_from(net.initial_marking(), 16).unwrap_err(),
        packed
    );
}

#[test]
fn explore_from_arbitrary_marking_par_vs_seq() {
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let net = ring.net();
    // Walk a few steps from the initial marking, then explore from
    // there in both representations.
    let mut m = net.initial_marking();
    for _ in 0..3 {
        let Some(t) = net.transition_ids().find(|&t| net.is_enabled(t, &m)) else {
            break;
        };
        m = net.fire(t, &m);
    }
    let reference = net.explore_from(m.clone(), 500_000).unwrap();
    let packed = net.explore_from(m.pack_if_safe(), 500_000).unwrap();
    assert_reach_identical("ring from step 3", &reference, &packed);
}

#[test]
fn token_overflow_is_typed_and_identical() {
    // A place already at u32::MAX gains one more token on the first
    // firing: a typed TokenOverflow (not a panic), with the same payload
    // for both marking representations.
    let mut b = NetBuilder::new();
    let src = b.place_with_tokens("src", 1);
    let sink = b.place_with_tokens("sink", u32::MAX);
    let t = b.transition("t");
    b.arc_pt(src, t);
    b.arc_tp(t, sink);
    let net = b.build();
    let reference = net.explore_from(net.initial_marking(), 100).unwrap_err();
    assert_eq!(
        reference,
        a4a_petri::ExploreError::TokenOverflow {
            place: "sink".into(),
            transition: "t".into(),
        }
    );
    // pack_if_safe leaves the unsafe marking dense, so `explore` also
    // covers handing a packed-or-not marking in.
    assert_eq!(net.explore(100).unwrap_err(), reference);
}

#[test]
fn oversized_state_limit_is_typed() {
    // Limits beyond the 32-bit id space are rejected up front instead of
    // silently truncating state ids.
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let too_big = u32::MAX as usize + 1;
    assert_eq!(
        ring.state_graph(too_big).unwrap_err(),
        a4a_stg::StgError::LimitOverflow { limit: too_big }
    );
    assert_eq!(
        ring.net().explore(too_big).unwrap_err(),
        a4a_petri::ExploreError::LimitOverflow { limit: too_big }
    );
    // The largest representable limit is still accepted.
    assert_eq!(
        ring.state_graph_ref(too_big).unwrap_err(),
        a4a_stg::StgError::LimitOverflow { limit: too_big }
    );
    assert_eq!(
        ring.net()
            .explore_from(ring.net().initial_marking(), too_big)
            .unwrap_err(),
        a4a_petri::ExploreError::LimitOverflow { limit: too_big }
    );
    // The largest representable limit is still accepted.
    assert!(ring.state_graph(u32::MAX as usize).is_ok());
}

/// Keeps `Marking` in the public-surface contract this suite relies on.
#[test]
fn marking_equality_is_structural() {
    let a = Marking::new(vec![1, 0, 2]);
    let b = Marking::new(vec![1, 0, 2]);
    assert_eq!(a, b);
}

#[test]
fn marking_equality_and_hash_cross_representation() {
    let dense = Marking::new(vec![1, 0, 1, 0, 1]);
    let packed = dense.clone().pack_if_safe();
    assert!(packed.is_packed());
    assert_eq!(dense, packed);
    assert_eq!(dense.fx_hash(), packed.fx_hash());
}
