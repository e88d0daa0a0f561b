//! Differential suite: the safe-net exploration kernel (one bit per
//! place, firing by word masks) must be indistinguishable from the
//! token-counting reference engine (`Stg::state_graph_ref` /
//! `PetriNet::explore_from`) — same state counts, same codes, same
//! state numbering, same edge order, same verification verdicts, and
//! the same typed errors at the same firing.
//!
//! The corpus is every STG this repo ships (the controller modules, the
//! composed token ring, the A2A element zoo), randomly generated and
//! composed handshake pipelines from `a4a_rt::prop`, and random safe
//! nets and STGs of 1 to 129 places and 1 to 129 transitions, so every
//! word boundary of the kernel's rows and of its transition bitmask is
//! crossed. Test names keep their historical `par_vs_seq` suffix: read
//! it as kernel vs reference.

use std::cell::Cell;

use a4a_petri::{
    ArcKind, Engine, ExploreError, Marking, NetBuilder, PetriNet, ReachabilityGraph, TransitionId,
};
use a4a_rt::prop::{Gen, PropError, PropResult};
use a4a_stg::{prop_support, StateGraph, Stg, StgBuilder, StgError};

/// Asserts two state graphs are identical in every observable: count,
/// numbering (marking per id), codes, successor lists, and traces (one
/// breadth-first tree per graph, so the check stays linear in the
/// edges).
fn assert_sg_identical(label: &str, reference: &StateGraph, kernel: &StateGraph) {
    assert_eq!(
        reference.state_count(),
        kernel.state_count(),
        "{label}: state count differs"
    );
    assert_eq!(
        reference.edge_count(),
        kernel.edge_count(),
        "{label}: edge count"
    );
    let (reference_tree, kernel_tree) = (reference.bfs_tree(), kernel.bfs_tree());
    for s in reference.state_ids() {
        assert_eq!(
            reference.marking(s),
            kernel.marking(s),
            "{label}: marking of {s}"
        );
        assert_eq!(reference.code(s), kernel.code(s), "{label}: code of {s}");
        assert_eq!(
            reference.successors(s),
            kernel.successors(s),
            "{label}: successors of {s}"
        );
        assert_eq!(
            reference_tree.trace_to(s.index()),
            kernel_tree.trace_to(s.index()),
            "{label}: trace to {s}"
        );
    }
}

/// Builds the state graph on both engines and checks graphs plus
/// verification verdicts match.
fn check_stg(label: &str, stg: &Stg, max_states: usize) {
    let kernel = stg
        .state_graph(max_states)
        .unwrap_or_else(|e| panic!("{label}: kernel build failed: {e}"));
    assert_eq!(kernel.engine(), Engine::Kernel, "{label}: engine");
    let reference = stg
        .state_graph_ref(max_states)
        .unwrap_or_else(|e| panic!("{label}: reference build failed: {e}"));
    assert_sg_identical(label, &reference, &kernel);
    let kernel_report = stg.verify(&kernel);
    let reference_report = stg.verify(&reference);
    assert_eq!(
        reference_report.deadlocks, kernel_report.deadlocks,
        "{label}: deadlock verdicts"
    );
    assert_eq!(
        reference_report.persistence, kernel_report.persistence,
        "{label}: persistence verdicts"
    );
    assert_eq!(
        reference_report.coding, kernel_report.coding,
        "{label}: coding verdicts"
    );
    assert_eq!(
        reference_report.is_clean(),
        kernel_report.is_clean(),
        "{label}: clean verdict"
    );
}

/// Asserts two reachability graphs are identical in every observable.
fn assert_reach_identical(label: &str, reference: &ReachabilityGraph, kernel: &ReachabilityGraph) {
    assert_eq!(reference.state_count(), kernel.state_count(), "{label}");
    assert_eq!(reference.edge_count(), kernel.edge_count(), "{label}");
    for s in reference.state_ids() {
        assert_eq!(reference.marking(s), kernel.marking(s), "{label}: {s}");
        assert_eq!(
            reference.successors(s),
            kernel.successors(s),
            "{label}: {s}"
        );
    }
    assert_eq!(reference.deadlocks(), kernel.deadlocks(), "{label}");
    assert_eq!(reference.is_safe(), kernel.is_safe(), "{label}");
    assert_eq!(reference.bound(), kernel.bound(), "{label}");
}

/// Same comparison for raw Petri-net reachability: `explore_from` runs
/// the reference engine, `explore` the kernel.
fn check_net(label: &str, net: &PetriNet, max_states: usize) {
    let reference = net
        .explore_from(net.initial_marking(), max_states)
        .unwrap_or_else(|e| panic!("{label}: reference explore failed: {e}"));
    let kernel = net
        .explore(max_states)
        .unwrap_or_else(|e| panic!("{label}: kernel explore failed: {e}"));
    assert_eq!(kernel.engine(), Engine::Kernel, "{label}: engine");
    assert_reach_identical(label, &reference, &kernel);
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
    let kernel = ring.state_graph(10).unwrap_err();
    assert_eq!(kernel, a4a_stg::StgError::StateLimit { limit: 10 });
    assert_eq!(ring.state_graph_ref(10).unwrap_err(), kernel);
}

#[test]
fn inconsistency_error_is_identical() {
    // A wide STG with an inconsistent signal buried in it: the reported
    // transition and trace must not depend on the engine.
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
    let kernel = stg.state_graph(100_000).unwrap_err();
    assert!(
        matches!(kernel, a4a_stg::StgError::Inconsistent { .. }),
        "{kernel}"
    );
    assert_eq!(stg.state_graph_ref(100_000).unwrap_err(), kernel);
}

#[test]
fn unbounded_net_limit_identical() {
    let mut b = NetBuilder::new();
    let p = b.place_with_tokens("p", 1).unwrap();
    let t = b.transition("t").unwrap();
    b.arc_read(p, t).unwrap();
    b.arc_tp(t, p).unwrap();
    let net = b.build();
    let kernel = net.explore(16).unwrap_err();
    assert_eq!(kernel, a4a_petri::ExploreError::StateLimit { limit: 16 });
    assert_eq!(
        net.explore_from(net.initial_marking(), 16).unwrap_err(),
        kernel
    );
}

#[test]
fn explore_from_arbitrary_marking_par_vs_seq() {
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let net = ring.net();
    // Walk a few steps from the initial marking, then explore from
    // there on both engines: the kernel through a copy of the net with
    // that initial marking.
    let mut m = net.initial_marking();
    for _ in 0..3 {
        let Some(t) = net.transition_ids().find(|&t| net.is_enabled(t, &m)) else {
            break;
        };
        m = net.try_fire(t, &m).unwrap();
    }
    let reference = net.explore_from(m.clone(), 500_000).unwrap();
    let kernel = with_initial_marking(net, &m).explore(500_000).unwrap();
    assert_eq!(kernel.engine(), Engine::Kernel);
    assert_reach_identical("ring from step 3", &reference, &kernel);
}

/// A copy of `net` whose initial marking is `marking`.
fn with_initial_marking(net: &PetriNet, marking: &Marking) -> PetriNet {
    let mut b = NetBuilder::new();
    for (place, tokens) in net.places().iter().zip(marking.iter()) {
        b.place_with_tokens(place.name.clone(), tokens).unwrap();
    }
    for tr in net.transitions() {
        let t = b.transition(tr.name.clone()).unwrap();
        for (kind, arcs) in [
            (ArcKind::Consume, tr.consumed()),
            (ArcKind::Read, tr.read()),
            (ArcKind::Produce, tr.produced()),
        ] {
            arcs.iter()
                .for_each(|&(p, w)| b.arc(kind, p, t, w).unwrap());
        }
    }
    b.build()
}

#[test]
fn token_overflow_is_typed_and_identical() {
    // A place already at u32::MAX gains one more token on the first
    // firing: a typed TokenOverflow (not a panic), with the same payload
    // from both entry points.
    let mut b = NetBuilder::new();
    let src = b.place_with_tokens("src", 1).unwrap();
    let sink = b.place_with_tokens("sink", u32::MAX).unwrap();
    let t = b.transition("t").unwrap();
    b.arc_pt(src, t).unwrap();
    b.arc_tp(t, sink).unwrap();
    let net = b.build();
    let reference = net.explore_from(net.initial_marking(), 100).unwrap_err();
    assert_eq!(
        reference,
        a4a_petri::ExploreError::TokenOverflow {
            place: "sink".into(),
            transition: "t".into(),
        }
    );
    // The initial marking is not safe, so `explore` picks the reference
    // engine too.
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

/// The markings a kernel graph decodes from its bit rows equal, and hash
/// like, the ones the reference graph decodes from its counter rows.
#[test]
fn marking_equality_and_hash_cross_representation() {
    let ring = a4a_ctrl::stgs::token_ring_stg();
    let kernel = ring.state_graph(500_000).unwrap();
    let reference = ring.state_graph_ref(500_000).unwrap();
    assert_eq!(kernel.engine(), Engine::Kernel);
    assert_eq!(reference.engine(), Engine::Reference);
    let mut seen = a4a_rt::FxHashSet::default();
    for s in kernel.state_ids() {
        let (k, r) = (kernel.marking(s), reference.marking(s));
        assert_eq!(k, r, "{s}");
        assert_eq!(k.fx_hash(), r.fx_hash(), "{s}");
        seen.insert(k);
        assert!(seen.contains(&r), "{s}");
    }
}

/// Place counts that put the last place on, just before and just after
/// every word boundary of a kernel row.
const WIDTHS: [usize; 6] = [1, 63, 64, 65, 128, 129];

/// Transition counts that put the last transition on, just before and
/// just after every word boundary of the kernel's transition bitmask.
const TRANSITION_COUNTS: [usize; 5] = [63, 64, 65, 128, 129];

/// A random place count and transition count: half the cases take a
/// transition count at a bitmask word boundary, the rest 1 to 11.
fn random_size(g: &mut Gen, widths: &[usize]) -> (usize, usize) {
    let places = *g.pick(widths);
    let transitions = if g.bool() {
        *g.pick(&TRANSITION_COUNTS)
    } else {
        g.usize(1..12)
    };
    (places, transitions)
}

/// The transitions a graph fires from each state, `(marking, fired)`
/// per state, are the ones a brute-force `is_enabled` scan finds
/// enabled in the marking, in id order.
fn assert_enabled_brute_force(
    label: &str,
    net: &PetriNet,
    states: impl Iterator<Item = (Marking, Vec<TransitionId>)>,
) {
    for (s, (m, fired)) in states.enumerate() {
        let want: Vec<TransitionId> = net
            .transition_ids()
            .filter(|&t| net.is_enabled(t, &m))
            .collect();
        assert_eq!(fired, want, "{label}: enabled in state {s}");
    }
}

/// A random net as arc lists over place indices, so one recipe builds
/// both a plain net and a labelled STG.
#[derive(Debug, Default)]
struct Recipe {
    tokens: Vec<u32>,
    /// (consume, read, produce) per transition.
    transitions: Vec<(Vec<usize>, Vec<usize>, Vec<usize>)>,
    /// Disjoint runs of places holding one circulating token each.
    components: Vec<Vec<usize>>,
}

/// A random safe net over exactly `places` places and `transitions`
/// transitions: up to four one-token state machines on randomly
/// scattered places, with moves inside one machine and synchronisations
/// of two; read arcs on any place a transition does not touch otherwise;
/// marked places nobody consumes; and arc-less transitions (empty
/// preset, enabled everywhere). A move takes its machine's token from a
/// place that the earlier moves can bring it to, so even a net of a few
/// transitions fires some of them.
fn random_safe_recipe(g: &mut Gen, places: usize, transitions: usize) -> Recipe {
    let mut order: Vec<usize> = (0..places).collect();
    g.shuffle(&mut order);
    let mut r = Recipe {
        tokens: vec![0; places],
        ..Recipe::default()
    };
    // Per machine, the places its token can reach by the moves so far.
    let mut reached: Vec<Vec<usize>> = Vec::new();
    let mut rest = &order[..];
    for _ in 0..g.usize(1..5) {
        if rest.is_empty() {
            break;
        }
        let (run, tail) = rest.split_at(g.usize(1..7).min(rest.len()));
        let marked = *g.pick(run);
        r.tokens[marked] = 1;
        r.components.push(run.to_vec());
        reached.push(vec![marked]);
        rest = tail;
    }
    for &p in rest {
        r.tokens[p] = u32::from(g.u64(0..4) == 0);
    }
    for _ in 0..transitions {
        let (mut consume, mut produce) = (Vec::new(), Vec::new());
        let mut take_move = |g: &mut Gen, c: usize| {
            consume.push(*g.pick(&reached[c]));
            let to = *g.pick(&r.components[c]);
            if !reached[c].contains(&to) {
                reached[c].push(to);
            }
            produce.push(to);
        };
        match g.usize(0..5) {
            0 => {}
            1 if r.components.len() >= 2 => {
                let a = g.usize(0..r.components.len());
                let b = (a + 1 + g.usize(0..r.components.len() - 1)) % r.components.len();
                take_move(g, a);
                take_move(g, b);
            }
            _ => {
                let c = g.usize(0..r.components.len());
                take_move(g, c);
            }
        }
        // Read arcs on places that can hold a token: marked ones nobody
        // consumes and places a machine's token can reach.
        let holders: Vec<usize> = (0..places)
            .filter(|&p| r.tokens[p] == 1 || reached.iter().any(|c| c.contains(&p)))
            .collect();
        let read = (0..g.usize(0..3))
            .map(|_| *g.pick(&holders))
            .filter(|p| !consume.contains(p) && !produce.contains(p))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        r.transitions.push((consume, read, produce));
    }
    r
}

impl Recipe {
    /// The recipe's places and transitions in a builder, with the place
    /// ids.
    fn builder(&self) -> (NetBuilder, Vec<a4a_petri::PlaceId>) {
        let mut b = NetBuilder::new();
        let ps: Vec<_> = (0..self.tokens.len())
            .map(|i| {
                b.place_with_tokens(format!("p{i}"), self.tokens[i])
                    .unwrap()
            })
            .collect();
        for (i, (consume, read, produce)) in self.transitions.iter().enumerate() {
            let t = b.transition(format!("t{i}")).unwrap();
            consume.iter().for_each(|&p| b.arc_pt(ps[p], t).unwrap());
            read.iter().for_each(|&p| b.arc_read(ps[p], t).unwrap());
            produce.iter().for_each(|&p| b.arc_tp(t, ps[p]).unwrap());
        }
        (b, ps)
    }

    fn net(&self) -> PetriNet {
        self.builder().0.build()
    }

    /// The recipe as an STG over three signals: each transition is a
    /// dummy or an edge of a random signal, so most random STGs are
    /// inconsistent somewhere and some are not. Up to six transitions,
    /// half are edges; a larger net gets about three edges, since a
    /// wide net with dozens of them is inconsistent almost surely.
    fn stg(&self, g: &mut Gen) -> Stg {
        let mut b = StgBuilder::new("random");
        let signals: Vec<_> = (0..3).map(|i| b.input(format!("x{i}"), g.bool())).collect();
        let ps: Vec<_> = (0..self.tokens.len())
            .map(|i| b.place_with_tokens(format!("p{i}"), self.tokens[i]))
            .collect();
        for (consume, read, produce) in &self.transitions {
            let t = match g.usize(0..2 * self.transitions.len().max(6)) {
                0..=2 => b.rise(*g.pick(&signals)),
                3..=5 => b.fall(*g.pick(&signals)),
                _ => b.dummy(),
            };
            consume.iter().for_each(|&p| b.arc_pt(ps[p], t));
            read.iter().for_each(|&p| b.arc_read(ps[p], t));
            produce.iter().for_each(|&p| b.arc_tp(t, ps[p]));
        }
        b.build()
    }

    /// Adds a transition that moves the token of one machine onto a
    /// place that may already hold one: the net turns unsafe after
    /// however many firings that machine needs to reach the move, and
    /// stays bounded because the machine's token is gone afterwards.
    /// `false` if no second token exists to collide with.
    fn add_collision(&mut self, g: &mut Gen) -> bool {
        let source = &self.components[g.usize(0..self.components.len())];
        let targets: Vec<usize> = (0..self.tokens.len())
            .filter(|p| !source.contains(p))
            .filter(|&p| self.tokens[p] == 1 || self.components.iter().any(|c| c.contains(&p)))
            .collect();
        if targets.is_empty() {
            return false;
        }
        let from = *g.pick(source);
        let to = *g.pick(&targets);
        self.transitions.push((vec![from], vec![], vec![to]));
        true
    }
}

/// Compares the two engines on one STG: equal errors, or identical
/// graphs that also agree at a state limit of exactly their size and
/// one below it.
fn check_stg_result(label: &str, stg: &Stg, max_states: usize, want: Engine) -> PropResult {
    let reference = stg.state_graph_ref(max_states);
    let kernel = stg.state_graph(max_states);
    match (&reference, &kernel) {
        (Ok(r), Ok(k)) => {
            assert_sg_identical(label, r, k);
            let fired = k.state_ids().map(|s| {
                (
                    k.marking(s),
                    k.successors(s).iter().map(|&(t, _)| t).collect(),
                )
            });
            assert_enabled_brute_force(label, stg.net(), fired);
            if k.engine() != want {
                return Err(PropError::Fail(format!("{label}: engine {:?}", k.engine())));
            }
            let n = r.state_count();
            assert_sg_identical(label, r, &stg.state_graph(n).expect("exact limit"));
            if n > 1 {
                let err = stg.state_graph(n - 1).unwrap_err();
                assert_eq!(err, StgError::StateLimit { limit: n - 1 }, "{label}");
                assert_eq!(stg.state_graph_ref(n - 1).unwrap_err(), err, "{label}");
            }
        }
        (Err(r), Err(k)) => assert_eq!(r, k, "{label}: errors"),
        _ => {
            return Err(PropError::Fail(format!(
                "{label}: reference {:?} vs kernel {:?}",
                reference.as_ref().err(),
                kernel.as_ref().err()
            )))
        }
    }
    Ok(())
}

/// The same for raw reachability.
fn check_net_result(label: &str, net: &PetriNet, max_states: usize, want: Engine) -> PropResult {
    let reference = net.explore_from(net.initial_marking(), max_states);
    let kernel = net.explore(max_states);
    match (&reference, &kernel) {
        (Ok(r), Ok(k)) => {
            assert_reach_identical(label, r, k);
            let fired = k.state_ids().map(|s| {
                (
                    k.marking(s),
                    k.successors(s).iter().map(|&(t, _)| t).collect(),
                )
            });
            assert_enabled_brute_force(label, net, fired);
            if k.engine() != want {
                return Err(PropError::Fail(format!("{label}: engine {:?}", k.engine())));
            }
            let n = r.state_count();
            assert_reach_identical(label, r, &net.explore(n).expect("exact limit"));
            if n > 1 {
                let err = net.explore(n - 1).unwrap_err();
                assert_eq!(err, ExploreError::StateLimit { limit: n - 1 }, "{label}");
            }
        }
        (Err(r), Err(k)) => assert_eq!(r, k, "{label}: errors"),
        _ => {
            return Err(PropError::Fail(format!(
                "{label}: reference {:?} vs kernel {:?}",
                reference.as_ref().err(),
                kernel.as_ref().err()
            )))
        }
    }
    Ok(())
}

#[test]
fn random_safe_nets_kernel_vs_ref() {
    // States of the nets of 1–11 transitions, and how many there were.
    let (small_states, small_nets) = (Cell::new(0), Cell::new(0));
    a4a_rt::prop::check("random_safe_nets_kernel_vs_ref", |g| {
        let (places, transitions) = random_size(g, &WIDTHS);
        let net = random_safe_recipe(g, places, transitions).net();
        let label = format!("{places} places, {transitions} transitions");
        check_net_result(&label, &net, 10_000, Engine::Kernel)?;
        if transitions < 12 {
            let states = net.explore(10_000).map_or(0, |r| r.state_count());
            small_states.set(small_states.get() + states);
            small_nets.set(small_nets.get() + 1);
        }
        Ok(())
    });
    // Half the cases are small nets: they must fire, or half the
    // differential compares one-state graphs. (A one-seed replay with
    // `A4A_PROP_SEED` has too few for a mean.)
    if small_nets.get() >= 32 {
        let mean = small_states.get() as f64 / small_nets.get() as f64;
        assert!(mean >= 3.0, "small nets average {mean:.2} states");
    }
}

#[test]
fn random_safe_stgs_kernel_vs_ref() {
    let (consistent, inconsistent) = (Cell::new(0), Cell::new(0));
    let wide_consistent = Cell::new(0);
    a4a_rt::prop::check("random_safe_stgs_kernel_vs_ref", |g| {
        let (places, transitions) = random_size(g, &WIDTHS);
        let stg = random_safe_recipe(g, places, transitions).stg(g);
        match stg.state_graph(10_000) {
            Ok(_) if transitions > 64 => {
                consistent.set(consistent.get() + 1);
                wide_consistent.set(wide_consistent.get() + 1);
            }
            Ok(_) => consistent.set(consistent.get() + 1),
            Err(StgError::Inconsistent { .. }) => inconsistent.set(inconsistent.get() + 1),
            Err(_) => {}
        }
        let label = format!("{places} places, {transitions} transitions");
        check_stg_result(&label, &stg, 10_000, Engine::Kernel)
    });
    assert!(consistent.get() > 0, "no consistent random STG");
    assert!(inconsistent.get() > 0, "no inconsistent random STG");
    assert!(
        wide_consistent.get() > 0,
        "no consistent STG over more than one transition word"
    );
}

#[test]
fn weighted_arc_takes_the_reference_path() {
    a4a_rt::prop::check("weighted_arc_takes_the_reference_path", |g| {
        let (places, transitions) = random_size(g, &WIDTHS);
        // A weight-2 read arc is never enabled in a safe net, but it
        // takes the kernel's masks away.
        let (mut b, ps) = random_safe_recipe(g, places, transitions).builder();
        let heavy = b.transition("heavy").unwrap();
        b.arc(ArcKind::Read, ps[g.usize(0..places)], heavy, 2)
            .unwrap();
        let net = b.build();
        let label = format!("{places} places, {transitions} transitions");
        check_net_result(&label, &net, 10_000, Engine::Reference)
    });
}

#[test]
fn unsafe_nets_restart_on_the_reference_engine() {
    let restarted = Cell::new(0);
    a4a_rt::prop::check("unsafe_nets_restart_on_the_reference_engine", |g| {
        let (places, transitions) = random_size(g, &WIDTHS[1..]);
        let mut recipe = random_safe_recipe(g, places, transitions);
        if !recipe.add_collision(g) {
            return Err(PropError::Discard);
        }
        let net = recipe.net();
        let label = format!("{places} places, {transitions} transitions");
        // The collision may be unreachable; then the kernel finishes.
        let want = match net.explore_from(net.initial_marking(), 10_000) {
            Ok(r) if !r.is_safe() => Engine::Restarted,
            _ => Engine::Kernel,
        };
        if want == Engine::Restarted {
            restarted.set(restarted.get() + 1);
        }
        check_net_result(&label, &net, 10_000, want)?;
        check_stg_result(&label, &recipe.stg(g), 10_000, want)
    });
    assert!(restarted.get() > 0, "no random net turned unsafe");
}

/// An STG without `.initial_state` whose net turns unsafe at its second
/// firing, `a-` putting a second token on `q`, before `c-`, the first
/// edge of `c`, can fire. So the parser's initial-value search halts on
/// the kernel and reruns on the reference engine, and so does the state
/// graph.
const LATE_UNSAFE: &str = "\
.model late_unsafe
.inputs a
.outputs c
.graph
p0 a+
a+ p1
p1 a-
a- q p2
q c-
p2 c-
c- p3
p3 c+
c+ p0
.marking { p0 q }
.end
";

#[test]
fn unsafe_stg_infers_and_explores_like_the_reference() {
    let stg = Stg::parse_g(LATE_UNSAFE).expect("parses");
    let net = stg.net();
    assert_eq!(net.explore(100).unwrap().engine(), Engine::Restarted);
    let inferred: Vec<bool> = stg.signal_ids().map(|s| stg.signal(s).initial).collect();
    assert_eq!(inferred, [false, true], "a+ fires first, then c-");
    // The reference inference: each signal's value before its first
    // edge in the breadth-first order of the reference engine's state
    // graph, built from the values stated outright.
    let stated = Stg::parse_g(&LATE_UNSAFE.replace(".end", ".initial_state c\n.end")).unwrap();
    let sg = stated.state_graph_ref(100).expect("consistent");
    let mut first: Vec<Option<bool>> = vec![None; stg.signal_count()];
    for s in sg.state_ids() {
        for &(t, _) in sg.successors(s) {
            if let Some(e) = stated.label(t).edge() {
                first[e.signal.index()].get_or_insert(sg.value(s, e.signal));
            }
        }
    }
    let reference: Vec<bool> = first.into_iter().map(|v| v.unwrap_or(false)).collect();
    assert_eq!(inferred, reference);
    check_stg_result("late_unsafe", &stg, 100, Engine::Restarted).unwrap();
    check_stg_result("late_unsafe stated", &stated, 100, Engine::Restarted).unwrap();
}
