//! Property-based tests for the Petri-net substrate: random token rings
//! and pipelines, checking conservation, determinism, and invariant
//! algebra.

use a4a_petri::{NetBuilder, PetriNet};
use a4a_rt::prop::{self, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq};

/// A ring of `n` places with `tokens` initial tokens spread from place 0.
fn ring(n: usize, tokens: u32) -> PetriNet {
    let mut b = NetBuilder::new();
    let places: Vec<_> = (0..n)
        .map(|i| {
            b.place_with_tokens(format!("p{i}"), if i == 0 { tokens } else { 0 })
                .unwrap()
        })
        .collect();
    for i in 0..n {
        let t = b.transition(format!("t{i}")).unwrap();
        b.arc_pt(places[i], t).unwrap();
        b.arc_tp(t, places[(i + 1) % n]).unwrap();
    }
    b.build()
}

/// Rings conserve their token count in every reachable marking.
#[test]
fn ring_conserves_tokens() {
    prop::check("ring_conserves_tokens", |g: &mut Gen| -> PropResult {
        let n = g.usize(2..7);
        let tokens = g.u64(1..4) as u32;
        let net = ring(n, tokens);
        let gr = net.explore(200_000).unwrap();
        for s in gr.state_ids() {
            prop_assert_eq!(gr.marking(s).total_tokens(), u64::from(tokens));
        }
        // The all-ones weight vector is always an invariant of a ring.
        let ones = vec![1i64; n];
        prop_assert!(net.is_place_invariant(&ones));
        prop_assert!(net.covered_by_invariants());
        Ok(())
    });
}

/// Exploration is deterministic: two runs give identical graphs.
#[test]
fn exploration_deterministic() {
    prop::check("exploration_deterministic", |g: &mut Gen| -> PropResult {
        let n = g.usize(2..6);
        let tokens = g.u64(1..3) as u32;
        let net = ring(n, tokens);
        let g1 = net.explore(200_000).unwrap();
        let g2 = net.explore(200_000).unwrap();
        prop_assert_eq!(g1.state_count(), g2.state_count());
        for s in g1.state_ids() {
            prop_assert_eq!(g1.marking(s), g2.marking(s));
            prop_assert_eq!(g1.successors(s), g2.successors(s));
        }
        Ok(())
    });
}

/// Firing any enabled transition preserves every computed invariant.
#[test]
fn invariants_survive_any_firing() {
    prop::check(
        "invariants_survive_any_firing",
        |g: &mut Gen| -> PropResult {
            let n = g.usize(2..6);
            let steps = g.vec(0..30, |g| g.usize(0..8));
            let net = ring(n, 2);
            let invariants = net.place_invariants();
            let mut marking = net.initial_marking();
            let sums: Vec<i64> = invariants.iter().map(|inv| inv.sum(&marking)).collect();
            for pick in steps {
                let enabled = net.enabled(&marking);
                if enabled.is_empty() {
                    break;
                }
                let t = enabled[pick % enabled.len()];
                marking = net.try_fire(t, &marking).unwrap();
                for (inv, &s0) in invariants.iter().zip(&sums) {
                    prop_assert_eq!(inv.sum(&marking), s0);
                }
            }
            Ok(())
        },
    );
}

/// A linear pipeline of length n has exactly n+1 reachable markings
/// (token positions) and one deadlock.
#[test]
fn pipeline_state_count() {
    prop::check("pipeline_state_count", |g: &mut Gen| -> PropResult {
        let n = g.usize(1..10);
        let mut b = NetBuilder::new();
        let places: Vec<_> = (0..=n)
            .map(|i| {
                b.place_with_tokens(format!("p{i}"), u32::from(i == 0))
                    .unwrap()
            })
            .collect();
        for i in 0..n {
            let t = b.transition(format!("t{i}")).unwrap();
            b.arc_pt(places[i], t).unwrap();
            b.arc_tp(t, places[i + 1]).unwrap();
        }
        let net = b.build();
        let gr = net.explore(10_000).unwrap();
        prop_assert_eq!(gr.state_count(), n + 1);
        prop_assert_eq!(gr.deadlocks().len(), 1);
        // The trace to the deadlock has length n.
        let dead = gr.deadlocks()[0];
        prop_assert_eq!(gr.trace_to(dead).len(), n);
        Ok(())
    });
}

/// Product of k independent toggles has 2^k states.
#[test]
fn independent_components_multiply() {
    prop::check(
        "independent_components_multiply",
        |g: &mut Gen| -> PropResult {
            let k = g.usize(1..5);
            let mut b = NetBuilder::new();
            for i in 0..k {
                let p0 = b.place_with_tokens(format!("a{i}"), 1).unwrap();
                let p1 = b.place(format!("b{i}")).unwrap();
                let t0 = b.transition(format!("t{i}_0")).unwrap();
                let t1 = b.transition(format!("t{i}_1")).unwrap();
                b.arc_pt(p0, t0).unwrap();
                b.arc_tp(t0, p1).unwrap();
                b.arc_pt(p1, t1).unwrap();
                b.arc_tp(t1, p0).unwrap();
            }
            let net = b.build();
            let gr = net.explore(100_000).unwrap();
            prop_assert_eq!(gr.state_count(), 1 << k);
            Ok(())
        },
    );
}

/// A random safe marking survives a round trip through the kernel's bit
/// rows: the kernel graph of a net started there decodes it back, equal
/// to (and hashing like) the reference graph's counter-row decoding,
/// with every per-place accessor agreeing.
#[test]
fn packed_and_dense_markings_agree() {
    use a4a_petri::{Engine, Marking};
    prop::check(
        "packed_and_dense_markings_agree",
        |g: &mut Gen| -> PropResult {
            let places = g.usize(0..200);
            let tokens: Vec<u32> = (0..places).map(|_| g.u64(0..2) as u32).collect();
            let mut b = NetBuilder::new();
            for (i, &t) in tokens.iter().enumerate() {
                b.place_with_tokens(format!("p{i}"), t).unwrap();
            }
            let net = b.build();
            let kernel = net.explore(1).expect("no transitions: one state");
            let reference = net
                .explore_from(net.initial_marking(), 1)
                .expect("one state");
            prop_assert_eq!(kernel.engine(), Engine::Kernel);
            prop_assert_eq!(reference.engine(), Engine::Reference);
            let (k, r) = (
                kernel.marking(a4a_petri::StateId::INITIAL),
                reference.marking(a4a_petri::StateId::INITIAL),
            );
            prop_assert_eq!(&k, &r);
            prop_assert_eq!(k.fx_hash(), r.fx_hash());
            prop_assert_eq!(k.total_tokens(), r.total_tokens());
            prop_assert_eq!(k.iter().collect::<Vec<_>>(), tokens.clone());
            prop_assert_eq!(kernel.bound(), r.iter().max().unwrap_or(0));
            // A set keyed on the std Hash stream treats them as one key.
            let mut set: a4a_rt::FxHashSet<Marking> = a4a_rt::FxHashSet::default();
            set.insert(k);
            prop_assert!(set.contains(&r));
            prop_assert_eq!(Marking::new(tokens), r);
            Ok(())
        },
    );
}

/// A net whose initial marking is not safe runs on the reference engine,
/// and its unsafe markings never equal or fx-collide with their safe
/// truncation.
#[test]
fn unsafe_and_safe_markings_stay_distinct() {
    use a4a_petri::{Engine, Marking};
    prop::check(
        "unsafe_and_safe_stay_distinct",
        |g: &mut Gen| -> PropResult {
            let places = g.usize(1..64);
            let hot = g.usize(0..places);
            let mut tokens: Vec<u32> = (0..places).map(|_| g.u64(0..2) as u32).collect();
            let safe = Marking::new(tokens.clone());
            tokens[hot] += 2; // now unsafe at `hot`
            let unsafe_m = Marking::new(tokens);
            prop_assert!(safe != unsafe_m);
            prop_assert!(safe.fx_hash() != unsafe_m.fx_hash());
            let mut b = NetBuilder::new();
            for (i, t) in unsafe_m.iter().enumerate() {
                b.place_with_tokens(format!("p{i}"), t).unwrap();
            }
            let g = b.build().explore(1).expect("one state");
            prop_assert_eq!(g.engine(), Engine::Reference);
            prop_assert_eq!(g.marking(a4a_petri::StateId::INITIAL), unsafe_m);
            Ok(())
        },
    );
}
