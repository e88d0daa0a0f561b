//! Speed-independence verification by joint exploration of the circuit
//! and its STG specification.
//!
//! The circuit's reachable behaviour under the speed-independence model
//! (arbitrary gate delays) is explored together with the set of
//! specification states compatible with the trace so far. Two properties
//! are checked:
//!
//! * **conformance** — whenever a gate output changes, the specification
//!   must allow that edge;
//! * **semi-modularity** (output persistence at gate level, i.e. hazard
//!   freedom) — an excited gate must not be disabled by another signal
//!   changing before it fires.

use std::collections::{BTreeSet, VecDeque};
use std::hash::Hasher;

use a4a_netlist::{GateId, Netlist};
use a4a_rt::{FxHashMap, FxHasher, IdTable};
use a4a_stg::{Edge, Label, Polarity, SgStateId, SignalId, SignalKind, Stg};

use crate::SynthError;

/// A violation discovered by [`verify_si`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiViolation {
    /// The circuit produced an output edge the specification does not
    /// allow here.
    Unexpected {
        /// The offending edge, e.g. `gp+`.
        edge: String,
        /// The trace (edge names) leading to the violation.
        trace: Vec<String>,
    },
    /// An excited gate was disabled before firing: a potential hazard.
    Disabled {
        /// The signal whose excitation was revoked.
        signal: String,
        /// The edge whose firing revoked it.
        by: String,
        /// The trace (edge names) leading to the violation.
        trace: Vec<String>,
    },
}

/// Result of [`verify_si`].
#[derive(Debug, Clone, Default)]
pub struct SiReport {
    /// Joint states explored.
    pub states: usize,
    /// Violations found (bounded to the first few per kind).
    pub violations: Vec<SiViolation>,
}

impl SiReport {
    /// Returns `true` when the circuit conforms to the specification and
    /// is free of hazards under the SI delay model.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verifies a synthesised netlist against its STG specification.
///
/// The netlist must use the one-net-per-signal form produced by
/// [`crate::synthesize`] (net names equal signal names).
///
/// # Errors
///
/// * [`SynthError::SignalMapping`] when a net has no same-named signal;
/// * [`SynthError::StateLimit`] when the joint exploration exceeds
///   `max_states`;
/// * [`SynthError::Stg`] when the specification itself cannot be
///   explored.
pub fn verify_si(stg: &Stg, netlist: &Netlist, max_states: usize) -> Result<SiReport, SynthError> {
    let sg = stg.state_graph(max_states)?;

    // Map implemented signals to their driver gates.
    let mut gate_of: Vec<Option<GateId>> = vec![None; stg.signal_count()];
    for net in netlist.net_ids() {
        let name = &netlist.net(net).name;
        let signal = stg
            .signal_by_name(name)
            .ok_or_else(|| SynthError::SignalMapping { net: name.clone() })?;
        if let Some(gate) = netlist.driver(net) {
            gate_of[signal.index()] = Some(gate);
        }
    }
    let implemented: Vec<SignalId> = stg
        .signal_ids()
        .filter(|&s| stg.signal(s).kind.is_implemented())
        .collect();
    // Signals implemented in the STG must be driven in the netlist.
    for &s in &implemented {
        if gate_of[s.index()].is_none() {
            return Err(SynthError::SignalMapping {
                net: stg.signal(s).name.clone(),
            });
        }
    }
    // Pin order: map netlist pins back to signal indices once.
    let pin_signals: FxHashMap<GateId, Vec<SignalId>> = netlist
        .gate_ids()
        .map(|g| {
            let sigs = netlist
                .gate(g)
                .pins
                .iter()
                .map(|&p| {
                    stg.signal_by_name(&netlist.net(p).name)
                        .expect("checked above")
                })
                .collect();
            (g, sigs)
        })
        .collect();

    let eval_signal = |signal: SignalId, code: u64| -> bool {
        let gate_id = gate_of[signal.index()].expect("implemented");
        let gate = netlist.gate(gate_id);
        let pins: Vec<bool> = pin_signals[&gate_id]
            .iter()
            .map(|s| code & s.mask() != 0)
            .collect();
        gate.kind.eval(&pins, code & signal.mask() != 0)
    };

    // Epsilon (dummy) closure over specification states.
    let closure = |set: BTreeSet<SgStateId>| -> BTreeSet<SgStateId> {
        let mut out = set;
        let mut queue: VecDeque<SgStateId> = out.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &(t, succ) in sg.successors(s) {
                if stg.label(t) == Label::Dummy && out.insert(succ) {
                    queue.push_back(succ);
                }
            }
        }
        out
    };
    // Spec states in `set` enabling `edge`, and the closure of their
    // successors through it.
    let advance = |set: &BTreeSet<SgStateId>, edge: Edge| -> BTreeSet<SgStateId> {
        let mut next = BTreeSet::new();
        for &s in set {
            for &(t, succ) in sg.successors(s) {
                if stg.label(t) == Label::Edge(edge) {
                    next.insert(succ);
                }
            }
        }
        closure(next)
    };
    let spec_enables = |set: &BTreeSet<SgStateId>, edge: Edge| -> bool {
        set.iter().any(|&s| {
            sg.successors(s)
                .iter()
                .any(|&(t, _)| stg.label(t) == Label::Edge(edge))
        })
    };

    let edge_name =
        |e: Edge| -> String { format!("{}{}", stg.signal(e.signal).name, e.polarity.suffix()) };

    // Joint BFS. Keys live once, in the `keys` arena; the interner maps
    // fx-hash → index with equality resolved against the arena (it folds
    // the hash's high half into the slot tag, so the whole code counts).
    type Key = (u64, BTreeSet<SgStateId>);
    let key_hash = |key: &Key| -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(key.0);
        h.write_usize(key.1.len());
        for &s in &key.1 {
            h.write_u32(s.index() as u32);
        }
        h.finish()
    };
    let initial: Key = (
        stg.initial_code(),
        closure(BTreeSet::from([SgStateId::INITIAL])),
    );
    let mut table = IdTable::new();
    let mut keys: Vec<Key> = Vec::new();
    let mut parents: Vec<Option<(usize, Edge)>> = Vec::new();
    table.insert(key_hash(&initial), 0);
    keys.push(initial);
    parents.push(None);

    let trace_of = |parents: &[Option<(usize, Edge)>], mut idx: usize| -> Vec<String> {
        let mut out = Vec::new();
        while let Some((prev, e)) = parents[idx] {
            out.push(edge_name(e));
            idx = prev;
        }
        out.reverse();
        out
    };

    let mut report = SiReport::default();
    const MAX_VIOLATIONS: usize = 16;

    let mut frontier = 0usize;
    while frontier < keys.len() {
        let (code, spec) = keys[frontier].clone();

        // Moves available in this joint state.
        let mut moves: Vec<Edge> = Vec::new();
        // Environment: input edges enabled by the spec.
        for s in stg.signal_ids() {
            if stg.signal(s).kind != SignalKind::Input {
                continue;
            }
            let cur = code & s.mask() != 0;
            let edge = Edge {
                signal: s,
                polarity: if cur {
                    Polarity::Falling
                } else {
                    Polarity::Rising
                },
            };
            if spec_enables(&spec, edge) {
                moves.push(edge);
            }
        }
        // Circuit: excited implemented signals.
        let excited: Vec<SignalId> = implemented
            .iter()
            .copied()
            .filter(|&s| eval_signal(s, code) != (code & s.mask() != 0))
            .collect();
        for &s in &excited {
            let cur = code & s.mask() != 0;
            let edge = Edge {
                signal: s,
                polarity: if cur {
                    Polarity::Falling
                } else {
                    Polarity::Rising
                },
            };
            if !spec_enables(&spec, edge) {
                if report.violations.len() < MAX_VIOLATIONS {
                    let mut trace = trace_of(&parents, frontier);
                    trace.push(edge_name(edge));
                    report.violations.push(SiViolation::Unexpected {
                        edge: edge_name(edge),
                        trace,
                    });
                }
                continue;
            }
            moves.push(edge);
        }

        for &edge in &moves {
            let new_code = code ^ edge.signal.mask();
            // Semi-modularity: every other excited signal stays excited.
            for &s in &excited {
                if s == edge.signal {
                    continue;
                }
                let still = eval_signal(s, new_code) != (new_code & s.mask() != 0);
                if !still && report.violations.len() < MAX_VIOLATIONS {
                    let mut trace = trace_of(&parents, frontier);
                    trace.push(edge_name(edge));
                    report.violations.push(SiViolation::Disabled {
                        signal: stg.signal(s).name.clone(),
                        by: edge_name(edge),
                        trace,
                    });
                }
            }
            let new_spec = advance(&spec, edge);
            if new_spec.is_empty() {
                // Only possible for circuit moves rejected above or for
                // input moves the spec cannot take; both already handled.
                continue;
            }
            let key: Key = (new_code, new_spec);
            let hash = key_hash(&key);
            if table.get(hash, |id| keys[id as usize] == key).is_none() {
                if keys.len() >= max_states {
                    return Err(SynthError::StateLimit { limit: max_states });
                }
                table.insert(hash, keys.len() as u32);
                keys.push(key);
                parents.push(Some((frontier, edge)));
            }
        }
        frontier += 1;
    }

    report.states = keys.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, SynthOptions, SynthStyle};
    use a4a_boolmin::Expr;
    use a4a_netlist::{GateKind, GateLib, NetlistBuilder};

    const CELEM: &str = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
";

    #[test]
    fn synthesised_c_element_is_clean() {
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        for style in [SynthStyle::ComplexGate, SynthStyle::GeneralizedC] {
            let synth = synthesize(&stg, &SynthOptions::new(style)).unwrap();
            let report = verify_si(&stg, synth.netlist(), 100_000).unwrap();
            assert!(report.is_clean(), "{style:?}: {:?}", report.violations);
            assert!(report.states >= 4);
        }
    }

    #[test]
    fn wrong_gate_caught_as_unexpected() {
        // Implement c = a (ignores b): fires c+ after a+ even when the
        // spec still waits for b+.
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("wrong");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.net("c");
        let _ = bb;
        b.complex(c, &[a], Expr::var(0), &lib);
        let netlist = b.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SiViolation::Unexpected { edge, .. } if edge == "c+")));
    }

    #[test]
    fn hazardous_gate_caught_as_disabled() {
        // Implement c as pure AND: after c+ with a=b=1, dropping a
        // excites c to fall... that conforms? In the spec c- only fires
        // after both a- and b-. AND fires c- after just a-: unexpected.
        // To get a Disabled violation instead, use OR for set-like
        // behaviour: c = a | b. From a=1,b=0,c=1 (not reachable here)...
        // Simpler: two-input spec where OR over-approximates. Keep this
        // test on the AND case and assert any violation is found.
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("and_impl");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.net("c");
        b.complex(
            c,
            &[a, bb],
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            &lib,
        );
        let netlist = b.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn disabled_excitation_detected() {
        // Spec: inputs a, b concurrent; output o = a AND b is wrong when
        // the spec says o+ after a+ alone. Build spec: a+ -> o+ -> a- ->
        // o- with a free-running b toggling concurrently. Implement
        // o = a & b: b- while o excited disables it.
        let mut bld = a4a_stg::StgBuilder::new("dis");
        let a = bld.input("a", false);
        let bsig = bld.input("b", false);
        let o = bld.output("o", false);
        let ap = bld.rise(a);
        let op = bld.rise(o);
        let am = bld.fall(a);
        let om = bld.fall(o);
        bld.connect_marked(om, ap);
        bld.connect(ap, op);
        bld.connect(op, am);
        bld.connect(am, om);
        // b toggles freely.
        let bp = bld.rise(bsig);
        let bm = bld.fall(bsig);
        bld.connect_marked(bm, bp);
        bld.connect(bp, bm);
        let stg = bld.build();

        let lib = GateLib::tsmc90();
        let mut nb = NetlistBuilder::new("dis_impl");
        let an = nb.input("a");
        let bn = nb.input("b");
        let on = nb.net("o");
        nb.gate(
            on,
            &[an, bn],
            GateKind::Complex(Expr::and(vec![Expr::var(0), Expr::var(1)])),
            &lib,
        );
        let netlist = nb.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                SiViolation::Disabled { signal, .. } if signal == "o"
            )),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn unmapped_net_rejected() {
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("extra");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.net("c");
        let extra = b.net("helper");
        b.buf(extra, a, &lib);
        b.complex(
            c,
            &[extra, bb],
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            &lib,
        );
        let netlist = b.build().unwrap();
        let err = verify_si(&stg, &netlist, 100_000).unwrap_err();
        assert!(matches!(err, SynthError::SignalMapping { net } if net == "helper"));
    }

    #[test]
    fn traces_lead_to_violation() {
        let stg = a4a_stg::Stg::parse_g(CELEM).unwrap();
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("wrong");
        let a = b.input("a");
        let _bb = b.input("b");
        let c = b.net("c");
        b.complex(c, &[a], Expr::var(0), &lib);
        let netlist = b.build().unwrap();
        let report = verify_si(&stg, &netlist, 100_000).unwrap();
        let v = report
            .violations
            .iter()
            .find_map(|v| match v {
                SiViolation::Unexpected { edge, trace } if edge == "c+" => Some(trace.clone()),
                _ => None,
            })
            .expect("violation with trace");
        assert_eq!(v.last().map(String::as_str), Some("c+"));
        assert!(v.len() >= 2, "needs at least one input move first: {v:?}");
    }
}
