//! Technology decomposition: maps atomic complex gates onto 2-input
//! cells (INV/AND2/OR2) so the netlist fits a conventional standard-cell
//! library — the "standard EDA tools can be reused for place-and-route"
//! step of the A4A flow.
//!
//! Decomposition preserves Boolean function (checked by
//! [`combinational_expr`]-based equivalence in the tests) but *not*
//! speed-independence in general: splitting an atomic gate exposes
//! internal nets whose hazards the SI model would flag. Real flows
//! discharge this with relative-timing constraints at signoff
//! (PrimeTime in the paper); the gate-level simulator's glitch counter
//! measures the exposure.

use a4a_boolmin::Expr;

use crate::{GateKind, GateLib, NetId, Netlist, NetlistBuilder, NetlistError};

/// Decomposes every complex gate into a tree of 1/2-input cells;
/// generalized-C elements keep their atomic latch but their set/reset
/// functions are decomposed into trees feeding dedicated pins; mutex
/// halves are kept atomic (they are library primitives).
///
/// # Errors
///
/// Returns [`NetlistError`] if the rebuilt netlist is structurally
/// invalid (cannot happen for well-formed inputs; surfaced rather than
/// unwrapped).
pub fn decompose(netlist: &Netlist, lib: &GateLib) -> Result<Netlist, NetlistError> {
    let mut b = NetlistBuilder::new(format!("{}_mapped", netlist.name()));
    // Recreate all nets with their original names/roles (ids preserved:
    // same creation order).
    let nets: Vec<NetId> = netlist
        .net_ids()
        .map(|n| {
            let net = netlist.net(n);
            if net.is_input {
                b.input(net.name.clone())
            } else {
                b.net(net.name.clone())
            }
        })
        .collect();

    let mut fresh = 0usize;
    for g in netlist.gate_ids() {
        let gate = netlist.gate(g);
        let pins: Vec<NetId> = gate.pins.iter().map(|&p| nets[p.index()]).collect();
        let out = nets[gate.output.index()];
        match &gate.kind {
            GateKind::Complex(expr) => {
                emit_tree(&mut b, lib, expr, &pins, Some(out), &mut fresh);
            }
            GateKind::GeneralizedC { set, reset } => {
                let set_net = emit_tree(&mut b, lib, set, &pins, None, &mut fresh);
                let reset_net = emit_tree(&mut b, lib, reset, &pins, None, &mut fresh);
                b.generalized_c(out, &[set_net, reset_net], Expr::var(0), Expr::var(1), lib);
            }
            GateKind::MutexHalf => {
                b.gate(out, &pins, GateKind::MutexHalf, lib);
            }
        }
    }
    b.build()
}

/// Emits `expr` as a tree of 1/2-input gates over `pins`; drives
/// `target` if given, otherwise a fresh intermediate net. Returns the
/// driven net.
fn emit_tree(
    b: &mut NetlistBuilder,
    lib: &GateLib,
    expr: &Expr,
    pins: &[NetId],
    target: Option<NetId>,
    fresh: &mut usize,
) -> NetId {
    // A bare variable with no target can reuse the pin net directly.
    if target.is_none() {
        if let Expr::Var(i) = expr {
            return pins[*i];
        }
    }
    let out = target.unwrap_or_else(|| {
        *fresh += 1;
        b.net(format!("_m{fresh}"))
    });
    match expr {
        Expr::Const(v) => {
            b.complex(out, &[], Expr::constant(*v), lib);
        }
        Expr::Var(i) => {
            b.buf(out, pins[*i], lib);
        }
        Expr::Not(inner) => {
            let sub = emit_tree(b, lib, inner, pins, None, fresh);
            b.inv(out, sub, lib);
        }
        Expr::And(es) | Expr::Or(es) => {
            let is_and = matches!(expr, Expr::And(_));
            let mut subs: Vec<NetId> = es
                .iter()
                .map(|e| emit_tree(b, lib, e, pins, None, fresh))
                .collect();
            // Balanced reduction with 2-input gates.
            while subs.len() > 2 {
                let mut next = Vec::with_capacity(subs.len().div_ceil(2));
                for pair in subs.chunks(2) {
                    if pair.len() == 1 {
                        next.push(pair[0]);
                    } else {
                        *fresh += 1;
                        let mid = b.net(format!("_m{fresh}"));
                        b.complex(mid, pair, two_input(is_and), lib);
                        next.push(mid);
                    }
                }
                subs = next;
            }
            match subs.len() {
                1 => {
                    b.buf(out, subs[0], lib);
                }
                _ => {
                    b.complex(out, &subs, two_input(is_and), lib);
                }
            }
        }
    }
    out
}

fn two_input(is_and: bool) -> Expr {
    let operands = vec![Expr::var(0), Expr::var(1)];
    if is_and {
        Expr::and(operands)
    } else {
        Expr::or(operands)
    }
}

/// Reconstructs the Boolean expression (over primary inputs and
/// state-holding nets) computed by the combinational cone driving
/// `net`. Generalized-C and mutex outputs are cone leaves, and so is
/// any net on a feedback path back to itself (a complex gate holding
/// state through its own output reads that output as a state variable).
///
/// Used by equivalence checks after decomposition.
pub fn combinational_expr(netlist: &Netlist, net: NetId) -> Expr {
    fn walk(netlist: &Netlist, net: NetId, path: &mut Vec<NetId>) -> Expr {
        if path.contains(&net) {
            // Feedback: treat the net as a state variable.
            return Expr::var(net.index());
        }
        match netlist.driver(net) {
            None => Expr::var(net.index()),
            Some(g) => {
                let gate = netlist.gate(g);
                match &gate.kind {
                    GateKind::Complex(e) => {
                        path.push(net);
                        let subs: Vec<Expr> =
                            gate.pins.iter().map(|&p| walk(netlist, p, path)).collect();
                        path.pop();
                        substitute(e, &subs)
                    }
                    // State-holding elements are cone boundaries.
                    _ => Expr::var(net.index()),
                }
            }
        }
    }
    walk(netlist, net, &mut Vec::new())
}

fn substitute(e: &Expr, subs: &[Expr]) -> Expr {
    match e {
        Expr::Const(v) => Expr::constant(*v),
        Expr::Var(i) => subs[*i].clone(),
        Expr::Not(inner) => Expr::not(substitute(inner, subs)),
        Expr::And(es) => Expr::and(es.iter().map(|x| substitute(x, subs)).collect()),
        Expr::Or(es) => Expr::or(es.iter().map(|x| substitute(x, subs)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_fanin(n: &Netlist) -> usize {
        n.gate_ids()
            .map(|g| n.gate(g).pins.len())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn wide_and_or_splits_into_two_input_cells() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("wide");
        let ins: Vec<NetId> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let y = b.net("y");
        // y = (i0 & i1 & i2) | !(i3 & i4)
        let expr = Expr::or(vec![
            Expr::and(vec![Expr::var(0), Expr::var(1), Expr::var(2)]),
            Expr::not(Expr::and(vec![Expr::var(3), Expr::var(4)])),
        ]);
        b.complex(y, &ins, expr.clone(), &lib);
        let n = b.build().unwrap();
        let mapped = decompose(&n, &lib).unwrap();
        assert!(max_fanin(&mapped) <= 2, "fanin {}", max_fanin(&mapped));
        assert!(mapped.gate_count() > n.gate_count());

        // Equivalence over all 32 assignments.
        let original = combinational_expr(&n, n.net_by_name("y").unwrap());
        let remapped = combinational_expr(&mapped, mapped.net_by_name("y").unwrap());
        for m in 0..32u64 {
            assert_eq!(original.eval(m), remapped.eval(m), "assignment {m:#b}");
        }
    }

    #[test]
    fn gc_keeps_latch_with_decomposed_functions() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("gc");
        let ins: Vec<NetId> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
        let q = b.net("q");
        b.generalized_c(
            q,
            &ins,
            Expr::and(vec![Expr::var(0), Expr::var(1), Expr::var(2)]),
            Expr::not(Expr::var(0)),
            &lib,
        );
        let n = b.build().unwrap();
        let mapped = decompose(&n, &lib).unwrap();
        // The latch survives with exactly two pins.
        let q_net = mapped.net_by_name("q").unwrap();
        let gate = mapped.gate(mapped.driver(q_net).unwrap());
        assert!(matches!(gate.kind, GateKind::GeneralizedC { .. }));
        assert_eq!(gate.pins.len(), 2);
        // The set cone computes i0&i1&i2 from 2-input cells.
        let set_cone = combinational_expr(&mapped, gate.pins[0]);
        for m in 0..8u64 {
            let expected = (m & 0b111) == 0b111;
            assert_eq!(set_cone.eval(m), expected, "m={m:#b}");
        }
    }

    #[test]
    fn decomposed_netlist_simulates_like_original() {
        use crate::sim::GateSim;
        use a4a_sim::Time;
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("sim_eq");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let y = b.net("y");
        b.complex(
            y,
            &[a, c, d],
            Expr::or(vec![
                Expr::and(vec![Expr::var(0), Expr::var(1)]),
                Expr::and(vec![Expr::not(Expr::var(0)), Expr::var(2)]),
            ]),
            &lib,
        );
        let n = b.build().unwrap();
        let mapped = decompose(&n, &lib).unwrap();
        for assignment in 0..8u64 {
            let run = |netlist: &Netlist| -> bool {
                let mut sim = GateSim::new(netlist);
                for (i, name) in ["a", "c", "d"].iter().enumerate() {
                    let net = netlist.net_by_name(name).unwrap();
                    sim.set_input(net, (assignment >> i) & 1 == 1);
                }
                sim.settle(Time::from_us(1.0));
                sim.value(netlist.net_by_name("y").unwrap()).to_bool(false)
            };
            assert_eq!(run(&n), run(&mapped), "assignment {assignment:#b}");
        }
    }

    #[test]
    fn constants_and_buffers_map() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("konst");
        let a = b.input("a");
        let y = b.net("y");
        let z = b.net("z");
        b.complex(y, &[], Expr::constant(true), &lib);
        b.buf(z, a, &lib);
        let n = b.build().unwrap();
        let mapped = decompose(&n, &lib).unwrap();
        assert_eq!(mapped.net_count(), n.net_count());
        let yv = combinational_expr(&mapped, mapped.net_by_name("y").unwrap());
        assert_eq!(yv, Expr::constant(true));
    }
}
