//! Property-based tests: random expression trees survive technology
//! decomposition and evaluate identically in the event simulator.

use a4a_boolmin::Expr;
use a4a_netlist::sim::GateSim;
use a4a_netlist::{combinational_expr, decompose, GateLib, NetlistBuilder};
use a4a_rt::prop::{self, Config, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq};
use a4a_sim::Time;

/// A random boolean expression over `nvars` variables, depth-bounded.
fn arb_expr(g: &mut Gen, nvars: usize, depth: usize) -> Expr {
    // Leaves dominate at depth 0; inner nodes recurse with a smaller
    // budget (the replacement for `prop_recursive(4, 24, 4, ..)`).
    if depth == 0 || g.choice(3) == 0 {
        return if g.bool() {
            Expr::var(g.usize(0..nvars))
        } else {
            Expr::constant(g.bool())
        };
    }
    match g.choice(3) {
        0 => Expr::not(arb_expr(g, nvars, depth - 1)),
        1 => {
            let n = g.usize(2..4);
            Expr::and((0..n).map(|_| arb_expr(g, nvars, depth - 1)).collect())
        }
        _ => {
            let n = g.usize(2..4);
            Expr::or((0..n).map(|_| arb_expr(g, nvars, depth - 1)).collect())
        }
    }
}

/// Decomposition preserves the boolean function and caps fanin at 2.
#[test]
fn decomposition_is_equivalent() {
    prop::check_with(
        &Config::with_cases(48),
        "decomposition_is_equivalent",
        |g: &mut Gen| -> PropResult {
            let expr = arb_expr(g, 4, 4);
            let lib = GateLib::tsmc90();
            let mut b = NetlistBuilder::new("rand");
            let pins: Vec<_> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
            let y = b.net("y");
            b.complex(y, &pins, expr.clone(), &lib);
            let n = b.build().unwrap();
            let mapped = decompose(&n, &lib).unwrap();
            for gt in mapped.gate_ids() {
                prop_assert!(mapped.gate(gt).pins.len() <= 2);
            }
            let original = combinational_expr(&n, n.net_by_name("y").unwrap());
            let remapped = combinational_expr(&mapped, mapped.net_by_name("y").unwrap());
            for m in 0..16u64 {
                prop_assert_eq!(original.eval(m), remapped.eval(m), "assignment {:#b}", m);
            }
            Ok(())
        },
    );
}

/// The event simulator settles a combinational netlist to the static
/// evaluation of its function, for every input assignment.
#[test]
fn simulator_matches_static_eval() {
    prop::check_with(
        &Config::with_cases(48),
        "simulator_matches_static_eval",
        |g: &mut Gen| -> PropResult {
            let expr = arb_expr(g, 4, 4);
            let assignment = g.u64(0..16);
            let lib = GateLib::tsmc90();
            let mut b = NetlistBuilder::new("sim");
            let pins: Vec<_> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
            let y = b.net("y");
            b.complex(y, &pins, expr.clone(), &lib);
            let n = b.build().unwrap();

            let mut sim = GateSim::new(&n);
            for (i, &p) in pins.iter().enumerate() {
                sim.set_input(p, (assignment >> i) & 1 == 1);
            }
            prop_assert!(sim.settle(Time::from_us(1.0)), "combinational nets settle");
            let value = sim.value(n.net_by_name("y").unwrap());
            prop_assert_eq!(value.known(), Some(expr.eval(assignment)));
            Ok(())
        },
    );
}

/// Settling is input-order independent: driving inputs in any order
/// yields the same final value.
#[test]
fn settle_is_order_independent() {
    prop::check_with(
        &Config::with_cases(48),
        "settle_is_order_independent",
        |g: &mut Gen| -> PropResult {
            let expr = arb_expr(g, 4, 4);
            let assignment = g.u64(0..16);
            let mut order = [0usize, 1, 2, 3];
            g.shuffle(&mut order);
            let lib = GateLib::tsmc90();
            let mut b = NetlistBuilder::new("ord");
            let pins: Vec<_> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
            let y = b.net("y");
            b.complex(y, &pins, expr, &lib);
            let n = b.build().unwrap();

            let run = |order: &[usize]| {
                let mut sim = GateSim::new(&n);
                for &i in order {
                    sim.set_input(pins[i], (assignment >> i) & 1 == 1);
                    sim.settle(Time::from_us(1.0));
                }
                sim.value(n.net_by_name("y").unwrap())
            };
            prop_assert_eq!(run(&[0, 1, 2, 3]), run(&order));
            Ok(())
        },
    );
}

/// Verilog emission always produces the module header and one
/// assign/instance per gate.
#[test]
fn verilog_emission_total() {
    prop::check_with(
        &Config::with_cases(48),
        "verilog_emission_total",
        |g: &mut Gen| -> PropResult {
            let expr = arb_expr(g, 3, 4);
            let lib = GateLib::tsmc90();
            let mut b = NetlistBuilder::new("v");
            let pins: Vec<_> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
            let y = b.net("y");
            b.complex(y, &pins, expr, &lib);
            let n = b.build().unwrap();
            let v = a4a_netlist::verilog::emit(&n);
            prop_assert!(v.contains("module v ("));
            prop_assert!(v.contains("assign y = "));
            prop_assert!(v.contains("endmodule"));
            Ok(())
        },
    );
}
