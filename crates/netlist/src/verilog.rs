//! Structural Verilog emission.
//!
//! The emitted module uses continuous assignments for combinational
//! complex gates and instantiates behavioural primitives (`gc_element`,
//! `mutex2`) for the state-holding asynchronous cells, mirroring how the
//! A4A flow hands netlists to conventional place-and-route.

use std::fmt::Write as _;

use a4a_boolmin::Expr;

use crate::{GateKind, NetId, Netlist};

/// Renders the netlist as a self-contained Verilog source string
/// (primitive definitions included).
///
/// # Examples
///
/// ```
/// use a4a_netlist::{GateLib, NetlistBuilder};
///
/// let lib = GateLib::tsmc90();
/// let mut b = NetlistBuilder::new("buf");
/// let a = b.input("a");
/// let y = b.net("y");
/// b.buf(y, a, &lib);
/// let netlist = b.build()?;
/// let v = a4a_netlist::verilog::emit(&netlist);
/// assert!(v.contains("module buf"));
/// assert!(v.contains("assign y = a;"));
/// # Ok::<(), a4a_netlist::NetlistError>(())
/// ```
pub fn emit(netlist: &Netlist) -> String {
    let mut out = String::new();
    let ident = |n: NetId| sanitise(&netlist.net(n).name);

    let inputs: Vec<String> = netlist.inputs().iter().map(|&n| ident(n)).collect();
    let driven: Vec<String> = netlist
        .net_ids()
        .filter(|&n| !netlist.net(n).is_input)
        .map(ident)
        .collect();

    let _ = writeln!(out, "// Generated by a4a-netlist");
    let _ = writeln!(
        out,
        "module {} ({});",
        sanitise(netlist.name()),
        inputs
            .iter()
            .cloned()
            .chain(driven.iter().cloned())
            .collect::<Vec<_>>()
            .join(", ")
    );
    for i in &inputs {
        let _ = writeln!(out, "  input {i};");
    }
    for o in &driven {
        let _ = writeln!(out, "  output {o};");
    }

    let mut instance = 0usize;
    for gid in netlist.gate_ids() {
        let gate = netlist.gate(gid);
        let pin_names: Vec<String> = gate.pins.iter().map(|&p| ident(p)).collect();
        let out_name = ident(gate.output);
        match &gate.kind {
            GateKind::Complex(expr) => {
                let _ = writeln!(
                    out,
                    "  assign {out_name} = {};",
                    verilog_expr(expr, &pin_names)
                );
            }
            GateKind::GeneralizedC { set, reset } => {
                instance += 1;
                let _ = writeln!(
                    out,
                    "  gc_element #(.ID({instance})) gc{instance} (.set_in({}), .reset_in({}), .q({out_name}));",
                    verilog_expr(set, &pin_names),
                    verilog_expr(reset, &pin_names)
                );
            }
            GateKind::MutexHalf => {
                instance += 1;
                let _ = writeln!(
                    out,
                    "  mutex_half mh{instance} (.req({}), .other_grant({}), .grant({out_name}));",
                    pin_names[0], pin_names[1]
                );
            }
        }
    }
    let _ = writeln!(out, "endmodule");
    out.push('\n');
    out.push_str(PRIMITIVES);
    out
}

/// Behavioural primitive definitions appended to every emitted file.
const PRIMITIVES: &str = "\
module gc_element #(parameter ID = 0) (input set_in, input reset_in, output reg q);
  initial q = 1'b0;
  always @(set_in or reset_in)
    if (set_in) q <= 1'b1;
    else if (reset_in) q <= 1'b0;
endmodule

module mutex_half (input req, input other_grant, output grant);
  assign grant = req & ~other_grant;
endmodule
";

fn verilog_expr(expr: &Expr, pins: &[String]) -> String {
    render(expr, pins, 0)
}

fn render(expr: &Expr, pins: &[String], prec: u8) -> String {
    match expr {
        Expr::Const(v) => if *v { "1'b1" } else { "1'b0" }.to_string(),
        Expr::Var(i) => pins.get(*i).cloned().unwrap_or_else(|| format!("pin{i}")),
        Expr::Not(e) => format!("~{}", render(e, pins, 3)),
        Expr::And(es) => {
            let body = es
                .iter()
                .map(|e| render(e, pins, 2))
                .collect::<Vec<_>>()
                .join(" & ");
            if prec > 2 {
                format!("({body})")
            } else {
                body
            }
        }
        Expr::Or(es) => {
            let body = es
                .iter()
                .map(|e| render(e, pins, 1))
                .collect::<Vec<_>>()
                .join(" | ");
            if prec > 1 {
                format!("({body})")
            } else {
                body
            }
        }
    }
}

fn sanitise(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateLib, NetlistBuilder};

    #[test]
    fn emits_complex_gc_and_mutex() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("top");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        let q = b.net("q");
        let g1 = b.net("g1");
        let g2 = b.net("g2");
        b.complex(
            y,
            &[a, c],
            Expr::or(vec![Expr::var(0), Expr::not(Expr::var(1))]),
            &lib,
        );
        b.c_element(q, &[a, c], &lib);
        b.mutex(g1, g2, a, c, &lib);
        let n = b.build().unwrap();
        let v = emit(&n);
        assert!(v.contains("module top (a, c, y, q, g1, g2);"));
        assert!(v.contains("assign y = a | ~c;"));
        assert!(v.contains("gc_element"));
        assert!(v.contains("mutex_half"));
        assert!(v.contains("module gc_element"), "primitives appended");
    }

    #[test]
    fn sanitises_awkward_names() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("9bad name");
        let a = b.input("a+b");
        let y = b.net("1y");
        b.buf(y, a, &lib);
        let n = b.build().unwrap();
        let v = emit(&n);
        assert!(v.contains("module n9bad_name"));
        assert!(v.contains("a_b"));
        assert!(v.contains("n1y"));
    }

    #[test]
    fn constants_render() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("konst");
        let y = b.net("y");
        b.complex(y, &[], Expr::constant(true), &lib);
        let n = b.build().unwrap();
        let v = emit(&n);
        assert!(v.contains("assign y = 1'b1;"));
    }
}
