//! Static path analysis — the PrimeTime stand-in used to report the
//! synthesised controllers' input→output delays.
//!
//! Combinational cones are walked as DAGs; state-holding elements
//! (generalized-C, mutex) and feedback edges cut paths, contributing
//! their own delay as endpoints/startpoints, exactly like registers in
//! conventional STA. Delays use each gate's worst (rise) arc.

use a4a_sim::Time;

use crate::{GateKind, NetId, Netlist};

/// One timing path: the nets along it and the accumulated delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingPath {
    /// Nets from startpoint to endpoint.
    pub nets: Vec<NetId>,
    /// Sum of gate delays along the path.
    pub delay: Time,
}

impl TimingPath {
    /// Renders the path as `a -> b -> c`.
    pub fn render(&self, netlist: &Netlist) -> String {
        self.nets
            .iter()
            .map(|&n| netlist.net(n).name.clone())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// The worst (longest-delay) path ending at each net, considering
/// state-holding gate outputs and primary inputs as startpoints.
///
/// Returns `None` for primary inputs (no path ends there).
pub fn worst_path_to(netlist: &Netlist, target: NetId) -> Option<TimingPath> {
    fn walk(netlist: &Netlist, net: NetId, path: &mut Vec<NetId>) -> Option<TimingPath> {
        if path.contains(&net) {
            // Feedback edge: cut here; the loop net is a startpoint.
            return Some(TimingPath {
                nets: vec![net],
                delay: Time::ZERO,
            });
        }
        let gate_id = netlist.driver(net)?;
        let gate = netlist.gate(gate_id);
        let own = gate.delay.rise;
        // State-holding gates: the path starts at this element's clock-
        // to-output arc.
        let combinational = matches!(gate.kind, GateKind::Complex(_));
        if !combinational || gate.pins.is_empty() {
            return Some(TimingPath {
                nets: vec![net],
                delay: own,
            });
        }
        path.push(net);
        let mut best: Option<TimingPath> = None;
        for &p in &gate.pins {
            let sub = walk(netlist, p, path).unwrap_or(TimingPath {
                nets: vec![p],
                delay: Time::ZERO,
            });
            if best.as_ref().map(|b| sub.delay > b.delay).unwrap_or(true) {
                best = Some(sub);
            }
        }
        path.pop();
        let mut result = best.expect("gate has pins");
        result.nets.push(net);
        result.delay += own;
        Some(result)
    }
    walk(netlist, target, &mut Vec::new())
}

/// A timing report: the worst path to every driven net, sorted by delay
/// (critical path first).
pub fn report(netlist: &Netlist) -> Vec<TimingPath> {
    let mut paths: Vec<TimingPath> = netlist
        .net_ids()
        .filter_map(|n| worst_path_to(netlist, n))
        .collect();
    paths.sort_by_key(|p| std::cmp::Reverse(p.delay));
    paths
}

/// The critical (longest) path of the whole netlist.
pub fn critical_path(netlist: &Netlist) -> Option<TimingPath> {
    report(netlist).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateLib, NetlistBuilder};
    use a4a_boolmin::Expr;

    #[test]
    fn chain_accumulates_delay() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.net("y");
        b.inv(x, a, &lib);
        b.inv(y, x, &lib);
        let n = b.build().unwrap();
        let px = worst_path_to(&n, x).unwrap();
        let py = worst_path_to(&n, y).unwrap();
        assert!(py.delay > px.delay);
        assert_eq!(py.nets.len(), 3, "a -> x -> y");
        assert_eq!(py.render(&n), "a -> x -> y");
    }

    #[test]
    fn inputs_have_no_path() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("i");
        let a = b.input("a");
        let y = b.net("y");
        b.buf(y, a, &lib);
        let n = b.build().unwrap();
        assert!(worst_path_to(&n, a).is_none());
    }

    #[test]
    fn state_elements_cut_paths() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("cut");
        let a = b.input("a");
        let c = b.input("c");
        let q = b.net("q");
        let y = b.net("y");
        b.c_element(q, &[a, c], &lib);
        b.inv(y, q, &lib);
        let n = b.build().unwrap();
        let p = worst_path_to(&n, y).unwrap();
        // Path starts at the C-element output, not at a/c.
        assert_eq!(p.nets.first(), Some(&q));
        assert_eq!(p.nets.len(), 2);
    }

    #[test]
    fn feedback_is_cut_not_looped() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("fb");
        let a = b.input("a");
        let y = b.net("y");
        // y = a | y : state-holding complex gate with feedback.
        b.complex(y, &[a, y], Expr::or(vec![Expr::var(0), Expr::var(1)]), &lib);
        let n = b.build().unwrap();
        let p = worst_path_to(&n, y).expect("terminates");
        assert!(p.delay > Time::ZERO);
    }

    #[test]
    fn critical_path_is_global_max() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("crit");
        let a = b.input("a");
        let mut prev = a;
        for i in 0..5 {
            let n = b.net(format!("n{i}"));
            b.inv(n, prev, &lib);
            prev = n;
        }
        let n = b.build().unwrap();
        let crit = critical_path(&n).unwrap();
        assert_eq!(crit.nets.len(), 6);
        for p in report(&n) {
            assert!(p.delay <= crit.delay);
        }
    }
}
