use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use a4a_boolmin::Expr;
use a4a_sim::Time;

use crate::gate::{muller_c_functions, Delay, GateKind, GateLib};

/// Index of a net within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

/// Index of a gate within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A named wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Unique name.
    pub name: String,
    /// Whether the net is a primary input (driven by the environment).
    pub is_input: bool,
}

/// A gate instance: one output, ordered input pins, a kind, and delays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The net this gate drives.
    pub output: NetId,
    /// Input pins; pin `i` is expression variable `i` in the kind's
    /// functions.
    pub pins: Vec<NetId>,
    /// Functional kind.
    pub kind: GateKind,
    /// Propagation delays.
    pub delay: Delay,
}

/// Errors raised while assembling a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by two gates (or by a gate and the environment).
    MultipleDrivers {
        /// The over-driven net's name.
        net: String,
    },
    /// A non-input net has no driver.
    Undriven {
        /// The floating net's name.
        net: String,
    },
    /// A gate function references a pin index beyond its pin list.
    BadPinReference {
        /// The offending gate's output net name.
        gate_output: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net } => write!(f, "net {net:?} has multiple drivers"),
            NetlistError::Undriven { net } => write!(f, "net {net:?} has no driver"),
            NetlistError::BadPinReference { gate_output } => {
                write!(f, "gate driving {gate_output:?} references a missing pin")
            }
        }
    }
}

impl Error for NetlistError {}

/// An immutable gate-level circuit.
///
/// Built with [`NetlistBuilder`]; every net has exactly one driver (a
/// gate or the environment for primary inputs).
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) gates: Vec<Gate>,
    /// Driver gate per net (None for primary inputs).
    pub(crate) driver: Vec<Option<GateId>>,
    /// Gates fed by each net.
    pub(crate) fanout: Vec<Vec<GateId>>,
}

impl Netlist {
    /// Returns a builder.
    pub fn builder(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder::new(name)
    }

    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Total literal count over all gates (area proxy).
    pub fn literal_count(&self) -> u32 {
        self.gates
            .iter()
            .map(|g| match &g.kind {
                GateKind::Complex(e) => e.literal_count(),
                GateKind::GeneralizedC { set, reset } => {
                    set.literal_count() + reset.literal_count()
                }
                GateKind::MutexHalf => 2,
            })
            .sum()
    }

    /// Net metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Gate metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Finds a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Iterates over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Primary input nets.
    pub fn inputs(&self) -> Vec<NetId> {
        self.net_ids()
            .filter(|&n| self.nets[n.index()].is_input)
            .collect()
    }

    /// The gate driving `net`, if any (primary inputs have none).
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        self.driver[net.index()]
    }

    /// Gates with `net` on an input pin.
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        &self.fanout[net.index()]
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist {} ({} nets, {} gates, {} literals)",
            self.name,
            self.net_count(),
            self.gate_count(),
            self.literal_count()
        )
    }
}

/// Incremental builder for [`Netlist`].
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    by_name: HashMap<String, NetId>,
}

impl NetlistBuilder {
    /// Creates a builder for a circuit called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    fn add_net(&mut self, name: String, is_input: bool) -> NetId {
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate net name {name:?}"
        );
        let id = NetId(self.nets.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nets.push(Net { name, is_input });
        id
    }

    /// Declares a primary input net.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        self.add_net(name.into(), true)
    }

    /// Declares an internal/output net (to be driven by a gate).
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        self.add_net(name.into(), false)
    }

    /// Adds a gate of arbitrary kind with an explicit delay.
    pub fn gate_with_delay(
        &mut self,
        output: NetId,
        pins: &[NetId],
        kind: GateKind,
        delay: Delay,
    ) -> GateId {
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            output,
            pins: pins.to_vec(),
            kind,
            delay,
        });
        id
    }

    /// Adds a gate, deriving its delay from `lib`.
    pub fn gate(&mut self, output: NetId, pins: &[NetId], kind: GateKind, lib: &GateLib) -> GateId {
        let delay = lib.delay_for(&kind);
        self.gate_with_delay(output, pins, kind, delay)
    }

    /// Adds a combinational complex gate computing `expr` over `pins`.
    pub fn complex(&mut self, output: NetId, pins: &[NetId], expr: Expr, lib: &GateLib) -> GateId {
        self.gate(output, pins, GateKind::Complex(expr), lib)
    }

    /// Adds an inverter.
    pub fn inv(&mut self, output: NetId, input: NetId, lib: &GateLib) -> GateId {
        self.complex(output, &[input], Expr::not(Expr::var(0)), lib)
    }

    /// Adds a buffer.
    pub fn buf(&mut self, output: NetId, input: NetId, lib: &GateLib) -> GateId {
        self.complex(output, &[input], Expr::var(0), lib)
    }

    /// Adds a delay line: a buffer with an explicit propagation delay,
    /// used to model matched-delay timers.
    pub fn delay_line(&mut self, output: NetId, input: NetId, delay: Time) -> GateId {
        self.gate_with_delay(
            output,
            &[input],
            GateKind::Complex(Expr::var(0)),
            Delay::symmetric(delay),
        )
    }

    /// Adds a Muller C-element over `pins`.
    pub fn c_element(&mut self, output: NetId, pins: &[NetId], lib: &GateLib) -> GateId {
        let (set, reset) = muller_c_functions(pins.len());
        self.gate(output, pins, GateKind::GeneralizedC { set, reset }, lib)
    }

    /// Adds a generalized C-element with explicit set/reset functions
    /// over `pins`.
    pub fn generalized_c(
        &mut self,
        output: NetId,
        pins: &[NetId],
        set: Expr,
        reset: Expr,
        lib: &GateLib,
    ) -> GateId {
        self.gate(output, pins, GateKind::GeneralizedC { set, reset }, lib)
    }

    /// Adds a mutual-exclusion element: grants `g1`/`g2` arbitrate
    /// requests `r1`/`r2`.
    pub fn mutex(
        &mut self,
        g1: NetId,
        g2: NetId,
        r1: NetId,
        r2: NetId,
        lib: &GateLib,
    ) -> (GateId, GateId) {
        let a = self.gate(g1, &[r1, g2], GateKind::MutexHalf, lib);
        let b = self.gate(g2, &[r2, g1], GateKind::MutexHalf, lib);
        (a, b)
    }

    /// Finalises the netlist, checking driver consistency.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::MultipleDrivers`] if a net is driven twice or an
    ///   input net is driven by a gate;
    /// * [`NetlistError::Undriven`] if a non-input net has no driver;
    /// * [`NetlistError::BadPinReference`] if a gate function references
    ///   a pin beyond its pin list.
    pub fn build(self) -> Result<Netlist, NetlistError> {
        let mut driver: Vec<Option<GateId>> = vec![None; self.nets.len()];
        let mut fanout: Vec<Vec<GateId>> = vec![Vec::new(); self.nets.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let gid = GateId(i as u32);
            let out = g.output.index();
            if self.nets[out].is_input || driver[out].is_some() {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[out].name.clone(),
                });
            }
            driver[out] = Some(gid);
            for &p in &g.pins {
                fanout[p.index()].push(gid);
            }
            let max_var = match &g.kind {
                GateKind::Complex(e) => e.support().into_iter().max(),
                GateKind::GeneralizedC { set, reset } => {
                    set.support().into_iter().chain(reset.support()).max()
                }
                GateKind::MutexHalf => Some(1),
            };
            if let Some(v) = max_var {
                if v >= g.pins.len() {
                    return Err(NetlistError::BadPinReference {
                        gate_output: self.nets[out].name.clone(),
                    });
                }
            }
        }
        for (i, net) in self.nets.iter().enumerate() {
            if !net.is_input && driver[i].is_none() {
                return Err(NetlistError::Undriven {
                    net: net.name.clone(),
                });
            }
        }
        Ok(Netlist {
            name: self.name,
            nets: self.nets,
            gates: self.gates,
            driver,
            fanout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_inverter_chain() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.net("y");
        b.inv(x, a, &lib);
        b.inv(y, x, &lib);
        let n = b.build().unwrap();
        assert_eq!(n.net_count(), 3);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.inputs(), vec![a]);
        assert_eq!(n.driver(a), None);
        assert!(n.driver(x).is_some());
        assert_eq!(n.fanout(a).len(), 1);
        assert_eq!(n.net_by_name("y"), Some(y));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.net("floating");
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            NetlistError::Undriven {
                net: "floating".into()
            }
        );
    }

    #[test]
    fn double_driver_rejected() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let x = b.net("x");
        b.inv(x, a, &lib);
        b.buf(x, a, &lib);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn driving_an_input_rejected() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let c = b.input("c");
        b.inv(a, c, &lib);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn bad_pin_reference_rejected() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let x = b.net("x");
        // expression references var 1 but only one pin given
        b.complex(x, &[a], Expr::var(1), &lib);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::BadPinReference { .. }));
    }

    #[test]
    fn mutex_builds_two_cross_coupled_halves() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("mx");
        let r1 = b.input("r1");
        let r2 = b.input("r2");
        let g1 = b.net("g1");
        let g2 = b.net("g2");
        b.mutex(g1, g2, r1, r2, &lib);
        let n = b.build().unwrap();
        assert_eq!(n.gate_count(), 2);
        let ga = n.gate(n.driver(g1).unwrap());
        assert_eq!(ga.pins, vec![r1, g2]);
    }

    #[test]
    fn literal_count_sums() {
        let lib = GateLib::tsmc90();
        let mut b = NetlistBuilder::new("lc");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.net("x");
        let y = b.net("y");
        b.complex(
            x,
            &[a, c],
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            &lib,
        );
        b.c_element(y, &[a, c], &lib);
        let n = b.build().unwrap();
        assert_eq!(n.literal_count(), 2 + 4);
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_net_panics() {
        let mut b = NetlistBuilder::new("dup");
        b.input("a");
        b.net("a");
    }
}
