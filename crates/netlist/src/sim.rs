//! Deterministic event-driven simulation of a [`Netlist`] with inertial
//! delays and glitch observation.
//!
//! Every net carries a three-valued [`Logic`] level. A gate whose inputs
//! change schedules its new output value after the gate delay; if the
//! inputs revert before the delay elapses the pending transition is
//! cancelled and recorded as a *glitch* — this is how hazards in
//! non-speed-independent circuits are observed, mirroring the paper's
//! "absence of hazards" verification at gate level.

use a4a_sim::{EventKey, Logic, Scheduler, Time};

use crate::{GateId, NetId, Netlist};

/// A cancelled (filtered) pulse: evidence of a hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Glitch {
    /// When the pulse was cancelled.
    pub time: Time,
    /// The net whose pending transition was revoked.
    pub net: NetId,
}

/// A recorded net transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// When the net changed.
    pub time: Time,
    /// The net.
    pub net: NetId,
    /// The new level.
    pub value: Logic,
}

/// Event-driven simulator over a borrowed [`Netlist`].
///
/// See the crate-level example for typical use. All nets start at
/// [`Logic::X`]; drive primary inputs with [`GateSim::set_input`] and
/// pre-load state-holding outputs with [`GateSim::init_net`], then
/// [`GateSim::settle`].
#[derive(Debug)]
pub struct GateSim<'a> {
    netlist: &'a Netlist,
    values: Vec<Logic>,
    sched: Scheduler<(NetId, Logic)>,
    pending: Vec<Option<(EventKey, Logic)>>,
    glitches: Vec<Glitch>,
    trace: Vec<Transition>,
    tracing: bool,
}

impl<'a> GateSim<'a> {
    /// Creates a simulator with every net at `X` and time zero.
    pub fn new(netlist: &'a Netlist) -> Self {
        GateSim {
            netlist,
            values: vec![Logic::X; netlist.net_count()],
            sched: Scheduler::new(),
            pending: vec![None; netlist.net_count()],
            glitches: Vec::new(),
            trace: Vec::new(),
            tracing: false,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// The level of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the netlist.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Glitches observed so far.
    pub fn glitches(&self) -> &[Glitch] {
        &self.glitches
    }

    /// Recorded transitions (empty unless tracing is enabled).
    pub fn trace(&self) -> &[Transition] {
        &self.trace
    }

    /// Enables or disables transition recording.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Forces a primary input to `value` at the current time and
    /// propagates.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: impl Into<Logic>) {
        assert!(
            self.netlist.net(net).is_input,
            "{} is not a primary input",
            self.netlist.net(net).name
        );
        self.apply(net, value.into());
    }

    /// Pre-loads a net's level without an event (initialisation of
    /// state-holding outputs before time starts).
    pub fn init_net(&mut self, net: NetId, value: impl Into<Logic>) {
        self.values[net.index()] = value.into();
        for &g in self.netlist.fanout(net) {
            self.reevaluate(g);
        }
    }

    /// Processes events until the queue drains or the next event is past
    /// `deadline`. Returns `true` when the circuit is quiescent (queue
    /// empty) at return.
    pub fn settle(&mut self, deadline: Time) -> bool {
        while let Some(t) = self.sched.peek_time() {
            if t > deadline {
                return false;
            }
            self.step();
        }
        true
    }

    /// Processes a single event; returns the transition, or `None` when
    /// the queue is empty.
    pub fn step(&mut self) -> Option<Transition> {
        let (time, (net, value)) = self.sched.pop()?;
        self.pending[net.index()] = None;
        self.apply_at(net, value, time);
        Some(Transition { time, net, value })
    }

    /// Sets an input and measures the delay until any of `watch` changes.
    ///
    /// Returns the first watched net to change and the elapsed time, or
    /// `None` if the circuit settles (or passes `deadline`) without any
    /// watched net changing.
    pub fn measure_reaction(
        &mut self,
        input: NetId,
        value: impl Into<Logic>,
        watch: &[NetId],
        deadline: Time,
    ) -> Option<(NetId, Time)> {
        let t0 = self.now();
        let before: Vec<Logic> = watch.iter().map(|&n| self.value(n)).collect();
        self.set_input(input, value);
        loop {
            match self.sched.peek_time() {
                None => return None,
                Some(t) if t > deadline => return None,
                Some(_) => {}
            }
            let tr = self.step().expect("peeked nonempty");
            if let Some(pos) = watch.iter().position(|&n| n == tr.net) {
                if before[pos] != tr.value {
                    return Some((tr.net, tr.time - t0));
                }
            }
        }
    }

    fn apply(&mut self, net: NetId, value: Logic) {
        let now = self.now();
        self.apply_at(net, value, now);
    }

    fn apply_at(&mut self, net: NetId, value: Logic, time: Time) {
        if self.values[net.index()] == value {
            return;
        }
        self.values[net.index()] = value;
        if self.tracing {
            self.trace.push(Transition { time, net, value });
        }
        for &g in self.netlist.fanout(net) {
            self.reevaluate(g);
        }
    }

    fn reevaluate(&mut self, gate_id: GateId) {
        let gate = self.netlist.gate(gate_id);
        let out = gate.output;
        let current = self.values[out.index()];
        let target = self.eval_gate(gate_id, current);

        let pending = self.pending[out.index()];
        match pending {
            Some((key, scheduled)) => {
                if scheduled == target {
                    return; // already heading there
                }
                // Revoke the pulse.
                self.sched.cancel(key);
                self.pending[out.index()] = None;
                self.glitches.push(Glitch {
                    time: self.now(),
                    net: out,
                });
                if target != current {
                    self.schedule_transition(gate_id, target);
                }
            }
            None => {
                if target != current {
                    self.schedule_transition(gate_id, target);
                }
            }
        }
    }

    fn schedule_transition(&mut self, gate_id: GateId, target: Logic) {
        let gate = self.netlist.gate(gate_id);
        let delay = gate.delay.towards(target.to_bool(true));
        let key = self.sched.schedule_after(delay, (gate.output, target));
        self.pending[gate.output.index()] = Some((key, target));
    }

    /// Three-valued gate evaluation: the output is known only when both
    /// completions of the unknown inputs agree.
    fn eval_gate(&self, gate_id: GateId, current: Logic) -> Logic {
        let gate = self.netlist.gate(gate_id);
        let pins: Vec<Logic> = gate.pins.iter().map(|&p| self.values[p.index()]).collect();
        let any_x = pins.iter().any(|l| l.is_x()) || current.is_x();
        if !any_x {
            let bits: Vec<bool> = pins.iter().map(|l| l.is_one()).collect();
            return Logic::from(gate.kind.eval(&bits, current.is_one()));
        }
        // Evaluate all completions of the unknowns (bounded: gates are
        // small). If every completion agrees, the output is known.
        let x_positions: Vec<usize> = pins
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_x())
            .map(|(i, _)| i)
            .collect();
        let cur_options: &[bool] = if current.is_x() {
            &[false, true]
        } else if current.is_one() {
            &[true]
        } else {
            &[false]
        };
        let mut result: Option<bool> = None;
        let combos = 1u32 << x_positions.len();
        for combo in 0..combos {
            let mut bits: Vec<bool> = pins.iter().map(|l| l.is_one()).collect();
            for (k, &pos) in x_positions.iter().enumerate() {
                bits[pos] = (combo >> k) & 1 == 1;
            }
            for &cur in cur_options {
                let v = gate.kind.eval(&bits, cur);
                match result {
                    None => result = Some(v),
                    Some(prev) if prev != v => return Logic::X,
                    Some(_) => {}
                }
            }
        }
        result.map(Logic::from).unwrap_or(Logic::X)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateLib, NetlistBuilder};
    use a4a_boolmin::Expr;

    fn lib() -> GateLib {
        GateLib::tsmc90()
    }

    #[test]
    fn inverter_propagates_with_delay() {
        let lib = lib();
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.net("y");
        b.inv(y, a, &lib);
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.set_input(a, false);
        assert!(sim.settle(Time::from_ns(1.0)));
        assert_eq!(sim.value(y), Logic::One);
        let t0 = sim.now();
        sim.set_input(a, true);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::Zero);
        assert!(sim.now() > t0);
    }

    #[test]
    fn x_propagates_until_inputs_known() {
        let lib = lib();
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        b.complex(
            y,
            &[a, c],
            Expr::and(vec![Expr::var(0), Expr::var(1)]),
            &lib,
        );
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        assert_eq!(sim.value(y), Logic::X);
        // A controlling 0 resolves the AND even with the other input X.
        sim.set_input(a, false);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::Zero);
        sim.set_input(a, true);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::X, "other input still unknown");
        sim.set_input(c, true);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn c_element_holds_state() {
        let lib = lib();
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        b.c_element(y, &[a, c], &lib);
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.set_input(a, false);
        sim.set_input(c, false);
        sim.init_net(y, false);
        sim.settle(Time::from_ns(10.0));
        sim.set_input(a, true);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::Zero, "one input is not enough");
        sim.set_input(c, true);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::One);
        sim.set_input(a, false);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::One, "holds until both drop");
        sim.set_input(c, false);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn short_pulse_is_filtered_and_counted() {
        let mut b = NetlistBuilder::new("pulse");
        let a = b.input("a");
        let y = b.net("y");
        b.delay_line(y, a, Time::from_ns(1.0));
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.set_input(a, false);
        sim.settle(Time::from_us(1.0));
        // 100 ps pulse through a 1 ns inertial delay: filtered.
        sim.set_input(a, true);
        let t = sim.now() + Time::from_ps(100.0);
        // Advance time by scheduling nothing; emulate with settle deadline
        // then a direct input flip at the later time via a helper event.
        while sim.sched.peek_time().map(|pt| pt <= t) == Some(true) {
            sim.step();
        }
        // Manually advance the scheduler clock by scheduling a no-op.
        sim.sched.schedule(t, (a, Logic::Zero));
        sim.step(); // consumes the helper event, setting a low again
        sim.pending[a.index()] = None;
        sim.settle(Time::from_us(2.0));
        assert_eq!(sim.value(y), Logic::Zero, "pulse never reached output");
        assert_eq!(sim.glitches().len(), 1);
        assert_eq!(sim.glitches()[0].net, y);
    }

    #[test]
    fn mutex_grants_one_side() {
        let lib = lib();
        let mut b = NetlistBuilder::new("mx");
        let r1 = b.input("r1");
        let r2 = b.input("r2");
        let g1 = b.net("g1");
        let g2 = b.net("g2");
        b.mutex(g1, g2, r1, r2, &lib);
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.set_input(r1, false);
        sim.set_input(r2, false);
        sim.init_net(g1, false);
        sim.init_net(g2, false);
        sim.settle(Time::from_ns(10.0));
        // Both request in the same instant.
        sim.set_input(r1, true);
        sim.set_input(r2, true);
        sim.settle(Time::from_ns(50.0));
        let granted = [sim.value(g1), sim.value(g2)];
        assert_eq!(
            granted.iter().filter(|l| l.is_one()).count(),
            1,
            "exactly one grant: {granted:?}"
        );
        // Release the winner; the loser gets the grant.
        if sim.value(g1).is_one() {
            sim.set_input(r1, false);
        } else {
            sim.set_input(r2, false);
        }
        sim.settle(Time::from_ns(50.0));
        assert_eq!(
            [sim.value(g1), sim.value(g2)]
                .iter()
                .filter(|l| l.is_one())
                .count(),
            1
        );
    }

    #[test]
    fn tracing_records_transitions() {
        let lib = lib();
        let mut b = NetlistBuilder::new("tr");
        let a = b.input("a");
        let y = b.net("y");
        b.buf(y, a, &lib);
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.set_tracing(true);
        sim.set_input(a, true);
        sim.settle(Time::from_ns(10.0));
        assert!(sim
            .trace()
            .iter()
            .any(|t| t.net == y && t.value == Logic::One));
    }

    #[test]
    fn measure_reaction_reports_path_delay() {
        let lib = lib();
        let mut b = NetlistBuilder::new("path");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.net("y");
        b.inv(x, a, &lib);
        b.inv(y, x, &lib);
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.set_input(a, false);
        sim.settle(Time::from_ns(10.0));
        let (net, dt) = sim
            .measure_reaction(a, true, &[y], Time::from_ns(100.0))
            .expect("output toggles");
        assert_eq!(net, y);
        // Two inverter delays: rise then fall (or vice versa).
        assert!(
            dt > Time::from_ps(50.0) && dt < Time::from_ps(200.0),
            "{dt}"
        );
    }

    #[test]
    fn measure_reaction_none_when_no_effect() {
        let lib = lib();
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.net("y");
        b.buf(y, c, &lib);
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.set_input(a, false);
        sim.set_input(c, false);
        sim.settle(Time::from_ns(10.0));
        assert_eq!(
            sim.measure_reaction(a, true, &[y], Time::from_ns(100.0)),
            None
        );
    }

    #[test]
    fn settle_deadline_respected() {
        let lib = lib();
        let mut b = NetlistBuilder::new("osc");
        let y = b.net("y");
        // Ring oscillator: y = !y.
        b.inv(y, y, &lib);
        let n = b.build().unwrap();
        let mut sim = GateSim::new(&n);
        sim.init_net(y, false);
        let settled = sim.settle(Time::from_ns(5.0));
        assert!(!settled, "oscillator never settles");
        assert!(sim.now() <= Time::from_ns(5.0) + Time::from_ps(100.0));
    }
}
