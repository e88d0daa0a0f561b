//! A digital-only driver: a controller whose gate commands come back as
//! acknowledgements after a fixed gate round trip.

use std::collections::VecDeque;

use a4a_analog::SensorKind;
use a4a_sim::Time;

use crate::{BuckController, Command, GateTiming, TimedCommand};

/// A controller in a loop with an ideal power stage. Every gate command
/// is acknowledged one gate round trip after it leaves the controller
/// (`driver_delay + ack_delay` of [`GateTiming::default`], 2.5 ns);
/// sensor events come from the caller, and every command is logged.
///
/// Inputs reach the controller in the order the [`BuckController`]
/// contract sets out, the one the mixed-signal testbench keeps.
///
/// # Examples
///
/// ```
/// use a4a_analog::SensorKind;
/// use a4a_ctrl::{AsyncController, AsyncTiming, Loopback};
/// use a4a_sim::Time;
///
/// let mut lb = Loopback::new(AsyncController::new(4, AsyncTiming::default()));
/// lb.sensor(Time::from_ns(10.0), SensorKind::Uv, true);
/// lb.run_until(Time::from_ns(20.0));
/// let (t, phase, pmos, value) = lb.gates()[0];
/// assert_eq!((phase, pmos, value), (0, true, true), "gp+ on the token holder");
/// assert_eq!(t, Time::from_ns(10.0) + AsyncTiming::default().uv_path());
/// ```
#[derive(Debug)]
pub struct Loopback<C> {
    ctrl: C,
    round_trip: Time,
    /// Acknowledgements not yet delivered, in time order.
    acks: VecDeque<(Time, usize, bool, bool)>,
    log: Vec<TimedCommand>,
}

impl<C: BuckController> Loopback<C> {
    /// Puts `ctrl` in the loop.
    pub fn new(ctrl: C) -> Self {
        let gate = GateTiming::default();
        Loopback {
            ctrl,
            round_trip: gate.driver_delay + gate.ack_delay,
            acks: VecDeque::new(),
            log: Vec::new(),
        }
    }

    /// The controller.
    pub fn controller(&self) -> &C {
        &self.ctrl
    }

    /// Every command so far, in the order the controller issued them.
    pub fn log(&self) -> &[TimedCommand] {
        &self.log
    }

    /// The gate commands of the log as `(time, phase, pmos, value)`.
    pub fn gates(&self) -> Vec<(Time, usize, bool, bool)> {
        self.log
            .iter()
            .filter_map(|c| match c.command {
                Command::Gate { phase, pmos, value } => Some((c.time, phase, pmos, value)),
                Command::OvMode(_) => None,
            })
            .collect()
    }

    /// Delivers every wakeup and acknowledgement due by `t`, in time
    /// order; at equal times the acknowledgement goes first.
    pub fn run_until(&mut self, t: Time) {
        loop {
            let ack = self.acks.front().copied().filter(|a| a.0 <= t);
            let wake = self.ctrl.next_wakeup().filter(|&tw| tw <= t);
            match (ack, wake) {
                (Some((ta, phase, pmos, value)), tw) if tw.is_none_or(|tw| ta <= tw) => {
                    self.acks.pop_front();
                    // Catch a sleeping controller up to just before the ack.
                    self.ctrl
                        .on_wakeup(Time::from_fs(ta.as_fs().saturating_sub(1)));
                    self.ctrl.on_gate_ack(ta, phase, pmos, value);
                }
                (_, Some(tw)) => self.ctrl.on_wakeup(tw),
                _ => return,
            }
            self.collect();
        }
    }

    /// Delivers a sensor change at `t`, after every wakeup and
    /// acknowledgement up to it.
    pub fn sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        self.run_until(t);
        self.ctrl.on_wakeup(t);
        self.ctrl.on_sensor(t, kind, value);
        self.collect();
    }

    /// Logs the controller's new commands and queues an acknowledgement
    /// for each gate command.
    fn collect(&mut self) {
        let start = self.log.len();
        self.ctrl.take_commands_into(&mut self.log);
        for cmd in &self.log[start..] {
            if let Command::Gate { phase, pmos, value } = cmd.command {
                let at = cmd.time + self.round_trip;
                let i = self.acks.partition_point(|a| a.0 <= at);
                self.acks.insert(i, (at, phase, pmos, value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyncController, SyncParams};

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    /// Wakes at scripted times, issuing a scripted command at each, and
    /// logs the wakeups and acknowledgements it sees.
    struct Script {
        wakeups: VecDeque<(Time, Command)>,
        out: Vec<TimedCommand>,
        seen: Vec<(&'static str, Time)>,
    }

    impl BuckController for Script {
        fn phases(&self) -> usize {
            2
        }

        fn on_sensor(&mut self, _: Time, _: SensorKind, _: bool) {}

        fn on_gate_ack(&mut self, t: Time, _: usize, _: bool, _: bool) {
            self.seen.push(("ack", t));
        }

        fn next_wakeup(&self) -> Option<Time> {
            self.wakeups.front().map(|w| w.0)
        }

        fn on_wakeup(&mut self, t: Time) {
            while let Some((time, command)) = self.wakeups.pop_front() {
                if time > t {
                    self.wakeups.push_front((time, command));
                    break;
                }
                self.seen.push(("wakeup", time));
                self.out.push(TimedCommand { time, command });
            }
        }

        fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
            out.append(&mut self.out);
        }
    }

    /// Table I's HL case: the token holder's gp+ leaves at 11.02 ns and
    /// is acknowledged at 13.52 ns, after a drafted stage's wakeup at
    /// 11.87 ns. The wakeup goes first. A wakeup at the ack's own time
    /// goes after it.
    #[test]
    fn an_ack_due_after_a_pending_wakeup_goes_second() {
        let gp_on = |phase| Command::Gate {
            phase,
            pmos: true,
            value: true,
        };
        let mut lb = Loopback::new(Script {
            wakeups: VecDeque::from([
                (ns(11.02), gp_on(0)),
                (ns(11.87), gp_on(1)),
                (ns(13.52), Command::OvMode(false)),
            ]),
            out: Vec::new(),
            seen: Vec::new(),
        });
        lb.run_until(ns(30.0));
        assert_eq!(
            lb.controller().seen,
            [
                ("wakeup", ns(11.02)),
                ("wakeup", ns(11.87)),
                ("ack", ns(13.52)),
                ("wakeup", ns(13.52)),
                ("ack", ns(14.37)),
            ]
        );
    }

    /// At 1 GHz a gp+ leaves half a period after an edge and its ack
    /// lands on the femtosecond of an edge 2.5 ns later, while the
    /// controller sleeps. The ack goes first, after every edge before it,
    /// so that edge samples it: PMOS on is seen two edges later, at 6 ns,
    /// and with OC pending gp- follows PMIN + PEXT (60 ns) after that.
    /// Catching up through the ack's own edge would make it 67.5 ns; not
    /// catching up, so that idle edges before the ack sample it, 64.5 ns.
    #[test]
    fn an_ack_on_an_edge_goes_first_after_the_edges_before_it() {
        let params = SyncParams::at_mhz(1000.0);
        let period = params.period();
        let mut lb = Loopback::new(SyncController::new(1, params));
        lb.sensor(ns(0.2), SensorKind::Uv, true);
        lb.sensor(ns(0.3), SensorKind::Oc(0), true);
        lb.run_until(ns(100.0));
        let gates = lb.gates();
        assert_eq!(gates[0], (ns(2.5), 0, true, true), "{gates:?}");
        let gate = GateTiming::default();
        let ack = gates[0].0 + gate.driver_delay + gate.ack_delay;
        assert_eq!(ack, period * 5, "the ack lands on an edge");
        assert_eq!(gates[1], (ns(66.5), 0, true, false), "{gates:?}");
    }
}
