use a4a_analog::{SensorKind, TrackId};
use a4a_sim::Time;

/// An action requested by a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Drive a power transistor of one phase (`pmos == true` selects the
    /// PMOS rail; `value` is the *on* state, so `gp`/`gn` in the paper's
    /// active-high convention).
    Gate {
        /// Target phase.
        phase: usize,
        /// `true` = PMOS (`gp`), `false` = NMOS (`gn`).
        pmos: bool,
        /// New on/off state.
        value: bool,
    },
    /// Switch the sensor bank's current references between normal and OV
    /// mode (§II: `I_max`/`I_0` vs `I_0`/`I_neg`).
    OvMode(bool),
}

/// A time-stamped [`Command`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedCommand {
    /// When the command leaves the controller (gate-driver delay not yet
    /// included).
    pub time: Time,
    /// The action.
    pub command: Command,
}

/// A digital buck controller as seen by the mixed-signal testbench.
///
/// A driver delivers sensor events ([`BuckController::on_sensor`]) and
/// gate acknowledgements ([`BuckController::on_gate_ack`]), advances the
/// controller's internal timers/clock ([`BuckController::on_wakeup`] at
/// [`BuckController::next_wakeup`] deadlines), and drains the produced
/// [`TimedCommand`]s after every interaction.
///
/// Inputs arrive in time order:
///
/// * a wakeup strictly before an acknowledgement goes first;
/// * at equal times the acknowledgement goes first, with the controller
///   caught up to 1 fs before it (`on_wakeup(t - 1 fs)`);
/// * a sensor event comes after every wakeup up to its own time
///   (`on_wakeup(t)` just before `on_sensor(t, ..)`).
///
/// The testbench keeps this order, and so does [`crate::Loopback`], the
/// digital-only driver that acknowledges every gate command itself.
pub trait BuckController {
    /// Number of buck phases driven.
    fn phases(&self) -> usize;

    /// Delivers a sensor output change at its (sub-step interpolated)
    /// event time.
    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool);

    /// Delivers a gate acknowledgement: the power transistor of `phase`
    /// crossed its threshold and is now on (`value == true`) or off.
    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool);

    /// The controller's next internal deadline (clock edge or timer),
    /// if any. A controller may sleep through instants that change
    /// nothing, such as a synchronous controller's idle clock edges, and
    /// report only the first one that can change it.
    fn next_wakeup(&self) -> Option<Time>;

    /// Advances internal time to `t`, processing due clock edges and
    /// timers, including any it slept through. A driver calls it before
    /// each sensor event and each gate acknowledgement as the delivery
    /// order above says, so a sleeping controller is caught up before
    /// every input.
    fn on_wakeup(&mut self, t: Time);

    /// Drains the commands produced since the last call, appending them
    /// to `out` in time order, so the co-simulation loop can reuse one
    /// buffer across windows.
    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>);

    /// [`BuckController::take_commands_into`] into a new Vec.
    fn take_commands(&mut self) -> Vec<TimedCommand> {
        let mut out = Vec::new();
        self.take_commands_into(&mut out);
        out
    }

    /// Appends the controller's internal debug tracks for waveform
    /// recording (e.g. `act`, `get & !pass`) as interned-id/value
    /// pairs. Track names must be interned once at construction
    /// ([`TrackId::intern`]) so this per-window call never allocates.
    /// Default: none.
    fn debug_tracks_into(&self, _out: &mut Vec<(TrackId, bool)>) {}
}

impl<T: BuckController + ?Sized> BuckController for Box<T> {
    fn phases(&self) -> usize {
        (**self).phases()
    }

    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        (**self).on_sensor(t, kind, value);
    }

    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        (**self).on_gate_ack(t, phase, pmos, value);
    }

    fn next_wakeup(&self) -> Option<Time> {
        (**self).next_wakeup()
    }

    fn on_wakeup(&mut self, t: Time) {
        (**self).on_wakeup(t);
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        (**self).take_commands_into(out);
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        (**self).debug_tracks_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_equality() {
        let a = Command::Gate {
            phase: 1,
            pmos: true,
            value: true,
        };
        assert_eq!(
            a,
            Command::Gate {
                phase: 1,
                pmos: true,
                value: true
            }
        );
        assert_ne!(a, Command::OvMode(true));
    }

    #[test]
    fn timed_command_carries_time() {
        let tc = TimedCommand {
            time: Time::from_ns(3.0),
            command: Command::OvMode(false),
        };
        assert_eq!(tc.time, Time::from_ns(3.0));
    }
}
