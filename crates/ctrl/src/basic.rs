//! The basic (single-phase) buck controller of Figure 2b.

use a4a_analog::SensorKind;
use a4a_sim::Time;

use crate::{AsyncTiming, BuckController, TimedCommand};

/// The basic buck controller: one phase, driven by UV/OC/ZC exactly as
/// the informal specification of Figure 2b describes —
///
/// * **no ZC**: UV → NMOS off, PMOS on; OC → PMOS off, NMOS on;
/// * **late ZC**: a ZC after the next UV changes nothing;
/// * **early ZC**: a ZC before the next UV turns the NMOS off and both
///   transistors stay off until UV.
///
/// Implemented as a one-stage instance of the asynchronous ring (a token
/// ring of length one degenerates into the basic controller; the HL/OV
/// machinery simply never triggers without those sensors).
///
/// # Examples
///
/// ```
/// use a4a_ctrl::{BasicBuckController, BuckController};
/// use a4a_analog::SensorKind;
/// use a4a_sim::Time;
///
/// let mut ctrl = BasicBuckController::new();
/// ctrl.on_wakeup(Time::from_ns(1.0));
/// ctrl.on_sensor(Time::from_ns(10.0), SensorKind::Uv, true);
/// ctrl.on_wakeup(Time::from_ns(20.0));
/// let cmds = ctrl.take_commands();
/// assert!(!cmds.is_empty(), "UV initiates the charging cycle");
/// ```
#[derive(Debug)]
pub struct BasicBuckController {
    inner: crate::AsyncController,
}

impl BasicBuckController {
    /// Creates the controller with default timing.
    pub fn new() -> Self {
        Self::with_timing(AsyncTiming::default())
    }

    /// Creates the controller with explicit timing.
    pub fn with_timing(timing: AsyncTiming) -> Self {
        BasicBuckController {
            inner: crate::AsyncController::new(1, timing),
        }
    }
}

impl Default for BasicBuckController {
    fn default() -> Self {
        Self::new()
    }
}

impl BuckController for BasicBuckController {
    fn phases(&self) -> usize {
        1
    }

    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        self.inner.on_sensor(t, kind, value);
    }

    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        self.inner.on_gate_ack(t, phase, pmos, value);
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn on_wakeup(&mut self, t: Time) {
        self.inner.on_wakeup(t);
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        self.inner.take_commands_into(out);
    }

    // `debug_tracks_into` deliberately keeps the empty default: the
    // single-phase wrapper exposes no internal tracks (same behaviour
    // as the String-era `debug_tracks`).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Loopback;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    /// The gate commands, as `(ns, pmos, value)`, of a run through
    /// `events`.
    fn run_scenario(events: &[(f64, SensorKind, bool)]) -> Vec<(f64, bool, bool)> {
        let mut lb = Loopback::new(BasicBuckController::new());
        for &(t, kind, v) in events {
            lb.sensor(ns(t), kind, v);
        }
        let last = events.last().map_or(0.0, |e| e.0) + 500.0;
        lb.run_until(ns(last));
        lb.gates()
            .into_iter()
            .map(|(t, _, pmos, value)| (t.as_ns(), pmos, value))
            .collect()
    }

    #[test]
    fn no_zc_scenario() {
        // UV → PMOS on; OC → PMOS off, NMOS on; next UV → NMOS off,
        // PMOS on.
        let log = run_scenario(&[
            (10.0, SensorKind::Uv, true),
            (200.0, SensorKind::Uv, false),
            (300.0, SensorKind::Oc(0), true),
            (400.0, SensorKind::Oc(0), false),
            (600.0, SensorKind::Uv, true),
        ]);
        let gp_on: Vec<f64> = log
            .iter()
            .filter(|(_, pmos, v)| *pmos && *v)
            .map(|(t, _, _)| *t)
            .collect();
        assert_eq!(gp_on.len(), 2, "two charging cycles: {log:?}");
        let gn_on = log.iter().filter(|(_, pmos, v)| !*pmos && *v).count();
        assert_eq!(gn_on, 1, "NMOS on after the first OC: {log:?}");
    }

    #[test]
    fn early_zc_scenario() {
        // ZC before the next UV: both off until UV.
        let log = run_scenario(&[
            (10.0, SensorKind::Uv, true),
            (200.0, SensorKind::Uv, false),
            (300.0, SensorKind::Oc(0), true),
            (400.0, SensorKind::Oc(0), false),
            (500.0, SensorKind::Zc(0), true),
            (520.0, SensorKind::Zc(0), false),
            (800.0, SensorKind::Uv, true),
        ]);
        // gn- (ZC) must precede the second gp+.
        let gn_off = log
            .iter()
            .find(|(_, pmos, v)| !*pmos && !*v)
            .expect("gn- on ZC");
        let second_gp_on = log
            .iter()
            .filter(|(_, pmos, v)| *pmos && *v)
            .nth(1)
            .expect("second cycle");
        assert!(gn_off.0 < second_gp_on.0, "{log:?}");
        assert!(second_gp_on.0 >= 800.0, "idle until the UV: {log:?}");
    }

    #[test]
    fn late_zc_changes_nothing() {
        // UV arrives while NMOS still on: recharge via break-before-make
        // without waiting for ZC.
        let log = run_scenario(&[
            (10.0, SensorKind::Uv, true),
            (250.0, SensorKind::Uv, false),
            (300.0, SensorKind::Oc(0), true),
            (340.0, SensorKind::Oc(0), false),
            (700.0, SensorKind::Uv, true),
        ]);
        let gp_on: Vec<f64> = log
            .iter()
            .filter(|(_, pmos, v)| *pmos && *v)
            .map(|(t, _, _)| *t)
            .collect();
        assert_eq!(gp_on.len(), 2, "{log:?}");
        assert!(gp_on[1] >= 700.0, "{log:?}");
        // Order per phase is alternating and safe.
        let mut gp = false;
        let mut gn = false;
        for &(t, pmos, v) in &log {
            if pmos {
                gp = v;
            } else {
                gn = v;
            }
            assert!(!(gp && gn), "short at {t}");
        }
    }
}
