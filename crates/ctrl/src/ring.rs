//! The asynchronous token-ring controller (Figure 5b/5c).
//!
//! One identical phase controller per buck phase, connected in a ring.
//! The token holder is the *active* stage: its MODE_CTRL arms a WAITX2
//! on the UV/OV comparators and reacts within nanoseconds; an early
//! acknowledge lets the token move on (after the TOKEN_TIMER minimum
//! dwell) so the next stage can help while this one is still charging.
//! HL activates every stage at once through the WAIT + opportunistic
//! MERGE path. Charging follows the basic-buck pattern with
//! break-before-make enforced through the gate acknowledges, PMIN/NMIN
//! minimum on-times, and the PEXT first-cycle extension (detected by a
//! WAIT01 on UV).
//!
//! The model is event-driven: module decision delays come from
//! [`AsyncTiming`] (calibrated against the synthesised gate-level
//! modules) and there is no clock anywhere — reaction latency is purely
//! the sum of the modules a signal actually traverses.

use a4a_analog::{SensorKind, TrackId};
use a4a_sim::{Scheduler, Time};

use crate::{AsyncTiming, BuckController, Command, TimedCommand};

/// Charging state of one phase (the CHARGE_CTRL + delay-controller
/// portion of Figure 5c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Both transistors off.
    Idle,
    /// `gp` commanded on, waiting for `gp_ack` rise.
    TurnPmosOn,
    /// PMOS conducting; waiting for OC (and the minimum on-time).
    PmosOn,
    /// `gp` commanded off, waiting for `gp_ack` fall (break before
    /// make).
    TurnPmosOff,
    /// `gn` commanded on, waiting for `gn_ack` rise.
    TurnNmosOn,
    /// NMOS conducting; waiting for ZC or for the next charge demand.
    NmosOn,
    /// `gn` commanded off, waiting for `gn_ack` fall.
    TurnNmosOff {
        /// Start a new PMOS cycle after the ack (late/no-ZC scenario),
        /// or finish to idle (early-ZC / OV-resolved scenario).
        recharge: bool,
    },
}

/// Internal scheduled actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    /// Activation (token arrival or HL merge) delivered to a stage.
    Arm { phase: usize },
    /// The token moves to the next stage.
    PassToken,
    /// CHARGE_CTRL begins a UV charging cycle.
    StartCycle { phase: usize },
    /// CHARGE_CTRL begins OV sinking.
    StartOv { phase: usize },
    /// A gate command leaves the controller.
    Gate { phase: usize, pmos: bool, value: bool },
    /// The sensor references switch between normal and OV mode.
    OvMode(bool),
    /// PMOS minimum on-time expired: act on a pending OC.
    PminDone { phase: usize },
    /// NMOS minimum on-time expired: act on a pending ZC.
    NminDone { phase: usize },
}

#[derive(Debug, Clone)]
struct Phase {
    state: PState,
    /// Activation pending (token/HL), not yet consumed by a demand.
    armed: bool,
    /// A StartCycle/StartOv is in flight for this stage.
    start_pending: bool,
    /// A demand arrived while the stage was mid-cycle; recharge when the
    /// current cycle completes.
    recharge_queued: bool,
    gp: bool,
    gn: bool,
    gp_ack: bool,
    gn_ack: bool,
    /// Earliest time `gp` may be commanded off.
    pmos_min_until: Time,
    /// Earliest time `gn` may be commanded off.
    nmos_min_until: Time,
    /// OC seen while PMOS on (pending if before the minimum on-time).
    oc_pending: bool,
    /// ZC seen while NMOS on.
    zc_pending: bool,
    /// RWAIT cancelled: ZC no longer ends this NMOS phase.
    zc_cancelled: bool,
    /// Next cycle is the first after a UV detection: extend PMIN by
    /// PEXT (the WAIT01 + EXT_DELAY_CTRL path).
    first_cycle: bool,
    /// Sinking energy in OV mode.
    ov_sink: bool,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            state: PState::Idle,
            armed: false,
            start_pending: false,
            recharge_queued: false,
            gp: false,
            gn: false,
            gp_ack: false,
            gn_ack: false,
            pmos_min_until: Time::ZERO,
            nmos_min_until: Time::ZERO,
            oc_pending: false,
            zc_pending: false,
            zc_cancelled: false,
            first_cycle: true,
            ov_sink: false,
        }
    }
}

/// The asynchronous token-ring controller. See the module documentation.
///
/// # Examples
///
/// ```
/// use a4a_ctrl::{AsyncController, AsyncTiming, BuckController};
/// use a4a_analog::SensorKind;
/// use a4a_sim::Time;
///
/// let mut ctrl = AsyncController::new(4, AsyncTiming::default());
/// ctrl.on_wakeup(Time::from_ns(1.0));              // arm stage 0
/// ctrl.on_sensor(Time::from_ns(10.0), SensorKind::Uv, true);
/// ctrl.on_wakeup(Time::from_ns(12.0));
/// let cmds = ctrl.take_commands();
/// assert!(!cmds.is_empty(), "UV triggers charging within ~1 ns");
/// ```
#[derive(Debug)]
pub struct AsyncController {
    timing: AsyncTiming,
    phases: Vec<Phase>,
    sched: Scheduler<Act>,
    out: Vec<TimedCommand>,
    // Sensor levels.
    hl: bool,
    uv: bool,
    ov: bool,
    // Token state.
    token_holder: usize,
    token_arrived_at: Time,
    token_pass_scheduled: bool,
    ov_mode: bool,
    /// Interned name of the `get & !pass` debug track.
    track_get_not_pass: TrackId,
}

impl AsyncController {
    /// Creates the controller for `phases` buck phases. The token starts
    /// at phase 0, which is armed immediately.
    ///
    /// # Panics
    ///
    /// Panics when `phases` is zero.
    pub fn new(phases: usize, timing: AsyncTiming) -> Self {
        assert!(phases > 0, "at least one phase required");
        let mut ctrl = AsyncController {
            timing,
            phases: (0..phases).map(|_| Phase::new()).collect(),
            sched: Scheduler::new(),
            out: Vec::new(),
            hl: false,
            uv: false,
            ov: false,
            token_holder: 0,
            token_arrived_at: Time::ZERO,
            token_pass_scheduled: false,
            ov_mode: false,
            track_get_not_pass: TrackId::intern("get & !pass"),
        };
        ctrl.sched.schedule(Time::ZERO, Act::Arm { phase: 0 });
        ctrl
    }

    /// The configured timing.
    pub fn timing(&self) -> &AsyncTiming {
        &self.timing
    }

    /// The stage currently holding the token.
    pub fn token_holder(&self) -> usize {
        self.token_holder
    }

    fn emit(&mut self, t: Time, command: Command) {
        self.out.push(TimedCommand { time: t, command });
    }

    /// A stage with a pending activation reacts to a pending demand
    /// (the WAITX2 grant of MODE_CTRL).
    fn check_demand(&mut self, t: Time, phase: usize) {
        let p = &self.phases[phase];
        if !p.armed || p.start_pending {
            return;
        }
        let is_holder = phase == self.token_holder;
        if self.ov && is_holder {
            // OV grant: switch the references, sink energy.
            self.phases[phase].armed = false;
            self.phases[phase].start_pending = true;
            let t_mode = t + self.timing.d_waitx + self.timing.d_mode + self.timing.d_mode_switch;
            self.sched.schedule(t_mode, Act::OvMode(true));
            self.sched
                .schedule(t + self.timing.ov_path(), Act::StartOv { phase });
            self.early_ack_token(t, phase);
        } else if self.uv {
            self.phases[phase].armed = false;
            self.phases[phase].start_pending = true;
            self.sched
                .schedule(t + self.timing.uv_path(), Act::StartCycle { phase });
            self.early_ack_token(t, phase);
        }
    }

    /// MODE_CTRL's early acknowledge: the token may move once its
    /// minimum dwell expires.
    fn early_ack_token(&mut self, t: Time, phase: usize) {
        if phase != self.token_holder || self.token_pass_scheduled {
            return;
        }
        self.token_pass_scheduled = true;
        let earliest = self
            .token_arrived_at
            .saturating_add(self.timing.policy.activation_period);
        let at = earliest.max(t + self.timing.d_token);
        self.sched.schedule(at, Act::PassToken);
    }

    /// CHARGE_CTRL entry: begin a charging cycle respecting break
    /// before make.
    fn start_cycle(&mut self, t: Time, phase: usize) {
        self.phases[phase].start_pending = false;
        match self.phases[phase].state {
            PState::Idle => {
                self.apply_gate(t, phase, true, true);
            }
            PState::NmosOn => {
                // Late/no-ZC scenario: cancel the ZC wait (RWAIT) and
                // hand over once OC releases and NMIN expires.
                self.phases[phase].recharge_queued = true;
                self.maybe_recharge(t, phase);
            }
            // Mid-transition: queue a recharge for when the cycle
            // settles.
            _ => {
                self.phases[phase].recharge_queued = true;
            }
        }
    }

    /// OV sinking: make sure the NMOS conducts until the negative
    /// current limit.
    fn start_ov(&mut self, t: Time, phase: usize) {
        self.phases[phase].start_pending = false;
        self.phases[phase].ov_sink = true;
        match self.phases[phase].state {
            PState::Idle => {
                self.phases[phase].state = PState::TurnNmosOn;
                self.sched.schedule(
                    t,
                    Act::Gate {
                        phase,
                        pmos: false,
                        value: true,
                    },
                );
            }
            PState::PmosOn => {
                // The reference switch makes OC fire at I_0; the regular
                // OC path turns the PMOS off. Nothing extra to do here.
            }
            PState::NmosOn => {
                // Already sinking; the new ZC reference (I_neg) applies.
            }
            _ => {}
        }
    }

    /// Moves the phase into the state the gate command starts, and
    /// emits the command at `t`.
    fn apply_gate(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        {
            let p = &mut self.phases[phase];
            match (pmos, value) {
                (true, true) => {
                    debug_assert!(!p.gn && !p.gn_ack, "break-before-make violated");
                    p.gp = true;
                    p.state = PState::TurnPmosOn;
                }
                (true, false) => {
                    p.gp = false;
                    p.state = PState::TurnPmosOff;
                }
                (false, true) => {
                    debug_assert!(!p.gp && !p.gp_ack, "break-before-make violated");
                    p.gn = true;
                    p.state = PState::TurnNmosOn;
                }
                (false, false) => {
                    p.gn = false;
                    if !matches!(p.state, PState::TurnNmosOff { .. }) {
                        p.state = PState::TurnNmosOff { recharge: false };
                    }
                }
            }
        }
        self.emit(t, Command::Gate { phase, pmos, value });
    }

    /// PMOS conducting phase reached both OC and its minimum on-time:
    /// turn it off.
    fn finish_pmos(&mut self, t: Time, phase: usize) {
        if self.phases[phase].state != PState::PmosOn {
            return;
        }
        let at = t.max(self.phases[phase].pmos_min_until);
        if at > t {
            self.sched.schedule(at, Act::PminDone { phase });
            return;
        }
        self.sched.schedule(
            t,
            Act::Gate {
                phase,
                pmos: true,
                value: false,
            },
        );
        // State changes when the command is processed.
        self.phases[phase].state = PState::TurnPmosOff;
        self.phases[phase].gp = false;
    }

    /// NMOS conducting phase reached both ZC and its minimum on-time:
    /// turn it off.
    fn finish_nmos(&mut self, t: Time, phase: usize) {
        if self.phases[phase].state != PState::NmosOn {
            return;
        }
        if self.phases[phase].zc_cancelled {
            return;
        }
        let at = t.max(self.phases[phase].nmos_min_until);
        if at > t {
            self.sched.schedule(at, Act::NminDone { phase });
            return;
        }
        self.phases[phase].state = PState::TurnNmosOff { recharge: false };
        self.phases[phase].gn = false;
        self.sched.schedule(
            t,
            Act::Gate {
                phase,
                pmos: false,
                value: false,
            },
        );
    }

    /// Figure 2b's late/no-ZC scenario: while UV stays asserted, the
    /// NMOS phase hands straight back to a new PMOS cycle (observing the
    /// NMOS minimum on-time), keeping the coil in continuous conduction.
    /// The WAIT2 on the OC condition gates this: a new PMOS cycle only
    /// begins once the over-current has released (current back below
    /// `I_max`), which is what bounds the peak current.
    fn maybe_recharge(&mut self, t: Time, phase: usize) {
        let p = &self.phases[phase];
        if p.state != PState::NmosOn
            || !self.uv
            || p.ov_sink
            || p.zc_cancelled
            || p.oc_pending
        {
            return;
        }
        self.phases[phase].recharge_queued = false;
        let p = &self.phases[phase];
        let at = (t + self.timing.uv_path()).max(p.nmos_min_until);
        self.phases[phase].zc_cancelled = true;
        self.phases[phase].state = PState::TurnNmosOff { recharge: true };
        self.phases[phase].gn = false;
        self.sched.schedule(
            at,
            Act::Gate {
                phase,
                pmos: false,
                value: false,
            },
        );
    }

    fn process(&mut self, t: Time, act: Act) {
        match act {
            Act::Arm { phase } => {
                self.phases[phase].armed = true;
                self.check_demand(t, phase);
            }
            Act::PassToken => {
                self.token_pass_scheduled = false;
                self.token_holder = (self.token_holder + 1) % self.phases.len();
                self.token_arrived_at = t;
                let phase = self.token_holder;
                self.sched.schedule(t, Act::Arm { phase });
            }
            Act::StartCycle { phase } => self.start_cycle(t, phase),
            Act::StartOv { phase } => self.start_ov(t, phase),
            Act::Gate { phase, pmos, value } => {
                // Commands scheduled from timer paths: reflect them in
                // the machine state and emit.
                let already = if pmos {
                    self.phases[phase].gp == value
                        && matches!(
                            self.phases[phase].state,
                            PState::TurnPmosOn | PState::TurnPmosOff
                        )
                } else {
                    false
                };
                if !already {
                    self.apply_gate(t, phase, pmos, value);
                } else {
                    self.emit(t, Command::Gate { phase, pmos, value });
                }
            }
            Act::OvMode(on) => {
                if self.ov_mode != on {
                    self.ov_mode = on;
                    self.emit(t, Command::OvMode(on));
                }
            }
            Act::PminDone { phase } => {
                if self.phases[phase].oc_pending {
                    self.finish_pmos(t, phase);
                }
            }
            Act::NminDone { phase } => {
                if self.phases[phase].zc_pending {
                    self.finish_nmos(t, phase);
                }
            }
        }
    }
}

impl BuckController for AsyncController {
    fn phases(&self) -> usize {
        self.phases.len()
    }

    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        match kind {
            SensorKind::Hl => {
                self.hl = value;
                if value {
                    // WAIT + MERGE + TOKEN_CTRL: every stage is drafted.
                    let at = t + self.timing.d_wait + self.timing.d_merge + self.timing.d_token;
                    for phase in 0..self.phases.len() {
                        self.sched.schedule(at, Act::Arm { phase });
                    }
                }
            }
            SensorKind::Uv => {
                self.uv = value;
                if value {
                    for phase in 0..self.phases.len() {
                        self.phases[phase].first_cycle = true;
                    }
                    self.check_demand(t, self.token_holder);
                    for phase in 0..self.phases.len() {
                        // HL-armed stages also see the demand; stages
                        // still free-wheeling recharge directly (no ZC).
                        self.check_demand(t, phase);
                        self.maybe_recharge(t, phase);
                    }
                }
            }
            SensorKind::Ov => {
                self.ov = value;
                if value {
                    self.check_demand(t, self.token_holder);
                } else {
                    // WAITX2 releases once the winner drops: back to
                    // normal references.
                    if self.ov_mode {
                        self.sched
                            .schedule(t + self.timing.d_mode, Act::OvMode(false));
                    }
                    for p in &mut self.phases {
                        p.ov_sink = false;
                    }
                }
            }
            SensorKind::Oc(phase) => {
                if phase < self.phases.len() {
                    self.phases[phase].oc_pending = value;
                    if !value {
                        // WAIT2 release phase: a deferred recharge may
                        // now proceed.
                        self.maybe_recharge(t, phase);
                    }
                    if value && self.phases[phase].state == PState::PmosOn {
                        let when = t + self.timing.oc_path();
                        let min = self.phases[phase].pmos_min_until;
                        if when >= min {
                            self.phases[phase].state = PState::TurnPmosOff;
                            self.phases[phase].gp = false;
                            self.sched.schedule(
                                when,
                                Act::Gate {
                                    phase,
                                    pmos: true,
                                    value: false,
                                },
                            );
                        } else {
                            self.sched.schedule(min, Act::PminDone { phase });
                        }
                    }
                }
            }
            SensorKind::Zc(phase) => {
                if phase < self.phases.len() {
                    self.phases[phase].zc_pending = value;
                    if value
                        && self.phases[phase].state == PState::NmosOn
                        && !self.phases[phase].zc_cancelled
                    {
                        let when = t + self.timing.zc_path();
                        let min = self.phases[phase].nmos_min_until;
                        if when >= min {
                            self.phases[phase].state = PState::TurnNmosOff { recharge: false };
                            self.phases[phase].gn = false;
                            self.sched.schedule(
                                when,
                                Act::Gate {
                                    phase,
                                    pmos: false,
                                    value: false,
                                },
                            );
                        } else {
                            self.sched.schedule(min, Act::NminDone { phase });
                        }
                    }
                }
            }
        }
    }

    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        if pmos {
            self.phases[phase].gp_ack = value;
        } else {
            self.phases[phase].gn_ack = value;
        }
        let state = self.phases[phase].state;
        match (state, pmos, value) {
            (PState::TurnPmosOn, true, true) => {
                let ext = if self.phases[phase].first_cycle {
                    self.phases[phase].first_cycle = false;
                    self.timing.policy.pext
                } else {
                    Time::ZERO
                };
                self.phases[phase].state = PState::PmosOn;
                self.phases[phase].pmos_min_until = t + self.timing.policy.pmin + ext;
                if self.phases[phase].oc_pending {
                    // OC already latched (e.g. OV-mode reference with
                    // positive current): finish after the minimum.
                    self.sched.schedule(
                        self.phases[phase].pmos_min_until,
                        Act::PminDone { phase },
                    );
                }
            }
            (PState::TurnPmosOff, true, false) => {
                // Break before make done: NMOS on.
                self.phases[phase].state = PState::TurnNmosOn;
                self.phases[phase].gn = true;
                self.sched.schedule(
                    t + self.timing.d_charge,
                    Act::Gate {
                        phase,
                        pmos: false,
                        value: true,
                    },
                );
            }
            (PState::TurnNmosOn, false, true) => {
                self.phases[phase].state = PState::NmosOn;
                self.phases[phase].nmos_min_until = t + self.timing.policy.nmin;
                self.phases[phase].zc_cancelled = false;
                if self.phases[phase].zc_pending {
                    self.sched.schedule(
                        self.phases[phase].nmos_min_until,
                        Act::NminDone { phase },
                    );
                }
                // The no-ZC scenario of Figure 2b: a still-asserted UV
                // takes the phase straight back into charging.
                self.maybe_recharge(t, phase);
            }
            (PState::TurnNmosOff { recharge }, false, false) => {
                // A queued demand expires if the UV condition has
                // cleared meanwhile (the WAITX2 grant was released).
                let recharge = recharge || (self.phases[phase].recharge_queued && self.uv);
                self.phases[phase].recharge_queued = false;
                if recharge {
                    self.phases[phase].state = PState::TurnPmosOn;
                    self.phases[phase].gp = true;
                    self.sched.schedule(
                        t + self.timing.d_charge,
                        Act::Gate {
                            phase,
                            pmos: true,
                            value: true,
                        },
                    );
                } else {
                    self.phases[phase].state = PState::Idle;
                    // A queued activation may start a new cycle now.
                    self.check_demand(t, phase);
                }
            }
            _ => {}
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.sched.next_time()
    }

    fn on_wakeup(&mut self, t: Time) {
        while let Some(at) = self.sched.next_time() {
            if at > t {
                break;
            }
            let (time, act) = self.sched.pop().expect("peeked nonempty");
            self.process(time, act);
        }
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        let start = out.len();
        out.append(&mut self.out);
        out[start..].sort_by_key(|c| c.time);
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        out.push((
            self.track_get_not_pass,
            self.phases[self.token_holder].armed || self.token_pass_scheduled,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Loopback;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    fn harness(phases: usize) -> Loopback<AsyncController> {
        Loopback::new(AsyncController::new(phases, AsyncTiming::default()))
    }

    #[test]
    fn uv_starts_pmos_within_nanoseconds() {
        let mut h = harness(4);
        h.run_until(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.run_until(ns(20.0));
        let gates = h.gates();
        assert!(!gates.is_empty(), "no gate commands");
        let (t, phase, pmos, value) = gates[0];
        assert_eq!((phase, pmos, value), (0, true, true), "{gates:?}");
        let latency = (t - ns(10.0)).as_ns();
        assert!(
            (latency - 1.02).abs() < 0.01,
            "UV reaction should be ~1.02ns, got {latency}"
        );
    }

    #[test]
    fn oc_turns_pmos_off_after_pmin() {
        let mut h = harness(1);
        h.run_until(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.run_until(ns(20.0));
        // PMOS acked at ~13.5ns; min-until = ack + pmin + pext (first
        // cycle) = 13.5 + 20 + 40 = ~73.5ns.
        h.sensor(ns(30.0), SensorKind::Oc(0), true);
        h.run_until(ns(300.0));
        let gates = h.gates();
        let off = gates
            .iter()
            .find(|(_, _, pmos, value)| *pmos && !*value)
            .expect("gp- emitted");
        assert!(
            off.0 > ns(70.0),
            "PEXT+PMIN must hold the PMOS on: {gates:?}"
        );
        // And NMOS follows after break-before-make.
        let gn_on = gates
            .iter()
            .find(|(_, _, pmos, value)| !*pmos && *value)
            .expect("gn+ emitted");
        assert!(gn_on.0 > off.0);
    }

    #[test]
    fn oc_reaction_fast_on_second_cycle() {
        let mut h = harness(1);
        h.run_until(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.run_until(ns(400.0));
        h.sensor(ns(400.0), SensorKind::Oc(0), true);
        h.run_until(ns(600.0));
        // Complete the first cycle: ZC ends the NMOS phase.
        h.sensor(ns(600.0), SensorKind::Oc(0), false);
        h.sensor(ns(650.0), SensorKind::Zc(0), true);
        h.run_until(ns(800.0));
        // Second cycle (uv still high, re-arm via token wrap is complex;
        // just verify ZC produced gn-).
        let gates = h.gates();
        assert!(
            gates.iter().any(|(_, _, pmos, value)| !*pmos && !*value),
            "gn- after ZC: {gates:?}"
        );
    }

    #[test]
    fn zc_reaction_is_031ns() {
        let mut h = harness(1);
        h.run_until(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.run_until(ns(40.0));
        // UV clears while charging so the NMOS phase is not taken over
        // by a recharge; OC at 200 (past the PEXT window, ~73.5).
        h.sensor(ns(150.0), SensorKind::Uv, false);
        h.sensor(ns(200.0), SensorKind::Oc(0), true);
        h.run_until(ns(300.0));
        h.sensor(ns(300.0), SensorKind::Oc(0), false);
        // NMOS is on by ~208; nmin until ~228.
        let zc_t = ns(400.0);
        h.sensor(zc_t, SensorKind::Zc(0), true);
        h.run_until(ns(500.0));
        let gates = h.gates();
        let gn_off = gates
            .iter()
            .find(|(t, _, pmos, value)| !*pmos && !*value && *t >= ns(400.0))
            .expect("gn- after ZC");
        let latency = (gn_off.0 - ns(400.0)).as_ns();
        assert!(
            (latency - 0.31).abs() < 0.01,
            "ZC reaction should be ~0.31ns, got {latency}: {gates:?}"
        );
    }

    #[test]
    fn hl_arms_all_phases() {
        let mut h = harness(4);
        h.run_until(ns(1.0));
        // HL and UV assert together (HL implies UV).
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.run_until(ns(11.0));
        h.sensor(ns(10.5), SensorKind::Hl, true);
        h.run_until(ns(40.0));
        let gates = h.gates();
        let on_phases: std::collections::HashSet<usize> = gates
            .iter()
            .filter(|(_, _, pmos, value)| *pmos && *value)
            .map(|(_, phase, _, _)| *phase)
            .collect();
        assert_eq!(on_phases.len(), 4, "all phases drafted: {gates:?}");
    }

    #[test]
    fn token_moves_after_dwell() {
        let mut h = harness(4);
        h.run_until(ns(1.0));
        assert_eq!(h.controller().token_holder(), 0);
        h.sensor(ns(10.0), SensorKind::Uv, true);
        // Token must not move before the 250 ns dwell.
        h.run_until(ns(200.0));
        assert_eq!(h.controller().token_holder(), 0);
        h.run_until(ns(300.0));
        assert_eq!(h.controller().token_holder(), 1, "token moved after dwell");
        // UV persists: phase 1 charges too.
        h.run_until(ns(320.0));
        let gates = h.gates();
        assert!(
            gates
                .iter()
                .any(|(_, phase, pmos, value)| *phase == 1 && *pmos && *value),
            "{gates:?}"
        );
    }

    #[test]
    fn ov_switches_references_and_sinks() {
        let mut h = harness(2);
        h.run_until(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Ov, true);
        h.run_until(ns(30.0));
        let ov_cmd = h
            .log()
            .iter()
            .find(|c| c.command == Command::OvMode(true))
            .expect("OV mode command");
        let latency = ov_cmd.time.as_ns() - 10.0;
        assert!(latency < 1.0, "reference switch is fast: {latency}ns");
        // NMOS sinks.
        let gates = h.gates();
        assert!(
            gates
                .iter()
                .any(|(_, phase, pmos, value)| *phase == 0 && !*pmos && *value),
            "{gates:?}"
        );
        // OV clears: references restored.
        h.sensor(ns(100.0), SensorKind::Ov, false);
        h.run_until(ns(120.0));
        assert!(h.log().iter().any(|c| c.command == Command::OvMode(false)));
    }

    #[test]
    fn no_short_circuit_command_sequences() {
        // Sweep a busy scenario and check gp/gn are never both on
        // (after accounting for command ordering per phase).
        let mut h = harness(2);
        h.run_until(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.sensor(ns(10.2), SensorKind::Hl, true);
        h.run_until(ns(200.0));
        h.sensor(ns(200.0), SensorKind::Oc(0), true);
        h.sensor(ns(210.0), SensorKind::Oc(1), true);
        h.run_until(ns(400.0));
        h.sensor(ns(400.0), SensorKind::Zc(0), true);
        h.run_until(ns(600.0));
        let mut gp = [false; 2];
        let mut gn = [false; 2];
        for (t, phase, pmos, value) in h.gates() {
            if pmos {
                gp[phase] = value;
            } else {
                gn[phase] = value;
            }
            assert!(
                !(gp[phase] && gn[phase]),
                "short circuit on phase {phase} at {t}"
            );
        }
    }
}
