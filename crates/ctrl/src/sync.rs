//! The conventional synchronous controller (Figure 5a).
//!
//! Every asynchronous input — the five sensor conditions and the gate
//! acknowledges — passes through a 2-flop synchroniser clocked by the
//! fast `fsm_clk`; the per-phase FSMs are clocked by the same clock and
//! register their outputs on the opposite edge (+½ period). A slow
//! `phase_clk` (one pulse per [`crate::PolicyTiming::activation_period`])
//! rotates the round-robin phase activator. Each phase FSM steps the
//! same charging machine as the asynchronous ring (`charge.rs`); only
//! the *when* differs: every decision pays the sample-and-synchronise
//! latency of ~2.5–3.5 clock periods, and an unserved activation pulse
//! is simply lost when the activator moves on.

use a4a_analog::{SensorKind, TrackId};
use a4a_sim::Time;

use crate::charge::{Charge, PState};
use crate::params::SYNC_STAGES;
use crate::{BuckController, Command, PolicyTiming, SyncParams, TimedCommand};

/// A 2-flop synchroniser pipeline for one asynchronous input bit.
#[derive(Debug, Clone)]
struct Synchroniser {
    raw: bool,
    /// The raw value at the previous clock edge; a difference marks a
    /// marginal (metastability-prone) capture window.
    prev_raw: bool,
    stages: Vec<bool>,
}

impl Synchroniser {
    fn new() -> Synchroniser {
        Synchroniser {
            raw: false,
            prev_raw: false,
            stages: vec![false; SYNC_STAGES as usize],
        }
    }

    /// Samples the raw input on a clock edge, shifting the pipeline.
    /// A marginal capture (the raw value changed since the last edge)
    /// may go metastable and resolve to the *old* value, costing one
    /// extra period — the paper's footnote 1.
    fn clock(&mut self, meta: &mut Option<a4a_a2a::MetaState>) {
        for i in (1..self.stages.len()).rev() {
            self.stages[i] = self.stages[i - 1];
        }
        let marginal = self.raw != self.prev_raw;
        self.prev_raw = self.raw;
        if let Some(first) = self.stages.first_mut() {
            let mut captured = self.raw;
            if marginal && captured != *first {
                if let Some(state) = meta {
                    if state.resolution_delay() > a4a_sim::Time::ZERO {
                        captured = *first; // resolved the wrong way
                    }
                }
            }
            *first = captured;
        }
    }

    /// The synchronised value visible to the FSM.
    fn out(&self) -> bool {
        *self.stages.last().unwrap_or(&self.raw)
    }

    /// Whether a clock edge leaves the pipeline as it is: every stage
    /// holds the raw value. (The last edge saw that raw value too: any
    /// input makes the next edge due.)
    fn settled(&self) -> bool {
        self.stages.iter().all(|&s| s == self.raw)
    }
}

#[derive(Debug, Clone)]
struct Phase {
    charge: Charge,
    armed: bool,
    gp_ack: Synchroniser,
    gn_ack: Synchroniser,
    oc: Synchroniser,
    zc: Synchroniser,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            charge: Charge::new(),
            armed: false,
            gp_ack: Synchroniser::new(),
            gn_ack: Synchroniser::new(),
            oc: Synchroniser::new(),
            zc: Synchroniser::new(),
        }
    }

    /// Whether all four of the phase's synchronisers are settled.
    fn settled(&self) -> bool {
        self.gp_ack.settled() && self.gn_ack.settled() && self.oc.settled() && self.zc.settled()
    }
}

/// The synchronous round-robin multiphase buck controller.
///
/// # Examples
///
/// ```
/// use a4a_ctrl::{BuckController, SyncController, SyncParams};
/// use a4a_sim::Time;
///
/// let mut ctrl = SyncController::new(4, SyncParams::at_mhz(333.0));
/// // The controller only acts on clock edges.
/// let first_edge = ctrl.next_wakeup().expect("clocked");
/// assert_eq!(first_edge, ctrl.params().period());
/// ctrl.on_wakeup(first_edge);
/// assert!(ctrl.take_commands().is_empty(), "nothing to do yet");
/// ```
#[derive(Debug)]
pub struct SyncController {
    params: SyncParams,
    policy: PolicyTiming,
    phases: Vec<Phase>,
    hl: Synchroniser,
    uv: Synchroniser,
    ov: Synchroniser,
    /// Rising edge of the synchronised HL (to draft all phases once).
    hl_prev: bool,
    uv_prev: bool,
    /// The next clock edge.
    next_edge: Time,
    /// The first edge that can change the controller (see
    /// [`SyncController::first_live_edge`]); the edges before it are
    /// idle and only count down `act_divider`.
    due: Time,
    /// Clock edges until the next phase-activator pulse.
    act_divider: u64,
    act_reload: u64,
    act_pointer: usize,
    ov_mode: bool,
    meta: Option<a4a_a2a::MetaState>,
    out: Vec<TimedCommand>,
    /// Interned name of the `act` debug track.
    track_act: TrackId,
}

impl SyncController {
    /// Creates the controller for `phases` buck phases.
    ///
    /// # Panics
    ///
    /// Panics when `phases` is zero.
    pub fn new(phases: usize, params: SyncParams) -> Self {
        assert!(phases > 0, "at least one phase required");
        let period = params.period();
        let policy = PolicyTiming::default();
        let reload = policy.activation_period.as_fs().div_ceil(period.as_fs());
        let mut phase_vec: Vec<Phase> = (0..phases).map(|_| Phase::new()).collect();
        // Phase 0 starts active (mirrors the token starting at stage 0).
        phase_vec[0].armed = true;
        SyncController {
            phases: phase_vec,
            hl: Synchroniser::new(),
            uv: Synchroniser::new(),
            ov: Synchroniser::new(),
            hl_prev: false,
            uv_prev: false,
            next_edge: period,
            due: period,
            act_divider: reload.max(1),
            act_reload: reload.max(1),
            act_pointer: 0,
            ov_mode: false,
            meta: if params.meta.probability > 0.0 {
                Some(params.meta.clone().into_state())
            } else {
                None
            },
            out: Vec::new(),
            track_act: TrackId::intern("act"),
            params,
            policy,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &SyncParams {
        &self.params
    }

    /// The phase currently selected by the round-robin activator.
    pub fn active_phase(&self) -> usize {
        self.act_pointer
    }

    /// Emits a command at the output-register instant (edge + ½ period).
    fn emit(&mut self, edge: Time, command: Command) {
        self.out.push(TimedCommand {
            time: edge + self.params.period() / 2,
            command,
        });
    }

    /// The first edge at or after `at`.
    fn edge_from(&self, at: Time) -> Time {
        if at <= self.next_edge {
            return self.next_edge;
        }
        let period = self.params.period().as_fs();
        let edges = (at - self.next_edge).as_fs().div_ceil(period);
        self.next_edge + Time::from_fs(edges * period)
    }

    /// The first clock edge that can change the controller's state. It
    /// is the next edge while a synchroniser is unsettled or an FSM guard
    /// holds. Otherwise it is the first edge at or after a minimum
    /// on-time that is all a guard waits for, or the next activator
    /// pulse, whichever comes first. (The HL/UV edge detectors and the OV
    /// mode register take their synchronised inputs at every edge, so
    /// with the synchronisers settled they have nothing left to take.)
    /// The guards mirror [`SyncController::step_phase`].
    fn first_live_edge(&self) -> Time {
        let next = self.next_edge;
        if !(self.hl.settled() && self.uv.settled() && self.ov.settled()) {
            return next;
        }
        let (uv, ov) = (self.uv.out(), self.ov.out());
        let mut due = next + self.params.period() * (self.act_divider - 1);
        for p in &self.phases {
            // Whether a guard holds now, and the time a guard waits for.
            let (holds, waits_for) = match p.charge.state {
                PState::Idle => (p.armed && (ov || uv), None),
                PState::TurnPmosOn => (p.gp_ack.out(), None),
                PState::TurnPmosOff => (!p.gp_ack.out(), None),
                PState::TurnNmosOn => (p.gn_ack.out(), None),
                PState::TurnNmosOff { .. } => (!p.gn_ack.out(), None),
                PState::PmosOn => (false, p.oc.out().then_some(p.charge.pmos_min_until)),
                PState::NmosOn => {
                    let guard = (uv && !p.oc.out()) || p.zc.out();
                    (false, guard.then_some(p.charge.nmos_min_until))
                }
            };
            if holds || !p.settled() {
                return next;
            }
            if let Some(at) = waits_for {
                due = due.min(self.edge_from(at));
            }
        }
        due
    }

    fn clock_edge(&mut self, t: Time) {
        // 1. Synchronisers sample.
        self.hl.clock(&mut self.meta);
        self.uv.clock(&mut self.meta);
        self.ov.clock(&mut self.meta);
        for p in &mut self.phases {
            p.gp_ack.clock(&mut self.meta);
            p.gn_ack.clock(&mut self.meta);
            p.oc.clock(&mut self.meta);
            p.zc.clock(&mut self.meta);
        }
        let hl = self.hl.out();
        let uv = self.uv.out();
        let ov = self.ov.out();

        // 2. Phase activator (divided clock).
        self.act_divider -= 1;
        if self.act_divider == 0 {
            self.act_divider = self.act_reload;
            // The pulse moves on: an unconsumed arming is lost.
            self.phases[self.act_pointer].armed = false;
            self.act_pointer = (self.act_pointer + 1) % self.phases.len();
            self.phases[self.act_pointer].armed = true;
        }
        // HL drafts every phase.
        if hl && !self.hl_prev {
            for p in &mut self.phases {
                p.armed = true;
            }
        }
        self.hl_prev = hl;
        if uv && !self.uv_prev {
            for p in &mut self.phases {
                p.charge.first_cycle = true;
            }
        }
        self.uv_prev = uv;

        // 3. OV mode register.
        if ov && !self.ov_mode {
            self.ov_mode = true;
            self.emit(t, Command::OvMode(true));
        } else if !ov && self.ov_mode {
            self.ov_mode = false;
            self.emit(t, Command::OvMode(false));
        }

        // 4. Per-phase FSMs.
        for k in 0..self.phases.len() {
            self.step_phase(t, k, uv, ov);
        }
    }

    fn step_phase(&mut self, t: Time, k: usize, uv: bool, ov: bool) {
        let pext = self.policy.pext;
        let p = &mut self.phases[k];
        let c = &mut p.charge;
        // The gate command, as `(pmos, value)`, that a guard fires.
        let gate = match c.state {
            // OV sinks energy (NMOS on until the re-referenced ZC); UV
            // charges.
            PState::Idle if p.armed && (ov || uv) => {
                p.armed = false;
                Some((!ov, true))
            }
            PState::TurnPmosOn if p.gp_ack.out() => {
                c.pmos_conducts(t, pext);
                None
            }
            PState::PmosOn if p.oc.out() && t >= c.pmos_min_until => Some((true, false)),
            PState::TurnPmosOff if !p.gp_ack.out() => Some((false, true)),
            PState::TurnNmosOn if p.gn_ack.out() => {
                c.nmos_conducts(t);
                None
            }
            // Late/no-ZC scenario of Figure 2b: while (synchronised) UV
            // is asserted, charging chains without a new arming — but
            // only once the OC condition has released (the WAIT2
            // discipline), which bounds the peak current. Otherwise ZC
            // ends the NMOS phase.
            PState::NmosOn if t >= c.nmos_min_until && ((uv && !p.oc.out()) || p.zc.out()) => {
                c.state = PState::TurnNmosOff {
                    recharge: uv && !p.oc.out(),
                };
                Some((false, false))
            }
            PState::TurnNmosOff { recharge: true } if !p.gn_ack.out() => Some((true, true)),
            PState::TurnNmosOff { recharge: false } if !p.gn_ack.out() => {
                c.state = PState::Idle;
                None
            }
            _ => None,
        };
        if let Some((pmos, value)) = gate {
            let command = c.gate(k, pmos, value);
            self.emit(t, command);
        }
    }
}

impl BuckController for SyncController {
    fn phases(&self) -> usize {
        self.phases.len()
    }

    fn on_sensor(&mut self, _t: Time, kind: SensorKind, value: bool) {
        self.due = self.next_edge;
        match kind {
            SensorKind::Hl => self.hl.raw = value,
            SensorKind::Uv => self.uv.raw = value,
            SensorKind::Ov => self.ov.raw = value,
            SensorKind::Oc(k) => {
                if k < self.phases.len() {
                    self.phases[k].oc.raw = value;
                }
            }
            SensorKind::Zc(k) => {
                if k < self.phases.len() {
                    self.phases[k].zc.raw = value;
                }
            }
        }
    }

    fn on_gate_ack(&mut self, _t: Time, phase: usize, pmos: bool, value: bool) {
        self.due = self.next_edge;
        if pmos {
            self.phases[phase].gp_ack.raw = value;
        } else {
            self.phases[phase].gn_ack.raw = value;
        }
    }

    /// The first clock edge that can change the controller, not simply
    /// the next edge: while the inputs are settled and no FSM guard
    /// holds, the controller sleeps until a minimum on-time ends or the
    /// activator pulses. Any input makes the next edge due again.
    fn next_wakeup(&self) -> Option<Time> {
        Some(self.due)
    }

    /// Clocks every edge up to `t`. The edges before the first one that
    /// can change the controller are stepped over arithmetically,
    /// counted off the activator's divider.
    fn on_wakeup(&mut self, t: Time) {
        let period = self.params.period();
        let idle = |from: Time, to: Time| (to - from).as_fs() / period.as_fs();
        while self.due <= t {
            let edge = self.due;
            self.act_divider -= idle(self.next_edge, edge);
            self.next_edge = edge + period;
            self.clock_edge(edge);
            self.due = self.first_live_edge();
        }
        if self.next_edge <= t {
            let skipped = idle(self.next_edge, t) + 1;
            self.act_divider -= skipped;
            self.next_edge += period * skipped;
        }
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        let start = out.len();
        out.append(&mut self.out);
        out[start..].sort_by_key(|c| c.time);
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        out.push((self.track_act, self.phases[self.act_pointer].armed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Loopback;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    fn harness(phases: usize, mhz: f64) -> Loopback<SyncController> {
        Loopback::new(SyncController::new(phases, SyncParams::at_mhz(mhz)))
    }

    #[test]
    fn uv_reaction_is_sampled_and_synchronised() {
        // 100 MHz: period 10 ns. The phase must be armed by the
        // activator first (first pulse after 25 edges = 250 ns).
        let mut h = harness(2, 100.0);
        h.run_until(ns(260.0));
        h.sensor(ns(262.0), SensorKind::Uv, true);
        h.run_until(ns(400.0));
        let gates = h.gates();
        let first = gates.iter().find(|(_, _, pmos, v)| *pmos && *v).unwrap();
        let latency = (first.0 - ns(262.0)).as_ns();
        assert!(
            (23.0..=43.0).contains(&latency),
            "expected ~2.5-3.5 periods + sampling, got {latency}ns ({gates:?})"
        );
    }

    #[test]
    fn faster_clock_reacts_faster() {
        let measure = |mhz: f64| -> f64 {
            let mut h = harness(2, mhz);
            h.run_until(ns(260.0));
            h.sensor(ns(262.0), SensorKind::Uv, true);
            h.run_until(ns(500.0));
            let gates = h.gates();
            gates
                .iter()
                .find(|(_, _, pmos, v)| *pmos && *v)
                .map(|g| (g.0 - ns(262.0)).as_ns())
                .unwrap_or(f64::INFINITY)
        };
        let slow = measure(100.0);
        let fast = measure(1000.0);
        assert!(slow > fast, "{slow} vs {fast}");
        assert!(fast < 5.0, "1 GHz reacts within a few ns: {fast}");
        assert!(slow > 20.0, "100 MHz pays tens of ns: {slow}");
    }

    #[test]
    fn activation_pulse_rotates_and_expires() {
        let mut h = harness(4, 100.0);
        h.run_until(ns(240.0));
        assert_eq!(h.controller().active_phase(), 0);
        h.run_until(ns(260.0));
        assert_eq!(h.controller().active_phase(), 1, "pointer rotates");
        h.run_until(ns(510.0));
        assert_eq!(h.controller().active_phase(), 2);
        // No UV happened: no commands.
        assert!(h.gates().is_empty());
    }

    #[test]
    fn hl_drafts_all_phases() {
        let mut h = harness(4, 333.0);
        h.run_until(ns(10.0));
        h.sensor(ns(20.0), SensorKind::Uv, true);
        h.sensor(ns(20.1), SensorKind::Hl, true);
        h.run_until(ns(100.0));
        let phases: std::collections::HashSet<usize> = h
            .gates()
            .iter()
            .filter(|(_, _, pmos, v)| *pmos && *v)
            .map(|(_, k, _, _)| *k)
            .collect();
        assert_eq!(phases.len(), 4, "{:?}", h.gates());
    }

    #[test]
    fn full_cycle_with_oc_and_zc() {
        let mut h = harness(1, 333.0);
        h.run_until(ns(10.0));
        h.sensor(ns(20.0), SensorKind::Hl, true);
        h.sensor(ns(20.0), SensorKind::Uv, true);
        h.run_until(ns(60.0));
        // PMOS on; wait past PEXT, then OC. UV clears so the NMOS
        // phase is not taken over by a recharge.
        h.sensor(ns(400.0), SensorKind::Oc(0), true);
        h.sensor(ns(430.0), SensorKind::Uv, false);
        h.run_until(ns(500.0));
        let gates = h.gates();
        assert!(
            gates.iter().any(|(_, _, pmos, v)| *pmos && !*v),
            "gp- after OC: {gates:?}"
        );
        assert!(
            gates.iter().any(|(_, _, pmos, v)| !*pmos && *v),
            "gn+ after gp-: {gates:?}"
        );
        h.sensor(ns(500.0), SensorKind::Oc(0), false);
        h.sensor(ns(600.0), SensorKind::Zc(0), true);
        h.run_until(ns(700.0));
        let gates = h.gates();
        assert!(
            gates
                .iter()
                .any(|(t, _, pmos, v)| !*pmos && !*v && *t > ns(600.0)),
            "gn- after ZC: {gates:?}"
        );
    }

    #[test]
    fn break_before_make_respects_acks() {
        let mut h = harness(1, 333.0);
        h.run_until(ns(10.0));
        h.sensor(ns(20.0), SensorKind::Hl, true);
        h.sensor(ns(20.0), SensorKind::Uv, true);
        h.run_until(ns(1000.0));
        h.sensor(ns(1000.0), SensorKind::Oc(0), true);
        h.run_until(ns(1200.0));
        let gates = h.gates();
        let gp_off = gates
            .iter()
            .find(|(_, _, pmos, v)| *pmos && !*v)
            .expect("gp-");
        let gn_on = gates
            .iter()
            .find(|(_, _, pmos, v)| !*pmos && *v)
            .expect("gn+");
        // gn+ must come after gp- plus the ack round trip (2.5 ns) plus
        // synchronisation of the ack.
        assert!(gn_on.0 > gp_off.0 + ns(2.5), "{gates:?}");
    }

    #[test]
    fn ov_mode_commands_emitted() {
        let mut h = harness(2, 333.0);
        h.run_until(ns(300.0));
        h.sensor(ns(300.0), SensorKind::Ov, true);
        h.run_until(ns(400.0));
        assert!(h.log().iter().any(|c| c.command == Command::OvMode(true)));
        h.sensor(ns(500.0), SensorKind::Ov, false);
        h.run_until(ns(600.0));
        assert!(h.log().iter().any(|c| c.command == Command::OvMode(false)));
    }

    #[test]
    fn metastability_adds_cycles() {
        // With p=1 every marginal capture resolves the wrong way first,
        // costing exactly one extra period per synchroniser stage entry.
        let measure = |meta: a4a_a2a::MetaParams| -> f64 {
            let params = SyncParams::at_mhz(100.0).with_meta(meta);
            let mut h = Loopback::new(SyncController::new(2, params));
            h.run_until(ns(260.0));
            h.sensor(ns(262.0), SensorKind::Uv, true);
            h.run_until(ns(500.0));
            h.gates()
                .iter()
                .find(|(_, _, pmos, v)| *pmos && *v)
                .map(|g| (g.0 - ns(262.0)).as_ns())
                .unwrap_or(f64::NAN)
        };
        let clean = measure(a4a_a2a::MetaParams::disabled());
        let meta = measure(a4a_a2a::MetaParams::with_seed(1.0, Time::from_ns(1.0), 3));
        assert!(
            meta >= clean + 9.0,
            "metastable capture must cost at least a period: {clean} vs {meta}"
        );
    }

    /// Clocks every edge up to `t` through `clock_edge`, as a controller
    /// that never sleeps would.
    fn clock_every_edge(c: &mut SyncController, t: Time) {
        while c.next_edge <= t {
            let edge = c.next_edge;
            c.next_edge += c.params.period();
            c.clock_edge(edge);
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Input {
        Sensor(SensorKind, bool),
        Ack {
            phase: usize,
            pmos: bool,
            value: bool,
        },
    }

    /// A controller woken only at its `next_wakeup()` matches one clocked
    /// at every edge: the same commands, debug tracks and active phase
    /// after every call. The inputs are random sensor changes and acks,
    /// plus an ack for every gate command; half of them land exactly on
    /// an edge or a femtosecond either side. As in the testbench, a sensor
    /// change follows the edges up to its time and an ack only those
    /// before it.
    #[test]
    fn sleeping_through_idle_edges_changes_nothing() {
        use a4a_rt::prop::{self, Config, Gen, PropResult};
        use a4a_rt::prop_assert_eq;

        prop::check_with(
            &Config::with_cases(64),
            "sleeping_through_idle_edges_changes_nothing",
            |g: &mut Gen| -> PropResult {
                let phases = g.usize(1..4);
                let mut params = SyncParams::at_mhz(*g.pick(&[100.0, 333.0, 666.0, 1000.0]));
                if g.bool() {
                    let meta = a4a_a2a::MetaParams::with_seed(
                        g.f64(0.1..1.0),
                        Time::from_ns(1.0),
                        g.any_u64(),
                    );
                    params = params.with_meta(meta);
                }
                let period = params.period().as_fs();
                let at = |g: &mut Gen, t: u64| -> u64 {
                    let edge = t / period * period;
                    match g.choice(6) {
                        0 => edge,
                        1 => edge + 1,
                        2 => edge.saturating_sub(1),
                        _ => t,
                    }
                };
                let mut inputs: Vec<(u64, Input)> = Vec::new();
                let mut t = 0;
                for _ in 0..g.usize(10..80) {
                    let dt = g.u64(1_000_000..80_000_000);
                    t = at(g, t + dt).max(t);
                    let input = match g.choice(7) {
                        0 => Input::Ack {
                            phase: g.usize(0..phases),
                            pmos: g.bool(),
                            value: g.bool(),
                        },
                        1 | 2 => Input::Sensor(SensorKind::Uv, g.bool()),
                        3 => Input::Sensor(*g.pick(&[SensorKind::Hl, SensorKind::Ov]), g.bool()),
                        4 => Input::Sensor(SensorKind::Oc(g.usize(0..phases)), g.bool()),
                        _ => Input::Sensor(SensorKind::Zc(g.usize(0..phases)), g.bool()),
                    };
                    inputs.push((t, input));
                }
                let end = t + 2_000_000_000;
                let mut every = SyncController::new(phases, params.clone());
                let mut sleeper = SyncController::new(phases, params);

                // Compares the two and queues an ack for each gate command.
                let check = |g: &mut Gen,
                             every: &mut SyncController,
                             sleeper: &mut SyncController,
                             inputs: &mut Vec<(u64, Input)>|
                 -> PropResult {
                    let cmds = sleeper.take_commands();
                    prop_assert_eq!(&every.take_commands(), &cmds);
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    every.debug_tracks_into(&mut a);
                    sleeper.debug_tracks_into(&mut b);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(every.active_phase(), sleeper.active_phase());
                    for cmd in cmds {
                        if let Command::Gate { phase, pmos, value } = cmd.command {
                            let delay = g.u64(500_000..5_000_000);
                            let t = at(g, cmd.time.as_fs() + delay);
                            let idx = inputs.partition_point(|&(x, _)| x <= t);
                            inputs.insert(idx, (t, Input::Ack { phase, pmos, value }));
                        }
                    }
                    Ok(())
                };
                // Wakes the sleeper at each of its wakeups up to `t`, then
                // catches it up to `t`.
                let run_to = |g: &mut Gen,
                              every: &mut SyncController,
                              sleeper: &mut SyncController,
                              inputs: &mut Vec<(u64, Input)>,
                              t: Time|
                 -> PropResult {
                    while let Some(w) = sleeper.next_wakeup().filter(|&w| w <= t) {
                        clock_every_edge(every, w);
                        sleeper.on_wakeup(w);
                        check(g, every, sleeper, inputs)?;
                    }
                    clock_every_edge(every, t);
                    sleeper.on_wakeup(t);
                    check(g, every, sleeper, inputs)
                };
                while !inputs.is_empty() {
                    let (t, input) = inputs.remove(0);
                    match input {
                        Input::Sensor(kind, value) => {
                            let t = Time::from_fs(t);
                            run_to(g, &mut every, &mut sleeper, &mut inputs, t)?;
                            every.on_sensor(t, kind, value);
                            sleeper.on_sensor(t, kind, value);
                        }
                        Input::Ack { phase, pmos, value } => {
                            let before = Time::from_fs(t.saturating_sub(1));
                            run_to(g, &mut every, &mut sleeper, &mut inputs, before)?;
                            let t = Time::from_fs(t);
                            every.on_gate_ack(t, phase, pmos, value);
                            sleeper.on_gate_ack(t, phase, pmos, value);
                        }
                    }
                    check(g, &mut every, &mut sleeper, &mut inputs)?;
                }
                run_to(g, &mut every, &mut sleeper, &mut inputs, Time::from_fs(end))
            },
        );
    }

    #[test]
    fn no_short_circuit_in_sync_commands() {
        let mut h = harness(2, 666.0);
        h.run_until(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.sensor(ns(10.2), SensorKind::Hl, true);
        h.run_until(ns(300.0));
        h.sensor(ns(300.0), SensorKind::Oc(0), true);
        h.run_until(ns(400.0));
        h.sensor(ns(400.0), SensorKind::Zc(0), true);
        h.run_until(ns(800.0));
        let mut gp = [false; 2];
        let mut gn = [false; 2];
        for (t, phase, pmos, value) in h.gates() {
            if pmos {
                gp[phase] = value;
            } else {
                gn[phase] = value;
            }
            assert!(!(gp[phase] && gn[phase]), "short at {t} phase {phase}");
        }
    }
}
