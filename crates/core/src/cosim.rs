//! Mixed-signal co-simulation: the Cadence-AMS testbench stand-in.
//!
//! The analog buck is propagated exactly over windows in which nothing
//! digital happens. A window ends only at the next sampling-grid point,
//! the next pending item (gate apply or ack, load step, held comparator
//! event), a controller wakeup, a body-diode current reaching zero, or
//! a comparator level crossing located on the exact trajectory. So
//! switch toggles land at their exact times, and every comparator event
//! reaches the controller at its own time (crossing plus comparator
//! delay), in time order with the controller's own timer/clock wakeups.

use std::collections::VecDeque;

use a4a_analog::{
    Buck, BuckParams, SensorBank, SensorEvent, SensorKind, SensorThresholds, TrackId, Waveform,
};
use a4a_ctrl::{BuckController, Command, GateTiming, TimedCommand};
use a4a_sim::{SimError, Time};

/// Pending digital side effects travelling through the gate drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PendKind {
    /// Driver output reaches the power transistor: the switch toggles.
    Apply { phase: usize, pmos: bool, value: bool },
    /// Threshold-crossing acknowledge back to the controller.
    Ack { phase: usize, pmos: bool, value: bool },
    /// Sensor reference switch takes effect.
    OvMode(bool),
    /// Scheduled load step.
    LoadStep(f64),
    /// Comparator output change, held until its time (crossing plus
    /// comparator delay).
    Sensor { kind: SensorKind, value: bool },
}

/// Interned track names for everything the testbench records,
/// registered once at build time so the hot loop never formats or
/// allocates a name (`format!("gp{phase}")`, `kind.to_string()`).
#[derive(Debug)]
struct TrackTable {
    hl: TrackId,
    uv: TrackId,
    ov: TrackId,
    oc: Vec<TrackId>,
    zc: Vec<TrackId>,
    gp: Vec<TrackId>,
    gn: Vec<TrackId>,
    ov_mode: TrackId,
    load_step: TrackId,
}

impl TrackTable {
    fn new(phases: usize) -> TrackTable {
        let per_phase = |prefix: &str| -> Vec<TrackId> {
            (0..phases)
                .map(|k| TrackId::intern(&format!("{prefix}{k}")))
                .collect()
        };
        TrackTable {
            hl: TrackId::intern("hl"),
            uv: TrackId::intern("uv"),
            ov: TrackId::intern("ov"),
            oc: per_phase("oc"),
            zc: per_phase("zc"),
            gp: per_phase("gp"),
            gn: per_phase("gn"),
            ov_mode: TrackId::intern("ov_mode"),
            load_step: TrackId::intern("load_step"),
        }
    }

    /// The track a sensor event is recorded on (renders exactly like
    /// the old `kind.to_string()`).
    fn sensor(&self, kind: SensorKind) -> TrackId {
        match kind {
            SensorKind::Hl => self.hl,
            SensorKind::Uv => self.uv,
            SensorKind::Ov => self.ov,
            SensorKind::Oc(k) => self.oc[k],
            SensorKind::Zc(k) => self.zc[k],
        }
    }

    /// The track a gate application is recorded on (`gp{phase}` /
    /// `gn{phase}`).
    fn gate(&self, phase: usize, pmos: bool) -> TrackId {
        if pmos {
            self.gp[phase]
        } else {
            self.gn[phase]
        }
    }
}

/// Builder for [`Testbench`].
#[derive(Debug)]
pub struct TestbenchBuilder {
    params: BuckParams,
    thresholds: SensorThresholds,
    gate_timing: GateTiming,
    sample_period: f64,
    load_steps: Vec<(f64, f64)>,
}

impl TestbenchBuilder {
    /// Starts from default buck parameters and thresholds.
    pub fn new() -> Self {
        TestbenchBuilder {
            params: BuckParams::default(),
            thresholds: SensorThresholds::default(),
            gate_timing: GateTiming::default(),
            sample_period: 2e-9,
            load_steps: Vec::new(),
        }
    }

    /// Sets the power-stage parameters.
    pub fn params(mut self, params: BuckParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the sensor thresholds.
    pub fn thresholds(mut self, thresholds: SensorThresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Sets the gate-driver timing.
    pub fn gate_timing(mut self, gate_timing: GateTiming) -> Self {
        self.gate_timing = gate_timing;
        self
    }

    /// Records an analog sample every `period` seconds of simulated time
    /// (default 2 ns). The samples lie on a uniform grid whatever the
    /// window lengths, which RMS-based metrics depend on, and are exact:
    /// the propagation has no step to choose. Validated at
    /// [`TestbenchBuilder::build`] time, so adversarial configurations
    /// surface as a typed error rather than a panic.
    pub fn sample_period(mut self, period: f64) -> Self {
        self.sample_period = period;
        self
    }

    /// Schedules a load-resistance step at an absolute time. Validated
    /// at [`TestbenchBuilder::build`] time.
    pub fn load_step(mut self, at: f64, rload: f64) -> Self {
        self.load_steps.push((at, rload));
        self
    }

    /// Finalises with the given controller.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; see
    /// [`TestbenchBuilder::try_build`] for the fallible variant.
    pub fn build<C: BuckController>(self, ctrl: C) -> Testbench<C> {
        match self.try_build(ctrl) {
            Ok(tb) => tb,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`TestbenchBuilder::build`]: validates the whole
    /// configuration — power-stage parameters (via [`Buck::try_new`]),
    /// controller/power-stage phase agreement, the sample period, the
    /// comparator hysteresis and delay, and every scheduled load step —
    /// reporting the first violation as a [`SimError`].
    pub fn try_build<C: BuckController>(self, ctrl: C) -> Result<Testbench<C>, SimError> {
        let phases = ctrl.phases();
        if phases != self.params.phases {
            return Err(SimError::PhaseMismatch {
                controller: phases,
                power_stage: self.params.phases,
            });
        }
        if !(self.sample_period.is_finite() && self.sample_period > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "sample period (s)",
                value: self.sample_period,
            });
        }
        // A comparator without hysteresis could flip back and forth at
        // one instant for ever.
        let t = &self.thresholds;
        for (what, value) in [("v_hyst (V)", t.v_hyst), ("i_hyst (A)", t.i_hyst)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidParameter { what, value });
            }
        }
        if !(t.delay.is_finite() && t.delay >= 0.0) {
            return Err(SimError::InvalidParameter {
                what: "comparator delay (s)",
                value: t.delay,
            });
        }
        for &(at, rload) in &self.load_steps {
            if !(at.is_finite() && at >= 0.0) {
                return Err(SimError::InvalidParameter {
                    what: "load-step time (s)",
                    value: at,
                });
            }
            if !(rload.is_finite() && rload > 0.0) {
                return Err(SimError::InvalidParameter {
                    what: "load-step rload (Ohm)",
                    value: rload,
                });
            }
        }
        let buck = Buck::try_new(self.params)?;
        let mut pending: Vec<(f64, PendKind)> = self
            .load_steps
            .iter()
            .map(|&(at, r)| (at, PendKind::LoadStep(r)))
            .collect();
        pending.sort_by(|a, b| a.0.total_cmp(&b.0));
        // The rest state at t = 0 is the first point of the uniform
        // sampling grid; subsequent grid points clamp the integration
        // windows so every sample lands exactly on the grid.
        let mut record = Waveform::new(phases);
        record.sample(0.0, 0.0, &vec![0.0; phases]);
        Ok(Testbench {
            buck,
            sensors: SensorBank::new(phases, self.thresholds),
            ctrl,
            gate_timing: self.gate_timing,
            sample_period: self.sample_period,
            next_sample_at: self.sample_period,
            sample_idx: 1,
            windows: 0,
            pending: pending.into(),
            record,
            gp: vec![false; phases],
            gn: vec![false; phases],
            short_circuits: 0,
            last_delivered: Time::ZERO,
            debug_tracks: Vec::new(),
            tracks_buf: Vec::new(),
            fired: Vec::new(),
            cmds_buf: Vec::new(),
            tracks: TrackTable::new(phases),
        })
    }
}

impl Default for TestbenchBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The mixed-signal testbench coupling buck, sensors, gate drivers, and
/// a digital controller.
///
/// # Examples
///
/// ```
/// use a4a::TestbenchBuilder;
/// use a4a_ctrl::{AsyncController, AsyncTiming};
///
/// let ctrl = AsyncController::new(4, AsyncTiming::default());
/// let mut tb = TestbenchBuilder::new().build(ctrl);
/// tb.run_until(5e-6);
/// assert!(tb.buck().output_voltage() > 3.0, "regulated near 3.3 V");
/// ```
#[derive(Debug)]
pub struct Testbench<C: BuckController> {
    buck: Buck,
    sensors: SensorBank,
    ctrl: C,
    gate_timing: GateTiming,
    sample_period: f64,
    /// Next point of the uniform sampling grid (`sample_idx` grid
    /// periods; kept as an index so the grid never drifts from
    /// accumulated floating-point error).
    next_sample_at: f64,
    /// Index of the next sampling-grid point.
    sample_idx: u64,
    /// Windows taken so far.
    windows: u64,
    /// Pending side effects sorted by time (kept sorted on insert;
    /// drained from the front in O(1)).
    pending: VecDeque<(f64, PendKind)>,
    record: Waveform,
    /// Commanded-and-applied switch states.
    gp: Vec<bool>,
    gn: Vec<bool>,
    /// Count of rejected simultaneous-on commands (must stay zero for a
    /// correct controller; counted instead of panicking so experiments
    /// can report it).
    short_circuits: usize,
    last_delivered: Time,
    /// Last seen controller debug-track values (for change detection).
    /// Tracks the controller stops reporting are dropped from this set,
    /// so a reappearing track is treated as new.
    debug_tracks: Vec<(TrackId, bool)>,
    /// Reused scratch for the per-window debug-track query.
    tracks_buf: Vec<(TrackId, bool)>,
    /// Reused buffer for the comparators that fire at a window's end.
    fired: Vec<SensorKind>,
    /// Reused buffer for drained controller commands.
    cmds_buf: Vec<TimedCommand>,
    /// Interned track names, registered once at build time.
    tracks: TrackTable,
}

impl<C: BuckController> Testbench<C> {
    /// The analog power stage.
    pub fn buck(&self) -> &Buck {
        &self.buck
    }

    /// The sensor bank.
    pub fn sensors(&self) -> &SensorBank {
        &self.sensors
    }

    /// The controller.
    pub fn controller(&self) -> &C {
        &self.ctrl
    }

    /// The recorded waveform so far.
    pub fn waveform(&self) -> &Waveform {
        &self.record
    }

    /// Consumes the bench, returning the waveform.
    pub fn into_waveform(self) -> Waveform {
        self.record
    }

    /// Number of rejected short-circuit commands (zero for a correct
    /// controller).
    pub fn short_circuits(&self) -> usize {
        self.short_circuits
    }

    /// Number of analog windows taken so far: the co-simulation's unit
    /// of work.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// When the next pending item changes the power stage (a gate
    /// apply or a load step); infinity when none is pending.
    fn next_stage_change(&self) -> f64 {
        self.pending
            .iter()
            .find(|(_, kind)| matches!(kind, PendKind::Apply { .. } | PendKind::LoadStep(_)))
            .map_or(f64::INFINITY, |&(at, _)| at)
    }

    fn push_pending(&mut self, at: f64, kind: PendKind) {
        let idx = self.pending.partition_point(|&(t, _)| t <= at);
        self.pending.insert(idx, (at, kind));
    }

    /// Runs the co-simulation until `t_end` seconds.
    ///
    /// # Panics
    ///
    /// Panics on an invalid `t_end` or when the analog integration
    /// diverges; see [`Testbench::try_run_until`] for the fallible
    /// variant.
    pub fn run_until(&mut self, t_end: f64) {
        if let Err(e) = self.try_run_until(t_end) {
            panic!("{e}");
        }
    }

    /// Fallible [`Testbench::run_until`]: rejects a NaN `t_end` as
    /// [`SimError::InvalidParameter`] and propagates any integration
    /// failure ([`SimError::NonFinite`]) from the analog stage instead
    /// of panicking mid-run.
    pub fn try_run_until(&mut self, t_end: f64) -> Result<(), SimError> {
        if t_end.is_nan() {
            return Err(SimError::InvalidParameter {
                what: "t_end (s)",
                value: t_end,
            });
        }
        // Every window ends with a delivery, so after this first one no
        // pending item or wakeup is due at a window start.
        self.deliver(self.buck.time())?;
        while self.buck.time() < t_end {
            // Window end: the earliest of the next sampling-grid point
            // (so samples land *on* the uniform grid), the next pending
            // item, and the next controller wakeup; all lie ahead.
            let mut tn = t_end.min(self.next_sample_at);
            if let Some(&(tp, _)) = self.pending.front() {
                tn = tn.min(tp);
            }
            if let Some(w) = self.ctrl.next_wakeup() {
                tn = tn.min(w.as_secs());
            }
            self.windows += 1;

            // 1. Plan the exact trajectory. The power stage changes only
            //    at gate applies and load steps, so one plan can serve
            //    every window up to the next of those; a body-diode
            //    current reaching zero ends it early.
            let horizon = self.next_stage_change().min(t_end);
            let reach = self.buck.try_plan(tn, horizon)?;

            // 2. The first comparator crossing on it ends the window too
            //    (all comparators crossing at that instant fire).
            let crossing = self.sensors.first_crossing(&self.buck, &mut self.fired);
            let tn = tn.min(reach).min(crossing);
            self.buck.try_advance_to(tn)?;
            // Each comparator event is held in `pending` until its own
            // time: crossing plus the comparator delay.
            if crossing == tn {
                for idx in 0..self.fired.len() {
                    let ev = self.sensors.fire(self.fired[idx], tn);
                    self.push_sensor(ev);
                }
            }

            // 3. Deliver controller wakeups and due pending items in
            //    time order.
            self.deliver(tn)?;

            // 4. Record controller debug tracks (e.g. `act`,
            //    `get & !pass`) on change, like Figure 6's signal rows.
            //    Interned ids make the per-window comparison a few word
            //    compares instead of string compares.
            self.tracks_buf.clear();
            self.ctrl.debug_tracks_into(&mut self.tracks_buf);
            if self.tracks_buf != self.debug_tracks {
                for idx in 0..self.tracks_buf.len() {
                    let (id, value) = self.tracks_buf[idx];
                    let changed = self
                        .debug_tracks
                        .iter()
                        .find(|&&(n, _)| n == id)
                        .map(|&(_, v)| v != value)
                        .unwrap_or(true);
                    if changed {
                        self.record.event(tn, id, value);
                    }
                }
                // Adopt the new set wholesale: tracks that disappeared
                // are dropped (not carried forever), so a later
                // reappearance records again. Swap keeps both buffers'
                // capacity.
                std::mem::swap(&mut self.debug_tracks, &mut self.tracks_buf);
            }

            // 5. Record on the uniform time grid.
            if tn >= self.next_sample_at {
                self.record
                    .sample(tn, self.buck.output_voltage(), self.buck.currents());
                loop {
                    self.sample_idx += 1;
                    self.next_sample_at = self.sample_idx as f64 * self.sample_period;
                    if self.next_sample_at > tn {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Delivers controller wakeups and the pending items due by `tn`
    /// (gate applies and acks, load steps, held comparator events) in
    /// time order; at equal times a pending item goes first.
    fn deliver(&mut self, tn: f64) -> Result<(), SimError> {
        loop {
            let t_pend = self.pending.front().map(|p| p.0).filter(|&x| x <= tn);
            let t_wake = self
                .ctrl
                .next_wakeup()
                .map(|w| w.as_secs())
                .filter(|&w| w <= tn);
            match (t_pend, t_wake) {
                (Some(tp), Some(tw)) if tw < tp => self.wake(tw)?,
                (None, Some(tw)) => self.wake(tw)?,
                (Some(_), _) => {
                    if let Some((at, kind)) = self.pending.pop_front() {
                        self.apply_pending(at, kind)?;
                    }
                }
                (None, None) => return Ok(()),
            }
        }
    }

    fn wake(&mut self, at: f64) -> Result<(), SimError> {
        let tw = self.clamp_time(at)?;
        self.ctrl.on_wakeup(tw);
        self.drain_commands();
        Ok(())
    }

    fn push_sensor(&mut self, ev: SensorEvent) {
        self.push_pending(
            ev.time,
            PendKind::Sensor {
                kind: ev.kind,
                value: ev.value,
            },
        );
    }

    /// Monotonic clamp: the controller must never see time move
    /// backwards even when interpolated event times interleave. A
    /// non-representable event time (e.g. a huge interpolated crossing)
    /// surfaces as [`SimError::InvalidTime`] instead of a panic.
    fn clamp_time(&mut self, secs: f64) -> Result<Time, SimError> {
        let t = Time::try_from_secs(secs.max(0.0))?;
        if t < self.last_delivered {
            return Ok(self.last_delivered);
        }
        self.last_delivered = t;
        Ok(t)
    }

    fn apply_pending(&mut self, at: f64, kind: PendKind) -> Result<(), SimError> {
        match kind {
            PendKind::Apply { phase, pmos, value } => {
                let (gp, gn) = if pmos {
                    (value, self.gn[phase])
                } else {
                    (self.gp[phase], value)
                };
                if gp && gn {
                    // A buggy controller would short the bridge; refuse
                    // and count (the STG-verified designs never hit this).
                    self.short_circuits += 1;
                    return Ok(());
                }
                self.gp[phase] = gp;
                self.gn[phase] = gn;
                self.buck.try_set_switch(phase, gp, gn)?;
                self.record.event(at, self.tracks.gate(phase, pmos), value);
                self.push_pending(
                    at + self.gate_timing.ack_delay.as_secs(),
                    PendKind::Ack { phase, pmos, value },
                );
            }
            PendKind::Ack { phase, pmos, value } => {
                let t = self.clamp_time(at)?;
                self.ctrl.on_gate_ack(t, phase, pmos, value);
                self.drain_commands();
            }
            PendKind::OvMode(on) => {
                // A current already beyond a new reference fires at the
                // next window's start.
                self.sensors.set_ov_mode(on);
                self.record.event(at, self.tracks.ov_mode, on);
            }
            PendKind::LoadStep(r) => {
                self.buck.try_set_load(r)?;
                self.record.event(at, self.tracks.load_step, true);
            }
            PendKind::Sensor { kind, value } => {
                // Let the controller's internal clock catch up first.
                let te = self.clamp_time(at)?;
                if self.ctrl.next_wakeup().is_some_and(|w| w <= te) {
                    self.ctrl.on_wakeup(te);
                    self.drain_commands();
                }
                self.record.event(at, self.tracks.sensor(kind), value);
                self.ctrl.on_sensor(te, kind, value);
                self.drain_commands();
            }
        }
        Ok(())
    }

    fn drain_commands(&mut self) {
        // The buffer is taken out of `self` for the drain so the
        // controller and `push_pending` can both borrow; steady state
        // never allocates.
        let mut cmds = std::mem::take(&mut self.cmds_buf);
        cmds.clear();
        self.ctrl.take_commands_into(&mut cmds);
        for cmd in &cmds {
            let at = cmd.time.as_secs();
            match cmd.command {
                Command::Gate { phase, pmos, value } => {
                    self.push_pending(
                        at + self.gate_timing.driver_delay.as_secs(),
                        PendKind::Apply { phase, pmos, value },
                    );
                }
                Command::OvMode(on) => {
                    self.push_pending(at, PendKind::OvMode(on));
                }
            }
        }
        self.cmds_buf = cmds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4a_analog::metrics;
    use a4a_ctrl::{AsyncController, AsyncTiming, SyncController, SyncParams};

    #[test]
    fn async_bench_regulates_startup() {
        let ctrl = AsyncController::new(4, AsyncTiming::default());
        let mut tb = TestbenchBuilder::new().build(ctrl);
        tb.run_until(5e-6);
        let v = tb.buck().output_voltage();
        assert!(v > 3.0 && v < 3.6, "v = {v}");
        assert_eq!(tb.short_circuits(), 0);
        assert!(!tb.waveform().is_empty());
    }

    #[test]
    fn sync_bench_regulates_startup() {
        let ctrl = SyncController::new(4, SyncParams::at_mhz(333.0));
        let mut tb = TestbenchBuilder::new().build(ctrl);
        tb.run_until(5e-6);
        let v = tb.buck().output_voltage();
        assert!(v > 3.0 && v < 3.6, "v = {v}");
        assert_eq!(tb.short_circuits(), 0);
    }

    #[test]
    fn load_step_recovers() {
        let ctrl = AsyncController::new(4, AsyncTiming::default());
        let mut tb = TestbenchBuilder::new()
            .load_step(5e-6, 4.0)
            .load_step(7e-6, 6.0)
            .build(ctrl);
        tb.run_until(10e-6);
        let v = tb.buck().output_voltage();
        assert!(v > 3.0 && v < 3.6, "v = {v} after load excursion");
        // The waveform saw the load steps.
        assert!(tb
            .waveform()
            .events
            .iter()
            .filter(|(_, n, _)| n == "load_step")
            .count()
            == 2);
    }

    #[test]
    fn async_ripple_below_sync_ripple() {
        // The headline qualitative claim of Figure 6 in miniature.
        let run = |sync: bool| -> f64 {
            let builder = TestbenchBuilder::new();
            let w = if sync {
                let mut tb =
                    builder.build(SyncController::new(4, SyncParams::at_mhz(100.0)));
                tb.run_until(8e-6);
                tb.into_waveform()
            } else {
                let mut tb =
                    builder.build(AsyncController::new(4, AsyncTiming::default()));
                tb.run_until(8e-6);
                tb.into_waveform()
            };
            // Skip the startup transient.
            metrics::voltage_ripple(&w.window(4e-6, 8e-6))
        };
        let sync_ripple = run(true);
        let async_ripple = run(false);
        assert!(
            async_ripple <= sync_ripple,
            "async {async_ripple} vs sync {sync_ripple}"
        );
    }

    #[test]
    fn waveform_events_recorded() {
        let ctrl = AsyncController::new(2, AsyncTiming::default());
        let mut tb = TestbenchBuilder::new()
            .params(BuckParams::default().with_phases(2))
            .build(ctrl);
        tb.run_until(3e-6);
        let w = tb.waveform();
        assert!(w.events.iter().any(|(_, n, v)| n == "uv" && *v));
        assert!(w.events.iter().any(|(_, n, _)| n == "gp0"));
    }

    #[test]
    #[should_panic(expected = "disagree on phase count")]
    fn phase_mismatch_rejected() {
        let ctrl = AsyncController::new(2, AsyncTiming::default());
        let _ = TestbenchBuilder::new().build(ctrl);
    }

    #[test]
    fn try_build_reports_typed_errors() {
        use a4a_sim::SimError;

        let ctrl = AsyncController::new(2, AsyncTiming::default());
        assert!(matches!(
            TestbenchBuilder::new().try_build(ctrl),
            Err(SimError::PhaseMismatch {
                controller: 2,
                power_stage: 4
            })
        ));

        for bad in [f64::NAN, 0.0, -2e-9, f64::INFINITY] {
            let ctrl = AsyncController::new(4, AsyncTiming::default());
            assert!(matches!(
                TestbenchBuilder::new().sample_period(bad).try_build(ctrl),
                Err(SimError::InvalidParameter {
                    what: "sample period (s)",
                    ..
                })
            ));
        }

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        let thresholds = SensorThresholds {
            v_hyst: 0.0,
            ..SensorThresholds::default()
        };
        assert!(matches!(
            TestbenchBuilder::new().thresholds(thresholds).try_build(ctrl),
            Err(SimError::InvalidParameter {
                what: "v_hyst (V)",
                ..
            })
        ));

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        assert!(matches!(
            TestbenchBuilder::new()
                .load_step(f64::NAN, 4.0)
                .try_build(ctrl),
            Err(SimError::InvalidParameter {
                what: "load-step time (s)",
                ..
            })
        ));

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        assert!(matches!(
            TestbenchBuilder::new()
                .load_step(5e-6, -1.0)
                .try_build(ctrl),
            Err(SimError::InvalidParameter {
                what: "load-step rload (Ohm)",
                ..
            })
        ));

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        let params = BuckParams {
            cap: f64::NAN,
            ..BuckParams::default()
        };
        assert!(matches!(
            TestbenchBuilder::new().params(params).try_build(ctrl),
            Err(SimError::InvalidParameter { what: "cap (F)", .. })
        ));
    }

    #[test]
    fn disappearing_debug_track_is_dropped_and_rerecords() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Inert controller whose debug-track list is steered from the
        /// outside (shared cell), to exercise the testbench's
        /// change-detection bookkeeping.
        struct TrackStub {
            tracks: Rc<RefCell<Vec<(a4a_analog::TrackId, bool)>>>,
        }
        impl BuckController for TrackStub {
            fn phases(&self) -> usize {
                4
            }
            fn on_sensor(&mut self, _: Time, _: a4a_analog::SensorKind, _: bool) {}
            fn on_gate_ack(&mut self, _: Time, _: usize, _: bool, _: bool) {}
            fn next_wakeup(&self) -> Option<Time> {
                None
            }
            fn on_wakeup(&mut self, _: Time) {}
            fn take_commands(&mut self) -> Vec<TimedCommand> {
                Vec::new()
            }
            fn debug_tracks_into(&self, out: &mut Vec<(a4a_analog::TrackId, bool)>) {
                out.extend(self.tracks.borrow().iter().copied());
            }
        }

        let dbg = a4a_analog::TrackId::intern("dbg-stub");
        let tracks = Rc::new(RefCell::new(vec![(dbg, true)]));
        let ctrl = TrackStub {
            tracks: Rc::clone(&tracks),
        };
        let mut tb = TestbenchBuilder::new().build(ctrl);
        let count = |tb: &Testbench<TrackStub>| {
            tb.waveform()
                .events
                .iter()
                .filter(|&&(_, n, _)| n == dbg)
                .count()
        };

        // Window 1: the track appears -> recorded once.
        tb.run_until(0.5e-9);
        assert_eq!(count(&tb), 1, "new track records an event");

        // The track disappears: no event, and it must not linger in
        // the stored set.
        tracks.borrow_mut().clear();
        tb.run_until(1.0e-9);
        assert_eq!(count(&tb), 1, "disappearing track records nothing");

        // It reappears with the *same* value: a stale stored entry
        // would suppress this; the drop semantics record it again.
        tracks.borrow_mut().push((dbg, true));
        tb.run_until(1.5e-9);
        assert_eq!(count(&tb), 2, "reappearing track records again");
    }

    #[test]
    fn try_run_until_rejects_nan_and_keeps_working() {
        use a4a_sim::SimError;

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        let mut tb = TestbenchBuilder::new()
            .try_build(ctrl)
            .expect("default configuration is valid");
        assert!(matches!(
            tb.try_run_until(f64::NAN),
            Err(SimError::InvalidParameter { what: "t_end (s)", .. })
        ));
        tb.try_run_until(2e-6).expect("normal run succeeds");
        assert!(tb.buck().output_voltage() > 0.0);
    }
}

#[cfg(test)]
mod window_tests {
    use crate::scenario::{self, ControllerKind};

    fn windows(kind: ControllerKind) -> u64 {
        let mut tb = scenario::sweep_coil(4.7, 6.0).build(scenario::controller(kind, 4));
        tb.run_until(8e-6);
        tb.windows()
    }

    /// Windows end only at sample points and events, so an 8 µs cell
    /// takes about one window per 2 ns sample plus one per event; a
    /// 1 GHz controller still takes one per clock edge.
    #[test]
    fn windows_end_only_at_samples_and_events() {
        for kind in [ControllerKind::Sync(100.0), ControllerKind::Async] {
            let n = windows(kind);
            assert!((4_000..8_000).contains(&n), "{}: {n} windows", kind.label());
        }
        let n = windows(ControllerKind::Sync(1000.0));
        assert!(n >= 8_000, "1GHz: {n} windows");
    }
    /// The sample period only sets where samples land. With one sample
    /// every 5 µs, windows and plans grow long (a plan longer than about
    /// 0.5 µs is scaled and squared and searched piece by piece), and
    /// every track records the events of the 2 ns default. (Comparators
    /// of phases with equal currents cross within rounding of each
    /// other, so the order across tracks may differ.)
    #[test]
    fn sparse_sampling_records_the_same_events() {
        for kind in [ControllerKind::Async, ControllerKind::Sync(100.0)] {
            let run = |period: f64| {
                let mut tb = scenario::sweep_coil(4.7, 6.0)
                    .sample_period(period)
                    .build(scenario::controller(kind, 4));
                tb.run_until(20e-6);
                let mut events = tb.waveform().events.clone();
                events.sort_by_key(|e| e.1);
                (tb.windows(), events)
            };
            let ((dense_windows, dense), (sparse_windows, sparse)) = (run(2e-9), run(5e-6));
            assert!(2 * sparse_windows < dense_windows, "{sparse_windows} vs {dense_windows}");
            assert_eq!(dense.len(), sparse.len(), "{}", kind.label());
            for (a, b) in dense.iter().zip(&sparse) {
                assert_eq!((a.1, a.2), (b.1, b.2), "{}: {a:?} vs {b:?}", kind.label());
                assert!((a.0 - b.0).abs() < 1e-12, "{}: {a:?} vs {b:?}", kind.label());
            }
        }
    }
}
