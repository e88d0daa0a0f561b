//! Mixed-signal co-simulation: the Cadence-AMS testbench stand-in.
//!
//! The analog buck integrates with a fixed maximum step, subdivided at
//! every digital event boundary (gate-driver application, controller
//! wakeup, scheduled load step), so switch toggles land at their exact
//! times. Comparator crossings inside a step are located by linear
//! interpolation and delivered to the controller in time order,
//! interleaved with the controller's own timer/clock wakeups.

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
    dt: f64,
    record_every: usize,
    load_steps: Vec<(f64, f64)>,
}

impl TestbenchBuilder {
    /// Starts from default buck parameters and thresholds.
    pub fn new() -> Self {
        TestbenchBuilder {
            params: BuckParams::default(),
            thresholds: SensorThresholds::default(),
            gate_timing: GateTiming::default(),
            dt: 0.5e-9,
            record_every: 4,
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

    /// Sets the maximum analog step (default 0.5 ns). The value is
    /// validated at [`TestbenchBuilder::build`] time, so adversarial
    /// configurations surface as a typed error rather than a panic.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Records an analog sample every `n`·dt of simulated time (default
    /// 4). Sampling on a fixed time grid keeps the recorded waveform
    /// uniform even though the integration windows shrink at digital
    /// event boundaries — RMS-based metrics depend on this. Validated at
    /// [`TestbenchBuilder::build`] time.
    pub fn record_every(mut self, n: usize) -> Self {
        self.record_every = n;
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
    /// controller/power-stage phase agreement, the analog step, the
    /// record decimation, and every scheduled load step — reporting the
    /// first violation as a [`SimError`].
    pub fn try_build<C: BuckController>(self, ctrl: C) -> Result<Testbench<C>, SimError> {
        let phases = ctrl.phases();
        if phases != self.params.phases {
            return Err(SimError::PhaseMismatch {
                controller: phases,
                power_stage: self.params.phases,
            });
        }
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "analog step dt (s)",
                value: self.dt,
            });
        }
        if self.record_every == 0 {
            return Err(SimError::InvalidParameter {
                what: "record decimation",
                value: 0.0,
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
            dt: self.dt,
            record_every: self.record_every,
            next_sample_at: self.dt * self.record_every as f64,
            sample_idx: 1,
            pending: pending.into(),
            record,
            gp: vec![false; phases],
            gn: vec![false; phases],
            short_circuits: 0,
            last_delivered: Time::ZERO,
            debug_tracks: Vec::new(),
            tracks_buf: Vec::new(),
            events_buf: Vec::new(),
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
    dt: f64,
    record_every: usize,
    /// Next point of the uniform sampling grid (`sample_idx` grid
    /// periods; kept as an index so the grid never drifts from
    /// accumulated floating-point error).
    next_sample_at: f64,
    /// Index of the next sampling-grid point.
    sample_idx: u64,
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
    /// Reused buffer for the per-window comparator events.
    events_buf: Vec<SensorEvent>,
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
        while self.buck.time() < t_end {
            let t = self.buck.time();
            // Window end: the earliest of max-step, the next sampling
            // grid point (so samples land *on* the uniform grid, not at
            // the first window end after it), pending side effects, and
            // controller wakeups.
            let mut tn = (t + self.dt).min(t_end);
            if self.next_sample_at > t {
                tn = tn.min(self.next_sample_at);
            }
            if let Some(&(tp, _)) = self.pending.front() {
                if tp > t {
                    tn = tn.min(tp);
                }
            }
            if let Some(w) = self.ctrl.next_wakeup() {
                let w = w.as_secs();
                if w > t {
                    tn = tn.min(w);
                }
            }
            if tn <= t {
                tn = t + self.dt.min(t_end - t).max(1e-12);
            }

            // 1. Integrate the analog stage over the window.
            self.buck.try_step(tn - t)?;

            // 2. Comparator events from the window, into the reused
            //    buffer (the buck hands out its current slice directly —
            //    no per-window collect).
            self.events_buf.clear();
            self.sensors.update_into(
                t,
                tn,
                self.buck.output_voltage(),
                self.buck.currents(),
                &mut self.events_buf,
            );

            // 3. Deliver sensor events, controller wakeups, and pending
            //    side effects in time order.
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

            // 5. Record on a uniform time grid (windows vary in length,
            //    so per-window decimation would bias RMS metrics toward
            //    event-dense regions).
            if tn >= self.next_sample_at {
                self.record
                    .sample(tn, self.buck.output_voltage(), self.buck.currents());
                let period = self.dt * self.record_every as f64;
                loop {
                    self.sample_idx += 1;
                    self.next_sample_at = self.sample_idx as f64 * period;
                    if self.next_sample_at > tn {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Delivers this window's comparator events (in `events_buf`, read
    /// through an index cursor — no `Vec::remove(0)` shifting),
    /// controller wakeups, and pending side effects in time order.
    fn deliver(&mut self, tn: f64) -> Result<(), SimError> {
        let mut cursor = 0;
        loop {
            // Earliest actionable item ≤ tn.
            let t_sensor = self.events_buf.get(cursor).map(|e| e.time);
            let t_pend = self.pending.front().map(|p| p.0).filter(|&x| x <= tn);
            let t_wake = self
                .ctrl
                .next_wakeup()
                .map(|w| w.as_secs())
                .filter(|&w| w <= tn);

            let next = [t_sensor, t_pend, t_wake]
                .into_iter()
                .flatten()
                .fold(f64::INFINITY, f64::min);
            if !next.is_finite() {
                break;
            }

            if Some(next) == t_wake && t_sensor.map(|x| next < x).unwrap_or(true)
                && t_pend.map(|x| next < x).unwrap_or(true)
            {
                let tw = self.clamp_time(next)?;
                self.ctrl.on_wakeup(tw);
                self.drain_commands();
                continue;
            }
            if Some(next) == t_pend && t_sensor.map(|x| next <= x).unwrap_or(true) {
                if let Some((at, kind)) = self.pending.pop_front() {
                    self.apply_pending(at, kind)?;
                }
                continue;
            }
            // Sensor event.
            let ev = self.events_buf[cursor];
            cursor += 1;
            // Let the controller's internal clock catch up first.
            let te = self.clamp_time(ev.time)?;
            if let Some(w) = self.ctrl.next_wakeup() {
                if w <= te {
                    self.ctrl.on_wakeup(te);
                    self.drain_commands();
                }
            }
            self.record
                .event(ev.time, self.tracks.sensor(ev.kind), ev.value);
            self.ctrl.on_sensor(te, ev.kind, ev.value);
            self.drain_commands();
        }
        Ok(())
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
                // Cold path (mode switches are rare events): the Vec
                // returned by set_ov_mode is fine here.
                let evs = self.sensors.set_ov_mode(on, at);
                self.record.event(at, self.tracks.ov_mode, on);
                for ev in evs {
                    let te = self.clamp_time(ev.time)?;
                    self.record
                        .event(ev.time, self.tracks.sensor(ev.kind), ev.value);
                    self.ctrl.on_sensor(te, ev.kind, ev.value);
                }
                self.drain_commands();
            }
            PendKind::LoadStep(r) => {
                self.buck.try_set_load(r)?;
                self.record.event(at, self.tracks.load_step, true);
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

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        assert!(matches!(
            TestbenchBuilder::new().dt(f64::NAN).try_build(ctrl),
            Err(SimError::InvalidParameter {
                what: "analog step dt (s)",
                ..
            })
        ));

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        assert!(matches!(
            TestbenchBuilder::new().record_every(0).try_build(ctrl),
            Err(SimError::InvalidParameter {
                what: "record decimation",
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
mod accuracy_tests {
    use super::*;
    use a4a_analog::metrics;
    use a4a_ctrl::{AsyncController, AsyncTiming};

    /// The co-simulation's headline metrics are robust to the analog
    /// step size (the windowing at digital event boundaries does the
    /// heavy lifting; dt only bounds the integration error).
    #[test]
    fn metrics_robust_to_dt() {
        let run = |dt: f64| -> (f64, f64) {
            let ctrl = AsyncController::new(4, AsyncTiming::default());
            let mut tb = TestbenchBuilder::new().dt(dt).build(ctrl);
            tb.run_until(4e-6);
            let w = tb.into_waveform();
            let steady = w.window(2e-6, 4e-6);
            (
                metrics::mean_voltage(&steady),
                metrics::peak_current(&w),
            )
        };
        let (v_coarse, i_coarse) = run(1e-9);
        let (v_fine, i_fine) = run(0.25e-9);
        assert!(
            (v_coarse - v_fine).abs() < 0.05,
            "mean voltage: {v_coarse} vs {v_fine}"
        );
        assert!(
            (i_coarse - i_fine).abs() < 0.02,
            "peak current: {i_coarse} vs {i_fine}"
        );
    }
}
