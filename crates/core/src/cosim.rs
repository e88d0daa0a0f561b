//! Mixed-signal co-simulation: the Cadence-AMS testbench stand-in.
//!
//! The analog buck is propagated exactly over windows, and a window ends
//! only where the analog stage must stop: a gate apply, a load step or a
//! sensor reference switch, a comparator level crossing located on the
//! exact trajectory, a body-diode current reaching zero, `t_end`, or,
//! where a plan runs out first, the last sampling-grid point it covers.
//! Controller wakeups, gate acks and held comparator events before that
//! stop change nothing analog: they are delivered where they fall, in
//! time order, while the buck waits at the window's start. The grid
//! samples before the stop are read off the planned trajectory in one
//! pass. So switch toggles land at their exact times, and every
//! comparator event reaches the controller at its own time (crossing
//! plus comparator delay), in time order with the controller's own
//! timer/clock wakeups. A controller may sleep through instants that
//! change nothing (a synchronous controller's idle clock edges); it is
//! caught up before each ack or comparator event.

use std::collections::VecDeque;

use a4a_analog::{
    Buck, BuckParams, Record, SensorBank, SensorEvent, SensorKind, SensorThresholds, TrackId,
    Waveform,
};
use a4a_ctrl::{BuckController, Command, GateTiming, TimedCommand};
use a4a_sim::{SimError, Time};

/// The most samples [`Testbench::try_run_until`] reserves room for up
/// front: an 8 µs Fig. 6/7 cell on the 2 ns grid takes 4 000, and
/// `t_end` may be any length. A run past the cap grows the columns as
/// usual.
const MAX_RESERVED_SAMPLES: u64 = 1 << 16;

/// Pending digital side effects travelling through the gate drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PendKind {
    /// Driver output reaches the power transistor: the switch toggles.
    Apply {
        phase: usize,
        pmos: bool,
        value: bool,
    },
    /// Threshold-crossing acknowledge back to the controller.
    Ack {
        phase: usize,
        pmos: bool,
        value: bool,
    },
    /// Sensor reference switch takes effect.
    OvMode(bool),
    /// Scheduled load step.
    LoadStep(f64),
    /// Comparator output change, held until its time (crossing plus
    /// comparator delay).
    Sensor { kind: SensorKind, value: bool },
}

impl PendKind {
    /// Whether the item acts on the analog side (the power stage or the
    /// comparators' references), so the buck must be at its time.
    fn is_analog(&self) -> bool {
        matches!(
            self,
            PendKind::Apply { .. } | PendKind::LoadStep(_) | PendKind::OvMode(_)
        )
    }
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
    /// [`TestbenchBuilder::try_build`] time, so adversarial
    /// configurations surface as a typed error rather than a panic.
    pub fn sample_period(mut self, period: f64) -> Self {
        self.sample_period = period;
        self
    }

    /// Schedules a load-resistance step at an absolute time. Validated
    /// at [`TestbenchBuilder::try_build`] time.
    pub fn load_step(mut self, at: f64, rload: f64) -> Self {
        self.load_steps.push((at, rload));
        self
    }

    /// Finalises with the given controller, recording into a
    /// [`Waveform`].
    ///
    /// # Errors
    ///
    /// Validates the whole configuration — power-stage parameters (via
    /// [`Buck::try_new`]), controller/power-stage phase agreement, the
    /// sample period (finite and at least the 1 fs resolution of
    /// [`Time`]), the comparator hysteresis and delay, and every
    /// scheduled load step — reporting the first violation as a
    /// [`SimError`]. A power stage too stiff to propagate
    /// ([`BuckParams::check_rate`]), at its own load or at a scheduled
    /// one, is [`SimError::InvalidParameter`].
    pub fn try_build<C: BuckController>(self, ctrl: C) -> Result<Testbench<C>, SimError> {
        let record = Waveform::new(ctrl.phases());
        self.try_build_into(ctrl, record)
    }

    /// Finalises with the given controller, passing the run's samples
    /// and events to `record` (see [`Record`]), for instance a reducer
    /// of [`a4a_analog::metrics`] that keeps only the number a figure
    /// reads.
    ///
    /// # Errors
    ///
    /// As [`TestbenchBuilder::try_build`]; a `record` that does not fit
    /// the power stage's phase count is [`SimError::InvalidParameter`]
    /// (`"record phases"`).
    pub fn try_build_into<C: BuckController, R: Record>(
        self,
        ctrl: C,
        mut record: R,
    ) -> Result<Testbench<C, R>, SimError> {
        let phases = ctrl.phases();
        if phases != self.params.phases {
            return Err(SimError::PhaseMismatch {
                controller: phases,
                power_stage: self.params.phases,
            });
        }
        if !record.fits(phases) {
            return Err(SimError::InvalidParameter {
                what: "record phases",
                value: phases as f64,
            });
        }
        // A grid finer than the femtosecond clock would take more points
        // than any run can record.
        if !(self.sample_period.is_finite() && self.sample_period >= Time::from_fs(1).as_secs()) {
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
        // `‖A‖` grows as the load falls: the lowest scheduled load is the
        // stiffest.
        let rload = self
            .load_steps
            .iter()
            .fold(buck.params().rload, |r, s| r.min(s.1));
        buck.params().clone().with_load(rload).check_rate()?;
        let mut pending: Vec<(f64, PendKind)> = self
            .load_steps
            .iter()
            .map(|&(at, r)| (at, PendKind::LoadStep(r)))
            .collect();
        pending.sort_by(|a, b| a.0.total_cmp(&b.0));
        // The rest state at t = 0 is the first point of the uniform
        // sampling grid; subsequent grid points clamp the integration
        // windows so every sample lands exactly on the grid.
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
/// a digital controller. What the run produces goes to a [`Record`]: a
/// [`Waveform`] unless it was built with
/// [`TestbenchBuilder::try_build_into`].
///
/// # Examples
///
/// ```
/// use a4a::TestbenchBuilder;
/// use a4a_ctrl::{AsyncController, AsyncTiming};
///
/// let ctrl = AsyncController::new(4, AsyncTiming::default());
/// let mut tb = TestbenchBuilder::new().try_build(ctrl)?;
/// tb.try_run_until(5e-6)?;
/// assert!(tb.buck().output_voltage() > 3.0, "regulated near 3.3 V");
/// # Ok::<(), a4a_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Testbench<C: BuckController, R: Record = Waveform> {
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
    record: R,
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
    /// The recorded waveform so far.
    pub fn waveform(&self) -> &Waveform {
        &self.record
    }

    /// Consumes the bench, returning the waveform.
    pub fn into_waveform(self) -> Waveform {
        self.record
    }
}

impl<C: BuckController, R: Record> Testbench<C, R> {
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

    /// What the run has recorded so far.
    pub fn record(&self) -> &R {
        &self.record
    }

    /// Consumes the bench, returning its record.
    pub fn into_record(self) -> R {
        self.record
    }

    /// Number of rejected short-circuit commands (zero for a correct
    /// controller).
    pub fn short_circuits(&self) -> usize {
        self.short_circuits
    }

    /// Number of analog windows taken so far: the co-simulation's unit
    /// of work. A window ends only where the analog stage must stop (see
    /// the module docs); controller wakeups, gate acks and comparator
    /// events delivered within it, and the grid samples read off its
    /// plan, are not windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// When the next pending item changes the power stage (a gate
    /// apply or a load step); infinity when none is pending.
    fn next_stage_change(&self) -> f64 {
        self.next_pending(|kind| matches!(kind, PendKind::Apply { .. } | PendKind::LoadStep(_)))
    }

    /// When the analog side must next stop for a pending item: a stage
    /// change, or a sensor reference switch; infinity when none is
    /// pending.
    fn next_analog(&self) -> f64 {
        self.next_pending(PendKind::is_analog)
    }

    fn next_pending(&self, which: impl Fn(&PendKind) -> bool) -> f64 {
        self.pending
            .iter()
            .find(|(_, kind)| which(kind))
            .map_or(f64::INFINITY, |&(at, _)| at)
    }

    /// The next pending item or controller wakeup; infinity when there
    /// is none.
    fn next_event(&self) -> f64 {
        let pending = self.pending.front().map_or(f64::INFINITY, |p| p.0);
        self.ctrl
            .next_wakeup()
            .map_or(pending, |w| pending.min(w.as_secs()))
    }

    /// Where a plan reaching `reach` runs out: the last sampling-grid
    /// point it covers, so the next plan starts there whatever the
    /// digital side does meanwhile; `reach` where it covers none.
    fn last_grid_point(&self, reach: f64) -> f64 {
        let period = self.sample_period;
        let mut idx = self.sample_idx;
        if (idx as f64 * period) > reach {
            return reach;
        }
        // Start near the end and step to the exact last point, as the
        // grid's rounding lands it.
        idx = idx.max((reach / period) as u64);
        while (idx as f64 * period) > reach {
            idx -= 1;
        }
        while ((idx + 1) as f64 * period) <= reach {
            idx += 1;
        }
        idx as f64 * period
    }

    fn push_pending(&mut self, at: f64, kind: PendKind) {
        let idx = self.pending.partition_point(|&(t, _)| t <= at);
        self.pending.insert(idx, (at, kind));
    }

    /// Runs the co-simulation until `t_end` seconds.
    ///
    /// # Errors
    ///
    /// A `t_end` that is not a [`Time`] (NaN, negative, infinite, or
    /// past `u64::MAX` femtoseconds) is [`SimError::InvalidParameter`];
    /// an integration failure of the analog stage
    /// ([`SimError::NonFinite`]) is passed on.
    pub fn try_run_until(&mut self, t_end: f64) -> Result<(), SimError> {
        if Time::try_from_secs(t_end).is_err() {
            return Err(SimError::InvalidParameter {
                what: "t_end (s)",
                value: t_end,
            });
        }
        // The grid fixes how many samples the run records: room for
        // them up front spares the columns their regrowth.
        let last_point = (t_end / self.sample_period) as u64;
        let samples = last_point
            .saturating_add(1)
            .saturating_sub(self.sample_idx)
            .min(MAX_RESERVED_SAMPLES);
        self.record.reserve(samples as usize);
        // Every window ends with a delivery, so after this first one no
        // pending item or wakeup is due at a window start.
        self.deliver(self.buck.time(), false)?;
        while self.buck.time() < t_end {
            self.windows += 1;

            // 1. Plan the exact trajectory to the next analog stop or
            //    grid point. The power stage changes only at gate applies
            //    and load steps, so one plan can serve every window up to
            //    the next of those; a body-diode current reaching zero,
            //    or the end of one series' reach, ends it early.
            let horizon = self.next_stage_change().min(t_end);
            let analog = self.next_analog().min(t_end);
            let reach = self
                .buck
                .try_plan(analog.min(self.next_sample_at), horizon)?;
            let run_out = self.last_grid_point(reach);

            // 2. The window ends at the first analog stop: the next
            //    pending stage change or reference switch, `t_end`, the
            //    first comparator crossing on the plan (all comparators
            //    crossing then fire), or where the plan runs out. Wakeups,
            //    acks and held comparator events before it change nothing
            //    analog, so they are delivered where they fall, with the
            //    buck left behind. They can only bring the stop forward.
            //    A comparator's crossing is resolved only once it could
            //    decide that: when it could come before the next digital
            //    event, or, with that event past where the plan runs out,
            //    anywhere on the plan.
            let (tn, crossing) = loop {
                let analog = self.next_analog().min(t_end);
                let at = self.next_event();
                let before = analog.min(if at < run_out { at } else { reach });
                let crossing = self
                    .sensors
                    .first_crossing(&self.buck, &mut self.fired, before);
                let stop = analog.min(crossing);
                let stop = if stop <= reach { stop } else { run_out };
                if at >= stop {
                    break (stop, crossing);
                }
                if self.deliver(at, true)? {
                    // A stage change or reference switch came due at
                    // `at` itself: the window ends there.
                    break (at, crossing);
                }
                self.record_debug_tracks(at);
            };

            // 3. The grid points before the window's end come off the
            //    plan in one pass, with no window and no controller call
            //    each.
            self.buck.sample_plan(
                &mut self.sample_idx,
                self.sample_period,
                tn,
                &mut self.record,
            );
            self.next_sample_at = self.sample_idx as f64 * self.sample_period;
            self.buck.try_advance_to(tn)?;
            // Each comparator event is held in `pending` until its own
            // time: crossing plus the comparator delay.
            if crossing == tn {
                for idx in 0..self.fired.len() {
                    let ev = self.sensors.fire(self.fired[idx], tn);
                    self.push_sensor(ev);
                }
            }

            // 4. Deliver controller wakeups and due pending items in
            //    time order, and record the debug tracks that changed.
            self.deliver(tn, false)?;
            self.record_debug_tracks(tn);

            // 5. A grid point at the window's end takes the state reached.
            if tn == self.next_sample_at {
                self.record
                    .sample(tn, self.buck.output_voltage(), self.buck.currents());
                self.sample_idx += 1;
                self.next_sample_at = self.sample_idx as f64 * self.sample_period;
            }
        }
        Ok(())
    }

    /// Records controller debug tracks (e.g. `act`, `get & !pass`) that
    /// changed since the last call, at `at`, like Figure 6's signal rows.
    /// Interned ids make the comparison a few word compares instead of
    /// string compares.
    fn record_debug_tracks(&mut self, at: f64) {
        if !R::EVENTS {
            return;
        }
        self.tracks_buf.clear();
        self.ctrl.debug_tracks_into(&mut self.tracks_buf);
        if self.tracks_buf == self.debug_tracks {
            return;
        }
        for idx in 0..self.tracks_buf.len() {
            let (id, value) = self.tracks_buf[idx];
            let changed = self
                .debug_tracks
                .iter()
                .find(|&&(n, _)| n == id)
                .map(|&(_, v)| v != value)
                .unwrap_or(true);
            if changed {
                self.record.event(at, id, value);
            }
        }
        // Adopt the new set wholesale: tracks that disappeared are
        // dropped (not carried forever), so a later reappearance records
        // again. Swap keeps both buffers' capacity.
        std::mem::swap(&mut self.debug_tracks, &mut self.tracks_buf);
    }

    /// Delivers controller wakeups and the pending items due by `tn`
    /// (gate applies and acks, load steps, reference switches, held
    /// comparator events) in time order; at equal times a pending item
    /// goes first. With `in_place` (the buck still short of `tn`) it
    /// stops before a stage change or reference switch and returns
    /// `true`; the same call without it, once the buck is at `tn`, goes
    /// on in the same order.
    fn deliver(&mut self, tn: f64, in_place: bool) -> Result<bool, SimError> {
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
                    if let Some(&(at, kind)) = self.pending.front() {
                        if in_place && kind.is_analog() {
                            return Ok(true);
                        }
                        self.pending.pop_front();
                        self.apply_pending(at, kind)?;
                    }
                }
                (None, None) => return Ok(false),
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
                // Catch the controller's clock up to the last femtosecond
                // before the ack in seconds: a clock edge that rounds to
                // the ack's femtosecond but lies before it in seconds goes
                // first, as `deliver` orders wakeups.
                let before = if t.as_secs() < at {
                    t
                } else {
                    Time::from_fs(t.as_fs().saturating_sub(1))
                };
                self.ctrl.on_wakeup(before);
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
                // Let the controller's clock catch up first, through
                // every edge up to the event's femtosecond.
                let te = self.clamp_time(at)?;
                self.ctrl.on_wakeup(te);
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
        let mut tb = TestbenchBuilder::new().try_build(ctrl).unwrap();
        tb.try_run_until(5e-6).unwrap();
        let v = tb.buck().output_voltage();
        assert!(v > 3.0 && v < 3.6, "v = {v}");
        assert_eq!(tb.short_circuits(), 0);
        assert!(!tb.waveform().is_empty());
    }

    #[test]
    fn sync_bench_regulates_startup() {
        let ctrl = SyncController::new(4, SyncParams::at_mhz(333.0));
        let mut tb = TestbenchBuilder::new().try_build(ctrl).unwrap();
        tb.try_run_until(5e-6).unwrap();
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
            .try_build(ctrl)
            .unwrap();
        tb.try_run_until(10e-6).unwrap();
        let v = tb.buck().output_voltage();
        assert!(v > 3.0 && v < 3.6, "v = {v} after load excursion");
        // The waveform saw the load steps.
        assert!(
            tb.waveform()
                .events
                .iter()
                .filter(|(_, n, _)| n == "load_step")
                .count()
                == 2
        );
    }

    #[test]
    fn async_ripple_below_sync_ripple() {
        // The headline qualitative claim of Figure 6 in miniature.
        let run = |sync: bool| -> f64 {
            let builder = TestbenchBuilder::new();
            let w = if sync {
                let mut tb = builder
                    .try_build(SyncController::new(4, SyncParams::at_mhz(100.0)))
                    .unwrap();
                tb.try_run_until(8e-6).unwrap();
                tb.into_waveform()
            } else {
                let mut tb = builder
                    .try_build(AsyncController::new(4, AsyncTiming::default()))
                    .unwrap();
                tb.try_run_until(8e-6).unwrap();
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
            .try_build(ctrl)
            .unwrap();
        tb.try_run_until(3e-6).unwrap();
        let w = tb.waveform();
        assert!(w.events.iter().any(|(_, n, v)| n == "uv" && *v));
        assert!(w.events.iter().any(|(_, n, _)| n == "gp0"));
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

        for bad in [f64::NAN, 0.0, -2e-9, f64::INFINITY, 1e-30] {
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
            TestbenchBuilder::new()
                .thresholds(thresholds)
                .try_build(ctrl),
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
            Err(SimError::InvalidParameter {
                what: "cap (F)",
                ..
            })
        ));

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        assert!(matches!(
            TestbenchBuilder::new().try_build_into(ctrl, Waveform::new(3)),
            Err(SimError::InvalidParameter {
                what: "record phases",
                ..
            })
        ));
    }

    /// A bench running into a reducer takes the same windows to the
    /// same state as one recording a waveform, and the reducer folds
    /// the bits the waveform's metrics read.
    #[test]
    fn reducers_run_the_same_cell_as_a_waveform() {
        use a4a_analog::metrics::{PeakCurrent, PhaseMoments};
        fn run<R: Record>(record: R) -> (u64, Vec<u64>, R) {
            let ctrl = SyncController::new(4, SyncParams::at_mhz(333.0));
            let mut tb = TestbenchBuilder::new()
                .load_step(3e-6, 3.0)
                .try_build_into(ctrl, record)
                .unwrap();
            tb.try_run_until(5e-6).unwrap();
            let b = tb.buck();
            let mut state: Vec<u64> = b.currents().iter().map(|x| x.to_bits()).collect();
            state.push(b.output_voltage().to_bits());
            (tb.windows(), state, tb.into_record())
        }
        let (windows, state, w) = run(Waveform::new(4));
        let (peak_windows, peak_state, peak) = run(PeakCurrent::default());
        let (moment_windows, moment_state, moments) = run(PhaseMoments::new(4, 2e-6, 4e-6));
        assert_eq!((peak_windows, &peak_state), (windows, &state));
        assert_eq!((moment_windows, &moment_state), (windows, &state));
        assert_eq!(peak.amps().to_bits(), metrics::peak_current(&w).to_bits());
        let steady = w.window(2e-6, 4e-6);
        for k in 0..4 {
            assert_eq!(moments.count(k), steady.len(), "phase {k}");
            let pairs = [
                (moments.rms_current(k), metrics::rms_current(&steady, k)),
                (moments.dc_current(k), metrics::dc_current(&steady, k)),
                (
                    moments.ac_rms_current(k),
                    metrics::ac_rms_current(&steady, k),
                ),
            ];
            for (streamed, stored) in pairs {
                assert_eq!(streamed.to_bits(), stored.to_bits(), "phase {k}");
            }
        }
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
            fn take_commands_into(&mut self, _: &mut Vec<TimedCommand>) {}
            fn debug_tracks_into(&self, out: &mut Vec<(a4a_analog::TrackId, bool)>) {
                out.extend(self.tracks.borrow().iter().copied());
            }
        }

        let dbg = a4a_analog::TrackId::intern("dbg-stub");
        let tracks = Rc::new(RefCell::new(vec![(dbg, true)]));
        let ctrl = TrackStub {
            tracks: Rc::clone(&tracks),
        };
        let mut tb = TestbenchBuilder::new().try_build(ctrl).unwrap();
        let count = |tb: &Testbench<TrackStub>| {
            tb.waveform()
                .events
                .iter()
                .filter(|&&(_, n, _)| n == dbg)
                .count()
        };

        // Window 1: the track appears -> recorded once.
        tb.try_run_until(0.5e-9).unwrap();
        assert_eq!(count(&tb), 1, "new track records an event");

        // The track disappears: no event, and it must not linger in
        // the stored set.
        tracks.borrow_mut().clear();
        tb.try_run_until(1.0e-9).unwrap();
        assert_eq!(count(&tb), 1, "disappearing track records nothing");

        // It reappears with the *same* value: a stale stored entry
        // would suppress this; the drop semantics record it again.
        tracks.borrow_mut().push((dbg, true));
        tb.try_run_until(1.5e-9).unwrap();
        assert_eq!(count(&tb), 2, "reappearing track records again");
    }

    /// An ack a hair after a clock edge in seconds rounds to the edge's
    /// femtosecond. `deliver` orders the two in seconds, so the ack
    /// reaches the controller after the edge; at the edge's time or a
    /// hair before, ahead of it. That holds also for a controller that
    /// sleeps through the edge and is caught up before the ack.
    #[test]
    fn an_ack_a_hair_after_an_edge_follows_it() {
        /// Sleeps through everything; logs each ack with how far the
        /// controller's clock had been caught up by then.
        struct Sleeper {
            woken: Time,
            acks: Vec<(Time, Time)>,
        }
        impl BuckController for Sleeper {
            fn phases(&self) -> usize {
                4
            }
            fn on_sensor(&mut self, _: Time, _: SensorKind, _: bool) {}
            fn on_gate_ack(&mut self, t: Time, _: usize, _: bool, _: bool) {
                self.acks.push((t, self.woken));
            }
            fn next_wakeup(&self) -> Option<Time> {
                None
            }
            fn on_wakeup(&mut self, t: Time) {
                self.woken = self.woken.max(t);
            }
            fn take_commands_into(&mut self, _: &mut Vec<TimedCommand>) {}
        }

        let edge = Time::from_ns(7.0);
        let secs = edge.as_secs();
        let after = f64::from_bits(secs.to_bits() + 1);
        let before = f64::from_bits(secs.to_bits() - 1);
        for (at, edge_first) in [(after, true), (secs, false), (before, false)] {
            assert_eq!(Time::from_secs(at), edge);
            let sleeper = Sleeper {
                woken: Time::ZERO,
                acks: Vec::new(),
            };
            let mut tb = TestbenchBuilder::new().try_build(sleeper).unwrap();
            let ack = PendKind::Ack {
                phase: 0,
                pmos: true,
                value: true,
            };
            tb.push_pending(at, ack);
            tb.try_run_until(10e-9).unwrap();
            let acks = &tb.controller().acks;
            assert_eq!(acks.len(), 1);
            let (t, woken) = acks[0];
            assert_eq!(t, edge);
            assert_eq!(
                woken >= edge,
                edge_first,
                "ack at {at:e} s, woken to {woken:?}"
            );
        }
    }

    /// Adds a wakeup every 0.1 ns to `inner`'s own, and passes
    /// everything else through.
    struct Ticking<C> {
        inner: C,
        next: Time,
    }

    impl<C: BuckController> BuckController for Ticking<C> {
        fn phases(&self) -> usize {
            self.inner.phases()
        }
        fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
            self.inner.on_sensor(t, kind, value);
        }
        fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
            self.inner.on_gate_ack(t, phase, pmos, value);
        }
        fn next_wakeup(&self) -> Option<Time> {
            let own = self.inner.next_wakeup();
            Some(own.map_or(self.next, |w| w.min(self.next)))
        }
        fn on_wakeup(&mut self, t: Time) {
            self.inner.on_wakeup(t);
            while self.next <= t {
                self.next += Time::from_ps(100.0);
            }
        }
        fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
            self.inner.take_commands_into(out);
        }
        fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
            self.inner.debug_tracks_into(out);
        }
    }

    /// Never wakes and issues nothing.
    struct Inert;

    impl BuckController for Inert {
        fn phases(&self) -> usize {
            4
        }
        fn on_sensor(&mut self, _: Time, _: SensorKind, _: bool) {}
        fn on_gate_ack(&mut self, _: Time, _: usize, _: bool, _: bool) {}
        fn next_wakeup(&self) -> Option<Time> {
            None
        }
        fn on_wakeup(&mut self, _: Time) {}
        fn take_commands_into(&mut self, _: &mut Vec<TimedCommand>) {}
    }

    /// A wakeup ends no window and moves nothing analog: a controller
    /// woken every 0.1 ns runs the same windows and records the same
    /// waveform, bit for bit, as without the extra wakeups; on its own
    /// (issuing nothing) and around a regulating controller.
    #[test]
    fn wakeups_move_no_window_and_no_sample() {
        fn run<C: BuckController>(ctrl: C) -> (u64, Waveform) {
            let mut tb = TestbenchBuilder::new()
                .load_step(1e-6, 4.0)
                .try_build(ctrl)
                .unwrap();
            tb.try_run_until(2e-6).unwrap();
            (tb.windows(), tb.into_waveform())
        }
        fn tick<C>(inner: C) -> Ticking<C> {
            Ticking {
                inner,
                next: Time::from_ps(100.0),
            }
        }
        assert_eq!(run(Inert), run(tick(Inert)));
        let async_ctrl = || AsyncController::new(4, AsyncTiming::default());
        assert_eq!(run(async_ctrl()), run(tick(async_ctrl())));
    }

    #[test]
    fn try_run_until_rejects_nan_and_keeps_working() {
        use a4a_sim::SimError;

        let ctrl = AsyncController::new(4, AsyncTiming::default());
        let mut tb = TestbenchBuilder::new()
            .try_build(ctrl)
            .expect("default configuration is valid");
        for bad in [f64::NAN, f64::INFINITY, 1e300] {
            assert!(matches!(
                tb.try_run_until(bad),
                Err(SimError::InvalidParameter {
                    what: "t_end (s)",
                    ..
                })
            ));
        }
        tb.try_run_until(2e-6).expect("normal run succeeds");
        assert!(tb.buck().output_voltage() > 0.0);
    }
}

#[cfg(test)]
mod window_tests {
    use crate::scenario::{self, ControllerKind};

    fn windows(kind: ControllerKind) -> u64 {
        let mut tb = scenario::sweep_coil(4.7, 6.0)
            .try_build(scenario::controller(kind, 4))
            .unwrap();
        tb.try_run_until(8e-6).unwrap();
        tb.windows()
    }

    /// A window ends only where the analog stage must stop: a gate apply,
    /// a load step or reference switch, a comparator crossing, a diode
    /// zero, or the grid point where a plan runs out. Wakeups, acks and
    /// held comparator events are delivered within windows, and
    /// [`Testbench::windows`] does not count the 4 000 grid samples of an
    /// 8 µs cell, which come off the plans. So at 1 GHz the cell takes
    /// far fewer windows than its 8 000 clock edges.
    #[test]
    fn windows_end_only_at_samples_and_events() {
        for (kind, range) in [
            (ControllerKind::Sync(100.0), 180..270),
            (ControllerKind::Sync(1000.0), 260..390),
            (ControllerKind::Async, 530..800),
        ] {
            let n = windows(kind);
            assert!(range.contains(&n), "{}: {n} windows", kind.label());
        }
    }
    /// The sample period only sets where samples land. With one sample
    /// every 5 µs or 8 µs, windows grow long (a plan still spans at most
    /// one series, about 0.5 µs), and every track records the events of
    /// the 2 ns default. Samples cost no windows: the 10 000 points of
    /// the 2 ns grid add at most one window per 50, where plans run out.
    /// (Comparators of phases with equal currents cross within rounding
    /// of each other, so the order across tracks may differ.)
    #[test]
    fn sparse_sampling_records_the_same_events() {
        for kind in [ControllerKind::Async, ControllerKind::Sync(100.0)] {
            let run = |period: f64| {
                let mut tb = scenario::sweep_coil(4.7, 6.0)
                    .sample_period(period)
                    .try_build(scenario::controller(kind, 4))
                    .unwrap();
                tb.try_run_until(20e-6).unwrap();
                let mut events = tb.waveform().events.clone();
                events.sort_by_key(|e| e.1);
                (tb.windows(), tb.waveform().len(), events)
            };
            let (dense_windows, samples, dense) = run(2e-9);
            for period in [5e-6, 8e-6] {
                let (sparse_windows, _, sparse) = run(period);
                let more = dense_windows.saturating_sub(sparse_windows);
                assert!(
                    50 * more <= samples as u64,
                    "{dense_windows} vs {sparse_windows} windows, {samples} samples"
                );
                assert_eq!(dense.len(), sparse.len(), "{}", kind.label());
                for (a, b) in dense.iter().zip(&sparse) {
                    assert_eq!((a.1, a.2), (b.1, b.2), "{}: {a:?} vs {b:?}", kind.label());
                    assert!(
                        (a.0 - b.0).abs() < 1e-12,
                        "{}: {a:?} vs {b:?}",
                        kind.label()
                    );
                }
            }
        }
    }
}
