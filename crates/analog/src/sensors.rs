use std::fmt;

use crate::buck::Search;
use crate::{Buck, Comparator};

/// Identity of a sensor condition (Figure 2a of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// High load: the output voltage dropped below `V_min`.
    Hl,
    /// Under-voltage: the output voltage dropped below `V_ref`.
    Uv,
    /// Over-voltage: the output voltage exceeded `V_max`.
    Ov,
    /// Over-current of one phase: the coil current exceeded the active
    /// OC reference (`I_max`, or `I_0` in OV mode).
    Oc(usize),
    /// Zero-crossing of one phase: the coil current fell below the
    /// active ZC reference (`I_0`, or `I_neg` in OV mode).
    Zc(usize),
}

impl fmt::Display for SensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensorKind::Hl => write!(f, "hl"),
            SensorKind::Uv => write!(f, "uv"),
            SensorKind::Ov => write!(f, "ov"),
            SensorKind::Oc(k) => write!(f, "oc{k}"),
            SensorKind::Zc(k) => write!(f, "zc{k}"),
        }
    }
}

/// A sensor output change, time-stamped with sub-step resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorEvent {
    /// Event time in seconds (crossing time plus comparator delay).
    pub time: f64,
    /// Which condition changed.
    pub kind: SensorKind,
    /// The new comparator output.
    pub value: bool,
}

/// Reference values and comparator characteristics for the sensor bank.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorThresholds {
    /// High-load voltage threshold `V_min` (V).
    pub vmin: f64,
    /// Regulation target / UV threshold `V_ref` (V).
    pub vref: f64,
    /// Over-voltage threshold `V_max` (V).
    pub vmax: f64,
    /// Normal-mode over-current reference `I_max` (A).
    pub imax: f64,
    /// Zero-current reference `I_0` (A); the OC reference in OV mode.
    pub i0: f64,
    /// Negative current limit `I_neg` (A); the ZC reference in OV mode.
    pub ineg: f64,
    /// Voltage comparator hysteresis (V).
    pub v_hyst: f64,
    /// Current comparator hysteresis (A).
    pub i_hyst: f64,
    /// Comparator propagation delay (s).
    pub delay: f64,
}

impl Default for SensorThresholds {
    fn default() -> Self {
        SensorThresholds {
            vmin: 3.05,
            vref: 3.3,
            vmax: 3.42,
            imax: 0.20,
            i0: 0.0,
            ineg: -0.10,
            v_hyst: 0.01,
            i_hyst: 0.004,
            delay: 1e-9,
        }
    }
}

/// The full condition-detector bank of an N-phase buck: HL, UV, OV plus
/// per-phase OC and ZC comparators, with the OV-mode threshold switch of
/// §II.
///
/// The bank does not sample its inputs: [`SensorBank::first_crossing`]
/// finds the next comparator crossing on the buck's planned trajectory,
/// and [`SensorBank::fire`] flips the comparators there.
///
/// # Examples
///
/// ```
/// use a4a_analog::{Buck, BuckParams, SensorBank, SensorKind};
///
/// let mut buck = Buck::try_new(BuckParams::default().with_phases(2))?;
/// let mut bank = SensorBank::new(2, Default::default());
/// buck.try_plan(1e-9, 1e-9)?;
/// // At rest the output sits below V_min and V_ref: HL and UV assert at
/// // once.
/// let mut fired = Vec::new();
/// let at = bank.first_crossing(&buck, &mut fired, 1e-9);
/// assert_eq!((at, fired.as_slice()), (0.0, [SensorKind::Hl, SensorKind::Uv].as_slice()));
/// let ev = bank.fire(SensorKind::Uv, at);
/// assert!(ev.value && bank.output(SensorKind::Uv));
/// assert_eq!(ev.time, 1e-9, "crossing plus comparator delay");
/// # Ok::<(), a4a_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SensorBank {
    thresholds: SensorThresholds,
    /// The comparators in watch order: HL, UV, OV, then OC and ZC by
    /// phase.
    comparators: Vec<(SensorKind, Comparator)>,
    ov_mode: bool,
    /// Each comparator's next crossing on the buck's planned trajectory
    /// (`At(INFINITY)`: none before the plan ends; `None`: not looked
    /// for yet), and the plan they were found on.
    next: Vec<Option<Search>>,
    plan: u64,
    /// The earliest crossing in `next` and the comparators crossing
    /// then; NaN while `next` has entries not looked for.
    first: f64,
    first_kinds: Vec<SensorKind>,
    /// The earliest bound of the crossings in `next` not yet resolved:
    /// `first` is the first crossing only if it is before this.
    unresolved: f64,
}

impl SensorBank {
    /// Creates the bank for `phases` phases.
    pub fn new(phases: usize, thresholds: SensorThresholds) -> SensorBank {
        let t = &thresholds;
        let mut comparators = vec![
            (SensorKind::Hl, Comparator::below(t.vmin, t.v_hyst, t.delay)),
            (SensorKind::Uv, Comparator::below(t.vref, t.v_hyst, t.delay)),
            (SensorKind::Ov, Comparator::above(t.vmax, t.v_hyst, t.delay)),
        ];
        for k in 0..phases {
            comparators.push((
                SensorKind::Oc(k),
                Comparator::above(t.imax, t.i_hyst, t.delay),
            ));
            comparators.push((
                SensorKind::Zc(k),
                Comparator::below(t.i0, t.i_hyst, t.delay),
            ));
        }
        SensorBank {
            next: vec![None; comparators.len()],
            comparators,
            ov_mode: false,
            thresholds,
            plan: 0,
            first: f64::NAN,
            first_kinds: Vec::new(),
            unresolved: f64::INFINITY,
        }
    }

    /// The active thresholds.
    pub fn thresholds(&self) -> &SensorThresholds {
        &self.thresholds
    }

    /// Whether the OV operating mode is active.
    pub fn ov_mode(&self) -> bool {
        self.ov_mode
    }

    /// Position of `kind` in watch order.
    fn slot(kind: SensorKind) -> usize {
        match kind {
            SensorKind::Hl => 0,
            SensorKind::Uv => 1,
            SensorKind::Ov => 2,
            SensorKind::Oc(k) => 3 + 2 * k,
            SensorKind::Zc(k) => 4 + 2 * k,
        }
    }

    /// Current output of a sensor.
    ///
    /// # Panics
    ///
    /// Panics if a per-phase kind names a phase out of range.
    pub fn output(&self, kind: SensorKind) -> bool {
        self.comparators[Self::slot(kind)].1.output()
    }

    /// Switches the current references between normal mode
    /// (`I_max`/`I_0`) and OV mode (`I_0`/`I_neg`). A current already
    /// beyond a new reference crosses it at once (see
    /// [`SensorBank::first_crossing`]).
    pub fn set_ov_mode(&mut self, on: bool) {
        self.ov_mode = on;
        let t = &self.thresholds;
        let (oc_ref, zc_ref) = if on { (t.i0, t.ineg) } else { (t.imax, t.i0) };
        for ((kind, c), next) in self.comparators.iter_mut().zip(&mut self.next) {
            match kind {
                SensorKind::Oc(_) => c.set_threshold(oc_ref),
                SensorKind::Zc(_) => c.set_threshold(zc_ref),
                _ => continue,
            }
            *next = None;
        }
        self.first = f64::NAN;
    }

    /// The first comparator crossing on `buck`'s planned trajectory (see
    /// [`Buck::try_plan`]) if it is at or before `before`: returns its
    /// time, and puts every comparator that crosses then into `fired`
    /// (in watch order). A time after `before` (`INFINITY`, with `fired`
    /// empty, when none crosses before the plan ends) otherwise.
    ///
    /// Crossings are looked for once per plan and comparator, and again
    /// only after the comparator fires or its reference switches. A
    /// search that is down to root finding is kept with a bound from
    /// the plan's series on how early its crossing can be, and finished
    /// only once a call's `before` reaches that bound; it then gives the
    /// time a search finished at once would.
    pub fn first_crossing(&mut self, buck: &Buck, fired: &mut Vec<SensorKind>, before: f64) -> f64 {
        if buck.plan_id() != self.plan {
            self.plan = buck.plan_id();
            self.next.fill(None);
            self.first = f64::NAN;
        }
        if self.first.is_nan() || before >= self.unresolved {
            let voltage = buck.currents().len();
            self.first = f64::INFINITY;
            self.first_kinds.clear();
            self.unresolved = f64::INFINITY;
            for (&(kind, ref c), next) in self.comparators.iter().zip(&mut self.next) {
                let search = next.get_or_insert_with(|| {
                    let index = match kind {
                        SensorKind::Hl | SensorKind::Uv | SensorKind::Ov => voltage,
                        SensorKind::Oc(k) | SensorKind::Zc(k) => k,
                    };
                    let (level, rising) = c.edge();
                    buck.search(index, level, rising)
                });
                if let Search::Later { bound, .. } = *search {
                    if bound > before {
                        self.unresolved = self.unresolved.min(bound);
                        continue;
                    }
                }
                let at = buck.resolve(*search);
                *search = Search::At(at);
                if at < self.first {
                    self.first = at;
                    self.first_kinds.clear();
                }
                if at == self.first && at.is_finite() {
                    self.first_kinds.push(kind);
                }
            }
        }
        fired.clone_from(&self.first_kinds);
        self.first
    }

    /// Flips the comparator of `kind`, whose input crossed its watched
    /// level at `at` seconds, and returns the output change, stamped with
    /// the comparator delay.
    ///
    /// # Panics
    ///
    /// Panics if a per-phase kind names a phase out of range.
    pub fn fire(&mut self, kind: SensorKind, at: f64) -> SensorEvent {
        let slot = Self::slot(kind);
        self.next[slot] = None;
        self.first = f64::NAN;
        let c = &mut self.comparators[slot].1;
        SensorEvent {
            time: at + c.delay(),
            kind,
            value: c.toggle(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuckParams;

    fn bank() -> SensorBank {
        SensorBank::new(2, SensorThresholds::default())
    }

    /// A two-phase buck with its switches off, at `v` and `i`.
    fn buck(v: f64, i: &[f64]) -> Buck {
        let mut b = Buck::try_new(BuckParams::default().with_phases(2)).unwrap();
        b.set_state(v, i);
        b
    }

    /// Runs the bank along the buck's trajectory for `dt` seconds the way
    /// the testbench does: plan (a plan outlives the run, so the next run
    /// reuses it), find the first crossing, advance to it and fire every
    /// comparator crossing then. Returns the events and, per crossing,
    /// the comparators that fired together.
    fn run(
        b: &mut SensorBank,
        buck: &mut Buck,
        dt: f64,
    ) -> (Vec<SensorEvent>, Vec<Vec<SensorKind>>) {
        let until = buck.time() + dt;
        let (mut events, mut groups, mut fired) = (Vec::new(), Vec::new(), Vec::new());
        while buck.time() < until {
            let reach = buck.try_plan(until, f64::INFINITY).expect("valid window");
            let at = b.first_crossing(buck, &mut fired, reach.min(until));
            let tn = reach.min(until).min(at);
            buck.try_advance_to(tn).expect("on the plan");
            if at == tn {
                events.extend(fired.iter().map(|&kind| b.fire(kind, tn)));
                groups.push(fired.clone());
                assert!(groups.len() < 100, "comparators flip without end");
            }
        }
        (events, groups)
    }

    /// Fires whatever is beyond its level now (a 1 fs window).
    fn settle(b: &mut SensorBank, buck: &mut Buck) -> Vec<SensorEvent> {
        run(b, buck, 1e-15).0
    }

    fn has(evs: &[SensorEvent], kind: SensorKind, value: bool) -> bool {
        evs.iter().any(|e| e.kind == kind && e.value == value)
    }

    #[test]
    fn startup_asserts_hl_uv_immediately() {
        let mut b = bank();
        let (evs, groups) = run(&mut b, &mut buck(0.0, &[0.0, 0.0]), 1e-15);
        assert_eq!(
            groups,
            [[SensorKind::Hl, SensorKind::Uv]],
            "both at one instant"
        );
        assert!(has(&evs, SensorKind::Hl, true) && has(&evs, SensorKind::Uv, true));
        assert!(!evs.iter().any(|e| e.kind == SensorKind::Ov));
        assert!(b.output(SensorKind::Uv));
        assert!(evs.iter().all(|e| e.time == 1e-9), "stamped with the delay");
    }

    #[test]
    fn voltage_recovery_clears_in_threshold_order() {
        // 1 A per phase charges the output from 3.0 V past V_min and
        // V_ref. At the start HL, UV and both OC comparators fire
        // together; then HL releases, and UV after it.
        let mut b = bank();
        let mut bk = buck(3.0, &[1.0, 1.0]);
        let (evs, groups) = run(&mut b, &mut bk, 100e-9);
        let all = [
            SensorKind::Hl,
            SensorKind::Uv,
            SensorKind::Oc(0),
            SensorKind::Oc(1),
        ];
        assert_eq!(groups[0], all);
        assert!(evs[..4].iter().all(|e| e.value && e.time == 1e-9));
        let clears: Vec<(f64, SensorKind)> = evs[4..]
            .iter()
            .filter(|e| !e.value)
            .map(|e| (e.time, e.kind))
            .collect();
        assert_eq!(clears.len(), 2, "HL then UV release: {evs:?}");
        assert!(clears[0].1 == SensorKind::Hl && clears[1].1 == SensorKind::Uv);
        assert!(
            1e-9 < clears[0].0 && clears[0].0 < clears[1].0,
            "{clears:?}"
        );
        for w in evs.windows(2) {
            assert!(w[0].time <= w[1].time, "events in time order");
        }
    }

    #[test]
    fn over_voltage_asserts() {
        // The output rises from 3.4 V through V_max plus half the
        // hysteresis; OV asserts a comparator delay after the crossing.
        let mut b = bank();
        let mut bk = buck(3.4, &[0.5, 0.5]);
        settle(&mut b, &mut bk);
        let t0 = bk.time();
        let (evs, _) = run(&mut b, &mut bk, 100e-9);
        let ov: Vec<_> = evs.iter().filter(|e| e.kind == SensorKind::Ov).collect();
        assert_eq!(ov.len(), 1, "{evs:?}");
        assert!(ov[0].value && ov[0].time > t0 + 1e-9);
        let mut at = buck(3.4, &[0.5, 0.5]);
        at.try_step(ov[0].time - 1e-9).unwrap();
        assert!((at.output_voltage() - 3.425).abs() < 1e-9, "{at}");
    }

    #[test]
    fn per_phase_oc_and_zc() {
        let mut b = bank();
        let mut bk = buck(3.3, &[0.1, 0.0]);
        settle(&mut b, &mut bk);
        // Phase 0 exceeds I_max; phase 1 stays put.
        bk.set_state(3.3, &[0.25, 0.0]);
        let evs = settle(&mut b, &mut bk);
        assert!(has(&evs, SensorKind::Oc(0), true));
        assert!(!evs.iter().any(|e| e.kind == SensorKind::Oc(1)));
        // With the NMOS on, phase 0's current ramps down through zero:
        // ZC fires once it is below I_0 by half the hysteresis.
        bk.set_state(3.3, &[0.1, 0.0]);
        bk.try_set_switch(0, false, true).unwrap();
        let (evs, _) = run(&mut b, &mut bk, 300e-9);
        let zc: Vec<_> = evs.iter().filter(|e| e.kind == SensorKind::Zc(0)).collect();
        assert_eq!(zc.len(), 1, "{evs:?}");
        assert!(zc[0].value && zc[0].time > 100e-9);
    }

    #[test]
    fn ov_mode_switches_current_references() {
        let mut b = bank();
        // Current sits at 0.05 A: below I_max, above I_0.
        let mut bk = buck(3.3, &[0.05, 0.05]);
        settle(&mut b, &mut bk);
        assert!(!b.output(SensorKind::Oc(0)));
        // Enter OV mode: OC reference becomes I_0 = 0, so 0.05 A is now
        // over-current, on both phases at once.
        b.set_ov_mode(true);
        assert!(b.ov_mode());
        let (evs, groups) = run(&mut b, &mut bk, 1e-15);
        assert_eq!(groups, [[SensorKind::Oc(0), SensorKind::Oc(1)]]);
        assert!(has(&evs, SensorKind::Oc(0), true) && has(&evs, SensorKind::Oc(1), true));
        // ZC reference is now I_neg: current must go below -0.1 A.
        bk.set_state(3.3, &[-0.05, 0.05]);
        assert!(!has(&settle(&mut b, &mut bk), SensorKind::Zc(0), true));
        bk.set_state(3.3, &[-0.15, 0.05]);
        assert!(has(&settle(&mut b, &mut bk), SensorKind::Zc(0), true));
        // Leaving OV mode restores the references.
        b.set_ov_mode(false);
        assert!(!b.ov_mode());
        assert_eq!(b.thresholds().imax, 0.20);
    }

    #[test]
    fn repeated_mode_switch_is_idempotent() {
        let mut b = bank();
        let mut bk = buck(3.3, &[0.05, 0.0]);
        settle(&mut b, &mut bk);
        b.set_ov_mode(true);
        assert!(has(&settle(&mut b, &mut bk), SensorKind::Oc(0), true));
        b.set_ov_mode(true);
        assert!(
            settle(&mut b, &mut bk).is_empty(),
            "no-op repeat fires nothing"
        );
        // Leaving restores I_max, which 0.05 A is below: OC releases.
        b.set_ov_mode(false);
        let evs = settle(&mut b, &mut bk);
        assert!(has(&evs, SensorKind::Oc(0), false), "{evs:?}");
    }

    #[test]
    fn kind_display() {
        assert_eq!(SensorKind::Oc(2).to_string(), "oc2");
        assert_eq!(SensorKind::Hl.to_string(), "hl");
    }
}
