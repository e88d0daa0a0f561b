use std::fmt;

use crate::Comparator;

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
/// # Examples
///
/// ```
/// use a4a_analog::{SensorBank, SensorKind};
///
/// let mut bank = SensorBank::new(2, Default::default());
/// // Voltage collapses: HL and UV assert (ordering by threshold).
/// let events = bank.update(0.0, 1e-9, 0.0, &[0.0, 0.0]);
/// assert!(events.iter().any(|e| e.kind == SensorKind::Uv && e.value));
/// ```
#[derive(Debug, Clone)]
pub struct SensorBank {
    thresholds: SensorThresholds,
    hl: Comparator,
    uv: Comparator,
    ov: Comparator,
    oc: Vec<Comparator>,
    zc: Vec<Comparator>,
    ov_mode: bool,
    /// Last sampled time/voltage/currents, valid when `has_last`. Kept
    /// as flat fields (currents in a reused buffer) so the per-window
    /// [`SensorBank::update_into`] path never clones or allocates.
    has_last: bool,
    last_t: f64,
    last_v: f64,
    last_i: Vec<f64>,
}

impl SensorBank {
    /// Creates the bank for `phases` phases.
    pub fn new(phases: usize, thresholds: SensorThresholds) -> SensorBank {
        let t = &thresholds;
        SensorBank {
            hl: Comparator::below(t.vmin, t.v_hyst, t.delay),
            uv: Comparator::below(t.vref, t.v_hyst, t.delay),
            ov: Comparator::above(t.vmax, t.v_hyst, t.delay),
            oc: (0..phases)
                .map(|_| Comparator::above(t.imax, t.i_hyst, t.delay))
                .collect(),
            zc: (0..phases)
                .map(|_| Comparator::below(t.i0, t.i_hyst, t.delay))
                .collect(),
            ov_mode: false,
            thresholds,
            has_last: false,
            last_t: 0.0,
            last_v: 0.0,
            last_i: Vec::with_capacity(phases),
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

    /// Current output of a sensor.
    pub fn output(&self, kind: SensorKind) -> bool {
        match kind {
            SensorKind::Hl => self.hl.output(),
            SensorKind::Uv => self.uv.output(),
            SensorKind::Ov => self.ov.output(),
            SensorKind::Oc(k) => self.oc[k].output(),
            SensorKind::Zc(k) => self.zc[k].output(),
        }
    }

    /// Switches the current references between normal mode
    /// (`I_max`/`I_0`) and OV mode (`I_0`/`I_neg`). Returns the sensor
    /// events caused by re-evaluating the last sample against the new
    /// references.
    pub fn set_ov_mode(&mut self, on: bool, now: f64) -> Vec<SensorEvent> {
        if self.ov_mode == on {
            return Vec::new();
        }
        self.ov_mode = on;
        let t = &self.thresholds;
        let (oc_ref, zc_ref) = if on { (t.i0, t.ineg) } else { (t.imax, t.i0) };
        for c in &mut self.oc {
            c.set_threshold(oc_ref);
        }
        for c in &mut self.zc {
            c.set_threshold(zc_ref);
        }
        // Re-evaluate against the stored sample so mode changes take
        // effect without waiting for the next analog step. Cold path
        // (mode switches are rare), so returning a Vec is fine.
        let mut events = Vec::new();
        if self.has_last {
            for k in 0..self.last_i.len() {
                let i = self.last_i[k];
                if let Some((_, v)) = self.oc[k].update(now, i, now, i) {
                    events.push(SensorEvent {
                        time: now + t.delay,
                        kind: SensorKind::Oc(k),
                        value: v,
                    });
                }
                if let Some((_, v)) = self.zc[k].update(now, i, now, i) {
                    events.push(SensorEvent {
                        time: now + t.delay,
                        kind: SensorKind::Zc(k),
                        value: v,
                    });
                }
            }
        }
        events
    }

    /// Feeds one analog step (from the last sample to `(t, v, i)`),
    /// returning sensor events sorted by time. Convenience wrapper
    /// around [`SensorBank::update_into`].
    ///
    /// # Panics
    ///
    /// Panics if the current slice length changes between calls.
    pub fn update(&mut self, t0: f64, t: f64, v: f64, i: &[f64]) -> Vec<SensorEvent> {
        let mut events = Vec::new();
        self.update_into(t0, t, v, i, &mut events);
        events
    }

    /// Allocation-free [`SensorBank::update`]: appends the step's
    /// events to `events` (that appended range sorted by time) instead
    /// of returning a fresh Vec, so the co-simulation loop can reuse
    /// one buffer across windows.
    ///
    /// # Panics
    ///
    /// Panics if the current slice length changes between calls.
    pub fn update_into(
        &mut self,
        t0: f64,
        t: f64,
        v: f64,
        i: &[f64],
        events: &mut Vec<SensorEvent>,
    ) {
        let (prev_t, prev_v) = if self.has_last {
            assert_eq!(self.last_i.len(), i.len(), "phase count changed");
            (self.last_t, self.last_v)
        } else {
            (t0, v)
        };
        let start = events.len();
        let mut push = |kind: SensorKind, ev: Option<(f64, bool)>| {
            if let Some((time, value)) = ev {
                events.push(SensorEvent { time, kind, value });
            }
        };
        push(SensorKind::Hl, self.hl.update(prev_t, prev_v, t, v));
        push(SensorKind::Uv, self.uv.update(prev_t, prev_v, t, v));
        push(SensorKind::Ov, self.ov.update(prev_t, prev_v, t, v));
        for (k, &ik) in i.iter().enumerate() {
            let prev_ik = if self.has_last { self.last_i[k] } else { ik };
            push(SensorKind::Oc(k), self.oc[k].update(prev_t, prev_ik, t, ik));
            push(SensorKind::Zc(k), self.zc[k].update(prev_t, prev_ik, t, ik));
        }
        self.has_last = true;
        self.last_t = t;
        self.last_v = v;
        self.last_i.clear();
        self.last_i.extend_from_slice(i);
        events[start..].sort_by(|a, b| a.time.total_cmp(&b.time));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> SensorBank {
        SensorBank::new(2, SensorThresholds::default())
    }

    #[test]
    fn startup_asserts_hl_uv_immediately() {
        let mut b = bank();
        let evs = b.update(0.0, 1e-9, 0.0, &[0.0, 0.0]);
        let kinds: Vec<SensorKind> = evs.iter().filter(|e| e.value).map(|e| e.kind).collect();
        assert!(kinds.contains(&SensorKind::Hl));
        assert!(kinds.contains(&SensorKind::Uv));
        assert!(!kinds.contains(&SensorKind::Ov));
        assert!(b.output(SensorKind::Uv));
    }

    #[test]
    fn voltage_recovery_clears_in_threshold_order() {
        let mut b = bank();
        b.update(0.0, 1e-9, 0.0, &[0.0, 0.0]);
        let evs = b.update(1e-9, 1e-6, 3.4, &[0.0, 0.0]);
        let clears: Vec<(f64, SensorKind)> = evs
            .iter()
            .filter(|e| !e.value)
            .map(|e| (e.time, e.kind))
            .collect();
        assert_eq!(clears.len(), 2, "HL then UV release");
        assert!(clears[0].1 == SensorKind::Hl && clears[1].1 == SensorKind::Uv);
        assert!(clears[0].0 < clears[1].0, "HL releases first (lower threshold)");
    }

    #[test]
    fn over_voltage_asserts() {
        let mut b = bank();
        b.update(0.0, 1e-9, 3.3, &[0.0, 0.0]);
        let evs = b.update(1e-9, 1e-6, 3.6, &[0.0, 0.0]);
        assert!(evs
            .iter()
            .any(|e| e.kind == SensorKind::Ov && e.value));
    }

    #[test]
    fn per_phase_oc_and_zc() {
        let mut b = bank();
        b.update(0.0, 1e-9, 3.3, &[0.1, 0.0]);
        // Phase 0 exceeds I_max; phase 1 stays put.
        let evs = b.update(1e-9, 1e-6, 3.3, &[0.25, 0.0]);
        assert!(evs.iter().any(|e| e.kind == SensorKind::Oc(0) && e.value));
        assert!(!evs.iter().any(|e| e.kind == SensorKind::Oc(1)));
        // Phase 0 current decays to zero: ZC fires.
        let evs = b.update(1e-6, 2e-6, 3.3, &[-0.01, 0.0]);
        assert!(evs.iter().any(|e| e.kind == SensorKind::Zc(0) && e.value));
    }

    #[test]
    fn ov_mode_switches_current_references() {
        let mut b = bank();
        // Current sits at 0.05 A: below I_max, above I_0.
        b.update(0.0, 1e-9, 3.3, &[0.05, 0.05]);
        assert!(!b.output(SensorKind::Oc(0)));
        // Enter OV mode: OC reference becomes I_0 = 0, so 0.05 A is now
        // over-current.
        let evs = b.set_ov_mode(true, 2e-9);
        assert!(b.ov_mode());
        assert!(evs.iter().any(|e| e.kind == SensorKind::Oc(0) && e.value));
        assert!(evs.iter().any(|e| e.kind == SensorKind::Oc(1) && e.value));
        // ZC reference is now I_neg: current must go below -0.1 A.
        let evs = b.update(2e-9, 1e-6, 3.3, &[-0.05, 0.05]);
        assert!(!evs.iter().any(|e| e.kind == SensorKind::Zc(0) && e.value));
        let evs = b.update(1e-6, 2e-6, 3.3, &[-0.15, 0.05]);
        assert!(evs.iter().any(|e| e.kind == SensorKind::Zc(0) && e.value));
        // Leaving OV mode restores the references.
        b.set_ov_mode(false, 3e-6);
        assert!(!b.ov_mode());
    }

    #[test]
    fn repeated_mode_switch_is_idempotent() {
        let mut b = bank();
        b.update(0.0, 1e-9, 3.3, &[0.05, 0.0]);
        let first = b.set_ov_mode(true, 2e-9);
        assert!(!first.is_empty());
        let second = b.set_ov_mode(true, 3e-9);
        assert!(second.is_empty(), "no-op repeat produces no events");
        // Leaving restores the normal references and re-evaluates.
        let leave = b.set_ov_mode(false, 4e-9);
        assert!(leave.iter().any(|e| e.kind == SensorKind::Oc(0) && !e.value));
    }

    #[test]
    fn events_sorted_by_time() {
        let mut b = bank();
        let evs = b.update(0.0, 1e-6, 0.0, &[0.3, -0.3]);
        for w in evs.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(SensorKind::Oc(2).to_string(), "oc2");
        assert_eq!(SensorKind::Hl.to_string(), "hl");
    }
}
