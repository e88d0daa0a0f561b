//! The paper's measurements: voltage ripple, inductor peak current, RMS
//! decomposition, and coil conduction losses.
//!
//! The current metrics are folded by two reducers, [`PeakCurrent`] and
//! [`PhaseMoments`]. Each is a [`Record`] a testbench can run into, so a
//! Figure 7 cell folds its one number as the samples come off the
//! trajectory and stores none of them; [`peak_current`],
//! [`rms_current`], [`dc_current`] and [`ac_rms_current`] feed a stored
//! [`Waveform`] through the same reducers, so both ways give the same
//! bits.
//!
//! NaN handling: a NaN sample poisons every metric over the record to
//! NaN. `f64::min`/`f64::max` silently *drop* NaN operands, so the
//! extremum-based metrics ([`voltage_ripple`], [`PeakCurrent`]) check
//! explicitly — a corrupted record must never masquerade as a clean
//! measurement (the sum-based metrics propagate NaN naturally).

use crate::{CoilModel, Record, Waveform};

/// The largest absolute coil current over all phases, folded as the
/// samples arrive: the reducer behind [`peak_current`].
///
/// # Examples
///
/// ```
/// use a4a_analog::metrics::PeakCurrent;
/// use a4a_analog::Record;
///
/// let mut peak = PeakCurrent::default();
/// peak.sample(0.0, 3.3, &[0.1, -0.3]);
/// peak.current(&[1e-9, 2e-9], 0, &[0.2, 0.25]);
/// assert_eq!(peak.amps(), 0.3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PeakCurrent {
    amps: f64,
    nan: bool,
}

impl PeakCurrent {
    fn fold(&mut self, values: &[f64]) {
        for &x in values {
            self.nan |= x.is_nan();
            self.amps = self.amps.max(x.abs());
        }
    }

    /// The peak so far (A): 0 before any sample, NaN once a NaN came.
    pub fn amps(&self) -> f64 {
        if self.nan {
            f64::NAN
        } else {
            self.amps
        }
    }
}

impl Record for PeakCurrent {
    const EVENTS: bool = false;
    const VOLTAGE: bool = false;

    fn fits(&self, _phases: usize) -> bool {
        true
    }

    fn sample(&mut self, _t: f64, _v: f64, currents: &[f64]) {
        self.fold(currents);
    }

    fn current(&mut self, _times: &[f64], _phase: usize, values: &[f64]) {
        self.fold(values);
    }
}

/// Σi, Σi² and the sample count of one phase's coil current.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Moments {
    sum: f64,
    sum_sq: f64,
    count: usize,
}

impl Moments {
    /// Nothing summed yet. The sums start at −0, the additive identity,
    /// as `Iterator::sum` over `f64` does.
    const EMPTY: Moments = Moments {
        sum: -0.0,
        sum_sq: -0.0,
        count: 0,
    };

    fn add(&mut self, x: f64) {
        self.sum += x;
        self.sum_sq += x * x;
        self.count += 1;
    }

    fn rms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sum_sq / self.count as f64).sqrt()
    }

    fn dc(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    fn ac_rms(&self) -> f64 {
        let rms = self.rms();
        let dc = self.dc();
        if rms.is_nan() || dc.is_nan() {
            // `.max(0.0)` below would silently launder NaN into 0.
            return f64::NAN;
        }
        (rms * rms - dc * dc).max(0.0).sqrt()
    }
}

/// Per-phase Σi, Σi² and sample count over the closed time window
/// `[from, to]`, folded as the samples arrive: the reducer behind
/// [`rms_current`], [`dc_current`] and [`ac_rms_current`]. Each sum runs
/// in sample order.
///
/// # Examples
///
/// ```
/// use a4a_analog::metrics::PhaseMoments;
/// use a4a_analog::Record;
///
/// let mut m = PhaseMoments::new(2, 1e-9, 2e-9);
/// m.sample(0.0, 0.0, &[5.0, 5.0]); // before the window
/// m.current(&[1e-9, 2e-9], 0, &[0.1, 0.3]);
/// assert!((m.dc_current(0) - 0.2).abs() < 1e-12);
/// assert!((m.ac_rms_current(0) - 0.1).abs() < 1e-12);
/// assert_eq!(m.dc_current(1), 0.0, "nothing in the window");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMoments {
    from: f64,
    to: f64,
    phases: Vec<Moments>,
}

impl PhaseMoments {
    /// Empty sums for `phases` phases over the window `[from, to]` (s).
    pub fn new(phases: usize, from: f64, to: f64) -> PhaseMoments {
        PhaseMoments {
            from,
            to,
            phases: vec![Moments::EMPTY; phases],
        }
    }

    /// Samples taken for one phase.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range (so do the other per-phase
    /// readings).
    pub fn count(&self, phase: usize) -> usize {
        self.phases[phase].count
    }

    /// RMS of one phase's coil current (A); 0 with no sample.
    pub fn rms_current(&self, phase: usize) -> f64 {
        self.phases[phase].rms()
    }

    /// Mean (DC) component of one phase's coil current (A); 0 with no
    /// sample.
    pub fn dc_current(&self, phase: usize) -> f64 {
        self.phases[phase].dc()
    }

    /// AC (ripple) RMS of one phase's coil current (A): RMS after
    /// removing the DC component.
    pub fn ac_rms_current(&self, phase: usize) -> f64 {
        self.phases[phase].ac_rms()
    }
}

impl Record for PhaseMoments {
    const EVENTS: bool = false;
    const VOLTAGE: bool = false;

    fn fits(&self, phases: usize) -> bool {
        self.phases.len() == phases
    }

    fn start(&self) -> f64 {
        self.from
    }

    fn sample(&mut self, t: f64, _v: f64, currents: &[f64]) {
        if t >= self.from && t <= self.to {
            for (m, &x) in self.phases.iter_mut().zip(currents) {
                m.add(x);
            }
        }
    }

    fn current(&mut self, times: &[f64], phase: usize, values: &[f64]) {
        let (from, to) = (self.from, self.to);
        let m = &mut self.phases[phase];
        for (&t, &x) in times.iter().zip(values) {
            if t >= from && t <= to {
                m.add(x);
            }
        }
    }
}

/// The moments of one phase of a stored record, every sample counted.
///
/// # Panics
///
/// Panics if `phase` is out of range.
fn phase_moments(w: &Waveform, phase: usize) -> Moments {
    let mut m = Moments::EMPTY;
    for &x in &w.i[phase] {
        m.add(x);
    }
    m
}

/// Peak-to-peak output-voltage ripple over the record (V); NaN when any
/// voltage sample is NaN.
///
/// Figure 6 quotes this for the normal-load window: 0.43 V synchronous
/// vs 0.36 V asynchronous.
pub fn voltage_ripple(w: &Waveform) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &w.v {
        if v.is_nan() {
            return f64::NAN;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo.is_finite() {
        hi - lo
    } else {
        0.0
    }
}

/// Mean output voltage (V).
pub fn mean_voltage(w: &Waveform) -> f64 {
    if w.v.is_empty() {
        return 0.0;
    }
    w.v.iter().sum::<f64>() / w.v.len() as f64
}

/// The largest absolute coil current over all phases (A) — the
/// "inductor peak current" of Figures 7a/7b; NaN when any current
/// sample is NaN.
pub fn peak_current(w: &Waveform) -> f64 {
    let mut peak = PeakCurrent::default();
    for phase in &w.i {
        peak.fold(phase);
    }
    peak.amps()
}

/// RMS of one phase's coil current (A).
///
/// # Panics
///
/// Panics if `phase` is out of range.
pub fn rms_current(w: &Waveform, phase: usize) -> f64 {
    phase_moments(w, phase).rms()
}

/// Mean (DC) component of one phase's coil current (A).
///
/// # Panics
///
/// Panics if `phase` is out of range.
pub fn dc_current(w: &Waveform, phase: usize) -> f64 {
    phase_moments(w, phase).dc()
}

/// AC (ripple) RMS of one phase's coil current (A): RMS after removing
/// the DC component.
///
/// # Panics
///
/// Panics if `phase` is out of range.
pub fn ac_rms_current(w: &Waveform, phase: usize) -> f64 {
    phase_moments(w, phase).ac_rms()
}

/// Total inductor conduction losses over all phases (W):
/// `I_dc² · DCR + I_ac,rms² · ESR_hf` per coil — the quantity of
/// Figure 7c, where the high-frequency ESR term dominates and grows
/// with inductance.
pub fn inductor_losses(w: &Waveform, coil: &CoilModel) -> f64 {
    (0..w.phases())
        .map(|k| {
            let dc = dc_current(w, k);
            let ac = ac_rms_current(w, k);
            dc * dc * coil.dcr + ac * ac * coil.esr_hf
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_wave() -> Waveform {
        // Phase 0: symmetric triangle 0..0.2 A around 0.1 A; phase 1 flat.
        let mut w = Waveform::new(2);
        for k in 0..=1000 {
            let t = k as f64 * 1e-9;
            let phase = (k % 100) as f64 / 100.0;
            let tri = if phase < 0.5 {
                phase * 2.0
            } else {
                2.0 - phase * 2.0
            };
            w.sample(t, 3.3 + 0.05 * (tri - 0.5), &[0.2 * tri, 0.1]);
        }
        w
    }

    #[test]
    fn ripple_is_peak_to_peak() {
        let w = triangle_wave();
        let r = voltage_ripple(&w);
        assert!((r - 0.05).abs() < 1e-3, "got {r}");
        assert!((mean_voltage(&w) - 3.3).abs() < 1e-2);
    }

    #[test]
    fn peak_current_over_phases() {
        let w = triangle_wave();
        assert!((peak_current(&w) - 0.2).abs() < 5e-3);
    }

    #[test]
    fn rms_decomposition() {
        let w = triangle_wave();
        // Triangle 0..A: dc = A/2, rms = A/sqrt(3), ac = A/(2*sqrt(3)).
        let a: f64 = 0.2;
        assert!((dc_current(&w, 0) - a / 2.0).abs() < 5e-3);
        assert!((rms_current(&w, 0) - a / 3.0f64.sqrt()).abs() < 5e-3);
        assert!((ac_rms_current(&w, 0) - a / (2.0 * 3.0f64.sqrt())).abs() < 5e-3);
        // Flat phase has zero AC content.
        assert!(ac_rms_current(&w, 1) < 1e-6);
        assert!((dc_current(&w, 1) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn losses_grow_with_coil_resistance() {
        let w = triangle_wave();
        let small = CoilModel::coilcraft(1.0);
        let large = CoilModel::coilcraft(10.0);
        let p_small = inductor_losses(&w, &small);
        let p_large = inductor_losses(&w, &large);
        assert!(p_small > 0.0);
        assert!(p_large > p_small, "same waveform, lossier coil");
    }

    #[test]
    fn nan_sample_poisons_extremum_metrics() {
        // Regression: `f64::min`/`f64::max` drop NaN operands, so a
        // single corrupted sample used to vanish from ripple and peak
        // current instead of flagging the record.
        let mut w = triangle_wave();
        w.v[500] = f64::NAN;
        assert!(
            voltage_ripple(&w).is_nan(),
            "NaN voltage must poison ripple"
        );
        assert!(mean_voltage(&w).is_nan());
        let mut w = triangle_wave();
        w.i[1][3] = f64::NAN;
        assert!(peak_current(&w).is_nan(), "NaN current must poison peak");
        assert!(rms_current(&w, 1).is_nan());
        assert!(dc_current(&w, 1).is_nan());
        assert!(ac_rms_current(&w, 1).is_nan());
        // The untouched phase still measures clean.
        assert!(!rms_current(&w, 0).is_nan());
    }

    #[test]
    fn empty_waveform_is_zero() {
        let w = Waveform::new(1);
        assert_eq!(voltage_ripple(&w), 0.0);
        assert_eq!(peak_current(&w), 0.0);
        assert_eq!(rms_current(&w, 0), 0.0);
        assert_eq!(mean_voltage(&w), 0.0);
    }
}
