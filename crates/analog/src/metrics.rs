//! The paper's measurements over recorded waveforms: voltage ripple,
//! inductor peak current, RMS decomposition, and coil conduction losses.
//!
//! NaN handling: a NaN sample poisons every metric over the record to
//! NaN. `f64::min`/`f64::max` silently *drop* NaN operands, so the
//! extremum-based metrics ([`voltage_ripple`], [`peak_current`]) check
//! explicitly — a corrupted record must never masquerade as a clean
//! measurement (the sum-based metrics propagate NaN naturally).

use crate::{CoilModel, Waveform};

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
    let mut peak = 0.0f64;
    for &x in w.i.iter().flat_map(|phase| phase.iter()) {
        if x.is_nan() {
            return f64::NAN;
        }
        peak = peak.max(x.abs());
    }
    peak
}

/// RMS of one phase's coil current (A).
///
/// # Panics
///
/// Panics if `phase` is out of range.
pub fn rms_current(w: &Waveform, phase: usize) -> f64 {
    let samples = &w.i[phase];
    if samples.is_empty() {
        return 0.0;
    }
    let sq: f64 = samples.iter().map(|&x| x * x).sum();
    (sq / samples.len() as f64).sqrt()
}

/// Mean (DC) component of one phase's coil current (A).
///
/// # Panics
///
/// Panics if `phase` is out of range.
pub fn dc_current(w: &Waveform, phase: usize) -> f64 {
    let samples = &w.i[phase];
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// AC (ripple) RMS of one phase's coil current (A): RMS after removing
/// the DC component.
///
/// # Panics
///
/// Panics if `phase` is out of range.
pub fn ac_rms_current(w: &Waveform, phase: usize) -> f64 {
    let rms = rms_current(w, phase);
    let dc = dc_current(w, phase);
    if rms.is_nan() || dc.is_nan() {
        // `.max(0.0)` below would silently launder NaN into 0.
        return f64::NAN;
    }
    (rms * rms - dc * dc).max(0.0).sqrt()
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
