use std::fmt;

/// An RF power inductor model in the style of the Coilcraft parts the
/// paper simulates.
///
/// The family trend matters for Figure 7c: within one package family,
/// larger inductance means more turns of thinner wire, so DC resistance
/// (and the high-frequency ESR that dominates ripple losses) grows with
/// inductance. The values here follow the 0805HP-class catalogue shape.
///
/// # Examples
///
/// ```
/// use a4a_analog::CoilModel;
///
/// let small = CoilModel::coilcraft(1.8);
/// let large = CoilModel::coilcraft(8.2);
/// assert!(small.dcr < large.dcr);
/// assert!(small.esr_hf < large.esr_hf);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoilModel {
    /// Inductance (H).
    pub inductance: f64,
    /// DC winding resistance (Ω).
    pub dcr: f64,
    /// Effective series resistance at the converter's ~3 MHz ripple
    /// frequency (Ω), capturing skin and core losses.
    pub esr_hf: f64,
}

/// Catalogue anchor points: (inductance µH, DCR Ω, ESR Ω at ~3 MHz).
const CATALOGUE: &[(f64, f64, f64)] = &[
    (1.0, 0.045, 0.30),
    (1.8, 0.060, 0.42),
    (2.25, 0.070, 0.50),
    (3.1, 0.085, 0.62),
    (4.7, 0.105, 0.85),
    (5.7, 0.130, 1.00),
    (6.8, 0.150, 1.15),
    (8.2, 0.180, 1.35),
    (10.0, 0.210, 1.60),
];

impl CoilModel {
    /// A Coilcraft-style part of the given inductance in **µH**, with
    /// DCR/ESR interpolated from the catalogue family (extrapolated
    /// linearly outside 1–10 µH).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive inductance.
    pub fn coilcraft(l_uh: f64) -> CoilModel {
        assert!(l_uh > 0.0, "inductance must be positive");
        let interp = |select: fn(&(f64, f64, f64)) -> f64| -> f64 {
            // Piecewise-linear interpolation over the catalogue.
            let first = &CATALOGUE[0];
            let last = &CATALOGUE[CATALOGUE.len() - 1];
            if l_uh <= first.0 {
                let second = &CATALOGUE[1];
                let t = (l_uh - first.0) / (second.0 - first.0);
                return select(first) + t * (select(second) - select(first));
            }
            if l_uh >= last.0 {
                let prev = &CATALOGUE[CATALOGUE.len() - 2];
                let t = (l_uh - prev.0) / (last.0 - prev.0);
                return select(prev) + t * (select(last) - select(prev));
            }
            for w in CATALOGUE.windows(2) {
                if l_uh >= w[0].0 && l_uh <= w[1].0 {
                    let t = (l_uh - w[0].0) / (w[1].0 - w[0].0);
                    return select(&w[0]) + t * (select(&w[1]) - select(&w[0]));
                }
            }
            unreachable!("interpolation covers the whole axis")
        };
        CoilModel {
            inductance: l_uh * 1e-6,
            dcr: interp(|c| c.1),
            esr_hf: interp(|c| c.2),
        }
    }

    /// The nine catalogue inductances swept in Figure 7a/7c, in µH.
    pub fn family_uh() -> Vec<f64> {
        CATALOGUE.iter().map(|c| c.0).collect()
    }

    /// The inductance in µH (display convenience).
    pub fn inductance_uh(&self) -> f64 {
        self.inductance * 1e6
    }
}

impl fmt::Display for CoilModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}uH (DCR {:.0}mΩ, ESR {:.2}Ω@3MHz)",
            self.inductance_uh(),
            self.dcr * 1e3,
            self.esr_hf
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_points_exact() {
        let c = CoilModel::coilcraft(4.7);
        assert!((c.inductance - 4.7e-6).abs() < 1e-12);
        assert!((c.dcr - 0.105).abs() < 1e-9);
        assert!((c.esr_hf - 0.85).abs() < 1e-9);
    }

    #[test]
    fn interpolation_between_points() {
        let c = CoilModel::coilcraft(1.4); // halfway 1.0..1.8
        assert!(c.dcr > 0.045 && c.dcr < 0.060);
    }

    #[test]
    fn monotone_over_family() {
        let family = CoilModel::family_uh();
        assert_eq!(family.len(), 9);
        let coils: Vec<CoilModel> = family.iter().map(|&l| CoilModel::coilcraft(l)).collect();
        for w in coils.windows(2) {
            assert!(w[0].inductance < w[1].inductance);
            assert!(w[0].dcr < w[1].dcr);
            assert!(w[0].esr_hf < w[1].esr_hf);
        }
    }

    #[test]
    fn extrapolation_stays_positive() {
        let lo = CoilModel::coilcraft(0.5);
        let hi = CoilModel::coilcraft(15.0);
        assert!(lo.dcr > 0.0 && hi.dcr > lo.dcr);
    }

    #[test]
    fn display_formats() {
        let c = CoilModel::coilcraft(4.7);
        let s = c.to_string();
        assert!(s.contains("4.70uH"));
    }
}
