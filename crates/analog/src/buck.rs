use std::fmt;

use a4a_sim::SimError;

use crate::CoilModel;

/// Conduction state of one phase's power stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchState {
    /// High-side PMOS conducting: the coil charges from `V_in`.
    PmosOn,
    /// Low-side NMOS conducting: the coil free-wheels to ground.
    NmosOn,
    /// Both transistors off: body diodes conduct until the coil current
    /// reaches zero (discontinuous conduction).
    #[default]
    Off,
}

/// Electrical parameters of the multiphase buck power stage.
///
/// Defaults put the converter in the paper's operating regime: a 5 V
/// input, 3.3 V target, four phases with 4.7 µH coils, and a load around
/// half an ampere.
#[derive(Debug, Clone, PartialEq)]
pub struct BuckParams {
    /// Input supply voltage (V).
    pub vin: f64,
    /// Number of phases.
    pub phases: usize,
    /// Per-phase coil model.
    pub coil: CoilModel,
    /// Output capacitance (F).
    pub cap: f64,
    /// Load resistance (Ω); can be stepped at run time with
    /// [`Buck::set_load`].
    pub rload: f64,
    /// PMOS on-resistance (Ω).
    pub rdson_p: f64,
    /// NMOS on-resistance (Ω).
    pub rdson_n: f64,
    /// Body-diode forward drop (V).
    pub vdiode: f64,
}

impl Default for BuckParams {
    fn default() -> Self {
        BuckParams {
            vin: 5.0,
            phases: 4,
            coil: CoilModel::coilcraft(4.7),
            cap: 330e-9,
            rload: 6.0,
            rdson_p: 0.15,
            rdson_n: 0.12,
            vdiode: 0.6,
        }
    }
}

impl BuckParams {
    /// Replaces the coil model (used by the Figure 7 inductance sweeps).
    pub fn with_coil(mut self, coil: CoilModel) -> Self {
        self.coil = coil;
        self
    }

    /// Replaces the nominal load resistance.
    pub fn with_load(mut self, rload: f64) -> Self {
        self.rload = rload;
        self
    }

    /// Replaces the phase count.
    pub fn with_phases(mut self, phases: usize) -> Self {
        self.phases = phases;
        self
    }
}

/// Piecewise-linear ODE model of the analog buck.
///
/// State: per-phase coil currents and the output capacitor voltage.
/// Integration is explicit midpoint (RK2) with discontinuous-conduction
/// clamping; the step size is chosen by the caller (the mixed-signal
/// testbench subdivides steps at digital event boundaries).
#[derive(Debug, Clone)]
pub struct Buck {
    params: BuckParams,
    switches: Vec<SwitchState>,
    current: Vec<f64>,
    voltage: f64,
    time: f64,
    /// Cumulative energy drawn from the input supply (J).
    energy_in: f64,
    /// Cumulative energy delivered to the load (J).
    energy_out: f64,
    /// RK2 scratch buffers, reused across steps so the integration hot
    /// path is allocation-free (the testbench takes ~20k sub-0.5 ns
    /// steps per 10 µs run). Contents are meaningless between steps.
    k1_i: Vec<f64>,
    mid_i: Vec<f64>,
    k2_i: Vec<f64>,
}

impl Buck {
    /// Creates a buck at rest: zero coil currents, zero output voltage,
    /// all switches off.
    ///
    /// # Panics
    ///
    /// Panics if the parameter set is non-physical (no phases,
    /// non-positive or non-finite component values); see
    /// [`Buck::try_new`] for the fallible variant.
    pub fn new(params: BuckParams) -> Self {
        match Self::try_new(params) {
            Ok(buck) => buck,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Buck::new`]: a non-physical parameter set — zero
    /// phases, or any NaN, infinite, or wrong-sign component value — is
    /// reported as [`SimError::InvalidParameter`] naming the offending
    /// field. Note that NaN fails every comparison, so an `assert!(x >
    /// 0.0)`-style check catches it too; the explicit finiteness checks
    /// here additionally reject infinities and cover the fields
    /// (on-resistances, diode drop, coil resistances) that may be zero.
    pub fn try_new(params: BuckParams) -> Result<Self, SimError> {
        if params.phases == 0 {
            return Err(SimError::InvalidParameter {
                what: "phase count",
                value: 0.0,
            });
        }
        let positive = [
            ("vin (V)", params.vin),
            ("cap (F)", params.cap),
            ("rload (Ohm)", params.rload),
            ("coil inductance (H)", params.coil.inductance),
        ];
        for (what, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidParameter { what, value });
            }
        }
        let non_negative = [
            ("rdson_p (Ohm)", params.rdson_p),
            ("rdson_n (Ohm)", params.rdson_n),
            ("vdiode (V)", params.vdiode),
            ("coil dcr (Ohm)", params.coil.dcr),
            ("coil esr_hf (Ohm)", params.coil.esr_hf),
        ];
        for (what, value) in non_negative {
            if !(value.is_finite() && value >= 0.0) {
                return Err(SimError::InvalidParameter { what, value });
            }
        }
        Ok(Buck {
            switches: vec![SwitchState::Off; params.phases],
            current: vec![0.0; params.phases],
            voltage: 0.0,
            k1_i: Vec::with_capacity(params.phases),
            mid_i: Vec::with_capacity(params.phases),
            k2_i: Vec::with_capacity(params.phases),
            params,
            time: 0.0,
            energy_in: 0.0,
            energy_out: 0.0,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &BuckParams {
        &self.params
    }

    /// Simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Output (load) voltage in volts.
    pub fn output_voltage(&self) -> f64 {
        self.voltage
    }

    /// Coil current of `phase` in amperes.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn coil_current(&self, phase: usize) -> f64 {
        self.current[phase]
    }

    /// All coil currents, indexed by phase.
    pub fn currents(&self) -> &[f64] {
        &self.current
    }

    /// Sum of all coil currents.
    pub fn total_coil_current(&self) -> f64 {
        self.current.iter().sum()
    }

    /// Cumulative energy drawn from the input supply since t = 0 (J).
    /// Includes body-diode return current (counted negative).
    pub fn energy_in(&self) -> f64 {
        self.energy_in
    }

    /// Cumulative energy delivered to the load since t = 0 (J).
    pub fn energy_out(&self) -> f64 {
        self.energy_out
    }

    /// Power-conversion efficiency so far: `E_out / E_in`, `NaN` until
    /// energy has flowed. Note the output capacitor still stores some
    /// input energy, so measure over windows long enough to amortise it.
    pub fn efficiency(&self) -> f64 {
        self.energy_out / self.energy_in
    }

    /// The switch state of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn switch(&self, phase: usize) -> SwitchState {
        self.switches[phase]
    }

    /// Drives the power transistors of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if both transistors are commanded on — the short-circuit
    /// condition the controllers are formally verified to exclude — or if
    /// `phase` is out of range. See [`Buck::try_set_switch`] for the
    /// fallible variant.
    pub fn set_switch(&mut self, phase: usize, pmos_on: bool, nmos_on: bool) {
        if let Err(e) = self.try_set_switch(phase, pmos_on, nmos_on) {
            panic!("{e}");
        }
    }

    /// Fallible [`Buck::set_switch`]: a simultaneous-on command is
    /// reported as [`SimError::ShortCircuit`] and an out-of-range phase
    /// as [`SimError::PhaseOutOfRange`]; the switch state is unchanged
    /// on error.
    pub fn try_set_switch(
        &mut self,
        phase: usize,
        pmos_on: bool,
        nmos_on: bool,
    ) -> Result<(), SimError> {
        if phase >= self.params.phases {
            return Err(SimError::PhaseOutOfRange {
                phase,
                phases: self.params.phases,
            });
        }
        self.switches[phase] = match (pmos_on, nmos_on) {
            (true, false) => SwitchState::PmosOn,
            (false, true) => SwitchState::NmosOn,
            (false, false) => SwitchState::Off,
            (true, true) => {
                return Err(SimError::ShortCircuit {
                    phase,
                    at_secs: self.time,
                })
            }
        };
        Ok(())
    }

    /// Steps the load resistance (the high-load events of Figure 6).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite resistance; see
    /// [`Buck::try_set_load`] for the fallible variant.
    pub fn set_load(&mut self, rload: f64) {
        if let Err(e) = self.try_set_load(rload) {
            panic!("{e}");
        }
    }

    /// Fallible [`Buck::set_load`]: NaN, infinite, and non-positive
    /// resistances are reported as [`SimError::InvalidParameter`].
    pub fn try_set_load(&mut self, rload: f64) -> Result<(), SimError> {
        if !(rload.is_finite() && rload > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "rload (Ohm)",
                value: rload,
            });
        }
        self.params.rload = rload;
        Ok(())
    }

    /// Advances the model by `dt` seconds (explicit midpoint rule with
    /// DCM clamping).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite step, or when the
    /// integration diverges; see [`Buck::try_step`] for the fallible
    /// variant.
    pub fn step(&mut self, dt: f64) {
        if let Err(e) = self.try_step(dt) {
            panic!("{e}");
        }
    }

    /// Fallible [`Buck::step`]: a NaN, infinite, or non-positive `dt` is
    /// reported as [`SimError::InvalidParameter`] without touching the
    /// state; a step large enough to blow the explicit integration up to
    /// a non-finite state is reported as [`SimError::NonFinite`], after
    /// which the model is poisoned and must be discarded.
    pub fn try_step(&mut self, dt: f64) -> Result<(), SimError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(SimError::InvalidParameter {
                what: "step dt (s)",
                value: dt,
            });
        }
        self.integrate(dt);
        if !self.voltage.is_finite() || self.current.iter().any(|i| !i.is_finite()) {
            return Err(SimError::NonFinite {
                what: "buck state",
                at_secs: self.time,
            });
        }
        Ok(())
    }

    fn integrate(&mut self, dt: f64) {
        let n = self.params.phases;
        // The scratch buffers are taken out of `self` for the duration
        // of the step so the `&self` derivative evaluations below can
        // borrow freely; they are put back at the end, so steady state
        // never allocates (capacity is retained across steps).
        let mut k1_i = std::mem::take(&mut self.k1_i);
        let mut mid_i = std::mem::take(&mut self.mid_i);
        let mut k2_i = std::mem::take(&mut self.k2_i);
        // k1 at the current state.
        k1_i.clear();
        k1_i.extend((0..n).map(|k| self.di_dt(k, self.current[k], self.voltage)));
        let k1_v = self.dv_dt(&self.current, self.voltage);
        // Midpoint state.
        mid_i.clear();
        mid_i.extend((0..n).map(|k| self.current[k] + 0.5 * dt * k1_i[k]));
        let mid_v = self.voltage + 0.5 * dt * k1_v;
        // k2 at the midpoint.
        k2_i.clear();
        k2_i.extend((0..n).map(|k| self.di_dt(k, mid_i[k], mid_v)));
        let k2_v = self.dv_dt(&mid_i, mid_v);
        // Advance.
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            let before = self.current[k];
            let mut after = before + dt * k2_i[k];
            // Discontinuous conduction: with both switches off the body
            // diodes cannot reverse the current through zero.
            if self.switches[k] == SwitchState::Off
                && before != 0.0
                && after * before <= 0.0
            {
                after = 0.0;
            }
            self.current[k] = after;
        }
        self.voltage += dt * k2_v;
        self.time += dt;
        // Energy bookkeeping (midpoint currents for consistency).
        let supply_current: f64 = (0..n)
            .map(|k| match self.switches[k] {
                SwitchState::PmosOn => mid_i[k],
                // PMOS body diode returns current to the supply.
                SwitchState::Off if mid_i[k] < 0.0 => mid_i[k],
                _ => 0.0,
            })
            .sum();
        self.energy_in += self.params.vin * supply_current * dt;
        self.energy_out += mid_v * mid_v / self.params.rload * dt;
        self.k1_i = k1_i;
        self.mid_i = mid_i;
        self.k2_i = k2_i;
    }

    fn di_dt(&self, phase: usize, i: f64, v: f64) -> f64 {
        let p = &self.params;
        let l = p.coil.inductance;
        let node = match self.switches[phase] {
            SwitchState::PmosOn => p.vin - i * p.rdson_p,
            SwitchState::NmosOn => -i * p.rdson_n,
            SwitchState::Off => {
                // Which body diode conducts is decided by the *step-start*
                // current, not the evaluation point: an RK2 midpoint that
                // dips through zero must not flip to the opposite diode
                // (that would inject a spurious current kick right at the
                // DCM boundary).
                let direction = self.current[phase];
                if direction > 0.0 {
                    // NMOS body diode conducts from ground.
                    -p.vdiode
                } else if direction < 0.0 {
                    // PMOS body diode returns current to the supply.
                    p.vin + p.vdiode
                } else {
                    return 0.0;
                }
            }
        };
        (node - v - i * p.coil.dcr) / l
    }

    fn dv_dt(&self, currents: &[f64], v: f64) -> f64 {
        let total: f64 = currents.iter().sum();
        (total - v / self.params.rload) / self.params.cap
    }
}

impl fmt::Display for Buck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buck t={:.3}us v={:.3}V i={:?}",
            self.time * 1e6,
            self.voltage,
            self.current
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buck() -> Buck {
        Buck::new(BuckParams::default())
    }

    #[test]
    fn rest_state_is_quiescent() {
        let mut b = buck();
        for _ in 0..100 {
            b.step(1e-9);
        }
        assert_eq!(b.output_voltage(), 0.0);
        assert_eq!(b.total_coil_current(), 0.0);
    }

    #[test]
    fn pmos_charges_coil_and_cap() {
        let mut b = buck();
        b.set_switch(0, true, false);
        for _ in 0..2000 {
            b.step(1e-9);
        }
        assert!(b.coil_current(0) > 0.05, "i={}", b.coil_current(0));
        assert!(b.output_voltage() > 0.1);
        assert!(b.output_voltage() < b.params().vin);
    }

    #[test]
    fn nmos_discharges_coil() {
        let mut b = buck();
        b.set_switch(0, true, false);
        for _ in 0..2000 {
            b.step(1e-9);
        }
        let peak = b.coil_current(0);
        b.set_switch(0, false, true);
        for _ in 0..2000 {
            b.step(1e-9);
        }
        assert!(b.coil_current(0) < peak);
    }

    #[test]
    fn dcm_clamps_current_at_zero() {
        let mut b = buck();
        b.set_switch(0, true, false);
        for _ in 0..1000 {
            b.step(1e-9);
        }
        b.set_switch(0, false, false);
        // Body diode free-wheels the current down; it must stop at zero,
        // not ring negative.
        for _ in 0..20000 {
            b.step(1e-9);
            assert!(b.coil_current(0) >= 0.0, "current reversed in DCM");
        }
        assert_eq!(b.coil_current(0), 0.0);
    }

    #[test]
    fn negative_current_possible_with_nmos_on() {
        let mut b = buck();
        // Pre-charge the cap, then hold NMOS on: current goes negative
        // (the OV-mode energy sink of the paper).
        b.set_switch(0, true, false);
        for _ in 0..5000 {
            b.step(1e-9);
        }
        b.set_switch(0, false, true);
        let mut min_i = f64::INFINITY;
        for _ in 0..5000 {
            b.step(1e-9);
            min_i = min_i.min(b.coil_current(0));
        }
        assert!(min_i < 0.0, "current never reversed: min {min_i}");
    }

    #[test]
    #[should_panic(expected = "short circuit")]
    fn short_circuit_panics() {
        let mut b = buck();
        b.set_switch(0, true, true);
    }

    #[test]
    fn load_step_changes_discharge_rate() {
        let mut b = buck();
        b.set_switch(0, true, false);
        for _ in 0..5000 {
            b.step(1e-9);
        }
        b.set_switch(0, false, false);
        let v0 = b.output_voltage();
        let mut b_heavy = b.clone();
        b_heavy.set_load(2.0);
        for _ in 0..1000 {
            b.step(1e-9);
            b_heavy.step(1e-9);
        }
        assert!(v0 - b_heavy.output_voltage() > v0 - b.output_voltage());
    }

    #[test]
    fn charge_conservation_against_fine_reference() {
        // The same scenario at dt and dt/10 must agree closely (RK2
        // convergence sanity).
        let run = |dt: f64| -> (f64, f64) {
            let mut b = buck();
            b.set_switch(0, true, false);
            // Round, don't truncate: a dt that doesn't divide the window
            // exactly would silently shorten the simulated duration and
            // skew the two runs being compared.
            let steps = (2e-6 / dt).round() as usize;
            for _ in 0..steps {
                b.step(dt);
            }
            (b.output_voltage(), b.coil_current(0))
        };
        let (v1, i1) = run(1e-9);
        let (v2, i2) = run(1e-10);
        assert!((v1 - v2).abs() < 5e-3, "v: {v1} vs {v2}");
        assert!((i1 - i2).abs() < 5e-3, "i: {i1} vs {i2}");
    }

    #[test]
    fn multiphase_currents_superpose() {
        let mut b = buck();
        for k in 0..4 {
            b.set_switch(k, true, false);
        }
        for _ in 0..1000 {
            b.step(1e-9);
        }
        let total = b.total_coil_current();
        assert!((total - 4.0 * b.coil_current(0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "phase count")]
    fn zero_phases_rejected() {
        let _ = Buck::new(BuckParams::default().with_phases(0));
    }

    #[test]
    fn try_new_rejects_non_physical_params() {
        for bad in [f64::NAN, 0.0, -5.0, f64::INFINITY, f64::NEG_INFINITY] {
            let p = BuckParams {
                vin: bad,
                ..BuckParams::default()
            };
            assert!(
                matches!(
                    Buck::try_new(p),
                    Err(SimError::InvalidParameter { what: "vin (V)", .. })
                ),
                "vin = {bad} accepted"
            );
        }
        let p = BuckParams {
            rdson_p: f64::NAN,
            ..BuckParams::default()
        };
        assert!(matches!(
            Buck::try_new(p),
            Err(SimError::InvalidParameter {
                what: "rdson_p (Ohm)",
                ..
            })
        ));
        let mut p = BuckParams::default();
        p.coil.dcr = -0.1;
        assert!(Buck::try_new(p).is_err());
        assert!(Buck::try_new(BuckParams::default()).is_ok());
    }

    #[test]
    fn try_step_rejects_bad_dt_without_mutating() {
        let mut b = buck();
        b.set_switch(0, true, false);
        b.step(1e-9);
        let v = b.output_voltage();
        let t = b.time();
        for bad in [f64::NAN, 0.0, -1e-9, f64::INFINITY] {
            assert!(matches!(
                b.try_step(bad),
                Err(SimError::InvalidParameter { what: "step dt (s)", .. })
            ));
        }
        assert_eq!(b.output_voltage(), v, "failed step must not mutate");
        assert_eq!(b.time(), t);
    }

    #[test]
    fn try_step_reports_divergence_as_non_finite() {
        // An absurd step makes the explicit midpoint rule explode; the
        // typed path reports it instead of silently carrying inf/NaN.
        let mut b = buck();
        b.set_switch(0, true, false);
        let mut diverged = false;
        for _ in 0..50 {
            match b.try_step(1.0) {
                Ok(()) => {}
                Err(SimError::NonFinite { .. }) => {
                    diverged = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(diverged, "1 s steps on a nanosecond-scale plant must diverge");
    }

    #[test]
    fn try_set_switch_reports_short_and_range() {
        let mut b = buck();
        assert!(matches!(
            b.try_set_switch(0, true, true),
            Err(SimError::ShortCircuit { phase: 0, .. })
        ));
        assert_eq!(b.switch(0), SwitchState::Off, "state unchanged on error");
        assert!(matches!(
            b.try_set_switch(99, true, false),
            Err(SimError::PhaseOutOfRange { phase: 99, phases: 4 })
        ));
        assert!(b.try_set_switch(1, false, true).is_ok());
        assert_eq!(b.switch(1), SwitchState::NmosOn);
    }

    #[test]
    fn try_set_load_rejects_nan_and_negative() {
        let mut b = buck();
        for bad in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
            assert!(b.try_set_load(bad).is_err(), "{bad} accepted");
        }
        assert_eq!(b.params().rload, 6.0, "load unchanged after rejects");
        assert!(b.try_set_load(3.6).is_ok());
        assert_eq!(b.params().rload, 3.6);
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;

    #[test]
    fn energy_flows_and_efficiency_bounded() {
        let mut b = Buck::new(BuckParams::default().with_phases(1));
        // A few manual switching cycles.
        for _ in 0..20 {
            b.set_switch(0, true, false);
            for _ in 0..200 {
                b.step(1e-9);
            }
            b.set_switch(0, false, true);
            for _ in 0..200 {
                b.step(1e-9);
            }
        }
        assert!(b.energy_in() > 0.0);
        assert!(b.energy_out() > 0.0);
        let eff = b.efficiency();
        assert!(eff > 0.0 && eff < 1.0, "efficiency {eff}");
    }

    #[test]
    fn idle_buck_moves_no_energy() {
        let mut b = Buck::new(BuckParams::default());
        for _ in 0..1000 {
            b.step(1e-9);
        }
        assert_eq!(b.energy_in(), 0.0);
        assert_eq!(b.energy_out(), 0.0);
    }

    #[test]
    fn dcm_zero_crossing_never_kicks_upward() {
        // Regression: the RK2 midpoint must not flip to the opposite
        // body diode when it dips through zero — that used to inject a
        // ~5 mA spurious kick right at the DCM boundary.
        for pre in (100..400).step_by(7) {
            let mut b = Buck::new(
                BuckParams::default()
                    .with_phases(1)
                    .with_coil(crate::CoilModel::coilcraft(1.0)),
            );
            b.set_switch(0, true, false);
            for _ in 0..pre {
                b.step(1e-9);
            }
            b.set_switch(0, false, false);
            let mut prev = b.coil_current(0);
            for _ in 0..20_000 {
                b.step(1e-9);
                let i = b.coil_current(0);
                assert!(
                    !(i > prev + 1e-12 && prev < 1e-3),
                    "upward kick near zero: {prev:.3e} -> {i:.3e} (pre={pre})"
                );
                prev = i;
                if i == 0.0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn conservation_energy_in_bounds_stored_plus_out() {
        // E_in >= E_out + E_stored (losses are non-negative).
        let mut b = Buck::new(BuckParams::default().with_phases(1));
        b.set_switch(0, true, false);
        for _ in 0..5000 {
            b.step(1e-9);
        }
        let p = b.params().clone();
        let stored = 0.5 * p.cap * b.output_voltage().powi(2)
            + 0.5 * p.coil.inductance * b.coil_current(0).powi(2);
        assert!(
            b.energy_in() + 1e-12 >= b.energy_out() + stored,
            "E_in {} < E_out {} + stored {}",
            b.energy_in(),
            b.energy_out(),
            stored
        );
    }
}
