//! Property-based tests: the buck model stays physical under arbitrary
//! switch schedules, and the comparators never miss or invent crossings.

use a4a_analog::{Buck, BuckParams, CoilModel, Comparator, SwitchState};
use a4a_rt::prop::{self, Config, Gen, PropResult};
use a4a_rt::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};

/// A random per-phase switch schedule: (step index, phase, state).
fn arb_schedule(g: &mut Gen, phases: usize, len: usize) -> Vec<(usize, usize, SwitchState)> {
    g.vec(0..len, |g| {
        (
            g.usize(0..2000),
            g.usize(0..phases),
            *g.pick(&[SwitchState::PmosOn, SwitchState::NmosOn, SwitchState::Off]),
        )
    })
}

/// Under any legal switching schedule the state stays bounded and
/// finite: |i| below a physical ceiling, v within diode-clamped
/// rails, and no NaNs.
#[test]
fn buck_stays_physical() {
    prop::check_with(
        &Config::with_cases(48),
        "buck_stays_physical",
        |g: &mut Gen| -> PropResult {
            let schedule = arb_schedule(g, 2, 40);
            let params = BuckParams::default().with_phases(2);
            let vin = params.vin;
            let mut buck = Buck::new(params);
            let mut schedule = schedule;
            schedule.sort_by_key(|s| s.0);
            let mut next = 0usize;
            for step in 0..2000usize {
                while next < schedule.len() && schedule[next].0 <= step {
                    let (_, phase, state) = schedule[next];
                    let (gp, gn) = match state {
                        SwitchState::PmosOn => (true, false),
                        SwitchState::NmosOn => (false, true),
                        SwitchState::Off => (false, false),
                    };
                    buck.set_switch(phase, gp, gn);
                    next += 1;
                }
                buck.step(1e-9);
                for k in 0..2 {
                    let i = buck.coil_current(k);
                    prop_assert!(i.is_finite());
                    prop_assert!(i.abs() < 20.0, "runaway current {i}");
                }
                let v = buck.output_voltage();
                prop_assert!(v.is_finite());
                prop_assert!(v > -2.0 && v < vin + 2.0, "rail escape {v}");
            }
            Ok(())
        },
    );
}

/// With both switches off the coil current never crosses zero
/// (discontinuous conduction clamp), from any pre-charge.
#[test]
fn dcm_never_reverses() {
    prop::check_with(
        &Config::with_cases(48),
        "dcm_never_reverses",
        |g: &mut Gen| -> PropResult {
            let precharge_steps = g.usize(10..2000);
            let mut buck = Buck::new(BuckParams::default().with_phases(1));
            buck.set_switch(0, true, false);
            for _ in 0..precharge_steps {
                buck.step(1e-9);
            }
            buck.set_switch(0, false, false);
            let sign = buck.coil_current(0).signum();
            for _ in 0..30_000 {
                buck.step(1e-9);
                let i = buck.coil_current(0);
                prop_assert!(i == 0.0 || i.signum() == sign, "current reversed in DCM");
            }
            Ok(())
        },
    );
}

/// `exp(A·t)·x` for a 2×2 matrix `a` (row-major), in closed form.
fn expm2(a: [f64; 4], t: f64, x: [f64; 2]) -> [f64; 2] {
    let half_trace = 0.5 * (a[0] + a[3]);
    let det = a[0] * a[3] - a[1] * a[2];
    let disc = half_trace * half_trace - det;
    // exp(A·t) = e^{αt}·(c·I + s·(A − αI)), with (c, s) the cos/sin
    // (or cosh/sinh) pair of the eigenvalue spread.
    let (c, s) = if disc < 0.0 {
        let w = (-disc).sqrt();
        ((w * t).cos(), (w * t).sin() / w)
    } else {
        let w = disc.sqrt();
        ((w * t).cosh(), (w * t).sinh() / w)
    };
    let e = (half_trace * t).exp();
    let m = [a[0] - half_trace, a[1], a[2], a[3] - half_trace];
    [
        e * (c * x[0] + s * (m[0] * x[0] + m[1] * x[1])),
        e * (c * x[1] + s * (m[2] * x[0] + m[3] * x[1])),
    ]
}

/// The closed-form trajectory of one phase plus the capacitor, `x' =
/// A·x + b` with `x = (i, v)`, a series resistance `r` and switch-node
/// voltage `node`: `x(t) = x_ss + exp(A·t)·(x0 − x_ss)`.
fn single_phase(p: &BuckParams, r: f64, node: f64, x0: [f64; 2], t: f64) -> [f64; 2] {
    let l = p.coil.inductance;
    let a = [-r / l, -1.0 / l, 1.0 / p.cap, -1.0 / (p.rload * p.cap)];
    // Steady state: i = v/R and node − v − r·i = 0.
    let v_ss = node * p.rload / (p.rload + r);
    let x_ss = [v_ss / p.rload, v_ss];
    let d = expm2(a, t, [x0[0] - x_ss[0], x0[1] - x_ss[1]]);
    [x_ss[0] + d[0], x_ss[1] + d[1]]
}

fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(1e-9)
}

/// With both switches off and no current left in the coil, the
/// capacitor discharges into the load: `v(t) = v1·exp(−t/RC)`.
#[test]
fn rc_discharge_with_both_switches_off() {
    let mut b = Buck::new(BuckParams::default().with_phases(1));
    b.set_switch(0, true, false);
    b.step(2e-6);
    b.set_switch(0, false, false);
    // Let the body diode run the current down to zero.
    b.step(5e-6);
    assert_eq!(b.coil_current(0), 0.0, "diode conduction ended");
    let (t1, v1) = (b.time(), b.output_voltage());
    let rc = b.params().rload * b.params().cap;
    for h in [0.3e-9, 7e-9, 120e-9, 2.5e-6] {
        b.step(h);
        let want = v1 * (-(b.time() - t1) / rc).exp();
        assert!(
            close(b.output_voltage(), want, 1e-12),
            "v {} vs {want}",
            b.output_voltage()
        );
        assert_eq!(b.coil_current(0), 0.0);
    }
}

/// From rest with the PMOS on, the phase is a series RLC driven by
/// `V_in`; the model follows the closed-form step response.
#[test]
fn rlc_step_response_under_pmos() {
    let mut b = Buck::new(BuckParams::default().with_phases(1));
    let p = b.params().clone();
    let r = p.rdson_p + p.coil.dcr;
    b.set_switch(0, true, false);
    for h in [0.5e-9, 2e-9, 40e-9, 300e-9, 1.5e-6] {
        b.step(h);
        let want = single_phase(&p, r, p.vin, [0.0, 0.0], b.time());
        assert!(
            close(b.coil_current(0), want[0], 1e-9),
            "i {} vs {}",
            b.coil_current(0),
            want[0]
        );
        assert!(
            close(b.output_voltage(), want[1], 1e-9),
            "v {} vs {}",
            b.output_voltage(),
            want[1]
        );
    }
}

/// A body-diode conduction interval ends exactly where the closed-form
/// current reaches zero, and the current then stays at zero.
#[test]
fn diode_conduction_ends_at_the_analytic_current_zero() {
    prop::check_with(
        &Config::with_cases(16),
        "diode_conduction_ends_at_the_analytic_current_zero",
        |g: &mut Gen| -> PropResult {
            let l_uh = g.f64(1.0..10.0);
            let charge = g.f64(50e-9..400e-9);
            let mut b = Buck::new(
                BuckParams::default()
                    .with_phases(1)
                    .with_coil(CoilModel::coilcraft(l_uh)),
            );
            let p = b.params().clone();
            b.set_switch(0, true, false);
            b.step(charge);
            b.set_switch(0, false, false);
            let (t0, x0) = (b.time(), [b.coil_current(0), b.output_voltage()]);
            prop_assert!(x0[0] > 0.0);
            // The NMOS body diode conducts: node at −V_diode, series r = DCR.
            let i_at = |t: f64| single_phase(&p, p.coil.dcr, -p.vdiode, x0, t)[0];
            let (mut lo, mut hi) = (0.0, 1e-9);
            while i_at(hi) > 0.0 {
                hi *= 2.0;
            }
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if i_at(mid) > 0.0 {
                    lo = mid
                } else {
                    hi = mid
                }
            }
            // Plans span at most `1/‖A‖`: walk them to the one that ends
            // at the zero.
            while b.coil_current(0) != 0.0 {
                let reach = b.try_plan(t0 + 1e-3, t0 + 1e-3).expect("valid plan");
                b.try_advance_to(reach).expect("advance along the plan");
            }
            prop_assert!(
                close(b.time() - t0, hi, 1e-9),
                "zero at {} vs analytic {hi}",
                b.time() - t0
            );
            b.step(1e-6);
            prop_assert_eq!(b.coil_current(0), 0.0);
            Ok(())
        },
    );
}

/// Propagation is exact, so two steps of `h` land where one step of
/// `2h` does, whatever the switch states, coil and `h`.
#[test]
fn two_half_steps_equal_one_step() {
    prop::check_with(
        &Config::with_cases(48),
        "two_half_steps_equal_one_step",
        |g: &mut Gen| -> PropResult {
            let params = BuckParams::default()
                .with_phases(3)
                .with_coil(CoilModel::coilcraft(g.f64(1.0..10.0)));
            let mut a = Buck::new(params);
            // A random history, so the state is not at rest.
            for _ in 0..4 {
                for k in 0..3 {
                    let (gp, gn) = *g.pick(&[(true, false), (false, true), (false, false)]);
                    a.set_switch(k, gp, gn);
                }
                a.step(g.f64(10e-9..300e-9));
            }
            let mut b = a.clone();
            let h = g.f64(0.1e-9..100e-9);
            a.step(h);
            a.step(h);
            b.step(2.0 * h);
            let rel = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1e-3);
            prop_assert!(
                rel(a.output_voltage(), b.output_voltage()),
                "v {} vs {}",
                a.output_voltage(),
                b.output_voltage()
            );
            for k in 0..3 {
                prop_assert!(
                    rel(a.coil_current(k), b.coil_current(k)),
                    "i{k} {} vs {}",
                    a.coil_current(k),
                    b.coil_current(k)
                );
            }
            prop_assert!(
                rel(a.energy_in(), b.energy_in()),
                "E_in {} vs {}",
                a.energy_in(),
                b.energy_in()
            );
            prop_assert!(
                rel(a.energy_out(), b.energy_out()),
                "E_out {} vs {}",
                a.energy_out(),
                b.energy_out()
            );
            Ok(())
        },
    );
}

/// Toggling a comparator alternates its output and its edge direction,
/// and the two levels it waits for straddle the threshold by the
/// hysteresis.
#[test]
fn comparator_edges_alternate() {
    prop::check_with(
        &Config::with_cases(48),
        "comparator_edges_alternate",
        |g: &mut Gen| -> PropResult {
            let threshold = g.f64(-1.0..1.0);
            let hysteresis = g.f64(0.001..0.5);
            let above = g.bool();
            let mut c = if above {
                Comparator::above(threshold, hysteresis, 1e-9)
            } else {
                Comparator::below(threshold, hysteresis, 1e-9)
            };
            let (assert_level, rising) = c.edge();
            prop_assert_eq!(rising, above, "asserts in its own direction");
            for k in 0..g.usize(1..20) {
                let (level, rising) = c.edge();
                let out = c.toggle();
                prop_assert_eq!(out, k % 2 == 0, "outputs alternate");
                prop_assert_ne!(c.edge().1, rising, "edges alternate");
                let spread = (c.edge().0 - level).abs();
                prop_assert!(
                    (spread - hysteresis).abs() <= 1e-12,
                    "levels {hysteresis} apart"
                );
                prop_assert!(
                    (assert_level - threshold).abs() <= hysteresis,
                    "levels straddle the threshold"
                );
            }
            Ok(())
        },
    );
}

/// Coil family interpolation is monotone in inductance.
#[test]
fn coil_family_monotone() {
    prop::check_with(
        &Config::with_cases(48),
        "coil_family_monotone",
        |g: &mut Gen| -> PropResult {
            let a = g.f64(1.0..10.0);
            let b = g.f64(1.0..10.0);
            prop_assume!(a < b);
            let ca = CoilModel::coilcraft(a);
            let cb = CoilModel::coilcraft(b);
            prop_assert!(ca.inductance < cb.inductance);
            prop_assert!(ca.dcr <= cb.dcr);
            prop_assert!(ca.esr_hf <= cb.esr_hf);
            Ok(())
        },
    );
}
