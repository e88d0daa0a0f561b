//! Cross-crate mixed-signal integration: the full testbench under every
//! controller, checking regulation, safety, and the paper's qualitative
//! orderings on short runs.

use a4a::scenario::{self, ControllerKind};
use a4a::TestbenchBuilder;
use a4a_analog::{metrics, BuckParams};
use a4a_ctrl::{AsyncController, AsyncTiming, BuckController, SyncController, SyncParams};

#[test]
fn all_five_controllers_regulate_and_never_short() {
    for kind in ControllerKind::paper_series() {
        let ctrl = scenario::controller(kind, 4);
        let mut tb = scenario::fig6().try_build(ctrl).unwrap();
        tb.try_run_until(5e-6).unwrap();
        let v = tb.buck().output_voltage();
        assert!(
            v > 3.0 && v < 3.6,
            "{}: v = {v} after startup",
            kind.label()
        );
        assert_eq!(tb.short_circuits(), 0, "{}", kind.label());
    }
}

#[test]
fn async_reaction_is_orders_faster_than_100mhz() {
    // Time from the UV comparator event to the first PMOS turn-on.
    let first_gp_on = |w: &a4a_analog::Waveform| -> Option<f64> {
        let uv = w
            .events
            .iter()
            .find(|(_, n, v)| n == "uv" && *v)
            .map(|(t, _, _)| *t)?;
        let gp = w
            .events
            .iter()
            .find(|(t, n, v)| n.name().starts_with("gp") && *v && *t > uv)
            .map(|(t, _, _)| *t)?;
        Some(gp - uv)
    };
    let run = |kind: ControllerKind| -> f64 {
        let ctrl = scenario::controller(kind, 4);
        let mut tb = scenario::fig6().try_build(ctrl).unwrap();
        tb.try_run_until(1e-6).unwrap();
        first_gp_on(tb.waveform()).expect("a charging cycle started")
    };
    let sync = run(ControllerKind::Sync(100.0));
    let asy = run(ControllerKind::Async);
    assert!(
        sync > 4.0 * asy,
        "sync {sync:.3e}s should be several times async {asy:.3e}s"
    );
}

#[test]
fn high_load_step_triggers_hl_and_recovers() {
    let ctrl = AsyncController::new(4, AsyncTiming::default());
    let mut tb = scenario::fig6().try_build(ctrl).unwrap();
    tb.try_run_until(scenario::FIG6_T_END).unwrap();
    let w = tb.waveform();
    // HL fires at startup and again at the 7 us load step.
    let hl_rises: Vec<f64> = w
        .events
        .iter()
        .filter(|(_, n, v)| n == "hl" && *v)
        .map(|(t, _, _)| *t)
        .collect();
    assert!(!hl_rises.is_empty());
    assert!(hl_rises[0] < 1e-6, "startup HL");
    // Recovered by the end.
    let v = tb.buck().output_voltage();
    assert!(v > 3.0 && v < 3.6, "v = {v}");
}

#[test]
fn ov_mode_engages_on_overshoot() {
    // Drive a scenario engineered to overshoot: light load after a heavy
    // startup dumps the in-flight coil energy into the cap.
    let ctrl = AsyncController::new(4, AsyncTiming::default());
    let mut tb = TestbenchBuilder::new()
        .params(BuckParams::default().with_load(6.0))
        .load_step(3e-6, 60.0)
        .try_build(ctrl)
        .unwrap();
    tb.try_run_until(8e-6).unwrap();
    let w = tb.waveform();
    let ov = w.events.iter().any(|(_, n, v)| n == "ov" && *v);
    let mode = w.events.iter().any(|(_, n, v)| n == "ov_mode" && *v);
    assert!(ov, "load dump must overshoot past V_max");
    assert!(mode, "controller must switch the current references");
    // And it must come back down close to the target.
    let v = tb.buck().output_voltage();
    assert!(v < 3.5, "v = {v} after OV resolution");
}

#[test]
fn phase_currents_balance_across_the_ring() {
    let ctrl = AsyncController::new(4, AsyncTiming::default());
    let mut tb = scenario::sweep_coil(4.7, 6.0).try_build(ctrl).unwrap();
    tb.try_run_until(8e-6).unwrap();
    let w = tb.into_waveform().window(3e-6, 8e-6);
    let dcs: Vec<f64> = (0..4).map(|k| metrics::dc_current(&w, k)).collect();
    let max = dcs.iter().cloned().fold(f64::MIN, f64::max);
    let min = dcs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min < 0.6 * max.max(1e-3),
        "round-robin should roughly balance the phases: {dcs:?}"
    );
}

#[test]
fn sync_controller_scales_with_clock() {
    // Peak current overshoot shrinks monotonically with clock frequency.
    let peak = |mhz: f64| -> f64 {
        let ctrl = SyncController::new(4, SyncParams::at_mhz(mhz));
        let mut tb = scenario::sweep_coil(1.0, 6.0).try_build(ctrl).unwrap();
        tb.try_run_until(6e-6).unwrap();
        metrics::peak_current(tb.waveform())
    };
    let p100 = peak(100.0);
    let p1000 = peak(1000.0);
    assert!(
        p100 > p1000,
        "100 MHz peak {p100} should exceed 1 GHz peak {p1000}"
    );
}

#[test]
fn single_phase_testbench_with_basic_controller() {
    // The basic controller of Figure 2b is the one-stage ring.
    let ctrl = AsyncController::new(1, AsyncTiming::default());
    assert_eq!(ctrl.phases(), 1);
    let mut tb = TestbenchBuilder::new()
        .params(BuckParams::default().with_phases(1).with_load(30.0))
        .try_build(ctrl)
        .unwrap();
    tb.try_run_until(10e-6).unwrap();
    let v = tb.buck().output_voltage();
    assert!(v > 3.0 && v < 3.6, "v = {v}");
    assert_eq!(tb.short_circuits(), 0);
}
