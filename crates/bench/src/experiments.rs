//! Data producers for every table and figure of the evaluation.

use a4a::scenario::{self, ControllerKind};
use a4a::TestbenchBuilder;
use a4a_analog::metrics::{self, PeakCurrent, PhaseMoments};
use a4a_analog::{CoilModel, Record, SensorKind, Waveform};
use a4a_ctrl::{AsyncController, AsyncTiming, Command, Loopback, SyncParams};
use a4a_sim::Time;

/// One row of Table I: reaction time per condition, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Controller label (`100MHz` … `ASYNC`).
    pub label: String,
    /// Reaction to HL, UV, OV, OC, ZC (ns).
    pub ns: [f64; 5],
}

/// Table I: the sync rows are the paper's constant 2.5-period latency;
/// the ASYNC row is *measured* on the behavioural token-ring controller
/// by stimulus-response (sensor event in, first gate command out).
pub fn table1() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for mhz in [100.0, 333.0, 666.0, 1000.0] {
        let t = SyncParams::at_mhz(mhz).nominal_latency().as_ns();
        rows.push(Table1Row {
            label: ControllerKind::Sync(mhz).label(),
            ns: [t; 5],
        });
    }
    rows.push(Table1Row {
        label: "ASYNC".to_string(),
        ns: measure_async_reactions(),
    });
    rows
}

/// The Table I improvement row: 333 MHz over ASYNC, per condition.
pub fn table1_improvement(rows: &[Table1Row]) -> [f64; 5] {
    let sync = rows
        .iter()
        .find(|r| r.label == "333MHz")
        .expect("333MHz row");
    let asy = rows.iter().find(|r| r.label == "ASYNC").expect("ASYNC row");
    let mut out = [0.0; 5];
    for (o, (s, a)) in out.iter_mut().zip(sync.ns.iter().zip(asy.ns.iter())) {
        *o = s / a;
    }
    out
}

/// Measures the async controller's reaction to each condition (ns):
/// HL, UV, OV, OC, ZC. Each is the time from a sensor event to the first
/// gate command it causes, with the controller on a [`Loopback`].
pub fn measure_async_reactions() -> [f64; 5] {
    let ns = Time::from_ns;
    let ring = |phases| Loopback::new(AsyncController::new(phases, AsyncTiming::default()));
    // The time from `t` to the first gate command at or after it that
    // `want(phase, pmos, value)` accepts.
    let reaction =
        |lb: &Loopback<AsyncController>, t: Time, want: fn(usize, bool, bool) -> bool| {
            lb.gates()
                .into_iter()
                .find(|&(at, phase, pmos, value)| at >= t && want(phase, pmos, value))
                .map_or(f64::NAN, |(at, ..)| at.as_ns() - t.as_ns())
        };

    // UV: armed token holder, fresh UV -> gp+.
    let uv = {
        let mut lb = ring(4);
        lb.run_until(ns(1.0));
        lb.sensor(ns(10.0), SensorKind::Uv, true);
        lb.run_until(ns(20.0));
        reaction(&lb, ns(10.0), |_, pmos, value| pmos && value)
    };
    // HL: all stages drafted; measure to the first *other* phase's gp+
    // with UV pre-asserted on a stage that is not the token holder.
    let hl = {
        let mut lb = ring(4);
        lb.run_until(ns(1.0));
        // Pre-assert UV then immediately HL; the token holder responds
        // via the UV path, the drafted stages via the HL path.
        lb.sensor(ns(10.0), SensorKind::Uv, true);
        lb.sensor(ns(10.0), SensorKind::Hl, true);
        lb.run_until(ns(30.0));
        reaction(&lb, ns(10.0), |phase, pmos, value| {
            phase != 0 && pmos && value
        })
    };
    // OV: the sinking action (gn+) on the token holder; the reference
    // switch command is dispatched on the way (also checked).
    let ov = {
        let mut lb = ring(4);
        lb.run_until(ns(1.0));
        lb.sensor(ns(10.0), SensorKind::Ov, true);
        lb.run_until(ns(30.0));
        assert!(lb
            .log()
            .iter()
            .any(|c| c.time >= ns(10.0) && c.command == Command::OvMode(true)));
        reaction(&lb, ns(10.0), |_, pmos, value| !pmos && value)
    };
    // OC: during a charging cycle (past the PEXT window) -> gp-.
    let oc = {
        let mut lb = ring(1);
        lb.run_until(ns(1.0));
        lb.sensor(ns(10.0), SensorKind::Uv, true);
        lb.sensor(ns(50.0), SensorKind::Uv, false);
        lb.run_until(ns(100.0));
        lb.sensor(ns(200.0), SensorKind::Oc(0), true);
        lb.run_until(ns(300.0));
        reaction(&lb, ns(200.0), |_, pmos, value| pmos && !value)
    };
    // ZC: during the NMOS phase (past NMIN) -> gn-.
    let zc = {
        let mut lb = ring(1);
        lb.run_until(ns(1.0));
        lb.sensor(ns(10.0), SensorKind::Uv, true);
        lb.sensor(ns(50.0), SensorKind::Uv, false);
        lb.sensor(ns(200.0), SensorKind::Oc(0), true);
        lb.run_until(ns(300.0));
        lb.sensor(ns(300.0), SensorKind::Oc(0), false);
        lb.sensor(ns(400.0), SensorKind::Zc(0), true);
        lb.run_until(ns(500.0));
        reaction(&lb, ns(400.0), |_, pmos, value| !pmos && !value)
    };
    [hl, uv, ov, oc, zc]
}

/// One Figure 6 run: label, waveform, and headline metrics.
#[derive(Debug, Clone)]
pub struct Fig6Run {
    /// Series label.
    pub label: String,
    /// Full 10 µs record.
    pub waveform: Waveform,
    /// Peak-to-peak output ripple over the normal-load window (V).
    pub ripple: f64,
    /// Peak coil current over the whole run (A).
    pub peak: f64,
    /// OV assertions before the high-load step.
    pub ov_events: usize,
    /// Rejected short-circuit commands (must be 0).
    pub short_circuits: usize,
    /// Whole-run power-conversion efficiency (E_out / E_in).
    pub efficiency: f64,
}

/// Runs the Figure 6 scenario for one controller kind.
pub fn fig6_run(kind: ControllerKind) -> Fig6Run {
    let ctrl = scenario::controller(kind, 4);
    let mut tb = scenario::fig6()
        .try_build(ctrl)
        .expect("fig6 scenario must configure a valid testbench");
    tb.try_run_until(scenario::FIG6_T_END)
        .expect("fig6 co-simulation must not diverge");
    let short_circuits = tb.short_circuits();
    let efficiency = tb.buck().efficiency();
    let waveform = tb.into_waveform();
    let (a, b) = scenario::FIG6_NORMAL_WINDOW;
    let normal = waveform.window(a, b);
    let ov_events = waveform
        .events
        .iter()
        .filter(|(t, n, v)| n == "ov" && *v && *t < b)
        .count();
    Fig6Run {
        label: kind.label(),
        ripple: metrics::voltage_ripple(&normal),
        peak: metrics::peak_current(&waveform),
        ov_events,
        short_circuits,
        efficiency,
        waveform,
    }
}

/// Figure 6: both paper series (333 MHz synchronous and asynchronous)
/// plus the other clock rates for context, in series order.
pub fn fig6_all() -> Vec<Fig6Run> {
    ControllerKind::paper_series()
        .into_iter()
        .map(fig6_run)
        .collect()
}

/// One grid point of a Figure 7 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// X-axis value (µH for 7a/7c, Ω for 7b).
    pub x: f64,
    /// One value per series, ordered as
    /// [`ControllerKind::paper_series`].
    pub y: Vec<f64>,
}

/// Simulated length of a Figure 7 cell (s).
const SWEEP_T_END: f64 = 8e-6;

/// Start of the steady window the Figure 7c losses are measured over
/// (s); it runs to the end of the cell.
const STEADY_FROM: f64 = 3e-6;

/// Runs one Figure 7 cell, the testbench of `builder` under a `kind`
/// controller, over the sweeps' 8 µs into `record` and returns it.
///
/// # Panics
///
/// Panics if the configuration is invalid, the co-simulation fails, or
/// the controller shorts a phase.
fn run_cell<R: Record>(builder: TestbenchBuilder, kind: ControllerKind, record: R) -> R {
    let ctrl = scenario::controller(kind, 4);
    let mut tb = builder
        .try_build_into(ctrl, record)
        .expect("sweep point must configure a valid testbench");
    tb.try_run_until(SWEEP_T_END)
        .expect("sweep co-simulation must not diverge");
    assert_eq!(tb.short_circuits(), 0, "{}: short circuit", kind.label());
    tb.into_record()
}

/// A Figure 7a/7b cell: the peak inductor current (mA) of `builder`'s
/// testbench under a `kind` controller over 8 µs, folded as the run
/// goes.
///
/// # Panics
///
/// As the sweeps: on an invalid configuration, a failed co-simulation
/// or a shorted phase.
pub fn cell_peak_ma(builder: TestbenchBuilder, kind: ControllerKind) -> f64 {
    run_cell(builder, kind, PeakCurrent::default()).amps() * 1e3
}

/// A Figure 7c cell: the coil ripple (AC) losses (µW) of `builder`'s
/// four phases under a `kind` controller, with `l_uh` µH coils, over the
/// steady window from 3 µs to the end of the 8 µs run, folded as the run
/// goes.
///
/// # Panics
///
/// As [`cell_peak_ma`].
pub fn cell_loss_uw(builder: TestbenchBuilder, kind: ControllerKind, l_uh: f64) -> f64 {
    let steady = run_cell(
        builder,
        kind,
        PhaseMoments::new(4, STEADY_FROM, SWEEP_T_END),
    );
    let coil = CoilModel::coilcraft(l_uh);
    let ac: f64 = (0..4)
        .map(|k| {
            let a = steady.ac_rms_current(k);
            a * a * coil.esr_hf
        })
        .sum();
    ac * 1e6
}

/// Runs one fresh testbench per (grid point, series) pair, in grid
/// order, and groups the results into x-ordered [`SweepPoint`]s.
fn sweep(grid: &[f64], cell: fn(f64, ControllerKind) -> f64) -> Vec<SweepPoint> {
    let series = ControllerKind::paper_series();
    grid.iter()
        .map(|&x| SweepPoint {
            x,
            y: series.iter().map(|&kind| cell(x, kind)).collect(),
        })
        .collect()
}

/// A Figure 7a cell: peak inductor current (mA) with `l` µH coils at
/// 6 Ω.
fn coil_peak_ma(l: f64, kind: ControllerKind) -> f64 {
    cell_peak_ma(scenario::sweep_coil(l, 6.0), kind)
}

/// A Figure 7b cell: peak inductor current (mA) at an `r` Ω load.
fn load_peak_ma(r: f64, kind: ControllerKind) -> f64 {
    cell_peak_ma(scenario::sweep_load(r), kind)
}

/// A Figure 7c cell: ripple losses (µW) with `l` µH coils at 6 Ω.
fn coil_loss_uw(l: f64, kind: ControllerKind) -> f64 {
    cell_loss_uw(scenario::sweep_coil(l, 6.0), kind, l)
}

/// Figure 7a: peak inductor current (mA) for 1–10 µH coils at 6 Ω.
pub fn fig7a() -> Vec<SweepPoint> {
    sweep(&scenario::coil_grid(), coil_peak_ma)
}

/// [`fig7a`] on an explicit coil grid (µH). The pool is unused; it
/// stays until `perfbench/`, the only caller, stops passing one.
pub fn fig7a_on(_: &a4a_rt::Pool, grid: &[f64]) -> Vec<SweepPoint> {
    sweep(grid, coil_peak_ma)
}

/// Figure 7b: peak inductor current (mA) for 3–15 Ω loads at 4.7 µH.
pub fn fig7b() -> Vec<SweepPoint> {
    sweep(&scenario::load_grid(), load_peak_ma)
}

/// [`fig7b`] on an explicit load grid (Ω); the pool is unused, as in
/// [`fig7a_on`].
pub fn fig7b_on(_: &a4a_rt::Pool, grid: &[f64]) -> Vec<SweepPoint> {
    sweep(grid, load_peak_ma)
}

/// Figure 7c: inductor ripple (AC) losses (µW) for 1–10 µH coils at
/// 6 Ω, measured over the steady window.
pub fn fig7c() -> Vec<SweepPoint> {
    sweep(&scenario::coil_grid(), coil_loss_uw)
}

/// [`fig7c`] on an explicit coil grid (µH); the pool is unused, as in
/// [`fig7a_on`].
pub fn fig7c_on(_: &a4a_rt::Pool, grid: &[f64]) -> Vec<SweepPoint> {
    sweep(grid, coil_loss_uw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        // Sync rows constant per condition, matching 2.5 periods.
        assert!((rows[0].ns[0] - 25.0).abs() < 0.1);
        assert!((rows[1].ns[0] - 7.5).abs() < 0.1);
        // Async row path-dependent and ~the paper's figures.
        let asy = &rows[4].ns;
        assert!((asy[0] - 1.87).abs() < 0.05, "HL {}", asy[0]);
        assert!((asy[1] - 1.02).abs() < 0.05, "UV {}", asy[1]);
        assert!((asy[2] - 1.18).abs() < 0.05, "OV {}", asy[2]);
        assert!((asy[3] - 0.75).abs() < 0.05, "OC {}", asy[3]);
        assert!((asy[4] - 0.31).abs() < 0.05, "ZC {}", asy[4]);
        let imp = table1_improvement(&rows);
        assert!(imp[4] > imp[0], "ZC gains the most, as in the paper");
        assert!(imp.iter().all(|&f| f > 3.0), "{imp:?}");
    }

    #[test]
    fn fig6_async_beats_sync_333() {
        let sync = fig6_run(ControllerKind::Sync(333.0));
        let asy = fig6_run(ControllerKind::Async);
        assert!(
            asy.ripple < sync.ripple,
            "{} vs {}",
            asy.ripple,
            sync.ripple
        );
        assert!(asy.peak < sync.peak, "{} vs {}", asy.peak, sync.peak);
        assert_eq!(asy.short_circuits, 0);
        assert_eq!(sync.short_circuits, 0);
    }
}
