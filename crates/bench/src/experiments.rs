//! Data producers for every table and figure of the evaluation.

use a4a::scenario::{self, ControllerKind};
use a4a::TestbenchBuilder;
use a4a_analog::{metrics, CoilModel, SensorKind, Waveform};
use a4a_ctrl::{
    AsyncController, AsyncTiming, BuckController, Command, SyncParams, TimedCommand,
};
use a4a_rt::Pool;
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

/// A tiny digital-only harness: drives the async controller with sensor
/// events, acknowledges gate commands after a fixed driver+ack delay,
/// and logs commands.
struct DigitalHarness {
    ctrl: AsyncController,
    acks: Vec<(Time, usize, bool, bool)>,
    log: Vec<TimedCommand>,
    ack_delay: Time,
}

impl DigitalHarness {
    fn new(phases: usize) -> Self {
        DigitalHarness {
            ctrl: AsyncController::new(phases, AsyncTiming::default()),
            acks: Vec::new(),
            log: Vec::new(),
            ack_delay: Time::from_ns(2.5),
        }
    }

    fn collect(&mut self) {
        for cmd in self.ctrl.take_commands() {
            self.log.push(cmd);
            if let Command::Gate { phase, pmos, value } = cmd.command {
                self.acks.push((cmd.time + self.ack_delay, phase, pmos, value));
            }
        }
    }

    fn drain(&mut self, now: Time) {
        loop {
            self.acks.sort_by_key(|a| a.0);
            if let Some(&(t, phase, pmos, value)) = self.acks.first() {
                if t <= now {
                    self.acks.remove(0);
                    self.ctrl.on_gate_ack(t, phase, pmos, value);
                    self.collect();
                    continue;
                }
            }
            match self.ctrl.next_wakeup() {
                Some(w) if w <= now => {
                    self.ctrl.on_wakeup(w);
                    self.collect();
                }
                _ => break,
            }
        }
    }

    fn sensor(&mut self, t: Time, kind: SensorKind, v: bool) {
        self.drain(t);
        self.ctrl.on_sensor(t, kind, v);
        self.collect();
    }

    fn first_gate_after(&self, t: Time, want: Option<(bool, bool)>) -> Option<Time> {
        self.log
            .iter()
            .filter(|c| c.time >= t)
            .find_map(|c| match c.command {
                Command::Gate { pmos, value, .. } => match want {
                    Some((wp, wv)) if (pmos, value) != (wp, wv) => None,
                    _ => Some(c.time),
                },
                _ => None,
            })
    }

    fn first_ovmode_after(&self, t: Time) -> Option<Time> {
        self.log.iter().filter(|c| c.time >= t).find_map(|c| match c.command {
            Command::OvMode(true) => Some(c.time),
            _ => None,
        })
    }
}

/// Measures the async controller's reaction to each condition (ns):
/// HL, UV, OV, OC, ZC.
pub fn measure_async_reactions() -> [f64; 5] {
    let ns = Time::from_ns;

    // UV: armed token holder, fresh UV -> gp+.
    let uv = {
        let mut h = DigitalHarness::new(4);
        h.drain(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.drain(ns(20.0));
        h.first_gate_after(ns(10.0), Some((true, true)))
            .map(|t| t.as_ns() - 10.0)
            .unwrap_or(f64::NAN)
    };
    // HL: all stages drafted; measure to the first *other* phase's gp+
    // with UV pre-asserted on a stage that is not the token holder.
    let hl = {
        let mut h = DigitalHarness::new(4);
        h.drain(ns(1.0));
        // Pre-assert UV then immediately HL; the token holder responds
        // via the UV path, the drafted stages via the HL path.
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.sensor(ns(10.0), SensorKind::Hl, true);
        h.drain(ns(30.0));
        // First gate command on a non-holder phase.
        h.log
            .iter()
            .find_map(|c| match c.command {
                Command::Gate {
                    phase,
                    pmos: true,
                    value: true,
                } if phase != 0 => Some(c.time.as_ns() - 10.0),
                _ => None,
            })
            .unwrap_or(f64::NAN)
    };
    // OV: the sinking action (gn+) on the token holder; the reference
    // switch command is dispatched on the way (also checked).
    let ov = {
        let mut h = DigitalHarness::new(4);
        h.drain(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Ov, true);
        h.drain(ns(30.0));
        assert!(h.first_ovmode_after(ns(10.0)).is_some());
        h.first_gate_after(ns(10.0), Some((false, true)))
            .map(|t| t.as_ns() - 10.0)
            .unwrap_or(f64::NAN)
    };
    // OC: during a charging cycle (past the PEXT window) -> gp-.
    let oc = {
        let mut h = DigitalHarness::new(1);
        h.drain(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.sensor(ns(50.0), SensorKind::Uv, false);
        h.drain(ns(100.0));
        h.sensor(ns(200.0), SensorKind::Oc(0), true);
        h.drain(ns(300.0));
        h.first_gate_after(ns(200.0), Some((true, false)))
            .map(|t| t.as_ns() - 200.0)
            .unwrap_or(f64::NAN)
    };
    // ZC: during the NMOS phase (past NMIN) -> gn-.
    let zc = {
        let mut h = DigitalHarness::new(1);
        h.drain(ns(1.0));
        h.sensor(ns(10.0), SensorKind::Uv, true);
        h.sensor(ns(50.0), SensorKind::Uv, false);
        h.sensor(ns(200.0), SensorKind::Oc(0), true);
        h.drain(ns(300.0));
        h.sensor(ns(300.0), SensorKind::Oc(0), false);
        h.sensor(ns(400.0), SensorKind::Zc(0), true);
        h.drain(ns(500.0));
        h.first_gate_after(ns(400.0), Some((false, false)))
            .map(|t| t.as_ns() - 400.0)
            .unwrap_or(f64::NAN)
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
/// plus the other clock rates for context. Runs are independent, so
/// they execute on the global pool; [`Pool::par_map`] preserves series
/// order, keeping the output identical for every thread count.
pub fn fig6_all() -> Vec<Fig6Run> {
    Pool::global().par_map(ControllerKind::paper_series(), fig6_run)
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

/// Runs one Figure 7 cell, the testbench of `builder` under a `kind`
/// controller, over the sweeps' 8 µs and returns its waveform.
///
/// # Panics
///
/// Panics if the configuration is invalid, the co-simulation fails, or
/// the controller shorts a phase.
pub fn sweep_cell(builder: TestbenchBuilder, kind: ControllerKind) -> Waveform {
    let ctrl = scenario::controller(kind, 4);
    let mut tb = builder
        .try_build(ctrl)
        .expect("sweep point must configure a valid testbench");
    tb.try_run_until(8e-6)
        .expect("sweep co-simulation must not diverge");
    assert_eq!(tb.short_circuits(), 0, "{}: short circuit", kind.label());
    tb.into_waveform()
}

/// Runs one independent simulation per (grid point, series) pair on
/// `pool` and regroups the results into x-ordered [`SweepPoint`]s.
///
/// Every grid cell is a fresh testbench with no shared state, and
/// [`Pool::par_map`] preserves input order, so the sweep result is
/// bit-identical for every thread count (`A4A_THREADS=1` runs the plain
/// sequential loop).
fn sweep_on(
    pool: &Pool,
    grid: &[f64],
    cell: impl Fn(f64, ControllerKind) -> f64 + Sync,
) -> Vec<SweepPoint> {
    let series = ControllerKind::paper_series();
    let tasks: Vec<(f64, ControllerKind)> = grid
        .iter()
        .flat_map(|&x| series.iter().map(move |&kind| (x, kind)))
        .collect();
    let ys = pool.par_map(tasks, |(x, kind)| cell(x, kind));
    grid.iter()
        .zip(ys.chunks(series.len()))
        .map(|(&x, y)| SweepPoint { x, y: y.to_vec() })
        .collect()
}

/// Figure 7a: peak inductor current (mA) for 1–10 µH coils at 6 Ω.
pub fn fig7a() -> Vec<SweepPoint> {
    fig7a_on(Pool::global(), &scenario::coil_grid())
}

/// [`fig7a`] on an explicit pool and coil grid (µH) — used by the
/// differential/golden tests and the `--quick` CI tier.
pub fn fig7a_on(pool: &Pool, grid: &[f64]) -> Vec<SweepPoint> {
    sweep_on(pool, grid, |l, kind| {
        let w = sweep_cell(scenario::sweep_coil(l, 6.0), kind);
        metrics::peak_current(&w) * 1e3
    })
}

/// Figure 7b: peak inductor current (mA) for 3–15 Ω loads at 4.7 µH.
pub fn fig7b() -> Vec<SweepPoint> {
    fig7b_on(Pool::global(), &scenario::load_grid())
}

/// [`fig7b`] on an explicit pool and load grid (Ω).
pub fn fig7b_on(pool: &Pool, grid: &[f64]) -> Vec<SweepPoint> {
    sweep_on(pool, grid, |r, kind| {
        let w = sweep_cell(scenario::sweep_load(r), kind);
        metrics::peak_current(&w) * 1e3
    })
}

/// Figure 7c: inductor ripple (AC) losses (µW) for 1–10 µH coils at
/// 6 Ω, measured over the steady window.
pub fn fig7c() -> Vec<SweepPoint> {
    fig7c_on(Pool::global(), &scenario::coil_grid())
}

/// [`fig7c`] on an explicit pool and coil grid (µH).
pub fn fig7c_on(pool: &Pool, grid: &[f64]) -> Vec<SweepPoint> {
    sweep_on(pool, grid, |l, kind| {
        ripple_loss_uw(&sweep_cell(scenario::sweep_coil(l, 6.0), kind), l)
    })
}

/// The Figure 7c metric of one cell's waveform: the coil ripple (AC)
/// losses of its four phases with `l_uh` µH coils, in µW, over the
/// steady window from 3 µs on.
pub fn ripple_loss_uw(w: &Waveform, l_uh: f64) -> f64 {
    let coil = CoilModel::coilcraft(l_uh);
    let steady = w.window(3e-6, 8e-6);
    let ac: f64 = (0..4)
        .map(|k| {
            let a = metrics::ac_rms_current(&steady, k);
            a * a * coil.esr_hf
        })
        .sum();
    ac * 1e6
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
        assert!(asy.ripple < sync.ripple, "{} vs {}", asy.ripple, sync.ripple);
        assert!(asy.peak < sync.peak, "{} vs {}", asy.peak, sync.peak);
        assert_eq!(asy.short_circuits, 0);
        assert_eq!(sync.short_circuits, 0);
    }
}
