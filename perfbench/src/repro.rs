//! The `repro` workload: the paper's figure entry points, one op per
//! Table I / Fig. 6 run / Fig. 7 row.
//!
//! The traced round does the same work through the public pieces the
//! entry points are made of (scenario builder, testbench, controller,
//! waveform metrics), timing each from outside. The controller runs
//! inside [`Recording`], a delegating [`BuckController`] whose call log
//! is replayed afterwards, outside the op time, to measure the
//! controller's share of the co-simulation.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use a4a::analog::{metrics, CoilModel, SensorKind, TrackId, Waveform};
use a4a::ctrl::{BuckController, TimedCommand};
use a4a::scenario::{self, ControllerKind};
use a4a::sim::Time;
use a4a::TestbenchBuilder;
use a4a_bench::experiments::{self, SweepPoint, Table1Row};
use a4a_rt::Pool;

use crate::inputs::{ReproOp, Sweep, SweepRow, PAPER_ASYNC_NS, TOL_ASYNC_NS};
use crate::measure::{guarded, Layers, Metric, Recorder};

/// Simulated length of one Fig. 7 cell (s), as the sweep entry points
/// run it.
const SWEEP_T_END: f64 = 8e-6;

/// The simulated µs an op covers: its domain work.
fn sim_us(op: &ReproOp) -> f64 {
    match op {
        ReproOp::Table1 => 0.0,
        ReproOp::Fig6(_) => scenario::FIG6_T_END * 1e6,
        ReproOp::Fig7(_) => ControllerKind::paper_series().len() as f64 * SWEEP_T_END * 1e6,
    }
}

/// One round of the repro ops through the public figure entry points.
pub fn round(ops: &[ReproOp], rec: &mut Recorder) {
    let pool = Pool::global();
    let mut sync333 = None;
    for op in ops {
        let work = sim_us(op);
        match op {
            ReproOp::Table1 => {
                let (rows, took) = guarded(experiments::table1);
                rec.op(took, work, rows.and_then(|r| check_table1(&r)));
            }
            ReproOp::Fig6(kind) => {
                let (run, took) = guarded(|| experiments::fig6_run(*kind));
                let verdict = run.and_then(|r| {
                    check_fig6(*kind, r.short_circuits, r.ripple, r.peak, &mut sync333)
                });
                rec.op(took, work, verdict);
            }
            ReproOp::Fig7(row) => {
                let grid = [row.x];
                let (points, took) = guarded(|| match row.sweep {
                    Sweep::A => experiments::fig7a_on(pool, &grid),
                    Sweep::B => experiments::fig7b_on(pool, &grid),
                    Sweep::C => experiments::fig7c_on(pool, &grid),
                });
                rec.op(took, work, points.and_then(|p| check_row(row, &p)));
            }
        }
    }
}

/// The repro round again, decomposed into its layers and timed per
/// layer; each op's controller shadows run after its timing stops.
pub fn traced_round(ops: &[ReproOp], rec: &mut Recorder, layers: &mut Layers) {
    let mut sync333 = None;
    for op in ops {
        let work = sim_us(op);
        let mut ran = Vec::new();
        let start = Instant::now();
        let verdict = match op {
            ReproOp::Table1 => {
                let (rows, took) = guarded(experiments::table1);
                layers.add_ms("table1.busy_ms", took);
                rows.and_then(|r| check_table1(&r))
            }
            ReproOp::Fig6(kind) => {
                traced_fig6(*kind, layers, &mut ran).and_then(|(short, ripple, peak)| {
                    check_fig6(*kind, short, ripple, peak, &mut sync333)
                })
            }
            ReproOp::Fig7(row) => {
                traced_fig7(row, layers, &mut ran).and_then(|p| check_row(row, &[p]))
            }
        };
        let took = start.elapsed();
        layers.add_ms("repro.op_ms", took);
        let verdict = ran.iter().fold(verdict, |v, r| {
            v.and_then(|()| guarded(|| shadow_ctrl(r, layers)).0.and_then(|s| s))
        });
        rec.op(took, work, verdict);
    }
}

/// The per-layer metrics of a traced pass of `rounds` rounds, per round.
pub fn layer_metrics(layers: &Layers, rounds: f64) -> Vec<Metric> {
    let per_round = |name: &str| layers.get(name) / rounds;
    let ctrl: f64 = ControllerKind::paper_series()
        .iter()
        .map(|&k| per_round(&ctrl_metric(k)))
        .sum();
    let attributed: f64 = [
        "cosim.build_ms",
        "cosim.run_ms",
        "metrics.busy_ms",
        "table1.busy_ms",
    ]
    .iter()
    .map(|n| per_round(n))
    .sum();
    let mut out = Vec::new();
    for name in ["cosim.build_ms", "cosim.run_ms"] {
        out.push(Metric::new(name, per_round(name), "ms/round"));
    }
    out.push(Metric::new(
        "cosim.self_ms",
        per_round("cosim.run_ms") - ctrl,
        "ms/round",
    ));
    for kind in ControllerKind::paper_series() {
        let name = ctrl_metric(kind);
        out.push(Metric::new(&name, per_round(&name), "ms/round"));
    }
    for name in [
        "ctrl.calls",
        "ctrl.commands",
        "ctrl.next_wakeup_calls",
        "record.samples",
        "record.events",
    ] {
        out.push(Metric::new(name, per_round(name), "count/round"));
    }
    for name in ["metrics.busy_ms", "table1.busy_ms", "repro.op_ms"] {
        out.push(Metric::new(name, per_round(name), "ms/round"));
    }
    out.push(Metric::new(
        "repro.unattributed_ms",
        per_round("repro.op_ms") - attributed,
        "ms/round",
    ));
    out
}

fn ctrl_metric(kind: ControllerKind) -> String {
    match kind {
        ControllerKind::Sync(mhz) => format!("ctrl.busy_ms.sync{}", mhz as u64),
        ControllerKind::Async => "ctrl.busy_ms.async".to_string(),
    }
}

/// The scenario one co-simulation cell runs.
#[derive(Debug, Clone, Copy)]
enum CellKind {
    Fig6,
    Coil(f64),
    Load(f64),
}

impl CellKind {
    fn builder(self) -> TestbenchBuilder {
        match self {
            CellKind::Fig6 => scenario::fig6(),
            CellKind::Coil(l_uh) => scenario::sweep_coil(l_uh, 6.0),
            CellKind::Load(rload) => scenario::sweep_load(rload),
        }
    }

    fn t_end(self) -> f64 {
        match self {
            CellKind::Fig6 => scenario::FIG6_T_END,
            CellKind::Coil(_) | CellKind::Load(_) => SWEEP_T_END,
        }
    }
}

/// A cell the op ran, kept for its controller shadow.
struct Ran {
    cell: CellKind,
    kind: ControllerKind,
    samples: usize,
    events: usize,
}

/// Builds and runs one co-simulation cell as the entry points do,
/// timing build and run; returns the waveform and short-circuit count.
fn traced_cell(
    cell: CellKind,
    kind: ControllerKind,
    layers: &mut Layers,
    ran: &mut Vec<Ran>,
) -> Result<(Waveform, usize), String> {
    let ctrl = scenario::controller(kind, 4);
    let (tb, took) = guarded(|| cell.builder().try_build(ctrl));
    layers.add_ms("cosim.build_ms", took);
    let mut tb = tb?.map_err(|e| format!("{}: build: {e}", kind.label()))?;
    let (done, took) = guarded(|| tb.try_run_until(cell.t_end()));
    layers.add_ms("cosim.run_ms", took);
    done?.map_err(|e| format!("{}: run: {e}", kind.label()))?;
    let short = tb.short_circuits();
    let w = tb.into_waveform();
    layers.add("record.samples", w.len() as f64);
    layers.add("record.events", w.events.len() as f64);
    ran.push(Ran {
        cell,
        kind,
        samples: w.len(),
        events: w.events.len(),
    });
    Ok((w, short))
}

/// The controller shadow of a cell, outside the op time: runs the cell
/// again with its controller inside [`Recording`], checks the rerun
/// recorded the same waveform size, and times the replay of the logged
/// controller calls.
fn shadow_ctrl(ran: &Ran, layers: &mut Layers) -> Result<(), String> {
    let label = ran.kind.label();
    let ctrl = Recording::new(scenario::controller(ran.kind, 4));
    let mut tb = ran
        .cell
        .builder()
        .try_build(ctrl)
        .map_err(|e| format!("{label}: shadow build: {e}"))?;
    tb.try_run_until(ran.cell.t_end())
        .map_err(|e| format!("{label}: shadow run: {e}"))?;
    let w = tb.waveform();
    if (w.len(), w.events.len()) != (ran.samples, ran.events) {
        return Err(format!("{label}: the recorded rerun differs from the run"));
    }
    let c = tb.controller();
    let took = c.replay(scenario::controller(ran.kind, 4))?;
    layers.add_ms(&ctrl_metric(ran.kind), took);
    let (calls, wakeups) = c.call_counts();
    layers.add("ctrl.calls", calls as f64);
    layers.add("ctrl.commands", c.commands as f64);
    layers.add("ctrl.next_wakeup_calls", wakeups as f64);
    Ok(())
}

/// `fig6_run(kind)` decomposed: returns (short circuits, ripple, peak).
fn traced_fig6(
    kind: ControllerKind,
    layers: &mut Layers,
    ran: &mut Vec<Ran>,
) -> Result<(usize, f64, f64), String> {
    let (w, short) = traced_cell(CellKind::Fig6, kind, layers, ran)?;
    let (m, took) = guarded(|| {
        let (a, b) = scenario::FIG6_NORMAL_WINDOW;
        (
            metrics::voltage_ripple(&w.window(a, b)),
            metrics::peak_current(&w),
        )
    });
    layers.add_ms("metrics.busy_ms", took);
    let (ripple, peak) = m?;
    Ok((short, ripple, peak))
}

/// One `fig7{a,b,c}_on` row decomposed into its five cells.
fn traced_fig7(
    row: &SweepRow,
    layers: &mut Layers,
    ran: &mut Vec<Ran>,
) -> Result<SweepPoint, String> {
    let cell = match row.sweep {
        Sweep::A | Sweep::C => CellKind::Coil(row.x),
        Sweep::B => CellKind::Load(row.x),
    };
    let mut y = Vec::with_capacity(5);
    for kind in ControllerKind::paper_series() {
        let (w, short) = traced_cell(cell, kind, layers, ran)?;
        if short != 0 {
            return Err(format!("{}: {short} short circuits", kind.label()));
        }
        let (v, took) = guarded(|| match row.sweep {
            Sweep::A | Sweep::B => metrics::peak_current(&w) * 1e3,
            Sweep::C => {
                let coil = CoilModel::coilcraft(row.x);
                let steady = w.window(3e-6, SWEEP_T_END);
                let ac: f64 = (0..4)
                    .map(|k| {
                        let a = metrics::ac_rms_current(&steady, k);
                        a * a * coil.esr_hf
                    })
                    .sum();
                ac * 1e6
            }
        });
        layers.add_ms("metrics.busy_ms", took);
        y.push(v?);
    }
    Ok(SweepPoint { x: row.x, y })
}

/// Table I: the sync rows are 2.5 clock periods, the ASYNC row is
/// within ±0.05 ns of the paper's figures.
fn check_table1(rows: &[Table1Row]) -> Result<(), String> {
    let expect = [
        ("100MHz", 2.5e3 / 100.0),
        ("333MHz", 2.5e3 / 333.0),
        ("666MHz", 2.5e3 / 666.0),
        ("1GHz", 2.5e3 / 1000.0),
    ];
    if rows.len() != 5 {
        return Err(format!("table1: {} rows", rows.len()));
    }
    for (row, (label, ns)) in rows.iter().zip(expect) {
        if row.label != label || row.ns.iter().any(|v| v.is_nan() || (v - ns).abs() > 0.005) {
            return Err(format!("table1 {label}: got {row:?}, want {ns:.3} ns"));
        }
    }
    let asy = &rows[4];
    let off = asy
        .ns
        .iter()
        .zip(PAPER_ASYNC_NS)
        .any(|(g, w)| g.is_nan() || (g - w).abs() > TOL_ASYNC_NS);
    if asy.label != "ASYNC" || off {
        return Err(format!(
            "table1 ASYNC: got {:?}, want {PAPER_ASYNC_NS:?} ±{TOL_ASYNC_NS}",
            asy.ns
        ));
    }
    Ok(())
}

/// Fig. 6: no short circuits; the ASYNC run's ripple and peak current
/// are below the 333 MHz run of the same round.
fn check_fig6(
    kind: ControllerKind,
    short: usize,
    ripple: f64,
    peak: f64,
    sync333: &mut Option<(f64, f64)>,
) -> Result<(), String> {
    let label = kind.label();
    if short != 0 {
        return Err(format!("fig6 {label}: {short} short circuits"));
    }
    if !(ripple.is_finite() && peak.is_finite() && ripple > 0.0 && peak > 0.0) {
        return Err(format!("fig6 {label}: ripple {ripple} peak {peak}"));
    }
    match kind {
        ControllerKind::Sync(333.0) => *sync333 = Some((ripple, peak)),
        ControllerKind::Async => match sync333.take() {
            Some((r, p)) if ripple < r && peak < p => {}
            Some((r, p)) => {
                return Err(format!(
                    "fig6 ASYNC: ripple {ripple} / peak {peak} not below 333MHz {r} / {p}"
                ))
            }
            None => return Err("fig6 ASYNC ran before the 333MHz run".to_string()),
        },
        ControllerKind::Sync(_) => {}
    }
    Ok(())
}

/// A Fig. 7 row matches its committed golden row cell by cell.
fn check_row(row: &SweepRow, points: &[SweepPoint]) -> Result<(), String> {
    let [p] = points else {
        return Err(format!(
            "fig7 {:?} x={}: {} points",
            row.sweep,
            row.x,
            points.len()
        ));
    };
    let tol = row.sweep.tol();
    let matches = (p.x - row.x).abs() < 1e-9
        && p.y.len() == 5
        && p.y.iter().zip(row.y).all(|(g, w)| (g - w).abs() <= tol);
    if matches {
        Ok(())
    } else {
        Err(format!(
            "fig7 {:?} x={}: got {:?}, want {:?} ±{tol}",
            row.sweep, row.x, p.y, row.y
        ))
    }
}

/// One call the testbench made into its controller.
#[derive(Debug, Clone, Copy)]
enum Call {
    Sensor(Time, SensorKind, bool),
    GateAck(Time, usize, bool, bool),
    NextWakeup,
    Wakeup(Time),
    TakeCommands,
    DebugTracks,
}

/// A delegating controller that logs every call the testbench makes and
/// counts the commands drained. A controller call costs tens of ns, about
/// one clock read, so timing each call in place would mostly measure
/// the clock; [`Recording::replay`] times the logged sequence instead.
pub struct Recording<C> {
    inner: C,
    log: RefCell<Vec<Call>>,
    commands: usize,
}

impl<C: BuckController> Recording<C> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: C) -> Self {
        Recording {
            inner,
            log: RefCell::new(Vec::new()),
            commands: 0,
        }
    }

    fn push(&self, call: Call) {
        self.log.borrow_mut().push(call);
    }

    /// Replays the logged calls into `fresh`, a new controller of the
    /// same kind, and returns how long that took. Controllers are
    /// deterministic in the calls they receive, so the replay redoes the
    /// recorded run's controller work exactly; it fails if the replay
    /// drains a different number of commands.
    pub fn replay(&self, mut fresh: impl BuckController) -> Result<Duration, String> {
        let log = self.log.borrow();
        let mut commands = Vec::new();
        let mut tracks = Vec::new();
        let mut drained = 0;
        let start = Instant::now();
        for call in log.iter() {
            match *call {
                Call::Sensor(t, kind, v) => fresh.on_sensor(t, kind, v),
                Call::GateAck(t, phase, pmos, v) => fresh.on_gate_ack(t, phase, pmos, v),
                Call::NextWakeup => {
                    black_box(fresh.next_wakeup());
                }
                Call::Wakeup(t) => fresh.on_wakeup(t),
                Call::TakeCommands => {
                    fresh.take_commands_into(&mut commands);
                    drained += commands.len();
                    commands.clear();
                }
                Call::DebugTracks => {
                    fresh.debug_tracks_into(&mut tracks);
                    black_box(&tracks);
                    tracks.clear();
                }
            }
        }
        let took = start.elapsed();
        if drained != self.commands {
            return Err(format!(
                "controller replay drained {drained} commands, the run {}",
                self.commands
            ));
        }
        Ok(took)
    }

    /// Calls logged, and how many of them were `next_wakeup` queries.
    fn call_counts(&self) -> (usize, usize) {
        let log = self.log.borrow();
        let wakeups = log.iter().filter(|c| matches!(c, Call::NextWakeup)).count();
        (log.len(), wakeups)
    }
}

impl<C: BuckController> BuckController for Recording<C> {
    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        self.push(Call::Sensor(t, kind, value));
        self.inner.on_sensor(t, kind, value);
    }

    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        self.push(Call::GateAck(t, phase, pmos, value));
        self.inner.on_gate_ack(t, phase, pmos, value);
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.push(Call::NextWakeup);
        self.inner.next_wakeup()
    }

    fn on_wakeup(&mut self, t: Time) {
        self.push(Call::Wakeup(t));
        self.inner.on_wakeup(t);
    }

    fn take_commands(&mut self) -> Vec<TimedCommand> {
        let mut out = Vec::new();
        self.take_commands_into(&mut out);
        out
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        self.push(Call::TakeCommands);
        let before = out.len();
        self.inner.take_commands_into(out);
        self.commands += out.len() - before;
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        self.push(Call::DebugTracks);
        self.inner.debug_tracks_into(out);
    }
}
