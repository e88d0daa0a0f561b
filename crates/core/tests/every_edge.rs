//! Differential test of the synchronous controller's idle-edge skipping.
//!
//! `SyncController::next_wakeup` reports only the clock edges that can
//! change the controller, so the testbench ends no window at the others.
//! [`EveryEdge`] reports every edge as a wakeup on top, which restores a
//! window per edge. Every Fig. 6 and Fig. 7 cell of the four synchronous
//! series must record the same run either way: the same event sequence,
//! with times and samples equal up to the rounding of plans that start
//! at a sample point instead of at a skipped edge. (The rule that
//! catches a sleeping controller up before an ack applies to both runs;
//! `cosim::tests::an_ack_a_hair_after_an_edge_follows_it` pins it.)

use a4a::scenario::{self, ControllerKind};
use a4a::TestbenchBuilder;
use a4a_analog::{SensorKind, TrackId, Waveform};
use a4a_ctrl::{BuckController, SyncParams, TimedCommand};
use a4a_sim::Time;

/// Wakes its controller at every edge of a clock of `period`, and at the
/// controller's own wakeups.
struct EveryEdge<C> {
    inner: C,
    period: Time,
    next: Time,
}

impl<C: BuckController> BuckController for EveryEdge<C> {
    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn on_sensor(&mut self, t: Time, kind: SensorKind, value: bool) {
        self.inner.on_sensor(t, kind, value);
    }

    fn on_gate_ack(&mut self, t: Time, phase: usize, pmos: bool, value: bool) {
        self.inner.on_gate_ack(t, phase, pmos, value);
    }

    fn next_wakeup(&self) -> Option<Time> {
        Some(
            self.inner
                .next_wakeup()
                .map_or(self.next, |w| w.min(self.next)),
        )
    }

    fn on_wakeup(&mut self, t: Time) {
        self.inner.on_wakeup(t);
        while self.next <= t {
            self.next += self.period;
        }
    }

    fn take_commands_into(&mut self, out: &mut Vec<TimedCommand>) {
        self.inner.take_commands_into(out);
    }

    fn debug_tracks_into(&self, out: &mut Vec<(TrackId, bool)>) {
        self.inner.debug_tracks_into(out);
    }
}

/// Runs one cell, with a window at every clock edge or without.
fn run(builder: TestbenchBuilder, mhz: f64, t_end: f64, every_edge: bool) -> (Waveform, u64) {
    let mut ctrl = scenario::controller(ControllerKind::Sync(mhz), 4);
    if every_edge {
        let period = SyncParams::at_mhz(mhz).period();
        ctrl = Box::new(EveryEdge {
            inner: ctrl,
            period,
            next: period,
        });
    }
    let mut tb = builder.build(ctrl);
    tb.run_until(t_end);
    let windows = tb.windows();
    (tb.into_waveform(), windows)
}

#[test]
fn skipping_idle_edges_keeps_every_fig6_and_fig7_cell() {
    type Cell = (String, Box<dyn Fn() -> TestbenchBuilder>, f64);
    let mut cells: Vec<Cell> = vec![(
        "fig6".to_string(),
        Box::new(scenario::fig6),
        scenario::FIG6_T_END,
    )];
    for l_uh in scenario::coil_grid() {
        let builder = move || scenario::sweep_coil(l_uh, 6.0);
        cells.push((format!("fig7a/c L={l_uh}"), Box::new(builder), 8e-6));
    }
    for rload in scenario::load_grid() {
        let builder = move || scenario::sweep_load(rload);
        cells.push((format!("fig7b R={rload}"), Box::new(builder), 8e-6));
    }
    let (mut max_dt, mut max_rel) = (0.0f64, 0.0f64);
    for (name, builder, t_end) in cells {
        for mhz in [100.0, 333.0, 666.0, 1000.0] {
            let cell = format!("{name} {mhz} MHz");
            let (every, every_windows) = run(builder(), mhz, t_end, true);
            let (skip, skip_windows) = run(builder(), mhz, t_end, false);
            assert!(
                skip_windows < every_windows,
                "{cell}: {skip_windows} vs {every_windows}"
            );

            assert_eq!(every.events.len(), skip.events.len(), "{cell}");
            for (a, b) in every.events.iter().zip(&skip.events) {
                assert_eq!((a.1, a.2), (b.1, b.2), "{cell}: {a:?} vs {b:?}");
                max_dt = max_dt.max((a.0 - b.0).abs());
            }
            // Relative to the sample, or to 1 mA or 1 mV below that.
            assert_eq!(every.t, skip.t, "{cell}: sample times");
            let columns = every
                .i
                .iter()
                .chain([&every.v])
                .zip(skip.i.iter().chain([&skip.v]));
            for (a, b) in columns {
                for (x, y) in a.iter().zip(b) {
                    let rel = (x - y).abs() / x.abs().max(y.abs()).max(1e-3);
                    max_rel = max_rel.max(rel);
                }
            }
        }
    }
    assert!(max_dt <= 1e-18, "event times moved by up to {max_dt:e} s");
    assert!(
        max_rel <= 1e-12,
        "samples moved by up to {max_rel:e} relative"
    );
}
