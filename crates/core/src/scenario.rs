//! The evaluation workloads of §V.
//!
//! [`fig6`] builds the Figure 6 scenario (startup → normal load → high
//! load → normal load over 10 µs); [`sweep_coil`] and [`sweep_load`]
//! build the Figure 7 grids. Each returns a configured
//! [`TestbenchBuilder`] so callers only plug in a controller.

use a4a_analog::{BuckParams, CoilModel};

use crate::TestbenchBuilder;

/// Which controller drives a run (used by the benches to label series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerKind {
    /// Synchronous at the given `fsm_clk` in MHz.
    Sync(f64),
    /// The asynchronous token ring.
    Async,
}

impl ControllerKind {
    /// The five series of Figures 7a–7c.
    pub fn paper_series() -> Vec<ControllerKind> {
        vec![
            ControllerKind::Sync(100.0),
            ControllerKind::Sync(333.0),
            ControllerKind::Sync(666.0),
            ControllerKind::Sync(1000.0),
            ControllerKind::Async,
        ]
    }

    /// Series label as used in the paper's legends.
    pub fn label(&self) -> String {
        match self {
            ControllerKind::Sync(mhz) if *mhz >= 1000.0 => "1GHz".to_string(),
            ControllerKind::Sync(mhz) => format!("{}MHz", *mhz as u64),
            ControllerKind::Async => "ASYNC".to_string(),
        }
    }
}

/// End time of the Figure 6 run (seconds).
pub const FIG6_T_END: f64 = 10e-6;
/// The normal-load measurement window of Figure 6 (after startup,
/// before the high-load step).
pub const FIG6_NORMAL_WINDOW: (f64, f64) = (2e-6, 6.8e-6);

/// The Figure 6 scenario: startup at t=0 into a 6 Ω load, a high-load
/// step to 3.6 Ω at 7 µs, back to 6 Ω at 8 µs; 4 phases, 4.7 µH coils.
pub fn fig6() -> TestbenchBuilder {
    TestbenchBuilder::new()
        .params(BuckParams::default())
        .load_step(7e-6, 3.6)
        .load_step(8e-6, 6.0)
}

/// A Figure 7a/7c grid point: `l_uh` µH coils at `rload` Ω, run to a
/// steady 8 µs without load steps.
pub fn sweep_coil(l_uh: f64, rload: f64) -> TestbenchBuilder {
    TestbenchBuilder::new().params(
        BuckParams::default()
            .with_coil(CoilModel::coilcraft(l_uh))
            .with_load(rload),
    )
}

/// A Figure 7b grid point: 4.7 µH coils at `rload` Ω.
pub fn sweep_load(rload: f64) -> TestbenchBuilder {
    sweep_coil(4.7, rload)
}

/// The coil grid of Figures 7a and 7c (µH).
pub fn coil_grid() -> Vec<f64> {
    CoilModel::family_uh()
}

/// The load grid of Figure 7b (Ω).
pub fn load_grid() -> Vec<f64> {
    vec![3.0, 6.0, 9.0, 12.0, 15.0]
}

/// Builds a boxed controller of the given kind for `phases` phases.
pub fn controller(kind: ControllerKind, phases: usize) -> Box<dyn a4a_ctrl::BuckController> {
    match kind {
        ControllerKind::Sync(mhz) => Box::new(a4a_ctrl::SyncController::new(
            phases,
            a4a_ctrl::SyncParams::at_mhz(mhz),
        )),
        ControllerKind::Async => Box::new(a4a_ctrl::AsyncController::new(
            phases,
            a4a_ctrl::AsyncTiming::default(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_labels() {
        let labels: Vec<String> = ControllerKind::paper_series()
            .iter()
            .map(ControllerKind::label)
            .collect();
        assert_eq!(labels, vec!["100MHz", "333MHz", "666MHz", "1GHz", "ASYNC"]);
    }

    #[test]
    fn grids_match_paper() {
        assert_eq!(coil_grid().len(), 9);
        assert_eq!(load_grid(), vec![3.0, 6.0, 9.0, 12.0, 15.0]);
    }

    #[test]
    fn controllers_constructible() {
        for kind in ControllerKind::paper_series() {
            let c = controller(kind, 4);
            assert_eq!(c.phases(), 4);
        }
    }
}
