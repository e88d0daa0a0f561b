//! Analog substrate for the multiphase buck case study — the Verilog-A /
//! Cadence AMS stand-in.
//!
//! * [`Buck`] — a piecewise-linear ODE model of an N-phase synchronous
//!   buck converter: per-phase PMOS/NMOS switches with on-resistance,
//!   body diodes, discontinuous conduction, per-phase coils, a shared
//!   output capacitor, and a resistive load that experiments can step
//!   at run time, propagated exactly between switching events;
//! * [`Comparator`] and [`SensorBank`] — the five condition detectors of
//!   the paper (HL, UV, OV, per-phase OC and ZC) with hysteresis and
//!   propagation delay, their crossings located on the buck's exact
//!   trajectory; the OV operating mode switches the current thresholds
//!   from `I_max`/`I_0` to `I_0`/`I_neg` exactly as described in §II;
//! * [`CoilModel`] — a Coilcraft-style RF inductor family with
//!   inductance-dependent DCR and high-frequency ESR, covering the 1–10
//!   µH sweep of Figure 7;
//! * [`Waveform`] / [`metrics`] — recording and the paper's measurements
//!   (voltage ripple, inductor peak current, RMS decomposition, coil
//!   conduction losses).
//!
//! # Examples
//!
//! Run a phase open-loop for a microsecond and watch the coil charge:
//!
//! ```
//! use a4a_analog::{Buck, BuckParams};
//!
//! let mut buck = Buck::try_new(BuckParams::default())?;
//! buck.try_set_switch(0, true, false)?; // PMOS on
//! for _ in 0..1000 {
//!     buck.try_step(1e-9)?;
//! }
//! assert!(buck.coil_current(0) > 0.0);
//! assert!(buck.output_voltage() > 0.0);
//! # Ok::<(), a4a_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buck;
mod coil;
mod comparator;
pub mod metrics;
mod record;
mod sensors;

pub use buck::{Buck, BuckParams, SwitchState};
pub use coil::CoilModel;
pub use comparator::Comparator;
pub use record::{TrackId, Waveform};
pub use sensors::{SensorBank, SensorEvent, SensorKind, SensorThresholds};
