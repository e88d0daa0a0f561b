//! The multiphase buck controllers of the paper (§IV).
//!
//! Two controllers run the same control policy (charge the active phase
//! on UV, sink energy on OV, draft every phase on HL, respect
//! PMIN/NMIN/PEXT minimum on-times, and never short the half-bridge) and
//! differ only in *when* they act. Both step one charging machine per
//! phase, the CHARGE_CTRL cycle PMOS on → OC → PMOS off → NMOS on → ZC
//! or a new demand → NMOS off, with its minimum on-times:
//!
//! * [`SyncController`] — the conventional design: a fast `fsm_clk`
//!   samples every sensor through 2-flop synchronisers and clocks the
//!   per-phase FSMs; a slow `phase_clk` rotates the round-robin phase
//!   activator (Figure 5a). Every control decision pays the sampling +
//!   synchronisation latency of ~2.5–3.5 clock periods.
//! * [`AsyncController`] — the A4A design: a token ring of identical
//!   phase controllers (Figure 5b/5c) whose sensor front-ends are the
//!   A2A elements of [`a4a_a2a`] (WAIT for HL, WAITX2 for UV/OV, WAIT2
//!   for OC, RWAIT for ZC, WAIT01 for the first-cycle PEXT extension).
//!   Reactions are path-dependent and take nanoseconds. The single-phase
//!   controller of Figure 2b, used by the quickstart example, is the
//!   one-stage ring `AsyncController::new(1, AsyncTiming::default())`.
//!
//! The module-level STG specifications (DECOUPLER, MERGE, TOKEN_CTRL,
//! MODE_CTRL, CHARGE_CTRL, the delay controllers) live in [`stgs`] and
//! are synthesised and verified by the workspace integration tests.
//!
//! Controllers implement [`BuckController`], the interface consumed by
//! the mixed-signal testbench in the `a4a` crate. [`Loopback`] drives one
//! without a power stage, acknowledging every gate command itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod charge;
mod iface;
mod loopback;
mod params;
mod ring;
pub mod stgs;
mod sync;

pub use iface::{BuckController, Command, TimedCommand};
pub use loopback::Loopback;
pub use params::{AsyncTiming, PolicyTiming, SyncParams, ACK_DELAY, DRIVER_DELAY};
pub use ring::AsyncController;
pub use sync::SyncController;
