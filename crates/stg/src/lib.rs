//! Signal Transition Graphs (STGs) — the specification formalism of the
//! A4A flow.
//!
//! An STG is a Petri net whose transitions are labelled with rising (`s+`)
//! and falling (`s-`) edges of interface signals (or with `dummy` events).
//! This crate layers the STG interpretation on [`a4a_petri`]:
//!
//! * [`Stg`] / [`StgBuilder`] — construction, with signal declarations
//!   (input / output / internal) and initial values;
//! * the `.g` (astg) interchange format: [`Stg::parse_g`] /
//!   [`Stg::to_g`];
//! * [`StateGraph`] — the binary-encoded reachability graph, rejecting
//!   inconsistent specifications;
//! * [`verify`] — the sanity checks the paper runs on every module:
//!   consistency, deadlock-freeness, output persistence, USC/CSC, plus
//!   custom invariants (e.g. the PMOS/NMOS short-circuit check);
//! * [`Stg::compose`] — parallel composition synchronising on shared
//!   signals, used to assemble controllers from their modules.
//!
//! # Examples
//!
//! A minimal handshake (`req` in, `ack` out):
//!
//! ```
//! use a4a_stg::StgBuilder;
//!
//! let mut b = StgBuilder::new("handshake");
//! let req = b.input("req", false);
//! let ack = b.output("ack", false);
//! let rp = b.rise(req);
//! let ap = b.rise(ack);
//! let rm = b.fall(req);
//! let am = b.fall(ack);
//! b.connect_marked(am, rp); // token: waiting for req+
//! b.connect(rp, ap);
//! b.connect(ap, rm);
//! b.connect(rm, am);
//! let stg = b.build();
//!
//! let sg = stg.state_graph(1_000)?;
//! assert_eq!(sg.state_count(), 4);
//! let report = stg.verify(&sg);
//! assert!(report.is_clean());
//! # Ok::<(), a4a_stg::StgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod dot;
mod error;
mod parser;
pub mod prop_support;
mod signal;
mod stategraph;
#[allow(clippy::module_inception)]
mod stg;
pub mod verify;

pub use error::StgError;
pub use signal::{Edge, Polarity, Signal, SignalId, SignalKind};
pub use stategraph::{SgStateId, StateGraph};
pub use stg::{Label, Stg, StgBuilder};
pub use verify::{CscConflict, PersistenceViolation, VerifyReport, MAX_CODING_CONFLICTS};

pub use a4a_petri::{Marking, PetriNet, PlaceId, TransitionId};
