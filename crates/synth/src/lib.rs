//! Speed-independent logic synthesis from Signal Transition Graphs — the
//! Petrify/MPSat stand-in of the A4A flow.
//!
//! The pipeline:
//!
//! 1. build the binary-encoded state graph ([`a4a_stg::StateGraph`]) and
//!    run the sanity checks (consistency, output persistence, CSC);
//! 2. extract, for every output/internal signal, its next-state function
//!    as ON/OFF sets of reachable codes ([`NextState`]);
//! 3. minimise with [`a4a_boolmin`] into either a single *complex gate*
//!    per signal or a *generalized C-element* (set/reset covers);
//! 4. assemble an [`a4a_netlist::Netlist`] with library timing;
//! 5. verify the result against the specification by joint state-space
//!    exploration ([`verify_si`]): every circuit output change must be
//!    allowed by the STG (conformance) and no excited gate may be
//!    disabled before firing (semi-modularity, i.e. hazard-freeness
//!    under the speed-independence model).
//!
//! # Examples
//!
//! Synthesise and verify a C-element specification:
//!
//! ```
//! use a4a_stg::Stg;
//! use a4a_synth::{synthesize, verify_si, SynthOptions, SynthStyle};
//!
//! let stg = Stg::parse_g("\
//! .model celem
//! .inputs a b
//! .outputs c
//! .graph
//! a+ c+
//! b+ c+
//! c+ a- b-
//! a- c-
//! b- c-
//! c- a+ b+
//! .marking { <c-,a+> <c-,b+> }
//! .end
//! ")?;
//! let synth = synthesize(&stg, &SynthOptions::new(SynthStyle::ComplexGate))?;
//! assert_eq!(synth.netlist().gate_count(), 1);
//! let report = verify_si(&stg, synth.netlist(), 10_000)?;
//! assert!(report.is_clean());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod extract;
mod gates;
mod si;

pub use error::SynthError;
pub use extract::{extract_next_state, NextState, Region};
pub use gates::{synthesize, SignalFunction, SignalImpl, SynthOptions, SynthStyle, Synthesis};
pub use si::{verify_si, SiReport, SiViolation};
