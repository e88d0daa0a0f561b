//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§V).
//!
//! * [`experiments`] — the data producers: Table I reaction times,
//!   Figure 6 waveforms/metrics, the Figure 7a/7b/7c sweeps, and the
//!   ablation studies listed in DESIGN.md;
//! * [`ablation`] — the seeded scenario batches behind the `ablation`
//!   bin, each scenario's RNG split deterministically from a root seed;
//! * [`report`] — plain-text table rendering and CSV emission into
//!   `results/`.
//!
//! Every sweep and batch is a plain loop on the caller's thread: the
//! whole evaluation regenerates in about a second on one core.
//!
//! Each `cargo run -p a4a-bench --bin <name>` regenerates one artefact.
//! Engine performance (co-simulation, state graphs, minimisation,
//! synthesis, SI verification) is measured by the standalone
//! `perfbench/` package, whose work counters `ci.sh` pins in
//! `perf_counters.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod report;
