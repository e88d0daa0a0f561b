//! Deterministic runtime substrate for the A4A reproduction.
//!
//! The build environment is hermetic: no crates.io access. This crate
//! replaces the three registry dependencies the workspace used to pull —
//! `rand`, `proptest`, and `criterion` — with small, fully-deterministic
//! in-workspace equivalents:
//!
//! - [`rng`]: a seedable PRNG ([`Rng`], SplitMix64 seeding feeding a
//!   xoshiro256++ stream) with uniform `f64` and exponential sampling.
//!   The stream is pinned by golden-value tests, so ablation results
//!   replay bit-identically across platforms and future PRs — a stronger
//!   guarantee than `rand` gives (`StdRng` is explicitly *not*
//!   stream-stable across versions).
//! - [`prop`]: a seeded property-testing harness with failure-case
//!   shrinking, an env-overridable case count (`A4A_PROP_CASES`), and a
//!   reproducing seed printed on every failure (`A4A_PROP_SEED`).
//! - [`bench`](mod@bench): a one-shot wall-clock timer emitting a JSON
//!   line for the sweep binaries; the tracked performance numbers and
//!   work counters come from the standalone `perfbench/` package.
//! - [`pool`]: an `A4A_THREADS`-sized thread count whose
//!   order-preserving [`pool::Pool::par_map`] keeps parallel results
//!   bit-identical to the sequential loop — used by the Figure 6/7
//!   sweeps and the ablation batches.
//! - [`fault`]: seeded adversarial fault plans (SplitMix64 child seeds)
//!   and hostile-value samplers for the fault-injection tier
//!   (`tests/fault_injection.rs`), which drives them against the
//!   scheduler and analog stack asserting typed-error-or-invariant.
//! - [`hash`]: a fixed-function FxHash hasher, `FxHashMap`/`FxHashSet`
//!   aliases, and the [`hash::IdTable`] id-interner under the
//!   state-space engines (markings stored once in the arena, never
//!   cloned into the index).

#![forbid(unsafe_code)]

pub mod bench;
pub mod fault;
pub mod hash;
pub mod pool;
pub mod prop;
pub mod rng;

pub use hash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, IdTable};
pub use pool::Pool;
pub use prop::{Config, Gen, PropError, TestCaseError};
pub use rng::Rng;
