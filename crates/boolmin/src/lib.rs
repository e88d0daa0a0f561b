//! Two-level Boolean minimisation for the speed-independent logic
//! synthesiser.
//!
//! The synthesiser extracts, for every implemented signal, an ON-set and
//! an OFF-set of reachable state codes; everything else is a don't-care.
//! This crate turns those sets into minimal sum-of-products covers:
//!
//! * [`Cube`] — a product term in positional-cube notation;
//! * [`Cover`] — a set of cubes with evaluation and containment helpers;
//! * [`minimize`] — Quine–McCluskey prime generation followed by Petrick
//!   exact covering (greedy fallback for large instances);
//! * [`Expr`] — a Boolean expression AST for rendering the result as a
//!   complex gate.
//!
//! # Examples
//!
//! Minimise `f(a,b) = a xor b` with no don't-cares — it is already
//! minimal, two cubes:
//!
//! ```
//! use a4a_boolmin::{minimize, Minimize};
//!
//! let on = [0b01u64, 0b10]; // a=1,b=0 and a=0,b=1
//! let off = [0b00u64, 0b11];
//! let cover = minimize(&Minimize::new(2).on(&on).off(&off))?;
//! assert_eq!(cover.cube_count(), 2);
//! assert!(cover.eval(0b01) && cover.eval(0b10));
//! assert!(!cover.eval(0b00) && !cover.eval(0b11));
//! # Ok::<(), a4a_boolmin::MinimizeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod cube;
mod espresso;
mod expr;
mod qm;

pub use cover::Cover;
pub use cube::Cube;
pub use espresso::espresso;
pub use expr::Expr;
pub use qm::{minimize, Minimize, MinimizeError};
