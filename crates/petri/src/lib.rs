//! Petri-net substrate for the A4A buck reproduction.
//!
//! Signal Transition Graphs — the formal specification language of the A4A
//! flow — are labelled Petri nets. This crate provides the unlabelled
//! machinery they stand on:
//!
//! * [`PetriNet`] and [`NetBuilder`] — places, transitions, weighted
//!   consuming/producing arcs and non-consuming *read arcs*;
//! * [`Marking`] — token vectors with the standard enabledness and firing
//!   rule;
//! * [`PetriNet::search`] — the one breadth-first search every explicit
//!   state space runs: states as rows `[marking words…, tag]` in one
//!   arena, safe nets fired by per-transition bit masks, a
//!   token-counting reference engine for the rest, and a caller
//!   [`Hook`] that gives each successor's tag, stops the search or
//!   fails it;
//! * [`StateSpace`] — the one graph store it fills: states, edges, BFS
//!   traces, deadlocks and bounds, numbered by a [`StateIndex`];
//! * [`ReachabilityGraph`] — the state space of a plain net (every tag
//!   0), from [`PetriNet::explore`].
//!
//! # Examples
//!
//! Build a two-place cycle and explore it:
//!
//! ```
//! use a4a_petri::NetBuilder;
//!
//! let mut b = NetBuilder::new();
//! let p0 = b.place_with_tokens("p0", 1)?;
//! let p1 = b.place("p1")?;
//! let t0 = b.transition("t0")?;
//! let t1 = b.transition("t1")?;
//! b.arc_pt(p0, t0)?;
//! b.arc_tp(t0, p1)?;
//! b.arc_pt(p1, t1)?;
//! b.arc_tp(t1, p0)?;
//! let net = b.build();
//!
//! let reach = net.explore(10_000)?;
//! assert_eq!(reach.state_count(), 2);
//! assert!(reach.deadlocks().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod invariant;
mod kernel;
mod marking;
mod net;
mod reach;
mod space;

pub use invariant::PlaceInvariant;
pub use kernel::Engine;
pub use marking::Marking;
pub use net::{
    ArcKind, FireError, NetBuilder, NetError, PetriNet, Place, PlaceId, TokenOverflow, Transition,
    TransitionId,
};
pub use reach::{ExploreError, ReachabilityGraph, StateId};
pub use space::{BfsTree, Hook, Limit, SearchError, StateIndex, StateSpace, Step};
