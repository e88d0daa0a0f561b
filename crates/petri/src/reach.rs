use std::convert::Infallible;
use std::error::Error;
use std::fmt;

use crate::{Limit, Marking, PetriNet, StateIndex, StateSpace, Step, TokenOverflow, TransitionId};

/// Index of a state (marking) within a [`ReachabilityGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The initial state of every reachability graph.
    pub const INITIAL: StateId = StateId(0);
}

impl StateIndex for StateId {
    fn from_index(index: u32) -> StateId {
        StateId(index)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Error raised when state-space exploration exceeds its budget or the
/// net defeats the token model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The number of distinct reachable markings exceeded the caller's
    /// limit; the net may be unbounded or simply too large.
    StateLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The caller asked for more states than the 32-bit [`StateId`]
    /// space can number; ids would silently wrap past 2^32.
    LimitOverflow {
        /// The requested limit.
        limit: usize,
    },
    /// A firing pushed a place's token counter past `u32::MAX` — the
    /// net is unbounded in the most literal way.
    TokenOverflow {
        /// Name of the place whose counter overflowed.
        place: String,
        /// Name of the transition whose firing overflowed it.
        transition: String,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::StateLimit { limit } => {
                write!(f, "state space exceeds limit of {limit} markings")
            }
            ExploreError::LimitOverflow { limit } => write!(
                f,
                "state limit {limit} exceeds the 2^32-1 ids a StateId can number"
            ),
            ExploreError::TokenOverflow { place, transition } => write!(
                f,
                "firing {transition} overflows the token counter of place {place}"
            ),
        }
    }
}

impl Error for ExploreError {}

impl ExploreError {
    pub(crate) fn token_overflow(net: &PetriNet, e: TokenOverflow) -> ExploreError {
        ExploreError::TokenOverflow {
            place: net.place(e.place).name.clone(),
            transition: net.transition(e.transition).name.clone(),
        }
    }
}

/// The explicit reachability graph of a [`PetriNet`]: its
/// [`StateSpace`], with every tag 0. States are markings, numbered in
/// breadth-first discovery order from the initial marking
/// ([`StateId::INITIAL`]); edges are transition firings.
pub type ReachabilityGraph = StateSpace<StateId>;

/// The hook of a plain reachability search: every state tagged 0.
fn untagged(_: u64, _: TransitionId) -> Step<Infallible> {
    Step::Next(0)
}

impl PetriNet {
    /// Explores the state space breadth-first from the initial marking,
    /// on the safe-net kernel when the net allows it (see
    /// [`PetriNet::search`]; [`StateSpace::engine`] tells which engine
    /// ran).
    ///
    /// States are numbered in breadth-first discovery order: parents in
    /// id order, each parent's successors in transition-id order.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::StateLimit`] if more than `max_states`
    /// distinct markings are discovered, which indicates an unbounded net
    /// or one too large for explicit exploration;
    /// [`ExploreError::LimitOverflow`] if `max_states` itself exceeds
    /// the 32-bit id space; [`ExploreError::TokenOverflow`] if a place's
    /// token counter overflows.
    pub fn explore(&self, max_states: usize) -> Result<ReachabilityGraph, ExploreError> {
        let initial = self.initial_marking();
        Ok(self.search(&initial, 0, Limit::Firing(max_states), &mut untagged)?)
    }

    /// Explores the state space breadth-first from an arbitrary marking
    /// on the reference engine — the engine the kernel-versus-reference
    /// differential suite compares [`PetriNet::explore`] against. Every
    /// observable (state numbering, edge order, error trip points) is
    /// identical for both engines.
    ///
    /// # Errors
    ///
    /// As for [`PetriNet::explore`].
    pub fn explore_from(
        &self,
        initial: Marking,
        max_states: usize,
    ) -> Result<ReachabilityGraph, ExploreError> {
        Ok(self.search_ref(&initial, 0, Limit::Firing(max_states), &mut untagged)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArcKind, Engine, NetBuilder};

    /// Two independent loops: state space is the product (4 states).
    fn two_loops() -> PetriNet {
        let mut b = NetBuilder::new();
        let a0 = b.place_with_tokens("a0", 1).unwrap();
        let a1 = b.place("a1").unwrap();
        let b0 = b.place_with_tokens("b0", 1).unwrap();
        let b1 = b.place("b1").unwrap();
        for (name, src, dst) in [
            ("ta0", a0, a1),
            ("ta1", a1, a0),
            ("tb0", b0, b1),
            ("tb1", b1, b0),
        ] {
            let t = b.transition(name).unwrap();
            b.arc_pt(src, t).unwrap();
            b.arc_tp(t, dst).unwrap();
        }
        b.build()
    }

    #[test]
    fn product_state_space() {
        let net = two_loops();
        let g = net.explore(100).unwrap();
        assert_eq!(g.state_count(), 4);
        assert_eq!(g.edge_count(), 8);
        assert!(g.deadlocks().is_empty());
        assert!(g.is_safe());
        assert_eq!(g.bound(), 1);
    }

    #[test]
    fn deadlock_detected() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        let t = b.transition("t").unwrap();
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        let net = b.build();
        let g = net.explore(10).unwrap();
        assert_eq!(g.deadlocks(), vec![StateId(1)]);
    }

    #[test]
    fn unbounded_net_hits_limit() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        let t = b.transition("t").unwrap();
        b.arc_read(p, t).unwrap();
        b.arc_tp(t, p).unwrap(); // produces without consuming: unbounded
        let net = b.build();
        let err = net.explore(16).unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { limit: 16 });
    }

    #[test]
    fn bound_reports_max_tokens() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 2).unwrap();
        let q = b.place("q").unwrap();
        let t = b.transition("t").unwrap();
        b.arc_pt(p, t).unwrap();
        b.arc(ArcKind::Produce, q, t, 3).unwrap();
        let net = b.build();
        let g = net.explore(100).unwrap();
        assert_eq!(g.bound(), 6, "two firings of weight-3 production");
        assert!(!g.is_safe());
        assert_eq!(g.engine(), Engine::Reference, "weighted arcs");
    }

    #[test]
    fn trace_to_finds_shortest_path() {
        let mut b = NetBuilder::new();
        let p0 = b.place_with_tokens("p0", 1).unwrap();
        let p1 = b.place("p1").unwrap();
        let p2 = b.place("p2").unwrap();
        let t0 = b.transition("t0").unwrap();
        let t1 = b.transition("t1").unwrap();
        b.arc_pt(p0, t0).unwrap();
        b.arc_tp(t0, p1).unwrap();
        b.arc_pt(p1, t1).unwrap();
        b.arc_tp(t1, p2).unwrap();
        let net = b.build();
        let g = net.explore(10).unwrap();
        let dead = g.deadlocks()[0];
        assert_eq!(g.trace_to(dead), vec![t0, t1]);
        assert_eq!(g.trace_to(StateId::INITIAL), vec![]);
    }

    #[test]
    fn explore_from_alternative_marking() {
        let net = two_loops();
        let m = Marking::new(vec![0, 1, 0, 1]);
        let g = net.explore_from(m, 100).unwrap();
        assert_eq!(g.state_count(), 4);
    }

    #[test]
    fn exploration_is_deterministic() {
        let net = two_loops();
        let g1 = net.explore(100).unwrap();
        let g2 = net.explore(100).unwrap();
        for s in g1.state_ids() {
            assert_eq!(g1.marking(s), g2.marking(s));
            assert_eq!(g1.engine(), Engine::Kernel);
            assert_eq!(g1.successors(s), g2.successors(s));
        }
    }
}
