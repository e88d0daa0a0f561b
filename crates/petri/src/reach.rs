use std::error::Error;
use std::fmt;

use crate::{
    Enabled, Engine, Halt, Kernel, Layout, Marking, PetriNet, RowSet, TokenOverflow, TransitionId,
};

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
    fn token_overflow(net: &PetriNet, e: TokenOverflow) -> ExploreError {
        ExploreError::TokenOverflow {
            place: net.place(e.place).name.clone(),
            transition: net.transition(e.transition).name.clone(),
        }
    }
}

/// The explicit reachability graph of a [`PetriNet`].
///
/// States are markings, numbered in breadth-first discovery order starting
/// from the initial marking ([`StateId::INITIAL`]). Edges are transition
/// firings.
///
/// # Examples
///
/// ```
/// use a4a_petri::NetBuilder;
///
/// let mut b = NetBuilder::new();
/// let p = b.place_with_tokens("p", 1);
/// let q = b.place("q");
/// let t = b.transition("t");
/// b.arc_pt(p, t);
/// b.arc_tp(t, q);
/// let net = b.build();
/// let reach = net.explore(100)?;
/// assert_eq!(reach.state_count(), 2);
/// assert_eq!(reach.deadlocks().len(), 1);
/// # Ok::<(), a4a_petri::ExploreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    /// The marking of state `s` is the row `rows[s * width..][..width]`
    /// in `layout`, with `width = layout.words()`.
    rows: Vec<u64>,
    layout: Layout,
    /// Every edge (fired transition, successor), grouped by source state
    /// in id order.
    edges: Vec<(TransitionId, StateId)>,
    /// The edges of state `s` are `edges[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
}

impl ReachabilityGraph {
    /// Number of distinct reachable markings.
    pub fn state_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (firings) in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The marking of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn marking(&self, state: StateId) -> Marking {
        self.layout.decode(self.row(state.index()))
    }

    fn row(&self, s: usize) -> &[u64] {
        assert!(s < self.state_count(), "unknown state s{s}");
        let width = self.layout.words();
        &self.rows[s * width..][..width]
    }

    /// The engine that built this graph: [`Engine::Kernel`] unless the
    /// net has a weighted arc or turned out not to be safe, or the
    /// reference engine was asked for.
    pub fn engine(&self) -> Engine {
        self.layout.engine()
    }

    /// Outgoing edges of `state` as (transition, successor) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn successors(&self, state: StateId) -> &[(TransitionId, StateId)] {
        &self.edges[self.offsets[state.index()]..self.offsets[state.index() + 1]]
    }

    /// Iterates over all state ids in discovery order.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_count() as u32).map(StateId)
    }

    /// States with no enabled transitions.
    pub fn deadlocks(&self) -> Vec<StateId> {
        self.state_ids()
            .filter(|&s| self.successors(s).is_empty())
            .collect()
    }

    /// Returns `true` when every reachable marking is 1-bounded.
    pub fn is_safe(&self) -> bool {
        self.bound() <= 1
    }

    /// The maximum token count observed in any place over all reachable
    /// markings (the net's bound).
    pub fn bound(&self) -> u32 {
        (0..self.state_count())
            .map(|s| self.layout.max_tokens(self.row(s)))
            .max()
            .unwrap_or(0)
    }

    /// Finds a shortest firing sequence from the initial state to `target`.
    ///
    /// Returns the transitions fired along the way; empty for the initial
    /// state itself. Useful for producing violation traces. Each call
    /// derives the breadth-first tree from all edges; for many traces,
    /// take [`ReachabilityGraph::bfs_tree`] once.
    ///
    /// # Panics
    ///
    /// Panics if `target` does not belong to this graph.
    pub fn trace_to(&self, target: StateId) -> Vec<TransitionId> {
        self.bfs_tree().trace_to(target.index())
    }

    /// The breadth-first tree of the search that built this graph, in
    /// one pass over its edges (see [`BfsTree`]).
    pub fn bfs_tree(&self) -> BfsTree {
        BfsTree::from_edges(&self.offsets, &self.edges, StateId::index)
    }
}

/// The breadth-first tree of a graph whose states are numbered in
/// discovery order — a [`ReachabilityGraph`] or an STG state graph —
/// derived from its edges, so no graph keeps a parent per state.
///
/// Every engine of this crate numbers a fresh state with the next unused
/// id while it fires a state's edges in order. So the first edge, in
/// edge order, that enters a state is the one that discovered it, and
/// its target is the next number not yet reached: one pass over the
/// edges finds every parent. Following parents back from a state gives a
/// shortest firing trace to it, the one the search itself took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    /// The parent of state `s ≥ 1` and the transition it fires into
    /// `s`: `parents[s - 1]`.
    parents: Vec<(u32, TransitionId)>,
}

impl BfsTree {
    /// Derives the tree from a graph's edges, grouped by source state:
    /// the edges of state `s` are `edges[offsets[s]..offsets[s + 1]]`,
    /// and `index` numbers a successor. `offsets` may stop short of the
    /// last states, as in a search that stopped midway; the tree then
    /// covers the states that the given edges discovered.
    pub fn from_edges<S: Copy>(
        offsets: &[usize],
        edges: &[(TransitionId, S)],
        index: impl Fn(S) -> usize,
    ) -> BfsTree {
        let mut parents = Vec::new();
        for (s, range) in offsets.windows(2).enumerate() {
            for &(t, succ) in &edges[range[0]..range[1]] {
                let succ = index(succ);
                debug_assert!(succ <= parents.len() + 1, "not numbered in BFS order");
                if succ == parents.len() + 1 {
                    parents.push((s as u32, t));
                }
            }
        }
        BfsTree { parents }
    }

    /// Number of states in the tree, the initial one included.
    pub fn state_count(&self) -> usize {
        self.parents.len() + 1
    }

    /// The transitions on the tree path from the initial state (state 0)
    /// to `state`: a shortest firing trace to it, empty for the initial
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not in the tree.
    pub fn trace_to(&self, state: usize) -> Vec<TransitionId> {
        assert!(
            state < self.state_count(),
            "state {state} not in the BFS tree"
        );
        let mut trace = Vec::new();
        let mut cur = state;
        while cur > 0 {
            let (prev, t) = self.parents[cur - 1];
            trace.push(t);
            cur = prev as usize;
        }
        trace.reverse();
        trace
    }
}

impl PetriNet {
    /// Explores the state space breadth-first from the initial marking,
    /// on the safe-net kernel when the net allows it (see
    /// [`PetriNet::explore_with`]; [`ReachabilityGraph::engine`] tells
    /// which engine ran).
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
        self.explore_with(&initial, |kernel| {
            self.explore_on(kernel, &initial, max_states)
        })
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
        self.explore_ref_with(|kernel| self.explore_on(kernel, &initial, max_states))
    }

    /// The breadth-first search behind both entry points.
    fn explore_on(
        &self,
        kernel: Kernel<'_>,
        initial: &Marking,
        max_states: usize,
    ) -> Result<ReachabilityGraph, Halt<ExploreError>> {
        if max_states > u32::MAX as usize {
            return Err(Halt::Error(ExploreError::LimitOverflow {
                limit: max_states,
            }));
        }
        let layout = kernel.layout();
        let mut rows = RowSet::new(layout.words());
        let mut row = Vec::new();
        layout.encode(initial, &mut row);
        rows.intern(&row, usize::MAX);
        let mut edges: Vec<(TransitionId, StateId)> = Vec::new();
        let mut offsets = vec![0];

        // The arena doubles as the BFS queue: ids are assigned in
        // discovery order, so visiting them in id order is breadth-first.
        let mut enabled = Enabled::default();
        let mut next = row.clone();
        let mut current = 0usize;
        while current < rows.len() {
            row.copy_from_slice(rows.row(current));
            kernel.enabled_into(&row, &mut enabled);
            for &t in enabled.iter() {
                kernel
                    .fire_into(t, &row, &mut next)
                    .map_err(|h| h.map(|e| ExploreError::token_overflow(self, e)))?;
                let (id, _) = rows
                    .intern(&next, max_states)
                    .ok_or(Halt::Error(ExploreError::StateLimit { limit: max_states }))?;
                edges.push((t, StateId(id)));
            }
            offsets.push(edges.len());
            current += 1;
        }
        Ok(ReachabilityGraph {
            rows: rows.into_words(),
            layout,
            edges,
            offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    /// Two independent loops: state space is the product (4 states).
    fn two_loops() -> PetriNet {
        let mut b = NetBuilder::new();
        let a0 = b.place_with_tokens("a0", 1);
        let a1 = b.place("a1");
        let b0 = b.place_with_tokens("b0", 1);
        let b1 = b.place("b1");
        for (name, src, dst) in [
            ("ta0", a0, a1),
            ("ta1", a1, a0),
            ("tb0", b0, b1),
            ("tb1", b1, b0),
        ] {
            let t = b.transition(name);
            b.arc_pt(src, t);
            b.arc_tp(t, dst);
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
        let p = b.place_with_tokens("p", 1);
        let q = b.place("q");
        let t = b.transition("t");
        b.arc_pt(p, t);
        b.arc_tp(t, q);
        let net = b.build();
        let g = net.explore(10).unwrap();
        assert_eq!(g.deadlocks(), vec![StateId(1)]);
    }

    #[test]
    fn unbounded_net_hits_limit() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1);
        let t = b.transition("t");
        b.arc_read(p, t);
        b.arc_tp(t, p); // produces without consuming: unbounded
        let net = b.build();
        let err = net.explore(16).unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { limit: 16 });
    }

    #[test]
    fn bound_reports_max_tokens() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 2);
        let q = b.place("q");
        let t = b.transition("t");
        b.arc_pt(p, t);
        b.arc_tp_weighted(t, q, 3);
        let net = b.build();
        let g = net.explore(100).unwrap();
        assert_eq!(g.bound(), 6, "two firings of weight-3 production");
        assert!(!g.is_safe());
        assert_eq!(g.engine(), Engine::Reference, "weighted arcs");
    }

    #[test]
    fn trace_to_finds_shortest_path() {
        let mut b = NetBuilder::new();
        let p0 = b.place_with_tokens("p0", 1);
        let p1 = b.place("p1");
        let p2 = b.place("p2");
        let t0 = b.transition("t0");
        let t1 = b.transition("t1");
        b.arc_pt(p0, t0);
        b.arc_tp(t0, p1);
        b.arc_pt(p1, t1);
        b.arc_tp(t1, p2);
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
