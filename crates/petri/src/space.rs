//! The one breadth-first search over net states and the graph store it
//! fills. A state is the row `[marking words…, tag]`; the caller's
//! [`Hook`] owns the tag: 0 in a reachability graph, the signal code in
//! an STG state graph, the toggle parity in the `.g` parser's search.

use crate::kernel::{Enabled, Halt, Kernel, Layout, RowSet};
use crate::{Engine, ExploreError, Marking, PetriNet, TransitionId};

/// The state numbers of one kind of state space: [`StateId`](crate::StateId)
/// in a reachability graph, `SgStateId` in an STG state graph.
pub trait StateIndex: Copy {
    /// The state numbered `index`.
    fn from_index(index: u32) -> Self;

    /// The state's number.
    fn index(self) -> usize;
}

/// What a search does with one firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<E> {
    /// Fire: the successor's row carries this tag.
    Next(u64),
    /// End the search before this firing and return what it found.
    Stop,
    /// Fail the search before this firing with the caller's error.
    Fail(E),
}

/// The caller's part of [`PetriNet::search`]: a [`Step`] for every
/// firing, in search order. Every `Clone` closure
/// `FnMut(u64, TransitionId) -> Step<E>` is a hook.
pub trait Hook: Clone {
    /// The error of [`Step::Fail`].
    type Error;

    /// The step for firing `t` from a state tagged `tag`.
    fn step(&mut self, tag: u64, t: TransitionId) -> Step<Self::Error>;
}

impl<E, F: FnMut(u64, TransitionId) -> Step<E> + Clone> Hook for F {
    type Error = E;

    fn step(&mut self, tag: u64, t: TransitionId) -> Step<E> {
        self(tag, t)
    }
}

/// How a search bounds its states, failing with
/// [`ExploreError::StateLimit`] (or [`ExploreError::LimitOverflow`] up
/// front for a bound past the 32-bit id space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// The firing that would find state `n + 1` fails.
    Firing(usize),
    /// The search fails before it expands a state while it knows more
    /// than `n`; one the hook stops within an expansion may return more.
    Expansion(usize),
}

/// Why a [`PetriNet::search`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError<E> {
    /// A state limit or a token counter overflow.
    Explore(ExploreError),
    /// The hook failed a firing.
    Hook {
        /// The hook's error.
        error: E,
        /// The BFS trace to the state the firing leaves, then the firing.
        trace: Vec<TransitionId>,
    },
}

impl From<SearchError<std::convert::Infallible>> for ExploreError {
    fn from(e: SearchError<std::convert::Infallible>) -> ExploreError {
        match e {
            SearchError::Explore(e) => e,
            SearchError::Hook { error, .. } => match error {},
        }
    }
}

/// The states a [`PetriNet::search`] found, each a marking and a tag,
/// numbered in breadth-first discovery order from the initial state
/// (number 0), and the firings between them: a
/// [`ReachabilityGraph`](crate::ReachabilityGraph), or the inside of
/// `a4a_stg`'s `StateGraph`.
#[derive(Debug, Clone)]
pub struct StateSpace<S> {
    /// State `s` is the row `rows[s * width..][..width]`: its marking in
    /// `layout`, then its tag.
    rows: Vec<u64>,
    width: usize,
    layout: Layout,
    /// Every edge (fired transition, successor); the edges of state `s`
    /// are `edges[offsets[s]..offsets[s + 1]]`.
    edges: Vec<(TransitionId, S)>,
    offsets: Vec<usize>,
}

impl<S: StateIndex> StateSpace<S> {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (firings).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn row(&self, state: S) -> &[u64] {
        let s = state.index();
        assert!(s < self.state_count(), "unknown state {s}");
        &self.rows[s * self.width..][..self.width]
    }

    /// The marking of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this state space.
    pub fn marking(&self, state: S) -> Marking {
        self.layout.decode(self.row(state))
    }

    /// The tag word of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this state space.
    pub fn tag(&self, state: S) -> u64 {
        self.rows[state.index() * self.width + self.width - 1]
    }

    /// The engine that built this state space: [`Engine::Kernel`] unless
    /// the net has a weighted arc, turned out not to be safe, or the
    /// reference engine was asked for.
    pub fn engine(&self) -> Engine {
        self.layout.engine()
    }

    /// Outgoing edges of `state` as (transition, successor) pairs, in
    /// transition-id order.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this state space.
    pub fn successors(&self, state: S) -> &[(TransitionId, S)] {
        &self.edges[self.offsets[state.index()]..self.offsets[state.index() + 1]]
    }

    /// Iterates over all states in discovery order.
    pub fn state_ids(&self) -> impl Iterator<Item = S> {
        (0..self.state_count() as u32).map(S::from_index)
    }

    /// States with no enabled transitions.
    pub fn deadlocks(&self) -> Vec<S> {
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
        self.state_ids()
            .map(|s| self.layout.max_tokens(self.row(s)))
            .max()
            .unwrap_or(0)
    }

    /// A shortest firing trace from the initial state to `state`, the one
    /// the search took. Each call derives the tree from all edges; for
    /// many traces, take [`StateSpace::bfs_tree`] once.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this state space.
    pub fn trace_to(&self, state: S) -> Vec<TransitionId> {
        self.bfs_tree().trace_to(state.index())
    }

    /// The breadth-first tree of the search, from one pass over the edges:
    /// `tree.trace_to(s.index())` is [`StateSpace::trace_to`] of `s`.
    pub fn bfs_tree(&self) -> BfsTree {
        BfsTree::from_edges(&self.offsets, &self.edges)
    }
}

/// The breadth-first tree of a [`StateSpace`], derived from its edges,
/// so no state space keeps a parent per state. The search numbers a
/// fresh state with the next unused id while it fires a state's edges in
/// order, so the first edge that enters a state discovered it, and its
/// target is the next number not yet reached: one pass over the edges
/// finds every parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    /// The parent of state `s ≥ 1` and the transition it fires into
    /// `s`: `parents[s - 1]`.
    parents: Vec<(u32, TransitionId)>,
}

impl BfsTree {
    /// The tree of the edges grouped by `offsets`, which may stop short
    /// of the last states (a search in progress): the tree then covers
    /// the states those edges found.
    fn from_edges<S: StateIndex>(offsets: &[usize], edges: &[(TransitionId, S)]) -> BfsTree {
        let mut parents = Vec::new();
        for (s, range) in offsets.windows(2).enumerate() {
            for &(t, succ) in &edges[range[0]..range[1]] {
                let succ = succ.index();
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

    /// The transitions on the tree path from state 0 to `state`: a
    /// shortest firing trace to it.
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
    /// Searches breadth-first from `initial`, tagged `tag`: on the
    /// safe-net kernel when the net has no weighted arc and `initial` is
    /// safe, else on the reference engine. If a kernel firing would put
    /// a second token on a place, the search reruns on the reference
    /// engine from the start ([`Engine::Restarted`]) with `hook` as it
    /// was handed in, so no hook state carries over.
    ///
    /// States are numbered in discovery order: parents in id order, each
    /// parent's firings in transition-id order. Each firing asks the hook,
    /// fires, then interns the successor, so every error trips at the
    /// first offending firing in that order. A stopped search keeps every
    /// state found so far, with the edges fired before the stop.
    ///
    /// # Errors
    ///
    /// [`SearchError::Hook`] when the hook fails a firing, else
    /// [`SearchError::Explore`]: a state limit or a token counter
    /// overflow.
    pub fn search<S: StateIndex, H: Hook>(
        &self,
        initial: &Marking,
        tag: u64,
        limit: Limit,
        hook: &mut H,
    ) -> Result<StateSpace<S>, SearchError<H::Error>> {
        let fresh = hook.clone();
        self.explore_with(initial, |kernel| {
            *hook = fresh.clone();
            self.search_on(kernel, initial, tag, limit, hook)
        })
    }

    /// [`PetriNet::search`] on the reference engine only, which the
    /// kernel-versus-reference differential suites compare against.
    ///
    /// # Errors
    ///
    /// As for [`PetriNet::search`].
    pub fn search_ref<S: StateIndex, H: Hook>(
        &self,
        initial: &Marking,
        tag: u64,
        limit: Limit,
        hook: &mut H,
    ) -> Result<StateSpace<S>, SearchError<H::Error>> {
        self.explore_ref_with(|kernel| self.search_on(kernel, initial, tag, limit, hook))
    }

    /// The breadth-first search behind both entry points.
    fn search_on<S: StateIndex, H: Hook>(
        &self,
        kernel: Kernel<'_>,
        initial: &Marking,
        tag: u64,
        limit: Limit,
        hook: &mut H,
    ) -> Result<StateSpace<S>, Halt<SearchError<H::Error>>> {
        let (firing, expansion) = match limit {
            Limit::Firing(n) => (n, usize::MAX),
            Limit::Expansion(n) => (usize::MAX, n),
        };
        let state_limit =
            |limit| Halt::Error(SearchError::Explore(ExploreError::StateLimit { limit }));
        let bound = firing.min(expansion);
        if bound > u32::MAX as usize {
            let overflow = ExploreError::LimitOverflow { limit: bound };
            return Err(Halt::Error(SearchError::Explore(overflow)));
        }
        let layout = kernel.layout();
        let width = layout.words() + 1;
        let mut rows = RowSet::new(width);
        let mut row = Vec::with_capacity(width);
        layout.encode(initial, &mut row);
        row.push(tag);
        rows.intern(&row, usize::MAX);
        let mut edges: Vec<(TransitionId, S)> = Vec::new();
        let mut offsets = vec![0];

        // The arena doubles as the BFS queue: ids are assigned in
        // discovery order, so visiting them in id order is breadth-first.
        let mut enabled = Enabled::default();
        let mut next = row.clone();
        let mut current = 0usize;
        'search: while current < rows.len() {
            if rows.len() > expansion {
                return Err(state_limit(expansion));
            }
            row.copy_from_slice(rows.row(current));
            kernel.enabled_into(&row, &mut enabled);
            for &t in enabled.iter() {
                next[width - 1] = match hook.step(row[width - 1], t) {
                    Step::Next(tag) => tag,
                    Step::Stop => break 'search,
                    Step::Fail(error) => {
                        // The finished states' edges discovered
                        // `current`, so they hold its trace.
                        let mut trace = BfsTree::from_edges(&offsets, &edges).trace_to(current);
                        trace.push(t);
                        return Err(Halt::Error(SearchError::Hook { error, trace }));
                    }
                };
                kernel.fire_into(t, &row, &mut next).map_err(|h| {
                    h.map(|e| SearchError::Explore(ExploreError::token_overflow(self, e)))
                })?;
                let (id, _) = rows
                    .intern(&next, firing)
                    .ok_or_else(|| state_limit(firing))?;
                edges.push((t, S::from_index(id)));
            }
            offsets.push(edges.len());
            current += 1;
        }
        // A stopped search ends the state it was expanding, and every
        // later one, at the edges found so far.
        offsets.resize(rows.len() + 1, edges.len());
        Ok(StateSpace {
            rows: rows.into_words(),
            width,
            layout,
            edges,
            offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use super::*;
    use crate::{NetBuilder, StateId};

    /// `p` feeds three transitions into three places: the initial state
    /// alone discovers three more.
    fn fan() -> PetriNet {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        for i in 0..3 {
            let q = b.place(format!("q{i}")).unwrap();
            let t = b.transition(format!("t{i}")).unwrap();
            b.arc_pt(p, t).unwrap();
            b.arc_tp(t, q).unwrap();
        }
        b.build()
    }

    fn search(net: &PetriNet, limit: Limit, stop_at: usize) -> Result<usize, ExploreError> {
        let mut calls = 0;
        let mut hook = move |_, _| {
            calls += 1;
            if calls == stop_at {
                Step::<Infallible>::Stop
            } else {
                Step::Next(0)
            }
        };
        let space: StateSpace<StateId> = net.search(&net.initial_marking(), 0, limit, &mut hook)?;
        Ok(space.state_count())
    }

    #[test]
    fn limits_trip_at_a_firing_or_before_an_expansion() {
        let net = fan();
        let limit = |limit| Err(ExploreError::StateLimit { limit });
        assert_eq!(search(&net, Limit::Firing(3), 0), limit(3));
        assert_eq!(search(&net, Limit::Firing(4), 0), Ok(4));
        // Four states are known before the second expansion.
        assert_eq!(search(&net, Limit::Expansion(3), 0), limit(3));
        assert_eq!(search(&net, Limit::Expansion(4), 0), Ok(4));
        // A search stopped within the first expansion never checks.
        assert_eq!(search(&net, Limit::Expansion(1), 3), Ok(3));
        assert_eq!(search(&net, Limit::Firing(1), 3), limit(1));
    }

    #[test]
    fn a_stopped_search_keeps_the_states_it_found() {
        let net = fan();
        let mut stop_second = |_, t: TransitionId| match t.index() {
            1 => Step::<Infallible>::Stop,
            _ => Step::Next(0),
        };
        let space: StateSpace<StateId> = net
            .search(
                &net.initial_marking(),
                0,
                Limit::Firing(10),
                &mut stop_second,
            )
            .unwrap();
        assert_eq!(space.state_count(), 2);
        assert_eq!(
            space.successors(StateId::INITIAL),
            &[(TransitionId(0), StateId(1))]
        );
        assert!(space.successors(StateId(1)).is_empty());
    }

    /// A hook that tags every successor with its own call count: if the
    /// restarted run kept the count of the abandoned kernel run, its tags
    /// would differ from the reference run's.
    #[test]
    fn a_restarted_search_starts_with_a_fresh_hook() {
        // The token of `a` moves onto `b`, which already holds one, at
        // the second firing.
        let mut b = NetBuilder::new();
        let a0 = b.place_with_tokens("a0", 1).unwrap();
        let a1 = b.place("a1").unwrap();
        let full = b.place_with_tokens("full", 1).unwrap();
        for (name, from, to) in [("t0", a0, a1), ("t1", a1, full)] {
            let t = b.transition(name).unwrap();
            b.arc_pt(from, t).unwrap();
            b.arc_tp(t, to).unwrap();
        }
        let net = b.build();
        let mut calls = 0;
        let count = move |_, _| {
            calls += 1;
            Step::<Infallible>::Next(calls)
        };
        let initial = net.initial_marking();
        let (mut auto, mut reference) = (count, count);
        let restarted: StateSpace<StateId> = net
            .search(&initial, 0, Limit::Firing(10), &mut auto)
            .unwrap();
        let reference: StateSpace<StateId> = net
            .search_ref(&initial, 0, Limit::Firing(10), &mut reference)
            .unwrap();
        assert_eq!(restarted.engine(), Engine::Restarted);
        assert_eq!(restarted.state_count(), 3);
        let tags = |space: &StateSpace<StateId>| -> Vec<u64> {
            space.state_ids().map(|s| space.tag(s)).collect()
        };
        assert_eq!(tags(&restarted), vec![0, 1, 2]);
        assert_eq!(tags(&restarted), tags(&reference));
        assert_eq!(restarted.bound(), 2);
    }
}
