use std::fmt;

use a4a_petri::{Engine, Halt, Kernel, Layout, Marking, RowSet, TransitionId};
use a4a_rt::FxHashMap;

use crate::{Edge, Label, SignalId, Stg, StgError};

/// Index of a state within a [`StateGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SgStateId(pub(crate) u32);

impl SgStateId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The initial state of every state graph.
    pub const INITIAL: SgStateId = SgStateId(0);
}

impl fmt::Display for SgStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The binary-encoded state graph of an STG.
///
/// Each state couples a Petri-net marking with the binary code of all
/// signals (bit `i` = value of signal `i`). Construction fails on the
/// first consistency violation, so holding a `StateGraph` is proof that
/// the STG is *consistent*.
///
/// # Examples
///
/// ```
/// use a4a_stg::StgBuilder;
///
/// let mut b = StgBuilder::new("toggle");
/// let a = b.output("a", false);
/// let up = b.rise(a);
/// let down = b.fall(a);
/// b.connect_marked(down, up);
/// b.connect(up, down);
/// let stg = b.build();
/// let sg = stg.state_graph(100)?;
/// assert_eq!(sg.state_count(), 2);
/// assert_eq!(sg.code(a4a_stg::SgStateId::INITIAL), 0);
/// # Ok::<(), a4a_stg::StgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StateGraph {
    /// State `s` is the row `rows[s * width..][..width]`: its marking in
    /// `layout`, then its signal code.
    rows: Vec<u64>,
    width: usize,
    layout: Layout,
    /// Every edge (fired transition, successor), grouped by source state
    /// in id order.
    edges: Vec<(TransitionId, SgStateId)>,
    /// The edges of state `s` are `edges[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    /// For each state, a (transition, predecessor) pair on a shortest path
    /// from the initial state; `None` for the initial state.
    parents: Vec<Option<(TransitionId, SgStateId)>>,
}

impl StateGraph {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.parents.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The marking of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn marking(&self, state: SgStateId) -> Marking {
        self.layout
            .decode(&self.rows[state.index() * self.width..][..self.width - 1])
    }

    /// The engine that built this graph: [`Engine::Kernel`] unless the
    /// net has a weighted arc or turned out not to be safe, or the
    /// reference engine was asked for ([`Stg::state_graph_ref`]).
    pub fn engine(&self) -> Engine {
        self.layout.engine()
    }

    /// The binary signal code of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn code(&self, state: SgStateId) -> u64 {
        self.rows[state.index() * self.width + self.width - 1]
    }

    /// The value of `signal` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn value(&self, state: SgStateId, signal: SignalId) -> bool {
        self.code(state) & signal.mask() != 0
    }

    /// Outgoing edges of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn successors(&self, state: SgStateId) -> &[(TransitionId, SgStateId)] {
        &self.edges[self.offsets[state.index()]..self.offsets[state.index() + 1]]
    }

    /// Iterates over all states in discovery order.
    pub fn state_ids(&self) -> impl Iterator<Item = SgStateId> {
        (0..self.state_count() as u32).map(SgStateId)
    }

    /// A shortest firing trace (transition ids) from the initial state to
    /// `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn trace_to(&self, state: SgStateId) -> Vec<TransitionId> {
        let mut trace = Vec::new();
        let mut cur = state;
        while let Some((t, prev)) = self.parents[cur.index()] {
            trace.push(t);
            cur = prev;
        }
        trace.reverse();
        trace
    }

    /// Signal edges enabled in `state` (via any enabled transition), with
    /// the transitions realising them collapsed away. Dummy transitions do
    /// not contribute.
    pub fn enabled_edges(&self, stg: &Stg, state: SgStateId) -> Vec<Edge> {
        let mut edges: Vec<Edge> = Vec::new();
        for &(t, _) in self.successors(state) {
            if let Label::Edge(e) = stg.label(t) {
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
        }
        edges
    }

    /// Returns `true` when `signal` is *excited* in `state`: an edge of
    /// the signal is enabled, so its next value differs from its current
    /// value.
    ///
    /// For states where a dummy transition is enabled this considers only
    /// directly enabled edges (the controller STGs in this repository keep
    /// dummies out of excitation regions).
    pub fn is_excited(&self, stg: &Stg, state: SgStateId, signal: SignalId) -> bool {
        self.enabled_edges(stg, state)
            .iter()
            .any(|e| e.signal == signal)
    }

    /// The "next value" of `signal` in `state`: its current value, flipped
    /// if the signal is excited.
    pub fn next_value(&self, stg: &Stg, state: SgStateId, signal: SignalId) -> bool {
        let cur = self.value(state, signal);
        if self.is_excited(stg, state, signal) {
            !cur
        } else {
            cur
        }
    }

    /// Replays a firing trace given as transition names (e.g. from a
    /// verification report) and returns the state reached — the
    /// Workcraft-style interactive trace debugger in API form.
    ///
    /// # Errors
    ///
    /// Returns the index of the first step that is not enabled (or names
    /// an unknown transition) together with a description.
    pub fn replay(&self, stg: &Stg, trace: &[&str]) -> Result<SgStateId, (usize, String)> {
        let mut state = SgStateId::INITIAL;
        for (i, name) in trace.iter().enumerate() {
            let t = stg
                .net()
                .transition_by_name(name)
                .ok_or_else(|| (i, format!("unknown transition {name:?}")))?;
            let next = self
                .successors(state)
                .iter()
                .find(|&&(tt, _)| tt == t)
                .map(|&(_, s)| s)
                .ok_or_else(|| {
                    (
                        i,
                        format!(
                            "{name} not enabled in {state} (enabled: {})",
                            self.successors(state)
                                .iter()
                                .map(|&(tt, _)| stg.transition_name(tt))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                })?;
            state = next;
        }
        Ok(state)
    }

    /// Groups states by binary code. Per-code state lists are in
    /// discovery order. The USC/CSC checks and the synthesiser group
    /// states themselves; only tests call this today.
    pub fn states_by_code(&self) -> FxHashMap<u64, Vec<SgStateId>> {
        let mut map: FxHashMap<u64, Vec<SgStateId>> = FxHashMap::default();
        for s in self.state_ids() {
            map.entry(self.code(s)).or_default().push(s);
        }
        map
    }
}

impl Stg {
    /// Builds the binary-encoded state graph breadth-first from the
    /// initial marking, on the safe-net kernel when the net allows it
    /// (see [`a4a_petri::PetriNet::explore_with`];
    /// [`StateGraph::engine`] tells which engine ran).
    ///
    /// States are numbered in breadth-first discovery order: parents in
    /// id order, each parent's successors in transition-id order. Errors
    /// trip at the first offending firing in that order, so the reported
    /// transition and trace are deterministic.
    ///
    /// # Errors
    ///
    /// * [`StgError::Inconsistent`] if any reachable firing toggles a
    ///   signal that already holds the edge's target value;
    /// * [`StgError::StateLimit`] if more than `max_states` states are
    ///   reachable;
    /// * [`StgError::LimitOverflow`] if `max_states` exceeds the 32-bit
    ///   id space;
    /// * [`StgError::TokenOverflow`] if a place's token counter
    ///   overflows.
    pub fn state_graph(&self, max_states: usize) -> Result<StateGraph, StgError> {
        let initial = self.net.initial_marking();
        self.net.explore_with(&initial, |kernel| {
            self.state_graph_on(kernel, &initial, max_states)
        })
    }

    /// [`Stg::state_graph`] on the reference engine (one token counter
    /// per place) — the engine the kernel-versus-reference differential
    /// suite compares against. Every observable (state numbering, edge
    /// order, error trip points) is identical to the kernel's.
    ///
    /// # Errors
    ///
    /// As for [`Stg::state_graph`].
    pub fn state_graph_ref(&self, max_states: usize) -> Result<StateGraph, StgError> {
        let initial = self.net.initial_marking();
        self.net
            .explore_ref_with(|kernel| self.state_graph_on(kernel, &initial, max_states))
    }

    /// The breadth-first search behind both entry points. A state is
    /// the row `[marking words…, code]`.
    fn state_graph_on(
        &self,
        kernel: Kernel<'_>,
        initial: &Marking,
        max_states: usize,
    ) -> Result<StateGraph, Halt<StgError>> {
        if max_states > u32::MAX as usize {
            return Err(Halt::Error(StgError::LimitOverflow { limit: max_states }));
        }
        let layout = kernel.layout();
        let width = layout.words() + 1;
        let mut rows = RowSet::new(width);
        let mut row = Vec::with_capacity(width);
        layout.encode(initial, &mut row);
        row.push(self.initial_code());
        rows.intern(&row, usize::MAX);
        let mut edges: Vec<(TransitionId, SgStateId)> = Vec::new();
        let mut offsets = vec![0];
        let mut parents: Vec<Option<(TransitionId, SgStateId)>> = vec![None];

        // The arena doubles as the BFS queue: ids are assigned in
        // discovery order, so visiting them in id order is breadth-first.
        let mut enabled = Vec::new();
        let mut next = row.clone();
        let mut current = 0usize;
        while current < rows.len() {
            row.copy_from_slice(rows.row(current));
            let code = row[width - 1];
            kernel.enabled_into(&row, &mut enabled);
            for &t in &enabled {
                next[width - 1] = match self.labels[t.index()] {
                    Label::Dummy => code,
                    Label::Edge(e) => {
                        if (code & e.signal.mask() != 0) == e.polarity.target_value() {
                            // Fires against the signal's current value.
                            let id = SgStateId(current as u32);
                            let mut trace = self.trace_names(&parents, id);
                            trace.push(self.transition_name(t));
                            return Err(Halt::Error(StgError::Inconsistent {
                                signal: self.signal(e.signal).name.clone(),
                                transition: self.transition_name(t),
                                trace,
                            }));
                        }
                        code ^ e.signal.mask()
                    }
                };
                kernel
                    .fire_into(t, &row, &mut next)
                    .map_err(|h| h.map(|e| StgError::token_overflow(&self.net, e)))?;
                let next_id = match rows.intern(&next, max_states) {
                    Some((id, fresh)) => {
                        if fresh {
                            parents.push(Some((t, SgStateId(current as u32))));
                        }
                        SgStateId(id)
                    }
                    None => return Err(Halt::Error(StgError::StateLimit { limit: max_states })),
                };
                edges.push((t, next_id));
            }
            offsets.push(edges.len());
            current += 1;
        }
        Ok(StateGraph {
            rows: rows.into_words(),
            width,
            layout,
            edges,
            offsets,
            parents,
        })
    }

    fn trace_names(
        &self,
        parents: &[Option<(TransitionId, SgStateId)>],
        state: SgStateId,
    ) -> Vec<String> {
        let mut trace = Vec::new();
        let mut cur = state;
        while let Some((t, prev)) = parents[cur.index()] {
            trace.push(self.transition_name(t));
            cur = prev;
        }
        trace.reverse();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StgBuilder;

    fn handshake() -> Stg {
        let mut b = StgBuilder::new("hs");
        let req = b.input("req", false);
        let ack = b.output("ack", false);
        let rp = b.rise(req);
        let ap = b.rise(ack);
        let rm = b.fall(req);
        let am = b.fall(ack);
        b.connect_marked(am, rp);
        b.connect(rp, ap);
        b.connect(ap, rm);
        b.connect(rm, am);
        b.build()
    }

    #[test]
    fn handshake_state_graph() {
        let stg = handshake();
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 4);
        assert_eq!(sg.edge_count(), 4);
        // Codes cycle 00 -> 01(req) -> 11 -> 10 -> 00.
        let codes: Vec<u64> = sg.state_ids().map(|s| sg.code(s)).collect();
        assert_eq!(codes, vec![0b00, 0b01, 0b11, 0b10]);
        assert_eq!(sg.engine(), Engine::Kernel);
        assert_eq!(
            stg.state_graph_ref(100).unwrap().engine(),
            Engine::Reference
        );
    }

    #[test]
    fn excitation_and_next_value() {
        let stg = handshake();
        let req = stg.signal_by_name("req").unwrap();
        let ack = stg.signal_by_name("ack").unwrap();
        let sg = stg.state_graph(100).unwrap();
        let s0 = SgStateId::INITIAL;
        assert!(sg.is_excited(&stg, s0, req));
        assert!(!sg.is_excited(&stg, s0, ack));
        assert!(sg.next_value(&stg, s0, req));
        assert!(!sg.next_value(&stg, s0, ack));
    }

    #[test]
    fn inconsistent_stg_rejected() {
        // Two consecutive rises of the same signal.
        let mut b = StgBuilder::new("bad");
        let a = b.input("a", false);
        let t1 = b.rise(a);
        let t2 = b.rise(a);
        b.connect_marked(t2, t1);
        b.connect(t1, t2);
        let stg = b.build();
        let err = stg.state_graph(100).unwrap_err();
        match err {
            StgError::Inconsistent {
                signal,
                transition,
                trace,
            } => {
                assert_eq!(signal, "a");
                assert_eq!(transition, "a+/2");
                assert_eq!(trace, vec!["a+".to_string(), "a+/2".to_string()]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn initially_wrong_polarity_rejected() {
        let mut b = StgBuilder::new("bad2");
        let a = b.input("a", true); // already 1
        let t1 = b.rise(a); // rising edge against value 1
        let t2 = b.fall(a);
        b.connect_marked(t2, t1);
        b.connect(t1, t2);
        let stg = b.build();
        // Initially only t1 can fire but a=1.
        // t2 requires a token from t1 so the first firing is the violation...
        // Actually connect_marked(t2->t1) marks the place before t1.
        let err = stg.state_graph(100).unwrap_err();
        assert!(matches!(err, StgError::Inconsistent { .. }));
    }

    #[test]
    fn state_limit_respected() {
        let stg = handshake();
        let err = stg.state_graph(2).unwrap_err();
        assert_eq!(err, StgError::StateLimit { limit: 2 });
    }

    #[test]
    fn trace_to_reconstructs_path() {
        let stg = handshake();
        let sg = stg.state_graph(100).unwrap();
        let last = SgStateId(3);
        let names: Vec<String> = sg
            .trace_to(last)
            .into_iter()
            .map(|t| stg.transition_name(t))
            .collect();
        assert_eq!(names, vec!["req+", "ack+", "req-"]);
    }

    #[test]
    fn dummy_preserves_code() {
        let mut b = StgBuilder::new("dummy");
        let a = b.output("a", false);
        let up = b.rise(a);
        let d = b.dummy();
        let down = b.fall(a);
        b.connect_marked(down, up);
        b.connect(up, d);
        b.connect(d, down);
        let stg = b.build();
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.state_count(), 3);
        // State after a+ and state after dummy share the code 1.
        let by_code = sg.states_by_code();
        assert_eq!(by_code[&1].len(), 2);
    }

    #[test]
    fn replay_follows_traces() {
        let stg = handshake();
        let sg = stg.state_graph(100).unwrap();
        let s = sg.replay(&stg, &["req+", "ack+"]).unwrap();
        assert_eq!(sg.code(s), 0b11);
        // Replaying a reported trace lands where trace_to points.
        let target = SgStateId(3);
        let names: Vec<String> = sg
            .trace_to(target)
            .into_iter()
            .map(|t| stg.transition_name(t))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(sg.replay(&stg, &refs).unwrap(), target);
        // Errors carry the failing step.
        let err = sg.replay(&stg, &["ack+"]).unwrap_err();
        assert_eq!(err.0, 0);
        assert!(err.1.contains("not enabled"));
        let err = sg.replay(&stg, &["zzz"]).unwrap_err();
        assert!(err.1.contains("unknown"));
    }

    #[test]
    fn states_by_code_groups() {
        let stg = handshake();
        let sg = stg.state_graph(100).unwrap();
        let by_code = sg.states_by_code();
        assert_eq!(by_code.len(), 4, "all codes distinct in a handshake");
    }
}
