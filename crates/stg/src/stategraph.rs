use std::fmt;
use std::ops::Deref;

use a4a_petri::{Limit, SearchError, StateIndex, StateSpace, Step, TransitionId};

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

impl StateIndex for SgStateId {
    fn from_index(index: u32) -> SgStateId {
        SgStateId(index)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SgStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The binary-encoded state graph of an STG: the [`StateSpace`] of its
/// net, each state tagged with the binary code of all signals (bit `i`
/// = value of signal `i`). It derefs to that state space, which serves
/// `state_count`, `successors`, `marking`, `trace_to` and the other
/// graph accessors. Construction fails on the first consistency
/// violation, so holding a `StateGraph` is proof that the STG is
/// *consistent*.
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
pub struct StateGraph(StateSpace<SgStateId>);

impl Deref for StateGraph {
    type Target = StateSpace<SgStateId>;

    fn deref(&self) -> &StateSpace<SgStateId> {
        &self.0
    }
}

impl StateGraph {
    /// The binary signal code of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn code(&self, state: SgStateId) -> u64 {
        self.tag(state)
    }

    /// The value of `signal` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this graph.
    pub fn value(&self, state: SgStateId, signal: SignalId) -> bool {
        self.code(state) & signal.mask() != 0
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
}

impl Stg {
    /// Builds the binary-encoded state graph breadth-first from the
    /// initial marking, through [`a4a_petri::PetriNet::search`]: on the
    /// safe-net kernel when the net allows it ([`StateSpace::engine`]
    /// tells which engine ran), each state's tag word its signal code.
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
        self.state_graph_on(max_states, false)
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
        self.state_graph_on(max_states, true)
    }

    /// The search behind both entry points: a firing passes the code on
    /// (dummies) or flips its signal's bit, and fails when the signal
    /// already holds the edge's target value.
    fn state_graph_on(&self, max_states: usize, reference: bool) -> Result<StateGraph, StgError> {
        let labels = &self.labels;
        let mut hook = |code: u64, t: TransitionId| match labels[t.index()] {
            Label::Dummy => Step::Next(code),
            Label::Edge(e) if (code & e.signal.mask() != 0) == e.polarity.target_value() => {
                Step::Fail(e.signal)
            }
            Label::Edge(e) => Step::Next(code ^ e.signal.mask()),
        };
        let (initial, limit) = (self.net.initial_marking(), Limit::Firing(max_states));
        let space = if reference {
            self.net
                .search_ref(&initial, self.initial_code(), limit, &mut hook)
        } else {
            self.net
                .search(&initial, self.initial_code(), limit, &mut hook)
        };
        space.map(StateGraph).map_err(|e| match e {
            SearchError::Explore(e) => e.into(),
            SearchError::Hook { error, trace } => StgError::Inconsistent {
                signal: self.signal(error).name.clone(),
                transition: self.transition_name(*trace.last().expect("the failed firing")),
                trace: trace.iter().map(|&t| self.transition_name(t)).collect(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StgBuilder;
    use a4a_petri::Engine;

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
        // State after a+ and state after dummy share the code 1; only
        // the second excites a-, so they are one CSC pair.
        let codes: Vec<u64> = sg.state_ids().map(|s| sg.code(s)).collect();
        assert_eq!(codes, vec![0, 1, 1]);
        let report = stg.verify(&sg);
        assert_eq!((report.usc_count, report.csc_count), (0, 1));
        let pair = &report.coding[0];
        assert_eq!(
            (pair.first, pair.second, pair.code),
            (SgStateId(1), SgStateId(2), 1)
        );
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
    fn handshake_codes_are_unique() {
        let stg = handshake();
        let sg = stg.state_graph(100).unwrap();
        let mut codes: Vec<u64> = sg.state_ids().map(|s| sg.code(s)).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4, "all codes distinct in a handshake");
        assert_eq!(stg.verify(&sg).usc_count, 0);
    }
}
