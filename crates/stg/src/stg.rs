use std::collections::HashMap;
use std::fmt;

use a4a_petri::{NetBuilder, NetError, PetriNet, PlaceId, TransitionId};

use crate::{Edge, Polarity, Signal, SignalId, SignalKind};

/// Label of an STG transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// A signal edge (`s+` / `s-`).
    Edge(Edge),
    /// A dummy (unobservable) event used for structuring.
    Dummy,
}

impl Label {
    /// The edge, if this label is one.
    pub fn edge(self) -> Option<Edge> {
        match self {
            Label::Edge(e) => Some(e),
            Label::Dummy => None,
        }
    }
}

/// A Signal Transition Graph: a Petri net with signal-edge labels.
///
/// Construct with [`StgBuilder`] or parse from the `.g` format with
/// [`Stg::parse_g`]. The underlying net is exposed read-only through
/// [`Stg::net`].
#[derive(Debug, Clone)]
pub struct Stg {
    pub(crate) name: String,
    pub(crate) net: PetriNet,
    pub(crate) signals: Vec<Signal>,
    /// One label per transition, indexed by [`TransitionId::index`].
    pub(crate) labels: Vec<Label>,
}

impl Stg {
    /// Returns a builder.
    pub fn builder(name: impl Into<String>) -> StgBuilder {
        StgBuilder::new(name)
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying Petri net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// All declared signals in id order.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Metadata of one signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this STG.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Finds a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// Iterates over all signal ids.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signals.len() as u32).map(SignalId)
    }

    /// Signal ids of a given kind.
    pub fn signals_of_kind(&self, kind: SignalKind) -> Vec<SignalId> {
        self.signal_ids()
            .filter(|&s| self.signal(s).kind == kind)
            .collect()
    }

    /// The label of transition `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this STG.
    pub fn label(&self, t: TransitionId) -> Label {
        self.labels[t.index()]
    }

    /// All transitions labelled with an edge of `signal`.
    pub fn transitions_of(&self, signal: SignalId) -> Vec<TransitionId> {
        self.net
            .transition_ids()
            .filter(|&t| matches!(self.labels[t.index()], Label::Edge(e) if e.signal == signal))
            .collect()
    }

    /// The initial binary state code (bit `i` = initial value of signal
    /// `i`).
    pub fn initial_code(&self) -> u64 {
        let mut code = 0u64;
        for (i, s) in self.signals.iter().enumerate() {
            if s.initial {
                code |= 1u64 << i;
            }
        }
        code
    }

    /// Renders a transition name such as `uv+` or `dum7`.
    pub fn transition_name(&self, t: TransitionId) -> String {
        self.net.transition(t).name.clone()
    }

    /// Formats a state code as a string of `0`/`1` in signal order, e.g.
    /// `uv=1 gp=0`.
    pub fn format_code(&self, code: u64) -> String {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{}={}", s.name, (code >> i) & 1))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Returns a copy with a signal's kind changed (e.g. exposing an
    /// internal signal, or hiding an output when composing).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this STG.
    pub fn with_signal_kind(&self, id: SignalId, kind: SignalKind) -> Stg {
        let mut copy = self.clone();
        copy.signals[id.index()].kind = kind;
        copy
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stg {} ({} signals, {} places, {} transitions)",
            self.name,
            self.signals.len(),
            self.net.place_count(),
            self.net.transition_count()
        )
    }
}

/// Incremental builder for [`Stg`].
///
/// The builder wraps a [`NetBuilder`] and adds signal bookkeeping plus the
/// conveniences used throughout the controller specifications:
///
/// * [`StgBuilder::rise`] / [`StgBuilder::fall`] create labelled
///   transitions with conventional names (`sig+`, `sig+/2`, ...);
/// * [`StgBuilder::connect`] inserts an implicit place between two
///   transitions; [`StgBuilder::connect_marked`] additionally puts the
///   initial token there.
///
/// It is meant for hand-written specifications, so a place name given
/// twice or a repeated arc — a [`NetError`] of the wrapped builder — is
/// a bug in the spec and panics with the builder's message.
#[derive(Debug, Default)]
pub struct StgBuilder {
    name: String,
    net: NetBuilder,
    signals: Vec<Signal>,
    labels: Vec<Label>,
    /// Per-(signal, polarity) occurrence counter for name generation.
    occurrences: HashMap<(SignalId, Polarity), u32>,
    dummy_count: u32,
    implicit_place_count: u32,
}

impl StgBuilder {
    /// Creates a builder for a model called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        StgBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    fn add_signal(&mut self, name: impl Into<String>, kind: SignalKind, initial: bool) -> SignalId {
        let name = name.into();
        assert!(
            !self.signals.iter().any(|s| s.name == name),
            "duplicate signal name {name:?}"
        );
        assert!(self.signals.len() < 64, "at most 64 signals are supported");
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(Signal {
            name,
            kind,
            initial,
        });
        id
    }

    /// Declares an input signal with its initial value.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or more than 64 signals.
    pub fn input(&mut self, name: impl Into<String>, initial: bool) -> SignalId {
        self.add_signal(name, SignalKind::Input, initial)
    }

    /// Declares an output signal with its initial value.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or more than 64 signals.
    pub fn output(&mut self, name: impl Into<String>, initial: bool) -> SignalId {
        self.add_signal(name, SignalKind::Output, initial)
    }

    /// Declares an internal signal with its initial value.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or more than 64 signals.
    pub fn internal(&mut self, name: impl Into<String>, initial: bool) -> SignalId {
        self.add_signal(name, SignalKind::Internal, initial)
    }

    /// Adds a transition labelled with `edge`.
    ///
    /// Transition names follow the STG convention: the first occurrence of
    /// `sig+` is named `sig+`, later ones `sig+/2`, `sig+/3`, ...
    pub fn edge(&mut self, edge: Edge) -> TransitionId {
        assert!(
            edge.signal.index() < self.signals.len(),
            "unknown signal {}",
            edge.signal
        );
        let count = self
            .occurrences
            .entry((edge.signal, edge.polarity))
            .or_insert(0);
        *count += 1;
        let base = format!(
            "{}{}",
            self.signals[edge.signal.index()].name,
            edge.polarity.suffix()
        );
        let name = if *count == 1 {
            base
        } else {
            format!("{base}/{count}")
        };
        let t = built(self.net.transition(name));
        self.labels.push(Label::Edge(edge));
        t
    }

    /// Adds a rising-edge transition of `signal`.
    pub fn rise(&mut self, signal: SignalId) -> TransitionId {
        self.edge(Edge::rising(signal))
    }

    /// Adds a falling-edge transition of `signal`.
    pub fn fall(&mut self, signal: SignalId) -> TransitionId {
        self.edge(Edge::falling(signal))
    }

    /// Adds a dummy transition.
    pub fn dummy(&mut self) -> TransitionId {
        self.dummy_count += 1;
        let t = built(self.net.transition(format!("dum{}", self.dummy_count)));
        self.labels.push(Label::Dummy);
        t
    }

    /// Adds an explicit place with zero initial tokens.
    pub fn place(&mut self, name: impl Into<String>) -> PlaceId {
        built(self.net.place(name))
    }

    /// Adds an explicit place holding `tokens` initially.
    pub fn place_with_tokens(&mut self, name: impl Into<String>, tokens: u32) -> PlaceId {
        built(self.net.place_with_tokens(name, tokens))
    }

    /// Adds a place→transition arc.
    pub fn arc_pt(&mut self, p: PlaceId, t: TransitionId) {
        built(self.net.arc_pt(p, t));
    }

    /// Adds a transition→place arc.
    pub fn arc_tp(&mut self, t: TransitionId, p: PlaceId) {
        built(self.net.arc_tp(t, p));
    }

    /// Adds a read (test) arc.
    pub fn arc_read(&mut self, p: PlaceId, t: TransitionId) {
        built(self.net.arc_read(p, t));
    }

    /// Inserts an implicit place between `from` and `to`, so `to` becomes
    /// causally dependent on `from`. Returns the place.
    pub fn connect(&mut self, from: TransitionId, to: TransitionId) -> PlaceId {
        self.connect_with_tokens(from, to, 0)
    }

    /// Like [`StgBuilder::connect`] but the place carries the initial
    /// token, i.e. `to` is initially enabled (once its other predecessor
    /// places are marked too).
    pub fn connect_marked(&mut self, from: TransitionId, to: TransitionId) -> PlaceId {
        self.connect_with_tokens(from, to, 1)
    }

    fn connect_with_tokens(
        &mut self,
        from: TransitionId,
        to: TransitionId,
        tokens: u32,
    ) -> PlaceId {
        self.implicit_place_count += 1;
        let name = format!(
            "<{},{}>#{}",
            from.index(),
            to.index(),
            self.implicit_place_count
        );
        let p = self.place_with_tokens(name, tokens);
        self.arc_tp(from, p);
        self.arc_pt(p, to);
        p
    }

    /// Finalises the builder.
    pub fn build(self) -> Stg {
        Stg {
            name: self.name,
            net: self.net.build(),
            signals: self.signals,
            labels: self.labels,
        }
    }
}

/// The wrapped builder's result, its refusal turned into a panic.
fn built<T>(result: Result<T, NetError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_names_transitions_conventionally() {
        let mut b = StgBuilder::new("m");
        let a = b.input("a", false);
        let t1 = b.rise(a);
        let t2 = b.rise(a);
        let t3 = b.fall(a);
        let stg = b.build();
        assert_eq!(stg.transition_name(t1), "a+");
        assert_eq!(stg.transition_name(t2), "a+/2");
        assert_eq!(stg.transition_name(t3), "a-");
    }

    #[test]
    fn initial_code_packs_bits() {
        let mut b = StgBuilder::new("m");
        b.input("a", true);
        b.output("b", false);
        b.internal("c", true);
        let stg = b.build();
        assert_eq!(stg.initial_code(), 0b101);
        assert_eq!(stg.format_code(0b101), "a=1 b=0 c=1");
    }

    #[test]
    fn signals_of_kind() {
        let mut b = StgBuilder::new("m");
        let a = b.input("a", false);
        let o = b.output("o", false);
        let i = b.internal("i", false);
        let stg = b.build();
        assert_eq!(stg.signals_of_kind(SignalKind::Input), vec![a]);
        assert_eq!(stg.signals_of_kind(SignalKind::Output), vec![o]);
        assert_eq!(stg.signals_of_kind(SignalKind::Internal), vec![i]);
    }

    #[test]
    fn transitions_of_filters_by_signal() {
        let mut b = StgBuilder::new("m");
        let a = b.input("a", false);
        let o = b.output("o", false);
        let t1 = b.rise(a);
        let _t2 = b.rise(o);
        let t3 = b.fall(a);
        let stg = b.build();
        assert_eq!(stg.transitions_of(a), vec![t1, t3]);
    }

    #[test]
    fn connect_inserts_place() {
        let mut b = StgBuilder::new("m");
        let a = b.input("a", false);
        let t1 = b.rise(a);
        let t2 = b.fall(a);
        b.connect_marked(t2, t1);
        b.connect(t1, t2);
        let stg = b.build();
        assert_eq!(stg.net().place_count(), 2);
        let m0 = stg.net().initial_marking();
        assert!(stg.net().is_enabled(t1, &m0));
        assert!(!stg.net().is_enabled(t2, &m0));
    }

    #[test]
    fn dummy_labels() {
        let mut b = StgBuilder::new("m");
        let d = b.dummy();
        let stg = b.build();
        assert_eq!(stg.label(d), Label::Dummy);
        assert_eq!(stg.label(d).edge(), None);
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_signal_panics() {
        let mut b = StgBuilder::new("m");
        b.input("a", false);
        b.output("a", false);
    }

    #[test]
    fn with_signal_kind_changes_role() {
        let mut b = StgBuilder::new("m");
        let i = b.internal("x", false);
        let stg = b.build();
        let exposed = stg.with_signal_kind(i, SignalKind::Output);
        assert_eq!(exposed.signal(i).kind, SignalKind::Output);
        assert_eq!(
            stg.signal(i).kind,
            SignalKind::Internal,
            "original untouched"
        );
    }
}
