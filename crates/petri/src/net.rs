use std::fmt;
use std::sync::OnceLock;

use a4a_rt::{fx_hash_one, IdTable};

use crate::kernel::word_masks;
use crate::Marking;

/// Index of a place within its [`PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub(crate) u32);

/// Index of a transition within its [`PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub(crate) u32);

impl PlaceId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TransitionId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A place of a Petri net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    /// Human-readable name (unique within the net by construction).
    pub name: String,
    /// Tokens in the initial marking.
    pub initial_tokens: u32,
}

/// A transition of a Petri net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Human-readable name (unique within the net by construction).
    pub name: String,
    pub(crate) consume: Vec<(PlaceId, u32)>,
    pub(crate) produce: Vec<(PlaceId, u32)>,
    pub(crate) read: Vec<(PlaceId, u32)>,
}

impl Transition {
    /// Places (with weights) this transition consumes tokens from.
    pub fn consumed(&self) -> &[(PlaceId, u32)] {
        &self.consume
    }

    /// Places (with weights) this transition produces tokens into.
    pub fn produced(&self) -> &[(PlaceId, u32)] {
        &self.produce
    }

    /// Places (with weights) this transition tests without consuming.
    pub fn read(&self) -> &[(PlaceId, u32)] {
        &self.read
    }
}

/// Kind of arc between a place and a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcKind {
    /// Place-to-transition arc: tokens are consumed when firing.
    Consume,
    /// Transition-to-place arc: tokens are produced when firing.
    Produce,
    /// Read (test) arc: tokens must be present but are not consumed.
    Read,
}

/// An immutable place/transition net with weighted arcs and read arcs.
///
/// Construct with [`NetBuilder`]. The net owns the *structure*; token state
/// lives in [`Marking`] values so many markings can be explored without
/// cloning the net.
#[derive(Debug, Clone)]
pub struct PetriNet {
    pub(crate) places: Vec<Place>,
    pub(crate) transitions: Vec<Transition>,
    preset: PresetIndex,
    /// The exploration kernel's per-transition word masks, compiled on
    /// the first exploration: most nets the flow builds (composition
    /// parts, the parser's first pass) are never explored.
    masks: OnceLock<Option<Vec<u64>>>,
}

/// Which transitions can be enabled by a token in which place, built once
/// by [`NetBuilder::build`] so the exploration engines look only at the
/// transitions of marked places.
#[derive(Debug, Clone)]
pub(crate) struct PresetIndex {
    /// The transitions consuming or reading place `p` are
    /// `users[start[p]..start[p + 1]]`, in id order.
    start: Vec<usize>,
    users: Vec<TransitionId>,
    /// Transitions with no consumed and no read place: enabled in every
    /// marking.
    unguarded: Vec<TransitionId>,
}

impl PresetIndex {
    fn new(places: usize, transitions: &[Transition]) -> PresetIndex {
        fn guards(tr: &Transition) -> impl Iterator<Item = usize> + '_ {
            tr.consume.iter().chain(&tr.read).map(|&(p, _)| p.index())
        }
        // Counting sort by place; visiting transitions in id order keeps
        // every place's list in id order.
        let mut start = vec![0; places + 1];
        for p in transitions.iter().flat_map(guards) {
            start[p + 1] += 1;
        }
        for p in 0..places {
            start[p + 1] += start[p];
        }
        let mut fill = start.clone();
        let mut users = vec![TransitionId(0); start[places]];
        let mut unguarded = Vec::new();
        for (i, tr) in transitions.iter().enumerate() {
            let t = TransitionId(i as u32);
            if tr.consume.is_empty() && tr.read.is_empty() {
                unguarded.push(t);
            }
            for p in guards(tr) {
                users[fill[p]] = t;
                fill[p] += 1;
            }
        }
        PresetIndex {
            start,
            users,
            unguarded,
        }
    }

    /// The transitions consuming or reading place `p`, in id order.
    pub(crate) fn users_of(&self, p: usize) -> &[TransitionId] {
        &self.users[self.start[p]..self.start[p + 1]]
    }

    /// The transitions enabled in every marking, in id order.
    pub(crate) fn unguarded(&self) -> &[TransitionId] {
        &self.unguarded
    }
}

impl PetriNet {
    /// Returns a builder for incremental construction.
    pub fn builder() -> NetBuilder {
        NetBuilder::new()
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// All places in id order.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// All transitions in id order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Looks a place up by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn place(&self, id: PlaceId) -> &Place {
        &self.places[id.index()]
    }

    /// Looks a transition up by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.index()]
    }

    /// Finds a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Finds a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(|i| TransitionId(i as u32))
    }

    /// Iterates over all transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len() as u32).map(TransitionId)
    }

    /// Iterates over all place ids.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.places.len() as u32).map(PlaceId)
    }

    /// The initial marking declared at construction time.
    pub fn initial_marking(&self) -> Marking {
        Marking::new(self.places.iter().map(|p| p.initial_tokens).collect())
    }

    pub(crate) fn preset(&self) -> &PresetIndex {
        &self.preset
    }

    /// The exploration kernel's word masks; `None` when some arc is
    /// weighted (see `Kernel`).
    pub(crate) fn masks(&self) -> Option<&[u64]> {
        self.masks
            .get_or_init(|| word_masks(self.places.len(), &self.transitions))
            .as_deref()
    }

    /// Returns `true` if `t` is enabled in `marking`.
    ///
    /// A transition is enabled when every consumed place holds at least the
    /// arc weight and every read place holds at least the read weight.
    pub fn is_enabled(&self, t: TransitionId, marking: &Marking) -> bool {
        let tr = self.transition(t);
        tr.consume.iter().all(|&(p, w)| marking.tokens(p) >= w)
            && tr.read.iter().all(|&(p, w)| marking.tokens(p) >= w)
    }

    /// All transitions enabled in `marking`, in id order.
    pub fn enabled(&self, marking: &Marking) -> Vec<TransitionId> {
        self.transition_ids()
            .filter(|&t| self.is_enabled(t, marking))
            .collect()
    }

    /// Fires `t` in `marking`, returning the successor marking, or a
    /// typed [`TokenOverflow`] when a produced place would exceed
    /// `u32::MAX` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled — callers must check with
    /// [`PetriNet::is_enabled`] first.
    pub fn try_fire(&self, t: TransitionId, marking: &Marking) -> Result<Marking, TokenOverflow> {
        let tr = self.transition(t);
        assert!(
            self.is_enabled(t, marking),
            "transition {} is not enabled",
            tr.name
        );
        let mut next = marking.clone();
        for &(p, w) in &tr.consume {
            next.remove(p, w);
        }
        for &(p, w) in &tr.produce {
            next.checked_add(p, w).map_err(|()| TokenOverflow {
                place: p,
                transition: t,
            })?;
        }
        Ok(next)
    }
}

/// Firing pushed a place's token counter past `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenOverflow {
    /// The place whose counter overflowed.
    pub place: PlaceId,
    /// The transition whose firing overflowed it.
    pub transition: TransitionId,
}

impl fmt::Display for TokenOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "firing {} overflows the token counter of {}",
            self.transition, self.place
        )
    }
}

impl std::error::Error for TokenOverflow {}

/// Why [`NetBuilder`] refused a place, a transition or an arc. A refused
/// call leaves the builder as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A place of this name already exists.
    DuplicatePlace(String),
    /// A transition of this name already exists.
    DuplicateTransition(String),
    /// The transition already has an arc of this kind with the place.
    DuplicateArc(ArcKind, PlaceId, TransitionId),
    /// An arc of weight zero.
    ZeroWeight(ArcKind, PlaceId, TransitionId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (what, kind, p, t) = match self {
            NetError::DuplicatePlace(name) => return write!(f, "duplicate place name {name:?}"),
            NetError::DuplicateTransition(name) => {
                return write!(f, "duplicate transition name {name:?}")
            }
            NetError::DuplicateArc(kind, p, t) => ("duplicate", kind, p, t),
            NetError::ZeroWeight(kind, p, t) => ("zero-weight", kind, p, t),
        };
        match kind {
            ArcKind::Consume => write!(f, "{what} consume arc {p}->{t}"),
            ArcKind::Produce => write!(f, "{what} produce arc {t}->{p}"),
            ArcKind::Read => write!(f, "{what} read arc {p}->{t}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Incremental builder for [`PetriNet`].
///
/// The builder owns every structural check: a taken place or transition
/// name, a repeated arc and a zero arc weight are each a [`NetError`],
/// because silent merging would corrupt STG semantics, and the call that
/// is refused changes nothing.
#[derive(Debug, Clone)]
pub struct NetBuilder {
    places: Vec<Place>,
    transitions: Vec<Transition>,
    /// Name indexes for the duplicate checks and the name lookups: fx
    /// hashes of the names, with the names themselves kept once, in
    /// `places`/`transitions`.
    place_index: IdTable,
    transition_index: IdTable,
}

/// Names each builder index holds before its first regrowth. Every
/// shipped module and A2A spec and every handshake pipeline of up to 28
/// signals fits, so their builders allocate each index once instead of
/// regrowing it from eight slots four times (measurably slower when
/// building the dozens of small nets of a flow run).
const NAME_INDEX_CAPACITY: usize = 56;

impl Default for NetBuilder {
    fn default() -> Self {
        NetBuilder {
            places: Vec::new(),
            transitions: Vec::new(),
            place_index: IdTable::with_capacity(NAME_INDEX_CAPACITY),
            transition_index: IdTable::with_capacity(NAME_INDEX_CAPACITY),
        }
    }
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of places added so far.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Finds a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        let places = &self.places;
        self.place_index
            .get(fx_hash_one(name), |id| places[id as usize].name == name)
            .map(PlaceId)
    }

    /// Finds a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        let transitions = &self.transitions;
        self.transition_index
            .get(fx_hash_one(name), |id| {
                transitions[id as usize].name == name
            })
            .map(TransitionId)
    }

    /// Adds a place with zero initial tokens, or reports a taken name
    /// as [`NetError::DuplicatePlace`].
    pub fn place(&mut self, name: impl Into<String>) -> Result<PlaceId, NetError> {
        self.place_with_tokens(name, 0)
    }

    /// Adds a place holding `tokens` in the initial marking, or reports a
    /// taken name as [`NetError::DuplicatePlace`].
    pub fn place_with_tokens(
        &mut self,
        name: impl Into<String>,
        tokens: u32,
    ) -> Result<PlaceId, NetError> {
        let name = name.into();
        if self.place_by_name(&name).is_some() {
            return Err(NetError::DuplicatePlace(name));
        }
        let id = PlaceId(self.places.len() as u32);
        self.place_index.insert(fx_hash_one(name.as_str()), id.0);
        self.places.push(Place {
            name,
            initial_tokens: tokens,
        });
        Ok(id)
    }

    /// Adds `tokens` to the initial marking of place `p` and returns its
    /// new count, or returns `None` (and changes nothing) if the count
    /// would exceed `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a place of this builder.
    pub fn add_tokens(&mut self, p: PlaceId, tokens: u32) -> Option<u32> {
        let place = &mut self.places[p.index()];
        place.initial_tokens = place.initial_tokens.checked_add(tokens)?;
        Some(place.initial_tokens)
    }

    /// Adds a transition, or reports a taken name as
    /// [`NetError::DuplicateTransition`].
    pub fn transition(&mut self, name: impl Into<String>) -> Result<TransitionId, NetError> {
        let name = name.into();
        if self.transition_by_name(&name).is_some() {
            return Err(NetError::DuplicateTransition(name));
        }
        let id = TransitionId(self.transitions.len() as u32);
        self.transition_index
            .insert(fx_hash_one(name.as_str()), id.0);
        self.transitions.push(Transition {
            name,
            consume: Vec::new(),
            produce: Vec::new(),
            read: Vec::new(),
        });
        Ok(id)
    }

    /// Adds a place→transition (consuming) arc with weight 1; see
    /// [`NetBuilder::arc`].
    pub fn arc_pt(&mut self, p: PlaceId, t: TransitionId) -> Result<(), NetError> {
        self.arc(ArcKind::Consume, p, t, 1)
    }

    /// Adds a transition→place (producing) arc with weight 1; see
    /// [`NetBuilder::arc`].
    pub fn arc_tp(&mut self, t: TransitionId, p: PlaceId) -> Result<(), NetError> {
        self.arc(ArcKind::Produce, p, t, 1)
    }

    /// Adds a read (test) arc with weight 1: `t` requires a token in `p`
    /// but does not consume it. See [`NetBuilder::arc`].
    pub fn arc_read(&mut self, p: PlaceId, t: TransitionId) -> Result<(), NetError> {
        self.arc(ArcKind::Read, p, t, 1)
    }

    /// Adds an arc of `kind` and `weight` between `place` and
    /// `transition`, or reports a zero weight as [`NetError::ZeroWeight`]
    /// and a second arc of the same kind between the two as
    /// [`NetError::DuplicateArc`].
    ///
    /// # Panics
    ///
    /// Panics if `transition` is not a transition of this builder.
    pub fn arc(
        &mut self,
        kind: ArcKind,
        place: PlaceId,
        transition: TransitionId,
        weight: u32,
    ) -> Result<(), NetError> {
        let tr = &mut self.transitions[transition.index()];
        let arcs = match kind {
            ArcKind::Consume => &mut tr.consume,
            ArcKind::Produce => &mut tr.produce,
            ArcKind::Read => &mut tr.read,
        };
        if weight == 0 {
            return Err(NetError::ZeroWeight(kind, place, transition));
        }
        if arcs.iter().any(|&(q, _)| q == place) {
            return Err(NetError::DuplicateArc(kind, place, transition));
        }
        arcs.push((place, weight));
        Ok(())
    }

    /// Finalises the builder into an immutable net.
    pub fn build(self) -> PetriNet {
        let preset = PresetIndex::new(self.places.len(), &self.transitions);
        PetriNet {
            places: self.places,
            transitions: self.transitions,
            preset,
            masks: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle() -> (PetriNet, TransitionId, TransitionId) {
        let mut b = NetBuilder::new();
        let p0 = b.place_with_tokens("p0", 1).unwrap();
        let p1 = b.place("p1").unwrap();
        let t0 = b.transition("t0").unwrap();
        let t1 = b.transition("t1").unwrap();
        b.arc_pt(p0, t0).unwrap();
        b.arc_tp(t0, p1).unwrap();
        b.arc_pt(p1, t1).unwrap();
        b.arc_tp(t1, p0).unwrap();
        (b.build(), t0, t1)
    }

    #[test]
    fn add_tokens_is_checked() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 2).unwrap();
        assert_eq!(b.add_tokens(p, 3), Some(5));
        assert_eq!(b.add_tokens(p, u32::MAX), None);
        assert_eq!(b.build().place(p).initial_tokens, 5);
    }

    #[test]
    fn initial_marking_reflects_tokens() {
        let (net, _, _) = cycle();
        let m = net.initial_marking();
        assert_eq!(m.tokens(PlaceId(0)), 1);
        assert_eq!(m.tokens(PlaceId(1)), 0);
    }

    #[test]
    fn enabledness_and_firing() {
        let (net, t0, t1) = cycle();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t0, &m0));
        assert!(!net.is_enabled(t1, &m0));
        let m1 = net.try_fire(t0, &m0).unwrap();
        assert!(!net.is_enabled(t0, &m1));
        assert!(net.is_enabled(t1, &m1));
        let m2 = net.try_fire(t1, &m1).unwrap();
        assert_eq!(m2, m0);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn firing_disabled_transition_panics() {
        let (net, _, t1) = cycle();
        let m0 = net.initial_marking();
        let _ = net.try_fire(t1, &m0);
    }

    #[test]
    fn read_arc_does_not_consume() {
        let mut b = NetBuilder::new();
        let ctx = b.place_with_tokens("ctx", 1).unwrap();
        let src = b.place_with_tokens("src", 1).unwrap();
        let dst = b.place("dst").unwrap();
        let t = b.transition("t").unwrap();
        b.arc_read(ctx, t).unwrap();
        b.arc_pt(src, t).unwrap();
        b.arc_tp(t, dst).unwrap();
        let net = b.build();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(TransitionId(0), &m0));
        let m1 = net.try_fire(TransitionId(0), &m0).unwrap();
        assert_eq!(m1.tokens(ctx), 1, "read arc preserved the token");
        assert_eq!(m1.tokens(src), 0);
        assert_eq!(m1.tokens(dst), 1);
    }

    #[test]
    fn read_arc_requires_token() {
        let mut b = NetBuilder::new();
        let ctx = b.place("ctx").unwrap();
        let src = b.place_with_tokens("src", 1).unwrap();
        let t = b.transition("t").unwrap();
        b.arc_read(ctx, t).unwrap();
        b.arc_pt(src, t).unwrap();
        let net = b.build();
        assert!(!net.is_enabled(TransitionId(0), &net.initial_marking()));
    }

    #[test]
    fn weighted_arcs() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 3).unwrap();
        let q = b.place("q").unwrap();
        let t = b.transition("t").unwrap();
        b.arc(ArcKind::Consume, p, t, 2).unwrap();
        b.arc(ArcKind::Produce, q, t, 5).unwrap();
        let net = b.build();
        let m1 = net
            .try_fire(TransitionId(0), &net.initial_marking())
            .unwrap();
        assert_eq!(m1.tokens(p), 1);
        assert_eq!(m1.tokens(q), 5);
        assert!(!net.is_enabled(TransitionId(0), &m1), "only 1 token left");
    }

    #[test]
    fn lookup_by_name() {
        let (net, t0, _) = cycle();
        assert_eq!(net.place_by_name("p1"), Some(PlaceId(1)));
        assert_eq!(net.transition_by_name("t0"), Some(t0));
        assert_eq!(net.place_by_name("zz"), None);
        assert_eq!(net.transition_by_name("zz"), None);
    }

    #[test]
    fn refused_calls_are_typed_and_change_nothing() {
        use ArcKind::{Consume, Produce, Read};
        use NetError::{DuplicateArc, DuplicatePlace, DuplicateTransition, ZeroWeight};
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        let q = b.place("q").unwrap();
        let t = b.transition("t").unwrap();
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        b.arc_read(q, t).unwrap();
        let (places, transitions) = (b.places.clone(), b.transitions.clone());
        let cases = [
            (
                b.place("p").map(drop),
                DuplicatePlace("p".into()),
                "duplicate place name \"p\"",
            ),
            (
                b.place_with_tokens("q", 3).map(drop),
                DuplicatePlace("q".into()),
                "duplicate place name \"q\"",
            ),
            (
                b.transition("t").map(drop),
                DuplicateTransition("t".into()),
                "duplicate transition name \"t\"",
            ),
            (
                b.arc_pt(p, t),
                DuplicateArc(Consume, p, t),
                "duplicate consume arc p0->t0",
            ),
            (
                b.arc(Consume, p, t, 2),
                DuplicateArc(Consume, p, t),
                "duplicate consume arc p0->t0",
            ),
            (
                b.arc_tp(t, q),
                DuplicateArc(Produce, q, t),
                "duplicate produce arc t0->p1",
            ),
            (
                b.arc(Produce, q, t, 2),
                DuplicateArc(Produce, q, t),
                "duplicate produce arc t0->p1",
            ),
            (
                b.arc_read(q, t),
                DuplicateArc(Read, q, t),
                "duplicate read arc p1->t0",
            ),
            (
                b.arc(Read, q, t, 2),
                DuplicateArc(Read, q, t),
                "duplicate read arc p1->t0",
            ),
            (
                b.arc(Consume, q, t, 0),
                ZeroWeight(Consume, q, t),
                "zero-weight consume arc p1->t0",
            ),
            (
                b.arc(Produce, p, t, 0),
                ZeroWeight(Produce, p, t),
                "zero-weight produce arc t0->p0",
            ),
            (
                b.arc(Read, p, t, 0),
                ZeroWeight(Read, p, t),
                "zero-weight read arc p0->t0",
            ),
        ];
        for (got, want, message) in cases {
            assert_eq!(got, Err(want.clone()));
            assert_eq!(want.to_string(), message);
        }
        assert_eq!(b.places, places, "refused calls left the places alone");
        assert_eq!(
            b.transitions, transitions,
            "refused calls left the transitions and their arcs alone"
        );
        assert_eq!(b.place_by_name("q"), Some(q));
        assert_eq!(b.transition_by_name("t"), Some(t));
        assert_eq!(b.place_by_name("t"), None);
        assert_eq!(b.build().place(p).initial_tokens, 1);
    }

    #[test]
    fn enabled_lists_in_id_order() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        let t0 = b.transition("a").unwrap();
        let t1 = b.transition("b").unwrap();
        b.arc_read(p, t0).unwrap();
        b.arc_read(p, t1).unwrap();
        let net = b.build();
        assert_eq!(net.enabled(&net.initial_marking()), vec![t0, t1]);
    }
}
