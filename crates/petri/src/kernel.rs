//! The exploration kernel under the crate's one breadth-first search,
//! [`PetriNet::search`]. The search keeps each state as a row of `u64`
//! words in one arena ([`RowSet`]): the marking in the words a
//! [`Layout`] describes, then the caller's tag word. Two firing rules
//! read and write the marking words ([`Kernel`]): the safe-net kernel
//! ([`Engine::Kernel`]) with one bit per place and per-transition word
//! masks, and the token-counting reference engine. A kernel firing that
//! would put a second token on a place halts the search
//! ([`Halt::Unsafe`]), and [`PetriNet::explore_with`] reruns it on the
//! reference engine ([`Engine::Restarted`]). None of this is public.

use std::hash::Hasher;
use std::ops::Deref;

use a4a_rt::{FxHasher, IdTable};

use crate::net::Transition;
use crate::{Marking, PetriNet, PlaceId, TokenOverflow, TransitionId};

/// Which engine built a state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The safe-net kernel: one bit per place, firing by word masks.
    Kernel,
    /// The reference engine, one token counter per place: asked for
    /// explicitly, or the net has a weighted arc, or its initial marking
    /// has a place with two or more tokens.
    Reference,
    /// The kernel met a firing that would put a second token on a place,
    /// so the reference engine explored again from the start.
    Restarted,
}

/// How the leading words of a state row encode a marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    engine: Engine,
    places: usize,
}

impl Layout {
    /// The engine whose rows these are.
    pub(crate) fn engine(self) -> Engine {
        self.engine
    }

    /// Number of marking words at the start of every row: one bit per
    /// place for the kernel, one counter word per place otherwise.
    pub(crate) fn words(self) -> usize {
        match self.engine {
            Engine::Kernel => self.places.div_ceil(64),
            Engine::Reference | Engine::Restarted => self.places,
        }
    }

    /// Appends the marking words of `marking` to `row`. For the kernel
    /// layout `marking` must be safe.
    pub(crate) fn encode(self, marking: &Marking, row: &mut Vec<u64>) {
        match self.engine {
            Engine::Kernel => {
                debug_assert!(marking.is_safe());
                let start = row.len();
                row.resize(start + self.words(), 0);
                for (p, t) in marking.iter().enumerate() {
                    row[start + p / 64] |= u64::from(t) << (p % 64);
                }
            }
            Engine::Reference | Engine::Restarted => row.extend(marking.iter().map(u64::from)),
        }
    }

    /// The marking held by the leading words of `row`.
    pub(crate) fn decode(self, row: &[u64]) -> Marking {
        Marking::new((0..self.places).map(|p| self.tokens(row, p)).collect())
    }

    /// The tokens on place `p` in `row`.
    fn tokens(self, row: &[u64], p: usize) -> u32 {
        match self.engine {
            Engine::Kernel => (row[p / 64] >> (p % 64)) as u32 & 1,
            // Reference counters never exceed u32::MAX: `fire_into`
            // checks every addition.
            Engine::Reference | Engine::Restarted => row[p] as u32,
        }
    }

    /// The largest token count on any place of `row`.
    pub(crate) fn max_tokens(self, row: &[u64]) -> u32 {
        (0..self.places)
            .map(|p| self.tokens(row, p))
            .max()
            .unwrap_or(0)
    }
}

/// Why a kernel-generic search stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Halt<E> {
    /// A kernel firing would put a second token on a place: the
    /// marking leaves the kernel's one-bit-per-place layout.
    Unsafe,
    /// The search failed with an error of its own.
    Error(E),
}

impl<E> Halt<E> {
    /// Maps the error of a [`Halt::Error`].
    pub(crate) fn map<F>(self, f: impl FnOnce(E) -> F) -> Halt<F> {
        match self {
            Halt::Unsafe => Halt::Unsafe,
            Halt::Error(e) => Halt::Error(f(e)),
        }
    }
}

/// A firing rule on the marking words of state rows: one bit per place
/// and per-transition word masks for [`Engine::Kernel`], one token
/// counter word per place for the reference engine. A transition is
/// enabled under the masks iff `row & need == need` on every word
/// (`need = consume | read`) and fires to `(row & !consume) | produce`.
/// Both rules list a row's enabled transitions the same way, through a
/// reused bitmask ([`Enabled`]), and both run the same search loop, so
/// state numbering, edge order and error trip points agree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel<'n> {
    net: &'n PetriNet,
    layout: Layout,
    /// `need`, `consume`, `produce` of transition `t`, `words` each,
    /// from `masks[3 * words * t]`; empty for the reference engine.
    masks: &'n [u64],
}

impl<'n> Kernel<'n> {
    /// The row layout of this engine's markings.
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// Replaces the contents of `out` with the transitions enabled in
    /// the marking of `row`, in id order. Candidates are the transitions
    /// of the marked places (through the net's preset index) plus those
    /// with an empty preset; each is marked once in `out`'s transition
    /// bitmask, which is then read back word by word, so the list comes
    /// out in id order without a sort.
    pub(crate) fn enabled_into(&self, row: &[u64], out: &mut Enabled) {
        let preset = self.net.preset();
        let Enabled { list, marks } = out;
        list.clear();
        marks.resize(self.net.transition_count().div_ceil(64), 0);
        // The mask words holding a candidate lie in `lo..=hi`; every
        // preset list is in id order, so its ends bound its words.
        let (mut lo, mut hi) = (usize::MAX, 0);
        let mut mark = |ts: &[TransitionId]| {
            if let (Some(first), Some(last)) = (ts.first(), ts.last()) {
                lo = lo.min(first.index() / 64);
                hi = hi.max(last.index() / 64);
                for t in ts {
                    marks[t.index() / 64] |= 1 << (t.index() % 64);
                }
            }
        };
        mark(preset.unguarded());
        let words = &row[..self.layout.words()];
        match self.layout.engine {
            Engine::Kernel => {
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        mark(preset.users_of(w * 64 + bits.trailing_zeros() as usize));
                        bits &= bits - 1;
                    }
                }
            }
            Engine::Reference | Engine::Restarted => {
                for (p, &count) in words.iter().enumerate() {
                    if count > 0 {
                        mark(preset.users_of(p));
                    }
                }
            }
        }
        for (w, word) in marks.iter_mut().enumerate().take(hi + 1).skip(lo) {
            // Taking the word clears it for the next call.
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let t = TransitionId((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                if self.is_enabled(t, row) {
                    list.push(t);
                }
            }
        }
    }

    fn is_enabled(&self, t: TransitionId, row: &[u64]) -> bool {
        match self.layout.engine {
            Engine::Kernel => {
                let words = self.layout.words();
                let need = &self.masks[3 * words * t.index()..][..words];
                row.iter().zip(need).all(|(&r, &n)| r & n == n)
            }
            Engine::Reference | Engine::Restarted => {
                let tr = self.net.transition(t);
                let holds = |&(p, w): &(PlaceId, u32)| row[p.index()] >= u64::from(w);
                tr.consume.iter().all(holds) && tr.read.iter().all(holds)
            }
        }
    }

    /// Writes the marking words of the successor of `row` under `t` to
    /// the front of `next`, whatever they held; the words after the
    /// marking are left alone. `t` must be enabled in `row`, as every
    /// transition [`Kernel::enabled_into`] lists is.
    ///
    /// # Errors
    ///
    /// [`Halt::Unsafe`] when a kernel firing would put a second token on
    /// a place; [`Halt::Error`] with [`TokenOverflow`] when a reference
    /// firing would push a counter past `u32::MAX`. `next` is then left
    /// partly written.
    pub(crate) fn fire_into(
        &self,
        t: TransitionId,
        row: &[u64],
        next: &mut [u64],
    ) -> Result<(), Halt<TokenOverflow>> {
        let words = self.layout.words();
        match self.layout.engine {
            Engine::Kernel => {
                let masks = &self.masks[3 * words * t.index()..][..3 * words];
                let (consume, produce) = masks[words..].split_at(words);
                let mut clash = 0;
                for i in 0..words {
                    let kept = row[i] & !consume[i];
                    clash |= kept & produce[i];
                    next[i] = kept | produce[i];
                }
                if clash != 0 {
                    return Err(Halt::Unsafe);
                }
            }
            Engine::Reference | Engine::Restarted => {
                let tr = self.net.transition(t);
                next[..words].copy_from_slice(&row[..words]);
                for &(p, w) in &tr.consume {
                    next[p.index()] -= u64::from(w);
                }
                for &(p, w) in &tr.produce {
                    let count = next[p.index()] + u64::from(w);
                    if count > u64::from(u32::MAX) {
                        return Err(Halt::Error(TokenOverflow {
                            place: p,
                            transition: t,
                        }));
                    }
                    next[p.index()] = count;
                }
            }
        }
        Ok(())
    }
}

/// The transitions [`Kernel::enabled_into`] found enabled in a row, in
/// id order (an `Enabled` derefs to that list), and the one bit per
/// transition in which it marks candidates. Keep one per search: the
/// bitmask is sized on the first call and left all zero by every call.
#[derive(Debug, Clone, Default)]
pub(crate) struct Enabled {
    list: Vec<TransitionId>,
    marks: Vec<u64>,
}

impl Deref for Enabled {
    type Target = [TransitionId];

    fn deref(&self) -> &[TransitionId] {
        &self.list
    }
}

/// The kernel's word masks of a net, `need`, `consume` and `produce` per
/// transition (see [`Kernel`]); `None` when some arc has a weight other
/// than 1, which only the reference engine handles.
pub(crate) fn word_masks(places: usize, transitions: &[Transition]) -> Option<Vec<u64>> {
    let unit = |arcs: &[(PlaceId, u32)]| arcs.iter().all(|&(_, w)| w == 1);
    if !transitions
        .iter()
        .all(|tr| unit(&tr.consume) && unit(&tr.read) && unit(&tr.produce))
    {
        return None;
    }
    fn set(mask: &mut [u64], arcs: &[(PlaceId, u32)]) {
        for &(p, _) in arcs {
            mask[p.index() / 64] |= 1 << (p.index() % 64);
        }
    }
    let words = places.div_ceil(64);
    let mut masks = vec![0u64; 3 * words * transitions.len()];
    for (t, tr) in transitions.iter().enumerate() {
        let (need, rest) = masks[3 * words * t..][..3 * words].split_at_mut(words);
        let (consume, produce) = rest.split_at_mut(words);
        set(need, &tr.consume);
        set(need, &tr.read);
        set(consume, &tr.consume);
        set(produce, &tr.produce);
    }
    Some(masks)
}

impl PetriNet {
    /// Runs `explore` on the kernel when the net has no weighted arc and
    /// `initial` is safe, else on the reference engine. If the kernel run
    /// stops with [`Halt::Unsafe`], its partial result is dropped and
    /// `explore` runs again on the reference engine
    /// ([`Engine::Restarted`]). `initial` only chooses the engine.
    pub(crate) fn explore_with<T, E>(
        &self,
        initial: &Marking,
        mut explore: impl FnMut(Kernel<'_>) -> Result<T, Halt<E>>,
    ) -> Result<T, E> {
        match self.masks() {
            Some(masks) if initial.is_safe() => match explore(self.kernel(Engine::Kernel, masks)) {
                Err(Halt::Unsafe) => finish(explore(self.kernel(Engine::Restarted, &[]))),
                done => finish(done),
            },
            _ => finish(explore(self.kernel(Engine::Reference, &[]))),
        }
    }

    /// Runs `explore` on the reference engine only.
    pub(crate) fn explore_ref_with<T, E>(
        &self,
        explore: impl FnOnce(Kernel<'_>) -> Result<T, Halt<E>>,
    ) -> Result<T, E> {
        finish(explore(self.kernel(Engine::Reference, &[])))
    }

    fn kernel<'n>(&'n self, engine: Engine, masks: &'n [u64]) -> Kernel<'n> {
        Kernel {
            net: self,
            layout: Layout {
                engine,
                places: self.place_count(),
            },
            masks,
        }
    }
}

/// A result that is not [`Halt::Unsafe`]: the reference engine counts
/// tokens, so it never halts on an unsafe firing.
fn finish<T, E>(result: Result<T, Halt<E>>) -> Result<T, E> {
    result.map_err(|halt| match halt {
        Halt::Error(e) => e,
        Halt::Unsafe => unreachable!("the reference engine counts tokens"),
    })
}

/// Fixed-width rows of `u64` words interned to ids `0, 1, 2, …` in
/// insertion order: one flat arena plus an [`IdTable`] of row hashes, so
/// an equality probe is one compare against a contiguous row.
#[derive(Debug, Clone)]
pub(crate) struct RowSet {
    width: usize,
    len: usize,
    words: Vec<u64>,
    table: IdTable,
}

impl RowSet {
    /// An empty set of rows of `width` words.
    pub(crate) fn new(width: usize) -> RowSet {
        RowSet {
            width,
            len: 0,
            words: Vec::new(),
            table: IdTable::new(),
        }
    }

    /// Number of interned rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The row with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been interned.
    pub(crate) fn row(&self, id: usize) -> &[u64] {
        assert!(id < self.len, "row {id} not interned");
        &self.words[id * self.width..][..self.width]
    }

    /// Interns `row`: `Some((id, false))` if an equal row is present,
    /// else `Some((id, true))` with the next id — or `None` when that
    /// would make more than `limit` rows.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `width` words long.
    pub(crate) fn intern(&mut self, row: &[u64], limit: usize) -> Option<(u32, bool)> {
        assert_eq!(row.len(), self.width, "row width");
        let hash = row_hash(row);
        let (words, width) = (&self.words, self.width);
        if let Some(id) = self
            .table
            .get(hash, |id| &words[id as usize * width..][..width] == row)
        {
            return Some((id, false));
        }
        if self.len >= limit {
            return None;
        }
        let id = self.len as u32;
        self.table.insert(hash, id);
        self.words.extend_from_slice(row);
        self.len += 1;
        Some((id, true))
    }

    /// The rows back to back, in id order, without the hash table.
    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }
}

/// The interner hash of a row: [`FxHasher`] over its words. Fx leaves
/// the low bits depending on the low bits of the last word only;
/// [`IdTable`] folds the high half in before it picks a slot
/// ([`IdTable::tag`]).
fn row_hash(row: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &word in row {
        h.write_u64(word);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArcKind, NetBuilder};
    use a4a_rt::prop::{self, Gen, PropResult};
    use a4a_rt::prop_assert_eq;

    /// A random net over `places` places: every transition gets up to
    /// two consumed, two read and two produced places with weights 1–3
    /// (or only weight 1, so the net has kernel masks), so some
    /// transitions have an empty preset and some a place both consumed
    /// and read.
    fn random_net(g: &mut Gen, places: usize, unit: bool) -> PetriNet {
        let mut b = NetBuilder::new();
        let ps: Vec<_> = (0..places)
            .map(|i| b.place(format!("p{i}")).unwrap())
            .collect();
        for i in 0..g.usize(1..24) {
            let t = b.transition(format!("t{i}")).unwrap();
            for kind in [ArcKind::Consume, ArcKind::Read, ArcKind::Produce] {
                let mut picks: Vec<usize> = (0..places).collect();
                g.shuffle(&mut picks);
                for &p in picks.iter().take(g.usize(0..3)) {
                    let w = if unit { 1 } else { g.u64(1..4) as u32 };
                    b.arc(kind, ps[p], t, w).unwrap();
                }
            }
        }
        b.build()
    }

    /// `Kernel::enabled_into` (candidates from the preset index of the
    /// marked places) lists exactly the transitions a brute-force scan
    /// with `is_enabled` finds, in id order, and `Kernel::fire_into` into
    /// a dirty scratch row gives `try_fire`'s successor: on the kernel
    /// for safe markings of unit-weight nets over more than one word, on
    /// the reference engine for weighted nets and unsafe markings, and on
    /// the restarted reference engine when a kernel firing would put a
    /// second token on a place.
    #[test]
    fn enabled_into_and_try_fire_into_match_brute_force() {
        prop::check(
            "enabled_into_matches_brute_force",
            |g: &mut Gen| -> PropResult {
                let places = g.usize(1..140);
                let unit = g.bool();
                let net = random_net(g, places, unit);
                let max = if unit { 2 } else { 4 };
                let m = Marking::new((0..places).map(|_| g.u64(0..max) as u32).collect());

                let want: Vec<_> = net
                    .transition_ids()
                    .filter(|&t| net.is_enabled(t, &m))
                    .collect();
                prop_assert_eq!(net.enabled(&m), want.clone());
                let fired: Vec<Marking> = want
                    .iter()
                    .map(|&t| net.try_fire(t, &m).expect("weights stay far from u32::MAX"))
                    .collect();
                let want_engine = if !(unit && m.is_safe()) {
                    Engine::Reference
                } else if fired.iter().all(Marking::is_safe) {
                    Engine::Kernel
                } else {
                    Engine::Restarted
                };

                let (engine, enabled, successors) = net
                    .explore_with(&m, |kernel| {
                        let layout = kernel.layout();
                        let mut row = Vec::new();
                        layout.encode(&m, &mut row);
                        // Dirty buffers: both calls must overwrite, not
                        // append. A first call with every place marked lists
                        // and clears every guarded candidate.
                        let mut full = Vec::new();
                        layout.encode(&Marking::new(vec![1; places]), &mut full);
                        let mut enabled = Enabled::default();
                        kernel.enabled_into(&full, &mut enabled);
                        kernel.enabled_into(&row, &mut enabled);
                        let enabled = enabled.to_vec();
                        let mut successors = Vec::new();
                        for &t in &enabled {
                            let mut next = vec![u64::MAX; row.len()];
                            kernel
                                .fire_into(t, &row, &mut next)
                                .map_err(|h| h.map(|e| e.to_string()))?;
                            successors.push(layout.decode(&next));
                        }
                        Ok::<_, Halt<String>>((layout.engine(), enabled, successors))
                    })
                    .map_err(prop::PropError::Fail)?;
                prop_assert_eq!(engine, want_engine);
                prop_assert_eq!(enabled, want);
                prop_assert_eq!(successors, fired);
                Ok(())
            },
        );
    }

    #[test]
    fn layouts_round_trip() {
        let m = Marking::new((0..130).map(|p| u32::from(p % 3 == 0)).collect());
        for engine in [Engine::Kernel, Engine::Reference] {
            let layout = Layout {
                engine,
                places: 130,
            };
            let mut row = vec![7];
            layout.encode(&m, &mut row);
            assert_eq!(row.len(), 1 + layout.words());
            assert_eq!(layout.decode(&row[1..]), m);
            assert_eq!(layout.max_tokens(&row[1..]), 1);
        }
    }

    #[test]
    fn weighted_arcs_have_no_masks() {
        let mut b = NetBuilder::new();
        let p = b.place_with_tokens("p", 1).unwrap();
        let t = b.transition("t").unwrap();
        b.arc_pt(p, t).unwrap();
        assert!(b.clone().build().masks().is_some());
        b.arc(ArcKind::Produce, p, t, 2).unwrap();
        assert!(b.build().masks().is_none());
    }

    #[test]
    fn row_set_interns_in_order() {
        let mut rows = RowSet::new(2);
        assert_eq!(rows.intern(&[1, 2], 10), Some((0, true)));
        assert_eq!(rows.intern(&[2, 1], 10), Some((1, true)));
        assert_eq!(rows.intern(&[1, 2], 10), Some((0, false)));
        assert_eq!(rows.intern(&[3, 3], 2), None, "limit reached");
        assert_eq!(rows.intern(&[2, 1], 2), Some((1, false)), "known rows pass");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(1), &[2, 1]);
        assert_eq!(rows.into_words(), vec![1, 2, 2, 1]);
    }

    #[test]
    fn rows_with_one_tag_intern_separately() {
        // Two rows whose hashes fold to the same interner tag, found by
        // a birthday search: they share a home slot and pass the tag
        // screen, so only the row compare keeps them apart.
        let (a, b) = ([101_677, 7], [171_456, 7]);
        assert_ne!(row_hash(&a), row_hash(&b));
        assert_eq!(IdTable::tag(row_hash(&a)), IdTable::tag(row_hash(&b)));
        let mut rows = RowSet::new(2);
        assert_eq!(rows.intern(&a, 10), Some((0, true)));
        assert_eq!(rows.intern(&b, 10), Some((1, true)));
        assert_eq!(rows.intern(&b, 10), Some((1, false)));
        assert_eq!(rows.intern(&a, 10), Some((0, false)));
        assert_eq!(rows.into_words(), vec![101_677, 7, 171_456, 7]);
    }

    #[test]
    fn zero_width_rows_are_one_state() {
        let mut rows = RowSet::new(0);
        assert_eq!(rows.intern(&[], 5), Some((0, true)));
        assert_eq!(rows.intern(&[], 5), Some((0, false)));
        assert_eq!(rows.row(0), &[] as &[u64]);
    }
}
