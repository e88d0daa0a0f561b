use std::fmt;
use std::hash::{Hash, Hasher};

use crate::net::PlaceId;

/// A token assignment for every place of a [`crate::PetriNet`].
///
/// Markings are value types: firing a transition produces a fresh marking,
/// leaving the original untouched, so state-space exploration can keep
/// markings as hash-map keys. The explorers fire into one scratch marking
/// ([`crate::PetriNet::try_fire_into`]), whose [`Clone::clone_from`]
/// reuses the scratch's allocation, and clone it only for new states.
///
/// # Representations
///
/// Internally a marking is either *dense* (`Vec<u32>`, one counter per
/// place — the general representation every net supports) or *packed*
/// (one bit per place in `u64` words — only markings of **safe** nets,
/// where no place holds more than one token). Packed markings are what
/// the state-space engines intern: an 8-byte word covers 64 places, so
/// cloning, comparing, and hashing a marking costs a couple of word ops
/// instead of a `Vec<u32>` walk. The representation is invisible to the
/// API: equality, hashing, display, and every accessor are defined on
/// the *token counts*, so a packed marking equals (and hashes like) its
/// dense twin. A packed marking that gains a second token on some place
/// (e.g. while exploring a non-safe net) transparently falls back to the
/// dense representation.
///
/// # Examples
///
/// ```
/// use a4a_petri::Marking;
///
/// let m = Marking::new(vec![1, 0, 2]);
/// assert_eq!(m.total_tokens(), 3);
///
/// let safe = Marking::new(vec![1, 0, 1]).pack_if_safe();
/// assert!(safe.is_packed());
/// assert_eq!(safe, Marking::new(vec![1, 0, 1]));
/// ```
#[derive(Debug)]
pub struct Marking {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// One `u32` token counter per place.
    Dense(Vec<u32>),
    /// One bit per place, little-endian within `u64` words; bits at and
    /// above `places` are always zero. Places 0..64 live in the inline
    /// `word0`, so nets of up to 64 places (every shipped controller
    /// STG) clone without touching the heap; `rest` holds words 1.. and
    /// stays empty for them. Wider nets, such as compositions of several
    /// pipelines, keep their extra words in `rest`.
    Packed {
        word0: u64,
        rest: Vec<u64>,
        places: u32,
    },
}

/// Word `w` of a packed bit vector split into (word0, rest).
#[inline]
fn packed_word(word0: u64, rest: &[u64], w: usize) -> u64 {
    if w == 0 {
        word0
    } else {
        rest[w - 1]
    }
}

impl Clone for Marking {
    fn clone(&self) -> Self {
        Marking {
            repr: self.repr.clone(),
        }
    }

    /// Overwrites `self` with `source`, reusing `self`'s heap buffer when
    /// both have the same representation — firing into a scratch marking
    /// then costs no allocation.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.repr, &source.repr) {
            (Repr::Dense(dst), Repr::Dense(src)) => dst.clone_from(src),
            (
                Repr::Packed {
                    word0,
                    rest,
                    places,
                },
                Repr::Packed {
                    word0: src_word0,
                    rest: src_rest,
                    places: src_places,
                },
            ) => {
                *word0 = *src_word0;
                rest.clone_from(src_rest);
                *places = *src_places;
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl Default for Marking {
    fn default() -> Self {
        Marking {
            repr: Repr::Dense(Vec::new()),
        }
    }
}

impl Marking {
    /// Creates a (dense) marking from a per-place token vector.
    pub fn new(tokens: Vec<u32>) -> Self {
        Marking {
            repr: Repr::Dense(tokens),
        }
    }

    /// Tokens currently in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to the net this marking was built
    /// for.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        let i = place.index();
        match &self.repr {
            Repr::Dense(v) => v[i],
            Repr::Packed { word0, rest, places } => {
                assert!(i < *places as usize, "place {place} out of range");
                (packed_word(*word0, rest, i / 64) >> (i % 64)) as u32 & 1
            }
        }
    }

    /// Number of places covered by this marking.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Dense(v) => v.len(),
            Repr::Packed { places, .. } => *places as usize,
        }
    }

    /// Returns `true` for the empty (zero-place) marking.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of tokens over all places.
    pub fn total_tokens(&self) -> u64 {
        match &self.repr {
            Repr::Dense(v) => v.iter().map(|&t| u64::from(t)).sum(),
            Repr::Packed { word0, rest, .. } => {
                u64::from(word0.count_ones())
                    + rest.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
            }
        }
    }

    /// Returns `true` when no place holds more than one token.
    pub fn is_safe(&self) -> bool {
        match &self.repr {
            Repr::Dense(v) => v.iter().all(|&t| t <= 1),
            Repr::Packed { .. } => true,
        }
    }

    /// Returns `true` when this marking uses the packed (bit-per-place)
    /// representation.
    pub fn is_packed(&self) -> bool {
        matches!(self.repr, Repr::Packed { .. })
    }

    /// Per-place token counts, indexed by [`PlaceId::index`].
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(move |i| match &self.repr {
            Repr::Dense(v) => v[i],
            Repr::Packed { word0, rest, .. } => {
                (packed_word(*word0, rest, i / 64) >> (i % 64)) as u32 & 1
            }
        })
    }

    /// Calls `f` on every place holding at least one token, in place-id
    /// order: the set bits of a packed marking, the non-zero counters of
    /// a dense one.
    pub fn for_each_marked_place(&self, mut f: impl FnMut(PlaceId)) {
        match &self.repr {
            Repr::Dense(v) => {
                for (i, &t) in v.iter().enumerate() {
                    if t > 0 {
                        f(PlaceId(i as u32));
                    }
                }
            }
            Repr::Packed { word0, rest, .. } => {
                for (w, &word) in std::iter::once(word0).chain(rest).enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        f(PlaceId((w * 64) as u32 + bits.trailing_zeros()));
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Converts to the packed representation when safe; returns `self`
    /// unchanged (still dense) when some place holds more than one
    /// token. The state-space engines call this on the initial marking
    /// so safe nets explore on word-sized keys.
    pub fn pack_if_safe(self) -> Marking {
        match &self.repr {
            Repr::Packed { .. } => self,
            Repr::Dense(v) => {
                if !v.iter().all(|&t| t <= 1) {
                    return self;
                }
                let places = v.len();
                let mut word0 = 0u64;
                let mut rest = vec![0u64; places.div_ceil(64).saturating_sub(1)];
                for (i, &t) in v.iter().enumerate() {
                    if i < 64 {
                        word0 |= u64::from(t) << i;
                    } else {
                        rest[i / 64 - 1] |= u64::from(t) << (i % 64);
                    }
                }
                Marking {
                    repr: Repr::Packed {
                        word0,
                        rest,
                        places: places as u32,
                    },
                }
            }
        }
    }

    /// Converts to the dense (`Vec<u32>`) representation — the reference
    /// path the packed-vs-reference differential suite explores with.
    pub fn to_dense(&self) -> Marking {
        Marking::new(self.iter().collect())
    }

    /// Hashes the marking with the process-stable
    /// [`a4a_rt::FxHasher`] — the key function of the exploration
    /// interner. Equal markings hash equally regardless of
    /// representation: safe markings hash their packed words (computed
    /// on the fly for dense ones), unsafe markings hash their counters.
    pub fn fx_hash(&self) -> u64 {
        let mut h = a4a_rt::FxHasher::default();
        self.hash_canonical(&mut h);
        h.finish()
    }

    /// The representation-independent hash stream backing both
    /// [`Marking::fx_hash`] and the `std` [`Hash`] impl.
    fn hash_canonical<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.len());
        match &self.repr {
            Repr::Packed { word0, rest, places } => {
                if *places > 0 {
                    h.write_u64(*word0);
                }
                for &w in rest {
                    h.write_u64(w);
                }
            }
            Repr::Dense(v) => {
                if v.iter().all(|&t| t <= 1) {
                    let mut word = 0u64;
                    for (i, &t) in v.iter().enumerate() {
                        word |= u64::from(t) << (i % 64);
                        if i % 64 == 63 {
                            h.write_u64(word);
                            word = 0;
                        }
                    }
                    if !v.is_empty() && v.len() % 64 != 0 {
                        h.write_u64(word);
                    }
                } else {
                    for &t in v {
                        h.write_u32(t);
                    }
                }
            }
        }
    }

    /// Rewrites `self` into the dense representation in place.
    fn make_dense(&mut self) {
        if let Repr::Packed { .. } = self.repr {
            *self = self.to_dense();
        }
    }

    /// Adds `weight` tokens, falling back to the dense representation if
    /// a packed place would exceed one token. `Err(())` on counter
    /// overflow (the place already holds close to `u32::MAX` tokens).
    pub(crate) fn checked_add(&mut self, place: PlaceId, weight: u32) -> Result<(), ()> {
        let i = place.index();
        if let Repr::Packed { word0, rest, .. } = &mut self.repr {
            let slot = if i < 64 { word0 } else { &mut rest[i / 64 - 1] };
            let cur = (*slot >> (i % 64)) & 1;
            if cur as u32 + weight <= 1 {
                *slot |= u64::from(weight) << (i % 64);
                return Ok(());
            }
            // Second token on a packed place: this marking is no longer
            // safe, so it leaves the packed representation.
            self.make_dense();
        }
        match &mut self.repr {
            Repr::Dense(v) => {
                let slot = &mut v[i];
                *slot = slot.checked_add(weight).ok_or(())?;
                Ok(())
            }
            Repr::Packed { .. } => unreachable!("packed handled above"),
        }
    }

    pub(crate) fn remove(&mut self, place: PlaceId, weight: u32) {
        let i = place.index();
        match &mut self.repr {
            Repr::Dense(v) => {
                let slot = &mut v[i];
                *slot = slot.checked_sub(weight).expect("token underflow");
            }
            Repr::Packed { word0, rest, .. } => {
                let slot = if i < 64 { word0 } else { &mut rest[i / 64 - 1] };
                let cur = (*slot >> (i % 64)) as u32 & 1;
                assert!(weight <= cur, "token underflow");
                *slot &= !(u64::from(weight) << (i % 64));
            }
        }
    }
}

impl PartialEq for Marking {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            (
                Repr::Packed {
                    word0: a0,
                    rest: ar,
                    places: pa,
                },
                Repr::Packed {
                    word0: b0,
                    rest: br,
                    places: pb,
                },
            ) => pa == pb && a0 == b0 && ar == br,
            // Mixed representations compare by token counts; only
            // possible when both are over the same places, and a packed
            // marking is always safe, so inequality is cheap to detect.
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Marking {}

impl Hash for Marking {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_canonical(state);
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let m = Marking::new(vec![2, 0, 1]);
        assert_eq!(m.tokens(PlaceId(0)), 2);
        assert_eq!(m.tokens(PlaceId(2)), 1);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.total_tokens(), 3);
    }

    #[test]
    fn safety() {
        assert!(Marking::new(vec![1, 0, 1]).is_safe());
        assert!(!Marking::new(vec![2, 0]).is_safe());
    }

    #[test]
    fn mutation_checked() {
        let mut m = Marking::new(vec![1]);
        m.checked_add(PlaceId(0), 2).unwrap();
        assert_eq!(m.tokens(PlaceId(0)), 3);
        m.remove(PlaceId(0), 3);
        assert_eq!(m.tokens(PlaceId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "token underflow")]
    fn underflow_panics() {
        let mut m = Marking::new(vec![0]);
        m.remove(PlaceId(0), 1);
    }

    #[test]
    #[should_panic(expected = "token underflow")]
    fn packed_underflow_panics() {
        let mut m = Marking::new(vec![0]).pack_if_safe();
        m.remove(PlaceId(0), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Marking::new(vec![1, 0, 2]).to_string(), "[1 0 2]");
        let packed = Marking::new(vec![1, 0, 1]).pack_if_safe();
        assert_eq!(packed.to_string(), "[1 0 1]");
    }

    #[test]
    fn packing_round_trips() {
        let dense = Marking::new(vec![1, 0, 1, 1, 0]);
        let packed = dense.clone().pack_if_safe();
        assert!(packed.is_packed());
        assert!(!dense.is_packed());
        assert_eq!(packed, dense);
        assert_eq!(dense, packed);
        assert_eq!(packed.to_dense(), dense);
        assert_eq!(packed.total_tokens(), 3);
        for i in 0..5 {
            assert_eq!(packed.tokens(PlaceId(i)), dense.tokens(PlaceId(i)));
        }
    }

    #[test]
    fn unsafe_marking_stays_dense() {
        let m = Marking::new(vec![2, 0]).pack_if_safe();
        assert!(!m.is_packed());
    }

    #[test]
    fn packed_and_dense_hash_identically() {
        for tokens in [vec![], vec![1], vec![0, 1, 1], vec![1; 100]] {
            let dense = Marking::new(tokens);
            let packed = dense.clone().pack_if_safe();
            assert!(packed.is_packed());
            assert_eq!(dense.fx_hash(), packed.fx_hash());
            assert_eq!(
                a4a_rt::fx_hash_one(&dense),
                a4a_rt::fx_hash_one(&packed),
                "std Hash must agree across representations"
            );
        }
    }

    #[test]
    fn packed_add_overflow_falls_back_to_dense() {
        let mut m = Marking::new(vec![1, 0]).pack_if_safe();
        assert!(m.is_packed());
        m.checked_add(PlaceId(0), 1).unwrap();
        assert!(!m.is_packed(), "second token forces the dense fallback");
        assert_eq!(m.tokens(PlaceId(0)), 2);
        assert_eq!(m.tokens(PlaceId(1)), 0);
    }

    #[test]
    fn packed_spans_multiple_words() {
        let mut v = vec![0u32; 130];
        v[0] = 1;
        v[64] = 1;
        v[129] = 1;
        let packed = Marking::new(v.clone()).pack_if_safe();
        assert!(packed.is_packed());
        assert_eq!(packed, Marking::new(v));
        assert_eq!(packed.total_tokens(), 3);
        assert_eq!(packed.tokens(PlaceId(64)), 1);
        assert_eq!(packed.tokens(PlaceId(65)), 0);
    }
}
