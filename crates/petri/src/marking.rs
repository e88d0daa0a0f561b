use std::fmt;

use crate::net::PlaceId;

/// A token assignment for every place of a [`crate::PetriNet`]: one
/// `u32` counter per place.
///
/// Markings are value types: firing a transition produces a fresh marking,
/// leaving the original untouched. A [`crate::StateSpace`] does not
/// store markings; it keeps every state as a row of words and hands a
/// `Marking` back on request.
///
/// # Examples
///
/// ```
/// use a4a_petri::Marking;
///
/// let m = Marking::new(vec![1, 0, 2]);
/// assert_eq!(m.total_tokens(), 3);
/// assert!(!m.is_safe());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Marking {
    tokens: Vec<u32>,
}

impl Marking {
    /// Creates a marking from a per-place token vector.
    pub fn new(tokens: Vec<u32>) -> Self {
        Marking { tokens }
    }

    /// Tokens currently in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to the net this marking was built
    /// for.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.tokens[place.index()]
    }

    /// Number of places covered by this marking.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` for the empty (zero-place) marking.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Sum of tokens over all places.
    pub fn total_tokens(&self) -> u64 {
        self.tokens.iter().map(|&t| u64::from(t)).sum()
    }

    /// Returns `true` when no place holds more than one token.
    pub fn is_safe(&self) -> bool {
        self.tokens.iter().all(|&t| t <= 1)
    }

    /// Per-place token counts, indexed by [`PlaceId::index`].
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.tokens.iter().copied()
    }

    /// Hashes the token counters with the process-stable
    /// [`a4a_rt::FxHasher`].
    pub fn fx_hash(&self) -> u64 {
        a4a_rt::fx_hash_one(self)
    }

    /// Adds `weight` tokens; `Err(())` on counter overflow (the place
    /// already holds close to `u32::MAX` tokens).
    pub(crate) fn checked_add(&mut self, place: PlaceId, weight: u32) -> Result<(), ()> {
        let slot = &mut self.tokens[place.index()];
        *slot = slot.checked_add(weight).ok_or(())?;
        Ok(())
    }

    pub(crate) fn remove(&mut self, place: PlaceId, weight: u32) {
        let slot = &mut self.tokens[place.index()];
        *slot = slot.checked_sub(weight).expect("token underflow");
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
        assert!(m.checked_add(PlaceId(0), u32::MAX).is_ok());
        assert!(m.checked_add(PlaceId(0), 1).is_err());
    }

    #[test]
    #[should_panic(expected = "token underflow")]
    fn underflow_panics() {
        let mut m = Marking::new(vec![0]);
        m.remove(PlaceId(0), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Marking::new(vec![1, 0, 2]).to_string(), "[1 0 2]");
    }
}
