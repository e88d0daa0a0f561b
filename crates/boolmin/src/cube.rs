use std::fmt;

/// A product term over up to 64 Boolean variables in positional-cube
/// notation.
///
/// Each variable occupies two bits: `01` = the variable must be 0 (negative
/// literal), `10` = must be 1 (positive literal), `11` = don't care (the
/// variable does not appear). The all-don't-care cube is the constant 1
/// function.
///
/// # Examples
///
/// ```
/// use a4a_boolmin::Cube;
///
/// // a & !c over 3 variables
/// let cube = Cube::full(3).with_positive(0).with_negative(2);
/// assert!(cube.covers_minterm(0b001));  // a=1, b=0, c=0
/// assert!(cube.covers_minterm(0b011));  // b is free
/// assert!(!cube.covers_minterm(0b101)); // c must be 0
/// assert_eq!(cube.literal_count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    bits: u128,
    nvars: u8,
}

const DC: u128 = 0b11;

impl Cube {
    /// The cube with no literals (covers every minterm): the constant 1.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 64`.
    pub fn full(nvars: usize) -> Cube {
        assert!(nvars <= 64, "at most 64 variables supported");
        let mut bits = 0u128;
        for i in 0..nvars {
            bits |= DC << (2 * i);
        }
        Cube {
            bits,
            nvars: nvars as u8,
        }
    }

    /// The cube covering exactly one minterm (all variables bound).
    ///
    /// Bit `i` of `minterm` gives the value of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 64`.
    pub fn minterm(nvars: usize, minterm: u64) -> Cube {
        assert!(nvars <= 64, "at most 64 variables supported");
        let mut bits = 0u128;
        for i in 0..nvars {
            let field = if (minterm >> i) & 1 == 1 { 0b10 } else { 0b01 };
            bits |= (field as u128) << (2 * i);
        }
        Cube {
            bits,
            nvars: nvars as u8,
        }
    }

    /// Number of variables in the cube's space.
    pub fn nvars(&self) -> usize {
        self.nvars as usize
    }

    fn field(&self, var: usize) -> u128 {
        (self.bits >> (2 * var)) & DC
    }

    fn with_field(mut self, var: usize, field: u128) -> Cube {
        assert!(var < self.nvars(), "variable index out of range");
        self.bits = (self.bits & !(DC << (2 * var))) | (field << (2 * var));
        self
    }

    /// Returns this cube with a positive literal on `var` (`var` must be
    /// 1).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn with_positive(self, var: usize) -> Cube {
        self.with_field(var, 0b10)
    }

    /// Returns this cube with a negative literal on `var` (`var` must be
    /// 0).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn with_negative(self, var: usize) -> Cube {
        self.with_field(var, 0b01)
    }

    /// Returns this cube with `var` freed (don't care).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn with_free(self, var: usize) -> Cube {
        self.with_field(var, DC)
    }

    /// The literal on `var`: `Some(true)` positive, `Some(false)`
    /// negative, `None` if the variable does not appear.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or the cube is empty in that
    /// variable.
    pub fn literal(&self, var: usize) -> Option<bool> {
        assert!(var < self.nvars(), "variable index out of range");
        match self.field(var) {
            0b10 => Some(true),
            0b01 => Some(false),
            0b11 => None,
            _ => panic!("empty cube has no literals"),
        }
    }

    /// Number of bound variables (literals).
    pub fn literal_count(&self) -> u32 {
        let mut count = 0;
        for i in 0..self.nvars() {
            if self.field(i) != DC {
                count += 1;
            }
        }
        count
    }

    /// Returns `true` if the cube covers `minterm`.
    pub fn covers_minterm(&self, minterm: u64) -> bool {
        for i in 0..self.nvars() {
            let bit = (minterm >> i) & 1;
            let needed = if bit == 1 { 0b10u128 } else { 0b01 };
            if self.field(i) & needed == 0 {
                return false;
            }
        }
        true
    }

    /// Returns `true` if every minterm of `other` is covered by `self`.
    pub fn contains(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.nvars, other.nvars);
        // self contains other iff other's allowed sets are subsets.
        self.bits & other.bits == other.bits
    }

    /// Attempts the Quine–McCluskey merge: if the cubes differ in exactly
    /// one variable where one is positive and the other negative (same
    /// literals elsewhere), returns the merged cube with that variable
    /// freed.
    pub fn merge(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.nvars, other.nvars);
        let diff = self.bits ^ other.bits;
        if diff == 0 {
            return None;
        }
        // The differing bits must be confined to one 2-bit field and the
        // union of the two fields must be 11 (one 01, other 10).
        let low = diff.trailing_zeros() as usize / 2;
        if diff & !(DC << (2 * low)) != 0 {
            return None;
        }
        let fa = self.field(low);
        let fb = other.field(low);
        if fa | fb != DC || fa == DC || fb == DC {
            return None;
        }
        Some(self.with_free(low))
    }

    /// Evaluates the cube as a product term on an assignment.
    pub fn eval(&self, assignment: u64) -> bool {
        self.covers_minterm(assignment)
    }

    /// Bitset of free (don't-care) variables. Two cubes can only QM-merge
    /// when their free masks agree.
    pub fn free_mask(&self) -> u64 {
        let mut mask = 0u64;
        for i in 0..self.nvars() {
            if self.field(i) == DC {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Number of positive literals; cubes differing by one QM merge step
    /// have counts that differ by exactly one.
    pub fn positive_count(&self) -> u32 {
        let mut count = 0;
        for i in 0..self.nvars() {
            if self.field(i) == 0b10 {
                count += 1;
            }
        }
        count
    }

    /// The raw positional-cube encoding — a total, collision-free sort
    /// key over cubes of one variable space (the minimiser's sorted-vec
    /// dedup orders generations by it).
    pub fn key(&self) -> u128 {
        self.bits
    }

    /// Iterates over (variable, positive?) literal pairs.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..self.nvars()).filter_map(move |i| self.literal(i).map(|pos| (i, pos)))
    }

    /// Renders with variable names: `a b' d`.
    pub fn format_with(&self, names: &[String]) -> String {
        let parts: Vec<String> = self
            .literals()
            .map(|(i, pos)| {
                let n = names.get(i).map(String::as_str).unwrap_or("?");
                if pos {
                    n.to_string()
                } else {
                    format!("{n}'")
                }
            })
            .collect();
        if parts.is_empty() {
            "1".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.nvars()).rev() {
            let c = match self.field(i) {
                0b01 => '0',
                0b10 => '1',
                0b11 => '-',
                _ => '!',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_cube_covers_only_itself() {
        let c = Cube::minterm(4, 0b1010);
        assert!(c.covers_minterm(0b1010));
        for m in 0..16u64 {
            assert_eq!(c.covers_minterm(m), m == 0b1010);
        }
        assert_eq!(c.literal_count(), 4);
    }

    #[test]
    fn full_cube_is_tautology() {
        let c = Cube::full(3);
        for m in 0..8u64 {
            assert!(c.covers_minterm(m));
        }
        assert_eq!(c.literal_count(), 0);
        assert_eq!(c.to_string(), "---");
    }

    #[test]
    fn literal_accessors() {
        let c = Cube::full(3).with_positive(0).with_negative(2);
        assert_eq!(c.literal(0), Some(true));
        assert_eq!(c.literal(1), None);
        assert_eq!(c.literal(2), Some(false));
        assert_eq!(
            c.literals().collect::<Vec<_>>(),
            vec![(0, true), (2, false)]
        );
        assert_eq!(c.to_string(), "0-1");
    }

    #[test]
    fn containment() {
        let big = Cube::full(3).with_positive(0);
        let small = Cube::full(3).with_positive(0).with_negative(1);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn qm_merge() {
        let a = Cube::minterm(3, 0b000);
        let b = Cube::minterm(3, 0b001);
        let merged = a.merge(&b).expect("adjacent minterms merge");
        assert_eq!(merged.to_string(), "00-");
        assert!(merged.covers_minterm(0b000) && merged.covers_minterm(0b001));

        let c = Cube::minterm(3, 0b011);
        assert_eq!(a.merge(&c), None, "distance 2, no merge");
        assert_eq!(a.merge(&a), None, "identical cubes do not merge");
    }

    #[test]
    fn merge_requires_same_dc_pattern() {
        let a = Cube::full(3).with_positive(0); // --1
        let b = Cube::full(3).with_negative(1); // -0-
        assert_eq!(a.merge(&b), None);
        let c = Cube::full(3).with_negative(0); // --0
        assert_eq!(a.merge(&c).unwrap().to_string(), "---");
    }

    #[test]
    fn format_with_names() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let c = Cube::full(3).with_positive(0).with_negative(2);
        assert_eq!(c.format_with(&names), "a c'");
        assert_eq!(Cube::full(3).format_with(&names), "1");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_literal_panics() {
        let _ = Cube::full(2).with_positive(2);
    }
}
