//! Quine–McCluskey prime-implicant generation and Petrick exact cover
//! selection, with a greedy fallback for large instances.

use std::error::Error;
use std::fmt;

use crate::{Cover, Cube};

/// Problem description for [`minimize`].
///
/// The ON-set and OFF-set are lists of minterms (bit `i` = variable `i`);
/// every minterm in neither list is a don't-care. Instances are bounded
/// to 18 variables because don't-care enumeration walks the full minterm
/// space.
#[derive(Debug, Clone)]
pub struct Minimize<'a> {
    nvars: usize,
    on: &'a [u64],
    off: &'a [u64],
    exact_limit: usize,
}

impl<'a> Minimize<'a> {
    /// Creates a problem over `nvars` variables with empty ON/OFF sets.
    pub fn new(nvars: usize) -> Self {
        Minimize {
            nvars,
            on: &[],
            off: &[],
            exact_limit: 24,
        }
    }

    /// Sets the ON-set minterms.
    pub fn on(mut self, on: &'a [u64]) -> Self {
        self.on = on;
        self
    }

    /// Sets the OFF-set minterms.
    pub fn off(mut self, off: &'a [u64]) -> Self {
        self.off = off;
        self
    }

    /// Sets the Petrick exact-cover budget: problems whose cyclic core has
    /// more rows than this fall back to a greedy cover (default 24).
    pub fn exact_limit(mut self, limit: usize) -> Self {
        self.exact_limit = limit;
        self
    }
}

/// Errors raised by [`minimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinimizeError {
    /// A minterm appears in both the ON-set and the OFF-set.
    Contradiction {
        /// The offending minterm.
        minterm: u64,
    },
    /// The instance has too many variables for don't-care enumeration.
    TooManyVariables {
        /// The offending count.
        nvars: usize,
    },
}

impl fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinimizeError::Contradiction { minterm } => {
                write!(f, "minterm {minterm:#b} is both ON and OFF")
            }
            MinimizeError::TooManyVariables { nvars } => {
                write!(
                    f,
                    "{nvars} variables exceed the 18-variable enumeration bound"
                )
            }
        }
    }
}

impl Error for MinimizeError {}

/// Minimises an incompletely specified Boolean function into a
/// sum-of-products cover.
///
/// The result covers every ON minterm, avoids every OFF minterm, and uses
/// prime implicants of the function `ON ∪ DC`. Cover selection is exact
/// (Petrick's method, minimising cube count then literal count) when the
/// cyclic core is small, greedy otherwise.
///
/// # Errors
///
/// * [`MinimizeError::Contradiction`] when ON and OFF overlap;
/// * [`MinimizeError::TooManyVariables`] beyond 18 variables.
pub fn minimize(problem: &Minimize<'_>) -> Result<Cover, MinimizeError> {
    let nvars = problem.nvars;
    if nvars > 18 {
        return Err(MinimizeError::TooManyVariables { nvars });
    }
    let mut on_list: Vec<u64> = problem.on.to_vec();
    on_list.sort_unstable();
    on_list.dedup();
    let mut off_list: Vec<u64> = problem.off.to_vec();
    off_list.sort_unstable();
    off_list.dedup();
    // Sorted-list intersection: reports the *smallest* contradictory
    // minterm (hash-set iteration order used to pick an arbitrary one).
    {
        let (mut i, mut j) = (0usize, 0usize);
        while i < on_list.len() && j < off_list.len() {
            match on_list[i].cmp(&off_list[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    return Err(MinimizeError::Contradiction {
                        minterm: on_list[i],
                    })
                }
            }
        }
    }
    if on_list.is_empty() {
        return Ok(Cover::new(nvars));
    }

    // Care-set primes: start from all non-OFF minterms (ON ∪ DC) and merge.
    // Cubes are bucketed by (free-variable mask, positive-literal count);
    // a QM merge only ever pairs cubes in adjacent buckets of the same
    // free mask, which keeps the pass near-linear in practice. Each
    // generation lives in a sorted `Vec` — sorting by (bucket, raw key)
    // makes the buckets contiguous runs, duplicates adjacent, and the
    // whole pass allocation-light; the `HashSet` churn this replaces
    // rebuilt three hash tables per generation.
    let space = 1u64 << nvars;
    let mut current: Vec<Cube> = (0..space)
        .filter(|m| off_list.binary_search(m).is_err())
        .map(|m| Cube::minterm(nvars, m))
        .collect();
    let mut next: Vec<Cube> = Vec::new();
    let mut merged: Vec<bool> = Vec::new();
    let mut primes: Vec<Cube> = Vec::new();
    while !current.is_empty() {
        current.sort_by_cached_key(|c| (c.free_mask(), c.positive_count(), c.key()));
        current.dedup_by_key(|c| c.key());
        // Contiguous (free mask, positive count) runs.
        let mut buckets: Vec<((u64, u32), usize, usize)> = Vec::new();
        let mut start = 0usize;
        for i in 1..=current.len() {
            let tag = |c: &Cube| (c.free_mask(), c.positive_count());
            if i == current.len() || tag(&current[i]) != tag(&current[start]) {
                buckets.push((tag(&current[start]), start, i));
                start = i;
            }
        }
        merged.clear();
        merged.resize(current.len(), false);
        next.clear();
        for (bi, &((mask, ones), lo, hi)) in buckets.iter().enumerate() {
            // The partner bucket, if present, is the next run with the
            // same free mask (runs are sorted by (mask, ones)).
            let Some(&(_, ulo, uhi)) = buckets
                .get(bi + 1)
                .filter(|&&((m, o), _, _)| m == mask && o == ones + 1)
            else {
                continue;
            };
            for a in lo..hi {
                for b in ulo..uhi {
                    if let Some(m) = current[a].merge(&current[b]) {
                        merged[a] = true;
                        merged[b] = true;
                        next.push(m);
                    }
                }
            }
        }
        primes.extend(
            current
                .iter()
                .zip(&merged)
                .filter(|&(_, &was_merged)| !was_merged)
                .map(|(&c, _)| c),
        );
        std::mem::swap(&mut current, &mut next);
    }

    // Keep only primes that cover at least one ON minterm.
    primes.retain(|p| on_list.iter().any(|&m| p.covers_minterm(m)));
    primes.sort_by_cached_key(|p| (p.literal_count(), format!("{p}")));

    // Essential primes first. The two minterm work lists swap roles each
    // round instead of reallocating, and the covering scan stops at the
    // second hit — only a unique coverer is ever looked at again.
    let mut chosen: Vec<Cube> = Vec::new();
    let mut uncovered: Vec<u64> = on_list.clone();
    let mut still_uncovered: Vec<u64> = Vec::new();
    loop {
        let mut essential_found = false;
        for &m in &uncovered {
            let mut count = 0u32;
            let mut only = 0usize;
            for (i, p) in primes.iter().enumerate() {
                if p.covers_minterm(m) {
                    count += 1;
                    if count > 1 {
                        break;
                    }
                    only = i;
                }
            }
            if count == 1 {
                let p = primes[only];
                if !chosen.contains(&p) {
                    chosen.push(p);
                    essential_found = true;
                }
            }
        }
        still_uncovered.clear();
        for &m in &uncovered {
            if !chosen.iter().any(|p| p.covers_minterm(m)) {
                still_uncovered.push(m);
            }
        }
        std::mem::swap(&mut uncovered, &mut still_uncovered);
        if !essential_found || uncovered.is_empty() {
            break;
        }
    }

    if !uncovered.is_empty() {
        // Cyclic core: candidates are primes covering something uncovered.
        let candidates: Vec<Cube> = primes
            .iter()
            .copied()
            .filter(|p| uncovered.iter().any(|&m| p.covers_minterm(m)))
            .collect();
        let extra = if uncovered.len() <= problem.exact_limit && candidates.len() <= 20 {
            petrick(&candidates, &uncovered)
        } else {
            greedy(&candidates, &uncovered)
        };
        chosen.extend(extra);
    }

    let mut cover = Cover::new(nvars);
    for c in chosen {
        cover.push(c);
    }
    cover.absorb();
    debug_assert_eq!(cover.check(problem.on, problem.off), None);
    Ok(cover)
}

/// Petrick's method: exhaustively finds the subset of `candidates`
/// covering all `minterms` with minimal (cube count, literal count).
fn petrick(candidates: &[Cube], minterms: &[u64]) -> Vec<Cube> {
    let n = candidates.len();
    debug_assert!(n <= 20);
    let mut best: Option<(u32, u32, u32)> = None; // (count, literals, mask)
    'outer: for mask in 1u32..(1 << n) {
        let count = mask.count_ones();
        if let Some((bc, _, _)) = best {
            if count > bc {
                continue;
            }
        }
        for &m in minterms {
            let covered = (0..n).any(|i| mask & (1 << i) != 0 && candidates[i].covers_minterm(m));
            if !covered {
                continue 'outer;
            }
        }
        let literals: u32 = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| candidates[i].literal_count())
            .sum();
        let better = match best {
            None => true,
            Some((bc, bl, _)) => (count, literals) < (bc, bl),
        };
        if better {
            best = Some((count, literals, mask));
        }
    }
    let (_, _, mask) = best.expect("candidates jointly cover the minterms");
    (0..n)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| candidates[i])
        .collect()
}

/// Greedy set cover: repeatedly picks the prime covering the most
/// remaining minterms (ties broken toward fewer literals).
fn greedy(candidates: &[Cube], minterms: &[u64]) -> Vec<Cube> {
    let mut remaining: Vec<u64> = minterms.to_vec();
    let mut chosen = Vec::new();
    while !remaining.is_empty() {
        let best = candidates
            .iter()
            .max_by_key(|p| {
                let covered = remaining.iter().filter(|&&m| p.covers_minterm(m)).count();
                (covered, std::cmp::Reverse(p.literal_count()))
            })
            .copied()
            .expect("candidates jointly cover the minterms");
        remaining.retain(|&m| !best.covers_minterm(m));
        chosen.push(best);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force_equal(nvars: usize, on: &[u64], off: &[u64], cover: &Cover) {
        for m in 0..(1u64 << nvars) {
            if on.contains(&m) {
                assert!(cover.eval(m), "minterm {m:#b} should be ON");
            }
            if off.contains(&m) {
                assert!(!cover.eval(m), "minterm {m:#b} should be OFF");
            }
        }
    }

    #[test]
    fn xor_is_two_cubes() {
        let on = [0b01u64, 0b10];
        let off = [0b00u64, 0b11];
        let cover = minimize(&Minimize::new(2).on(&on).off(&off)).unwrap();
        assert_eq!(cover.cube_count(), 2);
        brute_force_equal(2, &on, &off, &cover);
    }

    #[test]
    fn and_is_one_cube() {
        let on = [0b11u64];
        let off = [0b00, 0b01, 0b10];
        let cover = minimize(&Minimize::new(2).on(&on).off(&off)).unwrap();
        assert_eq!(cover.cube_count(), 1);
        assert_eq!(cover.literal_count(), 2);
    }

    #[test]
    fn dont_cares_shrink_cover() {
        // f = 1 on {3}, 0 on {0}; minterms 1,2 are DC -> cover can be a
        // single literal.
        let on = [0b11u64];
        let off = [0b00u64];
        let cover = minimize(&Minimize::new(2).on(&on).off(&off)).unwrap();
        assert_eq!(cover.cube_count(), 1);
        assert_eq!(cover.literal_count(), 1);
        brute_force_equal(2, &on, &off, &cover);
    }

    #[test]
    fn constant_one_when_off_empty() {
        let on = [0u64, 1, 2, 3];
        let cover = minimize(&Minimize::new(2).on(&on).off(&[])).unwrap();
        assert_eq!(cover.cube_count(), 1);
        assert_eq!(cover.literal_count(), 0);
    }

    #[test]
    fn constant_zero_when_on_empty() {
        let cover = minimize(&Minimize::new(2).on(&[]).off(&[0, 1])).unwrap();
        assert!(cover.is_empty());
        assert!(!cover.eval(3));
    }

    #[test]
    fn contradiction_detected() {
        let err = minimize(&Minimize::new(2).on(&[1]).off(&[1])).unwrap_err();
        assert_eq!(err, MinimizeError::Contradiction { minterm: 1 });
    }

    #[test]
    fn too_many_variables_rejected() {
        let err = minimize(&Minimize::new(19)).unwrap_err();
        assert_eq!(err, MinimizeError::TooManyVariables { nvars: 19 });
    }

    #[test]
    fn classic_4var_example() {
        // f(a,b,c,d) with ON = {4,8,10,11,12,15}, DC = {9,14} —
        // textbook QM example; minimal cover has 3 cubes? The known
        // result: f = bc'd' + ab' + ac (with DCs used).
        let on = [4u64, 8, 10, 11, 12, 15];
        let all: Vec<u64> = (0..16).collect();
        let dc = [9u64, 14];
        let off: Vec<u64> = all
            .iter()
            .copied()
            .filter(|m| !on.contains(m) && !dc.contains(m))
            .collect();
        let cover = minimize(&Minimize::new(4).on(&on).off(&off)).unwrap();
        brute_force_equal(4, &on, &off, &cover);
        assert!(cover.cube_count() <= 3, "got {}", cover);
    }

    #[test]
    fn majority_function() {
        // maj(a,b,c): minimal SOP = ab + ac + bc.
        let on = [0b011u64, 0b101, 0b110, 0b111];
        let off = [0b000u64, 0b001, 0b010, 0b100];
        let cover = minimize(&Minimize::new(3).on(&on).off(&off)).unwrap();
        assert_eq!(cover.cube_count(), 3);
        assert_eq!(cover.literal_count(), 6);
        brute_force_equal(3, &on, &off, &cover);
    }

    #[test]
    fn greedy_fallback_still_correct() {
        // Force the greedy path with a tiny exact limit.
        let on = [0b011u64, 0b101, 0b110, 0b111];
        let off = [0b000u64, 0b001, 0b010, 0b100];
        let cover = minimize(&Minimize::new(3).on(&on).off(&off).exact_limit(0)).unwrap();
        brute_force_equal(3, &on, &off, &cover);
    }

    #[test]
    fn single_minterm_functions() {
        for m in 0..8u64 {
            let off: Vec<u64> = (0..8).filter(|&x| x != m).collect();
            let cover = minimize(&Minimize::new(3).on(&[m]).off(&off)).unwrap();
            brute_force_equal(3, &[m], &off, &cover);
            assert_eq!(cover.cube_count(), 1);
            assert_eq!(cover.literal_count(), 3);
        }
    }
}
