//! Espresso-style heuristic two-level minimisation.
//!
//! Quine–McCluskey ([`crate::minimize`]) enumerates the full minterm
//! space to account for don't-cares, which caps it at ~18 variables.
//! This module minimises directly on the ON/OFF cube lists — the
//! classic EXPAND / IRREDUNDANT loop — so it scales to the wide state
//! codes of composed controllers. The result is a correct cover (1 on
//! every ON minterm, 0 on every OFF minterm) that is usually minimal
//! but not guaranteed to be; the synthesiser uses it when exact QM is
//! out of reach.

use crate::{Cover, Cube, MinimizeError};

/// Heuristically minimises a function given as ON-set and OFF-set
/// minterm lists (everything else is a don't-care).
///
/// # Errors
///
/// Returns [`MinimizeError::Contradiction`] when a minterm appears in
/// both lists. There is no variable-count bound: complexity is
/// `O(|on| · |off| · n)` per pass.
///
/// # Examples
///
/// ```
/// use a4a_boolmin::espresso;
///
/// // f(a,b) = a xor b, fully specified.
/// let cover = espresso(2, &[0b01, 0b10], &[0b00, 0b11])?;
/// assert_eq!(cover.check(&[0b01, 0b10], &[0b00, 0b11]), None);
/// # Ok::<(), a4a_boolmin::MinimizeError>(())
/// ```
pub fn espresso(nvars: usize, on: &[u64], off: &[u64]) -> Result<Cover, MinimizeError> {
    assert!(nvars <= 64, "at most 64 variables");
    for &m in on {
        if off.contains(&m) {
            return Err(MinimizeError::Contradiction { minterm: m });
        }
    }
    if on.is_empty() {
        return Ok(Cover::new(nvars));
    }

    // Start from the ON minterms as 0-cubes and expand each against the
    // OFF-set.
    let mut cubes: Vec<Cube> = on.iter().map(|&m| Cube::minterm(nvars, m)).collect();
    for cube in &mut cubes {
        *cube = expand(*cube, off, nvars);
    }
    // Irredundant: drop cubes whose ON minterms are covered elsewhere.
    let cover = irredundant(cubes, on, nvars);
    debug_assert_eq!(cover.check(on, off), None);
    Ok(cover)
}

/// Expands a cube variable by variable (raising literals to don't-care)
/// while it stays disjoint from the OFF-set. Variable order is chosen
/// greedily: try the variable whose raise frees the most OFF-distance
/// first (approximated by simple index order with a second pass, which
/// is cheap and works well on control functions).
fn expand(mut cube: Cube, off: &[u64], nvars: usize) -> Cube {
    // Two passes: raising one literal can unlock another.
    for _ in 0..2 {
        for var in 0..nvars {
            if cube.literal(var).is_none() {
                continue;
            }
            let candidate = cube.with_free(var);
            if off.iter().all(|&m| !candidate.covers_minterm(m)) {
                cube = candidate;
            }
        }
    }
    cube
}

/// Selects an irredundant subset of `cubes` still covering every ON
/// minterm, preferring large (few-literal) cubes.
fn irredundant(mut cubes: Vec<Cube>, on: &[u64], _nvars: usize) -> Cover {
    cubes.sort_by_key(Cube::literal_count);
    cubes.dedup();
    let mut chosen: Vec<Cube> = Vec::new();
    let mut uncovered: Vec<u64> = on.to_vec();
    // Greedy: repeatedly take the cube covering the most uncovered ON
    // minterms.
    while !uncovered.is_empty() {
        let (best_idx, _) = cubes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    i,
                    uncovered.iter().filter(|&&m| c.covers_minterm(m)).count(),
                )
            })
            .max_by_key(|&(i, n)| {
                (
                    n,
                    std::cmp::Reverse(cubes[i].literal_count()),
                    usize::MAX - i,
                )
            })
            .expect("cubes cover the ON set by construction");
        let best = cubes[best_idx];
        uncovered.retain(|&m| !best.covers_minterm(m));
        chosen.push(best);
    }
    let mut cover = Cover::new(chosen[0].nvars());
    for c in chosen {
        cover.push(c);
    }
    cover.absorb();
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{minimize, Minimize};

    fn exhaustive_check(_nvars: usize, on: &[u64], off: &[u64], cover: &Cover) {
        for &m in on {
            assert!(cover.eval(m), "ON minterm {m:#b} missed");
        }
        for &m in off {
            assert!(!cover.eval(m), "OFF minterm {m:#b} covered");
        }
    }

    #[test]
    fn matches_qm_on_small_functions() {
        // Over all 3-variable partitions with a fixed pattern: espresso
        // must be correct; compare cube counts loosely against QM.
        for seed in 0..50u64 {
            let mut on = Vec::new();
            let mut off = Vec::new();
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for m in 0..8u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match (state >> 30) % 3 {
                    0 => on.push(m),
                    1 => off.push(m),
                    _ => {}
                }
            }
            if on.is_empty() {
                continue;
            }
            let heur = espresso(3, &on, &off).unwrap();
            exhaustive_check(3, &on, &off, &heur);
            let exact = minimize(&Minimize::new(3).on(&on).off(&off)).unwrap();
            assert!(
                heur.cube_count() <= exact.cube_count() + 2,
                "seed {seed}: heuristic {} vs exact {}",
                heur.cube_count(),
                exact.cube_count()
            );
        }
    }

    #[test]
    fn handles_wide_functions_beyond_qm() {
        // 30 variables: f = 1 when the low 4 bits equal 0b1010,
        // 0 on a scattered OFF sample. QM cannot enumerate this space.
        let nvars = 30;
        let on: Vec<u64> = (0..20).map(|k| 0b1010 | (k << 7) | (1 << 25)).collect();
        let off: Vec<u64> = (0..20).map(|k| 0b0110 | (k << 9)).collect();
        let cover = espresso(nvars, &on, &off).unwrap();
        exhaustive_check(nvars, &on, &off, &cover);
        assert!(cover.cube_count() <= on.len());
    }

    #[test]
    fn fully_specified_and() {
        let on = [0b11u64];
        let off = [0b00u64, 0b01, 0b10];
        let cover = espresso(2, &on, &off).unwrap();
        assert_eq!(cover.cube_count(), 1);
        assert_eq!(cover.literal_count(), 2);
    }

    #[test]
    fn dont_cares_enable_expansion() {
        // ON {11}, OFF {00}: one literal suffices.
        let cover = espresso(2, &[0b11], &[0b00]).unwrap();
        assert_eq!(cover.literal_count(), 1);
    }

    #[test]
    fn empty_on_gives_constant_zero() {
        let cover = espresso(4, &[], &[1, 2, 3]).unwrap();
        assert!(cover.is_empty());
    }

    #[test]
    fn contradiction_rejected() {
        let err = espresso(2, &[1], &[1]).unwrap_err();
        assert_eq!(err, MinimizeError::Contradiction { minterm: 1 });
    }

    #[test]
    fn no_off_set_collapses_to_tautology() {
        let cover = espresso(3, &[0, 3, 7], &[]).unwrap();
        assert_eq!(cover.cube_count(), 1);
        assert_eq!(cover.literal_count(), 0, "free expansion to constant 1");
    }
}
